//! The frozen surface: every name `bench/src/*.rs` imports, bound to its
//! exact type. `bench/` builds from its own workspace, so without this a
//! signature drift would only show up when the benchmark is next built;
//! here it is a tier-1 `cargo test` failure naming the function.

// Spelling each type out in full is the point of this file.
#![allow(clippy::type_complexity)]

use dhub_analyzer::{analyze_layer_scratch, AnalyzeError};
use dhub_cache::{PullTrace, TraceConfig};
use dhub_crawler::{crawl_obs, CrawlReport, CrawlResult};
use dhub_dedup::ImageLayers;
use dhub_dedupstore::{
    analyze_and_ingest, analyze_and_ingest_persistent, DedupStore, IngestStats, LayerRecipe,
    PersistentDedupStore, PersistentError, StoreError, StoreStats,
};
use dhub_digest::FxHashMap;
use dhub_downloader::{download_all_obs, DownloadReport, DownloadResult};
use dhub_faults::{FaultInjector, RetryPolicy};
use dhub_json::Json;
use dhub_mirror::{HashRing, LiveCache, Mirror, MirrorConfig, MirrorReport, PolicyKind};
use dhub_model::{Digest, ImageProfile, LayerProfile, Manifest, RepoName};
use dhub_obs::MetricsRegistry;
use dhub_par::Scratch;
use dhub_persist::{BlobStore, GcStats, PersistError, Publisher, Table};
use dhub_queue::{DurableQueue, LeaseConfig, LeaseManager, QueueError};
use dhub_registry::{
    ApiError, ClientError, MirrorBackend, NetworkModel, PullSession, Registry, RegistryServer,
    RemoteRegistry, SearchIndex, DEFAULT_MAX_CONNS,
};
use dhub_study::db::StudyDb;
use dhub_study::distributed::{
    profile_from_value, profile_json, run_study_queued_obs, QueuedStudyConfig,
};
use dhub_study::figures::all_figures;
use dhub_study::pipeline::{run_study_obs, run_study_persist_obs, run_study_store_obs, StudyData};
use dhub_study::FigureReport;
use dhub_synth::SyntheticHub;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

type Fused<E> = Result<(LayerProfile, Result<IngestStats, E>), AnalyzeError>;

#[test]
fn study_entry_points_keep_their_signatures() {
    let _: fn(&SyntheticHub, usize, &RetryPolicy, &MetricsRegistry) -> StudyData = run_study_obs;
    let _: fn(&SyntheticHub, usize, &RetryPolicy, &DedupStore, &MetricsRegistry) -> StudyData =
        run_study_store_obs;
    let _: fn(
        &SyntheticHub,
        usize,
        &RetryPolicy,
        &PersistentDedupStore,
        &MetricsRegistry,
    ) -> StudyData = run_study_persist_obs;
    let _: fn(
        &SyntheticHub,
        &PersistentDedupStore,
        &DurableQueue,
        &QueuedStudyConfig,
        &MetricsRegistry,
    ) -> Result<StudyData, QueueError> = run_study_queued_obs;
    let _: fn(&LayerProfile) -> Json = profile_json;
    let _: fn(&Json) -> Option<LayerProfile> = profile_from_value;
}

#[test]
fn stage_entry_points_keep_their_signatures() {
    let _: fn(
        &SearchIndex,
        &[RepoName],
        Option<&FaultInjector>,
        &RetryPolicy,
        &MetricsRegistry,
    ) -> CrawlResult = crawl_obs;
    let _: fn(
        &Registry,
        &[RepoName],
        usize,
        &NetworkModel,
        &RetryPolicy,
        &MetricsRegistry,
    ) -> DownloadResult = download_all_obs;
    let _: fn(Digest, &[u8], &mut Scratch) -> Result<LayerProfile, AnalyzeError> =
        analyze_layer_scratch;
    // The generic fused pass, at the two store types `bench/` drives.
    let _: fn(&DedupStore, Digest, &[u8], &mut Scratch) -> Fused<StoreError> = analyze_and_ingest;
    let _: fn(&PersistentDedupStore, Digest, &[u8], &mut Scratch) -> Fused<PersistentError> =
        analyze_and_ingest_persistent;
    let _: fn(
        &'static Path,
        Publisher,
        Option<&MetricsRegistry>,
    ) -> Result<PersistentDedupStore, PersistentError> = PersistentDedupStore::open_obs;
}

/// The serving half: what `bench/src/{serve,layers}.rs` start, connect to
/// and pull through.
#[test]
fn serve_entry_points_keep_their_signatures() {
    type Started = std::io::Result<RegistryServer>;
    let _: fn(Arc<Registry>, Option<Arc<FaultInjector>>, Arc<MetricsRegistry>, usize) -> Started =
        RegistryServer::start_full;
    let _: fn(Arc<dyn MirrorBackend>, Arc<MetricsRegistry>, usize) -> Started =
        RegistryServer::start_mirror;
    let _: fn(&RegistryServer) -> SocketAddr = RegistryServer::addr;
    let _: usize = DEFAULT_MAX_CONNS;

    let _: fn(SocketAddr) -> RemoteRegistry = RemoteRegistry::connect_anonymous;
    let _: fn(&RemoteRegistry, &RepoName, &str) -> Result<(Digest, Manifest), ClientError> =
        RemoteRegistry::get_manifest;
    let _: fn(&RemoteRegistry, &RepoName, &Digest) -> Result<Vec<u8>, ClientError> =
        RemoteRegistry::get_blob;
    let _: fn(&RemoteRegistry) -> Result<(), ClientError> = RemoteRegistry::ping;
    let _: fn(&Registry, &RepoName, &str, bool) -> Result<PullSession, ApiError> =
        Registry::get_manifest;
    let _: fn(&Registry, &Digest) -> Result<Arc<Vec<u8>>, ApiError> = Registry::get_blob;

    let _: fn(&[SocketAddr], MirrorConfig, Arc<MetricsRegistry>) -> Mirror = Mirror::new;
    let _: fn(&Mirror) -> MirrorReport = Mirror::report;
    let _: fn(u64, PolicyKind) -> MirrorConfig = MirrorConfig::new;
    let _: fn(u64, PolicyKind, usize) -> LiveCache = LiveCache::new;
    let _: fn(usize, usize) -> HashRing = HashRing::new;
    let _: fn(&[(u64, f64, u64)], &TraceConfig) -> PullTrace = PullTrace::from_popularity;
    let TraceConfig { seed, requests } = TraceConfig { seed: 1, requests: 2 };
    let _: (u64, usize) = (seed, requests);
}

/// The durable half: store, queue, study tables and figures as
/// `bench/src/{study,layers}.rs` open, write, reopen and query them.
#[test]
fn durable_entry_points_keep_their_signatures() {
    type Dir = &'static Path;
    let _: fn() -> Publisher = Publisher::new;
    let _: fn(Publisher, &MetricsRegistry) -> Publisher = Publisher::with_metrics;
    let _: fn(Dir, Publisher) -> Result<BlobStore, PersistError> = BlobStore::open;
    let _: fn(Dir, Publisher) -> Result<DurableQueue, QueueError> = DurableQueue::open;
    let _: fn(DurableQueue, &MetricsRegistry) -> DurableQueue = DurableQueue::with_metrics;
    let _: fn(LeaseConfig) -> LeaseManager = LeaseManager::new;

    type Store = PersistentDedupStore;
    let _: fn(Dir, Publisher) -> Result<Store, PersistentError> = Store::open;
    let _: fn(&Store) -> Result<(), PersistentError> = Store::checkpoint;
    let _: fn(&Store) -> Result<GcStats, PersistentError> = Store::gc;
    let _: fn(&Store) -> &DedupStore = Store::mem;
    let _: fn(&Store) -> &BlobStore = Store::objects;
    let _: fn(&MetricsRegistry) -> DedupStore = DedupStore::with_metrics;
    let _: fn(&DedupStore, &Digest) -> Result<Vec<u8>, StoreError> = DedupStore::reconstruct_tar;
    let _: fn(&DedupStore, &Digest) -> Option<Arc<LayerRecipe>> = DedupStore::recipe;
    let _: fn(&DedupStore) -> StoreStats = DedupStore::stats;

    let _: fn(&StudyData, &StoreStats) -> StudyDb = StudyDb::build;
    let _: fn(&StudyDb, &Path, &Publisher) -> Result<(), PersistError> = StudyDb::save;
    let _: fn(&Path) -> Result<StudyDb, PersistError> = StudyDb::load;
    let _: fn(&StudyDb) -> Vec<String> = StudyDb::summary;
    let _: fn(&StudyDb) -> Vec<String> = StudyDb::dedup_summary;
    let _: fn(&StudyDb, usize) -> Vec<(String, u64, u64)> = StudyDb::top_file_types;
    let _: fn(&StudyDb) -> Vec<(&'static str, u64)> = StudyDb::layer_size_percentiles;
    let _: fn(StudyDb) -> Table = |db| db.files;
    let _: fn(&StudyData) -> Vec<FigureReport> = all_figures;
}

/// Exhaustive patterns (no `..`): adding, removing or retyping a field of
/// either struct fails here.
#[test]
fn frozen_structs_keep_their_fields() {
    fn study_data(d: StudyData) {
        let StudyData {
            crawl,
            download,
            layers,
            images,
            image_layers,
            pulls,
            analyze_errors,
            size_scale,
            seed,
        } = d;
        let _: (CrawlReport, DownloadReport, FxHashMap<Digest, LayerProfile>) =
            (crawl, download, layers);
        let _: (Vec<ImageProfile>, Vec<ImageLayers>, Vec<(RepoName, u64)>) =
            (images, image_layers, pulls);
        let _: (usize, u64, u64) = (analyze_errors, size_scale, seed);
    }
    let _ = study_data;

    let QueuedStudyConfig { workers, policy, lease, max_commits, lease_faults } =
        QueuedStudyConfig::default();
    let _: (usize, RetryPolicy, LeaseConfig) = (workers, policy, lease);
    let _: (Option<u64>, Option<Arc<FaultInjector>>) = (max_commits, lease_faults);
}
