//! The frozen surface: every name `bench/src/*.rs` imports, bound to its
//! exact type. `bench/` builds from its own workspace, so without this a
//! signature drift would only show up when the benchmark is next built;
//! here it is a tier-1 `cargo test` failure naming the function.

use dhub_analyzer::{analyze_layer_scratch, AnalyzeError};
use dhub_crawler::{crawl_obs, CrawlReport, CrawlResult};
use dhub_dedup::ImageLayers;
use dhub_dedupstore::{
    analyze_and_ingest, analyze_and_ingest_persistent, DedupStore, IngestStats,
    PersistentDedupStore, PersistentError, StoreError,
};
use dhub_digest::FxHashMap;
use dhub_downloader::{download_all_obs, DownloadReport, DownloadResult};
use dhub_faults::{FaultInjector, RetryPolicy};
use dhub_json::Json;
use dhub_model::{Digest, ImageProfile, LayerProfile, RepoName};
use dhub_obs::MetricsRegistry;
use dhub_par::Scratch;
use dhub_persist::Publisher;
use dhub_queue::{DurableQueue, LeaseConfig, QueueError};
use dhub_registry::{NetworkModel, Registry, SearchIndex};
use dhub_study::distributed::{
    profile_from_value, profile_json, run_study_queued_obs, QueuedStudyConfig,
};
use dhub_study::pipeline::{run_study_obs, run_study_persist_obs, run_study_store_obs, StudyData};
use dhub_synth::SyntheticHub;
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

    let QueuedStudyConfig { workers, policy, lease, max_commits, lease_faults, pace_network } =
        QueuedStudyConfig::default();
    let _: (usize, RetryPolicy, LeaseConfig) = (workers, policy, lease);
    let _: (Option<u64>, Option<Arc<FaultInjector>>, bool) =
        (max_commits, lease_faults, pace_network);
}
