//! The queued pipeline: the crawl → download → analyze study executed by
//! a lease-based worker fleet over a durable job queue (`dhub-queue`),
//! ingesting into the persistent dedup store.
//!
//! Work decomposes into three job kinds, chained by dynamic expansion:
//!
//! - `page:<n>` — fetch one search-results page (same faulted fetch path
//!   as the sequential crawl). Page 0 learns the pagination depth and
//!   expands into `page:1..N`.
//! - `image:<repo>` — resolve the repo's `latest` manifest; on success,
//!   expand into one `layer:<digest>` job per referenced layer. Seeding
//!   is idempotent and layer ids are digest-derived, so a layer shared
//!   by many images is seeded (and fetched) exactly once — the queue
//!   *is* the unique-layer dedup.
//! - `layer:<digest>` — fetch the blob, analyze it, and ingest it into
//!   the shared [`PersistentDedupStore`]; the result record carries the
//!   serialized [`LayerProfile`].
//!
//! Determinism: each job's payload is a pure function of its spec — the
//! fault/retry streams are keyed by logical resource (page number, repo,
//! digest), never by worker or wall clock — and every aggregate below is
//! computed from the result set in sorted job order. Worker count,
//! lease-fault abandons, and fleet kills change only *who* executes a
//! job and *when*; the committed bytes, and therefore the assembled
//! [`StudyData`], the tables, and the store stats, are byte-identical to
//! the clean single-process run. The chaos suite gates on exactly that.

use crate::pipeline::{set_dedup_ratio, StudyData};
use dhub_analyzer::{image_profiles, ImageInput};
use dhub_crawler::{fetch_search_page, CrawlReport};
use dhub_dedup::ImageLayers;
use dhub_dedupstore::{analyze_and_ingest, PersistentDedupStore};
use dhub_digest::FxHashMap;
use dhub_downloader::{get_blob_verified, get_manifest_with_retry, RetryCounters};
use dhub_faults::{FaultInjector, RetryPolicy};
use dhub_json::Json;
use dhub_model::{Digest, FileKind, FileRecord, LayerProfile, RepoName};
use dhub_obs::{span, MetricsRegistry};
use dhub_queue::{
    DurableQueue, JobOutcome, JobSpec, LeaseConfig, QueueError, RunReport, WorkerConfig,
};
use dhub_registry::NetworkModel;
use dhub_synth::SyntheticHub;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// Parameters for a queued study run.
#[derive(Clone)]
pub struct QueuedStudyConfig {
    /// Worker thread count.
    pub workers: usize,
    /// Retry policy for manifest/blob/page fetches (same role as in the
    /// sequential pipeline).
    pub policy: RetryPolicy,
    /// Lease scheduling parameters.
    pub lease: LeaseConfig,
    /// Kill the fleet after this many commits (crash-resume harness);
    /// the run returns [`QueueError::Killed`] and a later run resumes.
    pub max_commits: Option<u64>,
    /// Lease-fault injection (usually the hub's injector, so
    /// `FaultOp::Lease` shares the seeded plan with the transport ops).
    pub lease_faults: Option<Arc<FaultInjector>>,
    /// Sleep out the WAN transfer time of each fetched blob. The
    /// sequential pipeline only *records* simulated transfer; the
    /// throughput benches enable real pacing so multi-worker overlap is
    /// measurable.
    pub pace_network: bool,
}

impl Default for QueuedStudyConfig {
    fn default() -> QueuedStudyConfig {
        QueuedStudyConfig {
            workers: 1,
            policy: RetryPolicy::default(),
            lease: LeaseConfig::default(),
            max_commits: None,
            lease_faults: None,
            pace_network: false,
        }
    }
}

/// [`LayerProfile`] as a JSON value, for embedding in a layer job's
/// result record. File kinds travel by taxonomy index ([`FileKind::ALL`]
/// is a fixed order).
pub fn profile_json(p: &LayerProfile) -> Json {
    let mut root = Json::obj();
    root.set("digest", p.digest.to_docker_string());
    root.set("fls", p.fls);
    root.set("cls", p.cls);
    root.set("dirCount", p.dir_count);
    root.set("fileCount", p.file_count);
    root.set("maxDepth", p.max_depth);
    let files: Vec<Json> = p
        .files
        .iter()
        .map(|f| {
            let mut j = Json::obj();
            j.set("path", f.path.as_str());
            j.set("digest", f.digest.to_docker_string());
            j.set("kind", f.kind.index());
            j.set("size", f.size);
            j
        })
        .collect();
    root.set("files", Json::Arr(files));
    root
}

/// Inverse of [`FileKind::index`]. `FileKind::ALL` holds only the 50
/// leaf kinds; `Video`, `OtherBinary` and `Empty` live past it in the
/// discriminant space, so the search must cover all of them.
fn kind_from_index(idx: usize) -> Option<FileKind> {
    FileKind::ALL
        .iter()
        .copied()
        .chain([FileKind::Video, FileKind::OtherBinary, FileKind::Empty])
        .find(|k| k.index() == idx)
}

/// Rebuilds a [`LayerProfile`] from its already-parsed JSON value (the
/// assembly path reads it straight out of the result payload without a
/// detour through text).
pub fn profile_from_value(j: &Json) -> Option<LayerProfile> {
    let files = j
        .get("files")?
        .as_arr()?
        .iter()
        .map(|f| {
            Some(FileRecord {
                path: f.get("path")?.as_str()?.to_string(),
                digest: Digest::parse(f.get("digest")?.as_str()?)?,
                kind: kind_from_index(f.get("kind")?.as_u64()? as usize)?,
                size: f.get("size")?.as_u64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(LayerProfile {
        digest: Digest::parse(j.get("digest")?.as_str()?)?,
        fls: j.get("fls")?.as_u64()?,
        cls: j.get("cls")?.as_u64()?,
        dir_count: j.get("dirCount")?.as_u64()?,
        file_count: j.get("fileCount")?.as_u64()?,
        max_depth: j.get("maxDepth")?.as_u64()?,
        files,
    })
}

fn page_job(n: usize) -> JobSpec {
    JobSpec::with_payload(format!("page:{n}"), "page", n.to_string())
}

fn image_job(repo: &RepoName) -> JobSpec {
    JobSpec::with_payload(format!("image:{}", repo.full()), "image", repo.full())
}

fn layer_job(digest: &Digest) -> JobSpec {
    let s = digest.to_docker_string();
    JobSpec::with_payload(format!("layer:{s}"), "layer", s)
}

/// The executor: one pure-ish function from job spec to result value
/// plus expansions. All state it touches (registry, store) is shared and
/// idempotent. The caller serializes the value into the durable result
/// payload (and caches it for assembly).
fn execute_job(
    hub: &SyntheticHub,
    store: &PersistentDedupStore,
    cfg: &QueuedStudyConfig,
    counters: &RetryCounters,
    net: &NetworkModel,
    obs: &MetricsRegistry,
    spec: &JobSpec,
) -> Result<(Json, Vec<JobSpec>), String> {
    let _span = span!(obs, "queue_job", spec.id);
    match spec.kind.as_str() {
        "page" => {
            let page: usize = spec.payload.parse().map_err(|_| "bad page payload")?;
            let injector = hub.registry.fault_injector();
            let fetch = fetch_search_page(&hub.search, page, injector.as_deref(), &cfg.policy);
            let mut out = Json::obj();
            let mut new_jobs = Vec::new();
            match fetch.parsed {
                Some(parsed) => {
                    out.set("fetched", true);
                    out.set("totalPages", parsed.info.total_pages);
                    let repos: Vec<Json> =
                        parsed.repos.iter().map(|r| Json::Str(r.full())).collect();
                    out.set("repos", Json::Arr(repos));
                    if page == 0 {
                        new_jobs = (1..parsed.info.total_pages).map(page_job).collect();
                    }
                }
                None => {
                    out.set("fetched", false);
                }
            }
            out.set("retries", fetch.retries);
            out.set("backoffNs", fetch.backoff.as_nanos() as u64);
            Ok((out, new_jobs))
        }
        "image" => {
            let repo = RepoName::parse(&spec.payload).ok_or("bad image payload")?;
            let mut out = Json::obj();
            let mut new_jobs = Vec::new();
            match get_manifest_with_retry(&hub.registry, &repo, "latest", &cfg.policy, counters) {
                Ok(sess) => {
                    out.set("status", "ok");
                    out.set("manifestDigest", sess.manifest_digest.to_docker_string());
                    let layers: Vec<Json> = sess
                        .manifest
                        .layers
                        .iter()
                        .map(|l| {
                            let mut j = Json::obj();
                            j.set("digest", l.digest.to_docker_string());
                            j.set("size", l.size);
                            j
                        })
                        .collect();
                    out.set("layers", Json::Arr(layers));
                    // One layer job per digest; the durable queue dedups
                    // ids, so shared layers are fetched exactly once.
                    new_jobs = sess.manifest.layers.iter().map(|l| layer_job(&l.digest)).collect();
                }
                Err(dhub_registry::ApiError::AuthRequired) => {
                    out.set("status", "auth");
                }
                Err(dhub_registry::ApiError::TagNotFound) => {
                    out.set("status", "no_latest");
                }
                Err(_) => {
                    out.set("status", "other");
                }
            }
            Ok((out, new_jobs))
        }
        "layer" => {
            let digest = Digest::parse(&spec.payload).ok_or("bad layer payload")?;
            let mut out = Json::obj();
            match get_blob_verified(&hub.registry, &digest, &cfg.policy, counters) {
                Ok(blob) => {
                    if cfg.pace_network {
                        std::thread::sleep(net.transfer_time(blob.len() as u64));
                    }
                    let analyzed = dhub_par::with_scratch(|scratch| {
                        analyze_and_ingest(store, digest, &blob, scratch)
                    });
                    match analyzed {
                        Ok((profile, ingest)) => {
                            // AlreadyIngested is the resume path (a killed
                            // run ingested the layer but lost the result
                            // record); any other ingest error is real.
                            if let Err(e) = ingest {
                                let benign = matches!(
                                    e,
                                    dhub_dedupstore::PersistentError::Store(
                                        dhub_dedupstore::StoreError::AlreadyIngested
                                    )
                                );
                                if !benign {
                                    return Err(format!("ingest {digest:?}: {e}"));
                                }
                            }
                            out.set("status", "ok");
                            out.set("cls", blob.len());
                            out.set("profile", profile_json(&profile));
                        }
                        Err(e) => {
                            out.set("status", "analyze_error");
                            out.set("cls", blob.len());
                            out.set("error", format!("{e}").as_str());
                        }
                    }
                }
                Err(_) => {
                    out.set("status", "gave_up");
                }
            }
            Ok((out, Vec::new()))
        }
        other => Err(format!("unknown job kind {other}")),
    }
}

/// In-memory copies of result payloads committed by *this* run, keyed by
/// job id. Assembly consults it before falling back to the durable
/// record: the cached value is the very `Json` the payload was serialized
/// from, so a clean run never re-parses its own results, while resumed
/// jobs (committed by an earlier, killed process) still read from disk.
type ResultCache = dhub_sync::Mutex<FxHashMap<String, Arc<Json>>>;

fn parse_payload(queue: &DurableQueue, cache: &ResultCache, id: &str) -> Result<Arc<Json>, QueueError> {
    if let Some(j) = cache.lock().get(id) {
        return Ok(j.clone());
    }
    let payload = queue
        .result(id)?
        .unwrap_or_else(|| panic!("drained queue is missing result for {id}"));
    Ok(Arc::new(
        dhub_json::parse(&payload)
            .unwrap_or_else(|_| panic!("unparseable result payload for {id}")),
    ))
}

/// Runs the full study through the durable queue with `cfg.workers`
/// workers, resuming from whatever job/result state `queue` and `store`
/// already hold. Returns [`QueueError::Killed`] when the commit budget
/// stopped the fleet (rerun to resume) and [`QueueError::Quarantined`]
/// when poison jobs survived their lease budget.
pub fn run_study_queued_obs(
    hub: &SyntheticHub,
    store: &PersistentDedupStore,
    queue: &DurableQueue,
    cfg: &QueuedStudyConfig,
    obs: &MetricsRegistry,
) -> Result<StudyData, QueueError> {
    let counters = RetryCounters::on(obs);
    let net = NetworkModel::wan();
    let cache: ResultCache = dhub_sync::Mutex::new(FxHashMap::default());
    let exec = |spec: &JobSpec| -> Result<JobOutcome, String> {
        let (out, new_jobs) = execute_job(hub, store, cfg, &counters, &net, obs, spec)?;
        let _ser = span!(obs, "queued_serialize", spec.id);
        let payload = out.to_string();
        cache.lock().insert(spec.id.clone(), Arc::new(out));
        Ok(JobOutcome { payload, new_jobs })
    };
    let run = |initial: &[JobSpec], budget: Option<u64>| -> Result<RunReport, QueueError> {
        let wcfg = WorkerConfig {
            workers: cfg.workers,
            lease: cfg.lease,
            max_commits: budget,
            faults: cfg.lease_faults.clone(),
        };
        let report = dhub_queue::run_workers(queue, &wcfg, initial, &exec)?;
        if report.killed {
            return Err(QueueError::Killed);
        }
        if !report.quarantined.is_empty() {
            return Err(QueueError::Quarantined(report.quarantined));
        }
        Ok(report)
    };

    // Phase 1: crawl pages (page:0 expands into the rest; already-seeded
    // image/layer jobs from an interrupted run drain alongside).
    let phase1 = {
        let _stage = span!(obs, "queued_crawl");
        run(&[page_job(0)], cfg.max_commits)?
    };

    // Aggregate pages in page order — same dedup walk as the sequential
    // crawl — then seed one image job per repository.
    let loaded = queue.load()?;
    let mut pages: BTreeMap<usize, Arc<Json>> = BTreeMap::new();
    for (spec, _) in &loaded {
        if spec.kind == "page" {
            let n: usize = spec.payload.parse().expect("page payload is a number");
            pages.insert(n, parse_payload(queue, &cache, &spec.id)?);
        }
    }
    let mut seen: BTreeSet<RepoName> = BTreeSet::new();
    let mut crawl = CrawlReport::default();
    for payload in pages.values() {
        crawl.page_retries += payload.get("retries").and_then(Json::as_u64).unwrap_or(0) as usize;
        crawl.backoff_sleep +=
            Duration::from_nanos(payload.get("backoffNs").and_then(Json::as_u64).unwrap_or(0));
        if payload.get("fetched").and_then(Json::as_bool) != Some(true) {
            crawl.pages_gave_up += 1;
            continue;
        }
        crawl.pages_fetched += 1;
        for r in payload.get("repos").and_then(Json::as_arr).unwrap_or(&[]) {
            let name = RepoName::parse(r.as_str().expect("repo name payload"))
                .expect("repo name parses");
            crawl.raw_results += 1;
            if !seen.insert(name) {
                crawl.dedup_hits += 1;
            }
        }
    }
    // The official list is public knowledge, exactly as in the
    // sequential crawl (the slash trick cannot find it).
    for o in hub.registry.repo_names().into_iter().filter(|r| r.is_official()) {
        seen.insert(o);
    }
    crawl.distinct_repos = seen.len();
    let repos: Vec<RepoName> = seen.into_iter().collect();

    // Phase 2: images (each expanding into its layer jobs).
    let image_jobs: Vec<JobSpec> = repos.iter().map(image_job).collect();
    let budget2 = cfg.max_commits.map(|b| b.saturating_sub(phase1.committed));
    {
        let _stage = span!(obs, "queued_download");
        run(&image_jobs, budget2)?;
    }

    // Assembly, all from durable result records in sorted job order.
    let _assemble = span!(obs, "queued_assemble");
    let loaded = queue.load()?;
    let mut layers: FxHashMap<Digest, LayerProfile> = FxHashMap::default();
    let mut fetched_layers: BTreeMap<Digest, u64> = BTreeMap::new();
    let mut failed_digests: BTreeSet<Digest> = BTreeSet::new();
    let mut layer_jobs = 0usize;
    let mut analyze_errors = 0usize;
    for (spec, _) in &loaded {
        if spec.kind != "layer" {
            continue;
        }
        layer_jobs += 1;
        let digest = Digest::parse(&spec.payload).expect("layer payload is a digest");
        let payload = parse_payload(queue, &cache, &spec.id)?;
        match payload.get("status").and_then(Json::as_str).unwrap_or("") {
            "ok" => {
                let cls = payload.get("cls").and_then(Json::as_u64).unwrap_or(0);
                fetched_layers.insert(digest, cls);
                let profile =
                    profile_from_value(payload.get("profile").expect("ok layer has a profile"))
                        .expect("layer profile roundtrips");
                layers.insert(digest, profile);
            }
            "analyze_error" => {
                let cls = payload.get("cls").and_then(Json::as_u64).unwrap_or(0);
                fetched_layers.insert(digest, cls);
                analyze_errors += 1;
            }
            _ => {
                failed_digests.insert(digest);
            }
        }
    }

    let mut download = dhub_downloader::DownloadReport {
        retries: counters.retries(),
        gave_up: counters.gave_up(),
        corrupt_retries: counters.corrupt_retries(),
        backoff_sleep: counters.backoff_sleep(),
        ..Default::default()
    };
    let mut inputs: Vec<ImageInput> = Vec::new();
    let mut image_layers: Vec<ImageLayers> = Vec::new();
    let mut manifest_refs = 0usize;
    for repo in &repos {
        let payload = parse_payload(queue, &cache, &format!("image:{}", repo.full()))?;
        match payload.get("status").and_then(Json::as_str).unwrap_or("") {
            "ok" => {
                let refs: Vec<(Digest, u64)> = payload
                    .get("layers")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(|l| {
                        (
                            Digest::parse(l.get("digest").and_then(Json::as_str).unwrap())
                                .expect("layer ref digest"),
                            l.get("size").and_then(Json::as_u64).unwrap_or(0),
                        )
                    })
                    .collect();
                // Every manifest-ok image's refs count toward the skip
                // tally (the sequential claim race charges them too),
                // even when the image is reclassified below.
                manifest_refs += refs.len();
                // An image whose blob fetch was abandoned is reclassified
                // as a failure, exactly like the sequential path.
                if refs.iter().any(|(d, _)| failed_digests.contains(d)) {
                    download.failed_other += 1;
                    continue;
                }
                download.images_downloaded += 1;
                image_layers.push(ImageLayers { layers: refs.iter().map(|(d, _)| *d).collect() });
                inputs.push(ImageInput {
                    repo: repo.clone(),
                    manifest_digest: Digest::parse(
                        payload.get("manifestDigest").and_then(Json::as_str).unwrap(),
                    )
                    .expect("manifest digest parses"),
                    layers: refs,
                });
            }
            "auth" => download.failed_auth += 1,
            "no_latest" => download.failed_no_latest += 1,
            _ => download.failed_other += 1,
        }
    }
    download.unique_layers = fetched_layers.len();
    download.bytes_fetched = fetched_layers.values().sum();
    download.layer_fetches_skipped = (manifest_refs - layer_jobs.min(manifest_refs)) as u64;

    let images = image_profiles(&inputs, &layers);
    let pulls: Vec<(RepoName, u64)> =
        repos.iter().filter_map(|r| hub.registry.pull_count(r).map(|c| (r.clone(), c))).collect();

    set_dedup_ratio(obs, &download);

    Ok(StudyData {
        crawl,
        download,
        layers,
        images,
        image_layers,
        pulls,
        analyze_errors,
        size_scale: hub.config.size_scale,
        seed: hub.config.seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_persist::Publisher;
    use dhub_synth::{generate_hub, SynthConfig};
    use std::path::PathBuf;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dhub-distributed-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn profile_json_roundtrip() {
        let hub = generate_hub(&SynthConfig::tiny(5).with_repos(10));
        let s = crate::pipeline::run_study(&hub, 2);
        for p in s.layers.values() {
            let text = profile_json(p).to_string();
            let back = profile_from_value(&dhub_json::parse(&text).unwrap()).unwrap();
            assert_eq!(&back, p);
        }
    }

    #[test]
    fn queued_study_matches_sequential() {
        let plain = {
            let hub = generate_hub(&SynthConfig::tiny(31).with_repos(24));
            crate::pipeline::run_study(&hub, 2)
        };
        // Fresh hub, same config: pull counters are live registry state,
        // so each pipeline run must observe them from the same baseline.
        let hub = generate_hub(&SynthConfig::tiny(31).with_repos(24));
        let root = tmp_root("match");
        let store = PersistentDedupStore::open(root.join("store"), Publisher::new()).unwrap();
        let queue = DurableQueue::open(root.join("queue"), Publisher::new()).unwrap();
        let cfg = QueuedStudyConfig { workers: 4, ..QueuedStudyConfig::default() };
        let queued =
            run_study_queued_obs(&hub, &store, &queue, &cfg, &MetricsRegistry::new()).unwrap();

        assert_eq!(queued.crawl.raw_results, plain.crawl.raw_results);
        assert_eq!(queued.crawl.distinct_repos, plain.crawl.distinct_repos);
        assert_eq!(queued.crawl.pages_fetched, plain.crawl.pages_fetched);
        assert_eq!(queued.crawl.dedup_hits, plain.crawl.dedup_hits);
        assert_eq!(queued.download.images_downloaded, plain.download.images_downloaded);
        assert_eq!(queued.download.unique_layers, plain.download.unique_layers);
        assert_eq!(queued.download.bytes_fetched, plain.download.bytes_fetched);
        assert_eq!(queued.download.layer_fetches_skipped, plain.download.layer_fetches_skipped);
        assert_eq!(queued.download.failed_auth, plain.download.failed_auth);
        assert_eq!(queued.download.failed_no_latest, plain.download.failed_no_latest);
        assert_eq!(queued.download.failed_other, plain.download.failed_other);
        assert_eq!(queued.layers, plain.layers);
        assert_eq!(queued.images, plain.images);
        assert_eq!(queued.image_layers.len(), plain.image_layers.len());
        for (a, b) in queued.image_layers.iter().zip(&plain.image_layers) {
            assert_eq!(a.layers, b.layers);
        }
        assert_eq!(queued.pulls, plain.pulls);
        assert_eq!(queued.analyze_errors, plain.analyze_errors);
        // The store holds exactly the analyzed unique layers.
        assert_eq!(store.mem().stats().layers, queued.layers.len());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn killed_run_resumes_identically() {
        let hub = generate_hub(&SynthConfig::tiny(37).with_repos(16));
        let root = tmp_root("resume");

        let clean_root = tmp_root("resume-clean");
        let clean_store =
            PersistentDedupStore::open(clean_root.join("store"), Publisher::new()).unwrap();
        let clean_queue = DurableQueue::open(clean_root.join("queue"), Publisher::new()).unwrap();
        let clean = run_study_queued_obs(
            &hub,
            &clean_store,
            &clean_queue,
            &QueuedStudyConfig::default(),
            &MetricsRegistry::new(),
        )
        .unwrap();

        // Kill after a handful of commits, then resume with fresh opens.
        {
            let store = PersistentDedupStore::open(root.join("store"), Publisher::new()).unwrap();
            let queue = DurableQueue::open(root.join("queue"), Publisher::new()).unwrap();
            let cfg = QueuedStudyConfig {
                workers: 3,
                max_commits: Some(6),
                ..QueuedStudyConfig::default()
            };
            match run_study_queued_obs(&hub, &store, &queue, &cfg, &MetricsRegistry::new()) {
                Err(QueueError::Killed) => {}
                other => panic!("expected killed run, got {:?}", other.map(|_| "study")),
            }
        }
        let store = PersistentDedupStore::open(root.join("store"), Publisher::new()).unwrap();
        let queue = DurableQueue::open(root.join("queue"), Publisher::new()).unwrap();
        let cfg = QueuedStudyConfig { workers: 2, ..QueuedStudyConfig::default() };
        let resumed =
            run_study_queued_obs(&hub, &store, &queue, &cfg, &MetricsRegistry::new()).unwrap();

        assert_eq!(resumed.layers, clean.layers);
        assert_eq!(resumed.images, clean.images);
        assert_eq!(resumed.download.images_downloaded, clean.download.images_downloaded);
        assert_eq!(resumed.download.unique_layers, clean.download.unique_layers);
        assert_eq!(resumed.download.bytes_fetched, clean.download.bytes_fetched);
        assert_eq!(
            store.mem().stats().dedup_factor().to_bits(),
            clean_store.mem().stats().dedup_factor().to_bits()
        );
        let _ = std::fs::remove_dir_all(root);
        let _ = std::fs::remove_dir_all(clean_root);
    }
}
