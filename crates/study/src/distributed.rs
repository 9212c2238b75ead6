//! The queued study: the crawl → download → analyze steps the batch path
//! owns, *scheduled* by a lease-based worker fleet over a durable job
//! queue (`dhub-queue`) and ingesting into the persistent dedup store.
//!
//! Work decomposes into three job kinds, chained by dynamic expansion:
//!
//! - `page:<n>` — [`fetch_search_page`], the sequential crawl's own
//!   per-page fetch. Page 0 learns the pagination depth and expands into
//!   `page:1..N`.
//! - `image:<repo>` — [`Transport::resolve_manifest`] over the in-process
//!   transport; on success, expands into one `layer:<digest>` job per
//!   referenced layer. Seeding is idempotent and layer ids are
//!   digest-derived, so a layer shared by many images is seeded (and
//!   fetched) exactly once — the queue *is* the unique-layer dedup.
//! - `layer:<digest>` — fetch the verified blob, then the batch loop's
//!   per-layer step: [`analyze_and_ingest`] into the shared
//!   [`PersistentDedupStore`] under [`AnalyzeCounters::time_layer`]. Its
//!   durable result is the compressed length; the profile the pass folded
//!   stays with the typed result this process keeps, and the layer file
//!   holds it for any other process.
//!
//! Each job commits a [`JobResult`]. Once the queue drains, the study is
//! *replayed* from the result set through the code every other scheduler
//! runs: page results fold through [`CrawlFold`] in page order, image and
//! layer results drive [`DownloadRun`]'s record steps in sorted
//! repository order (so [`DownloadRun::finish`] is the only
//! reclassification), and [`assemble_study`] builds the [`StudyData`].
//! A clean run's profiles come from its layer jobs; only a layer result
//! decoded from an earlier process's record (a killed run's, or all of
//! them when a finished run is rerun) refolds its profile from the stored
//! recipe.
//! The `dhub_crawl_*` and `dhub_download_*` counters — and the reports
//! derived from them — therefore come from durable records and are
//! complete after a kill + resume; `dhub_analyze_*` and the retry
//! counters tick at execution and cover only this process's jobs.
//!
//! Determinism: each job's result is a pure function of its spec — the
//! fault/retry streams are keyed by logical resource (page number, repo,
//! digest), never by worker or wall clock — and the replay order is fixed.
//! Worker count, lease-fault abandons, and fleet kills change only *who*
//! executes a job and *when*; the committed bytes, and therefore the
//! assembled [`StudyData`], the tables, and the store stats, are
//! byte-identical to the clean single-process run. The chaos suite gates
//! on exactly that.

use crate::pipeline::{assemble_study, known_officials, set_dedup_ratio, StudyData};
use dhub_analyzer::AnalyzeCounters;
use dhub_crawler::{fetch_search_page, CrawlFold, PageFetch, PageInfo, ParsedPage};
use dhub_dedupstore::{analyze_and_ingest, PersistentDedupStore, PersistentError, StoreError};
use dhub_digest::FxHashMap;
use dhub_downloader::{
    get_blob_verified, DownloadRun, DownloadedImage, InProcess, ResolveError, RetryCounters,
    Transport,
};
use dhub_faults::{FaultInjector, RetryPolicy};
use dhub_json::Json;
use dhub_model::{Digest, FileKind, FileRecord, LayerProfile, LayerRef, Manifest, RepoName};
use dhub_obs::{span, MetricsRegistry};
use dhub_queue::{
    DurableQueue, JobOutcome, JobSpec, LeaseConfig, QueueError, RunReport, WorkerConfig,
};
use dhub_registry::NetworkModel;
use dhub_synth::SyntheticHub;
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
}

impl Default for QueuedStudyConfig {
    fn default() -> QueuedStudyConfig {
        QueuedStudyConfig {
            workers: 1,
            policy: RetryPolicy::default(),
            lease: LeaseConfig::default(),
            max_commits: None,
            lease_faults: None,
        }
    }
}

/// [`LayerProfile`] as a JSON value, file kinds by [`FileKind::ALL`]
/// index. No production code calls this or [`profile_from_value`]: they
/// stay for the frozen `bench/` driver, which compiles against them.
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
            j.set("digest", f.digest.to_docker_string());
            j.set("kind", f.kind.index());
            j.set("size", f.size);
            j
        })
        .collect();
    root.set("files", Json::Arr(files));
    root
}

/// Rebuilds a [`LayerProfile`] from its already-parsed JSON value, the
/// inverse of [`profile_json`].
pub fn profile_from_value(j: &Json) -> Option<LayerProfile> {
    let files = j
        .get("files")?
        .as_arr()?
        .iter()
        .map(|f| {
            Some(FileRecord {
                digest: Digest::parse(f.get("digest")?.as_str()?)?,
                kind: *FileKind::ALL.get(f.get("kind")?.as_u64()? as usize)?,
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

/// What a job commits, typed: one variant per job kind.
/// [`JobResult::encode`] and [`JobResult::decode`] are the only code that
/// knows the durable JSON shapes.
enum JobResult {
    /// `page:<n>` — what fetching the page did.
    Page(PageFetch),
    /// `image:<repo>` — the manifest digest and layer references, or the
    /// taxonomy bucket the failed resolve falls in.
    Image(Result<(Digest, Vec<LayerRef>), ResolveError>),
    /// `layer:<digest>` — how the fetch + fused pass ended.
    Layer(LayerResult),
}

enum LayerResult {
    /// Fetched (`cls` compressed bytes), analyzed and ingested. `profile`
    /// is the fused pass's, kept when this process executed the job; its
    /// durable record holds only `cls`, so a decoded result has `None` and
    /// the stored recipe is the profile.
    Ok { cls: u64, profile: Option<LayerProfile> },
    /// Fetched (`cls` compressed bytes), but the blob did not decode.
    AnalyzeError { cls: u64, error: String },
    /// The fetch was abandoned with the retry budget spent.
    GaveUp,
}

impl JobResult {
    /// The result record's payload.
    fn encode(&self) -> Json {
        let mut out = Json::obj();
        match self {
            JobResult::Page(fetch) => {
                out.set("fetched", fetch.parsed.is_some());
                if let Some(parsed) = &fetch.parsed {
                    out.set("totalPages", parsed.info.total_pages);
                    let repos = parsed.repos.iter().map(|r| Json::Str(r.full())).collect();
                    out.set("repos", Json::Arr(repos));
                }
                out.set("retries", fetch.retries);
                out.set("backoffNs", fetch.backoff.as_nanos() as u64);
            }
            JobResult::Image(Ok((manifest_digest, layers))) => {
                out.set("status", "ok");
                out.set("manifestDigest", manifest_digest.to_docker_string());
                let layers = layers.iter().map(|l| {
                    let mut j = Json::obj();
                    j.set("digest", l.digest.to_docker_string());
                    j.set("size", l.size);
                    j
                });
                out.set("layers", Json::Arr(layers.collect()));
            }
            JobResult::Image(Err(why)) => {
                out.set("status", match why {
                    ResolveError::Auth => "auth",
                    ResolveError::NoLatest => "no_latest",
                    ResolveError::Other => "other",
                });
            }
            JobResult::Layer(LayerResult::Ok { cls, .. }) => {
                out.set("status", "ok");
                out.set("cls", *cls);
            }
            JobResult::Layer(LayerResult::AnalyzeError { cls, error }) => {
                out.set("status", "analyze_error");
                out.set("cls", *cls);
                out.set("error", error.as_str());
            }
            JobResult::Layer(LayerResult::GaveUp) => {
                out.set("status", "gave_up");
            }
        }
        out
    }

    /// Inverse of [`JobResult::encode`] for a result of job `spec`; `None`
    /// for a payload of any other shape.
    fn decode(spec: &JobSpec, payload: &str) -> Option<JobResult> {
        let j = dhub_json::parse(payload).ok()?;
        let num = |key: &str| j.get(key)?.as_u64();
        Some(match (spec.kind.as_str(), j.get("status").and_then(Json::as_str)) {
            ("page", None) => {
                let parsed = if j.get("fetched")?.as_bool()? {
                    let repos = j.get("repos")?.as_arr()?.iter();
                    Some(ParsedPage {
                        repos: repos.map(|r| RepoName::parse(r.as_str()?)).collect::<Option<_>>()?,
                        info: PageInfo {
                            page: spec.payload.parse().ok()?,
                            total_pages: usize::try_from(num("totalPages")?).ok()?,
                        },
                    })
                } else {
                    None
                };
                JobResult::Page(PageFetch {
                    parsed,
                    retries: u32::try_from(num("retries")?).ok()?,
                    backoff: Duration::from_nanos(num("backoffNs")?),
                })
            }
            ("image", Some("ok")) => {
                let layer = |l: &Json| {
                    let digest = Digest::parse(l.get("digest")?.as_str()?)?;
                    Some(LayerRef { digest, size: l.get("size")?.as_u64()? })
                };
                let layers = j.get("layers")?.as_arr()?.iter().map(layer).collect::<Option<_>>()?;
                JobResult::Image(Ok((Digest::parse(j.get("manifestDigest")?.as_str()?)?, layers)))
            }
            ("image", Some("auth")) => JobResult::Image(Err(ResolveError::Auth)),
            ("image", Some("no_latest")) => JobResult::Image(Err(ResolveError::NoLatest)),
            ("image", Some("other")) => JobResult::Image(Err(ResolveError::Other)),
            ("layer", Some("ok")) => {
                JobResult::Layer(LayerResult::Ok { cls: num("cls")?, profile: None })
            }
            ("layer", Some("analyze_error")) => JobResult::Layer(LayerResult::AnalyzeError {
                cls: num("cls")?,
                error: j.get("error")?.as_str()?.to_string(),
            }),
            ("layer", Some("gave_up")) => JobResult::Layer(LayerResult::GaveUp),
            _ => return None,
        })
    }
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

/// The executor: one pure-ish function from job spec to result plus
/// expansions. All state it touches (registry, store, counters) is shared
/// and idempotent.
fn execute_job(
    hub: &SyntheticHub,
    store: &PersistentDedupStore,
    cfg: &QueuedStudyConfig,
    transport: &InProcess<'_>,
    retry: &RetryCounters,
    analyze: &AnalyzeCounters,
    spec: &JobSpec,
) -> Result<(JobResult, Vec<JobSpec>), String> {
    Ok(match spec.kind.as_str() {
        "page" => {
            let page: usize = spec.payload.parse().map_err(|_| "bad page payload")?;
            let injector = hub.registry.fault_injector();
            let fetch = fetch_search_page(&hub.search, page, injector.as_deref(), &cfg.policy);
            let new_jobs = match &fetch.parsed {
                Some(parsed) if page == 0 => (1..parsed.info.total_pages).map(page_job).collect(),
                _ => Vec::new(),
            };
            (JobResult::Page(fetch), new_jobs)
        }
        "image" => {
            let repo = RepoName::parse(&spec.payload).ok_or("bad image payload")?;
            let resolved = transport.resolve_manifest(&repo).map(|(d, m)| (d, m.layers));
            // One layer job per digest; the durable queue dedups ids, so
            // shared layers are fetched exactly once.
            let new_jobs = resolved
                .iter()
                .flat_map(|(_, layers)| layers.iter().map(|l| layer_job(&l.digest)))
                .collect();
            (JobResult::Image(resolved), new_jobs)
        }
        "layer" => {
            let digest = Digest::parse(&spec.payload).ok_or("bad layer payload")?;
            let Ok(blob) = get_blob_verified(&hub.registry, &digest, &cfg.policy, retry) else {
                return Ok((JobResult::Layer(LayerResult::GaveUp), Vec::new()));
            };
            let cls = blob.len() as u64;
            let fused = |scratch: &mut _| analyze_and_ingest(store, digest, &blob, scratch);
            let layer = match analyze.time_layer(fused) {
                // AlreadyIngested is the resume path (a killed run ingested
                // the layer but lost the result record; the pass still
                // folded its profile); any other ingest error is real.
                Ok((_, Err(e)))
                    if !matches!(e, PersistentError::Store(StoreError::AlreadyIngested)) =>
                {
                    return Err(format!("ingest {digest:?}: {e}"));
                }
                Ok((profile, _)) => LayerResult::Ok { cls, profile: Some(profile) },
                Err(e) => LayerResult::AnalyzeError { cls, error: e.to_string() },
            };
            (JobResult::Layer(layer), Vec::new())
        }
        other => return Err(format!("unknown job kind {other}")),
    })
}

/// The run's view of committed results: the typed values this process
/// executed (a clean run never decodes its own payloads), durable records
/// for whatever an earlier, killed process committed. The replay takes
/// each result exactly once.
struct Results<'a> {
    queue: &'a DurableQueue,
    executed: dhub_sync::Mutex<FxHashMap<String, JobResult>>,
}

impl Results<'_> {
    fn take(&self, spec: &JobSpec) -> Result<JobResult, QueueError> {
        if let Some(result) = self.executed.lock().remove(&spec.id) {
            return Ok(result);
        }
        let payload = self.queue.result(&spec.id)?.ok_or_else(|| self.corrupt(spec))?;
        JobResult::decode(spec, &payload).ok_or_else(|| self.corrupt(spec))
    }

    /// A drained queue's record for `spec` is missing or has the wrong
    /// shape (its envelope checksum notwithstanding).
    fn corrupt(&self, spec: &JobSpec) -> QueueError {
        QueueError::Corrupt(self.queue.result_path(&spec.id))
    }
}

/// Runs the full study through the durable queue with `cfg.workers`
/// workers, resuming from whatever job/result state `queue` and `store`
/// already hold. Returns [`QueueError::Killed`] when the commit budget
/// stopped the fleet (rerun to resume), [`QueueError::Quarantined`] when
/// poison jobs survived their lease budget, and [`QueueError::Corrupt`]
/// when a committed result does not decode or a layer result names a
/// layer the store holds no recipe for.
pub fn run_study_queued_obs(
    hub: &SyntheticHub,
    store: &PersistentDedupStore,
    queue: &DurableQueue,
    cfg: &QueuedStudyConfig,
    obs: &MetricsRegistry,
) -> Result<StudyData, QueueError> {
    let download = DownloadRun::on(obs);
    let net = NetworkModel::wan();
    let transport = InProcess::new(&hub.registry, &net, &cfg.policy, download.retry());
    let analyze = AnalyzeCounters::on(obs);
    let results = Results { queue, executed: dhub_sync::Mutex::new(FxHashMap::default()) };
    let exec = |spec: &JobSpec| -> Result<JobOutcome, String> {
        let (result, new_jobs) = {
            let _span = span!(obs, "queue_job", spec.id);
            execute_job(hub, store, cfg, &transport, download.retry(), &analyze, spec)?
        };
        let _ser = span!(obs, "queued_serialize", spec.id);
        let payload = result.encode().to_string();
        results.executed.lock().insert(spec.id.clone(), result);
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
    // image/layer jobs from an interrupted run drain alongside), then the
    // sequential crawl's fold over the page results.
    let phase1 = {
        let _stage = span!(obs, "queued_crawl");
        run(&[page_job(0)], cfg.max_commits)?
    };
    let mut crawl = CrawlFold::on(obs);
    while let Some(page) = crawl.next_page() {
        let spec = page_job(page);
        let JobResult::Page(fetch) = results.take(&spec)? else {
            return Err(results.corrupt(&spec));
        };
        crawl.record(fetch);
    }
    let crawl_result = crawl.finish(&known_officials(hub));

    // Phase 2: one image job per repository (each expanding into its
    // layer jobs).
    let image_jobs: Vec<JobSpec> = crawl_result.repos.iter().map(image_job).collect();
    let budget2 = cfg.max_commits.map(|b| b.saturating_sub(phase1.committed));
    {
        let _stage = span!(obs, "queued_download");
        run(&image_jobs, budget2)?;
    }

    // Assembly: `pull_repo`'s record steps, replayed over the result set
    // in sorted repository order. The first reference to a digest claims
    // it and reads the layer job's result; every later one is a skipped
    // fetch, exactly as in the sequential claim race. An analyzed layer's
    // profile is the one its layer job folded; only a result decoded from
    // an earlier process's record refolds it from the stored recipe.
    let _assemble = span!(obs, "queued_assemble");
    let mut images = Vec::new();
    let mut layers: FxHashMap<Digest, LayerProfile> = FxHashMap::default();
    let mut analyze_errors = 0usize;
    for (repo, spec) in crawl_result.repos.iter().zip(&image_jobs) {
        let JobResult::Image(resolved) = results.take(spec)? else {
            return Err(results.corrupt(spec));
        };
        let Some((manifest_digest, refs)) = download.record_resolve(&transport, resolved)
        else {
            continue;
        };
        for layer in &refs {
            if !download.claim(layer.digest) {
                continue;
            }
            let spec = layer_job(&layer.digest);
            let JobResult::Layer(result) = results.take(&spec)? else {
                return Err(results.corrupt(&spec));
            };
            let fetched = match result {
                LayerResult::Ok { cls, profile } => {
                    let profile = match profile {
                        Some(profile) => profile,
                        None => {
                            let recipe = store.mem().recipe(&layer.digest);
                            recipe.ok_or_else(|| results.corrupt(&spec))?.profile()
                        }
                    };
                    layers.insert(layer.digest, profile);
                    Some(cls)
                }
                LayerResult::AnalyzeError { cls, .. } => {
                    analyze_errors += 1;
                    Some(cls)
                }
                LayerResult::GaveUp => None,
            };
            download.record_fetch(&transport, layer.digest, fetched);
        }
        let manifest = Manifest::new(refs);
        images.push(DownloadedImage { repo: repo.clone(), manifest_digest, manifest });
    }
    let (images, report) = download.finish(images);
    set_dedup_ratio(obs, &report);
    Ok(assemble_study(hub, crawl_result, images, report, layers, analyze_errors))
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

    /// The durable result format, literally: stores written by earlier
    /// binaries must keep decoding. A layer result carries no profile (its
    /// layer file is the profile), so `bench/`'s replay of
    /// `payload.profile` finds none.
    #[test]
    fn result_payload_shapes_are_pinned() {
        let d = "sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
        let digest = Digest::parse(d).unwrap();
        let shapes = [
            (page_job(0), r#"{"fetched":true,"totalPages":3,"repos":["u/r","nginx"],"retries":2,"backoffNs":1500}"#.to_string()),
            (page_job(2), r#"{"fetched":false,"retries":4,"backoffNs":9}"#.to_string()),
            (
                image_job(&RepoName::official("nginx")),
                format!(r#"{{"status":"ok","manifestDigest":"{d}","layers":[{{"digest":"{d}","size":7}}]}}"#),
            ),
            (image_job(&RepoName::official("a")), r#"{"status":"auth"}"#.to_string()),
            (image_job(&RepoName::official("b")), r#"{"status":"no_latest"}"#.to_string()),
            (image_job(&RepoName::official("c")), r#"{"status":"other"}"#.to_string()),
            (layer_job(&digest), r#"{"status":"ok","cls":7}"#.to_string()),
            (
                layer_job(&digest),
                r#"{"status":"analyze_error","cls":7,"error":"layer gunzip failed: x"}"#.into(),
            ),
            (layer_job(&digest), r#"{"status":"gave_up"}"#.to_string()),
        ];
        for (spec, text) in &shapes {
            let decoded = JobResult::decode(spec, text).unwrap_or_else(|| panic!("{text}"));
            assert_eq!(&decoded.encode().to_string(), text, "{}", spec.id);
            // A payload is only ever valid for its own job kind.
            let kinds = [page_job(0), image_job(&RepoName::official("x")), layer_job(&digest)];
            for other in kinds {
                assert_eq!(JobResult::decode(&other, text).is_some(), other.kind == spec.kind);
            }
        }
        match JobResult::decode(&shapes[0].0, &shapes[0].1) {
            Some(JobResult::Page(PageFetch { parsed: Some(p), retries: 2, backoff })) => {
                assert_eq!((p.info.total_pages, p.repos.len()), (3, 2));
                assert_eq!(backoff, Duration::from_nanos(1500));
            }
            _ => panic!("page payload decoded to the wrong value"),
        }
    }

    /// A result record whose envelope checksums but whose payload has the
    /// wrong shape, or names a layer as stored when the store holds no
    /// recipe for it, fails the study with `Corrupt` naming the record —
    /// never a panic, never a silently zeroed field.
    #[test]
    fn wrong_shape_result_is_corrupt_not_a_panic() {
        let config = SynthConfig::tiny(41).with_repos(8);
        let plain = crate::pipeline::run_study(&generate_hub(&config), 2);
        let layer = layer_job(&plain.images[0].layers[0]);
        let poisoned = [
            (page_job(0), "{}"),
            (image_job(&plain.images[0].repo), "{}"),
            (layer.clone(), "{}"),
            (layer, r#"{"status":"ok","cls":7}"#),
        ];
        for (spec, payload) in poisoned {
            let root = tmp_root(&format!("corrupt-{}", spec.kind));
            let store = PersistentDedupStore::open(root.join("store"), Publisher::new()).unwrap();
            let queue = DurableQueue::open(root.join("queue"), Publisher::new()).unwrap();
            queue.commit(&spec.id, payload).unwrap();
            let hub = generate_hub(&config);
            let cfg = QueuedStudyConfig { workers: 2, ..QueuedStudyConfig::default() };
            match run_study_queued_obs(&hub, &store, &queue, &cfg, &MetricsRegistry::new()) {
                Err(QueueError::Corrupt(path)) => assert_eq!(path, queue.result_path(&spec.id)),
                other => panic!("{}: expected Corrupt, got {:?}", spec.id, other.map(|_| "study")),
            }
            let _ = std::fs::remove_dir_all(root);
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

        // Same fold, same record steps, same counters: the whole reports
        // agree, simulated transfer time included.
        assert_eq!(queued.crawl, plain.crawl);
        assert_eq!(queued.download, plain.download);
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

    /// A manifest that names one layer twice used to seed that layer's job
    /// twice in one batch, and the fleet stopped on the second rename of
    /// one temp file. At any worker count the queued study now writes the
    /// direct durable study's tables byte for byte, and the image profile
    /// counts the layer at each place its manifest names it.
    #[test]
    fn a_manifest_naming_a_layer_twice_queues_to_the_direct_tables() {
        use dhub_compress::{gzip_compress, CompressOptions};
        use dhub_model::{LayerRef, Manifest, RepoName};
        use dhub_tar::{write_archive, EntryKind, TarEntry};
        let blob = |dir: &str| {
            let file = |name: &str, body: &[u8]| TarEntry {
                path: format!("{dir}/{name}"),
                kind: EntryKind::File(body.to_vec()),
                mode: 0o644,
                uid: 0,
                gid: 0,
                mtime: 1_500_000_000,
            };
            let tar =
                write_archive(&[file("a.txt", b"hello\n"), file("b.sh", b"#!/bin/sh\necho\n")]);
            gzip_compress(&tar, &CompressOptions::fast())
        };
        let (a, b) = (blob("a"), blob("b"));
        let layer = |blob: &[u8]| LayerRef { digest: Digest::of(blob), size: blob.len() as u64 };
        let manifest = Manifest::new(vec![layer(&a), layer(&b), layer(&a)]);
        let hub = || {
            let hub = generate_hub(&SynthConfig::tiny(29).with_repos(20));
            let repo = RepoName::official("twice");
            hub.registry.create_repo(repo.clone(), false);
            let blobs = vec![a.clone(), b.clone()];
            hub.registry.push_image(&repo, "latest", &manifest, blobs).unwrap();
            hub
        };
        let tables = |db: &std::path::Path| -> Vec<Vec<u8>> {
            let read = |name: &str| std::fs::read(db.join(format!("{name}.tbl"))).unwrap();
            ["dedup", "files", "images", "layers", "study"].map(read).to_vec()
        };
        let root = tmp_root("twice");
        let direct = {
            let store = PersistentDedupStore::open(root.join("direct"), Publisher::new()).unwrap();
            let policy = RetryPolicy::default();
            let data = crate::pipeline::run_study_persist_obs(
                &hub(),
                2,
                &policy,
                &store,
                &MetricsRegistry::new(),
            );
            let twice = data.images.iter().find(|i| i.repo.full().ends_with("twice")).unwrap();
            assert_eq!(twice.layer_count(), 3);
            assert_eq!(twice.cis, 2 * a.len() as u64 + b.len() as u64);
            assert_eq!(twice.file_count, 6);
            let db = root.join("direct").join("db");
            crate::db::StudyDb::build(&data, &store.mem().stats())
                .save(&db, &Publisher::new())
                .unwrap();
            tables(&db)
        };
        for workers in [1, 2, 8] {
            let dir = root.join(format!("w{workers}"));
            let store = PersistentDedupStore::open(&dir, Publisher::new()).unwrap();
            let queue = DurableQueue::open(dir.join("queue"), Publisher::new()).unwrap();
            let cfg = QueuedStudyConfig { workers, ..QueuedStudyConfig::default() };
            let data =
                run_study_queued_obs(&hub(), &store, &queue, &cfg, &MetricsRegistry::new())
                    .unwrap();
            let db = dir.join("db");
            crate::db::StudyDb::build(&data, &store.mem().stats())
                .save(&db, &Publisher::new())
                .unwrap();
            assert!(tables(&db) == direct, "workers {workers}: tables differ");
        }
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
        // Replayed from the durable results, not counted at execution.
        assert_eq!(resumed.crawl, clean.crawl);
        assert_eq!(resumed.download, clean.download);
        assert_eq!(
            store.mem().stats().dedup_factor().to_bits(),
            clean_store.mem().stats().dedup_factor().to_bits()
        );
        let _ = std::fs::remove_dir_all(root);
        let _ = std::fs::remove_dir_all(clean_root);
    }

    /// A rerun over a drained queue and its store executes nothing: every
    /// result decodes from its record and every profile refolds from its
    /// layer file, into the first run's study.
    #[test]
    fn a_rerun_over_a_drained_queue_decodes_every_result() {
        let hub = generate_hub(&SynthConfig::tiny(43).with_repos(16));
        let root = tmp_root("rerun");
        let open = || {
            let store = PersistentDedupStore::open(root.join("store"), Publisher::new()).unwrap();
            let queue = DurableQueue::open(root.join("queue"), Publisher::new()).unwrap();
            (store, queue)
        };
        let cfg = QueuedStudyConfig { workers: 2, ..QueuedStudyConfig::default() };
        let first = {
            let (store, queue) = open();
            run_study_queued_obs(&hub, &store, &queue, &cfg, &MetricsRegistry::new()).unwrap()
        };
        let (store, queue) = open();
        let obs = MetricsRegistry::new();
        let rerun = run_study_queued_obs(&hub, &store, &queue, &cfg, &obs).unwrap();

        assert_eq!(obs.counter_value("dhub_analyze_layers_total"), 0);
        assert!(!rerun.layers.is_empty());
        for (digest, profile) in &rerun.layers {
            assert_eq!(&store.mem().recipe(digest).unwrap().profile(), profile);
        }
        assert_eq!(rerun.layers, first.layers);
        assert_eq!(rerun.images, first.images);
        assert_eq!(rerun.crawl, first.crawl);
        assert_eq!(rerun.download, first.download);
        let _ = std::fs::remove_dir_all(root);
    }
}
