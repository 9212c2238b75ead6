//! Chaos suite: the full crawl → download → analyze pipeline under
//! deterministic fault injection.
//!
//! The paper's 30-day crawl survived a flaky public registry. These tests
//! pin fault seeds and assert the reproduction does too: with retries, a
//! faulted run's dataset is *byte-identical* to the fault-free one; with
//! retries disabled, every crawled repository still lands in exactly one
//! outcome bucket.

use dhub_downloader::download_all_http_obs;
use dhub_faults::{FaultConfig, FaultInjector, FaultKind, RetryPolicy};
use dhub_mirror::{Mirror, MirrorConfig, MirrorReport, PolicyKind};
use dhub_obs::{MetricsRegistry, MetricsSnapshot};
use dhub_registry::RegistryServer;
use dhub_study::pipeline::{run_study_http_obs, run_study_obs, StudyData};
use dhub_synth::{generate_hub, SyntheticHub, SynthConfig};
use std::sync::Arc;

const HUB_SEED: u64 = 42;
const FAULT_SEED: u64 = 7;
const THREADS: usize = 4;

fn hub() -> SyntheticHub {
    generate_hub(&SynthConfig::tiny(HUB_SEED).with_repos(60))
}

fn faulted_hub(rate: f64) -> SyntheticHub {
    let hub = hub();
    let cfg = FaultConfig::uniform(FAULT_SEED, rate);
    hub.registry.set_fault_injector(Some(Arc::new(FaultInjector::new(cfg))));
    hub
}

/// A retry budget large enough that no operation gives up at 20 % faults
/// (21 consecutive faults on one key ≈ 0.2^21 — never at a pinned seed we
/// checked).
fn patient() -> RetryPolicy {
    RetryPolicy::fast(20).with_seed(FAULT_SEED)
}

fn assert_same_dataset(faulted: &StudyData, clean: &StudyData) {
    // Crawl recovered everything.
    assert_eq!(faulted.crawl.raw_results, clean.crawl.raw_results);
    assert_eq!(faulted.crawl.distinct_repos, clean.crawl.distinct_repos);
    assert_eq!(faulted.crawl.pages_fetched, clean.crawl.pages_fetched);
    assert_eq!(faulted.crawl.pages_gave_up, 0);

    // Download counts byte-identical.
    let (f, c) = (&faulted.download, &clean.download);
    assert_eq!(f.images_downloaded, c.images_downloaded);
    assert_eq!(f.unique_layers, c.unique_layers);
    assert_eq!(f.bytes_fetched, c.bytes_fetched);
    assert_eq!(f.layer_fetches_skipped, c.layer_fetches_skipped);
    assert_eq!(f.failed_auth, c.failed_auth);
    assert_eq!(f.failed_no_latest, c.failed_no_latest);
    assert_eq!(f.failed_other, c.failed_other);
    assert_eq!(f.gave_up, 0, "the patient policy must never give up");

    // Analysis results identical layer-by-layer and image-by-image.
    assert_eq!(faulted.layers.len(), clean.layers.len());
    for (d, p) in &clean.layers {
        assert_eq!(faulted.layers.get(d), Some(p), "layer profile diverged under faults");
    }
    assert_eq!(faulted.images, clean.images);

    // Popularity signal unharmed: faulted attempts must not inflate pulls.
    assert_eq!(faulted.pulls, clean.pulls);
}

#[test]
fn faulted_pipeline_with_retries_is_byte_identical() {
    let clean = run_study_obs(&hub(), THREADS, &patient(), &MetricsRegistry::new());
    assert_eq!(clean.download.retries, 0, "no faults, no retries");

    for rate in [0.0, 0.05, 0.20] {
        let faulted = run_study_obs(&faulted_hub(rate), THREADS, &patient(), &MetricsRegistry::new());
        assert_same_dataset(&faulted, &clean);
        if rate == 0.0 {
            assert_eq!(faulted.download.retries, 0);
        }
        if rate >= 0.20 {
            assert!(
                faulted.download.retries > 0,
                "20 % fault rate must force download retries"
            );
            // Page-level retries are exercised in dhub-crawler's own chaos
            // tests: this hub has only a handful of search pages, so an
            // all-clean draw at 20 % is legitimate.
        }
    }
}

#[test]
fn chaos_run_is_deterministic_across_thread_counts() {
    // The fault stream is a pure function of (seed, op, key, attempt):
    // per-key attempt sequencing makes the whole report — including the
    // retry counters — independent of worker count.
    let a = run_study_obs(&faulted_hub(0.20), 2, &patient(), &MetricsRegistry::new());
    let b = run_study_obs(&faulted_hub(0.20), 8, &patient(), &MetricsRegistry::new());
    assert_eq!(a.download, b.download);
    assert_eq!(a.crawl, b.crawl);
}

/// Every counter the reports are derived from, checked against the report
/// field it backs. A mismatch here means a code path updated one side
/// without the other — exactly the drift the DeltaCounter design forbids.
fn assert_counters_match_reports(snap: &MetricsSnapshot, s: &StudyData) {
    let c = &s.crawl;
    assert_eq!(snap.counter("dhub_crawl_pages_fetched_total"), c.pages_fetched as u64);
    assert_eq!(snap.counter("dhub_crawl_page_retries_total"), c.page_retries as u64);
    assert_eq!(snap.counter("dhub_crawl_pages_gave_up_total"), c.pages_gave_up as u64);
    assert_eq!(snap.counter("dhub_crawl_raw_results_total"), c.raw_results as u64);
    assert_eq!(snap.counter("dhub_crawl_dedup_hits_total"), c.dedup_hits as u64);
    assert_eq!(snap.counter("dhub_crawl_backoff_ns_total"), c.backoff_sleep.as_nanos() as u64);

    let d = &s.download;
    assert_eq!(snap.counter("dhub_download_images_ok_total"), d.images_downloaded as u64);
    assert_eq!(snap.counter("dhub_download_unique_layers_total"), d.unique_layers as u64);
    assert_eq!(snap.counter("dhub_download_bytes_total"), d.bytes_fetched);
    assert_eq!(
        snap.counter("dhub_download_layer_fetches_skipped_total"),
        d.layer_fetches_skipped
    );
    assert_eq!(snap.counter("dhub_download_failed_auth_total"), d.failed_auth as u64);
    assert_eq!(snap.counter("dhub_download_failed_no_latest_total"), d.failed_no_latest as u64);
    assert_eq!(snap.counter("dhub_download_failed_other_total"), d.failed_other as u64);
    assert_eq!(snap.counter("dhub_download_retries_total"), d.retries as u64);
    assert_eq!(snap.counter("dhub_download_gave_up_total"), d.gave_up as u64);
    assert_eq!(snap.counter("dhub_download_corrupt_retries_total"), d.corrupt_retries as u64);
    assert_eq!(
        snap.counter("dhub_download_backoff_ns_total"),
        d.backoff_sleep.as_nanos() as u64
    );
    assert_eq!(
        snap.counter("dhub_download_sim_transfer_ns_total"),
        d.simulated_transfer.as_nanos() as u64
    );

    assert_eq!(snap.counter("dhub_analyze_layers_total"), s.layers.len() as u64);
    assert_eq!(snap.counter("dhub_analyze_errors_total"), s.analyze_errors as u64);
    let total_files: u64 = s.layer_slice().iter().map(|l| l.file_count).sum();
    assert_eq!(snap.counter("dhub_analyze_files_total"), total_files);
    let total_cls: u64 = s.layer_slice().iter().map(|l| l.cls).sum();
    assert_eq!(
        snap.counter("dhub_analyze_bytes_total"),
        total_cls,
        "analyze bytes counter must equal the profiles' summed compressed size"
    );
}

#[test]
fn obs_counters_reconcile_with_reports_at_every_fault_rate() {
    for rate in [0.0, 0.05, 0.20] {
        let obs = MetricsRegistry::new();
        let s = run_study_obs(&faulted_hub(rate), THREADS, &patient(), &obs);
        assert_counters_match_reports(&obs.snapshot(), &s);
    }
}

#[test]
fn obs_counters_identical_across_worker_counts() {
    // Counters are exact (no sampling, no loss under contention), the
    // fault stream is keyed per operation, and span ids are pure functions
    // of (parent, name, key) — so everything except wall-clock span
    // durations must be identical at 2 and 8 workers.
    let obs2 = MetricsRegistry::new();
    let a = run_study_obs(&faulted_hub(0.20), 2, &patient(), &obs2);
    let obs8 = MetricsRegistry::new();
    let b = run_study_obs(&faulted_hub(0.20), 8, &patient(), &obs8);

    let (sa, sb) = (obs2.snapshot(), obs8.snapshot());
    // `dhub_analyze_busy_ns_total` is a wall-clock accumulator (analysis
    // CPU-seconds), the one counter that is *supposed* to vary run to run;
    // every event-count and byte-count counter must match exactly.
    let drop_clock = |s: &dhub_obs::MetricsSnapshot| {
        s.counters
            .iter()
            .filter(|(k, _)| !k.ends_with("_busy_ns_total"))
            .map(|(k, v)| (k.clone(), *v))
            .collect::<std::collections::BTreeMap<_, _>>()
    };
    assert_eq!(drop_clock(&sa), drop_clock(&sb), "counter totals diverged across worker counts");
    assert_eq!(sa.span_id_xor, sb.span_id_xor, "span-id digest diverged across worker counts");
    assert_eq!(
        sa.spans.keys().collect::<Vec<_>>(),
        sb.spans.keys().collect::<Vec<_>>(),
        "span name sets diverged"
    );
    for (name, span) in &sa.spans {
        assert_eq!(
            span.calls,
            sb.spans[name].calls,
            "span {name:?} call count diverged across worker counts"
        );
    }
    assert_counters_match_reports(&sa, &a);
    assert_counters_match_reports(&sb, &b);
}

// ---------------------------------------------------------------------------
// Fused analyze+ingest chaos (DESIGN.md §6f): the store-filling pipeline
// must deliver the exact dataset — and the exact store state — the
// separate analyze-then-ingest paths produce, at every fault rate.

#[test]
fn fused_store_pipeline_matches_reference_at_every_fault_rate() {
    use dhub_dedupstore::DedupStore;

    let clean = run_study_obs(&hub(), THREADS, &patient(), &MetricsRegistry::new());
    for rate in [0.0, 0.05, 0.20] {
        let store = DedupStore::new();
        let obs = MetricsRegistry::new();
        let fused = dhub_study::pipeline::run_study_store_obs(
            &faulted_hub(rate),
            THREADS,
            &patient(),
            &store,
            &obs,
        );
        // Dataset identical to the plain pipeline's fault-free run.
        assert_same_dataset(&fused, &clean);
        assert_counters_match_reports(&obs.snapshot(), &fused);

        // Profiles and store state identical to the frozen reference
        // (slow-path) analysis and ingest of the same layers, fetched clean
        // from an identical hub.
        let reference = DedupStore::new();
        let clean_hub = hub();
        for (d, profile) in &fused.layers {
            let blob = clean_hub.registry.get_blob(d).expect("analyzed layers exist in the hub");
            assert_eq!(
                profile,
                &dhub_analyzer::analyze_layer_reference(*d, &blob).unwrap(),
                "fused profile diverged from reference at rate {rate}"
            );
            reference.ingest_layer_reference(*d, &blob).unwrap();
        }
        assert_eq!(store.stats(), reference.stats(), "store stats diverged at rate {rate}");
        assert_eq!(
            store.stats().dedup_factor().to_bits(),
            reference.stats().dedup_factor().to_bits(),
            "dedup factor must be bit-identical at rate {rate}"
        );
        for d in fused.layers.keys() {
            assert_eq!(
                store.reconstruct_tar(d).unwrap(),
                reference.reconstruct_tar(d).unwrap(),
                "recipe reconstruction diverged at rate {rate}"
            );
        }
    }
}

#[test]
fn fused_ingest_reuses_scratch_after_warmup() {
    use dhub_dedupstore::{analyze_and_ingest_all, DedupStore};
    use dhub_synth::layergen::build_app_layer;
    use dhub_synth::pool::FilePool;

    let pool = FilePool::build(&SynthConfig::tiny(3), 20_000);
    let layers: Vec<_> = (0..16u64)
        .map(|s| {
            let l = build_app_layer(&pool, 0xF00D + s);
            (l.digest, Arc::new(l.blob))
        })
        .collect();
    let obs = MetricsRegistry::new();
    // threads=1 runs inline on this thread, so its thread-local arena is
    // observable. First batch warms the buffer up to the largest tar.
    let store = DedupStore::new();
    analyze_and_ingest_all(&layers, 1, &store, &obs);
    let warm = dhub_par::with_scratch(|s| s.stats());
    // Second batch into a fresh store: every layer reuses the warm buffer.
    let store = DedupStore::new();
    analyze_and_ingest_all(&layers, 1, &store, &obs);
    let end = dhub_par::with_scratch(|s| s.stats());
    assert_eq!(end.grows, warm.grows, "fused path allocated decompression buffers after warmup");
    assert_eq!(end.acquires, warm.acquires + layers.len() as u64);
    assert_eq!(end.capacity, warm.capacity);
}

#[test]
fn without_retries_every_repo_lands_in_exactly_one_bucket() {
    let s = run_study_obs(&faulted_hub(0.20), THREADS, &RetryPolicy::none(), &MetricsRegistry::new());
    let d = &s.download;
    // Attempted = crawl survivors; each one either downloaded or failed
    // into exactly one taxonomy bucket.
    assert_eq!(
        d.images_downloaded + d.failures(),
        s.crawl.distinct_repos,
        "taxonomy buckets must partition the attempted repositories"
    );
    assert_eq!(d.retries, 0, "RetryPolicy::none must never retry");
    assert!(d.gave_up > 0, "20 % faults with no retries must abandon work");
    assert!(d.failed_other > 0, "transient faults surface as failed_other");

    // The clean pipeline downloads strictly more.
    let clean = run_study_obs(&hub(), THREADS, &patient(), &MetricsRegistry::new());
    assert!(d.images_downloaded < clean.download.images_downloaded);
}

#[test]
fn http_transport_rides_out_server_side_faults() {
    // Faults injected in the HTTP server this time (drops, 429/503 status
    // codes, truncated and bit-flipped bodies on the wire) — the client's
    // retry loop and digest verification must still deliver the identical
    // dataset.
    let hub = hub();
    let officials: Vec<_> =
        hub.registry.repo_names().into_iter().filter(|r| r.is_official()).collect();
    let crawl = dhub_crawler::crawl(&hub.search, &officials);

    let clean_srv = RegistryServer::start(hub.registry.clone()).unwrap();
    let obs = MetricsRegistry::new();
    let clean = download_all_http_obs(clean_srv.addr(), &crawl.repos, THREADS, &patient(), &obs);
    clean_srv.shutdown();

    let inj = Arc::new(FaultInjector::new(FaultConfig::uniform(FAULT_SEED, 0.20)));
    let srv = RegistryServer::start_with_faults(hub.registry.clone(), Some(inj.clone())).unwrap();
    let obs = MetricsRegistry::new();
    let faulted = download_all_http_obs(srv.addr(), &crawl.repos, THREADS, &patient(), &obs);
    srv.shutdown();

    assert_eq!(faulted.report.images_downloaded, clean.report.images_downloaded);
    assert_eq!(faulted.report.unique_layers, clean.report.unique_layers);
    assert_eq!(faulted.report.bytes_fetched, clean.report.bytes_fetched);
    assert_eq!(faulted.report.failed_auth, clean.report.failed_auth);
    assert_eq!(faulted.report.failed_no_latest, clean.report.failed_no_latest);
    assert_eq!(faulted.report.gave_up, 0);
    assert!(faulted.report.retries > 0, "server-side faults must force retries");
    assert!(inj.stats().total() > 0, "injector must actually have fired");

    // Every delivered blob still hashes to its digest.
    for (digest, blob) in &faulted.layers {
        assert_eq!(dhub_model::Digest::of(blob.as_ref()), *digest);
    }
}

// ---------------------------------------------------------------------------
// Mirror tier chaos (DESIGN.md §6e): the same study, pulled through a
// dhub-mirror edge cache fronting faulted origin shards, must produce the
// exact dataset a direct clean run does — and the mirror's counters must
// reconcile against its report and the Prometheus exposition.

/// Direct-to-origin clean baseline over real HTTP.
fn direct_clean_study() -> StudyData {
    let hub = hub();
    let srv = RegistryServer::start(hub.registry.clone()).unwrap();
    let data = run_study_http_obs(&hub, srv.addr(), THREADS, &patient(), &MetricsRegistry::new());
    srv.shutdown();
    data
}

/// Runs the study through a two-shard mirror whose origins inject wire
/// faults at `rate`. Fresh hub per call, so topologies never share state.
fn mirror_study(rate: f64) -> (StudyData, MirrorReport) {
    let hub = hub();
    let inj = |salt: u64| {
        Arc::new(FaultInjector::new(FaultConfig::uniform(FAULT_SEED + salt, rate)))
    };
    let o1 = RegistryServer::start_with_faults(hub.registry.clone(), Some(inj(0))).unwrap();
    let o2 = RegistryServer::start_with_faults(hub.registry.clone(), Some(inj(1))).unwrap();
    let obs = Arc::new(MetricsRegistry::new());
    let mirror = Arc::new(Mirror::new(
        &[o1.addr(), o2.addr()],
        MirrorConfig::new(1 << 30, PolicyKind::Lru).with_retry(patient()),
        obs.clone(),
    ));
    let msrv =
        RegistryServer::start_mirror(mirror.clone(), obs, dhub_registry::DEFAULT_MAX_CONNS)
            .unwrap();
    let data = run_study_http_obs(&hub, msrv.addr(), THREADS, &patient(), &MetricsRegistry::new());
    let report = mirror.report();
    msrv.shutdown();
    o1.shutdown();
    o2.shutdown();
    (data, report)
}

/// Dataset equality between HTTP topologies. Pulls and retry counters are
/// deliberately excluded: truncated/corrupted wire responses consume a
/// registry pull per retry, so pull totals are a property of the fault
/// plan and topology, not of the dataset the study delivers.
fn assert_same_http_dataset(through_mirror: &StudyData, direct: &StudyData) {
    assert_eq!(through_mirror.crawl.raw_results, direct.crawl.raw_results);
    assert_eq!(through_mirror.crawl.distinct_repos, direct.crawl.distinct_repos);
    assert_eq!(through_mirror.crawl.pages_gave_up, 0);

    let (m, d) = (&through_mirror.download, &direct.download);
    assert_eq!(m.images_downloaded, d.images_downloaded);
    assert_eq!(m.unique_layers, d.unique_layers);
    assert_eq!(m.bytes_fetched, d.bytes_fetched);
    assert_eq!(m.layer_fetches_skipped, d.layer_fetches_skipped);
    assert_eq!(m.failed_auth, d.failed_auth);
    assert_eq!(m.failed_no_latest, d.failed_no_latest);
    assert_eq!(m.failed_other, d.failed_other);
    assert_eq!(m.gave_up, 0, "the patient policy must never give up");

    assert_eq!(through_mirror.layers.len(), direct.layers.len());
    for (digest, profile) in &direct.layers {
        assert_eq!(
            through_mirror.layers.get(digest),
            Some(profile),
            "layer profile diverged through the mirror"
        );
    }
    assert_eq!(through_mirror.images, direct.images);
}

#[test]
fn study_through_mirror_is_byte_identical_to_direct() {
    let clean = direct_clean_study();
    for rate in [0.0, 0.05, 0.20] {
        let (data, report) = mirror_study(rate);
        assert_same_http_dataset(&data, &clean);
        // Accounting invariant at every fault rate: each cacheable request
        // resolved as exactly one of hit / leader miss / coalesced wait.
        assert_eq!(
            report.requests,
            report.hits + report.misses + report.coalesced,
            "mirror request accounting must partition at rate {rate}"
        );
        assert!(report.misses > 0, "a cold mirror must miss");
        if rate == 0.0 {
            assert_eq!(report.origin_errors, 0, "no faults, no origin errors");
        }
    }
}

#[test]
fn mirror_fails_over_when_an_origin_shard_is_killed() {
    let clean = direct_clean_study();

    // Shard 0 is killed for the entire run: every request to its address
    // drops at the wire, deterministically — the from-birth limit of
    // "killed mid-study", and the worst case for the ring (every key that
    // hashes there must fail over).
    let hub = hub();
    let dead_inj =
        Arc::new(FaultInjector::new(FaultConfig::only(FAULT_SEED, 1.0, FaultKind::Drop)));
    let dead = RegistryServer::start_with_faults(hub.registry.clone(), Some(dead_inj)).unwrap();
    let live = RegistryServer::start(hub.registry.clone()).unwrap();
    let obs = Arc::new(MetricsRegistry::new());
    let mirror = Arc::new(Mirror::new(
        &[dead.addr(), live.addr()],
        MirrorConfig::new(1 << 30, PolicyKind::Lru)
            .with_retry(RetryPolicy::fast(1).with_seed(FAULT_SEED))
            .with_down_after(2),
        obs.clone(),
    ));
    let msrv =
        RegistryServer::start_mirror(mirror.clone(), obs, dhub_registry::DEFAULT_MAX_CONNS)
            .unwrap();
    let data = run_study_http_obs(&hub, msrv.addr(), THREADS, &patient(), &MetricsRegistry::new());
    msrv.shutdown();
    dead.shutdown();
    live.shutdown();

    // Table 1 (and the whole dataset behind it) is unchanged by the loss.
    assert_same_http_dataset(&data, &clean);
    assert_eq!(
        dhub_study::figures::table1(&data).render(),
        dhub_study::figures::table1(&clean).render(),
        "Table 1 must not change when an origin shard dies"
    );

    let report = mirror.report();
    assert!(report.failovers > 0, "keys owned by the dead shard must fail over");
    assert!(report.origin_errors > 0, "the dead shard's failures must be counted");
    assert_eq!(
        mirror.origin_health(),
        vec![false, true],
        "the dead shard must be marked down, the live one up"
    );
}

/// Value of `name` in a Prometheus text exposition.
fn exposition_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or_else(|| panic!("{name} missing from exposition"))
}

#[test]
fn mirror_counters_reconcile_with_report_and_exposition_at_study_scale() {
    let hub = hub();
    let o1 = RegistryServer::start(hub.registry.clone()).unwrap();
    let o2 = RegistryServer::start(hub.registry.clone()).unwrap();
    let obs = Arc::new(MetricsRegistry::new());
    let mirror = Arc::new(Mirror::new(
        &[o1.addr(), o2.addr()],
        MirrorConfig::new(1 << 30, PolicyKind::Gdsf),
        obs.clone(),
    ));
    let msrv = RegistryServer::start_mirror(
        mirror.clone(),
        obs.clone(),
        dhub_registry::DEFAULT_MAX_CONNS,
    )
    .unwrap();

    // Two passes: the first warms the cache, the second must hit it.
    let _ = run_study_http_obs(&hub, msrv.addr(), THREADS, &patient(), &MetricsRegistry::new());
    let _ = run_study_http_obs(&hub, msrv.addr(), THREADS, &patient(), &MetricsRegistry::new());

    let report = mirror.report();
    assert_eq!(report.requests, report.hits + report.misses + report.coalesced);
    assert!(report.hits > 0, "the second pass must hit the warm cache");
    assert!(report.misses > 0, "the first pass must miss the cold cache");

    // Report, snapshot, and the server's own /metrics exposition agree on
    // every dhub_mirror_* counter — the DeltaCounter design by value.
    let snap = obs.snapshot();
    let text = dhub_registry::RemoteRegistry::connect_anonymous(msrv.addr())
        .metrics_text()
        .unwrap();
    for (name, want) in [
        ("dhub_mirror_requests_total", report.requests),
        ("dhub_mirror_hits_total", report.hits),
        ("dhub_mirror_misses_total", report.misses),
        ("dhub_mirror_coalesced_total", report.coalesced),
        ("dhub_mirror_hit_bytes_total", report.hit_bytes),
        ("dhub_mirror_miss_bytes_total", report.miss_bytes),
        ("dhub_mirror_evictions_total", report.evictions),
        ("dhub_mirror_failovers_total", report.failovers),
        ("dhub_mirror_origin_fetches_total", report.origin_fetches),
        ("dhub_mirror_origin_errors_total", report.origin_errors),
    ] {
        assert_eq!(snap.counter(name), want, "snapshot drifted from report for {name}");
        assert_eq!(exposition_value(&text, name), want, "exposition drifted for {name}");
    }

    msrv.shutdown();
    o1.shutdown();
    o2.shutdown();
}

// ---------------------------------------------------------------------------
// Persistence tier gates: the crash-safe store under write faults.
//
// The contract (DESIGN.md §6g): whatever combination of wire faults and
// durable-write crashes a run survives, the store it leaves on disk —
// reopened by a fresh "process" — must be indistinguishable from one
// written by a clean single-process run: same stats bits, same
// reconstructed tars, byte-identical study tables, identical query
// answers.
// ---------------------------------------------------------------------------

/// Reads every regular file under `dir` into a sorted (name, bytes) list.
fn dir_contents(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            out.push((
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).unwrap(),
            ));
        }
    }
    out.sort();
    out
}

fn chaos_tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dhub-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn persistent_store_reopens_identical_at_every_fault_rate() {
    use dhub_dedupstore::{DedupStore, PersistentDedupStore};
    use dhub_persist::{Publisher, WriteFaults};
    use dhub_study::db::StudyDb;

    // Reference: a clean single-process in-memory run, and the study
    // tables it would write.
    let ref_store = DedupStore::new();
    let obs = MetricsRegistry::new();
    let clean =
        dhub_study::pipeline::run_study_store_obs(&hub(), THREADS, &patient(), &ref_store, &obs);
    let ref_stats = ref_store.stats();
    let ref_db = StudyDb::build(&clean, &ref_stats);
    let ref_dir = chaos_tmp("persist-ref");
    ref_db.save(&ref_dir.join("db"), &Publisher::new()).unwrap();

    for rate in [0.0, 0.05, 0.20] {
        let dir = chaos_tmp(&format!("persist-r{}", (rate * 100.0) as u32));
        {
            // "Process one": wire faults on the hub AND crash faults on
            // every durable write, both from the same pinned seed.
            let faults = (rate > 0.0).then(|| WriteFaults {
                injector: Arc::new(FaultInjector::new(FaultConfig::uniform(FAULT_SEED, rate))),
                policy: patient(),
            });
            let publisher = Publisher::new().with_faults(faults);
            let store = PersistentDedupStore::open(&dir, publisher.clone()).unwrap();
            let obs = MetricsRegistry::new();
            let data = dhub_study::pipeline::run_study_persist_obs(
                &faulted_hub(rate),
                THREADS,
                &patient(),
                &store,
                &obs,
            );
            assert_same_dataset(&data, &clean);
            StudyDb::build(&data, &store.mem().stats())
                .save(&dir.join("db"), &publisher)
                .unwrap();
        } // store dropped: the "process" dies here.

        // "Process two": reopen from disk alone.
        let store = PersistentDedupStore::open(&dir, Publisher::new()).unwrap();
        let st = store.mem().stats();
        assert_eq!(st, ref_stats, "reloaded stats diverged at rate {rate}");
        assert_eq!(
            st.dedup_factor().to_bits(),
            ref_stats.dedup_factor().to_bits(),
            "dedup factor must be bit-identical at rate {rate}"
        );
        for d in clean.layers.keys() {
            assert_eq!(
                store.mem().reconstruct_tar(d).unwrap(),
                ref_store.reconstruct_tar(d).unwrap(),
                "reconstruction diverged at rate {rate}"
            );
        }

        // The study tables on disk are byte-identical to the reference's,
        // and answer every query identically.
        assert_eq!(
            dir_contents(&dir.join("db")),
            dir_contents(&ref_dir.join("db")),
            "persisted .tbl files diverged at rate {rate}"
        );
        let db = StudyDb::load(&dir.join("db")).unwrap();
        assert_eq!(db.summary(), ref_db.summary());
        assert_eq!(db.dedup_summary(), ref_db.dedup_summary());
        assert_eq!(db.top_file_types(10), ref_db.top_file_types(10));
        assert_eq!(db.layer_size_percentiles(), ref_db.layer_size_percentiles());
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn store_killed_mid_ingest_resumes_to_identical_state() {
    use dhub_dedupstore::{analyze_and_ingest_persistent, DedupStore, PersistentDedupStore};
    use dhub_persist::Publisher;
    use dhub_study::db::StudyDb;

    // Reference run: what a never-killed process produces.
    let ref_store = DedupStore::new();
    let obs = MetricsRegistry::new();
    let clean =
        dhub_study::pipeline::run_study_store_obs(&hub(), THREADS, &patient(), &ref_store, &obs);
    let ref_stats = ref_store.stats();

    let dir = chaos_tmp("persist-kill");
    {
        // "Process one" ingests half the layers, then dies — some shard
        // dirs full, no study tables.
        let store = PersistentDedupStore::open(&dir, Publisher::new()).unwrap();
        let half: Vec<_> = clean.layers.keys().take(clean.layers.len() / 2).collect();
        let mut scratch = dhub_par::Scratch::new();
        let src = hub();
        for d in half {
            let blob = src.registry.get_blob(d).unwrap();
            let (_profile, ingest) =
                analyze_and_ingest_persistent(&store, *d, &blob, &mut scratch).unwrap();
            ingest.unwrap();
        }
    }

    // "Process two" replays the partial store and finishes the study; the
    // already-ingested half is skipped, not re-done.
    let store = PersistentDedupStore::open(&dir, Publisher::new()).unwrap();
    let replayed = store.mem().stats().layers;
    assert!(replayed > 0, "replay found nothing to resume");
    let obs = MetricsRegistry::new();
    let data =
        dhub_study::pipeline::run_study_persist_obs(&hub(), THREADS, &patient(), &store, &obs);
    assert_same_dataset(&data, &clean);
    let st = store.mem().stats();
    assert_eq!(st, ref_stats, "resumed stats diverged from the never-killed run");
    assert_eq!(st.dedup_factor().to_bits(), ref_stats.dedup_factor().to_bits());

    // And the tables it writes now are what process one would have written.
    let publisher = Publisher::new();
    StudyDb::build(&data, &st).save(&dir.join("db"), &publisher).unwrap();
    let db = StudyDb::load(&dir.join("db")).unwrap();
    let ref_db = StudyDb::build(&clean, &ref_stats);
    assert_eq!(db.summary(), ref_db.summary());
    assert_eq!(
        db.dedup_factor().to_bits(),
        ref_db.dedup_factor().to_bits(),
        "queried dedup factor must be bit-identical after a mid-run kill"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Queue tier gates (DESIGN.md §6h): the lease-based worker fleet.
//
// The contract: worker count, worker kills, wire faults, durable-write
// crashes, and lease-loss faults (a worker dying right after claiming)
// may change *scheduling*, never the *study* — same dataset, same store
// stats bits, byte-identical .tbl files, and no job ever
// executed-and-committed twice.
// ---------------------------------------------------------------------------

/// One queued-study "process": opens (or resumes) the store and queue at
/// `dir`, runs the fleet, and — when the queue drains — writes the study
/// tables. `rate` drives three independent deterministic
/// injectors from the same pinned seed: wire faults (on `hub`), durable
/// write crashes, and lease-loss faults.
fn queued_study(
    hub: &SyntheticHub,
    dir: &std::path::Path,
    workers: usize,
    rate: f64,
    max_commits: Option<u64>,
) -> (Result<StudyData, dhub_queue::QueueError>, dhub_dedupstore::StoreStats, MetricsRegistry) {
    use dhub_dedupstore::PersistentDedupStore;
    use dhub_persist::{Publisher, WriteFaults};
    use dhub_queue::{DurableQueue, LeaseConfig};
    use dhub_study::distributed::{run_study_queued_obs, QueuedStudyConfig};

    let obs = MetricsRegistry::new();
    let write_faults = (rate > 0.0).then(|| WriteFaults {
        injector: Arc::new(FaultInjector::new(FaultConfig::uniform(FAULT_SEED, rate))),
        policy: patient(),
    });
    let lease_faults =
        (rate > 0.0).then(|| Arc::new(FaultInjector::new(FaultConfig::uniform(FAULT_SEED, rate))));
    let publisher = Publisher::new().with_faults(write_faults);
    let store = PersistentDedupStore::open(dir, publisher.clone()).unwrap();
    let queue =
        DurableQueue::open(dir.join("queue"), publisher.clone()).unwrap().with_metrics(&obs);
    let cfg = QueuedStudyConfig {
        workers,
        policy: patient(),
        // The patient analogue for leases: at 20 % lease loss a job can
        // burn several leases back to back; give poison detection enough
        // budget that no genuine job quarantines at the pinned seed.
        lease: LeaseConfig { max_expiries: 12, ..LeaseConfig::default() },
        max_commits,
        lease_faults,
    };
    let data = run_study_queued_obs(hub, &store, &queue, &cfg, &obs);
    if let Ok(d) = &data {
        dhub_study::db::StudyDb::build(d, &store.mem().stats())
            .save(&dir.join("db"), &publisher)
            .unwrap();
    }
    let stats = store.mem().stats();
    (data, stats, obs)
}

/// The counters that are pure functions of the hub and the fault seed
/// (event and byte counts; no retry tallies, no clocks), read off a run's
/// registry: whoever schedules the crawl / download / analyze steps, these
/// are the numbers Table 1 is printed from.
fn study_counters(obs: &MetricsRegistry, with_analyze: bool) -> Vec<(&'static str, u64)> {
    const CRAWL_DOWNLOAD: [&str; 12] = [
        "dhub_crawl_pages_fetched_total",
        "dhub_crawl_raw_results_total",
        "dhub_crawl_dedup_hits_total",
        "dhub_crawl_pages_gave_up_total",
        "dhub_download_images_ok_total",
        "dhub_download_unique_layers_total",
        "dhub_download_bytes_total",
        "dhub_download_layer_fetches_skipped_total",
        "dhub_download_failed_auth_total",
        "dhub_download_failed_no_latest_total",
        "dhub_download_failed_other_total",
        "dhub_download_sim_transfer_ns_total",
    ];
    const ANALYZE: [&str; 4] = [
        "dhub_analyze_layers_total",
        "dhub_analyze_files_total",
        "dhub_analyze_bytes_total",
        "dhub_analyze_errors_total",
    ];
    let analyze = if with_analyze { &ANALYZE[..] } else { &[] };
    CRAWL_DOWNLOAD.iter().chain(analyze).map(|&name| (name, obs.counter_value(name))).collect()
}

#[test]
fn queued_fleet_matches_single_process_at_every_worker_count_and_fault_rate() {
    use dhub_dedupstore::DedupStore;
    use dhub_persist::Publisher;
    use dhub_study::db::StudyDb;

    // Reference: the clean single-process fused run and its tables.
    let ref_store = DedupStore::new();
    let ref_obs = MetricsRegistry::new();
    let clean = dhub_study::pipeline::run_study_store_obs(
        &hub(),
        THREADS,
        &patient(),
        &ref_store,
        &ref_obs,
    );
    let ref_stats = ref_store.stats();
    let ref_dir = chaos_tmp("queue-ref");
    StudyDb::build(&clean, &ref_stats).save(&ref_dir.join("db"), &Publisher::new()).unwrap();

    for (workers, rate) in [(1, 0.0), (2, 0.0), (8, 0.0), (4, 0.05), (4, 0.20)] {
        let dir = chaos_tmp(&format!("queue-w{workers}-r{}", (rate * 100.0) as u32));
        let (data, stats, obs) = queued_study(&faulted_hub(rate), &dir, workers, rate, None);
        let data = data.unwrap_or_else(|e| panic!("workers={workers} rate={rate}: {e}"));

        assert_same_dataset(&data, &clean);
        // The fleet schedules the batch path's steps: its reports are
        // derived from the same counters, and the counters land on the
        // batch run's values.
        assert_counters_match_reports(&obs.snapshot(), &data);
        assert_eq!(
            study_counters(&obs, true),
            study_counters(&ref_obs, true),
            "fleet counters diverged from the batch run at workers={workers} rate={rate}"
        );
        assert_eq!(stats, ref_stats, "store stats diverged at workers={workers} rate={rate}");
        assert_eq!(
            stats.dedup_factor().to_bits(),
            ref_stats.dedup_factor().to_bits(),
            "dedup factor must be bit-identical at workers={workers} rate={rate}"
        );
        assert_eq!(
            dir_contents(&dir.join("db")),
            dir_contents(&ref_dir.join("db")),
            ".tbl files diverged at workers={workers} rate={rate}"
        );
        assert_eq!(
            obs.counter_value("dhub_queue_double_commits_total"),
            0,
            "a job was executed-and-committed twice at workers={workers} rate={rate}"
        );
        if rate >= 0.20 {
            assert!(
                obs.counter_value("dhub_queue_lease_faults_total") > 0,
                "20 % lease faults must actually fire"
            );
            assert!(
                obs.counter_value("dhub_queue_lease_expiries_total") > 0,
                "abandoned claims must expire and requeue"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn queued_fleet_killed_mid_run_resumes_to_identical_state() {
    use dhub_dedupstore::DedupStore;
    use dhub_persist::Publisher;
    use dhub_study::db::StudyDb;

    let ref_store = DedupStore::new();
    let ref_obs = MetricsRegistry::new();
    let clean = dhub_study::pipeline::run_study_store_obs(
        &hub(),
        THREADS,
        &patient(),
        &ref_store,
        &ref_obs,
    );
    let ref_stats = ref_store.stats();
    let ref_dir = chaos_tmp("queue-kill-ref");
    StudyDb::build(&clean, &ref_stats).save(&ref_dir.join("db"), &Publisher::new()).unwrap();

    // One hub across all three "processes": each job executes exactly once
    // over the whole kill/resume sequence, so even the live pull counters
    // end up exactly where the never-killed run's do.
    let src = hub();
    let dir = chaos_tmp("queue-kill");

    // Process one: killed 10 commits in. Process two: resumes with a
    // different worker count, killed again. Process three: drains.
    let (r1, _, _) = queued_study(&src, &dir, 2, 0.0, Some(10));
    assert!(matches!(r1, Err(dhub_queue::QueueError::Killed)), "kill one did not fire");
    let (r2, _, _) = queued_study(&src, &dir, 4, 0.0, Some(25));
    assert!(matches!(r2, Err(dhub_queue::QueueError::Killed)), "kill two did not fire");
    let (r3, stats, obs) = queued_study(&src, &dir, 4, 0.0, None);
    let data = r3.unwrap();

    assert_same_dataset(&data, &clean);
    assert_eq!(stats, ref_stats, "resumed store stats diverged from the never-killed run");
    assert_eq!(stats.dedup_factor().to_bits(), ref_stats.dedup_factor().to_bits());
    assert_eq!(
        dir_contents(&dir.join("db")),
        dir_contents(&ref_dir.join("db")),
        ".tbl files diverged after two kills and a resume"
    );
    assert_eq!(obs.counter_value("dhub_queue_double_commits_total"), 0);
    // Crawl and download are replayed from the durable results, so the
    // third process reports the whole run although it executed only the
    // tail (`dhub_analyze_*` ticks at execution and covers just that tail).
    assert_eq!(
        study_counters(&obs, false),
        study_counters(&ref_obs, false),
        "resumed fleet's crawl/download counters are not the never-killed run's"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}
