//! The three `study_*` workloads, end to end, through the same public
//! entry points the CLI commands call. Each iteration is three operations,
//! timed separately:
//!
//! | workload              | `op_ms`                                   | `op_b_ms`                | `op_c_ms`        |
//! |-----------------------|-------------------------------------------|--------------------------|------------------|
//! | `study_mem_bytes`     | `dhub store` into a fresh in-memory store | every layer tar rebuilt  | `dhub report`    |
//! | `study_durable_files` | `dhub store --store-dir` into a fresh dir | cold reopen of the dir   | `dhub query` × 4 |
//! | `study_queued_files`  | `dhub work` through the job queue         | cold reopen of the dir   | `dhub query` × 4 |

use crate::corpus::{Corpus, BYTES, FILES};
use crate::host::{self, Calib};
use crate::stats;
use crate::{Ctx, RunResult};
use dhub_compress::gzip_decompress_into;
use dhub_dedupstore::{DedupStore, PersistentDedupStore, StoreStats};
use dhub_faults::RetryPolicy;
use dhub_model::Digest;
use dhub_obs::MetricsRegistry;
use dhub_persist::Publisher;
use dhub_queue::{DurableQueue, LeaseConfig};
use dhub_study::db::StudyDb;
use dhub_study::distributed::{run_study_queued_obs, QueuedStudyConfig};
use dhub_study::figures;
use dhub_study::pipeline::{run_study_obs, run_study_persist_obs, run_study_store_obs, StudyData};
use dhub_synth::{generate_hub, SyntheticHub};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StudyKind {
    MemBytes,
    DurableFiles,
    QueuedFiles,
}

impl StudyKind {
    pub fn corpus(self) -> Corpus {
        match self {
            StudyKind::MemBytes => BYTES,
            StudyKind::DurableFiles | StudyKind::QueuedFiles => FILES,
        }
    }
}

/// The CLI's default retry budget, with `--seed` as the jitter seed.
pub fn retry_policy(seed: u64) -> RetryPolicy {
    RetryPolicy::new(4).with_seed(seed)
}

/// Compressed bytes of the unique layers a study analysed (`cls` sum):
/// the numerator of `mib_per_s`.
pub fn compressed_bytes(data: &StudyData) -> u64 {
    data.layers.values().map(|l| l.cls).sum()
}

/// Figures left out of result digests because the same study renders
/// them differently from run to run:
///
/// * Fig. 8 plots the registry's live pull counters, which every study's
///   own manifest fetches advance — expected.
/// * Figs. 27-29 split dedup savings by file type through
///   `dhub_dedup::by_type`, whose parallel index lets the first thread to
///   see a content digest decide its type; content stored under paths
///   that classify differently moves between rows (seen on the *files*
///   corpus: "SC. bytes 262349" vs "266905" from identical inputs, at any
///   `threads`, because the figures use `default_threads()`). A finding
///   for a later change, not something the benchmark may paper over.
const UNSTABLE_FIGURES: [&str; 4] = ["Fig. 8", "Fig. 27", "Fig. 28", "Fig. 29"];

/// Renders everything `dhub report` prints from the study itself (Table 1,
/// Figs. 3-29, Table 2) and returns the digest of all of it but
/// [`UNSTABLE_FIGURES`].
pub fn render_figures(data: &StudyData) -> Digest {
    let mut stable = String::new();
    for fig in figures::all_figures(data) {
        let text = std::hint::black_box(fig.render());
        if !UNSTABLE_FIGURES.contains(&fig.id) {
            stable.push_str(&text);
            stable.push('\n');
        }
    }
    Digest::of(stable.as_bytes())
}

/// Store stats as text, float included bit for bit.
pub fn stats_text(s: &StoreStats) -> String {
    format!("{s:?} factor_bits={:#x}", s.dedup_factor().to_bits())
}

/// `(attempted, failed)` operations of one study: every repository is a
/// download attempt and every unique layer an analysis attempt; failures
/// are layers that did not analyse, fetches given up, and repositories
/// whose outcome disagrees with the generator's ground truth.
pub fn study_ops(hub: &SyntheticHub, data: &StudyData) -> (u64, u64) {
    let d = &data.download;
    let attempted = (data.crawl.distinct_repos + d.unique_layers + data.analyze_errors) as u64;
    let misclassified = d.failed_auth.abs_diff(hub.truth.auth_repos.len())
        + d.failed_no_latest.abs_diff(hub.truth.no_latest_repos.len())
        + d.failed_other;
    (
        attempted,
        data.analyze_errors as u64 + d.gave_up + misclassified as u64,
    )
}

/// What a whole study run leaves behind, for checks and counts.
pub struct StudyOut {
    pub data: StudyData,
    pub stats: StoreStats,
    pub obs: MetricsRegistry,
}

fn finish_durable(
    dir: &Path,
    data: &StudyData,
    store: &PersistentDedupStore,
    publisher: &Publisher,
) -> Result<(), String> {
    let db = StudyDb::build(data, &store.mem().stats());
    db.save(&dir.join("db"), publisher)
        .map_err(|e| format!("db save: {e}"))?;
    store.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    store.gc().map_err(|e| format!("gc: {e}"))?;
    Ok(())
}

/// `dhub store --store-dir DIR`: durable fused study, study tables,
/// manifest checkpoint, orphan sweep.
pub fn durable_write(
    hub: &SyntheticHub,
    dir: &Path,
    threads: usize,
    policy: &RetryPolicy,
) -> Result<StudyOut, String> {
    let obs = MetricsRegistry::new();
    let publisher = Publisher::new().with_metrics(&obs);
    let store = PersistentDedupStore::open_obs(dir, publisher.clone(), Some(&obs))
        .map_err(|e| format!("open store: {e}"))?;
    let data = run_study_persist_obs(hub, threads, policy, &store, &obs);
    finish_durable(dir, &data, &store, &publisher)?;
    let stats = store.mem().stats();
    Ok(StudyOut { data, stats, obs })
}

/// `dhub work --store-dir DIR --workers N`: the durable study as page /
/// image / layer jobs through `DIR/queue`.
pub fn queued_write(
    hub: &SyntheticHub,
    dir: &Path,
    workers: usize,
    policy: &RetryPolicy,
    lease_seed: u64,
) -> Result<StudyOut, String> {
    let obs = MetricsRegistry::new();
    let publisher = Publisher::new().with_metrics(&obs);
    let store = PersistentDedupStore::open_obs(dir, publisher.clone(), Some(&obs))
        .map_err(|e| format!("open store: {e}"))?;
    let queue = DurableQueue::open(dir.join("queue"), publisher.clone())
        .map_err(|e| format!("open queue: {e}"))?
        .with_metrics(&obs);
    let cfg = QueuedStudyConfig {
        workers,
        policy: *policy,
        lease: LeaseConfig {
            seed: lease_seed,
            ..LeaseConfig::default()
        },
        ..QueuedStudyConfig::default()
    };
    let data = run_study_queued_obs(hub, &store, &queue, &cfg, &obs)
        .map_err(|e| format!("queued study: {e}"))?;
    finish_durable(dir, &data, &store, &publisher)?;
    let stats = store.mem().stats();
    Ok(StudyOut { data, stats, obs })
}

/// Cold `PersistentDedupStore::open`: replays every recipe and
/// digest-verifies every object back into memory.
pub fn reopen(dir: &Path) -> Result<StoreStats, String> {
    let store =
        PersistentDedupStore::open(dir, Publisher::new()).map_err(|e| format!("reopen: {e}"))?;
    Ok(store.mem().stats())
}

/// `StudyDb::load` + the four `dhub query` questions; returns the answers.
pub fn query_all(dir: &Path) -> Result<String, String> {
    let db = StudyDb::load(&dir.join("db")).map_err(|e| format!("db load: {e}"))?;
    Ok(format!(
        "{:?}\n{:?}\n{:?}\n{:?}",
        db.summary(),
        db.dedup_summary(),
        db.top_file_types(10),
        db.layer_size_percentiles()
    ))
}

/// Digest over the bytes of the five study tables, in name order.
pub fn tables_digest(dir: &Path) -> Result<Digest, String> {
    let mut all = Vec::new();
    for name in ["dedup", "files", "images", "layers", "study"] {
        let path = dir.join("db").join(format!("{name}.tbl"));
        all.extend(std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?);
    }
    Ok(Digest::of(&all))
}

/// One iteration: the workload's three operations, each timed on its own.
struct Op {
    /// Seconds of the write side (`op_ms`), of reading back what it wrote
    /// (`op_b_ms`), and of answering from it (`op_c_ms`).
    seconds: [f64; 3],
    /// Everything the iteration produced, as text; must not change
    /// between iterations.
    result: Digest,
    attempted: u64,
    failed: u64,
    layer_bytes: u64,
    /// Bytes kept (in the store, or under the store dir) and the logical
    /// bytes they stand for.
    physical_bytes: u64,
    logical_bytes: u64,
    /// Exact counts, compared between runs by `selfcheck`.
    counts: Vec<(&'static str, u64)>,
}

/// Per-workload state built by set-up.
struct Rig {
    hub: SyntheticHub,
    /// What every iteration's result (or part of it) must equal, where
    /// another code path can produce it.
    reference: Option<Digest>,
}

/// Digest over `(layer digest, digest of its tar)` pairs in digest order.
fn tars_digest(mut tars: Vec<(Digest, Digest)>) -> Digest {
    tars.sort();
    Digest::of(format!("{tars:?}").as_bytes())
}

fn setup(kind: StudyKind, ctx: &Ctx) -> Result<Rig, String> {
    let hub = generate_hub(&kind.corpus().config(ctx.quick));
    let policy = retry_policy(ctx.seed);
    let reference = match kind {
        // The non-fused pipeline (separate analyze pass, no store) must
        // render the same figures the fused one does, and the store must
        // give back the tar every layer blob inflates to.
        StudyKind::MemBytes => {
            let plain = run_study_obs(&hub, ctx.threads, &policy, &MetricsRegistry::new());
            let mut tars = Vec::new();
            let mut tar = Vec::new();
            for digest in plain.layers.keys() {
                let blob = hub
                    .registry
                    .get_blob(digest)
                    .map_err(|e| format!("layer blob: {e:?}"))?;
                gzip_decompress_into(&blob, &mut tar).map_err(|e| format!("gunzip: {e}"))?;
                tars.push((*digest, Digest::of(&tar)));
            }
            let text = format!("{}\n{}", render_figures(&plain), tars_digest(tars));
            Some(Digest::of(text.as_bytes()))
        }
        StudyKind::DurableFiles => None,
        // The queued run's tables must be byte-identical to a direct run's.
        StudyKind::QueuedFiles => {
            let dir = ctx.scratch.fresh("reference");
            durable_write(&hub, &dir, ctx.threads, &policy)?;
            let tables = tables_digest(&dir)?;
            let _ = std::fs::remove_dir_all(&dir);
            Some(tables)
        }
    };
    Ok(Rig { hub, reference })
}

/// `dhub store` + every layer rebuilt from the store + `dhub report`.
fn mem_op(rig: &Rig, ctx: &Ctx) -> Result<Op, String> {
    let (hub, policy) = (&rig.hub, retry_policy(ctx.seed));
    let obs = MetricsRegistry::new();
    let t = Instant::now();
    let store = DedupStore::with_metrics(&obs);
    let data = run_study_store_obs(hub, ctx.threads, &policy, &store, &obs);
    let write_s = t.elapsed().as_secs_f64();

    // Hashing the rebuilt tars is the check, not the operation.
    let (mut rebuild_s, mut tars) = (0.0, Vec::new());
    for digest in store.layer_digests() {
        let t = Instant::now();
        let tar = store
            .reconstruct_tar(&digest)
            .map_err(|e| format!("reconstruct: {e:?}"))?;
        rebuild_s += t.elapsed().as_secs_f64();
        tars.push((digest, Digest::of(&tar)));
    }

    let t = Instant::now();
    let figures = render_figures(&data);
    let report_s = t.elapsed().as_secs_f64();

    let text = format!("{figures}\n{}", tars_digest(tars));
    if Some(Digest::of(text.as_bytes())) != rig.reference {
        return Err(
            "fused study figures or rebuilt tars differ from the non-fused pipeline's".into(),
        );
    }
    let stats = store.stats();
    let (attempted, failed) = study_ops(hub, &data);
    Ok(Op {
        seconds: [write_s, rebuild_s, report_s],
        result: Digest::of(format!("{text}\n{}", stats_text(&stats)).as_bytes()),
        attempted,
        failed,
        layer_bytes: compressed_bytes(&data),
        physical_bytes: stats.physical_bytes,
        logical_bytes: stats.logical_bytes,
        counts: vec![
            ("layers", stats.layers as u64),
            ("unique_objects", stats.unique_objects as u64),
            ("logical_bytes", stats.logical_bytes),
            ("physical_bytes", stats.physical_bytes),
        ],
    })
}

/// `dhub store --store-dir` or `dhub work` into a fresh directory, then a
/// cold reopen of it, then `dhub query` × 4.
fn durable_op(kind: StudyKind, rig: &Rig, ctx: &Ctx) -> Result<Op, String> {
    let (hub, policy) = (&rig.hub, retry_policy(ctx.seed));
    let dir = ctx.scratch.fresh("store");
    let t = Instant::now();
    let out = match kind {
        StudyKind::QueuedFiles => queued_write(hub, &dir, ctx.threads, &policy, ctx.seed)?,
        _ => durable_write(hub, &dir, ctx.threads, &policy)?,
    };
    let write_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let reopened = reopen(&dir)?;
    let reopen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let answers = query_all(&dir)?;
    let query_s = t.elapsed().as_secs_f64();

    if stats_text(&reopened) != stats_text(&out.stats) {
        return Err("reopened store stats differ from the writer's".into());
    }
    let tables = tables_digest(&dir)?;
    let (files, bytes) = host::dir_usage(&dir);
    let (mut attempted, mut failed) = study_ops(hub, &out.data);
    let mut counts = vec![
        ("layers", out.stats.layers as u64),
        ("unique_objects", out.stats.unique_objects as u64),
        ("logical_bytes", out.stats.logical_bytes),
        ("files_on_disk", files),
        ("disk_bytes", bytes),
    ];
    if kind == StudyKind::QueuedFiles {
        if Some(tables) != rig.reference {
            return Err("queued study tables differ from the direct durable run's".into());
        }
        let double_commits = out.obs.counter_value("dhub_queue_double_commits_total");
        if double_commits != 0 {
            return Err(format!("{double_commits} double commits"));
        }
        let jobs = out.obs.counter_value("dhub_queue_jobs_seeded_total");
        attempted += jobs;
        failed += out.obs.counter_value("dhub_queue_jobs_quarantined_total");
        counts.push(("queue_jobs", jobs));
    }
    let text = format!("{answers}\n{tables}\n{}", stats_text(&out.stats));
    Ok(Op {
        seconds: [write_s, reopen_s, query_s],
        result: Digest::of(text.as_bytes()),
        attempted,
        failed,
        layer_bytes: compressed_bytes(&out.data),
        physical_bytes: bytes,
        logical_bytes: out.stats.logical_bytes,
        counts,
    })
}

fn run_op(kind: StudyKind, rig: &Rig, ctx: &Ctx) -> Result<Op, String> {
    match kind {
        StudyKind::MemBytes => mem_op(rig, ctx),
        StudyKind::DurableFiles | StudyKind::QueuedFiles => durable_op(kind, rig, ctx),
    }
}

/// Runs one `study_*` workload end to end, untraced.
pub fn run(kind: StudyKind, workload: &'static str, ctx: &Ctx) -> Result<RunResult, String> {
    let mut calib = Calib::default();
    calib.tick();
    let t = Instant::now();
    let rig = setup(kind, ctx)?;
    let setup_s = t.elapsed().as_secs_f64();

    // Untimed warm-up: fills the allocator, the scratch arenas and the
    // page cache the way a second `dhub` invocation would find them.
    let warm = run_op(kind, &rig, ctx)?;
    let rss_reset = host::reset_peak_rss();

    let mut samples: [Vec<f64>; 3] = Default::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut mismatch = false;
    let started = Instant::now();
    while !ctx.measured_enough(started, samples[0].len()) {
        calib.tick();
        let op = run_op(kind, &rig, ctx)?;
        for (v, s) in samples.iter_mut().zip(op.seconds) {
            v.push(s * 1e3);
        }
        attempted += op.attempted;
        failed += op.failed;
        mismatch |= op.result != warm.result || op.counts != warm.counts;
    }
    calib.tick();
    let peak_rss_mib = host::peak_rss_mib();
    if mismatch {
        // A result that changes between iterations voids every operation.
        failed = attempted;
    }

    let timing = stats::summarize(&samples[0]);
    let op_s = timing.median / 1e3;
    let mib = warm.layer_bytes as f64 / (1u64 << 20) as f64;
    let mut r = RunResult::new(workload, ctx, &calib);
    r.correct = !mismatch && failed == 0;
    r.attempted = attempted;
    r.failed = failed;
    r.metric("setup_s", setup_s);
    r.metric("op_ms", timing.median);
    r.metric("op_hi_ms", timing.hi);
    r.metric("op_b_ms", stats::median(&samples[1]));
    r.metric("op_c_ms", stats::median(&samples[2]));
    r.metric("mib_per_s", mib / op_s);
    r.metric("ops_per_s", warm.attempted as f64 / op_s);
    r.metric(
        "physical_per_logical",
        warm.physical_bytes as f64 / warm.logical_bytes.max(1) as f64,
    );
    r.metric("peak_rss_mib", peak_rss_mib);
    r.timing = Some(timing);
    r.note("corpus", kind.corpus().name);
    r.note("rss_peak_reset_after_warmup", &rss_reset.to_string());
    r.note("layer_mib", &format!("{mib:.3}"));
    r.note("ops_per_iteration", &warm.attempted.to_string());
    r.counts = warm.counts;
    Ok(r)
}
