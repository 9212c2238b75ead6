//! The traced pass: each workload replayed single-threaded through each
//! crate's public functions, with the driver's own spans around the
//! calls, to attribute the end-to-end time to layers.
//!
//! A round replays the whole workload once; rounds repeat for
//! `--seconds` and every timing is the median over rounds. Counts are
//! taken single-threaded and must repeat exactly from round to round.
//! The end-to-end metrics never come from this pass.

use crate::host::{self, Calib};
use crate::serve::{self, Rig};
use crate::stats;
use crate::study::{self, StudyKind};
use crate::trace::{residual_ratio, SpanId, Tracer};
use crate::{Ctx, RunResult};
use dhub_analyzer::analyze_layer_scratch;
use dhub_compress::gzip_decompress_into;
use dhub_crawler::{crawl_obs, parse_results_page};
use dhub_dedupstore::{
    analyze_and_ingest, analyze_and_ingest_persistent, DedupStore, PersistentDedupStore,
};
use dhub_digest::FxHashSet;
use dhub_downloader::download_all_obs;
use dhub_faults::RetryPolicy;
use dhub_mirror::{HashRing, LiveCache, PolicyKind};
use dhub_model::{Digest, RepoName};
use dhub_obs::MetricsRegistry;
use dhub_par::Scratch;
use dhub_persist::{hex_of, BlobStore, Predicate, Publisher, Table};
use dhub_queue::{DurableQueue, LeaseConfig, LeaseManager};
use dhub_registry::{NetworkModel, RemoteRegistry};
use dhub_study::db::StudyDb;
use dhub_study::distributed::{profile_from_value, profile_json};
use dhub_study::pipeline::run_study_store_obs;
use dhub_synth::{generate_hub, SyntheticHub};
use dhub_tar::{EntryView, EntryViewKind, TarView};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// `study.residual_ratio` above this draws a warning: the layer table no
/// longer explains the total.
const RESIDUAL_WARN: f64 = 0.15;
/// Fewest rounds a traced pass reports medians over.
const MIN_ROUNDS: usize = 3;
/// Pulls per round of the serve trace (fixed, so the mirror's counts
/// repeat exactly for a given seed).
const SERVE_PULLS: usize = 1500;

const MIB: f64 = (1u64 << 20) as f64;

/// Per-round readings of every metric; the report is their medians.
#[derive(Default)]
struct Rounds {
    values: BTreeMap<&'static str, Vec<f64>>,
    /// The leaf stages of the layer table, in the order a round lists them.
    stages: Vec<(&'static str, Vec<f64>)>,
    rounds: usize,
}

impl Rounds {
    fn push(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| stats::median(v))
    }

    fn push_stages(&mut self, stages: &[(&'static str, f64)]) {
        if self.stages.is_empty() {
            self.stages = stages.iter().map(|(n, _)| (*n, Vec::new())).collect();
        }
        for ((_, v), (_, ms)) in self.stages.iter_mut().zip(stages) {
            v.push(*ms);
        }
    }

    /// Prints the layer table: each stage's median time and its share of
    /// the single-threaded total, with what the stages leave unexplained.
    fn print_shares(&self, workload: &str) {
        let total = self.get("study.total_1t_ms");
        println!("{workload} layer table (share of study.total_1t_ms = {total:.3} ms)");
        let mut explained = 0.0;
        let row = |name: &str, ms: f64| {
            println!(
                "{workload}   {name:<32} {ms:>10.3} ms {:>6.1} %",
                ms / total.max(1e-9) * 100.0
            );
        };
        for (name, v) in &self.stages {
            let ms = stats::median(v);
            explained += ms;
            row(name, ms);
        }
        row("(residual: assembly, scheduling)", total - explained);
    }

    /// Whether a count read the same in every round.
    fn steady(&self, name: &str) -> bool {
        self.values
            .get(name)
            .is_none_or(|v| v.windows(2).all(|w| w[0] == w[1]))
    }

    fn go_on(&self, ctx: &Ctx, started: Instant) -> bool {
        if ctx.quick {
            return self.rounds < 1;
        }
        let elapsed = started.elapsed().as_secs_f64();
        (elapsed < ctx.seconds || self.rounds < MIN_ROUNDS)
            && elapsed < ctx.seconds * crate::OVERRUN_FACTOR
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn rate_mib_per_s(bytes: f64, ms: f64) -> f64 {
    if ms > 0.0 {
        bytes / MIB / (ms / 1e3)
    } else {
        0.0
    }
}

/// Builds the per-layer result: every catalogue metric, 0 where the
/// workload does not exercise the layer.
fn finish(
    workload: &'static str,
    ctx: &Ctx,
    calib: &Calib,
    acc: &Rounds,
    tr: &Tracer,
    ops: (u64, u64),
    counts: &[&'static str],
) -> RunResult {
    let mut r = RunResult::new(workload, ctx, calib);
    r.traced = true;
    for def in &crate::PER_LAYER {
        let v = match def.name {
            "host.calib_ratio" => calib.ratio(),
            "trace.rounds" => acc.rounds as f64,
            "ops_failed_ratio" => ops.1 as f64 / ops.0.max(1) as f64,
            name => acc.get(name),
        };
        r.metric(def.name, v);
    }
    let unsteady: Vec<&str> = counts.iter().copied().filter(|c| !acc.steady(c)).collect();
    if !unsteady.is_empty() {
        eprintln!("error: counts changed between rounds: {unsteady:?}");
    }
    r.attempted = ops.0;
    r.failed = ops.1;
    r.correct = ops.1 == 0 && unsteady.is_empty();
    r.spans = Some(tr.to_json());
    r.note("spans", &tr.len().to_string());
    r
}

// ---------------------------------------------------------------- study

/// What one staged pass over the downloaded layers measured.
#[derive(Default)]
struct Staged {
    inflated_bytes: u64,
    bytes_hashed: u64,
    entries: u64,
    files: u64,
    errors: u64,
    objects_put: u64,
}

struct StudyRound<'a> {
    kind: StudyKind,
    hub: &'a SyntheticHub,
    ctx: &'a Ctx,
    policy: RetryPolicy,
}

/// Replays one layer blob through every stage that touches its bytes.
#[allow(clippy::too_many_arguments)]
fn replay_layer(
    tr: &mut Tracer,
    digest: Digest,
    blob: &[u8],
    scratch: &mut Scratch,
    buf: &mut Vec<u8>,
    mem: &DedupStore,
    durable: Option<(&PersistentDedupStore, &BlobStore, &Publisher, &Path)>,
    seen: &mut FxHashSet<Digest>,
    st: &mut Staged,
) -> Result<(), String> {
    let layer = tr.begin("layer");

    // The enclosing call, then its parts replayed standalone over the
    // same bytes.
    let analyze = tr.begin("analyzer.analyze");
    let profile = analyze_layer_scratch(digest, blob, scratch);
    tr.end(analyze);
    if profile.is_err() {
        st.errors += 1;
        tr.end(layer);
        return Ok(());
    }

    let s = tr.begin_under("compress.gunzip", analyze);
    gzip_decompress_into(blob, buf).map_err(|e| format!("gunzip: {e}"))?;
    tr.end(s);
    st.inflated_bytes += buf.len() as u64;

    let s = tr.begin_under("tar.walk", analyze);
    let views: Vec<EntryView<'_>> = TarView::new(buf)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("tar walk: {e}"))?;
    tr.end(s);
    st.entries += views.len() as u64;

    let files: Vec<(&EntryView<'_>, &[u8])> = views
        .iter()
        .filter_map(|v| match v.kind {
            EntryViewKind::File(data) => Some((v, data)),
            _ => None,
        })
        .collect();
    st.files += files.len() as u64;

    let s = tr.begin_under("digest.sha256", analyze);
    let digests: Vec<Digest> = files.iter().map(|(_, data)| Digest::of(data)).collect();
    tr.end(s);
    st.bytes_hashed += files.iter().map(|(_, d)| d.len() as u64).sum::<u64>();

    let s = tr.begin_under("magic.classify", analyze);
    for (v, data) in &files {
        black_box(dhub_magic::classify(v.path.trim_end_matches('/'), data));
    }
    tr.end(s);

    let fused = tr.begin("dedupstore.fused");
    let r = analyze_and_ingest(mem, digest, blob, scratch);
    tr.end(fused);
    r.map_err(|e| format!("fused analyze: {e}"))?
        .1
        .map_err(|e| format!("ingest: {e}"))?;

    if let Some((store, side_objects, side_publisher, side_dir)) = durable {
        let d = tr.begin("dedupstore.durable_fused");
        let r = analyze_and_ingest_persistent(store, digest, blob, scratch);
        tr.end(d);
        r.map_err(|e| format!("durable analyze: {e}"))?
            .1
            .map_err(|e| format!("durable ingest: {e}"))?;

        // What the durable commit adds over the in-memory one, replayed
        // against a side directory on the same filesystem.
        let new_objects: Vec<(Digest, &[u8])> = digests
            .iter()
            .zip(&files)
            .filter(|(dg, _)| seen.insert(**dg))
            .map(|(dg, (_, data))| (*dg, *data))
            .collect();
        st.objects_put += new_objects.len() as u64;
        let s = tr.begin_under("persist.put_batch", d);
        side_objects
            .put_batch(&new_objects)
            .map_err(|e| format!("put_batch: {e}"))?;
        tr.end(s);

        let recipe = store
            .mem()
            .recipe(&digest)
            .ok_or("ingested layer has no recipe")?;
        // The envelope serialises the recipe, re-parses its own text to
        // embed it, and serialises the whole.
        let s = tr.begin_under("dedupstore.recipe_json", d);
        let text = recipe.to_json();
        let parsed = dhub_json::parse(&text).map_err(|e| format!("recipe json: {e}"))?;
        let envelope = black_box(parsed.to_string());
        tr.end(s);

        let path = side_dir.join(format!("{}.json", hex_of(&digest)));
        let s = tr.begin_under("persist.publish", d);
        side_publisher
            .publish(&path, envelope.as_bytes())
            .map_err(|e| format!("publish: {e}"))?;
        tr.end(s);
    }
    tr.end(layer);
    Ok(())
}

/// The queue's own per-job costs, replayed against a fresh queue with the
/// real run's job specs and result payloads. Returns the milliseconds of
/// seed + claim + commit, and of the result profiles' JSON round trip.
fn queue_micro(
    tr: &mut Tracer,
    acc: &mut Rounds,
    run_dir: &Path,
    side: &Path,
) -> Result<(f64, f64), String> {
    let err = |e: dhub_queue::QueueError| format!("queue micro: {e}");
    let done = DurableQueue::open(run_dir.join("queue"), Publisher::new()).map_err(err)?;
    let jobs = done.load().map_err(err)?;
    let payloads: Vec<String> = jobs
        .iter()
        .map(|(spec, _)| done.result(&spec.id).map(|p| p.unwrap_or_default()))
        .collect::<Result<_, _>>()
        .map_err(err)?;
    let n = jobs.len().max(1) as f64;
    let q = DurableQueue::open(side, Publisher::new()).map_err(err)?;

    // An image job expands into its layers in one seed call; eight is
    // the median image's layer count.
    let s = tr.begin("queue.seed");
    for chunk in jobs.chunks(8) {
        let specs: Vec<_> = chunk.iter().map(|(spec, _)| spec.clone()).collect();
        q.seed(&specs).map_err(err)?;
    }
    tr.end(s);
    let seed_ms = tr.dur_ms(s);
    let s = tr.begin("queue.claim");
    for (spec, _) in &jobs {
        q.claim(&spec.id, false).map_err(err)?;
    }
    tr.end(s);
    let claim_ms = tr.dur_ms(s);
    let s = tr.begin("queue.commit");
    for ((spec, _), payload) in jobs.iter().zip(&payloads) {
        q.commit(&spec.id, payload).map_err(err)?;
    }
    tr.end(s);
    let commit_ms = tr.dur_ms(s);

    let s = tr.begin("queue.lease_cycle");
    let mut leases = LeaseManager::new(LeaseConfig::default());
    for (spec, _) in &jobs {
        leases.insert(&spec.id);
    }
    while let Some((id, _)) = leases.claim(0) {
        leases.complete(&id);
    }
    tr.end(s);
    let lease_ms = tr.dur_ms(s);

    // A layer job's result carries its profile as JSON: built and
    // serialised by the worker, decoded again by the assembler (which
    // reads the worker's own value, so the parse stays outside the span).
    let values: Vec<dhub_json::Json> = payloads
        .iter()
        .filter_map(|p| dhub_json::parse(p).ok())
        .collect();
    let s = tr.begin("queue.result_json");
    for profile in values.iter().filter_map(|v| v.get("profile")) {
        let decoded = profile_from_value(profile).ok_or("result profile does not decode")?;
        black_box(profile_json(&decoded).to_string());
    }
    tr.end(s);
    let result_json_ms = tr.dur_ms(s);

    acc.push("queue.result_json_ms", result_json_ms);
    acc.push("queue.seed_us_per_job", seed_ms * 1e3 / n);
    acc.push("queue.claim_us_per_job", claim_ms * 1e3 / n);
    acc.push("queue.commit_us_per_job", commit_ms * 1e3 / n);
    acc.push("queue.lease_cycle_ns", lease_ms * 1e6 / n);
    Ok((seed_ms + claim_ms + commit_ms, result_json_ms))
}

impl StudyRound<'_> {
    /// The workload's whole write side through its public entry point,
    /// as one opaque call at `threads` threads.
    fn opaque(
        &self,
        tr: &mut Tracer,
        name: &'static str,
        threads: usize,
    ) -> Result<(SpanId, study::StudyOut), String> {
        let (hub, policy, ctx) = (self.hub, &self.policy, self.ctx);
        let dir = ctx.scratch.fresh(name);
        let s = tr.begin(name);
        let out = match self.kind {
            StudyKind::MemBytes => {
                let obs = MetricsRegistry::new();
                let store = DedupStore::with_metrics(&obs);
                let data = run_study_store_obs(hub, threads, policy, &store, &obs);
                study::StudyOut {
                    stats: store.stats(),
                    data,
                    obs,
                }
            }
            StudyKind::DurableFiles => study::durable_write(hub, &dir, threads, policy)?,
            StudyKind::QueuedFiles => study::queued_write(hub, &dir, threads, policy, ctx.seed)?,
        };
        tr.end(s);
        Ok((s, out))
    }

    fn run(&self, tr: &mut Tracer, acc: &mut Rounds) -> Result<(u64, u64), String> {
        let (hub, policy, ctx) = (self.hub, &self.policy, self.ctx);
        let durable = self.kind != StudyKind::MemBytes;
        let from = tr.len();
        let round = tr.begin("round");
        let obs = MetricsRegistry::new();

        // --- crawler
        let officials: Vec<RepoName> = hub
            .registry
            .repo_names()
            .into_iter()
            .filter(|r| r.is_official())
            .collect();
        let crawl_span = tr.begin("crawler.crawl");
        let crawl = crawl_obs(&hub.search, &officials, None, policy, &obs);
        tr.end(crawl_span);
        let mut parse_us = Vec::new();
        for page in 0..crawl.report.pages_fetched {
            let html = hub.search.search("/", page).html;
            let s = tr.begin_under("crawler.page_parse", crawl_span);
            black_box(parse_results_page(&html).map_err(|e| format!("page {page}: {e}"))?);
            tr.end(s);
            parse_us.push(tr.dur_ms(s) * 1e3);
        }
        acc.push("crawler.crawl_ms", tr.dur_ms(crawl_span));
        acc.push("crawler.page_parse_us", stats::median(&parse_us));
        acc.push("crawler.pages", crawl.report.pages_fetched as f64);
        acc.push("crawler.repos", crawl.report.distinct_repos as f64);

        // --- downloader
        let s = tr.begin("downloader.download");
        let dl = download_all_obs(
            &hub.registry,
            &crawl.repos,
            1,
            &NetworkModel::wan(),
            policy,
            &obs,
        );
        tr.end(s);
        let download_ms = tr.dur_ms(s);
        acc.push("downloader.download_ms", download_ms);
        acc.push(
            "downloader.manifests",
            (dl.report.images_downloaded + dl.report.failures()) as f64,
        );
        acc.push("downloader.blobs", dl.report.unique_layers as f64);
        acc.push("downloader.bytes", dl.report.bytes_fetched as f64);
        acc.push(
            "downloader.layer_fetches_skipped",
            dl.report.layer_fetches_skipped as f64,
        );
        acc.push("downloader.retries", dl.report.retries as f64);

        // --- every layer, stage by stage
        let staged_dir = ctx.scratch.fresh("staged");
        let side_dir = ctx.scratch.fresh("side");
        let side_publisher = Publisher::new();
        let mem = DedupStore::new();
        let mut pstore = None;
        let mut side_objects = None;
        if durable {
            std::fs::create_dir_all(side_dir.join("layers"))
                .map_err(|e| format!("side dir: {e}"))?;
            pstore = Some(
                PersistentDedupStore::open(&staged_dir, Publisher::new())
                    .map_err(|e| format!("open staged store: {e}"))?,
            );
            side_objects = Some(
                BlobStore::open(side_dir.join("objects"), side_publisher.clone())
                    .map_err(|e| format!("open side objects: {e}"))?,
            );
        }
        let side_layers = side_dir.join("layers");
        let (mut scratch, mut buf) = (Scratch::new(), Vec::new());
        let (mut seen, mut st) = (FxHashSet::default(), Staged::default());
        let stage = tr.begin("analyze_stage");
        for (digest, blob) in &dl.layers {
            let durable_parts = match (&pstore, &side_objects) {
                (Some(p), Some(o)) => Some((p, o, &side_publisher, side_layers.as_path())),
                _ => None,
            };
            replay_layer(
                tr,
                *digest,
                blob,
                &mut scratch,
                &mut buf,
                &mem,
                durable_parts,
                &mut seen,
                &mut st,
            )?;
        }
        tr.end(stage);

        let total = |tr: &Tracer, name: &str| tr.totals_ms(name, from);
        let gunzip_ms = total(tr, "compress.gunzip").0;
        let sha_ms = total(tr, "digest.sha256").0;
        let walk_ms = total(tr, "tar.walk").0;
        let classify_ms = total(tr, "magic.classify").0;
        let (analyze_ms, analyze_self_ms) = total(tr, "analyzer.analyze");
        let fused_ms = total(tr, "dedupstore.fused").0;
        let ingest_self_ms = (fused_ms - analyze_ms).max(0.0);
        acc.push("compress.gunzip_ms", gunzip_ms);
        acc.push(
            "compress.gunzip_mib_per_s",
            rate_mib_per_s(st.inflated_bytes as f64, gunzip_ms),
        );
        acc.push("compress.inflated_bytes", st.inflated_bytes as f64);
        acc.push("digest.sha256_ms", sha_ms);
        acc.push(
            "digest.sha256_mib_per_s",
            rate_mib_per_s(st.bytes_hashed as f64, sha_ms),
        );
        acc.push("digest.bytes_hashed", st.bytes_hashed as f64);
        acc.push("tar.walk_ms", walk_ms);
        acc.push("tar.entries", st.entries as f64);
        acc.push("magic.classify_ms", classify_ms);
        acc.push("magic.files", st.files as f64);
        acc.push("analyzer.analyze_ms", analyze_ms);
        acc.push("analyzer.self_ms", analyze_self_ms);
        acc.push("analyzer.layers", dl.layers.len() as f64);
        acc.push("analyzer.files", st.files as f64);
        acc.push("analyzer.errors", st.errors as f64);
        acc.push("dedupstore.fused_ms", fused_ms);
        acc.push("dedupstore.ingest_self_ms", ingest_self_ms);
        let ms_stats = mem.stats();
        acc.push("dedupstore.unique_objects", ms_stats.unique_objects as f64);
        acc.push("dedupstore.logical_bytes", ms_stats.logical_bytes as f64);
        acc.push("dedupstore.physical_bytes", ms_stats.physical_bytes as f64);
        acc.push("dedupstore.dedup_factor", ms_stats.dedup_factor());

        // Tracing overhead at the finest grain used above: one span per
        // layer around the fused call, against the same loop with none.
        let probe = |tr: Option<&mut Tracer>, scratch: &mut Scratch| -> f64 {
            let store = DedupStore::new();
            let t = Instant::now();
            let mut tr = tr;
            for (digest, blob) in &dl.layers {
                let span = tr.as_deref_mut().map(|t| t.begin("trace.probe"));
                black_box(analyze_and_ingest(&store, *digest, blob, scratch).is_ok());
                if let (Some(t), Some(s)) = (tr.as_deref_mut(), span) {
                    t.end(s);
                }
            }
            ms(t)
        };
        let untraced_ms = probe(None, &mut scratch);
        let traced_ms = probe(Some(&mut *tr), &mut scratch);
        acc.push("trace.overhead_ratio", traced_ms / untraced_ms.max(1e-9));

        // --- the whole write side, opaque, at one thread and at T
        let (total_span, out) = self.opaque(tr, "study.total_1t", 1)?;
        let total_1t_ms = tr.dur_ms(total_span);
        let (t_span, _) = self.opaque(tr, "study.total_T", ctx.threads)?;
        let total_t_ms = tr.dur_ms(t_span);
        acc.push("study.total_1t_ms", total_1t_ms);
        acc.push("study.scaling_T", total_1t_ms / total_t_ms.max(1e-9));
        if stats_differ(&out.stats, &ms_stats) {
            return Err("staged replay and the public entry point disagree on store stats".into());
        }

        let mut stages: Vec<(&'static str, f64)> = vec![
            ("crawler.crawl", tr.dur_ms(crawl_span)),
            ("downloader.download", download_ms),
            ("compress.gunzip", gunzip_ms),
            ("tar.walk", walk_ms),
            ("digest.sha256", sha_ms),
            ("magic.classify", classify_ms),
            ("analyzer.self", analyze_self_ms),
        ];

        if let Some(store) = pstore {
            // --- durable ingest, explained
            let (durable_ms, durable_own_ms) = total(tr, "dedupstore.durable_fused");
            let put_ms = total(tr, "persist.put_batch").0;
            let recipe_ms = total(tr, "dedupstore.recipe_json").0;
            let publish_ms = total(tr, "persist.publish").0;
            let durable_self_ms = (durable_own_ms - analyze_ms).max(0.0);
            acc.push("dedupstore.durable_fused_ms", durable_ms);
            acc.push("dedupstore.durable_self_ms", durable_self_ms);
            acc.push("dedupstore.recipe_json_ms", recipe_ms);
            acc.push(
                "persist.put_batch_us_per_object",
                put_ms * 1e3 / st.objects_put.max(1) as f64,
            );
            acc.push(
                "persist.publish_us",
                publish_ms * 1e3 / dl.layers.len().max(1) as f64,
            );

            // --- study tables, checkpoint, sweep
            let s = tr.begin("study.db_build");
            let db = StudyDb::build(&out.data, &out.stats);
            tr.end(s);
            let db_build_ms = tr.dur_ms(s);
            let db_dir = side_dir.join("db");
            let s = tr.begin("study.db_save");
            db.save(&db_dir, &side_publisher)
                .map_err(|e| format!("db save: {e}"))?;
            tr.end(s);
            let db_save_ms = tr.dur_ms(s);
            let s = tr.begin("dedupstore.checkpoint");
            store.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
            tr.end(s);
            let checkpoint_ms = tr.dur_ms(s);
            let s = tr.begin("dedupstore.gc");
            store.gc().map_err(|e| format!("gc: {e}"))?;
            tr.end(s);
            let gc_ms = tr.dur_ms(s);
            drop(store);
            acc.push("study.db_build_ms", db_build_ms);
            acc.push("study.db_save_ms", db_save_ms);
            acc.push("dedupstore.checkpoint_ms", checkpoint_ms);
            acc.push("dedupstore.gc_ms", gc_ms);

            // --- the read side: cold reopen, then its parts standalone
            let reopen_span = tr.begin("dedupstore.reopen");
            let reopened = PersistentDedupStore::open(&staged_dir, Publisher::new())
                .map_err(|e| format!("reopen: {e}"))?;
            tr.end(reopen_span);
            acc.push("dedupstore.reopen_ms", tr.dur_ms(reopen_span));
            if stats_differ(&reopened.mem().stats(), &ms_stats) {
                return Err("reopened store stats differ from the in-memory store's".into());
            }
            let envelopes = read_recipe_envelopes(&staged_dir.join("layers"))?;
            let s = tr.begin_under("json.recipe_parse", reopen_span);
            for text in &envelopes {
                black_box(dhub_json::parse(text).map_err(|e| format!("envelope: {e}"))?);
            }
            tr.end(s);
            let envelope_bytes: usize = envelopes.iter().map(String::len).sum();
            acc.push("json.recipe_parse_ms", tr.dur_ms(s));
            acc.push(
                "json.parse_mib_per_s",
                rate_mib_per_s(envelope_bytes as f64, tr.dur_ms(s)),
            );
            let objects = reopened
                .objects()
                .list()
                .map_err(|e| format!("list objects: {e}"))?;
            let s = tr.begin_under("persist.get_verified", reopen_span);
            for d in &objects {
                black_box(
                    reopened
                        .objects()
                        .get(d)
                        .map_err(|e| format!("get object: {e}"))?,
                );
            }
            tr.end(s);
            acc.push(
                "persist.get_verified_us_per_object",
                tr.dur_ms(s) * 1e3 / objects.len().max(1) as f64,
            );

            // --- `dhub query`: load, then the four questions
            let q = tr.begin("study.query");
            let s = tr.begin("study.db_load");
            let loaded = StudyDb::load(&db_dir).map_err(|e| format!("db load: {e}"))?;
            tr.end(s);
            acc.push("study.db_load_ms", tr.dur_ms(s));
            let mut ask = |name: &'static str, metric: &'static str, f: &dyn Fn(&StudyDb)| {
                let s = tr.begin(name);
                f(&loaded);
                tr.end(s);
                acc.push(metric, tr.dur_ms(s) * 1e3);
            };
            ask("study.query_summary", "study.query_summary_us", &|db| {
                black_box(db.summary());
            });
            ask("study.query_dedup", "study.query_dedup_us", &|db| {
                black_box(db.dedup_summary());
            });
            ask("study.query_top_types", "study.query_top_types_us", &|db| {
                black_box(db.top_file_types(10));
            });
            ask(
                "study.query_percentiles",
                "study.query_percentiles_us",
                &|db| {
                    black_box(db.layer_size_percentiles());
                },
            );
            tr.end(q);
            acc.push("study.query_ms", tr.dur_ms(q));

            // --- the table format on its own: the files table
            let tbl = side_dir.join("files-alone.tbl");
            let s = tr.begin("persist.table_save");
            db.files
                .save(&tbl, &side_publisher)
                .map_err(|e| format!("table save: {e}"))?;
            tr.end(s);
            acc.push("persist.table_save_ms", tr.dur_ms(s));
            let s = tr.begin("persist.table_load");
            let files_table = Table::load(&tbl).map_err(|e| format!("table load: {e}"))?;
            tr.end(s);
            acc.push("persist.table_load_ms", tr.dur_ms(s));
            let s = tr.begin("persist.scan");
            let hits = files_table
                .scan(&[Predicate::StrEq("group".into(), "EOL".into())])
                .map_err(|e| format!("scan: {e}"))?;
            tr.end(s);
            black_box(hits);
            acc.push("persist.scan_us", tr.dur_ms(s) * 1e3);

            // --- exact counts, from the single-threaded opaque run
            let run_dir = ctx.scratch.path().join("study.total_1t");
            let (files, bytes) = host::dir_usage(&run_dir);
            let c = |n: &str| out.obs.counter_value(n) as f64;
            acc.push("persist.publishes", c("dhub_persist_publishes_total"));
            acc.push(
                "persist.objects_written",
                c("dhub_persist_objects_written_total"),
            );
            acc.push("persist.object_bytes", c("dhub_persist_object_bytes_total"));
            acc.push("persist.files_on_disk", files as f64);
            acc.push("persist.disk_bytes", bytes as f64);
            acc.push(
                "persist.disk_bytes_per_logical_byte",
                bytes as f64 / (out.stats.logical_bytes.max(1)) as f64,
            );

            stages.extend([
                ("persist.put_batch", put_ms),
                ("dedupstore.recipe_json", recipe_ms),
                ("persist.publish", publish_ms),
                ("dedupstore.durable_self", durable_self_ms),
                ("study.db_build", db_build_ms),
                ("study.db_save", db_save_ms),
                ("dedupstore.checkpoint", checkpoint_ms),
                ("dedupstore.gc", gc_ms),
            ]);

            if self.kind == StudyKind::QueuedFiles {
                let (micro_ms, result_json_ms) =
                    queue_micro(tr, acc, &run_dir, &side_dir.join("queue"))?;
                stages.push(("queue.seed+claim+commit", micro_ms));
                stages.push(("queue.result_json", result_json_ms));
                // Queue envelope cost by difference, both at T.
                let direct_dir = ctx.scratch.fresh("direct_T");
                let s = tr.begin("study.direct_T");
                study::durable_write(hub, &direct_dir, ctx.threads, policy)?;
                tr.end(s);
                acc.push("queue.overhead_ms", total_t_ms - tr.dur_ms(s));
                acc.push("queue.jobs", c("dhub_queue_jobs_seeded_total"));
                acc.push("queue.leases_granted", c("dhub_queue_leases_granted_total"));
                acc.push("queue.lease_expiries", c("dhub_queue_lease_expiries_total"));
                acc.push("queue.double_commits", c("dhub_queue_double_commits_total"));
            }
        } else {
            stages.push(("dedupstore.ingest_self", ingest_self_ms));
            // `dhub report` renders every figure from the study's data.
            let s = tr.begin("study.figures");
            black_box(study::render_figures(&out.data));
            tr.end(s);
            acc.push("study.figures_ms", tr.dur_ms(s));
        }

        let stage_ms: Vec<f64> = stages.iter().map(|(_, v)| *v).collect();
        let residual = residual_ratio(total_1t_ms, &stage_ms);
        acc.push("study.assemble_residual_ms", total_1t_ms * residual);
        acc.push("study.residual_ratio", residual);
        acc.push_stages(&stages);
        tr.end(round);
        Ok(study::study_ops(hub, &out.data))
    }
}

fn stats_differ(a: &dhub_dedupstore::StoreStats, b: &dhub_dedupstore::StoreStats) -> bool {
    study::stats_text(a) != study::stats_text(b)
}

/// Every recipe envelope under `layers/`, read outside any span.
fn read_recipe_envelopes(layers_dir: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let io = |e: std::io::Error| format!("read recipes: {e}");
    for shard in std::fs::read_dir(layers_dir).map_err(io)? {
        let shard = shard.map_err(io)?.path();
        if !shard.is_dir() {
            continue;
        }
        for f in std::fs::read_dir(&shard).map_err(io)? {
            let path = f.map_err(io)?.path();
            if path.extension().is_some_and(|e| e == "json") {
                out.push(std::fs::read_to_string(&path).map_err(io)?);
            }
        }
    }
    Ok(out)
}

const STUDY_COUNTS: [&str; 19] = [
    "crawler.pages",
    "crawler.repos",
    "downloader.manifests",
    "downloader.blobs",
    "downloader.bytes",
    "downloader.layer_fetches_skipped",
    "compress.inflated_bytes",
    "digest.bytes_hashed",
    "tar.entries",
    "magic.files",
    "analyzer.layers",
    "dedupstore.unique_objects",
    "dedupstore.logical_bytes",
    "persist.publishes",
    "persist.objects_written",
    "persist.object_bytes",
    "persist.files_on_disk",
    "persist.disk_bytes",
    "queue.jobs",
];

/// The traced pass of one `study_*` workload.
pub fn trace_study(
    kind: StudyKind,
    workload: &'static str,
    ctx: &Ctx,
) -> Result<RunResult, String> {
    let mut calib = Calib::default();
    let mut tr = Tracer::new();
    let mut acc = Rounds::default();

    calib.tick();
    let s = tr.begin("synth.generate");
    let hub = generate_hub(&kind.corpus().config(ctx.quick));
    tr.end(s);
    acc.push("synth.generate_s", tr.dur_ms(s) / 1e3);

    let round = StudyRound {
        kind,
        hub: &hub,
        ctx,
        policy: study::retry_policy(ctx.seed),
    };
    let started = Instant::now();
    let mut ops = (0u64, 0u64);
    while acc.go_on(ctx, started) {
        calib.tick();
        let (attempted, failed) = round.run(&mut tr, &mut acc)?;
        ops = (ops.0 + attempted, ops.1 + failed);
        acc.rounds += 1;
    }
    calib.tick();

    acc.print_shares(workload);
    let residual = acc.get("study.residual_ratio");
    if residual > RESIDUAL_WARN {
        println!("{workload} WARNING study.residual_ratio {residual:.3} > {RESIDUAL_WARN}");
    }
    // The roadmap's suspects, as ratios with their bases.
    let (fused, durable) = (
        acc.get("dedupstore.fused_ms"),
        acc.get("dedupstore.durable_fused_ms"),
    );
    if durable > 0.0 {
        println!(
            "{workload} suspect durable/in-memory fused = {:.2} ({durable:.3} ms / {fused:.3} ms, files corpus)",
            durable / fused.max(1e-9)
        );
    }
    println!(
        "{workload} suspect study.scaling_T = {:.3} (1 thread {:.3} ms / T={} threads)",
        acc.get("study.scaling_T"),
        acc.get("study.total_1t_ms"),
        ctx.threads
    );
    Ok(finish(workload, ctx, &calib, &acc, &tr, ops, &STUDY_COUNTS))
}

// ---------------------------------------------------------------- serve

const SERVE_COUNTS: [&str; 5] = [
    "mirror.hits",
    "mirror.misses",
    "mirror.origin_fetches",
    "mirror.coalesced",
    "mirror.evictions",
];

/// One round of the serve trace: a cold mirror, a fixed pull trace
/// through it from one client, then each layer under it on its own.
fn serve_round(
    rig: &Rig,
    ctx: &Ctx,
    tr: &mut Tracer,
    acc: &mut Rounds,
) -> Result<(u64, u64), String> {
    let pulls = if ctx.quick { 150 } else { SERVE_PULLS };
    let round = tr.begin("round");
    let front = rig.front()?;
    let warm = serve::zipf_trace(&rig.targets, ctx.seed ^ serve::WARM_SEED, pulls / 3);
    serve::replay(front.srv.addr(), &rig.targets, &warm)?;
    let before = front.mirror.report();

    // --- mirror: every pull a span
    let trace = serve::zipf_trace(&rig.targets, ctx.seed.wrapping_add(1), pulls);
    let client = RemoteRegistry::connect_anonymous(front.srv.addr());
    let mut latencies = Vec::with_capacity(pulls);
    let mut failed = 0u64;
    let replay = tr.begin("mirror.replay");
    for &i in &trace {
        let t = &rig.targets[i];
        let s = tr.begin("mirror.pull");
        let body = client.get_blob(&t.repo, &t.digest);
        tr.end(s);
        latencies.push(tr.dur_ms(s));
        failed += u64::from(!body.is_ok_and(|b| Digest::of(&b) == t.digest));
    }
    tr.end(replay);
    let report = front.mirror.report();
    let (hits, misses) = (report.hits - before.hits, report.misses - before.misses);
    acc.push("mirror.pull_p50_ms", stats::median(&latencies));
    acc.push(
        "mirror.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    acc.push("mirror.hits", hits as f64);
    acc.push("mirror.misses", misses as f64);
    acc.push(
        "mirror.origin_fetches",
        (report.origin_fetches - before.origin_fetches) as f64,
    );
    acc.push(
        "mirror.coalesced",
        (report.coalesced - before.coalesced) as f64,
    );
    acc.push(
        "mirror.evictions",
        (report.evictions - before.evictions) as f64,
    );

    // Tracing overhead: the hottest blob (a cache hit every time), in
    // alternating blocks with and without a span per pull.
    let hot = &rig.targets[trace[0]];
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for block in 0..4 {
        let t = Instant::now();
        for _ in 0..25 {
            let s = (block % 2 == 0).then(|| tr.begin("trace.probe"));
            black_box(client.get_blob(&hot.repo, &hot.digest).is_ok());
            if let Some(s) = s {
                tr.end(s);
            }
        }
        if block % 2 == 0 {
            &mut with
        } else {
            &mut without
        }
        .push(ms(t));
    }
    acc.push(
        "trace.overhead_ratio",
        stats::median(&with) / stats::median(&without).max(1e-9),
    );

    // --- registry: straight to one origin, no mirror
    let origin = RemoteRegistry::connect_anonymous(rig.origins[0].addr());
    let timed =
        |tr: &mut Tracer, name: &'static str, n: usize, f: &mut dyn FnMut(usize) -> bool| {
            let mut v = Vec::with_capacity(n);
            let mut bad = 0u64;
            for i in 0..n {
                let s = tr.begin(name);
                let ok = f(i);
                tr.end(s);
                v.push(tr.dur_ms(s));
                bad += u64::from(!ok);
            }
            (stats::median(&v), bad)
        };
    let (ping_ms, bad) = timed(tr, "registry.http_ping", 40, &mut |_| origin.ping().is_ok());
    failed += bad;
    let (manifest_ms, bad) = timed(tr, "registry.http_manifest", 40, &mut |i| {
        let t = &rig.targets[trace[i % trace.len()]];
        origin.get_manifest(&t.repo, "latest").is_ok()
    });
    failed += bad;
    let (blob_ms, bad) = timed(tr, "registry.http_get_blob", 80, &mut |i| {
        let t = &rig.targets[trace[i % trace.len()]];
        origin.get_blob(&t.repo, &t.digest).is_ok()
    });
    failed += bad;
    let (inproc_ms, bad) = timed(
        tr,
        "registry.get_blob_inproc",
        rig.targets.len(),
        &mut |i| rig.hub.registry.get_blob(&rig.targets[i].digest).is_ok(),
    );
    failed += bad;
    acc.push("registry.http_ping_ms", ping_ms);
    acc.push("registry.http_manifest_ms", manifest_ms);
    acc.push("registry.http_get_blob_ms", blob_ms);
    acc.push("registry.get_blob_inproc_us", inproc_ms * 1e3);

    // --- the mirror's own data structures, no HTTP
    const N: u64 = 100_000;
    let cache = LiveCache::new(1 << 20, PolicyKind::Lru, 8);
    cache.admit(0xabcd_0000_0000_1234, Arc::new(vec![7u8; 4096]));
    let s = tr.begin("mirror.cache_lookup");
    for _ in 0..N {
        black_box(cache.lookup(black_box(0xabcd_0000_0000_1234)).is_some());
    }
    tr.end(s);
    acc.push("mirror.cache_lookup_ns", tr.dur_ms(s) * 1e6 / N as f64);
    let ring = HashRing::new(2, 32);
    let s = tr.begin("mirror.ring_route");
    for key in 0..N {
        black_box(ring.route(key.wrapping_mul(0x9e37_79b9_7f4a_7c15))[0]);
    }
    tr.end(s);
    acc.push("mirror.ring_route_ns", tr.dur_ms(s) * 1e6 / N as f64);

    tr.end(round);
    if acc.rounds == 0 {
        println!(
            "serve suspect registry.http_ping_ms / mirror.pull_p50_ms = {:.2} ({ping_ms:.3} ms / {:.3} ms)",
            ping_ms / stats::median(&latencies).max(1e-9),
            stats::median(&latencies)
        );
    }
    Ok((pulls as u64 + 160 + rig.targets.len() as u64, failed))
}

/// The traced pass of `serve_zipf_files`.
pub fn trace_serve(workload: &'static str, ctx: &Ctx) -> Result<RunResult, String> {
    let mut calib = Calib::default();
    let mut tr = Tracer::new();
    let mut acc = Rounds::default();

    calib.tick();
    let s = tr.begin("synth.generate");
    let hub = generate_hub(&crate::corpus::SERVE_FILES.config(ctx.quick));
    tr.end(s);
    acc.push("synth.generate_s", tr.dur_ms(s) / 1e3);
    let rig = Rig::start(hub)?;

    let started = Instant::now();
    let mut ops = (0u64, 0u64);
    while acc.go_on(ctx, started) {
        calib.tick();
        let (attempted, failed) = serve_round(&rig, ctx, &mut tr, &mut acc)?;
        ops = (ops.0 + attempted, ops.1 + failed);
        acc.rounds += 1;
    }
    calib.tick();
    Ok(finish(workload, ctx, &calib, &acc, &tr, ops, &SERVE_COUNTS))
}
