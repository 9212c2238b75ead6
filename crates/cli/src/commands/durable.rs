//! The crash-safe store: `store` (and `summary --store-dir`) ingest into
//! it, `work` fills it through the job queue, `query` answers from it.

use super::*;
use dhub_dedupstore::{DedupStore, PersistentDedupStore, RowKind, StoreStats};
use dhub_persist::{PersistError, Publisher, WriteFaults};
use dhub_study::db::{dedup_lines, size_percentiles, top_types, StudyDb};
use dhub_study::pipeline::{run_study_persist_obs, run_study_store_obs, StudyData};
use std::path::Path;

/// Opens (or resumes) the crash-safe store at `store_dir`. `--fault-rate`
/// also crashes its durable writes, retried under the same policy.
fn open_durable(
    env: &StudyEnv<'_>,
    store_dir: &str,
    out: &mut impl Write,
) -> Result<(PersistentDedupStore, Publisher), BoxError> {
    let write_faults =
        env.sibling_injector().map(|injector| WriteFaults { injector, policy: env.policy });
    let publisher = Publisher::new().with_metrics(env.obs).with_faults(write_faults);
    let store = PersistentDedupStore::open_obs(store_dir, publisher.clone(), Some(env.obs))?;
    let resumed = store.mem().stats().layers;
    if resumed > 0 {
        writeln!(out, "resuming store with {resumed} layers already ingested")?;
    }
    Ok((store, publisher))
}

/// Finishes a durable study: writes the queryable study tables under
/// `<store_dir>/db` and sweeps crash orphans.
fn finish_durable(
    data: &StudyData,
    store: &PersistentDedupStore,
    publisher: &Publisher,
    store_dir: &str,
    out: &mut impl Write,
) -> CmdResult {
    let db = StudyDb::build(data, &store.mem().stats());
    db.save(&Path::new(store_dir).join("db"), publisher)?;
    let swept = store.gc()?;
    if swept.objects + swept.tmp_files > 0 {
        writeln!(out, "gc: {} orphan objects, {} temp files swept", swept.objects, swept.tmp_files)?;
    }
    Ok(())
}

/// The five-line dedup stats block `store` and `work` end with.
fn print_store_stats(out: &mut impl Write, st: &StoreStats) -> std::io::Result<()> {
    writeln!(out, "layers          : {}", st.layers)?;
    writeln!(out, "unique objects  : {}", st.unique_objects)?;
    writeln!(out, "logical bytes   : {}", st.logical_bytes)?;
    writeln!(out, "physical bytes  : {}", st.physical_bytes)?;
    writeln!(out, "dedup factor    : {:.2}x", st.dedup_factor())
}

/// Runs the study pipeline through the **durable** store at `store_dir`
/// (`summary --store-dir`, `store --store-dir`): every layer is ingested
/// through `dhub-persist`'s faultable publish path, then the study tables
/// are written.
pub(super) fn persistent_study_for(
    args: &Parsed,
    out: &mut impl Write,
    store_dir: &str,
) -> Result<(StudyData, StoreStats, Arc<MetricsRegistry>), BoxError> {
    let (_hub, (data, store, publisher), obs) = with_study(args, out, |env, out| {
        let (store, publisher) = open_durable(env, store_dir, out)?;
        let data = run_study_persist_obs(env.hub, threads(args)?, &env.policy, &store, env.obs);
        Ok((data, store, publisher))
    })?;
    finish_durable(&data, &store, &publisher, store_dir, out)?;
    Ok((data, store.mem().stats(), obs))
}

pub(super) fn cmd_store(args: &Parsed, out: &mut impl Write) -> CmdResult {
    // The fused pipeline profiles and ingests each downloaded layer in a
    // single decompression/hash pass — the store fills during the study
    // instead of re-reading every blob afterwards. Downloaded blobs are
    // digest-verified, so fault injection never skews the dedup stats.
    let store_dir = args.str("store-dir", "");
    let (st, obs) = if store_dir.is_empty() {
        let (_hub, st, obs) = with_study(args, out, |env, _| {
            let store = DedupStore::with_metrics(env.obs);
            run_study_store_obs(env.hub, threads(args)?, &env.policy, &store, env.obs);
            Ok(store.stats())
        })?;
        (st, obs)
    } else {
        // Durable mode: same fused pipeline, but every object and layer
        // recipe survives the process in <store-dir>, with the queryable
        // study tables under <store-dir>/db (see `dhub query`).
        let (_data, stats, obs) = persistent_study_for(args, out, &store_dir)?;
        writeln!(out, "store dir       : {store_dir}")?;
        (stats, obs)
    };
    print_store_stats(out, &st)?;
    emit_metrics(args, &obs, out)
}

/// Runs the full study through the durable job queue at
/// `<store-dir>/queue` with `--workers` lease-holding workers, each
/// ingesting into the shared crash-safe store. The queue and the store
/// both resume: rerunning after a kill (or a quarantine) drains only the
/// jobs that never committed a result, and the finished study tables are
/// byte-identical to a single-worker (or plain `store --store-dir`) run.
pub(super) fn cmd_work(args: &Parsed, out: &mut impl Write) -> CmdResult {
    use dhub_queue::DurableQueue;
    use dhub_study::distributed::{run_study_queued_obs, QueuedStudyConfig};

    let store_dir = args.str("store-dir", "");
    if store_dir.is_empty() {
        return Err("usage: dhub work --store-dir DIR [--workers N]".into());
    }
    let workers = args.num("workers", dhub_par::default_threads())?;
    let (_hub, (data, store, publisher), obs) = with_study(args, out, |env, out| {
        let (store, publisher) = open_durable(env, &store_dir, out)?;
        let queue = DurableQueue::open(Path::new(&store_dir).join("queue"), publisher.clone())?
            .with_metrics(env.obs);
        writeln!(out, "worker fleet: {workers} worker(s) on {store_dir}/queue")?;

        let max_commits = args.num("max-commits", 0)?;
        let qcfg = QueuedStudyConfig {
            workers,
            policy: env.policy,
            lease_faults: env.sibling_injector(),
            max_commits: (max_commits > 0).then(|| max_commits as u64),
            ..QueuedStudyConfig::default()
        };
        let data = run_study_queued_obs(env.hub, &store, &queue, &qcfg, env.obs);
        Ok((data, store, publisher))
    })?;
    let committed = obs.counter_value("dhub_queue_jobs_completed_total");
    match data {
        // A deliberate --max-commits kill is the crash harness working as
        // intended, not a failure: report (metrics included — this is the
        // run an operator wants a snapshot of) and leave the durable state
        // for the resuming run.
        Err(dhub_queue::QueueError::Killed) => writeln!(
            out,
            "fleet killed after {committed} commits (rerun the same command to resume)"
        )?,
        other => {
            finish_durable(&other?, &store, &publisher, &store_dir, out)?;
            let expiries = obs.counter_value("dhub_queue_lease_expiries_total");
            writeln!(out, "jobs committed  : {committed}")?;
            writeln!(out, "lease expiries  : {expiries}")?;
            writeln!(out, "store dir       : {store_dir}")?;
            print_store_stats(out, &store.mem().stats())?;
        }
    }
    emit_metrics(args, &obs, out)
}

/// A `dhub query` question, parsed (and rejected) before anything is read.
enum Question {
    Summary,
    Dedup,
    TopTypes(usize),
    LayerPercentiles,
}

/// Answers Table-1-style questions from a persisted store's study
/// database — no hub generation, no re-analysis, just `<dir>/db` reads.
/// A store whose study tables are not written yet (a fleet still
/// mid-ingest, or killed before it finished) falls back to replaying
/// the durable layer recipes.
pub(super) fn cmd_query(args: &Parsed, out: &mut impl Write) -> CmdResult {
    let usage = "usage: dhub query <store-dir> [summary|dedup|top-types|layer-percentiles]";
    let dir = args.pos(0).ok_or(usage)?;
    let question = match args.pos(1).unwrap_or("summary") {
        "summary" => Question::Summary,
        "dedup" => Question::Dedup,
        "top-types" => Question::TopTypes(args.num("top", 10usize)?),
        "layer-percentiles" => Question::LayerPercentiles,
        other => {
            let hint = "try summary, dedup, top-types, layer-percentiles";
            return Err(format!("unknown question {other:?} ({hint})").into());
        }
    };
    let db_dir = Path::new(dir).join("db");
    let db = match StudyDb::load(&db_dir) {
        Ok(db) => db,
        // Mid-ingest store: a table is not written yet, but recipes are
        // durable. A table that exists and fails validation is an error.
        Err(PersistError::Io(e))
            if e.kind() == std::io::ErrorKind::NotFound && Path::new(dir).join("layers").is_dir() =>
        {
            return query_replayed(out, dir, question);
        }
        Err(e) => return Err(format!("cannot load study tables under {}: {e}", db_dir.display()).into()),
    };
    match question {
        Question::Summary => print_rows(out, &db.summary()),
        Question::Dedup => print_rows(out, &db.dedup_summary()),
        Question::TopTypes(n) => print_top_types(out, &db.top_file_types(n)),
        Question::LayerPercentiles => print_percentiles(out, &db.layer_size_percentiles()),
    }
}

/// `dhub query` over a store directory with no `db/` tables yet: replays
/// the published layer recipes into memory and answers from them, in the
/// same output format the tables would use. Crawl-derived Table-1
/// counters exist only in the finished tables, so `summary` degrades to
/// the dedup block.
fn query_replayed(out: &mut impl Write, dir: &str, question: Question) -> CmdResult {
    let store = PersistentDedupStore::open(dir, Publisher::new())?;
    let mem = store.mem();
    let st = mem.stats();
    writeln!(out, "no study tables under {dir}/db yet; replaying {} durable layer recipes", st.layers)?;
    match question {
        Question::Summary | Question::Dedup => print_rows(out, &dedup_lines(&st)),
        Question::TopTypes(n) => {
            // (class, size) per file row, as the analyzer recorded them in
            // the layer files.
            let mut files = Vec::new();
            for d in &mem.layer_digests() {
                let recipe = mem.recipe(d).expect("replayed layer has a recipe");
                for row in recipe.rows() {
                    if let RowKind::File(_, class) = row.kind {
                        files.push((class, row.size));
                    }
                }
            }
            print_top_types(out, &top_types(files, n))
        }
        Question::LayerPercentiles => {
            let mut cls: Vec<u64> = mem.layer_sizes().into_iter().map(|(_, c)| c).collect();
            cls.sort_unstable();
            print_percentiles(out, &size_percentiles(&cls))
        }
    }
}

fn print_rows(out: &mut impl Write, rows: &[String]) -> CmdResult {
    for row in rows {
        writeln!(out, "{row}")?;
    }
    Ok(())
}

fn print_top_types(out: &mut impl Write, rows: &[(String, u64, u64)]) -> CmdResult {
    writeln!(out, "{:<12} {:>10} {:>14}", "type", "files", "bytes")?;
    for (label, count, bytes) in rows {
        writeln!(out, "{label:<12} {count:>10} {bytes:>14}")?;
    }
    Ok(())
}

fn print_percentiles(out: &mut impl Write, rows: &[(&str, u64)]) -> CmdResult {
    writeln!(out, "{:<4} {:>14}", "pct", "layer bytes")?;
    for (p, v) in rows {
        writeln!(out, "{p:<4} {v:>14}")?;
    }
    Ok(())
}
