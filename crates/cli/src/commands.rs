//! `dhub` command implementations.
//!
//! Every command takes the parsed arguments and a writer (so tests can
//! capture output) and returns an exit code.

use crate::args::Parsed;
use dhub_faults::{FaultConfig, FaultInjector, RetryPolicy};
use dhub_model::RepoName;
use dhub_obs::{render_prometheus, MetricsRegistry, ProgressReporter};
use dhub_study::figures;
use dhub_dedupstore::{DedupStore, PersistentDedupStore, StoreStats};
use dhub_persist::{Publisher, WriteFaults};
use dhub_study::pipeline::{run_study_obs, run_study_persist_obs, run_study_store_obs, StudyData};
use dhub_synth::{generate_hub, SynthConfig, SyntheticHub};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// Usage text for `dhub help`.
pub const USAGE: &str = "\
dhub — synthetic Docker Hub studies (CLUSTER'19 reproduction)

USAGE:
  dhub <command> [options]

COMMANDS:
  help                      show this message
  generate                  build a hub and print its summary
  report                    run the pipeline and print all paper figures
  summary                   run the pipeline and print Table 1 + Table 2
  pull <repo> [tag]         pull one image over the Registry V2 HTTP API
  tags <repo>               list a repository's tags over HTTP
  serve                     start a registry HTTP server (runs until ^C)
  cache-sim                 replay a popularity trace against LRU/LFU/GDSF
  carve                     run perfect-layer carving over the hub
  store                     ingest the hub into the file-dedup store
  work                      run the study through the durable job queue
                            with a fleet of lease-holding workers
                            (requires --store-dir; resumes a killed run)
  query <dir> [question]    answer study questions from a persisted store
                            (questions: summary | dedup | top-types |
                            layer-percentiles); a mid-ingest store with
                            no study tables yet is answered from its
                            replayed layer recipes

OPTIONS (all commands):
  --repos N                 repositories to generate   [default 120]
  --seed N                  generator seed             [default 42]
  --scale N                 size divisor (1/N)         [default 128]
  --threads N               worker threads             [default: cores]

WORKER FLEET (work):
  --workers N               concurrent lease-holding workers [default: cores]
                            1 worker and N workers produce byte-identical
                            stores and query answers; a killed fleet is
                            resumed by rerunning the same command
  --max-commits N           kill the whole fleet after N commits (crash
                            harness; rerun the same command to resume)

FAULT INJECTION (report, summary, pull, tags, serve, cache-sim, carve, store,
work — `work` additionally injects lease-loss faults, i.e. workers dying
right after claiming a job):
  --fault-rate F            per-operation fault probability 0..1 [default 0]
  --fault-seed N            fault-plan seed (replayable)         [default 0]
  --max-retries N           retry budget per operation           [default 4]

MIRROR MODE (serve):
  --mirror-of A,B,...       serve as a pull-through mirror of the given
                            origin registries (comma-separated addresses)
                            instead of a local hub
  --cache-bytes N           mirror cache byte budget     [default 64 MiB]
  --cache-policy P          lru | lfu | gdsf             [default lru]

PERSISTENCE (summary, store, work):
  --store-dir DIR           open (or create) a crash-safe on-disk store at
                            DIR, ingest into it durably, and write the
                            queryable study tables under DIR/db. A partly
                            filled store is resumed, not re-ingested.
                            --fault-rate also injects crashes into these
                            durable writes (torn/bit-flipped temp files),
                            which are retried under --max-retries.

OBSERVABILITY (report, summary, pull, tags, cache-sim, carve, store, work):
  --metrics                 print Prometheus-style exposition when done,
                            and a periodic progress line on stderr
  --metrics-snapshot PATH   write the final metrics snapshot as JSON
";

fn config(args: &Parsed) -> Result<SynthConfig, crate::ArgError> {
    let mut cfg = SynthConfig::default_scale(args.num("seed", 42u64)?)
        .with_repos(args.num("repos", 120usize)?);
    cfg.size_scale = args.num("scale", 128u64)?;
    Ok(cfg)
}

fn hub_for(args: &Parsed, out: &mut impl Write) -> Result<SyntheticHub, crate::ArgError> {
    let cfg = config(args)?;
    writeln!(out, "generating hub: repos={} seed={} scale=1/{}", cfg.repos, cfg.seed, cfg.size_scale)
        .ok();
    Ok(generate_hub(&cfg))
}

fn threads(args: &Parsed) -> Result<usize, crate::ArgError> {
    args.num("threads", dhub_par::default_threads())
}

/// Parses the fault-injection flags: an injector (when `--fault-rate` is
/// nonzero) and the retry policy.
fn fault_setup(
    args: &Parsed,
) -> Result<(Option<Arc<FaultInjector>>, RetryPolicy), crate::ArgError> {
    let rate = args.num("fault-rate", 0.0f64)?;
    let seed = args.num("fault-seed", 0u64)?;
    let policy = RetryPolicy::new(args.num("max-retries", 4u32)?).with_seed(seed);
    let injector = (rate > 0.0)
        .then(|| Arc::new(FaultInjector::new(FaultConfig::uniform(seed, rate))));
    Ok((injector, policy))
}

/// Metric keys the `--metrics` progress line tracks during a study.
const PROGRESS_KEYS: &[&str] = &[
    "dhub_crawl_pages_fetched_total",
    "dhub_download_images_ok_total",
    "dhub_download_bytes_total",
    "dhub_download_retries_total",
    "dhub_analyze_layers_total",
];

/// Starts the `--metrics` progress reporter (stderr, only on change).
fn progress_for(args: &Parsed, obs: &Arc<MetricsRegistry>) -> Option<ProgressReporter> {
    args.flag("metrics").then(|| {
        let keys = PROGRESS_KEYS.iter().map(|k| k.to_string()).collect();
        ProgressReporter::start(obs.clone(), Duration::from_millis(500), keys)
    })
}

/// Honors `--metrics` (print the exposition) and `--metrics-snapshot PATH`
/// (write the JSON snapshot). Call once, at the end of a command.
fn emit_metrics(
    args: &Parsed,
    obs: &MetricsRegistry,
    out: &mut impl Write,
) -> Result<(), Box<dyn std::error::Error>> {
    if args.flag("metrics") {
        write!(out, "{}", render_prometheus(obs))?;
    }
    let path = args.str("metrics-snapshot", "");
    if !path.is_empty() {
        std::fs::write(&path, obs.snapshot().to_json().to_string())?;
        writeln!(out, "metrics snapshot written to {path}")?;
    }
    Ok(())
}

/// What [`with_study`] hands a study runner: the generated hub with the
/// fault injector (if any) attached, the retry policy, and the registry
/// the run records into.
struct StudyEnv<'a> {
    hub: &'a SyntheticHub,
    policy: RetryPolicy,
    injector: Option<Arc<FaultInjector>>,
    obs: &'a Arc<MetricsRegistry>,
}

impl StudyEnv<'_> {
    /// A fresh injector over the same fault plan. Durable writes and
    /// lease-loss faults share the fault flags with the registry but each
    /// get their own instance, so every fault stream replays
    /// deterministically no matter how registry traffic, disk writes and
    /// claims interleave.
    fn sibling_injector(&self) -> Option<Arc<FaultInjector>> {
        self.injector
            .as_ref()
            .map(|inj| Arc::new(FaultInjector::new(inj.plan().config().clone())))
    }
}

type BoxError = Box<dyn std::error::Error>;

/// The one study runner every study-shaped command goes through: builds
/// the hub, announces and attaches the fault injector (if requested),
/// prints the `kernels:` line and starts the progress reporter under
/// `--metrics`, runs `runner`, then detaches the injector and reports the
/// faults fired. The returned registry holds the run's metrics; commands
/// pass it to [`emit_metrics`] once their own post-study work has been
/// recorded.
fn with_study<T, W: Write>(
    args: &Parsed,
    out: &mut W,
    runner: impl FnOnce(&StudyEnv<'_>, &mut W) -> Result<T, BoxError>,
) -> Result<(SyntheticHub, T, Arc<MetricsRegistry>), BoxError> {
    let hub = hub_for(args, out)?;
    let (injector, policy) = fault_setup(args)?;
    if let Some(inj) = &injector {
        let cfg = inj.plan().config();
        writeln!(out, "fault injection: rate={} seed={} max-retries={}",
            cfg.rate(dhub_faults::FaultOp::Manifest), cfg.seed, policy.max_retries)?;
        hub.registry.set_fault_injector(Some(inj.clone()));
    }
    let obs = Arc::new(MetricsRegistry::new());
    if args.flag("metrics") {
        writeln!(out, "kernels: {}", dhub_analyzer::kernel_summary())?;
    }
    let reporter = progress_for(args, &obs);
    let env = StudyEnv { hub: &hub, policy, injector, obs: &obs };
    let result = runner(&env, out);
    if let Some(r) = reporter {
        r.stop();
    }
    let value = result?;
    if let Some(inj) = &env.injector {
        // The study is over: detach the injector so post-study consumers
        // (version analysis, …) read the registry clean instead of
        // re-experiencing transient faults or damaged bytes.
        hub.registry.set_fault_injector(None);
        writeln!(out, "faults fired: {}", inj.stats().total())?;
    }
    Ok((hub, value, obs))
}

/// The plain study (`report`, `summary`, `cache-sim`, `carve`).
fn study_for(
    args: &Parsed,
    out: &mut impl Write,
) -> Result<(SyntheticHub, StudyData, Arc<MetricsRegistry>), BoxError> {
    with_study(args, out, |env, _| {
        Ok(run_study_obs(env.hub, threads(args)?, &env.policy, env.obs))
    })
}

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
    let db = dhub_study::db::StudyDb::build(data, &store.mem().stats());
    db.save(&std::path::Path::new(store_dir).join("db"), publisher)?;
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
fn persistent_study_for(
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

/// Dispatches a parsed command. Returns a process exit code.
pub fn run(args: &Parsed, out: &mut impl Write) -> i32 {
    let result = match args.command.as_str() {
        "help" | "--help" | "-h" => {
            let _ = write!(out, "{USAGE}");
            Ok(())
        }
        "generate" => cmd_generate(args, out),
        "report" => cmd_report(args, out),
        "summary" => cmd_summary(args, out),
        "pull" => cmd_pull(args, out),
        "tags" => cmd_tags(args, out),
        "serve" => cmd_serve(args, out),
        "cache-sim" => cmd_cache_sim(args, out),
        "carve" => cmd_carve(args, out),
        "store" => cmd_store(args, out),
        "work" => cmd_work(args, out),
        "query" => cmd_query(args, out),
        other => {
            let _ = writeln!(out, "unknown command {other:?}\n\n{USAGE}");
            return 2;
        }
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            1
        }
    }
}

type CmdResult = Result<(), BoxError>;

fn cmd_generate(args: &Parsed, out: &mut impl Write) -> CmdResult {
    let hub = hub_for(args, out)?;
    let stats = hub.registry.stats();
    writeln!(out, "repositories : {}", stats.repositories)?;
    writeln!(out, "unique blobs : {}", stats.unique_blobs)?;
    writeln!(out, "stored bytes : {}", stats.stored_bytes)?;
    writeln!(out, "images pushed: {}", hub.truth.images_pushed)?;
    writeln!(out, "ok / auth / no-latest: {} / {} / {}",
        hub.truth.ok_repos.len(), hub.truth.auth_repos.len(), hub.truth.no_latest_repos.len())?;
    Ok(())
}

fn cmd_report(args: &Parsed, out: &mut impl Write) -> CmdResult {
    let (hub, data, obs) = study_for(args, out)?;
    for fig in figures::all_figures(&data) {
        writeln!(out, "{}", fig.render())?;
    }
    let repos = hub.registry.repo_names();
    let versions = dhub_study::versions::analyze_versions(&hub.registry, &repos);
    writeln!(out, "{}", dhub_study::versions::ext_v1(&versions, hub.config.size_scale).render())?;
    writeln!(out, "{}", dhub_study::latency::ext_l1(&data).render())?;
    writeln!(out, "{}", dhub_study::carving::ext_c1(&data).render())?;
    emit_metrics(args, &obs, out)
}

fn cmd_summary(args: &Parsed, out: &mut impl Write) -> CmdResult {
    let store_dir = args.str("store-dir", "");
    let (data, obs) = if store_dir.is_empty() {
        let (_hub, data, obs) = study_for(args, out)?;
        (data, obs)
    } else {
        let (data, _stats, obs) = persistent_study_for(args, out, &store_dir)?;
        (data, obs)
    };
    writeln!(out, "{}", figures::table1(&data).render())?;
    writeln!(out, "{}", figures::table2(&data).render())?;
    emit_metrics(args, &obs, out)
}

fn cmd_pull(args: &Parsed, out: &mut impl Write) -> CmdResult {
    let repo_name = args.pos(0).ok_or("usage: dhub pull <repo> [tag]")?;
    let tag = args.pos(1).unwrap_or("latest");
    let repo = RepoName::parse(repo_name).ok_or("bad repository name")?;
    let hub = hub_for(args, out)?;
    let (injector, policy) = fault_setup(args)?;

    // Pull over the real HTTP wire, like the paper's downloader. The obs
    // registry is shared with the server, so `--metrics` shows the wire
    // counters (`dhub_http_*`) the pull generated.
    let obs = Arc::new(MetricsRegistry::new());
    let server =
        dhub_registry::RegistryServer::start_full(hub.registry.clone(), injector, obs.clone(), dhub_registry::DEFAULT_MAX_CONNS)?;
    let client = dhub_registry::RemoteRegistry::connect(server.addr()).with_retry_policy(policy);
    let (digest, manifest) = client.get_manifest(&repo, tag)?;
    writeln!(out, "manifest {digest} ({} layers)", manifest.layers.len())?;
    let mut total = 0u64;
    for l in &manifest.layers {
        let blob = client.get_blob(&repo, &l.digest)?;
        total += blob.len() as u64;
        writeln!(out, "  layer {} : {} bytes", l.digest, blob.len())?;
    }
    writeln!(out, "pulled {} bytes over HTTP", total)?;
    let stats = client.retry_stats();
    if stats.retries > 0 || stats.corrupt_retries > 0 {
        writeln!(
            out,
            "retried {} transient faults ({} digest-verify refetches)",
            stats.retries, stats.corrupt_retries
        )?;
    }
    server.shutdown();
    emit_metrics(args, &obs, out)
}

fn cmd_tags(args: &Parsed, out: &mut impl Write) -> CmdResult {
    let repo_name = args.pos(0).ok_or("usage: dhub tags <repo>")?;
    let repo = RepoName::parse(repo_name).ok_or("bad repository name")?;
    let hub = hub_for(args, out)?;
    let (injector, policy) = fault_setup(args)?;
    let obs = Arc::new(MetricsRegistry::new());
    let server =
        dhub_registry::RegistryServer::start_full(hub.registry.clone(), injector, obs.clone(), dhub_registry::DEFAULT_MAX_CONNS)?;
    let client = dhub_registry::RemoteRegistry::connect(server.addr()).with_retry_policy(policy);
    for tag in client.tags(&repo)? {
        writeln!(out, "{tag}")?;
    }
    server.shutdown();
    emit_metrics(args, &obs, out)
}

fn cmd_serve(args: &Parsed, out: &mut impl Write) -> CmdResult {
    let mirror_of = args.str("mirror-of", "");
    let server = if mirror_of.is_empty() {
        // Direct origin mode; --fault-rate makes it a flaky upstream worth
        // putting a mirror in front of.
        let hub = hub_for(args, out)?;
        let (injector, _) = fault_setup(args)?;
        dhub_registry::RegistryServer::start_with_faults(hub.registry.clone(), injector)?
    } else {
        // Pull-through mirror mode: no local hub, every object comes from
        // the comma-separated origin shards (DESIGN.md §6e).
        let mut origins = Vec::new();
        for part in mirror_of.split(',') {
            let addr: std::net::SocketAddr = part.trim().parse().map_err(|_| {
                crate::ArgError::BadValue { key: "mirror-of".into(), value: part.trim().into() }
            })?;
            origins.push(addr);
        }
        let policy_name = args.str("cache-policy", "lru");
        let policy = dhub_mirror::PolicyKind::parse(&policy_name).ok_or_else(|| {
            crate::ArgError::BadValue { key: "cache-policy".into(), value: policy_name.clone() }
        })?;
        let cache_bytes = args.num("cache-bytes", 64u64 << 20)?;
        let obs = Arc::new(MetricsRegistry::new());
        let mirror = Arc::new(dhub_mirror::Mirror::new(
            &origins,
            dhub_mirror::MirrorConfig::new(cache_bytes, policy),
            obs.clone(),
        ));
        let server = dhub_registry::RegistryServer::start_mirror(
            mirror,
            obs,
            dhub_registry::DEFAULT_MAX_CONNS,
        )?;
        writeln!(
            out,
            "mirror ({} cache, {} MiB) fronting {mirror_of}",
            policy.name(),
            cache_bytes >> 20
        )?;
        server
    };
    writeln!(out, "registry listening on http://{}", server.addr())?;
    writeln!(out, "try: curl http://{}/v2/nginx/tags/list", server.addr())?;
    // Serve until interrupted.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_cache_sim(args: &Parsed, out: &mut impl Write) -> CmdResult {
    use dhub_cache::{simulate, Fifo, GreedyDualSizeFrequency, Lfu, Lru, PullTrace, TraceConfig};
    let (_hub, data, obs) = study_for(args, out)?;
    let objects: Vec<(u64, f64, u64)> = data
        .images
        .iter()
        .enumerate()
        .map(|(i, img)| {
            let pulls =
                data.pulls.iter().find(|(r, _)| r == &img.repo).map(|(_, c)| *c).unwrap_or(0);
            (i as u64, (pulls + 1) as f64, img.cis.max(1))
        })
        .collect();
    let total: u64 = objects.iter().map(|&(_, _, s)| s).sum();
    let requests = args.num("requests", 100_000usize)?;
    let trace = PullTrace::from_popularity(&objects, &TraceConfig { seed: 1, requests });
    writeln!(out, "{:>12} {:>16} {:>16} {:>16} {:>16}", "cache", "LRU", "LFU", "FIFO", "GDSF")?;
    for frac in [0.02, 0.05, 0.10] {
        let cap = ((total as f64 * frac) as u64).max(1);
        let r = [
            simulate(&mut Lru::new(cap), &trace).hit_ratio(),
            simulate(&mut Lfu::new(cap), &trace).hit_ratio(),
            simulate(&mut Fifo::new(cap), &trace).hit_ratio(),
            simulate(&mut GreedyDualSizeFrequency::new(cap), &trace).hit_ratio(),
        ];
        writeln!(
            out,
            "{:>10.0}% {:>15.1}% {:>15.1}% {:>15.1}% {:>15.1}%",
            frac * 100.0,
            r[0] * 100.0,
            r[1] * 100.0,
            r[2] * 100.0,
            r[3] * 100.0
        )?;
    }
    emit_metrics(args, &obs, out)
}

fn cmd_carve(args: &Parsed, out: &mut impl Write) -> CmdResult {
    let (_hub, data, obs) = study_for(args, out)?;
    writeln!(out, "{}", dhub_study::carving::ext_c1(&data).render())?;
    emit_metrics(args, &obs, out)
}

fn cmd_store(args: &Parsed, out: &mut impl Write) -> CmdResult {
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
fn cmd_work(args: &Parsed, out: &mut impl Write) -> CmdResult {
    use dhub_queue::DurableQueue;
    use dhub_study::distributed::{run_study_queued_obs, QueuedStudyConfig};

    let store_dir = args.str("store-dir", "");
    if store_dir.is_empty() {
        return Err("usage: dhub work --store-dir DIR [--workers N]".into());
    }
    let workers = args.num("workers", dhub_par::default_threads())?;
    let (_hub, (data, store, publisher), obs) = with_study(args, out, |env, out| {
        let (store, publisher) = open_durable(env, &store_dir, out)?;
        let queue =
            DurableQueue::open(std::path::Path::new(&store_dir).join("queue"), publisher.clone())?
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

/// Answers Table-1-style questions from a persisted store's study
/// database — no hub generation, no re-analysis, just `<dir>/db` reads.
/// A store whose study tables are not written yet (a fleet still
/// mid-ingest, or killed before it finished) falls back to replaying
/// the durable layer recipes.
fn cmd_query(args: &Parsed, out: &mut impl Write) -> CmdResult {
    use dhub_persist::PersistError;
    use dhub_study::db::StudyDb;
    let dir = args
        .pos(0)
        .ok_or("usage: dhub query <store-dir> [summary|dedup|top-types|layer-percentiles]")?;
    let question = args.pos(1).unwrap_or("summary");
    let store_dir = std::path::Path::new(dir);
    let db_dir = store_dir.join("db");
    let db = match StudyDb::load(&db_dir) {
        Ok(db) => db,
        // Mid-ingest store: a table is not written yet, but recipes are
        // durable. A table that exists and fails validation is an error.
        Err(PersistError::Io(e))
            if e.kind() == std::io::ErrorKind::NotFound && store_dir.join("layers").is_dir() =>
        {
            return query_replayed(args, out, dir, question);
        }
        Err(e) => {
            return Err(format!("cannot load study tables under {}: {e}", db_dir.display()).into())
        }
    };
    match question {
        "summary" => {
            for row in db.summary() {
                writeln!(out, "{row}")?;
            }
        }
        "dedup" => {
            for row in db.dedup_summary() {
                writeln!(out, "{row}")?;
            }
        }
        "top-types" => print_top_types(out, &db.top_file_types(args.num("top", 10usize)?))?,
        "layer-percentiles" => print_percentiles(out, &db.layer_size_percentiles())?,
        other => {
            return Err(format!(
                "unknown question {other:?} (try summary, dedup, top-types, layer-percentiles)"
            )
            .into())
        }
    }
    Ok(())
}

/// `dhub query` over a store directory with no `db/` tables yet: replays
/// the published layer recipes into memory and answers the store-shaped
/// questions from them, in the same output format the tables would use.
/// Crawl-derived Table-1 counters exist only in the finished tables, so
/// `summary` degrades to the dedup block with a notice.
fn query_replayed(args: &Parsed, out: &mut impl Write, dir: &str, question: &str) -> CmdResult {
    use dhub_dedupstore::RecipeEntryKind;
    use dhub_study::db::{size_percentiles, top_types};

    let store = PersistentDedupStore::open(dir, Publisher::new())?;
    let mem = store.mem();
    let st = mem.stats();
    writeln!(out, "no study tables under {dir}/db yet; replaying {} durable layer recipes", st.layers)?;
    match question {
        "summary" | "dedup" => {
            writeln!(out, "{:20}: {}", "layers", st.layers)?;
            writeln!(out, "{:20}: {}", "unique objects", st.unique_objects)?;
            writeln!(out, "{:20}: {}", "physical bytes", st.physical_bytes)?;
            writeln!(out, "{:20}: {}", "logical bytes", st.logical_bytes)?;
            writeln!(out, "{:20}: {}", "conventional bytes", st.conventional_bytes)?;
            writeln!(out, "{:20}: {:.6}x", "dedup factor", st.dedup_factor())?;
        }
        "top-types" => {
            // Re-derive (kind, size) per file entry exactly as the
            // analyzer recorded it: `dhub_magic::classify` over the entry
            // path and the stored object bytes.
            let n = args.num("top", 10usize)?;
            let mut digests = mem.layer_digests();
            digests.sort();
            let mut files: Vec<(&str, u64)> = Vec::new();
            for d in &digests {
                let recipe = mem.recipe(d).expect("replayed layer has a recipe");
                for entry in &recipe.entries {
                    if let RecipeEntryKind::File(fd) = &entry.kind {
                        let data =
                            mem.object_data(fd).ok_or_else(|| format!("missing object {fd}"))?;
                        let kind = dhub_magic::classify(&entry.path, &data);
                        files.push((kind.label(), data.len() as u64));
                    }
                }
            }
            print_top_types(out, &top_types(files, n))?;
        }
        "layer-percentiles" => {
            let mut cls: Vec<u64> = mem.layer_sizes().into_iter().map(|(_, c)| c).collect();
            cls.sort_unstable();
            print_percentiles(out, &size_percentiles(&cls))?;
        }
        other => {
            return Err(format!(
                "unknown question {other:?} (try summary, dedup, top-types, layer-percentiles)"
            )
            .into())
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Parsed;

    fn run_cmd(argv: &[&str]) -> (i32, String) {
        let parsed = Parsed::parse(argv.iter().map(|s| s.to_string())).unwrap();
        let mut out = Vec::new();
        let code = run(&parsed, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_cmd(&["help"]);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
        assert!(out.contains("cache-sim"));
    }

    #[test]
    fn unknown_command_fails() {
        let (code, out) = run_cmd(&["frobnicate"]);
        assert_eq!(code, 2);
        assert!(out.contains("unknown command"));
    }

    #[test]
    fn generate_summarizes_hub() {
        let (code, out) = run_cmd(&["generate", "--repos", "20", "--seed", "3", "--scale", "1024"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("repositories : 20"), "{out}");
        assert!(out.contains("unique blobs"));
    }

    #[test]
    fn pull_over_http_works() {
        let (code, out) =
            run_cmd(&["pull", "nginx", "--repos", "20", "--seed", "3", "--scale", "1024"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("pulled"), "{out}");
        assert!(out.contains("layers)"), "{out}");
    }

    #[test]
    fn pull_missing_repo_fails_cleanly() {
        let (code, out) =
            run_cmd(&["pull", "ghost/none", "--repos", "10", "--seed", "3", "--scale", "1024"]);
        assert_eq!(code, 1);
        assert!(out.contains("error"), "{out}");
    }

    #[test]
    fn tags_lists_versions() {
        let (code, out) = run_cmd(&["tags", "nginx", "--repos", "20", "--seed", "3", "--scale", "1024"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("latest"), "{out}");
    }

    #[test]
    fn summary_prints_tables() {
        let (code, out) =
            run_cmd(&["summary", "--repos", "25", "--seed", "5", "--scale", "1024", "--threads", "2"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("Table 1"), "{out}");
        assert!(out.contains("Table 2"), "{out}");
        assert!(out.contains("count dedup ratio"));
    }

    #[test]
    fn pull_survives_fault_injection() {
        let (code, out) = run_cmd(&[
            "pull", "nginx", "--repos", "20", "--seed", "3", "--scale", "1024",
            "--fault-rate", "0.4", "--fault-seed", "7", "--max-retries", "16",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("pulled"), "{out}");
    }

    #[test]
    fn summary_reports_fault_injection() {
        let (code, out) = run_cmd(&[
            "summary", "--repos", "25", "--seed", "5", "--scale", "1024", "--threads", "2",
            "--fault-rate", "0.2", "--fault-seed", "7", "--max-retries", "16",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("fault injection: rate=0.2 seed=7 max-retries=16"), "{out}");
        assert!(out.contains("faults fired:"), "{out}");
        assert!(out.contains("transient retries"), "{out}");
    }

    #[test]
    fn fault_free_run_mentions_no_injection() {
        let (code, out) =
            run_cmd(&["summary", "--repos", "20", "--seed", "5", "--scale", "1024", "--threads", "2"]);
        assert_eq!(code, 0, "{out}");
        assert!(!out.contains("fault injection"), "{out}");
    }

    #[test]
    fn store_under_faults_matches_clean_ingest() {
        // The injector is detached once the study finishes, so the store
        // ingest re-reads every layer clean: no panic on transient faults,
        // no corrupted bytes skewing the dedup stats.
        let base = ["store", "--repos", "20", "--seed", "5", "--scale", "1024", "--threads", "2"];
        let (code, clean) = run_cmd(&base);
        assert_eq!(code, 0, "{clean}");
        let mut argv = base.to_vec();
        argv.extend(["--fault-rate", "0.3", "--fault-seed", "7", "--max-retries", "16"]);
        let (code, faulty) = run_cmd(&argv);
        assert_eq!(code, 0, "{faulty}");
        assert!(faulty.contains("faults fired:"), "{faulty}");
        let stats = |s: &str| s.lines().rev().take(5).map(String::from).collect::<Vec<_>>();
        assert_eq!(stats(&faulty), stats(&clean), "dedup stats diverged under faults");
    }

    #[test]
    fn summary_with_metrics_prints_exposition() {
        let (code, out) = run_cmd(&[
            "summary", "--repos", "20", "--seed", "5", "--scale", "1024", "--threads", "2",
            "--metrics",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("# TYPE dhub_crawl_pages_fetched_total counter"), "{out}");
        assert!(out.contains("dhub_download_images_ok_total"), "{out}");
        assert!(out.contains("dhub_span_id_digest"), "{out}");
    }

    #[test]
    fn metrics_snapshot_reconciles_with_table1() {
        let dir = std::env::temp_dir().join(format!("dhub-cli-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let (code, out) = run_cmd(&[
            "summary", "--repos", "25", "--seed", "5", "--scale", "1024", "--threads", "2",
            "--fault-rate", "0.1", "--fault-seed", "7", "--max-retries", "16",
            "--metrics-snapshot", path.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("metrics snapshot written"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let json = dhub_json::parse(&text).unwrap();
        let snap = dhub_obs::MetricsSnapshot::from_json(&json).unwrap();
        // The printed Table 1 and the snapshot describe the same run.
        let table_line = |label: &str| -> u64 {
            out.lines()
                .find(|l| l.trim_start().starts_with(label))
                .and_then(|l| l.rsplit(':').next())
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or_else(|| panic!("missing table line {label:?} in {out}"))
        };
        assert_eq!(snap.counter("dhub_download_retries_total"), table_line("transient retries"));
        assert_eq!(snap.counter("dhub_crawl_raw_results_total"), table_line("search results (raw)"));
        assert_eq!(
            snap.counter("dhub_download_unique_layers_total"),
            table_line("unique compressed layers")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pull_with_metrics_shows_wire_counters() {
        let (code, out) = run_cmd(&[
            "pull", "nginx", "--repos", "20", "--seed", "3", "--scale", "1024", "--metrics",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("dhub_http_requests_total"), "{out}");
        assert!(out.contains("dhub_http_status_2xx_total"), "{out}");
    }

    #[test]
    fn bad_option_reports_error() {
        let (code, out) = run_cmd(&["generate", "--repos", "banana"]);
        assert_eq!(code, 1);
        assert!(out.contains("cannot parse"), "{out}");
    }

    /// The five-line dedup stats block `dhub store` / `dhub work` print
    /// (found, not taken from the tail: `--metrics` output follows it).
    fn stats_block(s: &str) -> Vec<String> {
        let block = s.lines().skip_while(|l| !l.starts_with("layers          :"));
        let block: Vec<String> = block.take(5).map(String::from).collect();
        assert_eq!(block.len(), 5, "no stats block in {s}");
        block
    }

    #[test]
    fn store_dir_persists_matches_memory_and_resumes() {
        let dir = std::env::temp_dir().join(format!("dhub-cli-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let base = ["store", "--repos", "20", "--seed", "5", "--scale", "1024", "--threads", "2"];
        let (code, mem) = run_cmd(&base);
        assert_eq!(code, 0, "{mem}");

        let mut argv = base.to_vec();
        argv.extend(["--store-dir", dir.to_str().unwrap()]);
        let (code, durable) = run_cmd(&argv);
        assert_eq!(code, 0, "{durable}");
        assert_eq!(stats_block(&durable), stats_block(&mem), "durable stats diverged from memory");

        // A second run over the same hub resumes the store instead of
        // re-ingesting, and lands on identical stats.
        let (code, resumed) = run_cmd(&argv);
        assert_eq!(code, 0, "{resumed}");
        assert!(resumed.contains("resuming store with"), "{resumed}");
        assert_eq!(stats_block(&resumed), stats_block(&mem));

        // The persisted database answers without a hub: the dedup factor
        // line printed by `store` appears verbatim in `query dedup`.
        let (code, q) = run_cmd(&["query", dir.to_str().unwrap(), "dedup"]);
        assert_eq!(code, 0, "{q}");
        let parse_factor = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.starts_with("dedup factor"))
                .and_then(|l| l.rsplit(':').next())
                .and_then(|v| v.trim().trim_end_matches('x').parse().ok())
                .unwrap_or_else(|| panic!("no dedup factor line in {s:?}"))
        };
        let printed = parse_factor(&mem);
        let queried = parse_factor(&q);
        assert!((printed - queried).abs() < 0.005, "store {printed} vs query {queried}");

        let (code, q) = run_cmd(&["query", dir.to_str().unwrap(), "top-types"]);
        assert_eq!(code, 0, "{q}");
        assert!(q.lines().count() > 2, "{q}");
        let (code, q) = run_cmd(&["query", dir.to_str().unwrap(), "layer-percentiles"]);
        assert_eq!(code, 0, "{q}");
        assert!(q.contains("p50"), "{q}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_dir_under_faults_matches_clean_run() {
        let pid = std::process::id();
        let clean_dir = std::env::temp_dir().join(format!("dhub-cli-pclean-{pid}"));
        let fault_dir = std::env::temp_dir().join(format!("dhub-cli-pfault-{pid}"));
        std::fs::remove_dir_all(&clean_dir).ok();
        std::fs::remove_dir_all(&fault_dir).ok();
        let base = ["store", "--repos", "20", "--seed", "5", "--scale", "1024", "--threads", "2"];
        let mut argv = base.to_vec();
        argv.extend(["--store-dir", clean_dir.to_str().unwrap()]);
        let (code, clean) = run_cmd(&argv);
        assert_eq!(code, 0, "{clean}");
        let mut argv = base.to_vec();
        argv.extend([
            "--store-dir", fault_dir.to_str().unwrap(),
            "--fault-rate", "0.2", "--fault-seed", "7", "--max-retries", "16",
        ]);
        let (code, faulty) = run_cmd(&argv);
        assert_eq!(code, 0, "{faulty}");
        assert_eq!(stats_block(&faulty), stats_block(&clean), "stats diverged under write faults");
        // The two stores answer queries identically, byte for byte.
        let (c1, q1) = run_cmd(&["query", clean_dir.to_str().unwrap(), "summary"]);
        let (c2, q2) = run_cmd(&["query", fault_dir.to_str().unwrap(), "summary"]);
        assert_eq!((c1, c2), (0, 0), "{q1}\n{q2}");
        assert_eq!(q1, q2, "query output diverged under write faults");
        std::fs::remove_dir_all(&clean_dir).ok();
        std::fs::remove_dir_all(&fault_dir).ok();
    }

    /// The counters every study shape must agree on: pure functions of the
    /// hub and the fault seed, whoever schedules the steps.
    const CRAWL_DOWNLOAD_COUNTERS: [&str; 11] = [
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
    ];
    const ANALYZE_COUNTERS: [&str; 4] = [
        "dhub_analyze_layers_total",
        "dhub_analyze_files_total",
        "dhub_analyze_bytes_total",
        "dhub_analyze_errors_total",
    ];

    /// Runs `argv` with `--metrics-snapshot` and reads `names` back out of
    /// the snapshot (`None` for a series the run never exported).
    fn run_counted(
        argv: &[&str],
        names: &[&'static str],
    ) -> (String, Vec<(&'static str, Option<u64>)>) {
        let snap = std::env::temp_dir().join(format!(
            "dhub-cli-snap-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let (code, out) =
            run_cmd(&[argv, &["--metrics-snapshot", snap.to_str().unwrap()]].concat());
        assert_eq!(code, 0, "{out}");
        let json = dhub_json::parse(&std::fs::read_to_string(&snap).unwrap()).unwrap();
        std::fs::remove_file(&snap).ok();
        let counters = json.get("counters").expect("snapshot has counters");
        let read = |name| counters.get(name).and_then(dhub_json::Json::as_u64);
        (out, names.iter().map(|&name| (name, read(name))).collect())
    }

    #[test]
    fn work_fleet_matches_store_and_resumes_queries() {
        let pid = std::process::id();
        let tmp = |tag: &str| {
            let dir = std::env::temp_dir().join(format!("dhub-cli-{tag}-{pid}"));
            std::fs::remove_dir_all(&dir).ok();
            dir
        };
        let all: Vec<&str> = [&CRAWL_DOWNLOAD_COUNTERS[..], &ANALYZE_COUNTERS[..]].concat();
        const HUB: [&str; 6] = ["--repos", "20", "--seed", "5", "--scale", "1024"];
        fn work<'a>(dir: &'a std::path::Path, workers: &'a str) -> Vec<&'a str> {
            let dir = dir.to_str().unwrap();
            [&["work", "--store-dir", dir, "--workers", workers], &HUB[..]].concat()
        }
        fn store(dir: &std::path::Path) -> Vec<&str> {
            [&["store", "--threads", "2", "--store-dir", dir.to_str().unwrap()], &HUB[..]].concat()
        }
        let (one_dir, four_dir, store_dir) = (tmp("work1"), tmp("work4"), tmp("works"));
        let (one, one_counters) = run_counted(&work(&one_dir, "1"), &all);
        let (four, four_counters) = run_counted(&work(&four_dir, "4"), &all);
        assert_eq!(stats_block(&one), stats_block(&four), "worker count changed the store");

        // The plain store pipeline lands on the same stats block and the
        // same crawl / download / analyze counters: the fleet schedules
        // the batch path's steps, it does not re-derive their numbers.
        let (plain, plain_counters) = run_counted(&store(&store_dir), &all);
        assert_eq!(stats_block(&plain), stats_block(&four), "queued run diverged from store");
        assert!(plain_counters.iter().all(|(_, v)| v.is_some()), "{plain_counters:?}");
        assert_eq!(one_counters, plain_counters, "1-worker fleet counters diverged from store");
        assert_eq!(four_counters, plain_counters, "4-worker fleet counters diverged from store");

        // …and every query answers byte-identically across worker counts.
        for q in ["summary", "dedup", "top-types", "layer-percentiles"] {
            let (c1, q1) = run_cmd(&["query", one_dir.to_str().unwrap(), q]);
            let (c4, q4) = run_cmd(&["query", four_dir.to_str().unwrap(), q]);
            assert_eq!((c1, c4), (0, 0), "{q1}\n{q4}");
            assert_eq!(q1, q4, "query {q} diverged across worker counts");
        }

        // A killed fleet's resume replays crawl and download from the
        // durable results, so those counters are complete — equal to the
        // never-killed run's — although this process ran only the tail.
        // The killed run reports like any other: exposition on stdout and
        // a snapshot, both carrying the commit count it printed.
        let kill_dir = tmp("workk");
        let (killed, killed_commits) = run_counted(
            &[&work(&kill_dir, "4")[..], &["--max-commits", "12", "--metrics"]].concat(),
            &["dhub_queue_jobs_completed_total"],
        );
        let printed: u64 = killed
            .split_once("fleet killed after ")
            .and_then(|(_, rest)| rest.split(' ').next()?.parse().ok())
            .expect(&killed);
        assert_eq!(killed_commits[0].1, Some(printed), "snapshot vs printed commits: {killed}");
        let series = format!("dhub_queue_jobs_completed_total {printed}\n");
        assert!(killed.contains(&series), "no exposition after the kill: {killed}");
        let (resumed, resumed_counters) =
            run_counted(&work(&kill_dir, "4"), &CRAWL_DOWNLOAD_COUNTERS);
        assert_eq!(stats_block(&resumed), stats_block(&plain), "resumed fleet diverged");
        assert_eq!(resumed_counters[..], plain_counters[..CRAWL_DOWNLOAD_COUNTERS.len()]);

        // One runner behind `store`, `store --store-dir` (which `summary
        // --store-dir` shares) and `work`: under faults and `--metrics` all
        // three announce the injector, print the kernels line and report
        // what fired, and print the same five stat lines, byte for byte;
        // the durable store and the fleet also agree on every counter.
        let (fs_dir, fw_dir) = (tmp("workfs"), tmp("workfw"));
        let faults =
            ["--fault-rate", "0.1", "--fault-seed", "7", "--max-retries", "16", "--metrics"];
        let runs: [(&str, Vec<&str>); 3] = [
            ("store", [&["store", "--threads", "2"], &HUB[..]].concat()),
            ("store --store-dir", store(&fs_dir)),
            ("work", work(&fw_dir, "4")),
        ];
        let mut faulted_counters = Vec::new();
        for (name, argv) in runs {
            let (out, counters) = run_counted(&[&argv[..], &faults[..]].concat(), &all);
            assert!(
                out.contains("fault injection: rate=0.1 seed=7 max-retries=16"),
                "{name}: {out}"
            );
            assert!(out.contains("kernels: sha256="), "{name}: {out}");
            assert!(out.contains("faults fired:"), "{name}: {out}");
            assert_eq!(stats_block(&out), stats_block(&plain), "{name} stat lines diverged");
            faulted_counters.push((name, counters));
        }
        for (name, counters) in &faulted_counters {
            assert_eq!(counters, &plain_counters, "{name} counters moved under retried faults");
        }

        for d in [&one_dir, &four_dir, &store_dir, &kill_dir, &fs_dir, &fw_dir] {
            std::fs::remove_dir_all(d).ok();
        }
    }

    #[test]
    fn query_mid_ingest_store_answers_from_recipes() {
        // A store with durable recipes but no study tables (fleet killed
        // before it finished) still answers store-shaped questions.
        let dir = std::env::temp_dir().join(format!("dhub-cli-midq-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (code, out) = run_cmd(&[
            "store", "--repos", "15", "--seed", "3", "--scale", "1024", "--threads", "2",
            "--store-dir", dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        let (_, full_dedup) = run_cmd(&["query", dir.to_str().unwrap(), "dedup"]);
        let (_, full_pcts) = run_cmd(&["query", dir.to_str().unwrap(), "layer-percentiles"]);
        let (_, full_types) = run_cmd(&["query", dir.to_str().unwrap(), "top-types"]);

        // Simulate the kill: tables gone, recipes still durable.
        std::fs::remove_dir_all(dir.join("db")).unwrap();
        let tail = |s: &str, n: usize| {
            let lines: Vec<&str> = s.lines().collect();
            lines[lines.len().saturating_sub(n)..].join("\n")
        };
        let (code, q) = run_cmd(&["query", dir.to_str().unwrap(), "dedup"]);
        assert_eq!(code, 0, "{q}");
        assert!(q.contains("no study tables"), "{q}");
        assert_eq!(tail(&q, 6), tail(&full_dedup, 6), "replayed dedup answers diverged");
        let (code, q) = run_cmd(&["query", dir.to_str().unwrap(), "layer-percentiles"]);
        assert_eq!(code, 0, "{q}");
        assert_eq!(tail(&q, 7), tail(&full_pcts, 7), "replayed percentiles diverged");
        let (code, q) = run_cmd(&["query", dir.to_str().unwrap(), "top-types"]);
        assert_eq!(code, 0, "{q}");
        assert_eq!(tail(&q, full_types.lines().count()), full_types.trim_end(),
            "replayed top-types diverged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_corrupt_table_is_an_error_not_a_fallback() {
        let dir = std::env::temp_dir().join(format!("dhub-cli-qtorn-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (code, out) = run_cmd(&[
            "store", "--repos", "10", "--seed", "3", "--scale", "1024", "--threads", "2",
            "--store-dir", dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        let (code, full) = run_cmd(&["query", dir.to_str().unwrap(), "top-types"]);
        assert_eq!(code, 0, "{full}");

        // One flipped byte fails the table's CRC: the query must say so and
        // name the file, not answer from replayed recipes.
        let tbl = dir.join("db").join("files.tbl");
        let mut bytes = std::fs::read(&tbl).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&tbl, &bytes).unwrap();
        let (code, q) = run_cmd(&["query", dir.to_str().unwrap(), "top-types"]);
        assert_ne!(code, 0, "{q}");
        assert!(q.contains(tbl.to_str().unwrap()), "{q}");
        assert!(!q.contains("no study tables"), "{q}");

        // A table that is not there yet (killed mid-save) still falls back.
        std::fs::remove_file(&tbl).unwrap();
        let (code, q) = run_cmd(&["query", dir.to_str().unwrap(), "top-types"]);
        assert_eq!(code, 0, "{q}");
        assert!(q.contains("no study tables"), "{q}");
        assert!(q.ends_with(&full), "replayed rows diverged from the tables':\n{q}\nvs\n{full}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_missing_store_fails_cleanly() {
        let (code, out) = run_cmd(&["query", "/nonexistent/dhub-store"]);
        assert_eq!(code, 1);
        assert!(out.contains("error"), "{out}");
    }

    #[test]
    fn query_unknown_question_fails_cleanly() {
        let dir = std::env::temp_dir().join(format!("dhub-cli-qbad-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (code, out) = run_cmd(&[
            "store", "--repos", "10", "--seed", "3", "--scale", "1024", "--threads", "2",
            "--store-dir", dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cmd(&["query", dir.to_str().unwrap(), "flavor"]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown question"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
