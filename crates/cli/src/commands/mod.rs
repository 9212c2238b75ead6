//! `dhub` command implementations, one file per command family: `study`
//! (`report`, `summary`, `cache-sim`, `carve`), `durable` (`store`,
//! `work`, `query`, `summary --store-dir`) and `wire` (`pull`, `tags`,
//! `serve`). This file holds what they share: the hub, fault and metrics
//! flags, and `with_study`, the one runner every study-shaped command goes
//! through. Every command takes the parsed arguments and a writer (so
//! tests can capture output) and returns an exit code.

mod durable;
mod study;
mod wire;

use crate::args::Parsed;
use dhub_faults::{FaultConfig, FaultInjector, RetryPolicy};
use dhub_obs::{render_prometheus, MetricsRegistry, ProgressReporter};
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

fn hub_for(args: &Parsed, out: &mut impl Write) -> Result<SyntheticHub, crate::ArgError> {
    let mut cfg = SynthConfig::default_scale(args.num("seed", 42u64)?)
        .with_repos(args.num("repos", 120usize)?);
    cfg.size_scale = args.num("scale", 128u64)?;
    cfg.threads = threads(args)?;
    writeln!(out, "generating hub: repos={} seed={} scale=1/{}", cfg.repos, cfg.seed, cfg.size_scale)
        .ok();
    Ok(generate_hub(&cfg))
}

fn threads(args: &Parsed) -> Result<usize, crate::ArgError> {
    args.num("threads", dhub_par::default_threads())
}

/// Parses the fault-injection flags: an injector (when `--fault-rate` is
/// nonzero) and the retry policy. The rate is a probability: anything but
/// a number in [0, 1] (NaN included) is rejected, not run fault-free.
fn fault_setup(args: &Parsed) -> Result<(Option<Arc<FaultInjector>>, RetryPolicy), crate::ArgError> {
    let rate = args.num("fault-rate", 0.0f64)?;
    if !(0.0..=1.0).contains(&rate) {
        let value = args.str("fault-rate", "");
        return Err(crate::ArgError::BadValue { key: "fault-rate".into(), value });
    }
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

/// Honors `--metrics` (print the exposition) and `--metrics-snapshot PATH`
/// (write the JSON snapshot). Call once, at the end of a command.
fn emit_metrics(args: &Parsed, obs: &MetricsRegistry, out: &mut impl Write) -> CmdResult {
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
type CmdResult = Result<(), BoxError>;

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
    let (injector, policy) = fault_setup(args)?;
    let hub = hub_for(args, out)?;
    if let Some(inj) = &injector {
        let cfg = inj.plan().config();
        writeln!(out, "fault injection: rate={} seed={} max-retries={}",
            cfg.rate(dhub_faults::FaultOp::Manifest), cfg.seed, policy.max_retries)?;
        hub.registry.set_fault_injector(Some(inj.clone()));
    }
    let obs = Arc::new(MetricsRegistry::new());
    // `--metrics` also reports progress on stderr (only on change).
    let reporter = if args.flag("metrics") {
        writeln!(out, "kernels: {}", dhub_analyzer::kernel_summary())?;
        let keys = PROGRESS_KEYS.iter().map(|k| k.to_string()).collect();
        Some(ProgressReporter::start(obs.clone(), Duration::from_millis(500), keys))
    } else {
        None
    };
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

/// Dispatches a parsed command. Returns a process exit code.
pub fn run(args: &Parsed, out: &mut impl Write) -> i32 {
    let result = match args.command.as_str() {
        "help" | "--help" | "-h" => {
            let _ = write!(out, "{USAGE}");
            Ok(())
        }
        "generate" => cmd_generate(args, out),
        "report" => study::cmd_report(args, out),
        "summary" => study::cmd_summary(args, out),
        "pull" => wire::cmd_pull(args, out),
        "tags" => wire::cmd_tags(args, out),
        "serve" => wire::cmd_serve(args, out),
        "cache-sim" => study::cmd_cache_sim(args, out),
        "carve" => study::cmd_carve(args, out),
        "store" => durable::cmd_store(args, out),
        "work" => durable::cmd_work(args, out),
        "query" => durable::cmd_query(args, out),
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

#[cfg(test)]
// The command tests live in crates/cli/tests/commands/ and drive `run`
// end to end; they build as this module's unit tests.
#[path = "../../tests/commands/mod.rs"]
mod tests;
