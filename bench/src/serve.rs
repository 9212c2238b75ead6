//! `serve_zipf_files`: the read side of the registry over real HTTP.
//!
//! Two origin `RegistryServer`s sit behind a `Mirror` (LRU, cache = 25 %
//! of the catalogue's blob bytes, warmed in set-up) on loopback. `T`
//! closed-loop clients — the callers are downloader threads that each
//! wait for their reply — replay Zipf-shaped blob GETs drawn from the
//! hub's pull counts; every body is digest-checked. Before every
//! [`PREAMBLE_EVERY`]th blob a client does what a downloader does before
//! an image's layers: `GET /v2/` and the repository's manifest. The three
//! request kinds are timed separately (`op_ms`, `op_c_ms`, `op_b_ms`).
//! Nothing is inflated, hashed by the pipeline, or persisted.

use crate::corpus::SERVE_FILES;
use crate::host::{self, Calib};
use crate::stats;
use crate::{Ctx, RunResult};
use dhub_cache::{PullTrace, TraceConfig};
use dhub_mirror::{Mirror, MirrorConfig, PolicyKind};
use dhub_model::{Digest, RepoName};
use dhub_obs::MetricsRegistry;
use dhub_registry::{RegistryServer, RemoteRegistry, DEFAULT_MAX_CONNS};
use dhub_synth::{generate_hub, SyntheticHub};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Share of the catalogue's blob bytes the mirror may cache.
const CACHE_SHARE: f64 = 0.25;
/// Requests replayed in set-up so the measured phase starts at the
/// cache's steady state (each costs ~2 ms).
const WARM_REQUESTS: usize = 600;
/// Keeps the warm-up trace distinct from every client's.
pub const WARM_SEED: u64 = 0x5741_524D;
/// One ping and one manifest GET per this many blob pulls: eight is the
/// median image's layer count.
const PREAMBLE_EVERY: usize = 8;
/// Per-client cap on blob pulls: every request opens a fresh connection,
/// and the run (two clients, 1.25 requests per pull) must stay clear of
/// the 28 k ephemeral ports however fast a later server becomes.
const MAX_PULLS_PER_CLIENT: usize = 8_000;
/// Throughput is the median over windows of this length.
const WINDOW: Duration = Duration::from_millis(500);

/// One pullable blob: who owns it, its digest, its size, and the owning
/// repository's pull count as its popularity weight.
pub struct Target {
    pub repo: RepoName,
    pub digest: Digest,
    pub size: u64,
    pub pulls: u64,
}

/// Every layer of every anonymously pullable `latest` image.
pub fn targets(hub: &SyntheticHub) -> Vec<Target> {
    let mut out = Vec::new();
    for repo in &hub.truth.ok_repos {
        let Ok(sess) = hub.registry.get_manifest(repo, "latest", false) else {
            continue;
        };
        let pulls = hub.registry.pull_count(repo).unwrap_or(0);
        for l in &sess.manifest.layers {
            out.push(Target {
                repo: repo.clone(),
                digest: l.digest,
                size: l.size,
                pulls,
            });
        }
    }
    out
}

/// A Zipf-shaped sequence of target indices.
pub fn zipf_trace(targets: &[Target], seed: u64, requests: usize) -> Vec<usize> {
    let objects: Vec<(u64, f64, u64)> = targets
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u64, (t.pulls + 1) as f64, t.size.max(1)))
        .collect();
    PullTrace::from_popularity(&objects, &TraceConfig { seed, requests })
        .requests
        .iter()
        .map(|&(key, _)| key as usize)
        .collect()
}

/// Bytes of the distinct blobs among `targets`.
pub fn catalogue_bytes(targets: &[Target]) -> u64 {
    let mut seen = std::collections::BTreeSet::new();
    targets
        .iter()
        .filter(|t| seen.insert(t.digest))
        .map(|t| t.size)
        .sum()
}

/// The origins: two `RegistryServer`s over the hub, stopped on drop.
pub struct Rig {
    pub hub: SyntheticHub,
    pub targets: Vec<Target>,
    pub origins: Vec<RegistryServer>,
}

/// A cold mirror in front of a [`Rig`]'s origins, and its HTTP server.
pub struct Front {
    pub mirror: Arc<Mirror>,
    pub srv: RegistryServer,
}

fn io_err(e: std::io::Error) -> String {
    format!("start server: {e}")
}

impl Rig {
    pub fn start(hub: SyntheticHub) -> Result<Rig, String> {
        let targets = targets(&hub);
        if targets.is_empty() {
            return Err("hub has no pullable images".into());
        }
        let origins = (0..2)
            .map(|_| {
                let obs = Arc::new(MetricsRegistry::new());
                RegistryServer::start_full(hub.registry.clone(), None, obs, DEFAULT_MAX_CONNS)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(io_err)?;
        Ok(Rig {
            hub,
            targets,
            origins,
        })
    }

    /// Starts an empty mirror over the origins.
    pub fn front(&self) -> Result<Front, String> {
        let addrs: Vec<SocketAddr> = self.origins.iter().map(|o| o.addr()).collect();
        let cache_bytes = (catalogue_bytes(&self.targets) as f64 * CACHE_SHARE) as u64;
        let obs = Arc::new(MetricsRegistry::new());
        let mirror = Arc::new(Mirror::new(
            &addrs,
            MirrorConfig::new(cache_bytes.max(1), PolicyKind::Lru),
            obs.clone(),
        ));
        let srv =
            RegistryServer::start_mirror(mirror.clone(), obs, DEFAULT_MAX_CONNS).map_err(io_err)?;
        Ok(Front { mirror, srv })
    }
}

/// Pulls `trace` from `addr` with one client, discarding the bodies.
pub fn replay(addr: SocketAddr, targets: &[Target], trace: &[usize]) -> Result<(), String> {
    let client = RemoteRegistry::connect_anonymous(addr);
    for &i in trace {
        let t = &targets[i];
        client
            .get_blob(&t.repo, &t.digest)
            .map_err(|e| format!("pull: {e}"))?;
    }
    Ok(())
}

/// One completed blob pull, as a client saw it.
struct Pull {
    latency_ms: f64,
    bytes: u64,
    /// When it completed, since the shared start.
    done: Duration,
    ok: bool,
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    pulls: Vec<Pull>,
    ping_ms: Vec<f64>,
    manifest_ms: Vec<f64>,
    preamble_failures: u64,
}

fn client_loop(
    addr: SocketAddr,
    targets: &[Target],
    trace: &[usize],
    limit: Duration,
    max_pulls: usize,
    start: &Barrier,
) -> ClientLog {
    let client = RemoteRegistry::connect_anonymous(addr);
    let mut log = ClientLog::default();
    start.wait();
    let t0 = Instant::now();
    for (n, &i) in trace.iter().cycle().take(max_pulls).enumerate() {
        if t0.elapsed() >= limit {
            break;
        }
        let t = &targets[i];
        if n % PREAMBLE_EVERY == 0 {
            let sent = Instant::now();
            let pong = client.ping();
            log.ping_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            let sent = Instant::now();
            // The client verifies the manifest against its content digest.
            let manifest = client.get_manifest(&t.repo, "latest");
            log.manifest_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            log.preamble_failures += u64::from(pong.is_err()) + u64::from(manifest.is_err());
        }
        let sent = Instant::now();
        let body = client.get_blob(&t.repo, &t.digest);
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        let done = t0.elapsed();
        // Checked outside the timed interval: the body must hash to the
        // digest that was asked for.
        let (ok, bytes) = match &body {
            Ok(b) => (Digest::of(b) == t.digest, b.len() as u64),
            Err(_) => (false, 0),
        };
        log.pulls.push(Pull {
            latency_ms,
            bytes,
            done,
            ok,
        });
    }
    log
}

/// Median MiB/s over full [`WINDOW`]s of the measured phase, so one
/// stalled window does not move the rate.
fn windowed_mib_per_s(pulls: &[Pull], span: Duration) -> f64 {
    let windows = (span.as_nanos() / WINDOW.as_nanos()) as usize;
    if windows == 0 {
        let bytes: u64 = pulls.iter().map(|p| p.bytes).sum();
        return bytes as f64 / (1u64 << 20) as f64 / span.as_secs_f64().max(1e-9);
    }
    let mut per_window = vec![0u64; windows];
    for p in pulls {
        let w = (p.done.as_nanos() / WINDOW.as_nanos()) as usize;
        if w < windows {
            per_window[w] += p.bytes;
        }
    }
    let rates: Vec<f64> = per_window
        .iter()
        .map(|&b| b as f64 / (1u64 << 20) as f64 / WINDOW.as_secs_f64())
        .collect();
    stats::median(&rates)
}

/// Runs the serve workload end to end, untraced.
pub fn run(workload: &'static str, ctx: &Ctx) -> Result<RunResult, String> {
    let warm_requests = if ctx.quick { 100 } else { WARM_REQUESTS };
    let mut calib = Calib::default();
    calib.tick();
    let t = Instant::now();
    let rig = Rig::start(generate_hub(&SERVE_FILES.config(ctx.quick)))?;
    let front = rig.front()?;
    let warm = zipf_trace(&rig.targets, ctx.seed ^ WARM_SEED, warm_requests);
    replay(front.srv.addr(), &rig.targets, &warm)?;
    let setup_s = t.elapsed().as_secs_f64();

    let rss_reset = host::reset_peak_rss();
    let before = front.mirror.report();
    let (limit, max_pulls) = if ctx.quick {
        (Duration::from_secs(3600), 500 / ctx.threads.max(1))
    } else {
        (Duration::from_secs_f64(ctx.seconds), MAX_PULLS_PER_CLIENT)
    };
    calib.tick();
    let start = Barrier::new(ctx.threads);
    let addr = front.srv.addr();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.threads)
            .map(|c| {
                let trace = zipf_trace(&rig.targets, ctx.seed.wrapping_add(1 + c as u64), 20_000);
                let (targets, start) = (&rig.targets, &start);
                s.spawn(move || client_loop(addr, targets, &trace, limit, max_pulls, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    calib.tick();
    let peak_rss_mib = host::peak_rss_mib();
    let after = front.mirror.report();
    // Dropping the servers stops their accept loops and joins them.
    drop((front, rig));

    let span = logs
        .iter()
        .filter_map(|l| l.pulls.last().map(|p| p.done))
        .max()
        .unwrap_or(Duration::from_nanos(1));
    let (mut pulls, mut ping_ms, mut manifest_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0u64;
    for log in logs {
        pulls.extend(log.pulls);
        ping_ms.extend(log.ping_ms);
        manifest_ms.extend(log.manifest_ms);
        failed += log.preamble_failures;
    }
    let attempted = (pulls.len() + ping_ms.len() + manifest_ms.len()) as u64;
    failed += pulls.iter().filter(|p| !p.ok).count() as u64;
    let latencies: Vec<f64> = pulls.iter().map(|p| p.latency_ms).collect();
    let timing = stats::summarize(&latencies);
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let origin_bytes = after.miss_bytes - before.miss_bytes;
    let cache_bytes = after.hit_bytes - before.hit_bytes;

    let mut r = RunResult::new(workload, ctx, &calib);
    r.correct = failed == 0 && !pulls.is_empty();
    r.attempted = attempted;
    r.failed = failed;
    r.metric("setup_s", setup_s);
    r.metric("op_ms", timing.median);
    r.metric("op_hi_ms", timing.hi);
    r.metric("op_b_ms", stats::median(&manifest_ms));
    r.metric("op_c_ms", stats::median(&ping_ms));
    r.metric("mib_per_s", windowed_mib_per_s(&pulls, span));
    r.metric("ops_per_s", pulls.len() as f64 / span.as_secs_f64());
    // Bytes the mirror had to fetch from an origin per byte it served.
    r.metric(
        "physical_per_logical",
        origin_bytes as f64 / (origin_bytes + cache_bytes).max(1) as f64,
    );
    r.metric("peak_rss_mib", peak_rss_mib);
    r.timing = Some(timing);
    r.note("corpus", SERVE_FILES.name);
    r.note("rss_peak_reset_after_warmup", &rss_reset.to_string());
    r.note("clients", &ctx.threads.to_string());
    r.note("manifest_and_ping_samples", &ping_ms.len().to_string());
    r.note(
        "hit_ratio",
        &format!("{:.4}", hits as f64 / (hits + misses).max(1) as f64),
    );
    Ok(r)
}
