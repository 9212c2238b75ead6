//! The registry over HTTP: `pull` and `tags` as a client of a served hub,
//! `serve` as an origin or a pull-through mirror.

use super::*;
use dhub_model::RepoName;
use dhub_registry::{RegistryServer, RemoteRegistry, DEFAULT_MAX_CONNS};

/// Serves the generated hub on a loopback port and connects a client, so
/// `pull` and `tags` go over the real HTTP wire like the paper's
/// downloader (faulted by `--fault-rate`, retried under `--max-retries`).
/// The server records into the returned registry: `--metrics` shows the
/// wire counters (`dhub_http_*`) the command generated.
fn serve_and_connect(
    args: &Parsed,
    out: &mut impl Write,
) -> Result<(RegistryServer, RemoteRegistry, Arc<MetricsRegistry>), BoxError> {
    let (injector, policy) = fault_setup(args)?;
    let hub = hub_for(args, out)?;
    let obs = Arc::new(MetricsRegistry::new());
    let server =
        RegistryServer::start_full(hub.registry.clone(), injector, obs.clone(), DEFAULT_MAX_CONNS)?;
    let client = RemoteRegistry::connect(server.addr()).with_retry_policy(policy);
    Ok((server, client, obs))
}

pub(super) fn cmd_pull(args: &Parsed, out: &mut impl Write) -> CmdResult {
    let repo_name = args.pos(0).ok_or("usage: dhub pull <repo> [tag]")?;
    let tag = args.pos(1).unwrap_or("latest");
    let repo = RepoName::parse(repo_name).ok_or("bad repository name")?;
    let (server, client, obs) = serve_and_connect(args, out)?;
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

pub(super) fn cmd_tags(args: &Parsed, out: &mut impl Write) -> CmdResult {
    let repo_name = args.pos(0).ok_or("usage: dhub tags <repo>")?;
    let repo = RepoName::parse(repo_name).ok_or("bad repository name")?;
    let (server, client, obs) = serve_and_connect(args, out)?;
    for tag in client.tags(&repo)? {
        writeln!(out, "{tag}")?;
    }
    server.shutdown();
    emit_metrics(args, &obs, out)
}

pub(super) fn cmd_serve(args: &Parsed, out: &mut impl Write) -> CmdResult {
    let mirror_of = args.str("mirror-of", "");
    let server = if mirror_of.is_empty() {
        // Direct origin mode; --fault-rate makes it a flaky upstream worth
        // putting a mirror in front of.
        let (injector, _) = fault_setup(args)?;
        let hub = hub_for(args, out)?;
        RegistryServer::start_with_faults(hub.registry.clone(), injector)?
    } else {
        // Pull-through mirror mode: no local hub, every object comes from
        // the comma-separated origin shards (DESIGN.md §6e).
        let origins = mirror_of.split(',').map(|part| {
            part.trim().parse::<std::net::SocketAddr>().map_err(|_| {
                crate::ArgError::BadValue { key: "mirror-of".into(), value: part.trim().into() }
            })
        });
        let origins = origins.collect::<Result<Vec<_>, _>>()?;
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
        let server = RegistryServer::start_mirror(mirror, obs, DEFAULT_MAX_CONNS)?;
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
