//! End-to-end tests for the pull-through mirror tier: real TCP origins,
//! single-flight coalescing, ring failover with a dead shard, the
//! credentialed-bypass rule, and exact reconciliation of the
//! `dhub_mirror_*` counters against the report and the Prometheus
//! exposition a mirror-mode server scrapes out.

use dhub_faults::{FaultConfig, FaultInjector, FaultKind, RetryPolicy};
use dhub_mirror::{Mirror, MirrorConfig, PolicyKind};
use dhub_model::{Digest, LayerRef, Manifest, RepoName};
use dhub_obs::MetricsRegistry;
use dhub_registry::http::{read_response, Request};
use dhub_registry::{BackendError, MirrorBackend, Registry, RegistryServer, RemoteRegistry};
use std::collections::BTreeMap;
use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// An origin registry with `n` public repos (one blob each) plus one
/// auth-required repo.
fn origin_registry(n: usize) -> Arc<Registry> {
    let reg = Registry::new();
    for i in 0..n {
        let repo = RepoName::official(&format!("repo{i}"));
        reg.create_repo(repo.clone(), false);
        let blob = format!("blob-bytes-{i}").into_bytes();
        let manifest =
            Manifest::new(vec![LayerRef { digest: Digest::of(&blob), size: blob.len() as u64 }]);
        reg.push_image(&repo, "latest", &manifest, vec![blob]).unwrap();
    }
    let private = RepoName::user("corp", "secret");
    reg.create_repo(private.clone(), true);
    let pblob = b"private-bytes".to_vec();
    let pm = Manifest::new(vec![LayerRef { digest: Digest::of(&pblob), size: pblob.len() as u64 }]);
    reg.push_image(&private, "latest", &pm, vec![pblob]).unwrap();
    Arc::new(reg)
}

fn manifest_for(reg: &Registry, name: &str) -> (RepoName, Manifest) {
    let repo = RepoName::official(name);
    let sess = reg.get_manifest(&repo, "latest", false).unwrap();
    (repo, sess.manifest.clone())
}

fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line:?}"));
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("non-numeric in {line:?}"));
        out.insert(name.to_string(), value);
    }
    out
}

#[test]
fn mirror_serves_origin_objects_and_caches_them() {
    let reg = origin_registry(3);
    let origin = RegistryServer::start(reg.clone()).unwrap();
    let obs = Arc::new(MetricsRegistry::new());
    let mirror = Mirror::new(
        &[origin.addr()],
        MirrorConfig::new(1 << 20, PolicyKind::Lru),
        obs.clone(),
    );

    let (repo, manifest) = manifest_for(&reg, "repo0");
    let (digest, bytes) = mirror.fetch_manifest(&repo, "latest", false).unwrap();
    assert_eq!(digest, Digest::of(&bytes));
    assert_eq!(Manifest::from_json(std::str::from_utf8(&bytes).unwrap()).unwrap(), manifest);

    let layer = &manifest.layers[0];
    let blob = mirror.fetch_blob(&repo, &layer.digest, false).unwrap();
    assert_eq!(Digest::of(&blob), layer.digest);

    // Second round: both served from cache, origin untouched.
    let fetches_before = mirror.report().origin_fetches;
    let (digest_again, bytes_again) = mirror.fetch_manifest(&repo, "latest", false).unwrap();
    let blob_again = mirror.fetch_blob(&repo, &layer.digest, false).unwrap();
    // A hit hands out the cache's own allocation, and the digest kept
    // with it — not a copy of the bytes, re-hashed.
    assert!(Arc::ptr_eq(&bytes, &bytes_again) && Arc::ptr_eq(&blob, &blob_again));
    assert_eq!(digest_again, digest);
    let r = mirror.report();
    assert_eq!(r.origin_fetches, fetches_before, "warm hits must not touch origin");
    assert_eq!(r.hits, 2);
    assert_eq!(r.misses, 2);
    assert_eq!(r.requests, r.hits + r.misses + r.coalesced);
    assert!(r.hit_bytes > 0 && r.miss_bytes > 0);
}

#[test]
fn concurrent_misses_coalesce_into_one_origin_fetch() {
    let reg = origin_registry(1);
    // Every origin request stalls 300 ms: a wide window for the follower
    // threads to pile onto the leader's flight.
    let slow = FaultInjector::new(
        FaultConfig::only(7, 1.0, FaultKind::SlowLink).with_slow_link(Duration::from_millis(300)),
    );
    let origin = RegistryServer::start_with_faults(reg.clone(), Some(Arc::new(slow))).unwrap();
    let obs = Arc::new(MetricsRegistry::new());
    let mirror = Arc::new(Mirror::new(
        &[origin.addr()],
        MirrorConfig::new(1 << 20, PolicyKind::Lru),
        obs.clone(),
    ));

    let (repo, manifest) = manifest_for(&reg, "repo0");
    let digest = manifest.layers[0].digest;
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let m = Arc::clone(&mirror);
            let repo = repo.clone();
            std::thread::spawn(move || m.fetch_blob(&repo, &digest, false).unwrap())
        })
        .collect();
    let blobs: Vec<Arc<Vec<u8>>> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    for b in &blobs {
        assert_eq!(Digest::of(b), digest);
    }

    let r = mirror.report();
    assert_eq!(r.misses, 1, "one leader");
    assert_eq!(r.coalesced, 3, "three followers");
    assert_eq!(r.origin_fetches, 1, "exactly one origin round-trip");
    assert_eq!(r.requests, 4);
    assert_eq!(r.requests, r.hits + r.misses + r.coalesced);
}

#[test]
fn dead_shard_fails_over_and_is_marked_down() {
    let reg = origin_registry(12);
    let origin_live = RegistryServer::start(reg.clone()).unwrap();
    let origin_dead = RegistryServer::start(reg.clone()).unwrap();
    let dead_addr = origin_dead.addr();
    origin_dead.shutdown(); // permanent connection-refused on this address

    let obs = Arc::new(MetricsRegistry::new());
    let mirror = Mirror::new(
        &[dead_addr, origin_live.addr()],
        MirrorConfig::new(1 << 20, PolicyKind::Gdsf)
            .with_retry(RetryPolicy::fast(1).with_seed(7))
            .with_down_after(2),
        obs.clone(),
    );
    assert_eq!(mirror.origin_health(), vec![true, true]);

    // Every object must still serve; keys whose primary is the dead shard
    // exercise failover.
    for i in 0..12 {
        let (repo, manifest) = manifest_for(&reg, &format!("repo{i}"));
        let (_, bytes) = mirror.fetch_manifest(&repo, "latest", false).unwrap();
        assert!(!bytes.is_empty());
        let blob = mirror.fetch_blob(&repo, &manifest.layers[0].digest, false).unwrap();
        assert_eq!(Digest::of(&blob), manifest.layers[0].digest);
    }

    let r = mirror.report();
    assert!(r.failovers > 0, "some primaries must have been the dead shard");
    assert!(r.origin_errors > 0);
    assert_eq!(mirror.origin_health(), vec![false, true], "dead shard marked down");
    assert_eq!(obs.gauge_value("dhub_mirror_origin_up_0"), 0.0);
    assert_eq!(obs.gauge_value("dhub_mirror_origin_up_1"), 1.0);
    // Every request still resolved exactly once.
    assert_eq!(r.requests, r.hits + r.misses + r.coalesced);
}

/// A shard that dies *after* serving traffic leaves the mirror holding
/// kept-alive connections to it. Those must die with it: the next fetch
/// fails over and the shard is marked down, instead of a detached handler
/// on the "dead" origin answering on.
#[test]
fn shard_killed_after_serving_fails_over() {
    let reg = origin_registry(24);
    let served = [(); 2].map(|_| Arc::new(MetricsRegistry::new()));
    let [doomed, live] = served.clone().map(|m| {
        RegistryServer::start_full(reg.clone(), None, m, dhub_registry::DEFAULT_MAX_CONNS).unwrap()
    });
    let mirror = Mirror::new(
        &[doomed.addr(), live.addr()],
        MirrorConfig::new(1 << 20, PolicyKind::Lru)
            .with_retry(RetryPolicy::fast(1).with_seed(7))
            .with_down_after(2),
        Arc::new(MetricsRegistry::new()),
    );
    let pull = |i: usize| {
        let (repo, manifest) = manifest_for(&reg, &format!("repo{i}"));
        mirror.fetch_manifest(&repo, "latest", false).unwrap();
        let blob = mirror.fetch_blob(&repo, &manifest.layers[0].digest, false).unwrap();
        assert_eq!(Digest::of(&blob), manifest.layers[0].digest);
    };

    (0..12).for_each(pull);
    let before: Vec<u64> = served.iter().map(|m| m.counter_value("dhub_http_requests_total")).collect();
    assert!(before.iter().all(|&n| n > 0), "both shards served the first half: {before:?}");
    assert_eq!(mirror.report().failovers, 0);

    doomed.shutdown();
    (12..24).for_each(pull);
    assert_eq!(
        served[0].counter_value("dhub_http_requests_total"),
        before[0],
        "the killed shard answered after shutdown"
    );
    assert!(mirror.report().failovers > 0);
    assert_eq!(mirror.origin_health(), vec![false, true], "killed shard marked down");
}

#[test]
fn credentialed_requests_bypass_the_shared_cache() {
    let reg = origin_registry(1);
    let origin = RegistryServer::start(reg.clone()).unwrap();
    let obs = Arc::new(MetricsRegistry::new());
    let mirror = Mirror::new(
        &[origin.addr()],
        MirrorConfig::new(1 << 20, PolicyKind::Lru),
        obs.clone(),
    );

    let private = RepoName::user("corp", "secret");
    // Anonymous: origin's 401 propagates as AuthRequired, nothing cached.
    assert_eq!(
        mirror.fetch_manifest(&private, "latest", false).unwrap_err(),
        BackendError::AuthRequired
    );
    assert_eq!(mirror.cached_bytes(), 0, "errors are never cached");

    // Credentialed: served via the token dance, still nothing cached.
    let (digest, bytes) = mirror.fetch_manifest(&private, "latest", true).unwrap();
    assert_eq!(digest, Digest::of(&bytes));
    let manifest = Manifest::from_json(std::str::from_utf8(&bytes).unwrap()).unwrap();
    let blob = mirror.fetch_blob(&private, &manifest.layers[0].digest, true).unwrap();
    assert_eq!(*blob, b"private-bytes");
    assert_eq!(mirror.cached_bytes(), 0, "private bytes never enter the shared cache");
}

#[test]
fn eviction_keeps_live_cache_inside_budget() {
    let reg = origin_registry(30);
    let origin = RegistryServer::start(reg.clone()).unwrap();
    let obs = Arc::new(MetricsRegistry::new());
    // Tiny budget: 2 stripes, forcing evictions as 30 blobs pull through.
    let mut cfg = MirrorConfig::new(128, PolicyKind::Lru);
    cfg.stripes = 2;
    let mirror = Mirror::new(&[origin.addr()], cfg, obs.clone());

    for i in 0..30 {
        let (repo, manifest) = manifest_for(&reg, &format!("repo{i}"));
        mirror.fetch_blob(&repo, &manifest.layers[0].digest, false).unwrap();
        assert!(mirror.cached_bytes() <= 128, "budget exceeded");
    }
    assert!(mirror.report().evictions > 0, "evictions must have fired");
}

#[test]
fn mirror_server_reconciles_report_snapshot_and_exposition() {
    let reg = origin_registry(6);
    let origin = RegistryServer::start(reg.clone()).unwrap();
    let obs = Arc::new(MetricsRegistry::new());
    let mirror = Arc::new(Mirror::new(
        &[origin.addr()],
        MirrorConfig::new(1 << 20, PolicyKind::Lfu),
        obs.clone(),
    ));
    let front =
        RegistryServer::start_mirror(mirror.clone(), obs.clone(), dhub_registry::DEFAULT_MAX_CONNS)
            .unwrap();

    // Pull everything through the mirror over real TCP, twice (cold+warm).
    let client = RemoteRegistry::connect_anonymous(front.addr());
    for _round in 0..2 {
        for i in 0..6 {
            let repo = RepoName::official(&format!("repo{i}"));
            let (digest, manifest) = client.get_manifest(&repo, "latest").unwrap();
            assert_eq!(digest, manifest.digest());
            let blob = client.get_blob(&repo, &manifest.layers[0].digest).unwrap();
            assert_eq!(Digest::of(&blob), manifest.layers[0].digest);
        }
    }

    let r = mirror.report();
    assert_eq!(r.requests, 24, "6 manifests + 6 blobs, two rounds");
    assert_eq!(r.hits + r.misses + r.coalesced, r.requests);
    assert_eq!(r.misses, 12, "cold round misses everything");
    assert_eq!(r.hits, 12, "warm round hits everything");
    // One client, sequential pulls: the front saw one connection, reused.
    assert_eq!(obs.counter_value("dhub_http_requests_total"), 24);
    assert_eq!(obs.counter_value("dhub_http_connections_total"), 1);

    // Report == registry counters == snapshot == Prometheus exposition.
    let checks: [(&str, u64); 10] = [
        ("dhub_mirror_requests_total", r.requests),
        ("dhub_mirror_hits_total", r.hits),
        ("dhub_mirror_misses_total", r.misses),
        ("dhub_mirror_coalesced_total", r.coalesced),
        ("dhub_mirror_hit_bytes_total", r.hit_bytes),
        ("dhub_mirror_miss_bytes_total", r.miss_bytes),
        ("dhub_mirror_evictions_total", r.evictions),
        ("dhub_mirror_failovers_total", r.failovers),
        ("dhub_mirror_origin_fetches_total", r.origin_fetches),
        ("dhub_mirror_origin_errors_total", r.origin_errors),
    ];
    let snap = obs.snapshot();
    let exposition = parse_exposition(&client.metrics_text().unwrap());
    for (name, want) in checks {
        assert_eq!(obs.counter_value(name), want, "{name} vs report");
        assert_eq!(snap.counter(name), want, "{name} vs snapshot");
        assert_eq!(exposition.get(name).copied(), Some(want as f64), "{name} vs exposition");
    }
    assert_eq!(exposition.get("dhub_mirror_origin_up_0").copied(), Some(1.0));
    front.shutdown();
}

/// An origin server and a mirror-mode server fronting it.
fn origin_and_mirror(reg: &Arc<Registry>) -> (RegistryServer, RegistryServer) {
    let origin = RegistryServer::start(reg.clone()).unwrap();
    let obs = Arc::new(MetricsRegistry::new());
    let mirror =
        Arc::new(Mirror::new(&[origin.addr()], MirrorConfig::new(1 << 20, PolicyKind::Lru), obs.clone()));
    let front =
        RegistryServer::start_mirror(mirror, obs, dhub_registry::DEFAULT_MAX_CONNS).unwrap();
    (origin, front)
}

/// Origin and mirror answer through one endpoint set: the same raw request
/// gets the same status, protocol headers and body from either tier.
#[test]
fn origin_and_mirror_answer_alike() {
    let reg = origin_registry(2);
    let (origin, front) = origin_and_mirror(&reg);
    let (_, manifest) = manifest_for(&reg, "repo0");
    let private = reg.get_manifest(&RepoName::user("corp", "secret"), "latest", true).unwrap();
    let private_blob = private.manifest.layers[0].digest;
    let non_ascii_digest = format!("sha256:a\u{e9}{}", "0".repeat(61));

    // (method, target, with the demo token)
    let mut requests: Vec<(&str, String, bool)> = [
        "/v2/".to_string(),
        "/v2/repo0/manifests/latest".into(),
        format!("/v2/repo0/manifests/{}", manifest.digest()),
        format!("/v2/repo0/blobs/{}", manifest.layers[0].digest),
        "/v2/repo0/tags/list".into(),
        "/v2/ghost/manifests/latest".into(),
        "/v2/ghost/tags/list".into(),
        "/v2/repo0/manifests/v9".into(),
        format!("/v2/repo0/blobs/{}", Digest::of(b"no such blob")),
        format!("/v2/repo0/blobs/{non_ascii_digest}"),
        "/v2/repo0/blobs/sha256:zz".into(),
        "/v2/a/b/c/tags/list".into(),
        "/elsewhere".into(),
    ]
    .map(|target| ("GET", target, false))
    .into();
    for target in [
        "/v2/corp/secret/manifests/latest".to_string(),
        format!("/v2/corp/secret/blobs/{private_blob}"),
        "/v2/corp/secret/blobs/sha256:zz".into(),
        "/v2/corp/secret/tags/list".into(),
    ] {
        requests.push(("GET", target.clone(), false));
        requests.push(("GET", target, true));
    }
    requests.push(("DELETE", "/v2/repo0/manifests/latest".into(), false));

    let mut statuses = Vec::new();
    for (method, target, token) in &requests {
        let [o, m] = [origin.addr(), front.addr()].map(|addr| {
            let mut req = Request::get(target).with_header("connection", "close");
            req.method = method.to_string();
            if *token {
                req = req.with_header("authorization", "Bearer dhub-demo-token");
            }
            let mut stream = TcpStream::connect(addr).unwrap();
            req.write_to(&mut stream).unwrap();
            read_response(&mut BufReader::new(stream)).unwrap()
        });
        let what = format!("{method} {target} (token: {token})");
        assert_eq!(o.status, m.status, "{what}: status");
        for h in
            ["content-type", "docker-content-digest", "www-authenticate", "docker-distribution-api-version"]
        {
            assert_eq!(o.header(h), m.header(h), "{what}: header {h}");
        }
        assert_eq!(String::from_utf8_lossy(&o.body), String::from_utf8_lossy(&m.body), "{what}: body");
        statuses.push(o.status);
    }
    // The set covers each kind of answer, not 22 spellings of one.
    for status in [200, 401, 404, 405] {
        assert!(statuses.contains(&status), "no request answered {status}: {statuses:?}");
    }
    front.shutdown();
    origin.shutdown();
}

/// Two requests written back to back on one connection get two responses,
/// in order: bytes the server read past the first request are not dropped.
#[test]
fn pipelined_requests_are_both_answered() {
    let reg = origin_registry(1);
    let (origin, front) = origin_and_mirror(&reg);
    for (tier, addr) in [("origin", origin.addr()), ("mirror", front.addr())] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream
            .write_all(
                b"GET /v2/ HTTP/1.1\r\nhost: x\r\n\r\n\
                  GET /v2/repo0/tags/list HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
            )
            .unwrap();
        let mut reader = BufReader::new(stream);
        let first = read_response(&mut reader).unwrap_or_else(|e| panic!("{tier}: first: {e}"));
        assert_eq!(*first.body, b"{}", "{tier}: the ping comes back first");
        let second = read_response(&mut reader).unwrap_or_else(|e| panic!("{tier}: second: {e}"));
        assert_eq!(second.status, 200, "{tier}");
        assert!(String::from_utf8_lossy(&second.body).contains("latest"), "{tier}");
    }
    front.shutdown();
    origin.shutdown();
}
