//! The pull-through mirror: cache + ring + failover + instrumentation.
//!
//! Request flow for an anonymous (cacheable) fetch:
//!
//! 1. **Cache lookup** — a hit serves bytes without touching any origin.
//! 2. **Single-flight** — concurrent misses on one key elect a leader; the
//!    followers park on the flight's condvar and share the leader's
//!    result (`dhub_mirror_coalesced_total` counts them).
//! 3. **Ring + failover** — the leader walks the consistent-hash ring
//!    order for the key: healthy shards first, down shards as a last
//!    resort. Each origin attempt rides the shard client's `dhub-faults`
//!    retry/backoff; transport-level failure after retries marks the
//!    shard (down after `down_after` consecutive failures) and moves on.
//!    A request served by a non-primary shard counts one
//!    `dhub_mirror_failovers_total`.
//! 4. **Admission** — fetched bytes are offered to the cache; the policy
//!    names its victims and their bytes drop with them.
//!
//! Credentialed requests bypass both the cache and single-flight: private
//! bytes never enter the shared cache, and the origin keeps enforcing its
//! auth policy on every fetch. Errors are never cached either.
//!
//! Every counter the mirror exposes is a [`DeltaCounter`] on the handed-in
//! registry, and [`Mirror::report`] is *derived from* those counters — so
//! the report, a snapshot, and the Prometheus exposition reconcile by
//! construction (asserted in the chaos suite).

use crate::cache::{LiveCache, PolicyKind};
use crate::ring::HashRing;
use dhub_digest::FxHashMap;
use dhub_faults::{fault_key, RetryPolicy};
use dhub_model::{Digest, RepoName};
use dhub_obs::{span, DeltaCounter, Gauge, MetricsRegistry};
use dhub_registry::{BackendError, ClientError, MirrorBackend, RemoteRegistry};
use dhub_sync::{Condvar, Mutex, Striped};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Weak};

/// Memoised manifest digests per lock stripe (of 16) before the stripe's
/// table is dropped and refilled.
const DIGEST_MEMO_MAX: usize = 4096;

/// Tuning for a [`Mirror`].
#[derive(Clone, Debug)]
pub struct MirrorConfig {
    /// Total cache byte budget.
    pub cache_bytes: u64,
    /// Replacement policy the live cache wraps.
    pub policy: PolicyKind,
    /// Lock stripes for the cache (rounded up to a power of two).
    pub stripes: usize,
    /// Virtual nodes per origin shard on the hash ring.
    pub vnodes: usize,
    /// Retry/backoff each origin client uses before the mirror fails over.
    pub retry: RetryPolicy,
    /// Consecutive transport failures before a shard is marked down.
    pub down_after: u32,
}

impl MirrorConfig {
    /// Defaults: 8 stripes, 32 vnodes, a fast bounded retry, down after 3.
    pub fn new(cache_bytes: u64, policy: PolicyKind) -> MirrorConfig {
        MirrorConfig {
            cache_bytes,
            policy,
            stripes: 8,
            vnodes: 32,
            retry: RetryPolicy::fast(4),
            down_after: 3,
        }
    }

    /// Overrides the origin retry policy (builder-style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> MirrorConfig {
        self.retry = retry;
        self
    }

    /// Overrides the down-after threshold (builder-style).
    pub fn with_down_after(mut self, n: u32) -> MirrorConfig {
        self.down_after = n.max(1);
        self
    }
}

/// Health tracking for one origin shard.
struct ShardHealth {
    up: AtomicBool,
    consecutive_failures: AtomicU32,
    down_after: u32,
    up_gauge: Gauge,
}

impl ShardHealth {
    fn new(down_after: u32, up_gauge: Gauge) -> ShardHealth {
        up_gauge.set(1.0);
        ShardHealth { up: AtomicBool::new(true), consecutive_failures: AtomicU32::new(0), down_after, up_gauge }
    }

    fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }

    fn mark_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        if !self.up.swap(true, Ordering::Relaxed) {
            self.up_gauge.set(1.0);
        }
    }

    fn mark_failure(&self) {
        let n = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= self.down_after && self.up.swap(false, Ordering::Relaxed) {
            self.up_gauge.set(0.0);
        }
    }
}

/// One origin registry on the ring: an anonymous client for cacheable
/// traffic, a token-dancing client for credentialed traffic, and health
/// state.
struct OriginShard {
    anon: RemoteRegistry,
    tokened: RemoteRegistry,
    health: ShardHealth,
}

/// A single-flight slot: followers park on the condvar until the leader
/// publishes the shared result.
struct Flight {
    state: Mutex<Option<Result<Arc<Vec<u8>>, BackendError>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight { state: Mutex::new(None), cv: Condvar::new() }
    }
}

/// The content digest of one cached manifest, kept so a hit does not
/// re-hash the body.
struct DigestMemo {
    /// The cached allocation `digest` was computed from. Being a `Weak` it
    /// pins the allocation's address, so a pointer match cannot be a later
    /// allocation that reused it.
    of: Weak<Vec<u8>>,
    digest: Digest,
}

struct MirrorCounters {
    requests: DeltaCounter,
    hits: DeltaCounter,
    misses: DeltaCounter,
    coalesced: DeltaCounter,
    hit_bytes: DeltaCounter,
    miss_bytes: DeltaCounter,
    evictions: DeltaCounter,
    failovers: DeltaCounter,
    origin_fetches: DeltaCounter,
    origin_errors: DeltaCounter,
}

impl MirrorCounters {
    fn on(reg: &MetricsRegistry) -> MirrorCounters {
        MirrorCounters {
            requests: DeltaCounter::on(reg, "dhub_mirror_requests_total"),
            hits: DeltaCounter::on(reg, "dhub_mirror_hits_total"),
            misses: DeltaCounter::on(reg, "dhub_mirror_misses_total"),
            coalesced: DeltaCounter::on(reg, "dhub_mirror_coalesced_total"),
            hit_bytes: DeltaCounter::on(reg, "dhub_mirror_hit_bytes_total"),
            miss_bytes: DeltaCounter::on(reg, "dhub_mirror_miss_bytes_total"),
            evictions: DeltaCounter::on(reg, "dhub_mirror_evictions_total"),
            failovers: DeltaCounter::on(reg, "dhub_mirror_failovers_total"),
            origin_fetches: DeltaCounter::on(reg, "dhub_mirror_origin_fetches_total"),
            origin_errors: DeltaCounter::on(reg, "dhub_mirror_origin_errors_total"),
        }
    }
}

/// The mirror tier's view of its own traffic, derived from the
/// `dhub_mirror_*` counters (delta since this mirror was built).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MirrorReport {
    /// Cacheable requests entering the mirror.
    pub requests: u64,
    /// Served straight from cache.
    pub hits: u64,
    /// Leader fetches that had to go to origin.
    pub misses: u64,
    /// Followers that shared a leader's in-flight fetch.
    pub coalesced: u64,
    /// Bytes served from cache.
    pub hit_bytes: u64,
    /// Bytes fetched from origin on misses.
    pub miss_bytes: u64,
    /// Cache victims dropped to make room.
    pub evictions: u64,
    /// Requests served by a non-primary shard.
    pub failovers: u64,
    /// Individual origin attempts (any shard).
    pub origin_fetches: u64,
    /// Origin attempts that failed after client-level retries.
    pub origin_errors: u64,
}

impl MirrorReport {
    /// Cache hit ratio over cacheable requests that resolved locally or at
    /// origin (followers excluded — they share a leader's outcome).
    pub fn hit_ratio(&self) -> f64 {
        let resolved = self.hits + self.misses;
        if resolved == 0 {
            0.0
        } else {
            self.hits as f64 / resolved as f64
        }
    }
}

/// A live pull-through mirror over N origin registries.
pub struct Mirror {
    origins: Vec<OriginShard>,
    ring: HashRing,
    cache: LiveCache,
    flights: Striped<FxHashMap<u64, Arc<Flight>>>,
    manifest_digests: Striped<FxHashMap<u64, DigestMemo>>,
    counters: MirrorCounters,
    cached_bytes_gauge: Gauge,
    obs: Arc<MetricsRegistry>,
}

impl Mirror {
    /// Builds a mirror over `origins` (one ring shard each), recording
    /// into `obs`. Shards start healthy.
    pub fn new(origins: &[SocketAddr], config: MirrorConfig, obs: Arc<MetricsRegistry>) -> Mirror {
        assert!(!origins.is_empty(), "a mirror needs at least one origin");
        let shards = origins
            .iter()
            .enumerate()
            .map(|(i, &addr)| OriginShard {
                anon: RemoteRegistry::connect_anonymous(addr).with_retry_policy(config.retry),
                tokened: RemoteRegistry::connect(addr).with_retry_policy(config.retry),
                health: ShardHealth::new(
                    config.down_after,
                    obs.gauge(&format!("dhub_mirror_origin_up_{i}")),
                ),
            })
            .collect();
        Mirror {
            origins: shards,
            ring: HashRing::new(origins.len(), config.vnodes),
            cache: LiveCache::new(config.cache_bytes, config.policy, config.stripes),
            flights: Striped::new(16, FxHashMap::default),
            manifest_digests: Striped::new(16, FxHashMap::default),
            counters: MirrorCounters::on(&obs),
            cached_bytes_gauge: obs.gauge("dhub_mirror_cached_bytes"),
            obs,
        }
    }

    /// Per-shard health, in shard order.
    pub fn origin_health(&self) -> Vec<bool> {
        self.origins.iter().map(|o| o.health.is_up()).collect()
    }

    /// Bytes currently cached.
    pub fn cached_bytes(&self) -> u64 {
        self.cache.used_bytes()
    }

    /// The traffic report, derived from the `dhub_mirror_*` counters.
    pub fn report(&self) -> MirrorReport {
        MirrorReport {
            requests: self.counters.requests.delta(),
            hits: self.counters.hits.delta(),
            misses: self.counters.misses.delta(),
            coalesced: self.counters.coalesced.delta(),
            hit_bytes: self.counters.hit_bytes.delta(),
            miss_bytes: self.counters.miss_bytes.delta(),
            evictions: self.counters.evictions.delta(),
            failovers: self.counters.failovers.delta(),
            origin_fetches: self.counters.origin_fetches.delta(),
            origin_errors: self.counters.origin_errors.delta(),
        }
    }

    /// Walks the failover order for `key` — healthy shards in ring order,
    /// then down shards as a last resort — running `f` against each
    /// shard's client until one succeeds. Content verdicts (not found /
    /// auth required) return immediately: the shard answered, the answer
    /// is just "no". Transport failure after the client's own retries
    /// marks the shard and moves on.
    fn with_failover<T>(
        &self,
        key: u64,
        authed: bool,
        f: impl Fn(&RemoteRegistry) -> Result<T, ClientError>,
    ) -> Result<T, BackendError> {
        let order = self.ring.route(key);
        let primary = order[0];
        let healthy: Vec<usize> = order.iter().copied().filter(|&i| self.origins[i].health.is_up()).collect();
        let down: Vec<usize> = order.iter().copied().filter(|&i| !self.origins[i].health.is_up()).collect();
        let mut last = BackendError::Unavailable;
        for &i in healthy.iter().chain(down.iter()) {
            let shard = &self.origins[i];
            let client = if authed { &shard.tokened } else { &shard.anon };
            self.counters.origin_fetches.inc();
            let _span = span!(&self.obs, "mirror_origin_fetch", format!("{key:016x}/s{i}"));
            match f(client) {
                Ok(v) => {
                    shard.health.mark_success();
                    if i != primary {
                        self.counters.failovers.inc();
                    }
                    return Ok(v);
                }
                Err(ClientError::AuthRequired) => {
                    shard.health.mark_success();
                    return Err(BackendError::AuthRequired);
                }
                Err(ClientError::NotFound) => {
                    shard.health.mark_success();
                    return Err(BackendError::NotFound);
                }
                Err(e) => {
                    self.counters.origin_errors.inc();
                    shard.health.mark_failure();
                    last = match e {
                        ClientError::RateLimited => BackendError::RateLimited,
                        _ => BackendError::Unavailable,
                    };
                }
            }
        }
        Err(last)
    }

    /// The cache + single-flight front half for anonymous fetches.
    /// `fetch` runs at most once per concurrent group of requests.
    fn fetch_cached(
        &self,
        key: u64,
        fetch: impl Fn() -> Result<Vec<u8>, BackendError>,
    ) -> Result<Arc<Vec<u8>>, BackendError> {
        self.counters.requests.inc();
        if let Some(bytes) = self.cache.lookup(key) {
            self.counters.hits.inc();
            self.counters.hit_bytes.add(bytes.len() as u64);
            return Ok(bytes);
        }

        // Miss: join or lead the flight for this key.
        let (flight, leader) = {
            let mut flights = self.flights.stripe(key).lock();
            match flights.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight::new());
                    flights.insert(key, Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if !leader {
            self.counters.coalesced.inc();
            let mut state = flight.state.lock();
            while state.is_none() {
                state = flight.cv.wait(state);
            }
            return state.clone().expect("leader published");
        }

        // Leader. Re-check the cache: a previous flight may have admitted
        // the key between our lookup and our flight registration.
        let result = match self.cache.lookup(key) {
            Some(bytes) => {
                self.counters.hits.inc();
                self.counters.hit_bytes.add(bytes.len() as u64);
                Ok(bytes)
            }
            None => {
                self.counters.misses.inc();
                let fetched = fetch().map(Arc::new);
                if let Ok(bytes) = &fetched {
                    self.counters.miss_bytes.add(bytes.len() as u64);
                    let outcome = self.cache.admit(key, Arc::clone(bytes));
                    self.counters.evictions.add(outcome.evicted);
                    self.cached_bytes_gauge.set(self.cache.used_bytes() as f64);
                }
                fetched
            }
        };

        // Publish to the followers, then retire the flight.
        {
            let mut state = flight.state.lock();
            *state = Some(result.clone());
            flight.cv.notify_all();
        }
        self.flights.stripe(key).lock().remove(&key);
        result
    }

    fn manifest_key(repo: &RepoName, reference: &str) -> u64 {
        fault_key(format!("manifest:{}:{reference}", repo.full()).as_bytes())
    }

    fn blob_key(digest: &Digest) -> u64 {
        fault_key(format!("blob:{}", digest.to_docker_string()).as_bytes())
    }

    /// `Digest::of(bytes)` for the manifest cached under `key`, hashed
    /// once per cached copy: hits hand out the cache's own `Arc`, so the
    /// memo answers for exactly the allocation it was computed from and a
    /// refetched manifest (new allocation, maybe new content) is re-hashed.
    fn manifest_digest(&self, key: u64, bytes: &Arc<Vec<u8>>) -> Digest {
        let mut memo = self.manifest_digests.stripe(key).lock();
        if let Some(m) = memo.get(&key) {
            if m.of.as_ptr() == Arc::as_ptr(bytes) {
                return m.digest;
            }
        }
        let digest = Digest::of(bytes);
        // Entries outlive their manifest's eviction, so the table is
        // bounded by being dropped whole; the next hits refill it.
        if memo.len() >= DIGEST_MEMO_MAX {
            memo.clear();
        }
        memo.insert(key, DigestMemo { of: Arc::downgrade(bytes), digest });
        digest
    }
}

impl MirrorBackend for Mirror {
    /// Anonymous manifests are cached as their canonical `to_json` bytes
    /// (the client already verified the wire digest against them, so
    /// `Digest::of(bytes)` *is* the manifest digest). Credentialed
    /// requests go straight to origin — private content never enters the
    /// shared cache.
    fn fetch_manifest(
        &self,
        repo: &RepoName,
        reference: &str,
        authed: bool,
    ) -> Result<(Digest, Arc<Vec<u8>>), BackendError> {
        let key = Mirror::manifest_key(repo, reference);
        if authed {
            let (digest, manifest) =
                self.with_failover(key, true, |c| c.get_manifest(repo, reference))?;
            return Ok((digest, Arc::new(manifest.to_json().into_bytes())));
        }
        let bytes = self.fetch_cached(key, || {
            self.with_failover(key, false, |c| c.get_manifest(repo, reference))
                .map(|(_, manifest)| manifest.to_json().into_bytes())
        })?;
        Ok((self.manifest_digest(key, &bytes), bytes))
    }

    /// Blobs are content-addressed, so cached bytes are verified by
    /// construction (the origin client re-hashes every fetch). Same
    /// credentialed bypass as manifests. A hit hands out the cache's own
    /// `Arc`; nothing is copied.
    fn fetch_blob(
        &self,
        repo: &RepoName,
        digest: &Digest,
        authed: bool,
    ) -> Result<Arc<Vec<u8>>, BackendError> {
        let key = Mirror::blob_key(digest);
        if authed {
            return self.with_failover(key, true, |c| c.get_blob(repo, digest)).map(Arc::new);
        }
        self.fetch_cached(key, || self.with_failover(key, false, |c| c.get_blob(repo, digest)))
    }

    /// Tag listings are mutable metadata, so they pass through uncached.
    fn tags(&self, repo: &RepoName, authed: bool) -> Result<Vec<String>, BackendError> {
        let key = fault_key(format!("tags:{}", repo.full()).as_bytes());
        self.with_failover(key, authed, |c| c.tags(repo))
    }
}
