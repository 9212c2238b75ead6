//! Registry V2 HTTP client — the transport the paper's downloader used.
//!
//! [`RemoteRegistry`] mirrors the in-process [`crate::Registry`] read API
//! (manifest/blob/tags) over TCP, including the token dance: on a `401`
//! challenge it fetches a bearer token from the advertised realm and
//! retries once, exactly as `docker pull` does.
//!
//! Connections are kept alive: a client holds a small pool of idle ones
//! and a request rides a pooled connection when there is one. A connection
//! goes back to the pool only after a complete response that does not say
//! `connection: close`; after anything else — an error, a truncated body,
//! a dropped connection, a shed 503 — it is discarded and the error goes
//! to the retry loop like any other. A request is never silently re-sent:
//! the server's fault plan counts attempts per request key, so a hidden
//! resend would make `retries` disagree with the plan.

use crate::http::server::IDLE_TIMEOUT;
use crate::http::wire::{read_response, Request, Response, WireError};
use dhub_faults::{fault_key, RetryClass, RetryEvent, RetryPolicy};
use dhub_model::{Digest, Manifest, RepoName};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Idle connections a client keeps; one returned to a full pool is closed.
const POOL_MAX_IDLE: usize = 8;

/// A pooled connection idle for this long is closed, not reused.
const POOL_IDLE_LIMIT: Duration = Duration::from_secs(2);

// Strictly below the server's idle timeout, so a client never writes a
// request into a connection the server has already timed out and closed.
const _: () = assert!(POOL_IDLE_LIMIT.as_millis() < IDLE_TIMEOUT.as_millis());

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    Wire(WireError),
    /// Server said 401 and the token retry also failed.
    AuthRequired,
    /// 404 family.
    NotFound,
    /// HTTP 429 — backed off by the registry's rate limiter.
    RateLimited,
    /// HTTP 5xx — transient server-side failure.
    Unavailable,
    /// Manifest body failed verification (unparseable, or its content
    /// digest disagrees with the `Docker-Content-Digest` header).
    CorruptManifest,
    /// Blob bytes do not hash to the digest they were requested by.
    CorruptBlob,
    /// 401 served to a request carrying a freshly issued token — the auth
    /// state flapped server-side (mid-crawl token expiry), which is a
    /// transport hiccup, not an auth verdict about the repository.
    TokenFlap,
    /// Anything else unexpected.
    Protocol(String),
}

impl ClientError {
    /// Whether another attempt could plausibly succeed. Transport faults
    /// and corruption are transient; auth walls and 404s are facts about
    /// the repository, which the paper classified instead of retrying.
    fn retry_class(&self) -> RetryClass {
        match self {
            ClientError::Io(_)
            | ClientError::Wire(_)
            | ClientError::RateLimited
            | ClientError::Unavailable
            | ClientError::CorruptManifest
            | ClientError::CorruptBlob
            | ClientError::TokenFlap => RetryClass::Retryable,
            ClientError::AuthRequired | ClientError::NotFound | ClientError::Protocol(_) => {
                RetryClass::Terminal
            }
        }
    }

    fn is_corruption(&self) -> bool {
        matches!(self, ClientError::CorruptManifest | ClientError::CorruptBlob)
    }
}

/// The error a non-200 `status` answering a `what` request stands for.
fn status_error(what: &str, status: u16) -> ClientError {
    match status {
        404 => ClientError::NotFound,
        429 => ClientError::RateLimited,
        s if s >= 500 => ClientError::Unavailable,
        s => ClientError::Protocol(format!("{what} -> {s}")),
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::AuthRequired => f.write_str("authentication required"),
            ClientError::NotFound => f.write_str("not found"),
            ClientError::RateLimited => f.write_str("rate limited (429)"),
            ClientError::Unavailable => f.write_str("server unavailable (5xx)"),
            ClientError::CorruptManifest => f.write_str("manifest failed digest verification"),
            ClientError::CorruptBlob => f.write_str("blob failed digest verification"),
            ClientError::TokenFlap => f.write_str("fresh token rejected (auth flap)"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Counters of what the retry loop did over a client's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts re-issued after a retryable error.
    pub retries: u64,
    /// Operations abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// The subset of `retries` caused by failed digest verification.
    pub corrupt_retries: u64,
    /// Nanoseconds of scheduled backoff slept between attempts
    /// (deterministic per the policy — the sum of the `RetryEvent::Retry`s).
    pub backoff_ns: u64,
}

/// An HTTP client bound to one registry address.
pub struct RemoteRegistry {
    addr: SocketAddr,
    /// Cached bearer token from a previous challenge.
    token: dhub_sync::Mutex<Option<String>>,
    /// Whether to attempt the token dance on 401 (the study's anonymous
    /// downloader does not hold credentials; `docker login` users do).
    use_token_auth: bool,
    /// Backoff schedule applied to retryable errors.
    policy: RetryPolicy,
    /// Idle keep-alive connections and when each went idle, oldest first.
    /// Threads sharing the client (the mirror's handlers) each take one
    /// out for the length of a request, so none is ever used by two.
    pool: dhub_sync::Mutex<Vec<(Instant, BufReader<TcpStream>)>>,
    retries: AtomicU64,
    gave_up: AtomicU64,
    corrupt_retries: AtomicU64,
    backoff_ns: AtomicU64,
}

impl RemoteRegistry {
    /// Creates a client for `addr` that performs the token dance.
    pub fn connect(addr: SocketAddr) -> RemoteRegistry {
        RemoteRegistry {
            addr,
            token: dhub_sync::Mutex::new(None),
            use_token_auth: true,
            policy: RetryPolicy::default(),
            pool: dhub_sync::Mutex::new(Vec::new()),
            retries: AtomicU64::new(0),
            gave_up: AtomicU64::new(0),
            corrupt_retries: AtomicU64::new(0),
            backoff_ns: AtomicU64::new(0),
        }
    }

    /// Creates an anonymous client (no token dance — the study's stance).
    pub fn connect_anonymous(addr: SocketAddr) -> RemoteRegistry {
        RemoteRegistry { use_token_auth: false, ..RemoteRegistry::connect(addr) }
    }

    /// Builder: replaces the retry policy (e.g. [`RetryPolicy::none`] to
    /// fail fast, [`RetryPolicy::fast`] in tests).
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> RemoteRegistry {
        self.policy = policy;
        self
    }

    /// Snapshot of the retry counters.
    pub fn retry_stats(&self) -> RetryStats {
        RetryStats {
            retries: self.retries.load(Ordering::Relaxed),
            gave_up: self.gave_up.load(Ordering::Relaxed),
            corrupt_retries: self.corrupt_retries.load(Ordering::Relaxed),
            backoff_ns: self.backoff_ns.load(Ordering::Relaxed),
        }
    }

    /// The [`RetryPolicy::run`] hook of every retried operation: tallies
    /// what the loop did into the client's lifetime [`RetryStats`].
    fn tally(&self) -> impl FnMut(&ClientError, RetryEvent) + '_ {
        |e, event| match event {
            RetryEvent::Retry(slept) => {
                if e.is_corruption() {
                    self.corrupt_retries.fetch_add(1, Ordering::Relaxed);
                }
                self.retries.fetch_add(1, Ordering::Relaxed);
                self.backoff_ns.fetch_add(slept.as_nanos() as u64, Ordering::Relaxed);
            }
            RetryEvent::GaveUp => {
                self.gave_up.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn send(&self, req: Request) -> Result<Response, ClientError> {
        self.send_with_token(req, true)
    }

    fn send_with_token(&self, mut req: Request, attach_token: bool) -> Result<Response, ClientError> {
        if attach_token {
            if let Some(tok) = self.token.lock().clone() {
                req = req.with_header("authorization", &format!("Bearer {tok}"));
            }
        }
        let mut conn = self.checkout()?;
        req.write_to(conn.get_mut())?;
        let resp = read_response(&mut conn)?;
        // Only a connection that carried a whole response and was not told
        // to close is good for another request; every `?` above drops it.
        if !resp.header("connection").is_some_and(|c| c.eq_ignore_ascii_case("close")) {
            self.checkin(conn);
        }
        Ok(resp)
    }

    /// The most recently used idle connection still young enough to
    /// trust, or a fresh dial.
    fn checkout(&self) -> std::io::Result<BufReader<TcpStream>> {
        let pooled = {
            let mut pool = self.pool.lock();
            pool.retain(|(idle_since, _)| idle_since.elapsed() < POOL_IDLE_LIMIT);
            pool.pop()
        };
        if let Some((_, conn)) = pooled {
            return Ok(conn);
        }
        let stream = TcpStream::connect(self.addr)?;
        // Requests are whole messages; never hold one back for an ACK.
        stream.set_nodelay(true)?;
        Ok(BufReader::new(stream))
    }

    fn checkin(&self, conn: BufReader<TcpStream>) {
        let mut pool = self.pool.lock();
        if pool.len() < POOL_MAX_IDLE {
            pool.push((Instant::now(), conn));
        }
    }

    /// GET with one 401-token-retry round, like the Docker client.
    fn get(&self, target: &str) -> Result<Response, ClientError> {
        let resp = self.send(Request::get(target))?;
        if resp.status != 401 {
            return Ok(resp);
        }
        if !self.use_token_auth {
            return Err(ClientError::AuthRequired);
        }
        // Parse the realm out of the WWW-Authenticate challenge.
        let challenge = resp
            .header("www-authenticate")
            .ok_or_else(|| ClientError::Protocol("401 without challenge".into()))?;
        let realm = challenge
            .split("realm=\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .ok_or_else(|| ClientError::Protocol("challenge without realm".into()))?
            .to_string();
        // The realm request is unauthenticated: a stale Bearer is not a
        // credential for the token service, and sending one would let an
        // auth flap masquerade as a terminal 401 from the token endpoint.
        let tok_resp = self.send_with_token(Request::get(&realm), false)?;
        match tok_resp.status {
            200 => {}
            // A flaky token endpoint is a transport problem, not an auth
            // verdict — let the retry loop take another run at it.
            429 => return Err(ClientError::RateLimited),
            s if s >= 500 => return Err(ClientError::Unavailable),
            _ => return Err(ClientError::AuthRequired),
        }
        let body = std::str::from_utf8(&tok_resp.body)
            .map_err(|_| ClientError::Protocol("token not utf8".into()))?;
        let token = dhub_json::parse(body)
            .ok()
            .and_then(|j| j.get("token").and_then(|t| t.as_str().map(String::from)))
            .ok_or_else(|| ClientError::Protocol("token payload".into()))?;
        *self.token.lock() = Some(token);
        let retry = self.send(Request::get(target))?;
        if retry.status == 401 {
            // The token we just minted was rejected — a transient auth
            // flap, not proof the repository is walled off. Discard the
            // token and let the retry loop run the dance again.
            *self.token.lock() = None;
            return Err(ClientError::TokenFlap);
        }
        Ok(retry)
    }

    /// Scrapes the server's `/metrics` endpoint (Prometheus text
    /// exposition), retrying transient transport failures — a scraper must
    /// survive the same wire faults the data path does.
    pub fn metrics_text(&self) -> Result<String, ClientError> {
        let fetch = || {
            let resp = self.get("/metrics")?;
            match resp.status {
                200 => String::from_utf8(Arc::unwrap_or_clone(resp.body))
                    .map_err(|_| ClientError::Protocol("metrics not utf8".into())),
                s => Err(status_error("metrics", s)),
            }
        };
        self.policy.run(fault_key(b"/metrics"), fetch, ClientError::retry_class, self.tally())
    }

    /// Checks the `/v2/` version endpoint.
    pub fn ping(&self) -> Result<(), ClientError> {
        let resp = self.get("/v2/")?;
        if resp.status == 200 {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!("/v2/ -> {}", resp.status)))
        }
    }

    /// Fetches and parses a manifest, retrying transient failures; returns
    /// it with its content digest. The body is *verified*: an unparseable
    /// manifest or one whose recomputed digest disagrees with the
    /// `Docker-Content-Digest` header is treated as wire corruption and
    /// re-fetched, not trusted.
    pub fn get_manifest(&self, repo: &RepoName, reference: &str) -> Result<(Digest, Manifest), ClientError> {
        let key = fault_key(format!("{}:{reference}", repo.full()).as_bytes());
        let fetch = || self.get_manifest_once(repo, reference);
        self.policy.run(key, fetch, ClientError::retry_class, self.tally())
    }

    fn get_manifest_once(
        &self,
        repo: &RepoName,
        reference: &str,
    ) -> Result<(Digest, Manifest), ClientError> {
        let resp = self.get(&format!("/v2/{}/manifests/{reference}", repo.full()))?;
        match resp.status {
            200 => {
                // A well-formed server only sends bytes that parse and
                // hash to the advertised digest — anything else means the
                // body was damaged in flight. The content digest covers
                // the *raw bytes on the wire* (as Docker's does), so even
                // a flip that JSON canonicalization would erase is caught.
                let wire_digest = Digest::of(&resp.body);
                if let Some(advertised) = resp.header("docker-content-digest").and_then(Digest::parse)
                {
                    if advertised != wire_digest {
                        return Err(ClientError::CorruptManifest);
                    }
                }
                let Some(manifest) =
                    std::str::from_utf8(&resp.body).ok().and_then(Manifest::from_json)
                else {
                    return Err(ClientError::CorruptManifest);
                };
                Ok((wire_digest, manifest))
            }
            s => Err(status_error("manifest", s)),
        }
    }

    /// Fetches a blob, retrying transient failures, and verifies that the
    /// bytes hash to the requested digest (re-fetching on mismatch).
    pub fn get_blob(&self, repo: &RepoName, digest: &Digest) -> Result<Vec<u8>, ClientError> {
        let key = fault_key(digest.to_docker_string().as_bytes());
        let fetch = || self.get_blob_once(repo, digest);
        self.policy.run(key, fetch, ClientError::retry_class, self.tally())
    }

    fn get_blob_once(&self, repo: &RepoName, digest: &Digest) -> Result<Vec<u8>, ClientError> {
        let resp = self.get(&format!("/v2/{}/blobs/{digest}", repo.full()))?;
        match resp.status {
            200 => {
                if Digest::of(&resp.body) != *digest {
                    return Err(ClientError::CorruptBlob);
                }
                // Freshly read off the wire, so unshared: unwraps, no copy.
                Ok(Arc::unwrap_or_clone(resp.body))
            }
            s => Err(status_error("blob", s)),
        }
    }

    /// Lists a repository's tags, retrying transient failures.
    pub fn tags(&self, repo: &RepoName) -> Result<Vec<String>, ClientError> {
        let key = fault_key(format!("{}/tags", repo.full()).as_bytes());
        let fetch = || self.tags_once(repo);
        self.policy.run(key, fetch, ClientError::retry_class, self.tally())
    }

    fn tags_once(&self, repo: &RepoName) -> Result<Vec<String>, ClientError> {
        let resp = self.get(&format!("/v2/{}/tags/list", repo.full()))?;
        match resp.status {
            200 => {
                let text = std::str::from_utf8(&resp.body)
                    .map_err(|_| ClientError::Protocol("tags not utf8".into()))?;
                let j = dhub_json::parse(text).map_err(|e| ClientError::Protocol(e.to_string()))?;
                let tags = j
                    .get("tags")
                    .and_then(|t| t.as_arr())
                    .map(|a| a.iter().filter_map(|t| t.as_str().map(String::from)).collect())
                    .unwrap_or_default();
                Ok(tags)
            }
            s => Err(status_error("tags", s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Registry;
    use crate::http::server::RegistryServer;
    use dhub_model::{LayerRef, Manifest};
    use std::sync::Arc;

    fn hub() -> Arc<Registry> {
        let reg = Arc::new(Registry::new());
        let blob = b"http layer payload".to_vec();
        let repo = RepoName::official("nginx");
        reg.create_repo(repo.clone(), false);
        let manifest =
            Manifest::new(vec![LayerRef { digest: Digest::of(&blob), size: blob.len() as u64 }]);
        reg.push_image(&repo, "latest", &manifest, vec![blob]).unwrap();

        let private = RepoName::user("corp", "vault");
        reg.create_repo(private.clone(), true);
        let pb = b"classified".to_vec();
        let pm = Manifest::new(vec![LayerRef { digest: Digest::of(&pb), size: pb.len() as u64 }]);
        reg.push_image(&private, "latest", &pm, vec![pb]).unwrap();
        reg
    }

    fn server() -> (RegistryServer, Arc<Registry>) {
        let reg = hub();
        (RegistryServer::start(reg.clone()).unwrap(), reg)
    }

    #[test]
    fn ping_over_tcp() {
        let (srv, _reg) = server();
        let client = RemoteRegistry::connect(srv.addr());
        client.ping().unwrap();
        srv.shutdown();
    }

    #[test]
    fn pull_over_tcp() {
        let (srv, _reg) = server();
        let client = RemoteRegistry::connect(srv.addr());
        let repo = RepoName::official("nginx");
        let (digest, manifest) = client.get_manifest(&repo, "latest").unwrap();
        assert_eq!(digest, manifest.digest());
        let blob = client.get_blob(&repo, &manifest.layers[0].digest).unwrap();
        assert_eq!(blob, b"http layer payload");
        srv.shutdown();
    }

    #[test]
    fn token_dance_grants_private_access() {
        let (srv, _reg) = server();
        let client = RemoteRegistry::connect(srv.addr());
        let repo = RepoName::user("corp", "vault");
        let (_d, m) = client.get_manifest(&repo, "latest").unwrap();
        assert_eq!(m.layers.len(), 1);
        let blob = client.get_blob(&repo, &m.layers[0].digest).unwrap();
        assert_eq!(blob, b"classified");
        srv.shutdown();
    }

    #[test]
    fn anonymous_client_hits_auth_wall() {
        let (srv, _reg) = server();
        let client = RemoteRegistry::connect_anonymous(srv.addr());
        let repo = RepoName::user("corp", "vault");
        assert!(matches!(client.get_manifest(&repo, "latest"), Err(ClientError::AuthRequired)));
        // Public repos still work anonymously.
        let nginx = RepoName::official("nginx");
        assert!(client.get_manifest(&nginx, "latest").is_ok());
        srv.shutdown();
    }

    #[test]
    fn missing_things_are_not_found() {
        let (srv, _reg) = server();
        let client = RemoteRegistry::connect(srv.addr());
        let ghost = RepoName::official("ghost");
        assert!(matches!(client.get_manifest(&ghost, "latest"), Err(ClientError::NotFound)));
        let nginx = RepoName::official("nginx");
        assert!(matches!(client.get_manifest(&nginx, "v9"), Err(ClientError::NotFound)));
        assert!(matches!(
            client.get_blob(&nginx, &Digest::of(b"no such blob")),
            Err(ClientError::NotFound)
        ));
        srv.shutdown();
    }

    #[test]
    fn tags_over_tcp() {
        let (srv, _reg) = server();
        let client = RemoteRegistry::connect(srv.addr());
        let tags = client.tags(&RepoName::official("nginx")).unwrap();
        assert_eq!(tags, vec!["latest"]);
        srv.shutdown();
    }

    use dhub_faults::{FaultConfig, FaultInjector, FaultKind, ALL_FAULT_KINDS};

    fn faulty_server(cfg: FaultConfig) -> (RegistryServer, Arc<FaultInjector>) {
        let reg = Arc::new(Registry::new());
        let blob = b"http layer payload".to_vec();
        let repo = RepoName::official("nginx");
        reg.create_repo(repo.clone(), false);
        let manifest =
            Manifest::new(vec![LayerRef { digest: Digest::of(&blob), size: blob.len() as u64 }]);
        reg.push_image(&repo, "latest", &manifest, vec![blob]).unwrap();
        let inj = Arc::new(FaultInjector::new(cfg));
        (RegistryServer::start_with_faults(reg, Some(inj.clone())).unwrap(), inj)
    }

    #[test]
    fn transient_faults_are_retried_away() {
        // Half the requests fault (drops, 429s, 5xxs, truncations, bit
        // flips); a patient client still pulls a byte-identical image.
        let (srv, inj) = faulty_server(FaultConfig::uniform(2024, 0.5));
        let client = RemoteRegistry::connect_anonymous(srv.addr())
            .with_retry_policy(RetryPolicy::fast(16).with_seed(7));
        let repo = RepoName::official("nginx");
        let (digest, manifest) = client.get_manifest(&repo, "latest").unwrap();
        assert_eq!(digest, manifest.digest());
        let blob = client.get_blob(&repo, &manifest.layers[0].digest).unwrap();
        assert_eq!(blob, b"http layer payload");
        let stats = client.retry_stats();
        assert!(stats.retries > 0, "rate 0.5 must have forced at least one retry");
        assert_eq!(stats.gave_up, 0);
        assert!(inj.stats().total() > 0);
        srv.shutdown();
    }

    #[test]
    fn no_retry_policy_surfaces_the_fault() {
        let cfg = ALL_FAULT_KINDS.iter().fold(FaultConfig::uniform(5, 1.0), |c, &k| {
            c.with_weight(k, u32::from(k == FaultKind::RateLimit))
        });
        let (srv, _inj) = faulty_server(cfg);
        let client =
            RemoteRegistry::connect_anonymous(srv.addr()).with_retry_policy(RetryPolicy::none());
        let repo = RepoName::official("nginx");
        assert!(matches!(client.get_manifest(&repo, "latest"), Err(ClientError::RateLimited)));
        assert_eq!(client.retry_stats().gave_up, 1);
        srv.shutdown();
    }

    #[test]
    fn corruption_is_detected_and_counted() {
        // Every response bit-flipped: digest verification must catch each
        // one, and the client gives up only after exhausting its budget.
        let cfg = ALL_FAULT_KINDS.iter().fold(FaultConfig::uniform(9, 1.0), |c, &k| {
            c.with_weight(k, u32::from(k == FaultKind::Corrupt))
        });
        let (srv, _inj) = faulty_server(cfg);
        let client = RemoteRegistry::connect_anonymous(srv.addr())
            .with_retry_policy(RetryPolicy::fast(2).with_seed(3));
        let repo = RepoName::official("nginx");
        assert!(matches!(
            client.get_manifest(&repo, "latest"),
            Err(ClientError::CorruptManifest)
        ));
        let stats = client.retry_stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.corrupt_retries, 2);
        assert_eq!(stats.gave_up, 1);
        srv.shutdown();
    }

    #[test]
    fn auth_flap_after_fresh_token_is_retried() {
        // Only AuthFlap faults, firing on 80 % of credentialed requests: a
        // post-token-dance 401 must be treated as transient (TokenFlap),
        // not misclassified into the terminal auth bucket.
        let cfg = ALL_FAULT_KINDS.iter().fold(FaultConfig::uniform(21, 0.8), |c, &k| {
            c.with_weight(k, u32::from(k == FaultKind::AuthFlap))
        });
        let reg = Arc::new(Registry::new());
        let private = RepoName::user("corp", "vault");
        reg.create_repo(private.clone(), true);
        let pb = b"classified".to_vec();
        let pm = Manifest::new(vec![LayerRef { digest: Digest::of(&pb), size: pb.len() as u64 }]);
        reg.push_image(&private, "latest", &pm, vec![pb]).unwrap();
        let inj = Arc::new(FaultInjector::new(cfg));
        let srv = RegistryServer::start_with_faults(reg, Some(inj.clone())).unwrap();

        let client = RemoteRegistry::connect(srv.addr())
            .with_retry_policy(RetryPolicy::fast(32).with_seed(11));
        let (_d, m) = client.get_manifest(&private, "latest").unwrap();
        let blob = client.get_blob(&private, &m.layers[0].digest).unwrap();
        assert_eq!(blob, b"classified");
        let stats = client.retry_stats();
        assert!(stats.retries > 0, "80 % flap rate must force at least one retry");
        assert_eq!(stats.gave_up, 0);
        assert!(inj.stats().total() > 0, "injector must actually have flapped");
        srv.shutdown();
    }

    use crate::http::server::{DEFAULT_MAX_CONNS, MAX_REQUESTS_PER_CONN};
    use dhub_obs::MetricsRegistry;

    /// A server over `hub()` recording into its own metrics, optionally faulted.
    fn metered_server(
        faults: Option<FaultConfig>,
        max_conns: usize,
    ) -> (RegistryServer, Arc<MetricsRegistry>, Option<Arc<FaultInjector>>) {
        let metrics = Arc::new(MetricsRegistry::new());
        let inj = faults.map(|cfg| Arc::new(FaultInjector::new(cfg)));
        let srv = RegistryServer::start_full(hub(), inj.clone(), metrics.clone(), max_conns);
        (srv.unwrap(), metrics, inj)
    }

    fn connections(metrics: &MetricsRegistry) -> u64 {
        metrics.counter_value("dhub_http_connections_total")
    }

    #[test]
    fn sequential_calls_ride_one_connection() {
        let (srv, metrics, _) = metered_server(None, DEFAULT_MAX_CONNS);
        let client = RemoteRegistry::connect(srv.addr());
        let nginx = RepoName::official("nginx");
        for _ in 0..10 {
            client.ping().unwrap();
            let (_, m) = client.get_manifest(&nginx, "latest").unwrap();
            client.get_blob(&nginx, &m.layers[0].digest).unwrap();
            client.tags(&nginx).unwrap();
        }
        // The token dance and a 404 are whole responses too: same connection.
        client.get_manifest(&RepoName::user("corp", "vault"), "latest").unwrap();
        assert!(matches!(client.get_manifest(&nginx, "v9"), Err(ClientError::NotFound)));
        assert_eq!(connections(&metrics), 1);
        assert_eq!(metrics.counter_value("dhub_http_requests_total"), 40 + 3 + 1);
        srv.shutdown();
    }

    #[test]
    fn threads_sharing_a_client_open_at_most_one_connection_each() {
        let (srv, metrics, _) = metered_server(None, DEFAULT_MAX_CONNS);
        let client = RemoteRegistry::connect_anonymous(srv.addr());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..25 {
                        client.tags(&RepoName::official("nginx")).unwrap();
                    }
                });
            }
        });
        assert_eq!(metrics.counter_value("dhub_http_requests_total"), 200);
        assert!((1..=8).contains(&connections(&metrics)), "{} connections", connections(&metrics));
        srv.shutdown();
    }

    #[test]
    fn capped_connection_is_replaced_without_a_retry() {
        let (srv, metrics, _) = metered_server(None, DEFAULT_MAX_CONNS);
        let client = RemoteRegistry::connect_anonymous(srv.addr());
        for _ in 0..MAX_REQUESTS_PER_CONN + 1 {
            client.tags(&RepoName::official("nginx")).unwrap();
        }
        assert_eq!(connections(&metrics), 2, "one redial, after the capped response");
        assert_eq!(client.retry_stats(), RetryStats::default());
        srv.shutdown();
    }

    /// Pulls through a server that faults half the requests with `kind`
    /// alone; returns (faults fired, client retries, connections opened).
    fn pull_under(kind: FaultKind) -> (u64, RetryStats, u64) {
        let (srv, metrics, inj) =
            metered_server(Some(FaultConfig::only(2024, 0.5, kind)), DEFAULT_MAX_CONNS);
        let client = RemoteRegistry::connect_anonymous(srv.addr())
            .with_retry_policy(RetryPolicy::fast(32).with_seed(7));
        let nginx = RepoName::official("nginx");
        for _ in 0..6 {
            let (_, m) = client.get_manifest(&nginx, "latest").unwrap();
            client.get_blob(&nginx, &m.layers[0].digest).unwrap();
        }
        let stats = client.retry_stats();
        assert_eq!(stats.gave_up, 0);
        let fired = inj.unwrap().stats().total();
        assert!(fired > 0, "{kind:?} never fired");
        srv.shutdown();
        (fired, stats, connections(&metrics))
    }

    #[test]
    fn a_broken_exchange_costs_one_retry_and_its_connection() {
        // The plan fires per attempt it sees. A hidden resend would show as
        // more faults than retries, a reused dead connection as fewer.
        // What the connection-per-request client read for this seed.
        let per_request =
            RetryStats { retries: 10, gave_up: 0, corrupt_retries: 0, backoff_ns: 229_502 };
        for kind in [FaultKind::Drop, FaultKind::Truncate] {
            let (fired, stats, conns) = pull_under(kind);
            assert_eq!(stats.retries, fired, "{kind:?}: every fault is one visible retry");
            assert_eq!(stats, per_request, "{kind:?}");
            assert_eq!(conns, 1 + fired, "{kind:?}: the broken connection is not reused");
        }
        // A complete 429 breaks nothing: retried, on the same connection.
        let (fired, stats, conns) = pull_under(FaultKind::RateLimit);
        assert_eq!((stats, conns), (per_request, 1));
        assert_eq!(stats.retries, fired);
    }

    #[test]
    fn shed_503_connection_is_not_reused() {
        let (srv, metrics, _) = metered_server(None, 1);
        let client =
            RemoteRegistry::connect_anonymous(srv.addr()).with_retry_policy(RetryPolicy::none());
        let nginx = RepoName::official("nginx");
        // A parked raw connection owns the only permit, so the client's
        // dial is shed: a complete 503 that says `connection: close`.
        let holder = TcpStream::connect(srv.addr()).unwrap();
        while connections(&metrics) == 0 {
            std::thread::yield_now();
        }
        assert!(matches!(client.tags(&nginx), Err(ClientError::Unavailable)));
        assert_eq!(metrics.counter_value("dhub_http_rejected_overload_total"), 1);
        // With the permit free again the next call dials afresh; on the
        // shed connection, closed by the server, it would fail.
        drop(holder);
        while client.tags(&nginx).is_err() {
            assert!(metrics.counter_value("dhub_http_rejected_overload_total") < 1000);
        }
        assert_eq!(connections(&metrics), 2);
        srv.shutdown();
    }

    #[test]
    fn pooled_connection_dies_with_the_server() {
        let (srv, metrics, _) = metered_server(None, DEFAULT_MAX_CONNS);
        let client =
            RemoteRegistry::connect_anonymous(srv.addr()).with_retry_policy(RetryPolicy::none());
        client.ping().unwrap();
        srv.shutdown();
        assert!(client.ping().is_err(), "answered from a server that was shut down");
        assert_eq!(metrics.counter_value("dhub_http_requests_total"), 1);
    }

    #[test]
    fn concurrent_clients() {
        let (srv, _reg) = server();
        let addr = srv.addr();
        let handles: Vec<_> = (0..6)
            .map(|_| {
                std::thread::spawn(move || {
                    let client = RemoteRegistry::connect(addr);
                    let repo = RepoName::official("nginx");
                    let (_, m) = client.get_manifest(&repo, "latest").unwrap();
                    client.get_blob(&repo, &m.layers[0].digest).unwrap().len()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), b"http layer payload".len());
        }
        srv.shutdown();
    }
}
