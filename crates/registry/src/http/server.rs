//! Threaded Registry V2 HTTP server.
//!
//! Serves an in-process [`Registry`] over real TCP with the endpoints and
//! auth dance the Docker client uses:
//!
//! * anonymous pulls work for public repositories;
//! * auth-required repositories answer `401` with a `WWW-Authenticate:
//!   Bearer realm=...` challenge; presenting `Authorization: Bearer
//!   <token>` (from the `/token` endpoint) grants access — the same flow
//!   behind the paper's "13 % of failed images required authentication".

use crate::api::{ApiError, Registry};
use crate::http::wire::{read_request, Request, Response, WireError};
use dhub_faults::{fault_key, FaultInjector, FaultKind, FaultOp};
use dhub_json::Json;
use dhub_model::{Digest, RepoName};
use dhub_obs::MetricsRegistry;
use dhub_sync::{Mutex, Semaphore, SemaphorePermit};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A running registry server; dropping it stops the accept loop and closes
/// every connection it still holds open.
pub struct RegistryServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

/// What the accept loop and every connection handler of one server share.
struct Shared {
    backend: Arc<dyn MirrorBackend>,
    faults: Option<Arc<FaultInjector>>,
    metrics: Arc<MetricsRegistry>,
    idle_timeout: Duration,
    stop: AtomicBool,
    /// A second handle on every live connection's socket, so `shutdown`
    /// can close them under their handlers.
    live: Mutex<HashMap<u64, TcpStream>>,
}

/// A connection's entry in [`Shared::live`], removed when its handler ends
/// (or never starts).
struct LiveConn {
    shared: Arc<Shared>,
    id: u64,
}

impl Drop for LiveConn {
    fn drop(&mut self) {
        self.shared.live.lock().remove(&self.id);
    }
}

/// The bearer token this simulation's `/token` endpoint issues. A real
/// registry mints signed JWTs; the study only needs the protocol shape.
const DEMO_TOKEN: &str = "dhub-demo-token";

/// Default cap on concurrent connection handler threads. Generous next to
/// the study's bounded worker crews; the point is that it exists at all,
/// so a connection flood sheds load instead of spawning without limit.
pub const DEFAULT_MAX_CONNS: usize = 256;

/// How long a connection may go without a byte arriving before the server
/// closes it, silently. Clients must stop reusing a connection strictly
/// earlier (`POOL_IDLE_LIMIT` in the client), so none writes into a
/// connection this timeout has already closed.
pub(super) const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// Requests one connection may carry, so no client holds a handler thread
/// and its permit for ever; the response to the last says `connection:
/// close`.
pub(super) const MAX_REQUESTS_PER_CONN: usize = 1000;

/// Why a mirror backend could not produce the requested object. Maps onto
/// the registry V2 status codes the front end answers with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// Origin demands credentials the request did not carry → 401 + challenge.
    AuthRequired,
    /// Origin says the repo/tag/blob does not exist → 404.
    NotFound,
    /// Origin is rate limiting → 429 (retryable for the client).
    RateLimited,
    /// Origin unreachable or erroring after retries/failover → 503.
    Unavailable,
}

/// What a [`RegistryServer`] serves from: something that can produce
/// manifests/blobs/tags on demand. The origin's [`Registry`] and
/// `dhub-mirror`'s pull-through cache both implement it, so the two tiers
/// answer through the same endpoint code. Manifest bytes are the canonical
/// `to_json` encoding, so the digest the backend returns must match
/// `Digest::of(bytes)` — clients verify it against the
/// `docker-content-digest` header.
pub trait MirrorBackend: Send + Sync {
    /// Resolves a manifest by tag/digest reference.
    fn fetch_manifest(
        &self,
        repo: &RepoName,
        reference: &str,
        authed: bool,
    ) -> Result<(Digest, Arc<Vec<u8>>), BackendError>;

    /// Fetches a blob by digest: the `Arc` the backend's own store or
    /// cache holds, which the response body is then written from.
    fn fetch_blob(
        &self,
        repo: &RepoName,
        digest: &Digest,
        authed: bool,
    ) -> Result<Arc<Vec<u8>>, BackendError>;

    /// Lists a repository's tags.
    fn tags(&self, repo: &RepoName, authed: bool) -> Result<Vec<String>, BackendError>;
}

impl From<ApiError> for BackendError {
    fn from(e: ApiError) -> BackendError {
        match e {
            ApiError::AuthRequired => BackendError::AuthRequired,
            ApiError::RepoNotFound | ApiError::TagNotFound | ApiError::BlobNotFound => {
                BackendError::NotFound
            }
            ApiError::RateLimited => BackendError::RateLimited,
            ApiError::Unavailable | ApiError::ConnectionReset | ApiError::CorruptManifest => {
                BackendError::Unavailable
            }
        }
    }
}

/// The origin tier: objects come straight out of the in-process registry.
impl MirrorBackend for Registry {
    fn fetch_manifest(
        &self,
        repo: &RepoName,
        reference: &str,
        authed: bool,
    ) -> Result<(Digest, Arc<Vec<u8>>), BackendError> {
        let sess = self.get_manifest(repo, reference, authed)?;
        Ok((sess.manifest_digest, Arc::new(sess.manifest.to_json().into_bytes())))
    }

    fn fetch_blob(
        &self,
        repo: &RepoName,
        digest: &Digest,
        authed: bool,
    ) -> Result<Arc<Vec<u8>>, BackendError> {
        // Blob access obeys the repository's auth policy, like the real API.
        if self.requires_auth(repo).unwrap_or(false) && !authed {
            return Err(BackendError::AuthRequired);
        }
        Ok(self.get_blob(digest)?)
    }

    fn tags(&self, repo: &RepoName, authed: bool) -> Result<Vec<String>, BackendError> {
        if self.requires_auth(repo).unwrap_or(false) && !authed {
            return Err(BackendError::AuthRequired);
        }
        Registry::tags(self, repo).ok_or(BackendError::NotFound)
    }
}

impl RegistryServer {
    /// Binds to `127.0.0.1:0` (ephemeral port) and starts serving.
    pub fn start(registry: Arc<Registry>) -> std::io::Result<RegistryServer> {
        RegistryServer::start_with_faults(registry, None)
    }

    /// Like [`RegistryServer::start`], but every request consults the
    /// fault injector first: connections drop, 429/5xx fire, tokens flap,
    /// bodies truncate or flip bits — deterministically, per the plan.
    ///
    /// Metrics go to the process-global [`MetricsRegistry`]; use
    /// [`RegistryServer::start_full`] to scope them to a run.
    pub fn start_with_faults(
        registry: Arc<Registry>,
        faults: Option<Arc<FaultInjector>>,
    ) -> std::io::Result<RegistryServer> {
        RegistryServer::start_full(registry, faults, MetricsRegistry::global(), DEFAULT_MAX_CONNS)
    }

    /// The fully explicit constructor: fault injector, the metrics
    /// registry this server records into — and serves back, live, at
    /// `GET /metrics` in Prometheus text exposition — and the cap on
    /// concurrent connection handlers. Handing in the same registry a
    /// study run records into makes the endpoint a window onto the whole
    /// pipeline, not just the HTTP front.
    pub fn start_full(
        registry: Arc<Registry>,
        faults: Option<Arc<FaultInjector>>,
        metrics: Arc<MetricsRegistry>,
        max_conns: usize,
    ) -> std::io::Result<RegistryServer> {
        RegistryServer::start_backend(registry, faults, metrics, max_conns, IDLE_TIMEOUT)
    }

    /// Starts a mirror-mode server: every manifest/blob/tags request is
    /// answered by `backend` (a pull-through cache over origin registries)
    /// instead of a local [`Registry`], through the same endpoints. Wire
    /// faults stay origin-only — a mirror front end serves clean, and its
    /// origins carry their own injectors.
    pub fn start_mirror(
        backend: Arc<dyn MirrorBackend>,
        metrics: Arc<MetricsRegistry>,
        max_conns: usize,
    ) -> std::io::Result<RegistryServer> {
        RegistryServer::start_backend(backend, None, metrics, max_conns, IDLE_TIMEOUT)
    }

    fn start_backend(
        backend: Arc<dyn MirrorBackend>,
        faults: Option<Arc<FaultInjector>>,
        metrics: Arc<MetricsRegistry>,
        max_conns: usize,
        idle_timeout: Duration,
    ) -> std::io::Result<RegistryServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            backend,
            faults,
            metrics,
            idle_timeout,
            stop: AtomicBool::new(false),
            live: Mutex::new(HashMap::new()),
        });
        let accept_thread = std::thread::Builder::new()
            .name("dhub-registry-http".into())
            .spawn({
                let shared = shared.clone();
                move || accept_loop(listener, shared, max_conns)
            })?;
        Ok(RegistryServer { addr, shared, accept_thread: Some(accept_thread) })
    }

    /// The bound address clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, joins the accept loop and closes every live
    /// connection: once this returns, no request is answered — not on a
    /// new connection, and not on one a client kept alive from before.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(accept_thread) = self.accept_thread.take() else { return };
        self.shared.stop.store(true, Ordering::SeqCst);
        // `accept` blocks; a throwaway connection wakes it to see the flag.
        // Should the dial fail the thread is left to the next real
        // connection rather than joined, so stopping never hangs.
        if TcpStream::connect(self.addr).is_ok() {
            let _ = accept_thread.join();
        }
        // Connections are registered by the accept loop itself, so with it
        // joined the table holds every one that was ever handed a handler.
        // Closing the socket under a handler fails its pending read and
        // any later write; the handler then ends on its own.
        for stream in self.shared.live.lock().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for RegistryServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Blocks in `accept` and hands each connection to a thread of its own,
/// bounded by one permit per live handler: at the cap the connection is
/// shed with an immediate 503 instead of spawning yet another thread.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>, max_conns: usize) {
    let conn_permits = Semaphore::new(max_conns);
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        let Ok(mut stream) = stream else { break };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Some(permit) = conn_permits.try_acquire() else {
            shared.metrics.counter("dhub_http_rejected_overload_total").inc();
            let resp = json_error(503, "OVERLOADED").with_header("connection", "close");
            let _ = resp.write_to(&mut stream);
            continue;
        };
        let Ok(handle) = stream.try_clone() else { continue };
        shared.live.lock().insert(id, handle);
        let conn = LiveConn { shared: shared.clone(), id };
        shared.metrics.counter("dhub_http_connections_total").inc();
        // Detached: `shutdown` ends a handler by closing its socket, and a
        // handler parked in a slow backend must not hold `shutdown` up.
        let _ = std::thread::Builder::new()
            .name("dhub-registry-conn".into())
            .spawn(move || handle_connection(stream, conn, permit));
    }
}

/// How one routed request leaves the connection.
enum Routed {
    /// Normal response.
    Respond(Response),
    /// Injected truncation: write the response's headers with the full
    /// content-length but only `keep` body bytes, then close.
    RespondTruncated(Response, usize),
    /// Injected connection drop: close without responding.
    Drop,
}

/// One connection's life: requests are answered in order until the peer
/// closes, asks to (`connection: close`), errs, goes idle past the
/// timeout, uses up [`MAX_REQUESTS_PER_CONN`], or the server shuts down.
fn handle_connection(stream: TcpStream, conn: LiveConn, _permit: SemaphorePermit) {
    let shared = &*conn.shared;
    // Responses are whole messages; never hold one back for an ACK.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.idle_timeout));
    // One reader for the connection's lifetime, so bytes a pipelining
    // client sent past the current request stay buffered for the next one.
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    for served in 1..=MAX_REQUESTS_PER_CONN {
        let request = match read_request(&mut reader) {
            Ok(r) => r,
            Err(e) => {
                if let Some(refusal) = refusal(&e, &shared.metrics) {
                    let _ = refusal.with_header("connection", "close").write_to(&mut writer);
                }
                return;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let last = served == MAX_REQUESTS_PER_CONN
            || request.header("connection").is_some_and(|c| c.eq_ignore_ascii_case("close"));
        let response = match route_faulty(
            &request,
            shared.backend.as_ref(),
            shared.faults.as_deref(),
            &shared.metrics,
        ) {
            Routed::Respond(r) if last => r.with_header("connection", "close"),
            Routed::Respond(r) => r,
            Routed::RespondTruncated(r, keep) => {
                let _ = r.write_truncated_to(&mut writer, keep);
                return; // mid-transfer cut: connection dies with the body
            }
            Routed::Drop => return,
        };
        if response.write_to(&mut writer).is_err() || last {
            return;
        }
    }
}

/// What a request that could not be read is answered with before the
/// connection closes. `None` closes silently: the peer is gone, reset, or
/// idle past the timeout, and anything written would only sit in front of
/// a response it is not waiting for.
fn refusal(err: &WireError, metrics: &MetricsRegistry) -> Option<Response> {
    match err {
        WireError::UnexpectedEof => None,
        WireError::Io(e) => {
            if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) {
                metrics.counter("dhub_http_idle_closed_total").inc();
            }
            None
        }
        WireError::Malformed(_) => Some(Response::new(400, b"bad request".to_vec())),
        WireError::TooLarge => {
            metrics.counter("dhub_http_rejected_header_total").inc();
            Some(json_error(431, "HEADER_TOO_LARGE"))
        }
        WireError::BodyTooLarge => {
            metrics.counter("dhub_http_rejected_body_total").inc();
            Some(json_error(413, "BODY_TOO_LARGE"))
        }
    }
}

fn authed(req: &Request) -> bool {
    req.header("authorization")
        .map(|v| v == format!("Bearer {DEMO_TOKEN}"))
        .unwrap_or(false)
}

fn json_error(status: u16, code: &str) -> Response {
    let mut body = Json::obj();
    body.set("errors", Json::Arr(vec![{
        let mut e = Json::obj();
        e.set("code", code);
        e
    }]));
    Response::new(status, body.to_string().into_bytes())
        .with_header("content-type", "application/json")
}

fn route(req: &Request, backend: &dyn MirrorBackend, metrics: &MetricsRegistry) -> Response {
    if req.method != "GET" {
        return json_error(405, "UNSUPPORTED");
    }
    let path = req.target.split('?').next().unwrap_or("");

    // Live metrics: the registry handed to this server at start, rendered
    // in Prometheus text exposition — scrapeable mid-study.
    if path == "/metrics" {
        return Response::new(200, dhub_obs::render_prometheus(metrics).into_bytes())
            .with_header("content-type", "text/plain; version=0.0.4");
    }

    // Token endpoint (the Bearer realm the 401 challenge points at). A
    // mirror issues the same demo token its origins accept, so one auth
    // dance works against either tier.
    if path == "/token" {
        metrics.counter("dhub_http_token_grants_total").inc();
        let mut body = Json::obj();
        body.set("token", DEMO_TOKEN);
        return Response::new(200, body.to_string().into_bytes())
            .with_header("content-type", "application/json");
    }

    // /v2/ version check.
    if path == "/v2/" || path == "/v2" {
        return Response::new(200, b"{}".to_vec())
            .with_header("docker-distribution-api-version", "registry/2.0");
    }

    let Some(rest) = path.strip_prefix("/v2/") else {
        return json_error(404, "NOT_FOUND");
    };

    // <name>/manifests/<ref> | <name>/blobs/<digest> | <name>/tags/list —
    // the name itself may contain one '/'.
    if let Some((name, reference)) = rest.rsplit_once("/manifests/") {
        return manifest_endpoint(backend, name, reference, authed(req));
    }
    if let Some((name, digest)) = rest.rsplit_once("/blobs/") {
        return blob_endpoint(backend, name, digest, authed(req));
    }
    if let Some(name) = rest.strip_suffix("/tags/list") {
        return tags_endpoint(backend, name.trim_end_matches('/'), authed(req));
    }
    json_error(404, "NOT_FOUND")
}

/// Which fault operation an HTTP path belongs to, or `None` for paths the
/// fault plan never touches (version check, unknown routes).
fn http_fault_op(path: &str) -> Option<FaultOp> {
    if path == "/token" {
        return Some(FaultOp::Token);
    }
    if path == "/metrics" {
        // A scraper shares the wire with the crawl, so it shares its
        // transport faults too (never body damage — that allowed set is
        // reserved for manifests/blobs below).
        return Some(FaultOp::Search);
    }
    let rest = path.strip_prefix("/v2/")?;
    if rest.contains("/manifests/") {
        Some(FaultOp::Manifest)
    } else if rest.contains("/blobs/") {
        Some(FaultOp::Blob)
    } else if rest.ends_with("/tags/list") {
        Some(FaultOp::Search)
    } else {
        None
    }
}

/// Routes one request through the fault plan: transport faults (drop,
/// 429/503, auth flap, slow link) fire before the registry is consulted;
/// body damage (truncate, bit flip) is applied to successful responses.
/// Tallies `dhub_http_*` counters along the way.
fn route_faulty(
    req: &Request,
    backend: &dyn MirrorBackend,
    faults: Option<&FaultInjector>,
    metrics: &MetricsRegistry,
) -> Routed {
    metrics.counter("dhub_http_requests_total").inc();
    let routed = route_faulty_inner(req, backend, faults, metrics);
    let status = match &routed {
        Routed::Respond(r) | Routed::RespondTruncated(r, _) => r.status,
        Routed::Drop => 0,
    };
    match status {
        200..=299 => metrics.counter("dhub_http_status_2xx_total").inc(),
        400..=499 => metrics.counter("dhub_http_status_4xx_total").inc(),
        500..=599 => metrics.counter("dhub_http_status_5xx_total").inc(),
        _ => {}
    }
    routed
}

fn route_faulty_inner(
    req: &Request,
    backend: &dyn MirrorBackend,
    faults: Option<&FaultInjector>,
    metrics: &MetricsRegistry,
) -> Routed {
    let route = |req, backend| route(req, backend, metrics);
    let Some(inj) = faults else { return Routed::Respond(route(req, backend)) };
    let path = req.target.split('?').next().unwrap_or("");
    let Some(op) = http_fault_op(path) else { return Routed::Respond(route(req, backend)) };

    let mut allowed = vec![
        FaultKind::Drop,
        FaultKind::RateLimit,
        FaultKind::ServerError,
        FaultKind::SlowLink,
    ];
    if req.header("authorization").is_some() {
        // Token expiry mid-crawl: only a client that presented credentials
        // can watch them flap. Anonymous pulls (the study's default) are
        // never told to re-authenticate by this fault.
        allowed.push(FaultKind::AuthFlap);
    }
    if matches!(op, FaultOp::Manifest | FaultOp::Blob) {
        allowed.push(FaultKind::Truncate);
        allowed.push(FaultKind::Corrupt);
    }

    let key = fault_key(path.as_bytes());
    let decision = inj.decide(op, key, &allowed);
    if decision.is_some() {
        metrics.counter("dhub_http_wire_faults_total").inc();
    }
    match decision {
        None => Routed::Respond(route(req, backend)),
        Some(FaultKind::Drop) => Routed::Drop,
        Some(FaultKind::RateLimit) => Routed::Respond(json_error(429, "TOOMANYREQUESTS")),
        Some(FaultKind::ServerError) => Routed::Respond(json_error(503, "UNAVAILABLE")),
        Some(FaultKind::AuthFlap) => Routed::Respond(challenge(json_error(401, "UNAUTHORIZED"))),
        Some(FaultKind::SlowLink) => {
            std::thread::sleep(inj.slow_link());
            Routed::Respond(route(req, backend))
        }
        Some(FaultKind::Truncate) => {
            let resp = route(req, backend);
            if resp.status == 200 && !resp.body.is_empty() {
                let keep = (key as usize) % resp.body.len();
                Routed::RespondTruncated(resp, keep)
            } else {
                Routed::Respond(resp)
            }
        }
        Some(FaultKind::Corrupt) => {
            let mut resp = route(req, backend);
            if resp.status == 200 && !resp.body.is_empty() {
                let bit = (key as usize) % (resp.body.len() * 8);
                // The one place a served body is copied: the flip lands in
                // a private copy, never in the store's or cache's bytes.
                Arc::make_mut(&mut resp.body)[bit / 8] ^= 1 << (bit % 8);
            }
            Routed::Respond(resp)
        }
    }
}

fn challenge(resp: Response) -> Response {
    resp.with_header("www-authenticate", "Bearer realm=\"/token\",service=\"dhub-registry\"")
}

/// Maps a [`BackendError`] to its registry V2 response; `not_found_code`
/// is the route's 404 wording.
fn backend_error_response(err: BackendError, not_found_code: &str) -> Response {
    match err {
        BackendError::AuthRequired => challenge(json_error(401, "UNAUTHORIZED")),
        BackendError::NotFound => json_error(404, not_found_code),
        BackendError::RateLimited => json_error(429, "TOOMANYREQUESTS"),
        BackendError::Unavailable => json_error(503, "UNAVAILABLE"),
    }
}

fn manifest_endpoint(be: &dyn MirrorBackend, name: &str, reference: &str, authed: bool) -> Response {
    let Some(repo) = RepoName::parse(name) else { return json_error(404, "NAME_INVALID") };
    match be.fetch_manifest(&repo, reference, authed) {
        Ok((digest, body)) => Response::new(200, body)
            .with_header("content-type", "application/vnd.docker.distribution.manifest.v2+json")
            .with_header("docker-content-digest", &digest.to_docker_string()),
        Err(e) => backend_error_response(e, "MANIFEST_UNKNOWN"),
    }
}

fn blob_endpoint(be: &dyn MirrorBackend, name: &str, digest: &str, authed: bool) -> Response {
    let Some(repo) = RepoName::parse(name) else { return json_error(404, "NAME_INVALID") };
    let Some(d) = Digest::parse(digest) else { return json_error(404, "DIGEST_INVALID") };
    match be.fetch_blob(&repo, &d, authed) {
        Ok(body) => Response::new(200, body)
            .with_header("content-type", "application/octet-stream")
            .with_header("docker-content-digest", digest),
        Err(e) => backend_error_response(e, "BLOB_UNKNOWN"),
    }
}

fn tags_endpoint(be: &dyn MirrorBackend, name: &str, authed: bool) -> Response {
    let Some(repo) = RepoName::parse(name) else { return json_error(404, "NAME_INVALID") };
    match be.tags(&repo, authed) {
        Ok(mut tags) => {
            tags.sort();
            let mut body = Json::obj();
            body.set("name", name);
            body.set("tags", tags);
            Response::new(200, body.to_string().into_bytes())
                .with_header("content-type", "application/json")
        }
        Err(e) => backend_error_response(e, "NAME_UNKNOWN"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_model::{LayerRef, Manifest};

    fn test_registry() -> Arc<Registry> {
        let reg = Registry::new();
        let blob = b"layer-bytes".to_vec();
        let repo = RepoName::official("nginx");
        reg.create_repo(repo.clone(), false);
        let manifest =
            Manifest::new(vec![LayerRef { digest: Digest::of(&blob), size: blob.len() as u64 }]);
        reg.push_image(&repo, "latest", &manifest, vec![blob]).unwrap();

        let private = RepoName::user("corp", "secret");
        reg.create_repo(private.clone(), true);
        let pblob = b"private-bytes".to_vec();
        let pm = Manifest::new(vec![LayerRef { digest: Digest::of(&pblob), size: pblob.len() as u64 }]);
        reg.push_image(&private, "latest", &pm, vec![pblob]).unwrap();
        Arc::new(reg)
    }

    fn roundtrip(req: &Request, reg: &Arc<Registry>) -> Response {
        route(req, reg.as_ref(), &MetricsRegistry::new())
    }

    fn faulty(req: &Request, reg: &Arc<Registry>, inj: FaultInjector) -> Routed {
        route_faulty(req, reg.as_ref(), Some(&inj), &MetricsRegistry::new())
    }

    #[test]
    fn version_check() {
        let reg = test_registry();
        let resp = roundtrip(&Request::get("/v2/"), &reg);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("docker-distribution-api-version").unwrap(), "registry/2.0");
    }

    #[test]
    fn manifest_fetch_and_digest_header() {
        let reg = test_registry();
        let resp = roundtrip(&Request::get("/v2/nginx/manifests/latest"), &reg);
        assert_eq!(resp.status, 200);
        let m = Manifest::from_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(m.layers.len(), 1);
        let d = Digest::parse(resp.header("docker-content-digest").unwrap()).unwrap();
        assert_eq!(d, m.digest());
    }

    #[test]
    fn blob_fetch() {
        let reg = test_registry();
        let m = roundtrip(&Request::get("/v2/nginx/manifests/latest"), &reg);
        let manifest = Manifest::from_json(std::str::from_utf8(&m.body).unwrap()).unwrap();
        let digest = manifest.layers[0].digest.to_docker_string();
        let resp = roundtrip(&Request::get(&format!("/v2/nginx/blobs/{digest}")), &reg);
        assert_eq!(resp.status, 200);
        assert_eq!(*resp.body, b"layer-bytes");
    }

    #[test]
    fn auth_dance() {
        let reg = test_registry();
        // Anonymous → 401 with a challenge.
        let resp = roundtrip(&Request::get("/v2/corp/secret/manifests/latest"), &reg);
        assert_eq!(resp.status, 401);
        assert!(resp.header("www-authenticate").unwrap().contains("Bearer realm"));
        // Token endpoint issues the bearer token.
        let tok = roundtrip(&Request::get("/token"), &reg);
        assert_eq!(tok.status, 200);
        assert!(std::str::from_utf8(&tok.body).unwrap().contains(DEMO_TOKEN));
        // Authorized fetch succeeds.
        let resp = roundtrip(
            &Request::get("/v2/corp/secret/manifests/latest")
                .with_header("authorization", &format!("Bearer {DEMO_TOKEN}")),
            &reg,
        );
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn wrong_token_rejected() {
        let reg = test_registry();
        let resp = roundtrip(
            &Request::get("/v2/corp/secret/manifests/latest")
                .with_header("authorization", "Bearer wrong"),
            &reg,
        );
        assert_eq!(resp.status, 401);
    }

    #[test]
    fn unknown_routes_404() {
        let reg = test_registry();
        assert_eq!(roundtrip(&Request::get("/v2/ghost/manifests/latest"), &reg).status, 404);
        assert_eq!(roundtrip(&Request::get("/v2/nginx/manifests/v9"), &reg).status, 404);
        assert_eq!(roundtrip(&Request::get("/elsewhere"), &reg).status, 404);
        assert_eq!(
            roundtrip(&Request::get("/v2/nginx/blobs/sha256:zz"), &reg).status,
            404
        );
        // 64 bytes with a two-byte character at an odd offset: an invalid
        // digest like any other, not a panic in the handler.
        let non_ascii = format!("/v2/nginx/blobs/sha256:a\u{e9}{}", "0".repeat(61));
        let resp = roundtrip(&Request::get(&non_ascii), &reg);
        assert_eq!(resp.status, 404);
        assert!(String::from_utf8_lossy(&resp.body).contains("DIGEST_INVALID"));
    }

    #[test]
    fn non_get_rejected() {
        let reg = test_registry();
        let mut req = Request::get("/v2/");
        req.method = "DELETE".into();
        assert_eq!(roundtrip(&req, &reg).status, 405);
    }

    #[test]
    fn tags_list() {
        let reg = test_registry();
        let resp = roundtrip(&Request::get("/v2/nginx/tags/list"), &reg);
        assert_eq!(resp.status, 200);
        let text = std::str::from_utf8(&resp.body).unwrap();
        assert!(text.contains("latest"), "{text}");
    }

    use crate::http::wire::read_response;
    use dhub_faults::FaultConfig;
    use std::io::{Read as _, Write as _};
    use std::time::Instant;

    /// An injector that always fires `kind` (and nothing else).
    fn only(kind: FaultKind) -> FaultInjector {
        FaultInjector::new(FaultConfig::only(7, 1.0, kind))
    }

    #[test]
    fn injected_rate_limit_then_drop() {
        let reg = test_registry();
        let req = Request::get("/v2/nginx/manifests/latest");
        match faulty(&req, &reg, only(FaultKind::RateLimit)) {
            Routed::Respond(r) => assert_eq!(r.status, 429),
            _ => panic!("expected a 429 response"),
        }
        assert!(matches!(faulty(&req, &reg, only(FaultKind::Drop)), Routed::Drop));
    }

    #[test]
    fn injected_truncation_keeps_prefix_only() {
        let reg = test_registry();
        let req = Request::get("/v2/nginx/manifests/latest");
        match faulty(&req, &reg, only(FaultKind::Truncate)) {
            Routed::RespondTruncated(r, keep) => {
                assert_eq!(r.status, 200);
                assert!(keep < r.body.len());
            }
            _ => panic!("expected a truncated response"),
        }
    }

    #[test]
    fn injected_corruption_flips_one_bit() {
        let reg = test_registry();
        let req = Request::get("/v2/nginx/manifests/latest");
        let clean = roundtrip(&req, &reg);
        match faulty(&req, &reg, only(FaultKind::Corrupt)) {
            Routed::Respond(r) => {
                assert_eq!(r.status, 200);
                assert_ne!(r.body, clean.body);
                let flipped: u32 = r
                    .body
                    .iter()
                    .zip(clean.body.iter())
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                assert_eq!(flipped, 1);
            }
            _ => panic!("expected a corrupted response"),
        }
    }

    #[test]
    fn auth_flap_spares_anonymous_requests() {
        let reg = test_registry();
        // Anonymous request: AuthFlap is not in the allowed set, every other
        // weight is zero, so no fault fires at all.
        let req = Request::get("/v2/nginx/manifests/latest");
        match faulty(&req, &reg, only(FaultKind::AuthFlap)) {
            Routed::Respond(r) => assert_eq!(r.status, 200),
            _ => panic!("anonymous request must not fault"),
        }
        // The same request with credentials gets a re-auth challenge.
        let req = req.with_header("authorization", &format!("Bearer {DEMO_TOKEN}"));
        match faulty(&req, &reg, only(FaultKind::AuthFlap)) {
            Routed::Respond(r) => {
                assert_eq!(r.status, 401);
                assert!(r.header("www-authenticate").unwrap().contains("Bearer"));
            }
            _ => panic!("credentialed request should see the flap"),
        }
    }

    #[test]
    fn overload_sheds_with_503_and_counter() {
        let reg = test_registry();
        let metrics = Arc::new(MetricsRegistry::new());
        let server = RegistryServer::start_full(reg, None, metrics.clone(), 1).unwrap();

        // Take the only permit: this handler parks in read_request because
        // we never send a byte on the connection.
        let _held = TcpStream::connect(server.addr()).unwrap();

        // The acceptor may briefly race the permit hand-off, so retry:
        // once the held connection owns the permit, every extra connection
        // must be shed with an immediate 503.
        let mut saw_503 = false;
        for _ in 0..200 {
            let mut extra = TcpStream::connect(server.addr()).unwrap();
            let _ = extra.write_all(b"GET /v2/ HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n");
            let mut raw = String::new();
            let _ = extra.read_to_string(&mut raw);
            if raw.starts_with("HTTP/1.1 503") {
                saw_503 = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(saw_503, "no extra connection was shed");
        assert!(
            metrics.counter_value("dhub_http_rejected_overload_total") > 0,
            "overload counter never moved"
        );
        server.shutdown();
    }

    /// A server over `test_registry()` recording into its own metrics.
    fn metered_server(
        faults: Option<FaultInjector>,
        idle_timeout: Duration,
    ) -> (RegistryServer, Arc<Registry>, Arc<MetricsRegistry>) {
        let reg = test_registry();
        let metrics = Arc::new(MetricsRegistry::new());
        let server = RegistryServer::start_backend(
            reg.clone(),
            faults.map(Arc::new),
            metrics.clone(),
            DEFAULT_MAX_CONNS,
            idle_timeout,
        );
        (server.unwrap(), reg, metrics)
    }

    const PING: &[u8] = b"GET /v2/ HTTP/1.1\r\nhost: x\r\n\r\n";

    /// A raw keep-alive connection that has had one ping answered.
    fn warm_connection(server: &RegistryServer) -> BufReader<TcpStream> {
        let mut conn = BufReader::new(TcpStream::connect(server.addr()).unwrap());
        conn.get_mut().write_all(PING).unwrap();
        assert_eq!(read_response(&mut conn).unwrap().status, 200);
        conn
    }

    #[test]
    fn shutdown_is_prompt_and_closes_kept_alive_connections() {
        let (server, _reg, metrics) = metered_server(None, IDLE_TIMEOUT);
        let mut used = warm_connection(&server);
        let mut idle = warm_connection(&server);
        assert_eq!(metrics.counter_value("dhub_http_connections_total"), 2);

        let t = Instant::now();
        server.shutdown();
        let took = t.elapsed();
        assert!(took < Duration::from_millis(100), "shutdown took {took:?} with idle connections");

        // The connection predates the shutdown; the server must not answer on it.
        let _ = used.get_mut().write_all(PING);
        assert!(read_response(&mut used).is_err(), "a stopped server answered a kept-alive connection");
        assert_eq!(metrics.counter_value("dhub_http_requests_total"), 2);
        // The idle one was closed by the shutdown, not left to its timeout.
        idle.get_ref().set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        assert_eq!(idle.read_to_end(&mut Vec::new()).unwrap(), 0);
    }

    #[test]
    fn request_cap_is_announced_on_the_last_response() {
        let (server, _reg, metrics) = metered_server(None, IDLE_TIMEOUT);
        let mut conn = BufReader::new(TcpStream::connect(server.addr()).unwrap());
        for served in 1..=MAX_REQUESTS_PER_CONN {
            conn.get_mut().write_all(PING).unwrap();
            let resp = read_response(&mut conn).unwrap();
            assert_eq!(resp.status, 200);
            let announced = resp.header("connection") == Some("close");
            assert_eq!(announced, served == MAX_REQUESTS_PER_CONN, "response {served}");
        }
        let mut rest = Vec::new();
        assert_eq!(conn.read_to_end(&mut rest).unwrap(), 0, "closed after the capped response");
        assert_eq!(metrics.counter_value("dhub_http_connections_total"), 1);
        server.shutdown();
    }

    #[test]
    fn idle_connection_is_closed_without_a_word() {
        let (server, _reg, metrics) = metered_server(None, Duration::from_millis(50));
        // Idle from the start, and idle after a served request: both read
        // EOF and not one byte — never a 400 queued for the next exchange.
        let mut fresh = TcpStream::connect(server.addr()).unwrap();
        let mut used = warm_connection(&server);
        let mut seen = Vec::new();
        assert_eq!(fresh.read_to_end(&mut seen).unwrap(), 0, "{:?}", String::from_utf8_lossy(&seen));
        assert_eq!(used.read_to_end(&mut seen).unwrap(), 0, "{:?}", String::from_utf8_lossy(&seen));
        assert_eq!(metrics.counter_value("dhub_http_idle_closed_total"), 2);
        assert_eq!(metrics.counter_value("dhub_http_status_4xx_total"), 0);
        server.shutdown();
    }

    #[test]
    fn unreadable_requests_get_the_status_that_names_the_problem() {
        let (server, _reg, metrics) = metered_server(None, IDLE_TIMEOUT);
        let exchange = |raw: &[u8]| {
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            conn.write_all(raw).unwrap();
            let resp = read_response(&mut BufReader::new(conn)).unwrap();
            assert_eq!(resp.header("connection"), Some("close"), "{}", resp.status);
            resp.status
        };
        let mut long_header = b"GET /v2/ HTTP/1.1\r\nx: ".to_vec();
        long_header.extend(std::iter::repeat_n(b'a', 17 * 1024));
        long_header.extend_from_slice(b"\r\n\r\n");
        assert_eq!(exchange(&long_header), 431);
        // 2 GiB declared, none sent: answered at once, from the length alone.
        let t = Instant::now();
        assert_eq!(exchange(b"GET /v2/ HTTP/1.1\r\ncontent-length: 2147483647\r\n\r\n"), 413);
        assert!(t.elapsed() < Duration::from_secs(1));
        assert_eq!(exchange(b"NOPE\r\n\r\n"), 400);
        assert_eq!(metrics.counter_value("dhub_http_rejected_header_total"), 1);
        assert_eq!(metrics.counter_value("dhub_http_rejected_body_total"), 1);
        // None of the three was routed.
        assert_eq!(metrics.counter_value("dhub_http_requests_total"), 0);
        server.shutdown();
    }

    #[test]
    fn corruption_reaches_the_wire_and_never_the_store() {
        let (server, reg, _metrics) = metered_server(Some(only(FaultKind::Corrupt)), IDLE_TIMEOUT);
        let digest = Digest::of(b"layer-bytes");
        let stored = reg.get_blob(&digest).unwrap();
        let mut conn = BufReader::new(TcpStream::connect(server.addr()).unwrap());
        Request::get(&format!("/v2/nginx/blobs/{digest}")).write_to(conn.get_mut()).unwrap();
        let resp = read_response(&mut conn).unwrap();
        assert_eq!(resp.status, 200);
        let flipped: u32 =
            resp.body.iter().zip(stored.iter()).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit differs on the wire");
        // The store still holds the same allocation with the same bytes.
        assert!(Arc::ptr_eq(&stored, &reg.get_blob(&digest).unwrap()));
        assert_eq!(**stored, *b"layer-bytes");
        server.shutdown();
    }

    /// A canned backend standing in for `dhub-mirror` (which lives
    /// downstream of this crate): proves the mirror server mode speaks the
    /// same protocol shape as the local one.
    struct CannedBackend {
        manifest: Manifest,
        blob: Arc<Vec<u8>>,
    }

    impl MirrorBackend for CannedBackend {
        fn fetch_manifest(
            &self,
            repo: &RepoName,
            reference: &str,
            _authed: bool,
        ) -> Result<(Digest, Arc<Vec<u8>>), BackendError> {
            if repo.full() != "nginx" || reference != "latest" {
                return Err(BackendError::NotFound);
            }
            let body = self.manifest.to_json().into_bytes();
            Ok((Digest::of(&body), Arc::new(body)))
        }

        fn fetch_blob(
            &self,
            _repo: &RepoName,
            digest: &Digest,
            _authed: bool,
        ) -> Result<Arc<Vec<u8>>, BackendError> {
            if *digest == Digest::of(&self.blob) {
                Ok(self.blob.clone())
            } else {
                Err(BackendError::NotFound)
            }
        }

        fn tags(&self, _repo: &RepoName, _authed: bool) -> Result<Vec<String>, BackendError> {
            Ok(vec!["latest".into()])
        }
    }

    #[test]
    fn mirror_mode_serves_backend_objects() {
        let blob = b"mirror-layer".to_vec();
        let manifest =
            Manifest::new(vec![LayerRef { digest: Digest::of(&blob), size: blob.len() as u64 }]);
        let backend = &CannedBackend { manifest: manifest.clone(), blob: Arc::new(blob.clone()) };
        let metrics = MetricsRegistry::new();

        let resp = route(&Request::get("/v2/nginx/manifests/latest"), backend, &metrics);
        assert_eq!(resp.status, 200);
        let m = Manifest::from_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(m.layers.len(), 1);
        let d = Digest::parse(resp.header("docker-content-digest").unwrap()).unwrap();
        assert_eq!(d, Digest::of(&resp.body));

        let blob_path = format!("/v2/nginx/blobs/{}", Digest::of(&blob).to_docker_string());
        let resp = route(&Request::get(&blob_path), backend, &metrics);
        assert_eq!(resp.status, 200);
        assert_eq!(*resp.body, blob);

        let resp = route(&Request::get("/v2/nginx/manifests/v9"), backend, &metrics);
        assert_eq!(resp.status, 404);

        let resp = route(&Request::get("/v2/nginx/tags/list"), backend, &metrics);
        assert_eq!(resp.status, 200);
        assert!(std::str::from_utf8(&resp.body).unwrap().contains("latest"));
    }
}
