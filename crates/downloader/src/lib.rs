//! Parallel image downloader (§III-B of the paper).
//!
//! The paper bypassed `docker pull` (which unpacks layers and writes
//! storage-driver snapshots) and talked to the Registry API directly:
//! resolve `latest`, then fetch each referenced layer — and *only unique
//! layers*, skipping blobs already fetched for another image. The same
//! logic runs here over the in-process registry: a worker crew downloads
//! images in parallel, a shared dedup set prevents duplicate layer
//! fetches, and the failure taxonomy (auth vs. missing `latest`) is
//! tallied exactly as the paper reports it.
//!
//! There is one download loop. What varies is the [`Transport`] a
//! repository is pulled over (in-process [`InProcess`], or the Registry V2
//! HTTP client) and who schedules the per-repository step: the batch
//! loop behind [`download_all_obs`] / [`download_all_http_obs`] calls
//! `DownloadRun::pull_repo`; the queued study runs the transport's
//! operations in separate jobs and drives the record steps `pull_repo` is
//! built from.

use dhub_faults::{fault_key, RetryClass, RetryEvent, RetryPolicy};
use dhub_model::{Digest, Manifest, RepoName};
use dhub_obs::{DeltaCounter, MetricsRegistry};
use dhub_par::ShardedMap;
use dhub_registry::http::ClientError;
use dhub_registry::{ApiError, NetworkModel, Registry, RemoteRegistry};
use dhub_sync::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// One successfully downloaded image.
#[derive(Clone, Debug)]
pub struct DownloadedImage {
    pub repo: RepoName,
    pub manifest_digest: Digest,
    pub manifest: Manifest,
}

/// Aggregate download outcome — the numbers behind the paper's
/// "355,319 images / 1,792,609 unique layers / 111,384 failures (13 % auth,
/// 87 % no latest)".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DownloadReport {
    pub images_downloaded: usize,
    pub unique_layers: usize,
    /// Compressed bytes actually transferred (unique layers only).
    pub bytes_fetched: u64,
    /// Layer fetches skipped because another image already pulled the blob.
    pub layer_fetches_skipped: u64,
    pub failed_auth: usize,
    pub failed_no_latest: usize,
    pub failed_other: usize,
    /// Attempts re-issued after a transient (retryable) failure.
    pub retries: u64,
    /// Operations abandoned after the retry budget ran out.
    pub gave_up: u64,
    /// The subset of `retries` forced by failed digest verification
    /// (truncated or bit-flipped bodies).
    pub corrupt_retries: u64,
    /// Time lost to retry backoff, summed over workers (the deterministic
    /// scheduled delays, so this is identical across worker counts).
    pub backoff_sleep: Duration,
    /// Simulated wall-clock transfer time under the network model, summed
    /// over transfers (i.e. single-connection equivalent).
    pub simulated_transfer: Duration,
}

impl DownloadReport {
    /// Total failed images.
    pub fn failures(&self) -> usize {
        self.failed_auth + self.failed_no_latest + self.failed_other
    }
}

/// Shared retry bookkeeping for one download run (thread-safe; workers
/// bump it concurrently). The counters are `dhub-obs` sharded counters
/// aliasing the registry's `dhub_download_*` metrics, so a `/metrics`
/// scrape sees retries live. Accessors report the *delta* since
/// construction, so reports derived from them reconcile even on a
/// long-lived shared registry.
pub struct RetryCounters {
    retries: DeltaCounter,
    gave_up: DeltaCounter,
    corrupt_retries: DeltaCounter,
    backoff_ns: DeltaCounter,
}

impl RetryCounters {
    /// Counters aliasing `reg`'s `dhub_download_{retries,gave_up,
    /// corrupt_retries,backoff_ns}_total` metrics.
    pub fn on(reg: &MetricsRegistry) -> RetryCounters {
        RetryCounters {
            retries: DeltaCounter::on(reg, "dhub_download_retries_total"),
            gave_up: DeltaCounter::on(reg, "dhub_download_gave_up_total"),
            corrupt_retries: DeltaCounter::on(reg, "dhub_download_corrupt_retries_total"),
            backoff_ns: DeltaCounter::on(reg, "dhub_download_backoff_ns_total"),
        }
    }

    /// Attempts re-issued after retryable errors.
    pub fn retries(&self) -> u64 {
        self.retries.delta()
    }

    /// Operations abandoned with the budget exhausted.
    pub fn gave_up(&self) -> u64 {
        self.gave_up.delta()
    }

    /// Retries caused by failed digest verification.
    pub fn corrupt_retries(&self) -> u64 {
        self.corrupt_retries.delta()
    }

    /// Total scheduled backoff slept by retry loops using these counters.
    pub fn backoff_sleep(&self) -> Duration {
        Duration::from_nanos(self.backoff_ns.delta())
    }

    /// Folds an HTTP client's retry statistics into these counters (the
    /// client tallies its own retries and reports totals after the fact).
    fn absorb(&self, stats: &dhub_registry::http::RetryStats) {
        self.retries.add(stats.retries);
        self.gave_up.add(stats.gave_up);
        self.corrupt_retries.add(stats.corrupt_retries);
        self.backoff_ns.add(stats.backoff_ns);
    }

    /// The [`RetryPolicy::run`] hook: ticks these counters per retry (so a
    /// mid-run scrape sees them move) and per give-up. `corrupt` marks
    /// errors that are failed digest verifications.
    fn record<E: 'static>(&self, corrupt: fn(&E) -> bool) -> impl FnMut(&E, RetryEvent) + '_ {
        move |e, event| match event {
            RetryEvent::Retry(slept) => {
                if corrupt(e) {
                    self.corrupt_retries.add(1);
                }
                self.retries.add(1);
                self.backoff_ns.add(slept.as_nanos() as u64);
            }
            RetryEvent::GaveUp => self.gave_up.add(1),
        }
    }
}

fn api_class(e: &ApiError) -> RetryClass {
    if e.is_retryable() {
        RetryClass::Retryable
    } else {
        RetryClass::Terminal
    }
}

/// A blob-fetch error after verification: either the registry refused, or
/// the bytes kept failing the digest check.
#[derive(Debug)]
pub enum BlobError {
    Api(ApiError),
    DigestMismatch,
}

/// Resolves a manifest under the retry policy, counting what the loop did.
fn get_manifest_with_retry(
    registry: &Registry,
    repo: &RepoName,
    tag: &str,
    policy: &RetryPolicy,
    counters: &RetryCounters,
) -> Result<dhub_registry::PullSession, ApiError> {
    let key = fault_key(format!("{}:{tag}", repo.full()).as_bytes());
    policy.run(
        key,
        || registry.get_manifest(repo, tag, false),
        api_class,
        counters.record(|e| matches!(e, ApiError::CorruptManifest)),
    )
}

/// Fetches one blob and verifies the bytes hash to `digest` — the content
/// address the manifest promised. A mismatch (bit flip, truncation) is
/// retried like any transient fault, never silently stored.
pub fn get_blob_verified(
    registry: &Registry,
    digest: &Digest,
    policy: &RetryPolicy,
    counters: &RetryCounters,
) -> Result<Arc<Vec<u8>>, BlobError> {
    let key = fault_key(&digest.0);
    policy.run(
        key,
        || {
            let blob = registry.get_blob(digest).map_err(BlobError::Api)?;
            if Digest::of(blob.as_ref()) != *digest {
                return Err(BlobError::DigestMismatch);
            }
            Ok(blob)
        },
        |e| match e {
            BlobError::Api(e) => api_class(e),
            BlobError::DigestMismatch => RetryClass::Retryable,
        },
        counters.record(|e| matches!(e, BlobError::DigestMismatch)),
    )
}

/// Download result: per-image successes plus fetched unique layer blobs.
pub struct DownloadResult {
    pub images: Vec<DownloadedImage>,
    /// Unique layer blobs, keyed by digest (decompressed later by the
    /// analyzer).
    pub layers: Vec<(Digest, Arc<Vec<u8>>)>,
    pub report: DownloadReport,
}

/// Per-run download counters attached to an obs registry; every field both
/// feeds the live `dhub_download_*` metric and remembers its entry value so
/// the final [`DownloadReport`] is the exact delta this run contributed.
struct DownloadCounters {
    auth: DeltaCounter,
    no_latest: DeltaCounter,
    other: DeltaCounter,
    skipped: DeltaCounter,
    bytes: DeltaCounter,
    sim_nanos: DeltaCounter,
    images_ok: DeltaCounter,
    unique_layers: DeltaCounter,
    retry: RetryCounters,
}

impl DownloadCounters {
    fn on(reg: &MetricsRegistry) -> DownloadCounters {
        DownloadCounters {
            auth: DeltaCounter::on(reg, "dhub_download_failed_auth_total"),
            no_latest: DeltaCounter::on(reg, "dhub_download_failed_no_latest_total"),
            other: DeltaCounter::on(reg, "dhub_download_failed_other_total"),
            skipped: DeltaCounter::on(reg, "dhub_download_layer_fetches_skipped_total"),
            bytes: DeltaCounter::on(reg, "dhub_download_bytes_total"),
            sim_nanos: DeltaCounter::on(reg, "dhub_download_sim_transfer_ns_total"),
            images_ok: DeltaCounter::on(reg, "dhub_download_images_ok_total"),
            unique_layers: DeltaCounter::on(reg, "dhub_download_unique_layers_total"),
            retry: RetryCounters::on(reg),
        }
    }

    fn report(&self) -> DownloadReport {
        DownloadReport {
            images_downloaded: self.images_ok.delta() as usize,
            unique_layers: self.unique_layers.delta() as usize,
            bytes_fetched: self.bytes.delta(),
            layer_fetches_skipped: self.skipped.delta(),
            failed_auth: self.auth.delta() as usize,
            failed_no_latest: self.no_latest.delta() as usize,
            failed_other: self.other.delta() as usize,
            retries: self.retry.retries(),
            gave_up: self.retry.gave_up(),
            corrupt_retries: self.retry.corrupt_retries(),
            backoff_sleep: self.retry.backoff_sleep(),
            simulated_transfer: Duration::from_nanos(self.sim_nanos.delta()),
        }
    }
}

/// Why a repository's `latest` manifest did not resolve — the paper's
/// failure taxonomy, independent of the transport's own error type.
pub enum ResolveError {
    /// The repository requires authentication.
    Auth,
    /// The repository has no `latest` tag.
    NoLatest,
    /// Anything else, including a spent retry budget.
    Other,
}

/// How one repository is pulled: resolve `latest`, fetch verified blobs.
/// Both operations retry transient faults under the transport's own
/// policy; what they return is final.
pub trait Transport {
    /// Resolves `repo:latest` to its manifest digest and manifest.
    fn resolve_manifest(&self, repo: &RepoName) -> Result<(Digest, Manifest), ResolveError>;

    /// Fetches one blob whose bytes hash to `digest`; `None` once the
    /// retry budget is spent.
    fn fetch_blob(&self, repo: &RepoName, digest: &Digest) -> Option<Arc<Vec<u8>>>;

    /// Simulated wire time of a `bytes`-long response (zero over a real
    /// socket, where the transfer itself takes the time).
    fn transfer_time(&self, bytes: u64) -> Duration;
}

/// The in-process transport: direct calls into a [`Registry`], transfer
/// time simulated by a [`NetworkModel`], retries counted live into the
/// run's [`RetryCounters`].
pub struct InProcess<'a> {
    registry: &'a Registry,
    net: &'a NetworkModel,
    policy: &'a RetryPolicy,
    retry: &'a RetryCounters,
}

impl<'a> InProcess<'a> {
    /// A transport over `registry`; pass the run's [`DownloadRun::retry`].
    pub fn new(
        registry: &'a Registry,
        net: &'a NetworkModel,
        policy: &'a RetryPolicy,
        retry: &'a RetryCounters,
    ) -> InProcess<'a> {
        InProcess { registry, net, policy, retry }
    }
}

impl Transport for InProcess<'_> {
    fn resolve_manifest(&self, repo: &RepoName) -> Result<(Digest, Manifest), ResolveError> {
        get_manifest_with_retry(self.registry, repo, "latest", self.policy, self.retry)
            .map(|sess| (sess.manifest_digest, sess.manifest))
            .map_err(|e| match e {
                ApiError::AuthRequired => ResolveError::Auth,
                ApiError::TagNotFound => ResolveError::NoLatest,
                _ => ResolveError::Other,
            })
    }

    fn fetch_blob(&self, _repo: &RepoName, digest: &Digest) -> Option<Arc<Vec<u8>>> {
        get_blob_verified(self.registry, digest, self.policy, self.retry).ok()
    }

    fn transfer_time(&self, bytes: u64) -> Duration {
        self.net.transfer_time(bytes)
    }
}

/// The Registry V2 **HTTP** transport — the exact protocol path the
/// paper's downloader took against `registry-1.docker.io`. The client
/// verifies digests and retries internally; its retry totals are folded
/// into the run afterwards ([`RetryCounters::absorb`]).
impl Transport for RemoteRegistry {
    fn resolve_manifest(&self, repo: &RepoName) -> Result<(Digest, Manifest), ResolveError> {
        self.get_manifest(repo, "latest").map_err(|e| match e {
            ClientError::AuthRequired => ResolveError::Auth,
            ClientError::NotFound => ResolveError::NoLatest,
            _ => ResolveError::Other,
        })
    }

    fn fetch_blob(&self, repo: &RepoName, digest: &Digest) -> Option<Arc<Vec<u8>>> {
        self.get_blob(repo, digest).ok().map(Arc::new)
    }

    fn transfer_time(&self, _bytes: u64) -> Duration {
        Duration::ZERO
    }
}

/// What one repository contributed to a run: its image, plus the layer
/// blobs this pull was the first to claim.
type Pulled = (DownloadedImage, Vec<(Digest, Arc<Vec<u8>>)>);

/// Shared state of one download run: the `dhub_download_*` counters, the
/// unique-layer claim set, and the digests whose fetch was abandoned.
/// The batch loop calls `pull_repo` once per repository from as many
/// threads as it likes, then [`DownloadRun::finish`] once; the queued
/// study drives the record steps itself and ends in the same `finish`.
pub struct DownloadRun<'a> {
    obs: &'a MetricsRegistry,
    counters: DownloadCounters,
    /// Every digest some pull has claimed (fetched or abandoned).
    claimed: ShardedMap<Digest, ()>,
    /// Claimed digests whose fetch exhausted the retry budget.
    failed: Mutex<BTreeSet<Digest>>,
}

impl<'a> DownloadRun<'a> {
    /// A fresh run recording into `obs`; every tally lives in the
    /// registry's `dhub_download_*` counters (scrapeable mid-run via
    /// `/metrics`), and the final [`DownloadReport`] is *derived from*
    /// those counters — the two reconcile exactly by construction.
    pub fn on(obs: &'a MetricsRegistry) -> DownloadRun<'a> {
        DownloadRun {
            obs,
            counters: DownloadCounters::on(obs),
            claimed: ShardedMap::new(64),
            failed: Mutex::new(BTreeSet::new()),
        }
    }

    /// The run's retry counters (what [`InProcess`] counts into and an
    /// HTTP client's totals are absorbed into).
    pub fn retry(&self) -> &RetryCounters {
        &self.counters.retry
    }

    /// Pulls one repository's `latest` image over `transport`, fetching
    /// only the layers no other pull has claimed. `None` when the manifest
    /// does not resolve (tallied into the failure taxonomy). This is the
    /// three record steps below around the transport's two operations; a
    /// scheduler that performs those operations elsewhere (the queued
    /// study's image and layer jobs) drives the steps itself.
    fn pull_repo<T: Transport>(&self, transport: &T, repo: &RepoName) -> Option<Pulled> {
        // Spans are roots, not nested: a shared layer's fetch is performed
        // by whichever worker wins the claim race, so nesting fetch spans
        // under the winner's manifest span would make trace ids depend on
        // interleaving. Root spans keyed by repo/digest stay deterministic.
        let resolved = {
            let _span = dhub_obs::span!(self.obs, "resolve_manifest", repo.full());
            transport.resolve_manifest(repo)
        };
        let (manifest_digest, manifest) = self.record_resolve(transport, resolved)?;
        let mut blobs = Vec::new();
        for layer in &manifest.layers {
            if !self.claim(layer.digest) {
                continue;
            }
            let _span = dhub_obs::span!(self.obs, "fetch_blob", layer.digest);
            let blob = transport.fetch_blob(repo, &layer.digest);
            self.record_fetch(transport, layer.digest, blob.as_ref().map(|b| b.len() as u64));
            // An abandoned fetch fails the image in `finish`; its other
            // blobs still flow downstream — another image may share them.
            blobs.extend(blob.map(|b| (layer.digest, b)));
        }
        Some((DownloadedImage { repo: repo.clone(), manifest_digest, manifest }, blobs))
    }

    /// Records one repository's resolve outcome: a failure lands in the
    /// paper's taxonomy (auth / no `latest` / other), a success is charged
    /// the manifest response's wire time and handed back.
    pub fn record_resolve<T: Transport, M>(
        &self,
        transport: &T,
        resolved: Result<M, ResolveError>,
    ) -> Option<M> {
        let dl = &self.counters;
        match resolved {
            Ok(m) => {
                dl.sim_nanos.add(transport.transfer_time(1024).as_nanos() as u64);
                Some(m)
            }
            Err(e) => {
                match e {
                    ResolveError::Auth => dl.auth.add(1),
                    ResolveError::NoLatest => dl.no_latest.add(1),
                    ResolveError::Other => dl.other.add(1),
                }
                None
            }
        }
    }

    /// Claims one manifest layer reference. The first claimant of a digest
    /// (atomic per shard) gets `true` and owes a [`DownloadRun::record_fetch`];
    /// every later reference is tallied as a skipped fetch.
    pub fn claim(&self, digest: Digest) -> bool {
        let first = self.claimed.insert(digest, ()).is_none();
        if !first {
            self.counters.skipped.add(1);
        }
        first
    }

    /// Records how a claimed digest's fetch ended: `Some(len)` bytes
    /// transferred, or `None` — abandoned with the retry budget spent, which
    /// fails every image referencing it in [`DownloadRun::finish`].
    pub fn record_fetch<T: Transport>(&self, transport: &T, digest: Digest, fetched: Option<u64>) {
        match fetched {
            Some(len) => {
                self.counters.bytes.add(len);
                self.counters.sim_nanos.add(transport.transfer_time(len).as_nanos() as u64);
            }
            None => {
                self.failed.lock().insert(digest);
            }
        }
    }

    /// Ends the run: drops every image whose manifest references an
    /// abandoned digest — including those that skipped the fetch because
    /// another worker held the claim, so the taxonomy is independent of
    /// thread interleaving under gave-up conditions — sorts the rest by
    /// repository, and derives the report from the counters.
    pub fn finish(self, mut images: Vec<DownloadedImage>) -> (Vec<DownloadedImage>, DownloadReport) {
        let failed = self.failed.into_inner();
        let attempted = images.len();
        images.retain(|img| img.manifest.layers.iter().all(|l| !failed.contains(&l.digest)));
        images.sort_by(|a, b| a.repo.cmp(&b.repo));

        let dl = &self.counters;
        dl.other.add((attempted - images.len()) as u64);
        dl.images_ok.add(images.len() as u64);
        dl.unique_layers.add((self.claimed.len() - failed.len()) as u64);
        (images, dl.report())
    }
}

/// The batch scheduler: `threads` workers run `pull` once per repository
/// against one shared [`DownloadRun`].
fn download_loop(
    repos: &[RepoName],
    threads: usize,
    obs: &MetricsRegistry,
    pull: impl Fn(&DownloadRun<'_>, &RepoName) -> Option<Pulled> + Sync,
) -> DownloadResult {
    let run = DownloadRun::on(obs);
    let pulled = dhub_par::par_map(threads, repos, |repo| pull(&run, repo));
    let mut images = Vec::with_capacity(repos.len());
    let mut layers = Vec::new();
    for (image, blobs) in pulled.into_iter().flatten() {
        images.push(image);
        layers.extend(blobs);
    }
    // Largest first (digest breaks ties): independent of which worker won
    // which claim, and the order the analysis stage's self-scheduling
    // balances best on — a big base layer claimed last would otherwise be
    // the tail every other worker waits for.
    layers.sort_unstable_by_key(|(digest, blob)| (std::cmp::Reverse(blob.len()), *digest));
    let (images, report) = run.finish(images);
    DownloadResult { images, layers, report }
}

/// Downloads the `latest` image of every repository in `repos` from the
/// in-process `registry` using `threads` parallel workers, fetching each
/// unique layer once. [`RetryPolicy::none`] fails fast — the "classify,
/// don't retry" stance; larger budgets ride out injected faults.
pub fn download_all_obs(
    registry: &Registry,
    repos: &[RepoName],
    threads: usize,
    net: &NetworkModel,
    policy: &RetryPolicy,
    obs: &MetricsRegistry,
) -> DownloadResult {
    download_loop(repos, threads, obs, |run, repo| {
        run.pull_repo(&InProcess::new(registry, net, policy, run.retry()), repo)
    })
}

/// [`download_all_obs`] over the HTTP transport against `addr` — an origin
/// or a pull-through mirror, which speak the same wire protocol. Anonymous
/// (no token dance), like the study. Results are identical modulo the
/// network model (the transfer is real TCP, so no simulated duration).
pub fn download_all_http_obs(
    addr: std::net::SocketAddr,
    repos: &[RepoName],
    threads: usize,
    policy: &RetryPolicy,
    obs: &MetricsRegistry,
) -> DownloadResult {
    download_loop(repos, threads, obs, |run, repo| {
        // One client per repository: its kept-alive connection carries
        // the manifest and every layer, and closes with the client.
        let client = RemoteRegistry::connect_anonymous(addr).with_retry_policy(*policy);
        let pulled = run.pull_repo(&client, repo);
        run.retry().absorb(&client.retry_stats());
        pulled
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_model::LayerRef;

    /// [`download_all_obs`] into a throwaway registry.
    fn download(
        reg: &Registry,
        repos: &[RepoName],
        threads: usize,
        net: &NetworkModel,
        policy: &RetryPolicy,
    ) -> DownloadResult {
        download_all_obs(reg, repos, threads, net, policy, &MetricsRegistry::new())
    }

    fn registry_with(repos: &[(&str, &str, bool, &[u8])]) -> (Registry, Vec<RepoName>) {
        let reg = Registry::new();
        let mut names = Vec::new();
        for (name, tag, auth, payload) in repos {
            let repo = RepoName::parse(name).unwrap();
            reg.create_repo(repo.clone(), *auth);
            let blob = payload.to_vec();
            let manifest =
                Manifest::new(vec![LayerRef { digest: Digest::of(&blob), size: blob.len() as u64 }]);
            reg.push_image(&repo, tag, &manifest, vec![blob]).unwrap();
            names.push(repo);
        }
        (reg, names)
    }

    #[test]
    fn downloads_ok_images_and_counts_failures() {
        let (reg, names) = registry_with(&[
            ("a/ok1", "latest", false, b"layer-1"),
            ("a/ok2", "latest", false, b"layer-2"),
            ("b/private", "latest", true, b"secret"),
            ("b/untagged", "v1", false, b"old"),
        ]);
        let res = download(&reg, &names, 4, &NetworkModel::datacenter(), &RetryPolicy::default());
        assert_eq!(res.report.images_downloaded, 2);
        assert_eq!(res.report.failed_auth, 1);
        assert_eq!(res.report.failed_no_latest, 1);
        assert_eq!(res.report.failures(), 2);
        assert_eq!(res.layers.len(), 2);
    }

    #[test]
    fn shared_layers_fetched_once() {
        let shared = b"shared base layer".as_slice();
        let specs: Vec<(String, &str, bool, &[u8])> =
            (0..20).map(|i| (format!("u/app{i}"), "latest", false, shared)).collect();
        let reg = Registry::new();
        let mut names = Vec::new();
        for (name, tag, auth, payload) in &specs {
            let repo = RepoName::parse(name).unwrap();
            reg.create_repo(repo.clone(), *auth);
            let blob = payload.to_vec();
            let manifest =
                Manifest::new(vec![LayerRef { digest: Digest::of(&blob), size: blob.len() as u64 }]);
            reg.push_image(&repo, tag, &manifest, vec![blob]).unwrap();
            names.push(repo);
        }
        let res = download(&reg, &names, 8, &NetworkModel::datacenter(), &RetryPolicy::default());
        assert_eq!(res.report.images_downloaded, 20);
        assert_eq!(res.report.unique_layers, 1);
        assert_eq!(res.report.layer_fetches_skipped, 19);
        assert_eq!(res.report.bytes_fetched, res.layers[0].1.len() as u64);
    }

    #[test]
    fn download_counts_pulls_in_registry() {
        let (reg, names) = registry_with(&[("x/y", "latest", false, b"p")]);
        download(&reg, &names, 2, &NetworkModel::datacenter(), &RetryPolicy::default());
        assert_eq!(reg.pull_count(&names[0]), Some(1));
    }

    #[test]
    fn empty_repo_list() {
        let (reg, _) = registry_with(&[]);
        let res = download(&reg, &[], 4, &NetworkModel::datacenter(), &RetryPolicy::default());
        assert_eq!(res.report.images_downloaded, 0);
        assert!(res.layers.is_empty());
    }

    #[test]
    fn simulated_transfer_positive() {
        let (reg, names) = registry_with(&[("a/b", "latest", false, &[7u8; 100_000])]);
        let res = download(&reg, &names, 1, &NetworkModel::wan(), &RetryPolicy::default());
        assert!(res.report.simulated_transfer > Duration::from_millis(40));
    }

    #[test]
    fn deterministic_image_order() {
        let (reg, names) = registry_with(&[
            ("z/last", "latest", false, b"1"),
            ("a/first", "latest", false, b"2"),
        ]);
        let res = download(&reg, &names, 4, &NetworkModel::datacenter(), &RetryPolicy::default());
        assert_eq!(res.images[0].repo.full(), "a/first");
        assert_eq!(res.images[1].repo.full(), "z/last");
    }

    use dhub_faults::{FaultConfig, FaultInjector, FaultKind, ALL_FAULT_KINDS};

    fn faulted_registry(cfg: FaultConfig) -> (Registry, Vec<RepoName>) {
        let (reg, names) = registry_with(&[
            ("a/ok1", "latest", false, b"layer-1"),
            ("a/ok2", "latest", false, b"layer-2"),
            ("b/private", "latest", true, b"secret"),
            ("b/untagged", "v1", false, b"old"),
        ]);
        reg.set_fault_injector(Some(Arc::new(FaultInjector::new(cfg))));
        (reg, names)
    }

    #[test]
    fn faulted_download_with_retries_matches_clean_counts() {
        let (clean_reg, names) = registry_with(&[
            ("a/ok1", "latest", false, b"layer-1"),
            ("a/ok2", "latest", false, b"layer-2"),
            ("b/private", "latest", true, b"secret"),
            ("b/untagged", "v1", false, b"old"),
        ]);
        let net = NetworkModel::datacenter();
        let clean = download(&clean_reg, &names, 4, &net, &RetryPolicy::default());

        let (reg, names) = faulted_registry(FaultConfig::uniform(31, 0.3));
        let faulty =
            download(&reg, &names, 4, &net, &RetryPolicy::fast(16).with_seed(31));
        assert_eq!(faulty.report.images_downloaded, clean.report.images_downloaded);
        assert_eq!(faulty.report.unique_layers, clean.report.unique_layers);
        assert_eq!(faulty.report.bytes_fetched, clean.report.bytes_fetched);
        assert_eq!(faulty.report.failed_auth, clean.report.failed_auth);
        assert_eq!(faulty.report.failed_no_latest, clean.report.failed_no_latest);
        assert!(faulty.report.retries > 0, "30 % faults must force retries");
        assert_eq!(faulty.report.gave_up, 0);
    }

    #[test]
    fn corrupt_blobs_are_verified_and_refetched() {
        // Only bit flips, at a rate retries can ride out: every stored
        // layer must come back byte-identical, with the refetches counted.
        let cfg = ALL_FAULT_KINDS.iter().fold(FaultConfig::uniform(13, 0.5), |c, &k| {
            c.with_weight(k, u32::from(k == FaultKind::Corrupt))
        });
        let (reg, names) = faulted_registry(cfg);
        let res = download(
            &reg,
            &names,
            2,
            &NetworkModel::datacenter(),
            &RetryPolicy::fast(16).with_seed(13),
        );
        assert_eq!(res.report.images_downloaded, 2);
        assert!(res.report.corrupt_retries > 0, "rate 0.5 must flip some blobs");
        for (digest, blob) in &res.layers {
            assert_eq!(Digest::of(blob.as_ref()), *digest, "stored layer failed verification");
        }
    }

    #[test]
    fn exhausted_retries_fail_the_image_not_the_run() {
        // Blob fetches always fault and the budget is zero: both public
        // images lose a layer, land in failed_other, and the layer list
        // contains no placeholder garbage.
        let cfg = ALL_FAULT_KINDS
            .iter()
            .fold(FaultConfig::off().with_rate(dhub_faults::FaultOp::Blob, 1.0), |c, &k| {
                c.with_weight(k, u32::from(k == FaultKind::Corrupt))
            });
        let (reg, names) = faulted_registry(cfg);
        let res =
            download(&reg, &names, 2, &NetworkModel::datacenter(), &RetryPolicy::none());
        assert_eq!(res.report.images_downloaded, 0);
        assert_eq!(res.report.failed_other, 2);
        assert_eq!(res.report.failed_auth, 1);
        assert_eq!(res.report.failed_no_latest, 1);
        assert_eq!(res.report.gave_up, 2);
        assert!(res.layers.is_empty());
        assert_eq!(res.report.unique_layers, 0);
    }

    #[test]
    fn shared_failed_layer_fails_every_referencing_image() {
        // Twenty images share one layer whose fetch always fails: every
        // one of them is incomplete, not just the worker that happened to
        // win the claim race. The taxonomy must say so deterministically.
        let shared = b"doomed base layer".as_slice();
        let reg = Registry::new();
        let mut names = Vec::new();
        for i in 0..20 {
            let repo = RepoName::parse(&format!("u/app{i}")).unwrap();
            reg.create_repo(repo.clone(), false);
            let blob = shared.to_vec();
            let manifest =
                Manifest::new(vec![LayerRef { digest: Digest::of(&blob), size: blob.len() as u64 }]);
            reg.push_image(&repo, "latest", &manifest, vec![blob]).unwrap();
            names.push(repo);
        }
        let cfg = ALL_FAULT_KINDS
            .iter()
            .fold(FaultConfig::off().with_rate(dhub_faults::FaultOp::Blob, 1.0), |c, &k| {
                c.with_weight(k, u32::from(k == FaultKind::Corrupt))
            });
        reg.set_fault_injector(Some(Arc::new(FaultInjector::new(cfg))));
        let res =
            download(&reg, &names, 4, &NetworkModel::datacenter(), &RetryPolicy::none());
        assert_eq!(res.report.images_downloaded, 0);
        assert_eq!(res.report.failed_other, 20, "every referencing image must fail");
        assert_eq!(res.report.gave_up, 1, "the one claimed fetch exhausted its budget");
        assert!(res.layers.is_empty());
    }
}

#[cfg(test)]
mod http_tests {
    use super::*;
    use dhub_model::{LayerRef, Manifest};
    use dhub_registry::RegistryServer;
    use std::sync::Arc;

    fn download_http(addr: std::net::SocketAddr, repos: &[RepoName], threads: usize) -> DownloadResult {
        download_all_http_obs(addr, repos, threads, &RetryPolicy::default(), &MetricsRegistry::new())
    }

    fn serve() -> (RegistryServer, Arc<Registry>, Vec<RepoName>) {
        let reg = Arc::new(Registry::new());
        let mut names = Vec::new();
        let shared = b"shared-base".to_vec();
        for (name, tag, auth, extra) in [
            ("a/one", "latest", false, &b"only-one"[..]),
            ("a/two", "latest", false, b"only-two"),
            ("b/private", "latest", true, b"secret"),
            ("b/old", "v1", false, b"old"),
        ] {
            let repo = RepoName::parse(name).unwrap();
            reg.create_repo(repo.clone(), auth);
            let blobs = vec![shared.clone(), extra.to_vec()];
            let refs: Vec<LayerRef> = blobs
                .iter()
                .map(|b| LayerRef { digest: Digest::of(b), size: b.len() as u64 })
                .collect();
            reg.push_image(&repo, tag, &Manifest::new(refs), blobs).unwrap();
            names.push(repo);
        }
        let srv = RegistryServer::start(reg.clone()).unwrap();
        (srv, reg, names)
    }

    #[test]
    fn http_download_matches_in_process() {
        let (srv, reg, names) = serve();
        let via_http = download_http(srv.addr(), &names, 4);
        let in_proc = download_all_obs(
            &reg,
            &names,
            4,
            &NetworkModel::datacenter(),
            &RetryPolicy::default(),
            &MetricsRegistry::new(),
        );

        assert_eq!(via_http.report.images_downloaded, in_proc.report.images_downloaded);
        assert_eq!(via_http.report.failed_auth, in_proc.report.failed_auth);
        assert_eq!(via_http.report.failed_no_latest, in_proc.report.failed_no_latest);
        assert_eq!(via_http.report.unique_layers, in_proc.report.unique_layers);
        assert_eq!(via_http.report.bytes_fetched, in_proc.report.bytes_fetched);

        let mut h: Vec<Digest> = via_http.layers.iter().map(|(d, _)| *d).collect();
        let mut p: Vec<Digest> = in_proc.layers.iter().map(|(d, _)| *d).collect();
        h.sort();
        p.sort();
        assert_eq!(h, p);
        srv.shutdown();
    }

    #[test]
    fn http_download_shares_layers_once() {
        let (srv, _reg, names) = serve();
        let res = download_http(srv.addr(), &names, 2);
        // 2 public latest images share one base layer: 3 unique layers.
        assert_eq!(res.report.images_downloaded, 2);
        assert_eq!(res.report.unique_layers, 3);
        assert_eq!(res.report.layer_fetches_skipped, 1);
        srv.shutdown();
    }
}
