//! Registry-V2-shaped API surface.
//!
//! The operations the paper's downloader performs (§III-B): resolve
//! `repo:tag` to a manifest, then fetch each referenced layer blob. The two
//! failure modes the paper quantifies — 13 % of failed images required
//! authentication, 87 % had no `latest` tag — surface here as
//! [`ApiError::AuthRequired`] and [`ApiError::TagNotFound`].

use crate::blobstore::BlobStore;
use dhub_faults::{fault_key, FaultInjector, FaultKind, FaultOp};
use dhub_model::{Digest, Manifest, RepoName};
use dhub_sync::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors the registry API returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApiError {
    /// No such repository.
    RepoNotFound,
    /// Repository exists but lacks the requested tag (87 % of the paper's
    /// download failures: no `latest`).
    TagNotFound,
    /// Repository requires a token the client does not hold (13 %).
    AuthRequired,
    /// Manifest or blob digest not present in the store.
    BlobNotFound,
    /// Stored manifest failed to parse (registry corruption, or an
    /// injected truncation/bit-flip of the manifest body).
    CorruptManifest,
    /// HTTP 429: the registry's rate limiter pushed back (retryable).
    RateLimited,
    /// HTTP 5xx: transient backend failure (retryable).
    Unavailable,
    /// The connection died before a response arrived (retryable).
    ConnectionReset,
}

impl ApiError {
    /// Whether a retry can plausibly succeed. Terminal errors (auth walls,
    /// missing tags/repos/blobs) are *classified*, exactly as the paper's
    /// downloader did; transient transport errors are retried.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ApiError::RateLimited
                | ApiError::Unavailable
                | ApiError::ConnectionReset
                | ApiError::CorruptManifest
        )
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ApiError::RepoNotFound => "repository not found",
            ApiError::TagNotFound => "tag not found",
            ApiError::AuthRequired => "authentication required",
            ApiError::BlobNotFound => "blob not found",
            ApiError::CorruptManifest => "corrupt manifest",
            ApiError::RateLimited => "rate limited (429)",
            ApiError::Unavailable => "service unavailable (5xx)",
            ApiError::ConnectionReset => "connection reset",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ApiError {}

/// Per-repository registry state.
struct RepoState {
    /// tag → manifest digest.
    tags: HashMap<String, Digest>,
    /// True for private-ish repos that reject anonymous pulls.
    requires_auth: bool,
    /// Cumulative pull counter (the popularity signal of Fig. 8).
    pulls: AtomicU64,
}

/// The registry: repositories + the shared blob store.
pub struct Registry {
    repos: RwLock<HashMap<RepoName, RepoState>>,
    blobs: BlobStore,
    /// Optional fault injector: when set, manifest and blob operations
    /// consult it and may fail transiently or return corrupted bytes —
    /// the flaky public registry the paper's pipeline actually faced.
    faults: RwLock<Option<Arc<FaultInjector>>>,
}

/// Fault kinds an in-process manifest resolution can express.
const MANIFEST_FAULTS: [FaultKind; 5] = [
    FaultKind::Drop,
    FaultKind::RateLimit,
    FaultKind::ServerError,
    FaultKind::SlowLink,
    FaultKind::Corrupt,
];

/// Fault kinds an in-process blob fetch can express (nonempty blob).
const BLOB_FAULTS: [FaultKind; 6] = [
    FaultKind::Drop,
    FaultKind::RateLimit,
    FaultKind::ServerError,
    FaultKind::SlowLink,
    FaultKind::Truncate,
    FaultKind::Corrupt,
];

/// Blob faults applicable when the blob is empty (nothing to damage).
const EMPTY_BLOB_FAULTS: [FaultKind; 4] =
    [FaultKind::Drop, FaultKind::RateLimit, FaultKind::ServerError, FaultKind::SlowLink];

/// Aggregate numbers for reports (the paper's Table-1-style summary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegistryStats {
    pub repositories: usize,
    pub unique_blobs: usize,
    pub stored_bytes: u64,
}

/// A resolved pull: the manifest plus its digest, with pull accounting done.
#[derive(Clone, Debug)]
pub struct PullSession {
    pub manifest_digest: Digest,
    pub manifest: Manifest,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry {
            repos: RwLock::new(HashMap::new()),
            blobs: BlobStore::new(),
            faults: RwLock::new(None),
        }
    }

    /// Attaches (or, with `None`, detaches) a fault injector. All
    /// subsequent manifest/blob operations consult it.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.faults.write() = injector;
    }

    /// The currently attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.faults.read().clone()
    }

    /// Consults the injector for one attempt at `(op, key)`; returns the
    /// error the operation should fail with, or `None` to proceed.
    /// `SlowLink` sleeps here and proceeds.
    fn injected_failure(
        &self,
        op: FaultOp,
        key: u64,
        allowed: &[FaultKind],
    ) -> Option<(FaultKind, ApiError)> {
        let injector = self.faults.read().clone()?;
        let kind = injector.decide(op, key, allowed)?;
        let err = match kind {
            FaultKind::Drop => ApiError::ConnectionReset,
            FaultKind::RateLimit => ApiError::RateLimited,
            FaultKind::ServerError => ApiError::Unavailable,
            FaultKind::SlowLink => {
                std::thread::sleep(injector.slow_link());
                return None;
            }
            // In-process, a damaged manifest body surfaces as a parse
            // failure; blob damage is handled by the caller (bytes).
            FaultKind::Truncate | FaultKind::Corrupt => ApiError::CorruptManifest,
            FaultKind::AuthFlap => ApiError::AuthRequired,
        };
        Some((kind, err))
    }

    /// Creates a repository. `requires_auth` marks repos that reject
    /// anonymous pulls.
    pub fn create_repo(&self, name: RepoName, requires_auth: bool) {
        self.repos.write().entry(name).or_insert_with(|| RepoState {
            tags: HashMap::new(),
            requires_auth,
            pulls: AtomicU64::new(0),
        });
    }

    /// Pushes an image: stores layer blobs (deduplicated), stores the
    /// manifest, points `tag` at it. Layers must be pushed with the
    /// manifest so the registry never holds dangling references.
    pub fn push_image(
        &self,
        repo: &RepoName,
        tag: &str,
        manifest: &Manifest,
        layer_blobs: Vec<Vec<u8>>,
    ) -> Result<Digest, ApiError> {
        for blob in layer_blobs {
            self.blobs.put(blob);
        }
        for l in &manifest.layers {
            if !self.blobs.contains(&l.digest) {
                return Err(ApiError::BlobNotFound);
            }
        }
        let manifest_digest = self.blobs.put(manifest.to_json().into_bytes());
        let mut repos = self.repos.write();
        let state = repos.get_mut(repo).ok_or(ApiError::RepoNotFound)?;
        state.tags.insert(tag.to_string(), manifest_digest);
        Ok(manifest_digest)
    }

    /// Resolves `repo:tag` to its manifest — the first half of `docker
    /// pull`. Counts one pull against the repository (successful
    /// resolutions only, so retried faulty attempts do not inflate the
    /// popularity signal).
    pub fn get_manifest(&self, repo: &RepoName, tag: &str, authed: bool) -> Result<PullSession, ApiError> {
        let key = fault_key(format!("{}:{tag}", repo.full()).as_bytes());
        if let Some((_kind, err)) = self.injected_failure(FaultOp::Manifest, key, &MANIFEST_FAULTS) {
            return Err(err);
        }
        let repos = self.repos.read();
        let state = repos.get(repo).ok_or(ApiError::RepoNotFound)?;
        if state.requires_auth && !authed {
            return Err(ApiError::AuthRequired);
        }
        let digest = *state.tags.get(tag).ok_or(ApiError::TagNotFound)?;
        state.pulls.fetch_add(1, Ordering::Relaxed);
        drop(repos);
        let raw = self.blobs.get(&digest).ok_or(ApiError::BlobNotFound)?;
        let text = std::str::from_utf8(&raw).map_err(|_| ApiError::CorruptManifest)?;
        let manifest = Manifest::from_json(text).ok_or(ApiError::CorruptManifest)?;
        Ok(PullSession { manifest_digest: digest, manifest })
    }

    /// Fetches a blob by digest — the second half of `docker pull`.
    ///
    /// With a fault injector attached this may fail transiently or return
    /// **damaged bytes** (truncated or bit-flipped); callers that care
    /// must verify the content digest, exactly as a real `docker pull`
    /// does.
    pub fn get_blob(&self, digest: &Digest) -> Result<Arc<Vec<u8>>, ApiError> {
        let blob = self.blobs.get(digest).ok_or(ApiError::BlobNotFound)?;
        let Some(injector) = self.faults.read().clone() else { return Ok(blob) };
        let key = fault_key(&digest.0);
        let allowed: &[FaultKind] =
            if blob.is_empty() { &EMPTY_BLOB_FAULTS } else { &BLOB_FAULTS };
        match injector.decide(FaultOp::Blob, key, allowed) {
            None => Ok(blob),
            Some(FaultKind::SlowLink) => {
                std::thread::sleep(injector.slow_link());
                Ok(blob)
            }
            Some(FaultKind::Drop) => Err(ApiError::ConnectionReset),
            Some(FaultKind::RateLimit) => Err(ApiError::RateLimited),
            Some(FaultKind::ServerError) => Err(ApiError::Unavailable),
            Some(FaultKind::Truncate) => {
                let mut v = blob.as_ref().clone();
                let keep = (key as usize) % v.len();
                v.truncate(keep);
                Ok(Arc::new(v))
            }
            Some(FaultKind::Corrupt) => {
                let mut v = blob.as_ref().clone();
                let bit = (key as usize) % (v.len() * 8);
                v[bit / 8] ^= 1 << (bit % 8);
                Ok(Arc::new(v))
            }
            Some(FaultKind::AuthFlap) => unreachable!("auth flap not in blob fault set"),
        }
    }

    /// Records `n` synthetic historical pulls (the generator uses this to
    /// implant the popularity distribution of Fig. 8).
    pub fn add_pulls(&self, repo: &RepoName, n: u64) {
        if let Some(state) = self.repos.read().get(repo) {
            state.pulls.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Cumulative pulls for a repository.
    pub fn pull_count(&self, repo: &RepoName) -> Option<u64> {
        self.repos.read().get(repo).map(|s| s.pulls.load(Ordering::Relaxed))
    }

    /// All repository names (unordered snapshot).
    pub fn repo_names(&self) -> Vec<RepoName> {
        self.repos.read().keys().cloned().collect()
    }

    /// Tags of one repository.
    pub fn tags(&self, repo: &RepoName) -> Option<Vec<String>> {
        self.repos.read().get(repo).map(|s| s.tags.keys().cloned().collect())
    }

    /// Whether the repository rejects anonymous pulls.
    pub fn requires_auth(&self, repo: &RepoName) -> Option<bool> {
        self.repos.read().get(repo).map(|s| s.requires_auth)
    }

    /// Direct access to the blob store (analysis-side tooling).
    pub fn blob_store(&self) -> &BlobStore {
        &self.blobs
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            repositories: self.repos.read().len(),
            unique_blobs: self.blobs.len(),
            stored_bytes: self.blobs.total_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_model::LayerRef;

    fn push_simple(reg: &Registry, repo: &RepoName, tag: &str, payload: &[u8]) -> Digest {
        let blob = payload.to_vec();
        let layer = LayerRef { digest: Digest::of(&blob), size: blob.len() as u64 };
        let manifest = Manifest::new(vec![layer]);
        reg.create_repo(repo.clone(), false);
        reg.push_image(repo, tag, &manifest, vec![blob]).unwrap()
    }

    #[test]
    fn push_then_pull() {
        let reg = Registry::new();
        let repo = RepoName::official("nginx");
        push_simple(&reg, &repo, "latest", b"nginx layer");
        let sess = reg.get_manifest(&repo, "latest", false).unwrap();
        assert_eq!(sess.manifest.layers.len(), 1);
        let blob = reg.get_blob(&sess.manifest.layers[0].digest).unwrap();
        assert_eq!(blob.as_slice(), b"nginx layer");
    }

    #[test]
    fn pull_counts_accumulate() {
        let reg = Registry::new();
        let repo = RepoName::user("alice", "app");
        push_simple(&reg, &repo, "latest", b"x");
        assert_eq!(reg.pull_count(&repo), Some(0));
        for _ in 0..5 {
            reg.get_manifest(&repo, "latest", false).unwrap();
        }
        reg.add_pulls(&repo, 100);
        assert_eq!(reg.pull_count(&repo), Some(105));
    }

    #[test]
    fn auth_required_repo_rejects_anonymous() {
        let reg = Registry::new();
        let repo = RepoName::user("corp", "private");
        reg.create_repo(repo.clone(), true);
        let blob = b"secret".to_vec();
        let manifest = Manifest::new(vec![LayerRef { digest: Digest::of(&blob), size: 6 }]);
        reg.push_image(&repo, "latest", &manifest, vec![blob]).unwrap();
        assert_eq!(reg.get_manifest(&repo, "latest", false).unwrap_err(), ApiError::AuthRequired);
        assert!(reg.get_manifest(&repo, "latest", true).is_ok());
    }

    #[test]
    fn missing_tag_and_repo() {
        let reg = Registry::new();
        let repo = RepoName::official("redis");
        push_simple(&reg, &repo, "3.2", b"redis");
        assert_eq!(reg.get_manifest(&repo, "latest", false).unwrap_err(), ApiError::TagNotFound);
        let ghost = RepoName::official("ghost");
        assert_eq!(reg.get_manifest(&ghost, "latest", false).unwrap_err(), ApiError::RepoNotFound);
    }

    #[test]
    fn failed_tag_lookup_does_not_count_a_pull() {
        let reg = Registry::new();
        let repo = RepoName::official("redis");
        push_simple(&reg, &repo, "3.2", b"redis");
        let _ = reg.get_manifest(&repo, "latest", false);
        assert_eq!(reg.pull_count(&repo), Some(0));
    }

    #[test]
    fn push_rejects_dangling_layer_refs() {
        let reg = Registry::new();
        let repo = RepoName::official("x");
        reg.create_repo(repo.clone(), false);
        let manifest = Manifest::new(vec![LayerRef { digest: Digest::of(b"never pushed"), size: 1 }]);
        assert_eq!(reg.push_image(&repo, "latest", &manifest, vec![]).unwrap_err(), ApiError::BlobNotFound);
    }

    #[test]
    fn layer_sharing_stores_blob_once() {
        let reg = Registry::new();
        let shared = b"ubuntu base layer".to_vec();
        for i in 0..10 {
            let repo = RepoName::user("user", &format!("app{i}"));
            reg.create_repo(repo.clone(), false);
            let manifest = Manifest::new(vec![LayerRef {
                digest: Digest::of(&shared),
                size: shared.len() as u64,
            }]);
            reg.push_image(&repo, "latest", &manifest, vec![shared.clone()]).unwrap();
        }
        let stats = reg.stats();
        assert_eq!(stats.repositories, 10);
        // 1 shared layer + 1 manifest blob (identical manifests dedup too).
        assert_eq!(stats.unique_blobs, 2);
    }

    #[test]
    fn stats_track_bytes() {
        let reg = Registry::new();
        let repo = RepoName::official("a");
        push_simple(&reg, &repo, "latest", &[0u8; 100]);
        assert!(reg.stats().stored_bytes >= 100);
    }

    #[test]
    fn injected_faults_fire_and_detach_cleanly() {
        use dhub_faults::{FaultConfig, FaultInjector};
        let reg = Registry::new();
        let repo = RepoName::official("nginx");
        push_simple(&reg, &repo, "latest", b"payload-bytes");

        // Rate 1.0: every attempt faults with some transient error.
        let inj = Arc::new(FaultInjector::new(FaultConfig::uniform(7, 1.0)));
        reg.set_fault_injector(Some(inj.clone()));
        let mut failures = 0;
        for _ in 0..16 {
            match reg.get_manifest(&repo, "latest", false) {
                Err(e) => {
                    assert!(e.is_retryable(), "injected error must be retryable: {e:?}");
                    failures += 1;
                }
                Ok(_) => {} // SlowLink proceeds after the stall
            }
        }
        assert!(failures > 0, "rate-1.0 injector never failed a manifest fetch");
        assert!(inj.stats().total() >= 16, "every attempt decided");

        // Detached: clean behavior returns.
        reg.set_fault_injector(None);
        assert!(reg.get_manifest(&repo, "latest", false).is_ok());
    }

    #[test]
    fn corrupt_blob_fails_digest_check() {
        use dhub_faults::{FaultConfig, FaultInjector, FaultKind};
        let reg = Registry::new();
        let repo = RepoName::official("redis");
        let digest = {
            let blob = b"some layer content".to_vec();
            let layer = LayerRef { digest: Digest::of(&blob), size: blob.len() as u64 };
            let manifest = Manifest::new(vec![layer]);
            reg.create_repo(repo.clone(), false);
            reg.push_image(&repo, "latest", &manifest, vec![blob]).unwrap();
            Digest::of(b"some layer content")
        };
        // Only corruption, always.
        let cfg = FaultConfig::uniform(3, 1.0)
            .with_weight(FaultKind::Drop, 0)
            .with_weight(FaultKind::RateLimit, 0)
            .with_weight(FaultKind::ServerError, 0)
            .with_weight(FaultKind::SlowLink, 0)
            .with_weight(FaultKind::Truncate, 0);
        reg.set_fault_injector(Some(Arc::new(FaultInjector::new(cfg))));
        let damaged = reg.get_blob(&digest).unwrap();
        assert_ne!(Digest::of(&damaged), digest, "bit flip must change the digest");
        assert_eq!(damaged.len(), b"some layer content".len(), "corrupt keeps length");
    }

    #[test]
    fn pull_counts_unaffected_by_faulted_attempts() {
        use dhub_faults::{FaultConfig, FaultInjector};
        let reg = Registry::new();
        let repo = RepoName::official("app");
        push_simple(&reg, &repo, "latest", b"x");
        // 50% fault rate: retry until one attempt succeeds.
        reg.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultConfig::uniform(5, 0.5)))));
        let mut successes = 0;
        for _ in 0..64 {
            if reg.get_manifest(&repo, "latest", false).is_ok() {
                successes += 1;
            }
        }
        assert!(successes > 0);
        assert_eq!(reg.pull_count(&repo), Some(successes), "only successes count pulls");
    }
}
