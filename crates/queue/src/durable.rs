//! The on-disk queue: durable job seeds, content-addressed result
//! records, and cross-process claim markers.
//!
//! Layout under `<root>` (conventionally `<store-dir>/queue`):
//!
//! ```text
//! jobs/<hex-of-id>.json      seeded job envelopes (atomic publish)
//! results/<hex-of-id>.json   committed result records (atomic publish)
//! claims/<hex-of-id>.claim   advisory claim markers (create_new, no fsync)
//! ```
//!
//! Jobs and results go through the full `dhub-persist` publish
//! discipline, so a crash leaves either nothing or a complete,
//! checksummed envelope. Claims are deliberately *not* durable — they
//! are advisory locks whose only job is to keep two live processes off
//! the same unit of work; debris from a killed process is swept at the
//! next [`DurableQueue::open`] (a claim with no matching result belongs
//! to nobody).

use crate::job::{parse_result_envelope, result_envelope, JobSpec, JobStatus};
use crate::QueueError;
use dhub_obs::{Counter, MetricsRegistry};
use dhub_persist::Publisher;
use std::path::{Path, PathBuf};

/// Live `dhub_queue_*` counters (detached by default).
#[derive(Clone)]
pub struct QueueMetrics {
    pub jobs_seeded: Counter,
    pub jobs_completed: Counter,
    pub leases_granted: Counter,
    pub lease_expiries: Counter,
    pub jobs_quarantined: Counter,
    pub double_commits: Counter,
    pub lease_faults: Counter,
}

impl Default for QueueMetrics {
    fn default() -> Self {
        QueueMetrics {
            jobs_seeded: Counter::detached(),
            jobs_completed: Counter::detached(),
            leases_granted: Counter::detached(),
            lease_expiries: Counter::detached(),
            jobs_quarantined: Counter::detached(),
            double_commits: Counter::detached(),
            lease_faults: Counter::detached(),
        }
    }
}

impl QueueMetrics {
    /// Binds every counter to `reg`.
    pub fn on(reg: &MetricsRegistry) -> Self {
        QueueMetrics {
            jobs_seeded: reg.counter("dhub_queue_jobs_seeded_total"),
            jobs_completed: reg.counter("dhub_queue_jobs_completed_total"),
            leases_granted: reg.counter("dhub_queue_leases_granted_total"),
            lease_expiries: reg.counter("dhub_queue_lease_expiries_total"),
            jobs_quarantined: reg.counter("dhub_queue_jobs_quarantined_total"),
            double_commits: reg.counter("dhub_queue_double_commits_total"),
            lease_faults: reg.counter("dhub_queue_lease_faults_total"),
        }
    }
}

/// What a commit attempt found on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The result record was published now.
    Committed,
    /// A result for this job already existed; nothing was written.
    AlreadyDone,
}

/// What claiming a job's marker found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// The marker was created (or stolen from crash debris) — execute.
    Claimed,
    /// A result already exists — the job is done, skip execution.
    Done,
}

/// The durable job queue rooted at one directory.
pub struct DurableQueue {
    jobs_dir: PathBuf,
    results_dir: PathBuf,
    claims_dir: PathBuf,
    publisher: Publisher,
    metrics: QueueMetrics,
    /// Serializes [`DurableQueue::seed`]: two workers expanding into the
    /// same job id (a layer shared by two images) would otherwise race
    /// the exists-check and collide on the publish temp path.
    seed_lock: dhub_sync::Mutex<()>,
}

impl DurableQueue {
    /// Opens (creating if needed) a queue rooted at `root`, publishing
    /// through `publisher`. Sweeps stale claim markers left by dead
    /// processes: any claim whose job has no result belongs to nobody.
    pub fn open(root: impl AsRef<Path>, publisher: Publisher) -> Result<DurableQueue, QueueError> {
        let root = root.as_ref().to_path_buf();
        let q = DurableQueue {
            jobs_dir: root.join("jobs"),
            results_dir: root.join("results"),
            claims_dir: root.join("claims"),
            publisher,
            metrics: QueueMetrics::default(),
            seed_lock: dhub_sync::Mutex::new(()),
        };
        std::fs::create_dir_all(&q.jobs_dir)?;
        std::fs::create_dir_all(&q.results_dir)?;
        std::fs::create_dir_all(&q.claims_dir)?;
        for entry in std::fs::read_dir(&q.claims_dir)? {
            let path = entry?.path();
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
            if !q.results_dir.join(format!("{stem}.json")).exists() {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(q)
    }

    /// Binds the `dhub_queue_*` counters to `reg`.
    pub fn with_metrics(mut self, reg: &MetricsRegistry) -> DurableQueue {
        self.metrics = QueueMetrics::on(reg);
        self
    }

    /// The live counters.
    pub fn metrics(&self) -> &QueueMetrics {
        &self.metrics
    }

    fn job_path(&self, id: &str) -> PathBuf {
        self.jobs_dir.join(format!("{}.json", JobSpec::file_stem(id)))
    }

    /// Where job `id`'s result record lives (what a
    /// [`QueueError::Corrupt`] about that record names).
    pub fn result_path(&self, id: &str) -> PathBuf {
        self.results_dir.join(format!("{}.json", JobSpec::file_stem(id)))
    }

    fn claim_path(&self, id: &str) -> PathBuf {
        self.claims_dir.join(format!("{}.claim", JobSpec::file_stem(id)))
    }

    /// Durably seeds jobs not already on disk (idempotent — reseeding an
    /// existing id is a no-op, so expansion replays after a crash are
    /// free). One batched publish, one `jobs/` fsync. Returns how many
    /// were actually new.
    pub fn seed(&self, jobs: &[JobSpec]) -> Result<usize, QueueError> {
        let _guard = self.seed_lock.lock();
        let mut fresh: Vec<(PathBuf, String)> = Vec::new();
        for job in jobs {
            let path = self.job_path(&job.id);
            if !path.exists() {
                fresh.push((path, job.to_envelope()));
            }
        }
        let items: Vec<(PathBuf, &[u8])> =
            fresh.iter().map(|(p, text)| (p.clone(), text.as_bytes())).collect();
        self.publisher.publish_batch(&items)?;
        self.metrics.jobs_seeded.add(items.len() as u64);
        Ok(items.len())
    }

    /// Every seeded job with its recovered status, sorted by job id.
    /// Torn or tampered envelopes fail loudly.
    pub fn load(&self) -> Result<Vec<(JobSpec, JobStatus)>, QueueError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.jobs_dir)? {
            let path = entry?.path();
            if !path.extension().map(|e| e == "json").unwrap_or(false) {
                continue;
            }
            let text = std::fs::read_to_string(&path)?;
            let spec =
                JobSpec::from_envelope(&text).ok_or_else(|| QueueError::Corrupt(path.clone()))?;
            let status = if self.result_path(&spec.id).exists() {
                JobStatus::Done
            } else {
                JobStatus::Pending
            };
            out.push((spec, status));
        }
        out.sort_by(|a, b| a.0.id.cmp(&b.0.id));
        Ok(out)
    }

    /// A committed result payload, if any.
    pub fn result(&self, id: &str) -> Result<Option<String>, QueueError> {
        let path = self.result_path(id);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let (rid, payload) =
            parse_result_envelope(&text).ok_or_else(|| QueueError::Corrupt(path.clone()))?;
        if rid != id {
            return Err(QueueError::Corrupt(path));
        }
        Ok(Some(payload))
    }

    /// Places the advisory claim marker for a job. `stealable` is set on
    /// re-claims after a lease expiry: the previous holder is known dead
    /// (in-process) or swept (cross-process), so existing debris is
    /// replaced rather than respected.
    pub fn claim(&self, id: &str, stealable: bool) -> Result<ClaimOutcome, QueueError> {
        if self.result_path(id).exists() {
            return Ok(ClaimOutcome::Done);
        }
        let path = self.claim_path(id);
        match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(_) => Ok(ClaimOutcome::Claimed),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists && stealable => {
                // Crash debris from an expired lease: replace it.
                let _ = std::fs::remove_file(&path);
                std::fs::OpenOptions::new().write(true).create_new(true).open(&path)?;
                Ok(ClaimOutcome::Claimed)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Publishes the result record, exactly once: if a result is already
    /// on disk nothing is written and the double-commit counter fires —
    /// the invariant the chaos gates assert stays at zero.
    pub fn commit(&self, id: &str, payload: &str) -> Result<CommitOutcome, QueueError> {
        let path = self.result_path(id);
        if path.exists() {
            self.metrics.double_commits.inc();
            return Ok(CommitOutcome::AlreadyDone);
        }
        self.publisher.publish(&path, result_envelope(id, payload).as_bytes())?;
        self.metrics.jobs_completed.inc();
        Ok(CommitOutcome::Committed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dhub-queue-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn seed_load_commit_roundtrip() {
        let root = tmp_root("roundtrip");
        let q = DurableQueue::open(&root, Publisher::new()).unwrap();
        let jobs =
            vec![JobSpec::new("page:0", "page"), JobSpec::with_payload("page:1", "page", "x")];
        assert_eq!(q.seed(&jobs).unwrap(), 2);
        assert_eq!(q.seed(&jobs).unwrap(), 0, "reseeding is a no-op");
        assert_eq!(q.commit("page:0", "forty-two").unwrap(), CommitOutcome::Committed);
        assert_eq!(q.commit("page:0", "forty-two").unwrap(), CommitOutcome::AlreadyDone);
        assert_eq!(q.result("page:0").unwrap().unwrap(), "forty-two");
        assert_eq!(q.result("page:1").unwrap(), None);

        // Reopen: both jobs rediscovered, one done.
        let q2 = DurableQueue::open(&root, Publisher::new()).unwrap();
        let loaded = q2.load().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].0.id, "page:0");
        assert_eq!(loaded[0].1, JobStatus::Done);
        assert_eq!(loaded[1].1, JobStatus::Pending);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn claims_are_exclusive_until_stolen() {
        let root = tmp_root("claims");
        let q = DurableQueue::open(&root, Publisher::new()).unwrap();
        q.seed(&[JobSpec::new("j", "t")]).unwrap();
        assert_eq!(q.claim("j", false).unwrap(), ClaimOutcome::Claimed);
        assert!(q.claim("j", false).is_err(), "second live claim must fail");
        assert_eq!(q.claim("j", true).unwrap(), ClaimOutcome::Claimed, "expired lease steals");
        q.commit("j", "done").unwrap();
        assert_eq!(q.claim("j", false).unwrap(), ClaimOutcome::Done);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn stale_claims_swept_on_open() {
        let root = tmp_root("sweep");
        {
            let q = DurableQueue::open(&root, Publisher::new()).unwrap();
            q.seed(&[JobSpec::new("a", "t"), JobSpec::new("b", "t")]).unwrap();
            q.claim("a", false).unwrap();
            q.claim("b", false).unwrap();
            q.commit("b", "done").unwrap();
            // "a" dies holding its claim; "b" committed first.
        }
        let q = DurableQueue::open(&root, Publisher::new()).unwrap();
        assert_eq!(q.claim("a", false).unwrap(), ClaimOutcome::Claimed, "stale claim swept");
        assert_eq!(q.claim("b", false).unwrap(), ClaimOutcome::Done);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn double_commit_counter_fires() {
        let root = tmp_root("double");
        let reg = MetricsRegistry::new();
        let q = DurableQueue::open(&root, Publisher::new()).unwrap().with_metrics(&reg);
        q.seed(&[JobSpec::new("j", "t")]).unwrap();
        q.commit("j", "x").unwrap();
        q.commit("j", "x").unwrap();
        assert_eq!(reg.counter_value("dhub_queue_double_commits_total"), 1);
        assert_eq!(reg.counter_value("dhub_queue_jobs_completed_total"), 1);
        let _ = std::fs::remove_dir_all(root);
    }
}
