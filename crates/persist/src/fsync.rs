//! The durability discipline: write-to-temp + fsync + atomic rename +
//! parent-directory fsync, plus the faultable [`Publisher`] every durable
//! write in the tier goes through.
//!
//! Extracted from `dhub-registry`'s disk store (which now calls back into
//! these helpers) so there is exactly one place in the workspace that
//! knows how to publish bytes crash-safely:
//!
//! 1. write the full payload to `<name>.tmp` in the target directory,
//! 2. `fsync` the temp file (bytes durable, name not yet visible),
//! 3. `rename` onto the final name (atomic publish),
//! 4. `fsync` the parent directory (the new directory entry itself lives
//!    in the parent's data; without this a crash after `rename` can lose
//!    the file entirely — data on disk, no name pointing at it).
//!
//! A crash at any point leaves either no file, a torn/corrupt `*.tmp`
//! that readers never look at, or the complete published file. Readers
//! that verify digests/checksums catch everything else.

use crate::PersistError;
use dhub_faults::{
    fault_key, FaultInjector, FaultKind, FaultOp, RetryClass, RetryEvent, RetryPolicy,
};
use dhub_obs::{Counter, MetricsRegistry};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// fsyncs a directory so freshly renamed entries survive power loss.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// The temp name a publish of `path` writes through.
pub fn tmp_path(path: &Path) -> PathBuf {
    path.with_extension("tmp")
}

/// Publishes `data` at `path` with the full crash-safety discipline
/// (temp write, fsync, atomic rename, parent fsync). The parent directory
/// must exist.
fn atomic_publish(path: &Path, data: &[u8]) -> std::io::Result<()> {
    let parent = path.parent().expect("publish path has a parent directory");
    let tmp = tmp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(data)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    fsync_dir(parent)
}

/// Deterministic crash injection for durable writes: an injector consulted
/// per publish attempt (op [`FaultOp::Persist`], keyed by file name) and
/// the retry policy that paces re-attempts.
#[derive(Clone)]
pub struct WriteFaults {
    pub injector: Arc<FaultInjector>,
    pub policy: RetryPolicy,
}

/// Live `dhub_persist_*` publish counters (detached by default).
#[derive(Clone)]
struct PublishMetrics {
    publishes: Counter,
    crashes: Counter,
    retries: Counter,
}

impl Default for PublishMetrics {
    fn default() -> Self {
        PublishMetrics {
            publishes: Counter::detached(),
            crashes: Counter::detached(),
            retries: Counter::detached(),
        }
    }
}

/// The faultable publish path: `atomic_publish` plus optional
/// deterministic crash injection and metrics. All durable writes in the
/// tier (objects, recipes, queue records, tables) go through one of these.
#[derive(Clone, Default)]
pub struct Publisher {
    faults: Option<WriteFaults>,
    metrics: PublishMetrics,
}

impl Publisher {
    /// A publisher with no fault injection and detached metrics.
    pub fn new() -> Publisher {
        Publisher::default()
    }

    /// Attaches crash injection: each publish attempt consults the
    /// injector; a fired fault leaves a torn or bit-flipped `*.tmp` (or
    /// nothing at all) and the publish is retried under `policy`.
    pub fn with_faults(mut self, faults: Option<WriteFaults>) -> Publisher {
        self.faults = faults;
        self
    }

    /// Binds the `dhub_persist_{publishes,write_crashes,write_retries}_total`
    /// counters to `reg`.
    pub fn with_metrics(mut self, reg: &MetricsRegistry) -> Publisher {
        self.metrics = PublishMetrics {
            publishes: reg.counter("dhub_persist_publishes_total"),
            crashes: reg.counter("dhub_persist_write_crashes_total"),
            retries: reg.counter("dhub_persist_write_retries_total"),
        };
        self
    }

    /// Simulates one crashed write attempt: the temp file is left in
    /// whatever state the "crash" caught it in — absent (`Drop`), torn
    /// (`Truncate`: a prefix of the payload), or bit-flipped (`Corrupt`) —
    /// and the final name is never touched.
    fn crash(path: &Path, data: &[u8], kind: FaultKind, key: u64) -> std::io::Result<()> {
        let tmp = tmp_path(path);
        match kind {
            FaultKind::Truncate => {
                let torn = &data[..data.len() / 2];
                let mut f = std::fs::File::create(&tmp)?;
                f.write_all(torn)?;
                f.sync_all()?;
            }
            FaultKind::Corrupt if !data.is_empty() => {
                let mut bytes = data.to_vec();
                let bit = (key % (bytes.len() as u64 * 8)) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
                let mut f = std::fs::File::create(&tmp)?;
                f.write_all(&bytes)?;
                f.sync_all()?;
            }
            // Drop (or Corrupt on an empty payload): crashed before any
            // bytes hit the disk.
            _ => {}
        }
        Ok(())
    }

    /// Publishes `data` at `path`, retrying injected crashes under the
    /// attached policy. The fault stream is keyed by the file name, so the
    /// decision sequence for one path is independent of thread
    /// interleaving across paths.
    pub fn publish(&self, path: &Path, data: &[u8]) -> Result<(), PersistError> {
        let Some(faults) = &self.faults else {
            atomic_publish(path, data)?;
            self.metrics.publishes.inc();
            return Ok(());
        };
        let key = fault_key(path.file_name().map(|n| n.as_encoded_bytes()).unwrap_or_default());
        let allowed = [FaultKind::Drop, FaultKind::Truncate, FaultKind::Corrupt];
        // One attempt: a fired fault leaves its debris and fails the
        // attempt as a crashed write — the only retryable outcome, and
        // what the publish reports once the budget is spent.
        let attempt = || {
            if let Some(kind) = faults.injector.decide(FaultOp::Persist, key, &allowed) {
                Publisher::crash(path, data, kind, key)?;
                self.metrics.crashes.inc();
                return Err(PersistError::CrashedWrite(path.to_path_buf()));
            }
            atomic_publish(path, data)?;
            self.metrics.publishes.inc();
            Ok(())
        };
        let classify = |e: &PersistError| match e {
            PersistError::CrashedWrite(_) => RetryClass::Retryable,
            _ => RetryClass::Terminal,
        };
        faults.policy.run(key, attempt, classify, |_, event| {
            if let RetryEvent::Retry(_) = event {
                self.metrics.retries.inc();
            }
        })
    }

    /// Publishes a batch of files with one parent-directory fsync per
    /// distinct parent instead of one per file: every temp is written and
    /// fsynced, every rename lands, then each parent is fsynced once. The
    /// crash contract is the same as issuing the publishes one by one —
    /// a crash mid-batch leaves any prefix of published files plus
    /// invisible `*.tmp` debris — because a file's durability still
    /// requires its own fsync plus the (now shared) parent fsync, both of
    /// which complete before `publish_batch` returns.
    ///
    /// Under fault injection this falls back to per-file [`Publisher::publish`]
    /// so the per-file-name crash/retry streams are byte-for-byte the ones
    /// the chaos suite replays.
    ///
    /// A batch that names one path twice fails with
    /// [`PersistError::DuplicatePath`] before any temp file is written:
    /// both payloads would go through the one temp name, and the second
    /// rename would find it gone.
    pub fn publish_batch(&self, items: &[(PathBuf, &[u8])]) -> Result<(), PersistError> {
        let mut seen = std::collections::HashSet::new();
        if let Some((path, _)) = items.iter().find(|(path, _)| !seen.insert(path)) {
            return Err(PersistError::DuplicatePath(path.clone()));
        }
        if self.faults.is_some() {
            for (path, data) in items {
                self.publish(path, data)?;
            }
            return Ok(());
        }
        for (path, data) in items {
            let tmp = tmp_path(path);
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_all()?;
        }
        let mut parents = std::collections::BTreeSet::new();
        for (path, _) in items {
            std::fs::rename(tmp_path(path), path)?;
            parents.insert(path.parent().expect("publish path has a parent directory"));
        }
        for parent in parents {
            fsync_dir(parent)?;
        }
        self.metrics.publishes.add(items.len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_faults::FaultConfig;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dhub-persist-fsync-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn publish_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("file.bin");
        atomic_publish(&path, b"payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        assert!(!tmp_path(&path).exists(), "temp must be renamed away");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn faulted_publisher_retries_to_success() {
        let dir = tmp_dir("retry");
        let injector = Arc::new(FaultInjector::new(FaultConfig::uniform(7, 0.5)));
        let p = Publisher::new()
            .with_faults(Some(WriteFaults { injector: injector.clone(), policy: RetryPolicy::fast(16) }));
        for i in 0..50u32 {
            let path = dir.join(format!("obj{i}"));
            p.publish(&path, &i.to_le_bytes()).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), i.to_le_bytes());
        }
        assert!(injector.stats().total() > 0, "50 % rate must fire");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn exhausted_retries_leave_no_published_file() {
        let dir = tmp_dir("exhaust");
        let path = dir.join("doomed");
        let injector = Arc::new(FaultInjector::new(FaultConfig::uniform(3, 1.0)));
        let p = Publisher::new()
            .with_faults(Some(WriteFaults { injector, policy: RetryPolicy::fast(2) }));
        let err = p.publish(&path, b"never lands").unwrap_err();
        assert!(matches!(err, PersistError::CrashedWrite(_)));
        assert!(!path.exists(), "final name must never appear");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn crash_leaves_only_tmp_debris() {
        let dir = tmp_dir("debris");
        let path = dir.join("obj");
        Publisher::crash(&path, &[0xAA; 64], FaultKind::Truncate, 1).unwrap();
        assert!(!path.exists());
        assert_eq!(std::fs::read(tmp_path(&path)).unwrap().len(), 32, "torn = half the payload");
        Publisher::crash(&path, &[0xAA; 64], FaultKind::Corrupt, 9).unwrap();
        let corrupted = std::fs::read(tmp_path(&path)).unwrap();
        assert_eq!(corrupted.len(), 64);
        assert_ne!(corrupted, vec![0xAA; 64], "one bit must differ");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_batch_naming_a_path_twice_publishes_nothing() {
        let dir = tmp_dir("twice");
        let (a, b) = (dir.join("a"), dir.join("b"));
        let items = [(a.clone(), &b"1"[..]), (b.clone(), b"2"), (a.clone(), b"3")];
        let faulted = Publisher::new().with_faults(Some(WriteFaults {
            injector: Arc::new(FaultInjector::new(FaultConfig::uniform(7, 0.0))),
            policy: RetryPolicy::fast(2),
        }));
        for p in [Publisher::new(), faulted] {
            match p.publish_batch(&items) {
                Err(PersistError::DuplicatePath(path)) => assert_eq!(path, a),
                other => panic!("expected a duplicate path error, got {other:?}"),
            }
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "nothing written");
        }
        let err = Publisher::new().publish_batch(&items).unwrap_err().to_string();
        assert!(err.contains(&a.display().to_string()), "{err}");
        Publisher::new().publish_batch(&items[..2]).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), b"1");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn publisher_metrics_record() {
        let dir = tmp_dir("metrics");
        let reg = MetricsRegistry::new();
        let p = Publisher::new().with_metrics(&reg);
        p.publish(&dir.join("a"), b"x").unwrap();
        p.publish(&dir.join("b"), b"y").unwrap();
        assert_eq!(reg.counter_value("dhub_persist_publishes_total"), 2);
        let _ = std::fs::remove_dir_all(dir);
    }
}
