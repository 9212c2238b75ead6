//! Crash-safe content-addressed object storage.
//!
//! Objects live under sharded fanout directories (`objects/ab/<hex>`, the
//! Docker registry layout), are published atomically through the
//! [`Publisher`] discipline, and every read re-hashes the bytes against
//! the requested digest — a torn or bit-flipped file can surface only as
//! [`PersistError::Corrupt`], never as wrong bytes.

use crate::fsync::{fsync_dir, Publisher};
use crate::{digest_from_hex, hex_of, PersistError};
use dhub_digest::FxHashSet;
use dhub_model::Digest;
use dhub_obs::{Counter, MetricsRegistry};
use dhub_sync::Mutex;
use std::path::{Path, PathBuf};

/// What one garbage-collection sweep removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Unreferenced published objects deleted.
    pub objects: u64,
    /// Bytes those objects occupied.
    pub bytes: u64,
    /// In-flight `*.tmp` debris files deleted (crashed writes).
    pub tmp_files: u64,
}

/// Live `dhub_persist_*` object-path counters (detached by default).
#[derive(Clone)]
struct BlobMetrics {
    objects_written: Counter,
    object_bytes: Counter,
    reads: Counter,
    read_bytes: Counter,
    corrupt_reads: Counter,
    gc_objects: Counter,
    gc_bytes: Counter,
}

impl Default for BlobMetrics {
    fn default() -> Self {
        BlobMetrics {
            objects_written: Counter::detached(),
            object_bytes: Counter::detached(),
            reads: Counter::detached(),
            read_bytes: Counter::detached(),
            corrupt_reads: Counter::detached(),
            gc_objects: Counter::detached(),
            gc_bytes: Counter::detached(),
        }
    }
}

impl BlobMetrics {
    fn on(reg: &MetricsRegistry) -> Self {
        BlobMetrics {
            objects_written: reg.counter("dhub_persist_objects_written_total"),
            object_bytes: reg.counter("dhub_persist_object_bytes_total"),
            reads: reg.counter("dhub_persist_reads_total"),
            read_bytes: reg.counter("dhub_persist_read_bytes_total"),
            corrupt_reads: reg.counter("dhub_persist_corrupt_reads_total"),
            gc_objects: reg.counter("dhub_persist_gc_objects_total"),
            gc_bytes: reg.counter("dhub_persist_gc_bytes_total"),
        }
    }
}

/// A content-addressed object store rooted at a directory.
///
/// Thread-safe: concurrent `put`s of distinct digests write distinct
/// files; same-digest writers are serialized by a store-wide lock (the
/// rename is atomic regardless — the lock only avoids redundant temp
/// writes, matching the registry disk store).
pub struct BlobStore {
    root: PathBuf,
    publisher: Publisher,
    write_lock: Mutex<()>,
    metrics: BlobMetrics,
}

impl BlobStore {
    /// Opens (creating if needed) a store rooted at `root`, publishing
    /// through `publisher`.
    pub fn open(root: impl AsRef<Path>, publisher: Publisher) -> Result<BlobStore, PersistError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(BlobStore {
            root,
            publisher,
            write_lock: Mutex::new(()),
            metrics: BlobMetrics::default(),
        })
    }

    /// Binds the `dhub_persist_*` object counters to `reg`.
    pub fn with_metrics(mut self, reg: &MetricsRegistry) -> BlobStore {
        self.metrics = BlobMetrics::on(reg);
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The publisher all writes go through.
    pub fn publisher(&self) -> &Publisher {
        &self.publisher
    }

    fn path_for(&self, digest: &Digest) -> PathBuf {
        let hex = hex_of(digest);
        self.root.join(&hex[..2]).join(hex)
    }

    /// Stores `data`, returning its digest. Idempotent; crash-safe (a
    /// killed write leaves only invisible `*.tmp` debris).
    pub fn put(&self, data: &[u8]) -> Result<Digest, PersistError> {
        let digest = Digest::of(data);
        self.put_at(&digest, data)?;
        Ok(digest)
    }

    /// Stores `data` under an already-computed `digest` (the fused ingest
    /// path has hashed every payload once; re-hashing here would double
    /// the per-byte cost). Debug builds verify the pair.
    fn put_at(&self, digest: &Digest, data: &[u8]) -> Result<(), PersistError> {
        debug_assert_eq!(*digest, Digest::of(data), "put_at digest/payload mismatch");
        let path = self.path_for(digest);
        if path.exists() {
            return Ok(());
        }
        let _guard = self.write_lock.lock();
        if path.exists() {
            return Ok(());
        }
        let parent = path.parent().expect("object path has parent");
        if !parent.exists() {
            std::fs::create_dir_all(parent)?;
            // The fanout directory itself is a fresh entry in the root.
            fsync_dir(&self.root)?;
        }
        self.publisher.publish(&path, data)?;
        self.metrics.objects_written.inc();
        self.metrics.object_bytes.add(data.len() as u64);
        Ok(())
    }

    /// Stores a batch of pre-hashed objects with one parent-directory
    /// fsync per fanout shard (via [`Publisher::publish_batch`]) instead
    /// of one per object — the fsync-bound durable ingest path spends
    /// most of its time in exactly those directory fsyncs. Duplicate
    /// digests within the batch and objects already on disk are skipped.
    pub fn put_batch(&self, items: &[(Digest, &[u8])]) -> Result<(), PersistError> {
        let _guard = self.write_lock.lock();
        let mut seen = FxHashSet::default();
        let mut to_publish: Vec<(PathBuf, &[u8])> = Vec::new();
        let mut fresh_shard = false;
        for (digest, data) in items {
            debug_assert_eq!(*digest, Digest::of(data), "put_batch digest/payload mismatch");
            if !seen.insert(*digest) {
                continue;
            }
            let path = self.path_for(digest);
            if path.exists() {
                continue;
            }
            let parent = path.parent().expect("object path has parent");
            if !parent.exists() {
                std::fs::create_dir_all(parent)?;
                fresh_shard = true;
            }
            to_publish.push((path, data));
        }
        if fresh_shard {
            // The fanout directories themselves are fresh entries in the root.
            fsync_dir(&self.root)?;
        }
        if to_publish.is_empty() {
            return Ok(());
        }
        self.publisher.publish_batch(&to_publish)?;
        self.metrics.objects_written.add(to_publish.len() as u64);
        self.metrics.object_bytes.add(to_publish.iter().map(|(_, d)| d.len() as u64).sum());
        Ok(())
    }

    /// Fetches and digest-verifies an object. `Ok(None)` when absent;
    /// [`PersistError::Corrupt`] when the stored bytes do not hash to
    /// `digest` — torn bytes are never returned.
    pub fn get(&self, digest: &Digest) -> Result<Option<Vec<u8>>, PersistError> {
        let data = match std::fs::read(self.path_for(digest)) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        if Digest::of(&data) != *digest {
            self.metrics.corrupt_reads.inc();
            return Err(PersistError::Corrupt(*digest));
        }
        self.metrics.reads.inc();
        self.metrics.read_bytes.add(data.len() as u64);
        Ok(Some(data))
    }

    /// True if the object exists (without reading or verifying it).
    pub fn contains(&self, digest: &Digest) -> bool {
        self.path_for(digest).exists()
    }

    /// Walks the fanout tree, yielding `(digest, path, is_tmp, len)` for
    /// every file. Deterministic order (sorted shards, sorted names).
    fn walk(&self) -> Result<Vec<(Option<Digest>, PathBuf, bool, u64)>, PersistError> {
        let mut out = Vec::new();
        let mut shards: Vec<PathBuf> = Vec::new();
        for shard in std::fs::read_dir(&self.root)? {
            let shard = shard?;
            if shard.file_type()?.is_dir() {
                shards.push(shard.path());
            }
        }
        shards.sort();
        for shard in shards {
            let mut files: Vec<PathBuf> = Vec::new();
            for f in std::fs::read_dir(&shard)? {
                files.push(f?.path());
            }
            files.sort();
            for path in files {
                let is_tmp = path.extension().map(|e| e == "tmp").unwrap_or(false);
                let len = path.metadata()?.len();
                let digest = if is_tmp {
                    None
                } else {
                    path.file_name().and_then(|n| n.to_str()).and_then(digest_from_hex)
                };
                out.push((digest, path, is_tmp, len));
            }
        }
        Ok(out)
    }

    /// Digests of every published (non-temp) object, sorted.
    pub fn list(&self) -> Result<Vec<Digest>, PersistError> {
        Ok(self.walk()?.into_iter().filter_map(|(d, _, _, _)| d).collect())
    }

    /// Total bytes across published objects (temp debris excluded).
    pub fn disk_bytes(&self) -> Result<u64, PersistError> {
        Ok(self.walk()?.iter().filter(|(_, _, tmp, _)| !tmp).map(|(_, _, _, l)| l).sum())
    }

    /// Garbage collection: deletes every published object whose digest is
    /// not in `live`, and all `*.tmp` debris from crashed writes.
    /// Referenced objects are never touched.
    pub fn gc(&self, live: &FxHashSet<Digest>) -> Result<GcStats, PersistError> {
        let _guard = self.write_lock.lock();
        let mut stats = GcStats::default();
        for (digest, path, is_tmp, len) in self.walk()? {
            if is_tmp {
                std::fs::remove_file(&path)?;
                stats.tmp_files += 1;
                continue;
            }
            // Unparseable names are foreign files — leave them alone.
            let Some(d) = digest else { continue };
            if !live.contains(&d) {
                std::fs::remove_file(&path)?;
                stats.objects += 1;
                stats.bytes += len;
            }
        }
        self.metrics.gc_objects.add(stats.objects);
        self.metrics.gc_bytes.add(stats.bytes);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsync::tmp_path;

    fn store(tag: &str) -> (PathBuf, BlobStore) {
        let dir = std::env::temp_dir().join(format!(
            "dhub-persist-blob-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let s = BlobStore::open(&dir, Publisher::new()).unwrap();
        (dir, s)
    }

    #[test]
    fn put_get_roundtrip() {
        let (dir, s) = store("roundtrip");
        let d = s.put(b"object bytes").unwrap();
        assert_eq!(s.get(&d).unwrap().unwrap(), b"object bytes");
        assert!(s.contains(&d));
        assert_eq!(s.list().unwrap(), vec![d]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn idempotent_put_and_disk_bytes() {
        let (dir, s) = store("idem");
        s.put(&[7u8; 1000]).unwrap();
        s.put(&[7u8; 1000]).unwrap();
        assert_eq!(s.disk_bytes().unwrap(), 1000);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corruption_is_detected_not_returned() {
        let (dir, s) = store("corrupt");
        let d = s.put(b"pristine bytes").unwrap();
        std::fs::write(s.path_for(&d), b"tampered bytes").unwrap();
        assert!(matches!(s.get(&d).unwrap_err(), PersistError::Corrupt(_)));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_spares_live_collects_dead_and_debris() {
        let (dir, s) = store("gc");
        let live_d = s.put(b"live object").unwrap();
        let dead_d = s.put(b"dead object").unwrap();
        // Simulated crashed write: torn temp next to a would-be object.
        let debris = tmp_path(&s.path_for(&Digest::of(b"never landed")));
        std::fs::create_dir_all(debris.parent().unwrap()).unwrap();
        std::fs::write(&debris, b"to").unwrap();

        let mut live = FxHashSet::default();
        live.insert(live_d);
        let gc = s.gc(&live).unwrap();
        assert_eq!(gc.objects, 1);
        assert_eq!(gc.bytes, b"dead object".len() as u64);
        assert_eq!(gc.tmp_files, 1);
        assert_eq!(s.get(&live_d).unwrap().unwrap(), b"live object");
        assert!(s.get(&dead_d).unwrap().is_none());
        assert!(!debris.exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_tmp_is_invisible_to_reads() {
        let (dir, s) = store("torn");
        let d = Digest::of(b"full payload");
        let path = s.path_for(&d);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(tmp_path(&path), b"full pa").unwrap();
        assert_eq!(s.get(&d).unwrap(), None, "torn temp must read as absent");
        // A later successful put publishes over the debris.
        s.put(b"full payload").unwrap();
        assert_eq!(s.get(&d).unwrap().unwrap(), b"full payload");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn metrics_record_object_traffic() {
        let dir = std::env::temp_dir().join(format!("dhub-persist-blob-met-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = MetricsRegistry::new();
        let s = BlobStore::open(&dir, Publisher::new()).unwrap().with_metrics(&reg);
        let d = s.put(&[1u8; 100]).unwrap();
        s.get(&d).unwrap();
        assert_eq!(reg.counter_value("dhub_persist_objects_written_total"), 1);
        assert_eq!(reg.counter_value("dhub_persist_object_bytes_total"), 100);
        assert_eq!(reg.counter_value("dhub_persist_reads_total"), 1);
        assert_eq!(reg.counter_value("dhub_persist_read_bytes_total"), 100);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn concurrent_puts_deduplicate() {
        let (dir, s) = store("concurrent");
        let s = std::sync::Arc::new(s);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        s.put(&i.to_le_bytes()).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.disk_bytes().unwrap(), 200);
        assert_eq!(s.list().unwrap().len(), 50);
        let _ = std::fs::remove_dir_all(dir);
    }
}
