//! Crash-safe content-addressed object storage.
//!
//! Objects live under sharded fanout directories (`objects/ab/<hex>`, the
//! Docker registry layout), are published atomically through the
//! [`Publisher`] discipline, and every read re-hashes the bytes against
//! the requested digest — a torn or bit-flipped file can surface only as
//! [`PersistError::Corrupt`], never as wrong bytes.

use crate::fsync::{fsync_dir, Publisher};
use crate::{digest_from_hex, PersistError};
use dhub_digest::FxHashSet;
use dhub_model::Digest;
use dhub_obs::{Counter, MetricsRegistry};
use dhub_sync::Striped;
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
/// Thread-safe. One lock per fanout shard (the digest's first byte)
/// covers a publish from its exists-check to its shard-directory fsync,
/// so writers to different shards never wait on each other, and two
/// writers of the same digest never share a temp file (the rename is
/// atomic regardless — the lock avoids the redundant write). [`gc`]
/// sweeps each shard under the same lock, so it cannot remove the
/// `*.tmp` a publish is about to rename.
///
/// [`gc`]: BlobStore::gc
pub struct BlobStore {
    root: PathBuf,
    publisher: Publisher,
    shard_locks: Striped<()>,
    metrics: BlobMetrics,
}

/// Fanout shards: one per value of a digest's first byte.
const SHARDS: usize = 256;

impl BlobStore {
    /// Opens (creating if needed) a store rooted at `root`, publishing
    /// through `publisher`.
    pub fn open(root: impl AsRef<Path>, publisher: Publisher) -> Result<BlobStore, PersistError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(BlobStore {
            root,
            publisher,
            shard_locks: Striped::new(SHARDS, || ()),
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

    /// `<root>/ab/<64-hex>`, built from the digest bytes in one allocation.
    fn path_for(&self, digest: &Digest) -> PathBuf {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut rel = [b'/'; 67];
        for (i, byte) in digest.0.iter().enumerate() {
            rel[3 + 2 * i] = HEX[(byte >> 4) as usize];
            rel[4 + 2 * i] = HEX[(byte & 0xf) as usize];
        }
        rel.copy_within(3..5, 0);
        let rel = std::str::from_utf8(&rel).expect("hex digits are ascii");
        let mut path = PathBuf::with_capacity(self.root.as_os_str().len() + 1 + rel.len());
        path.push(&self.root);
        path.push(rel);
        path
    }

    /// Stores `data`, returning its digest. Idempotent; crash-safe (a
    /// killed write leaves only invisible `*.tmp` debris).
    pub fn put(&self, data: &[u8]) -> Result<Digest, PersistError> {
        let digest = Digest::of(data);
        self.put_batch(&[(digest, data)])?;
        Ok(digest)
    }

    /// Stores a batch of pre-hashed objects (the fused ingest path has
    /// hashed every payload once; re-hashing here would double the
    /// per-byte cost — debug builds verify the pairs) with one
    /// parent-directory fsync per fanout shard (via
    /// [`Publisher::publish_batch`]) instead of one per object — the
    /// fsync-bound durable ingest path spends most of its time in exactly
    /// those directory fsyncs. Duplicate digests within the batch and
    /// objects already on disk are skipped. The batch is published shard
    /// by shard, each under that shard's lock only.
    pub fn put_batch(&self, items: &[(Digest, &[u8])]) -> Result<(), PersistError> {
        let mut seen = FxHashSet::default();
        let mut items: Vec<(u8, PathBuf, &[u8])> = items
            .iter()
            .filter(|(digest, _)| seen.insert(*digest))
            .map(|(digest, data)| {
                debug_assert_eq!(*digest, Digest::of(data), "put_batch digest/payload mismatch");
                (digest.0[0], self.path_for(digest), *data)
            })
            .collect();
        items.sort_by_key(|(shard, _, _)| *shard);
        // A missing shard directory means nothing in it is published yet,
        // so creating it needs no lock; all fresh ones share one root fsync.
        let mut fresh_shard = false;
        for shard in items.chunk_by(|a, b| a.0 == b.0) {
            let dir = shard[0].1.parent().expect("object path has parent");
            if !dir.exists() {
                std::fs::create_dir_all(dir)?;
                fresh_shard = true;
            }
        }
        if fresh_shard {
            // The fanout directories themselves are fresh entries in the root.
            fsync_dir(&self.root)?;
        }
        let mut rest = items.into_iter().peekable();
        while let Some(&(shard, _, _)) = rest.peek() {
            let _guard = self.shard_locks.get(shard as usize).lock();
            let to_publish: Vec<(PathBuf, &[u8])> =
                std::iter::from_fn(|| rest.next_if(|item| item.0 == shard))
                    .filter(|(_, path, _)| !path.exists())
                    .map(|(_, path, data)| (path, data))
                    .collect();
            if to_publish.is_empty() {
                continue;
            }
            self.publisher.publish_batch(&to_publish)?;
            self.metrics.objects_written.add(to_publish.len() as u64);
            self.metrics.object_bytes.add(to_publish.iter().map(|(_, d)| d.len() as u64).sum());
        }
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

    /// The entries of fanout shard `shard`'s directory — none when nothing
    /// has been published into that shard yet. Anything else under the
    /// root is foreign and never visited.
    fn shard_entries(&self, shard: u8) -> Result<Vec<std::fs::DirEntry>, PersistError> {
        let dir = self.root.join(format!("{shard:02x}"));
        if !dir.is_dir() {
            return Ok(Vec::new());
        }
        Ok(std::fs::read_dir(dir)?.collect::<Result<_, _>>()?)
    }

    /// Digests of every published (non-temp) object, sorted.
    pub fn list(&self) -> Result<Vec<Digest>, PersistError> {
        let mut out = Vec::new();
        for shard in 0..=u8::MAX {
            for f in self.shard_entries(shard)? {
                out.extend(f.file_name().to_str().and_then(digest_from_hex));
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Total bytes across published objects (temp debris excluded).
    pub fn disk_bytes(&self) -> Result<u64, PersistError> {
        let mut bytes = 0;
        for shard in 0..=u8::MAX {
            for f in self.shard_entries(shard)? {
                if !is_tmp(&f.file_name()) {
                    bytes += f.metadata()?.len();
                }
            }
        }
        Ok(bytes)
    }

    /// Garbage collection: deletes every published object whose digest is
    /// not in `live`, and all `*.tmp` debris from crashed writes.
    /// Referenced objects are never touched. Sweeps shard by shard under
    /// the shard's publish lock (a `*.tmp` seen here is therefore never a
    /// publish in flight), and stats only what it deletes.
    pub fn gc(&self, live: &FxHashSet<Digest>) -> Result<GcStats, PersistError> {
        let mut stats = GcStats::default();
        for shard in 0..=u8::MAX {
            let _guard = self.shard_locks.get(shard as usize).lock();
            for f in self.shard_entries(shard)? {
                let name = f.file_name();
                if is_tmp(&name) {
                    std::fs::remove_file(f.path())?;
                    stats.tmp_files += 1;
                    continue;
                }
                // Unparseable names are foreign files — leave them alone.
                let Some(d) = name.to_str().and_then(digest_from_hex) else { continue };
                if !live.contains(&d) {
                    stats.bytes += f.metadata()?.len();
                    std::fs::remove_file(f.path())?;
                    stats.objects += 1;
                }
            }
        }
        self.metrics.gc_objects.add(stats.objects);
        self.metrics.gc_bytes.add(stats.bytes);
        Ok(stats)
    }
}

/// True for the in-flight temp name of a publish ([`crate::tmp_path`]).
fn is_tmp(name: &std::ffi::OsStr) -> bool {
    Path::new(name).extension().is_some_and(|e| e == "tmp")
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
    fn concurrent_overlapping_batches_publish_each_object_once() {
        let dir = std::env::temp_dir().join(format!("dhub-persist-blob-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = MetricsRegistry::new();
        let s = BlobStore::open(&dir, Publisher::new()).unwrap().with_metrics(&reg);
        let payloads: Vec<Vec<u8>> = (0..200u32).map(|i| format!("object {i}").into_bytes()).collect();
        let objects: Vec<(Digest, &[u8])> =
            payloads.iter().map(|p| (Digest::of(p), p.as_slice())).collect();
        // Eight writers, each a 60-object window overlapping its
        // neighbours' by 40, in batches of 7 (with in-batch repeats).
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (s, objects, start) = (&s, &objects, &start);
                scope.spawn(move || {
                    start.wait();
                    for batch in objects[t * 20..t * 20 + 60].chunks(7) {
                        s.put_batch(&[batch, &batch[..1]].concat()).unwrap();
                    }
                });
            }
        });
        for (d, data) in &objects {
            assert_eq!(s.get(d).unwrap().as_deref(), Some(*data));
        }
        assert_eq!(s.list().unwrap().len(), objects.len());
        for shard in std::fs::read_dir(&dir).unwrap() {
            for f in std::fs::read_dir(shard.unwrap().path()).unwrap() {
                assert!(!is_tmp(&f.unwrap().file_name()), "no temp file may outlive its publish");
            }
        }
        assert_eq!(reg.counter_value("dhub_persist_objects_written_total"), objects.len() as u64);
        assert_eq!(
            reg.counter_value("dhub_persist_object_bytes_total"),
            payloads.iter().map(|p| p.len() as u64).sum::<u64>()
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_never_sweeps_the_temp_file_of_a_publish_in_flight() {
        let (dir, s) = store("gc-race");
        let payloads: Vec<Vec<u8>> = (0..300u32).map(|i| format!("live {i}").into_bytes()).collect();
        let live: FxHashSet<Digest> = payloads.iter().map(|p| Digest::of(p)).collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    assert_eq!(s.gc(&live).unwrap(), GcStats::default());
                }
            });
            for p in &payloads {
                s.put(p).unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        });
        assert_eq!(s.list().unwrap().len(), payloads.len());
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
