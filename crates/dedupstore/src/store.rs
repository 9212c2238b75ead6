//! The deduplicating store itself.

use crate::recipe::{EntryMeta, LayerRecipe, RecipeEntryKind};
use dhub_compress::gzip_decompress_into;
use dhub_digest::FxHashMap;
use dhub_model::Digest;
use dhub_obs::{Counter, Gauge, MetricsRegistry};
use dhub_sync::RwLock;
use dhub_tar::{encode_entry, encoded_len, EntryView, EntryViewKind, TarView, BLOCK_SIZE};
use std::borrow::Cow;
use std::sync::Arc;

/// Content-addressed file objects, shared by every recipe naming them.
type Objects = FxHashMap<Digest, Arc<Vec<u8>>>;

/// Errors from store operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Layer blob failed to decode (gzip or tar).
    BadLayer(String),
    /// No recipe for the requested layer.
    UnknownLayer,
    /// A recipe references a file object that is missing (store corruption).
    MissingObject(Digest),
    /// Layer already ingested.
    AlreadyIngested,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadLayer(e) => write!(f, "undecodable layer: {e}"),
            StoreError::UnknownLayer => f.write_str("unknown layer"),
            StoreError::MissingObject(d) => write!(f, "missing file object {d:?}"),
            StoreError::AlreadyIngested => f.write_str("layer already ingested"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Outcome of ingesting one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// File entries in the layer.
    pub files: u64,
    /// Files whose content was new to the store.
    pub new_files: u64,
    /// Bytes actually added to the object store.
    pub bytes_added: u64,
    /// Bytes that were already present (saved by dedup).
    pub bytes_deduped: u64,
}

/// Aggregate store statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub layers: usize,
    pub unique_objects: usize,
    /// Physical bytes held in the object store.
    pub physical_bytes: u64,
    /// Logical bytes across all ingested layers (Σ FLS).
    pub logical_bytes: u64,
    /// Compressed bytes the layers would occupy stored conventionally.
    pub conventional_bytes: u64,
}

impl StoreStats {
    /// Logical-to-physical dedup factor (the paper's capacity ratio).
    pub fn dedup_factor(&self) -> f64 {
        if self.physical_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.physical_bytes as f64
        }
    }
}

/// Live `dhub_store_*` metric handles. Default handles are detached (no
/// registry), so an unobserved store pays only relaxed atomic increments.
struct StoreMetrics {
    ingests: Counter,
    reconstructions: Counter,
    dedup_factor: Gauge,
}

impl Default for StoreMetrics {
    fn default() -> Self {
        StoreMetrics {
            ingests: Counter::detached(),
            reconstructions: Counter::detached(),
            dedup_factor: Gauge::detached(),
        }
    }
}

impl StoreMetrics {
    fn on(reg: &MetricsRegistry) -> Self {
        StoreMetrics {
            ingests: reg.counter("dhub_store_ingests_total"),
            reconstructions: reg.counter("dhub_store_reconstructions_total"),
            dedup_factor: reg.gauge("dhub_store_dedup_factor"),
        }
    }
}

/// One parsed layer entry staged for [`DedupStore::commit_parsed`]:
/// owned recipe metadata plus, for regular files, the content digest and
/// a payload slice still borrowing the decompressed tar. Producing these
/// from an analysis pass lets the store ingest a layer without a second
/// decompression or hash.
pub struct PendingEntry<'a> {
    /// Recipe metadata for this entry (path, kind, mode, owner, mtime).
    pub meta: EntryMeta,
    /// For regular files: content digest + borrowed payload.
    pub file: Option<(Digest, &'a [u8])>,
}

impl<'a> PendingEntry<'a> {
    /// Stages a zero-copy tar entry. `file` may carry an
    /// already-computed `(digest, payload)` pair (from the fused analysis
    /// sink); when absent for a file entry the digest is computed here.
    pub fn from_view(entry: &EntryView<'a>, file: Option<(Digest, &'a [u8])>) -> PendingEntry<'a> {
        let file = match entry.kind {
            EntryViewKind::File(data) => Some(file.unwrap_or_else(|| (Digest::of(data), data))),
            _ => None,
        };
        let kind = match (&entry.kind, &file) {
            (EntryViewKind::File(_), Some((d, _))) => RecipeEntryKind::File(*d),
            (EntryViewKind::Dir, _) => RecipeEntryKind::Dir,
            (EntryViewKind::Symlink(t), _) => RecipeEntryKind::Symlink(t.to_string()),
            (EntryViewKind::Hardlink(t), _) => RecipeEntryKind::Hardlink(t.to_string()),
            (EntryViewKind::File(_), None) => unreachable!("file pair filled in above"),
        };
        PendingEntry {
            meta: EntryMeta {
                path: entry.path.clone().into_owned(),
                kind,
                mode: entry.mode,
                uid: entry.uid,
                gid: entry.gid,
                mtime: entry.mtime,
            },
            file,
        }
    }
}

/// A file-level deduplicating layer store.
///
/// Thread-safe: ingest/reconstruct may run concurrently from the analysis
/// pipeline's workers.
#[derive(Default)]
pub struct DedupStore {
    objects: RwLock<Objects>,
    recipes: RwLock<FxHashMap<Digest, Arc<LayerRecipe>>>,
    /// Compressed (conventional) size of each ingested layer, so a store
    /// rebuilt from recipes alone can still answer size-distribution
    /// queries without the original blobs.
    layer_cls: RwLock<FxHashMap<Digest, u64>>,
    counters: RwLock<StoreStats>,
    metrics: StoreMetrics,
}

impl DedupStore {
    /// Creates an empty store.
    pub fn new() -> DedupStore {
        DedupStore::default()
    }

    /// An empty store whose operations record into `reg` under
    /// `dhub_store_*` (ingests, reconstructions) plus the
    /// `dhub_store_dedup_factor` gauge.
    pub fn with_metrics(reg: &MetricsRegistry) -> DedupStore {
        DedupStore { metrics: StoreMetrics::on(reg), ..DedupStore::default() }
    }

    /// True when a layer with this digest is already ingested.
    pub fn contains_layer(&self, layer_digest: &Digest) -> bool {
        self.recipes.read().contains_key(layer_digest)
    }

    /// Ingests a gzip-compressed layer tarball under `layer_digest`.
    ///
    /// Decompresses into the calling thread's scratch arena and walks the
    /// tar zero-copy; file payloads are copied only when they are new to
    /// the object store. Callers that already analyzed the layer should
    /// use [`crate::analyze_and_ingest`] instead, which shares one
    /// decompression and one hash per file with the profiler.
    pub fn ingest_layer(&self, layer_digest: Digest, blob: &[u8]) -> Result<IngestStats, StoreError> {
        if self.contains_layer(&layer_digest) {
            return Err(StoreError::AlreadyIngested);
        }
        dhub_par::with_scratch(|scratch| {
            let buf = scratch.tar_buf();
            gzip_decompress_into(blob, buf).map_err(|e| StoreError::BadLayer(e.to_string()))?;
            let tar: &[u8] = buf;
            let mut pending = Vec::new();
            for entry in TarView::new(tar) {
                let entry = entry.map_err(|e| StoreError::BadLayer(e.to_string()))?;
                pending.push(PendingEntry::from_view(&entry, None));
            }
            self.commit_parsed(layer_digest, blob.len() as u64, pending)
        })
    }

    /// Commits a layer from already-parsed entries (the tail of every
    /// ingest path). `blob_len` is the compressed size, charged to the
    /// conventional-storage counter. Payload bytes are copied into the
    /// object store only for content the store has not seen.
    pub fn commit_parsed(
        &self,
        layer_digest: Digest,
        blob_len: u64,
        pending: Vec<PendingEntry<'_>>,
    ) -> Result<IngestStats, StoreError> {
        if self.contains_layer(&layer_digest) {
            return Err(StoreError::AlreadyIngested);
        }
        let mut stats = IngestStats::default();
        let mut recipe_entries = Vec::with_capacity(pending.len());
        {
            let mut objects = self.objects.write();
            for p in pending {
                if let Some((digest, data)) = p.file {
                    stats.files += 1;
                    if objects.contains_key(&digest) {
                        stats.bytes_deduped += data.len() as u64;
                    } else {
                        stats.new_files += 1;
                        stats.bytes_added += data.len() as u64;
                        objects.insert(digest, Arc::new(data.to_vec()));
                    }
                }
                recipe_entries.push(p.meta);
            }
        }
        self.record_layer(LayerRecipe { layer_digest, entries: recipe_entries }, blob_len, stats);
        Ok(stats)
    }

    /// Commits a layer from its owned recipe (the reopen path): the recipe
    /// is moved in as it stands, and the bytes of every object the store
    /// does not hold yet are moved out of `fetched` — nothing is cloned.
    /// Same checks, stats and counters as [`DedupStore::commit_parsed`].
    pub(crate) fn commit_recipe(
        &self,
        recipe: LayerRecipe,
        blob_len: u64,
        fetched: &mut FxHashMap<Digest, Vec<u8>>,
    ) -> Result<IngestStats, StoreError> {
        if self.contains_layer(&recipe.layer_digest) {
            return Err(StoreError::AlreadyIngested);
        }
        let mut stats = IngestStats::default();
        {
            let mut objects = self.objects.write();
            for digest in recipe.file_digests() {
                stats.files += 1;
                if let Some(held) = objects.get(&digest) {
                    stats.bytes_deduped += held.len() as u64;
                } else {
                    let data = fetched.remove(&digest).ok_or(StoreError::MissingObject(digest))?;
                    stats.new_files += 1;
                    stats.bytes_added += data.len() as u64;
                    objects.insert(digest, Arc::new(data));
                }
            }
        }
        self.record_layer(recipe, blob_len, stats);
        Ok(stats)
    }

    /// The tail of every commit: files the recipe and the layer's
    /// compressed size, then folds `stats` into the store counters.
    fn record_layer(&self, recipe: LayerRecipe, blob_len: u64, stats: IngestStats) {
        let layer_digest = recipe.layer_digest;
        self.recipes.write().insert(layer_digest, Arc::new(recipe));
        self.layer_cls.write().insert(layer_digest, blob_len);

        let mut c = self.counters.write();
        c.layers += 1;
        c.physical_bytes += stats.bytes_added;
        c.logical_bytes += stats.bytes_added + stats.bytes_deduped;
        c.conventional_bytes += blob_len;
        c.unique_objects = self.objects.read().len();
        self.metrics.ingests.inc();
        self.metrics.dedup_factor.set(c.dedup_factor());
    }

    /// Rebuilds the layer tarball (uncompressed) from its recipe. The
    /// result contains the same entries, metadata, and order as the
    /// original archive.
    ///
    /// One pass over the recipe sizes the tar exactly and notes where each
    /// entry ends; the tar is then one zeroed allocation, and every entry is
    /// encoded at its offset straight from the shared object, so each
    /// payload byte is copied once. From `PARALLEL_REBUILD_FLOOR` up,
    /// contiguous byte-balanced runs of entries are encoded on every core.
    pub fn reconstruct_tar(&self, layer_digest: &Digest) -> Result<Vec<u8>, StoreError> {
        let recipe = self.recipes.read().get(layer_digest).cloned().ok_or(StoreError::UnknownLayer)?;
        let objects = self.objects.read();
        let (mut ends, mut body) = (Vec::with_capacity(recipe.entries.len()), 0);
        for e in &recipe.entries {
            body += encoded_len(&entry_view(e, &objects)?);
            ends.push(body);
        }
        let mut tar = vec![0u8; body + 2 * BLOCK_SIZE];
        let out = &mut tar[..body];
        if body < PARALLEL_REBUILD_FLOOR {
            fill(&recipe.entries, &objects, out);
        } else {
            fill_runs(&recipe.entries, &ends, &objects, out, dhub_par::default_threads());
        }
        self.metrics.reconstructions.inc();
        Ok(tar)
    }

    /// The stored recipe for a layer.
    pub fn recipe(&self, layer_digest: &Digest) -> Option<Arc<LayerRecipe>> {
        self.recipes.read().get(layer_digest).cloned()
    }

    /// True when the object store already holds this content digest (the
    /// persistent tier uses this to skip redundant disk writes).
    pub fn has_object(&self, digest: &Digest) -> bool {
        self.objects.read().contains_key(digest)
    }

    /// The content bytes of one stored object, if present. Recipe walkers
    /// (e.g. `dhub query` answering from a replayed store) pair this with
    /// [`DedupStore::recipe`] to re-derive per-file facts.
    pub fn object_data(&self, digest: &Digest) -> Option<Arc<Vec<u8>>> {
        self.objects.read().get(digest).cloned()
    }

    /// Digests of every ingested layer (unordered).
    pub fn layer_digests(&self) -> Vec<Digest> {
        self.recipes.read().keys().copied().collect()
    }

    /// `(layer digest, compressed size)` for every ingested layer, sorted
    /// by digest. Lets a store replayed from recipes alone (no study
    /// checkpoint) answer layer-size distribution queries.
    pub fn layer_sizes(&self) -> Vec<(Digest, u64)> {
        let mut v: Vec<(Digest, u64)> = self.layer_cls.read().iter().map(|(d, c)| (*d, *c)).collect();
        v.sort_by_key(|(d, _)| *d);
        v
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StoreStats {
        *self.counters.read()
    }
}

/// Rebuilt tars at least this long are encoded on every core. Timed on two
/// cores, spawning and joining the second thread costs ~30 µs, more than it
/// saves on a tar under ~2 MiB; from 3 MiB the split is 0.79–0.86× the
/// inline fill.
const PARALLEL_REBUILD_FLOOR: usize = 3 << 20;

/// A recipe entry as the encoder takes it, its payload borrowed from the
/// object store.
fn entry_view<'a>(e: &'a EntryMeta, objects: &'a Objects) -> Result<EntryView<'a>, StoreError> {
    let kind = match &e.kind {
        RecipeEntryKind::File(d) => EntryViewKind::File(objects.get(d).ok_or(StoreError::MissingObject(*d))?),
        RecipeEntryKind::Dir => EntryViewKind::Dir,
        RecipeEntryKind::Symlink(t) => EntryViewKind::Symlink(t),
        RecipeEntryKind::Hardlink(t) => EntryViewKind::Hardlink(t),
    };
    Ok(EntryView { path: Cow::Borrowed(&e.path), kind, mode: e.mode, uid: e.uid, gid: e.gid, mtime: e.mtime })
}

/// Encodes `entries` back to back into `out`, which holds exactly their
/// encoded length and is zeroed. Every object they name was found when the
/// rebuild was sized, under the same read lock.
fn fill(entries: &[EntryMeta], objects: &Objects, out: &mut [u8]) {
    let mut at = 0;
    for e in entries {
        at += encode_entry(&entry_view(e, objects).expect("sized under the same lock"), &mut out[at..]);
    }
    debug_assert_eq!(at, out.len());
}

/// [`fill`] as up to `runs` contiguous runs of about `out.len() / runs`
/// bytes each, one per thread, the last on the caller's. `ends[i]` is where
/// entry `i` ends in `out`; a cut falls after the entry that reaches each
/// mark, and `out` is split at the same offsets.
fn fill_runs(entries: &[EntryMeta], ends: &[usize], objects: &Objects, out: &mut [u8], runs: usize) {
    let (total, n) = (out.len(), entries.len());
    std::thread::scope(|s| {
        let (mut rest, mut first, mut at) = (out, 0, 0);
        for k in 1..=runs {
            let last = (ends.partition_point(|&end| end * runs < total * k) + 1).min(n);
            if last <= first {
                continue;
            }
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(ends[last - 1] - at);
            let run_entries = &entries[first..last];
            if last == n {
                fill(run_entries, objects, run);
            } else {
                s.spawn(move || fill(run_entries, objects, run));
            }
            (rest, first, at) = (tail, last, ends[last - 1]);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_compress::{gzip_compress, CompressOptions};
    use dhub_tar::TarEntry;

    fn layer(entries: &[TarEntry]) -> (Digest, Vec<u8>) {
        let tar = dhub_tar::write_archive(entries);
        let blob = gzip_compress(&tar, &CompressOptions::fast());
        (Digest::of(&blob), blob)
    }

    fn file(path: &str, data: &[u8]) -> TarEntry {
        TarEntry::file(path, data.to_vec())
    }

    #[test]
    fn ingest_dedups_across_layers() {
        let store = DedupStore::new();
        let shared = b"the shared library bytes".as_slice();
        let (d1, b1) = layer(&[file("usr/lib/libx.so", shared), file("etc/one", b"one")]);
        let (d2, b2) = layer(&[file("opt/lib/libx.so", shared), file("etc/two", b"two")]);

        let s1 = store.ingest_layer(d1, &b1).unwrap();
        assert_eq!(s1.files, 2);
        assert_eq!(s1.new_files, 2);
        assert_eq!(s1.bytes_deduped, 0);

        let s2 = store.ingest_layer(d2, &b2).unwrap();
        assert_eq!(s2.files, 2);
        assert_eq!(s2.new_files, 1, "shared lib must dedup");
        assert_eq!(s2.bytes_deduped, shared.len() as u64);

        let stats = store.stats();
        assert_eq!(stats.layers, 2);
        assert_eq!(stats.unique_objects, 3);
        assert!(stats.dedup_factor() > 1.0);
    }

    #[test]
    fn reconstruction_is_exact() {
        let store = DedupStore::new();
        let entries = vec![
            TarEntry::dir("app"),
            file("app/main.py", b"#!/usr/bin/env python\nprint('hi')\n"),
            TarEntry::symlink("app/link", "main.py"),
            file("app/empty", b""),
        ];
        let tar = dhub_tar::write_archive(&entries);
        let blob = gzip_compress(&tar, &CompressOptions::fast());
        let digest = Digest::of(&blob);
        store.ingest_layer(digest, &blob).unwrap();

        let rebuilt_tar = store.reconstruct_tar(&digest).unwrap();
        assert_eq!(rebuilt_tar, tar, "tar must rebuild byte-identically");
        // The gzip writer is deterministic, so the blob rebuilds too.
        let rebuilt_blob = gzip_compress(&rebuilt_tar, &CompressOptions::fast());
        assert_eq!(rebuilt_blob, blob, "blob must rebuild byte-identically");
        assert_eq!(Digest::of(&rebuilt_blob), digest);
    }

    /// The cuts, not the core count, decide a split rebuild's bytes: any
    /// number of runs — more than there are entries, or marks that fall
    /// inside one large file — fills the same tar.
    #[test]
    fn split_fill_is_exact_at_any_run_count() {
        let mut entries: Vec<TarEntry> = (0..30).map(|i| TarEntry::file(&format!("f/{i}"), vec![i as u8; 700 * i])).collect();
        entries.insert(10, TarEntry::file("huge", vec![7; 200_000]));
        entries.push(TarEntry::symlink("link", &"t".repeat(150)));
        let (digest, blob) = layer(&entries);
        let store = DedupStore::new();
        store.ingest_layer(digest, &blob).unwrap();
        let tar = dhub_tar::write_archive(&entries);
        let recipe = store.recipe(&digest).unwrap();
        let objects = store.objects.read();
        let ends: Vec<usize> = recipe
            .entries
            .iter()
            .scan(0, |at, e| {
                *at += encoded_len(&entry_view(e, &objects).unwrap());
                Some(*at)
            })
            .collect();
        let body = tar.len() - 2 * BLOCK_SIZE;
        for runs in [1, 2, 3, 5, 8, 64] {
            let mut out = vec![0u8; body];
            fill_runs(&recipe.entries, &ends, &objects, &mut out, runs);
            assert!(out == tar[..body], "{runs} runs");
        }
    }

    #[test]
    fn duplicate_ingest_rejected() {
        let store = DedupStore::new();
        let (d, b) = layer(&[file("f", b"x")]);
        store.ingest_layer(d, &b).unwrap();
        assert_eq!(store.ingest_layer(d, &b).unwrap_err(), StoreError::AlreadyIngested);
    }

    #[test]
    fn corrupt_layer_rejected() {
        let store = DedupStore::new();
        let err = store.ingest_layer(Digest::of(b"x"), b"not gzip").unwrap_err();
        assert!(matches!(err, StoreError::BadLayer(_)));
        assert_eq!(store.stats().layers, 0);
    }

    #[test]
    fn unknown_layer_errors() {
        let store = DedupStore::new();
        assert_eq!(store.reconstruct_tar(&Digest::of(b"ghost")).unwrap_err(), StoreError::UnknownLayer);
    }

    #[test]
    fn metrics_track_store_operations() {
        let reg = MetricsRegistry::new();
        let store = DedupStore::with_metrics(&reg);
        let shared = b"shared-content".as_slice();
        let (d1, b1) = layer(&[file("a", shared), file("only1", b"111")]);
        let (d2, b2) = layer(&[file("b", shared)]);
        store.ingest_layer(d1, &b1).unwrap();
        store.ingest_layer(d2, &b2).unwrap();
        store.reconstruct_tar(&d1).unwrap();
        assert_eq!(reg.counter_value("dhub_store_ingests_total"), 2);
        assert_eq!(reg.counter_value("dhub_store_reconstructions_total"), 1);
        let factor = reg.gauge_value("dhub_store_dedup_factor");
        assert!((factor - store.stats().dedup_factor()).abs() < 1e-12);
    }

    #[test]
    fn stats_track_conventional_bytes() {
        let store = DedupStore::new();
        let (d, b) = layer(&[file("f", &[7u8; 5000])]);
        store.ingest_layer(d, &b).unwrap();
        assert_eq!(store.stats().conventional_bytes, b.len() as u64);
        assert_eq!(store.stats().logical_bytes, 5000);
    }

    #[test]
    fn synthetic_layers_roundtrip_through_store() {
        use dhub_synth::layergen::build_app_layer;
        use dhub_synth::pool::FilePool;
        use dhub_synth::SynthConfig;
        let pool = FilePool::build(&SynthConfig::tiny(3), 20_000);
        let store = DedupStore::new();
        let mut total_dedup = 0u64;
        for seed in 0..24u64 {
            let l = build_app_layer(&pool, 0xDE0 + seed);
            match store.ingest_layer(l.digest, &l.blob) {
                Ok(s) => total_dedup += s.bytes_deduped,
                Err(StoreError::AlreadyIngested) => continue, // seed collision: same blob
                Err(e) => panic!("{e}"),
            }
            // Layers built by our own tooling round-trip to the same blob.
            let rebuilt_tar = store.reconstruct_tar(&l.digest).unwrap();
            assert_eq!(gzip_compress(&rebuilt_tar, &CompressOptions::fast()), l.blob);
        }
        assert!(total_dedup > 0, "synthetic layers share prototypes");
        assert!(store.stats().dedup_factor() > 1.0);
    }
}
