//! The deduplicating store itself.
//!
//! Every object is a slice of a buffer shared with the other objects that
//! arrived in it, found through one slot per digest. Objects live in memory
//! as they do in a durable store's files: a commit copies the layer's new
//! objects of at most [`INLINE_MAX`] bytes into one buffer for the layer
//! and each larger one into a buffer of its own, and a reopened store keeps
//! each small object where its layer file was read and each large one in
//! its object file's bytes. Recipes are [`LayerRecipe`]s in column form. So
//! a store holds a few buffers per layer plus one per large object, however
//! many rows and small objects it has, and dropping it frees those.

use crate::recipe::{LayerRecipe, RecipeRow, RowKind};
use dhub_analyzer::AnalyzeError;
use dhub_digest::FxHashMap;
use dhub_model::{Digest, FileKind};
use dhub_obs::{Counter, Gauge, MetricsRegistry};
use dhub_sync::RwLock;
use dhub_tar::{encode_entry, encoded_len, EntryView, EntryViewKind, BLOCK_SIZE};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::ops::Range;
use std::sync::Arc;

/// Objects up to one filesystem block are kept inline in the layer file of
/// each layer that holds them and, in memory, in one buffer per layer with
/// the layer's other small objects; larger ones get a file and a buffer
/// each.
pub(crate) const INLINE_MAX: usize = 4096;

/// Where an object's bytes lie: `bufs[buf][at]` of its [`Objects`].
#[derive(Clone, Debug)]
pub(crate) struct Slot {
    pub(crate) buf: usize,
    pub(crate) at: Range<usize>,
}

/// Content-addressed file objects, shared by every recipe naming them: a
/// slot per digest, and the buffers the objects arrived in.
#[derive(Default)]
pub(crate) struct Objects {
    pub(crate) slots: FxHashMap<Digest, Slot>,
    pub(crate) bufs: Vec<Arc<Vec<u8>>>,
}

impl Objects {
    fn get(&self, digest: &Digest) -> Option<&[u8]> {
        self.slots.get(digest).map(|s| &self.bufs[s.buf][s.at.clone()])
    }
}

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

/// A layer parsed and hashed, staged for [`DedupStore::commit_parsed`]:
/// its recipe, and each regular file's content digest and payload, in row
/// order, the payloads still borrowing the decompressed tar. Producing one
/// from an analysis pass lets the store ingest a layer without a second
/// decompression or hash.
pub struct ParsedLayer<'a> {
    pub(crate) recipe: LayerRecipe,
    /// One per file row of `recipe`, in row order.
    pub(crate) files: Vec<(Digest, &'a [u8])>,
}

impl<'a> ParsedLayer<'a> {
    /// A layer with no entries yet; `blob_len` is its compressed length.
    pub fn new(layer_digest: Digest, blob_len: u64) -> ParsedLayer<'a> {
        ParsedLayer { recipe: LayerRecipe::new(layer_digest, blob_len), files: Vec::new() }
    }

    /// Appends a zero-copy tar entry, with a file's `(digest, class,
    /// payload)` as the analyzer's sink hands them over.
    pub fn push(&mut self, entry: &EntryView<'a>, file: Option<(Digest, FileKind, &'a [u8])>) {
        let (kind, size) = match entry.kind {
            EntryViewKind::File(_) => {
                let (digest, class, data) = file.expect("a file entry comes with its digest and class");
                self.files.push((digest, data));
                (RowKind::File(digest, class), data.len() as u64)
            }
            EntryViewKind::Dir => (RowKind::Dir, 0),
            EntryViewKind::Symlink(t) => (RowKind::Symlink(t), 0),
            EntryViewKind::Hardlink(t) => (RowKind::Hardlink(t), 0),
        };
        let (mode, uid, gid, mtime) = (entry.mode, entry.uid, entry.gid, entry.mtime);
        self.recipe.push(RecipeRow { path: &entry.path, kind, size, mode, uid, gid, mtime });
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

    /// Ingests a gzip-compressed layer tarball under `layer_digest`: the
    /// fused pass ([`crate::analyze_and_ingest`]) with its profile dropped.
    pub fn ingest_layer(&self, layer_digest: Digest, blob: &[u8]) -> Result<IngestStats, StoreError> {
        if self.contains_layer(&layer_digest) {
            return Err(StoreError::AlreadyIngested);
        }
        dhub_par::with_scratch(|scratch| {
            match crate::analyze_and_ingest(self, layer_digest, blob, scratch) {
                Ok((_, ingest)) => ingest,
                Err(AnalyzeError::BadGzip(e) | AnalyzeError::BadTar(e)) => Err(StoreError::BadLayer(e)),
            }
        })
    }

    /// Commits a parsed layer (the tail of every ingest path): one slot
    /// lookup per file under the objects lock, the layer's new small
    /// objects copied into one buffer and each new large one into its own.
    /// The recipe's compressed length is charged to the
    /// conventional-storage counter.
    pub fn commit_parsed(&self, layer: ParsedLayer<'_>) -> Result<IngestStats, StoreError> {
        let ParsedLayer { recipe, files } = layer;
        if self.contains_layer(&recipe.layer_digest) {
            return Err(StoreError::AlreadyIngested);
        }
        let mut stats = IngestStats::default();
        {
            let mut objects = self.objects.write();
            let Objects { slots, bufs } = &mut *objects;
            let (mut small, mut small_buf, mut end): (Vec<&[u8]>, _, _) = (Vec::new(), None, 0);
            for &(digest, payload) in &files {
                stats.files += 1;
                let Entry::Vacant(slot) = slots.entry(digest) else {
                    stats.bytes_deduped += payload.len() as u64;
                    continue;
                };
                stats.new_files += 1;
                stats.bytes_added += payload.len() as u64;
                if payload.len() <= INLINE_MAX {
                    // Filled in below, once every small payload is known.
                    let buf = *small_buf.get_or_insert_with(|| {
                        bufs.push(Arc::default());
                        bufs.len() - 1
                    });
                    slot.insert(Slot { buf, at: end..end + payload.len() });
                    end += payload.len();
                    small.push(payload);
                } else {
                    bufs.push(Arc::new(payload.to_vec()));
                    slot.insert(Slot { buf: bufs.len() - 1, at: 0..payload.len() });
                }
            }
            if let Some(buf) = small_buf {
                bufs[buf] = Arc::new(small.concat());
            }
        }
        let blob_len = recipe.blob_len;
        self.recipes.write().insert(recipe.layer_digest, Arc::new(recipe));
        self.count(1, stats.bytes_added, stats.bytes_added + stats.bytes_deduped, blob_len);
        Ok(stats)
    }

    /// Installs a replayed store at once (the reopen path): its recipes,
    /// its objects, and the physical and logical bytes they add up to. The
    /// store must be empty.
    pub(crate) fn restore(
        &self,
        recipes: impl Iterator<Item = LayerRecipe>,
        objects: Objects,
        physical: u64,
        logical: u64,
    ) {
        let mut held = self.recipes.write();
        debug_assert!(held.is_empty() && self.objects.read().slots.is_empty());
        let mut conventional = 0;
        for recipe in recipes {
            conventional += recipe.blob_len;
            held.insert(recipe.layer_digest, Arc::new(recipe));
        }
        let layers = held.len();
        drop(held);
        *self.objects.write() = objects;
        self.count(layers, physical, logical, conventional);
    }

    /// Folds `layers` committed layers and their bytes into the store
    /// counters.
    fn count(&self, layers: usize, physical: u64, logical: u64, conventional: u64) {
        let mut c = self.counters.write();
        c.layers += layers;
        c.physical_bytes += physical;
        c.logical_bytes += logical;
        c.conventional_bytes += conventional;
        c.unique_objects = self.objects.read().slots.len();
        self.metrics.ingests.add(layers as u64);
        self.metrics.dedup_factor.set(c.dedup_factor());
    }

    /// Rebuilds the layer tarball (uncompressed) from its recipe. The
    /// result contains the same entries, metadata, and order as the
    /// original archive.
    ///
    /// One pass over the recipe sizes the tar exactly and notes where each
    /// entry ends and where its payload lies; the tar is then one zeroed
    /// allocation, and every entry is encoded at its offset straight from
    /// the shared object, so each payload byte is copied once. From `PARALLEL_REBUILD_FLOOR` up,
    /// contiguous byte-balanced runs of entries are encoded on every core.
    pub fn reconstruct_tar(&self, layer_digest: &Digest) -> Result<Vec<u8>, StoreError> {
        let recipe = self.recipes.read().get(layer_digest).cloned().ok_or(StoreError::UnknownLayer)?;
        let objects = self.objects.read();
        let (ends, payloads) = sized(&recipe, &objects)?;
        let body = ends.last().copied().unwrap_or(0);
        let mut tar = vec![0u8; body + 2 * BLOCK_SIZE];
        let out = &mut tar[..body];
        if body < PARALLEL_REBUILD_FLOOR {
            fill(&recipe, 0, &payloads, out);
        } else {
            fill_runs(&recipe, &ends, &payloads, out, dhub_par::default_threads());
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
        self.objects.read().slots.contains_key(digest)
    }

    /// Digests of every ingested layer (unordered).
    pub fn layer_digests(&self) -> Vec<Digest> {
        self.recipes.read().keys().copied().collect()
    }

    /// `(layer digest, compressed size)` for every ingested layer, sorted
    /// by digest, read off the recipes. Lets a store replayed from recipes
    /// alone (no study checkpoint) answer layer-size distribution queries.
    pub fn layer_sizes(&self) -> Vec<(Digest, u64)> {
        let mut v: Vec<(Digest, u64)> =
            self.recipes.read().values().map(|r| (r.layer_digest, r.blob_len)).collect();
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

/// A recipe row as the encoder takes it, a file's payload borrowed from the
/// object store.
fn entry_view<'a>(row: RecipeRow<'a>, payload: &'a [u8]) -> EntryView<'a> {
    let kind = match row.kind {
        RowKind::File(..) => EntryViewKind::File(payload),
        RowKind::Dir => EntryViewKind::Dir,
        RowKind::Symlink(t) => EntryViewKind::Symlink(t),
        RowKind::Hardlink(t) => EntryViewKind::Hardlink(t),
    };
    let (mode, uid, gid, mtime) = (row.mode, row.uid, row.gid, row.mtime);
    EntryView { path: Cow::Borrowed(row.path), kind, mode, uid, gid, mtime }
}

/// Where each row of `recipe` ends in its rebuilt tar (the trailer
/// excluded), and each row's payload (empty but for a file's): one object
/// lookup per file row.
fn sized<'a>(recipe: &'a LayerRecipe, objects: &'a Objects) -> Result<(Vec<usize>, Vec<&'a [u8]>), StoreError> {
    let (mut ends, mut payloads, mut body) = (Vec::with_capacity(recipe.len()), Vec::with_capacity(recipe.len()), 0);
    for row in recipe.rows() {
        let payload = match row.kind {
            RowKind::File(d, _) => objects.get(&d).ok_or(StoreError::MissingObject(d))?,
            _ => &[],
        };
        body += encoded_len(&entry_view(row, payload));
        ends.push(body);
        payloads.push(payload);
    }
    Ok((ends, payloads))
}

/// Encodes rows `first..` of `recipe`, one per payload, back to back into
/// `out`, which holds exactly their encoded length and is zeroed.
fn fill(recipe: &LayerRecipe, first: usize, payloads: &[&[u8]], out: &mut [u8]) {
    let mut at = 0;
    for (i, payload) in (first..).zip(payloads) {
        at += encode_entry(&entry_view(recipe.row(i), payload), &mut out[at..]);
    }
    debug_assert_eq!(at, out.len());
}

/// [`fill`] as up to `runs` contiguous runs of about `out.len() / runs`
/// bytes each, one per thread, the last on the caller's. `ends[i]` is where
/// row `i` ends in `out`; a cut falls after the row that reaches each mark,
/// and `out` is split at the same offsets.
fn fill_runs(recipe: &LayerRecipe, ends: &[usize], payloads: &[&[u8]], out: &mut [u8], runs: usize) {
    let (total, n) = (out.len(), recipe.len());
    std::thread::scope(|s| {
        let (mut rest, mut first, mut at) = (out, 0, 0);
        for k in 1..=runs {
            let last = (ends.partition_point(|&end| end * runs < total * k) + 1).min(n);
            if last <= first {
                continue;
            }
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(ends[last - 1] - at);
            let run_payloads = &payloads[first..last];
            if last == n {
                fill(recipe, first, run_payloads, run);
            } else {
                s.spawn(move || fill(recipe, first, run_payloads, run));
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
        let (ends, payloads) = sized(&recipe, &objects).unwrap();
        let body = tar.len() - 2 * BLOCK_SIZE;
        for runs in [1, 2, 3, 5, 8, 64] {
            let mut out = vec![0u8; body];
            fill_runs(&recipe, &ends, &payloads, &mut out, runs);
            assert!(out == tar[..body], "{runs} runs");
        }
    }

    /// A commit copies its layer's new small objects into one buffer, and
    /// each large one into its own: the store holds a buffer per layer, not
    /// one per object.
    #[test]
    fn a_commit_copies_its_new_small_objects_into_one_buffer() {
        let store = DedupStore::new();
        let big = [7u8; INLINE_MAX + 1];
        let (d1, b1) = layer(&[file("a", b"one"), file("b", b"two"), file("c", b"one")]);
        let (d2, b2) = layer(&[file("d", b"two"), file("e", b"three"), file("f", &big)]);
        store.ingest_layer(d1, &b1).unwrap();
        store.ingest_layer(d2, &b2).unwrap();
        let objects = store.objects.read();
        let buf = |data: &[u8]| objects.slots[&Digest::of(data)].buf;
        assert_eq!(buf(b"one"), buf(b"two"));
        assert_ne!(buf(b"one"), buf(b"three"));
        assert_ne!(buf(b"three"), buf(&big));
        assert_eq!((objects.slots.len(), objects.bufs.len(), objects.bufs[0].len()), (4, 3, 6));
        assert_eq!(objects.get(&Digest::of(b"three")).unwrap(), b"three");
        assert_eq!(objects.get(&Digest::of(&big)).unwrap(), &big);
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
