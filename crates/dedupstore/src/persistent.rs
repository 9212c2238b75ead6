//! The durable dedup store: the in-memory [`DedupStore`] backed by a
//! crash-safe on-disk layout, so `analyze_and_ingest` output survives the
//! process and can be reopened, resumed, and queried later.
//!
//! On-disk layout under the store root:
//!
//! ```text
//! layers/ab/<hex>         one self-contained file per ingested layer
//! objects/ab/<hex>        content-addressed file objects over 4 KiB
//!                         (dhub-persist BlobStore)
//! packs/<hex>             a segment: one layer's objects of at most
//!                         4 KiB (written by its commit, merged by `gc`)
//! packs/small             every live object of at most 4 KiB, once, in
//!                         digest order (written by `gc`)
//! ```
//!
//! A **layer file** is one `dhub-persist` table (`DHTB` v3): a row per tar
//! entry in archive order — path, kind, mode, uid, gid, mtime, size,
//! sha256, class (a file's [`FileKind::ALL`] index, else 0) and link
//! target, the per-file schema of a layer, and no file content. Its
//! metadata carries the layer format (4, the schema; the table codec under
//! it is versioned on its own) and the layer's compressed length, and its
//! trailing CRC covers every byte of the file. A commit publishes it once
//! and nothing rewrites it.
//! The codec stores each integer column as varint deltas, so the columns
//! that barely vary — kind, mode, uid, gid — cost about a byte a row, and
//! each string and bytes column as varint lengths then its values, which
//! a loaded column points into. A layer file of an older format is `Torn`.
//!
//! A **pack** is one table too: a `sha256` and a `content` row per object
//! of at most [`INLINE_MAX`] bytes, sorted by digest, each object once. A
//! commit writes its layer's small objects as a **segment** named by the
//! layer's digest: all of them, whether or not an earlier layer brought
//! them too, so a segment's bytes depend on its layer alone, never on which
//! layer was committed first, and store dirs are byte-identical at any
//! worker count. `gc` merges the segments into `packs/small`, each live
//! small object once: a function of the live set alone. A durable study
//! thus writes a file per layer, a segment per layer with small files and
//! a file per large object, not one per object.
//!
//! **Write ordering** makes every crash recoverable without a journal: a
//! layer commit publishes (1) any new objects over [`INLINE_MAX`] and its
//! segment, then (2) the layer file, then (3) updates the in-memory store.
//! Each publish is atomic (temp + fsync + rename + parent fsync), so a crash
//! anywhere leaves either orphan objects and an orphan segment with no
//! layer — garbage, collected by [`PersistentDedupStore::gc`] with any temp
//! debris — or a complete layer file whose objects are all already
//! durable. A layer can never reference bytes that were not published
//! first. (4) `gc` publishes `packs/small` over any earlier one, then
//! unlinks every segment and fsyncs `packs/` once. Layers are never
//! removed, so the new pack holds every small object a live layer names,
//! and it lands before any segment goes: a kill at any step reopens, and
//! the next `gc` converges to the same bytes.
//!
//! **Reopen** replays the packs and the layer files (layers sorted by path,
//! so deterministic) in three steps: (1) per file, in parallel, one read,
//! both CRC tiers and one validating walk — each pack, `small` first and
//! then the segments by name, and each layer file, whose loaded columns
//! *are* the layer's recipe; (2) one sequential pass gives every distinct
//! object a slot: first the packs' rows, the first pack that holds a digest
//! winning, each unseen until a layer names it and dropped if none does,
//! then, in layer order, each object no pack holds, from its object file;
//! it sums the stats off the `size` column; (3) each object is
//! digest-verified exactly once, in parallel, and counted as one object
//! read, packed or not — a large one is read from its object file, and
//! every file row's size must equal its object's length.
//! What stays resident is each layer file's buffer (its recipe's string
//! and digest columns point into it), the buffer of each pack that holds a
//! live object first, the recipe's integer columns, each large object's
//! file bytes, and one slot per object: a few buffers per layer, however
//! many rows it has, and after a `gc` each small object once. Every
//! aggregate the store reports is an order-independent sum, so a reloaded
//! store's stats — including the float `dedup_factor()` — are
//! bit-identical to the single-process run that wrote it, at any thread
//! count. Layers, objects and packs are the only state on disk: nothing
//! derived from them is stored, so there is nothing to go stale.

use crate::recipe::{LayerRecipe, DIR, FILE, HARDLINK, SYMLINK};
use crate::store::{DedupStore, IngestStats, Objects, ParsedLayer, Slot, StoreError, INLINE_MAX};
use dhub_digest::FxHashSet;
use dhub_model::{Digest, FileKind};
use dhub_obs::MetricsRegistry;
use dhub_persist::{
    digest_from_hex, fsync_dir, hex_of, BlobStore, BytesColumn, ColType, Column, GcStats,
    PersistError, Publisher, Schema, Table,
};
use std::collections::hash_map::Entry;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The layer file's format version (v1 was the JSON recipe envelope, v2
/// had no `class`, v3 carried small objects in a `content` column): its
/// schema, not the table codec's version.
const LAYER_FORMAT: u64 = 4;

/// The layer file's columns, in order: the recipe's.
fn layer_schema() -> Schema {
    use ColType::{Bytes, Str, U64};
    Schema::new(&[
        ("path", Str),
        ("kind", U64),
        ("mode", U64),
        ("uid", U64),
        ("gid", U64),
        ("mtime", U64),
        ("size", U64),
        ("sha256", Bytes),
        ("class", U64),
        ("target", Str),
    ])
}

/// The layer file of `recipe` as a table: its columns, moved in.
fn layer_table(recipe: LayerRecipe) -> Table {
    let LayerRecipe {
        layer_digest: _,
        blob_len,
        path,
        kind,
        mode,
        uid,
        gid,
        mtime,
        size,
        sha256,
        class,
        target,
    } = recipe;
    let cols = vec![
        Column::Str(path),
        Column::U64(kind),
        Column::U64(mode),
        Column::U64(uid),
        Column::U64(gid),
        Column::U64(mtime),
        Column::U64(size),
        Column::Bytes(sha256),
        Column::U64(class),
        Column::Str(target),
    ];
    Table::from_columns(layer_schema(), cols)
        .expect("columns built to the layer schema")
        .with_meta("format", LAYER_FORMAT)
        .with_meta("blob_len", blob_len)
}

/// A layer table's columns moved back out as `layer_digest`'s recipe;
/// `None` unless the table has the layer schema and metadata. The rows are
/// not looked at.
fn split_layer_table(layer_digest: Digest, table: Table) -> Option<LayerRecipe> {
    let blob_len = match table.meta() {
        [(format, LAYER_FORMAT), (key, len)] if format == "format" && key == "blob_len" => *len,
        _ => return None,
    };
    if table.schema() != &layer_schema() {
        return None;
    }
    let cols = <[Column; 10]>::try_from(table.into_columns()).ok()?;
    let [
        Column::Str(path),
        Column::U64(kind),
        Column::U64(mode),
        Column::U64(uid),
        Column::U64(gid),
        Column::U64(mtime),
        Column::U64(size),
        Column::Bytes(sha256),
        Column::U64(class),
        Column::Str(target),
    ] = cols
    else {
        return None;
    };
    Some(LayerRecipe {
        layer_digest,
        blob_len,
        path,
        kind,
        mode,
        uid,
        gid,
        mtime,
        size,
        sha256,
        class,
        target,
    })
}

/// Reads a layer file's bytes back; `None` unless they are exactly what a
/// commit writes for some layer: valid CRCs, the layer schema and
/// metadata, and every row's fields consistent with its kind — a file's
/// digest 32 bytes and its class a [`FileKind`] (else 0). Nothing is copied
/// out of `data`: the recipe's columns point into it.
fn decode_layer(layer_digest: Digest, data: Vec<u8>) -> Option<LayerRecipe> {
    let r = split_layer_table(layer_digest, Table::from_bytes(data)?)?;
    let wide = |v: u64| v > u64::from(u32::MAX);
    for (i, (sha256, target)) in r.sha256.iter().zip(r.target.iter()).enumerate() {
        let (size, class) = (r.size[i], r.class[i]);
        let bare = size == 0 && class == 0 && sha256.is_empty();
        let sound = match r.kind[i] {
            FILE => target.is_empty() && class < FileKind::COUNT as u64 && sha256.len() == 32,
            DIR => bare && target.is_empty(),
            SYMLINK | HARDLINK => bare,
            _ => false,
        };
        if !sound || wide(r.mode[i]) || wide(r.uid[i]) || wide(r.gid[i]) {
            return None;
        }
    }
    Some(r)
}

/// The pack's format version: its schema, not the table codec's version.
const PACK_FORMAT: u64 = 1;

/// The pack `gc` merges the segments into, under `packs/`.
const SMALL: &str = "small";

/// The pack's columns, in order.
fn pack_schema() -> Schema {
    Schema::new(&[("sha256", ColType::Bytes), ("content", ColType::Bytes)])
}

/// A pack as read back: its objects' digests, in ascending order, and each
/// one's content on the same row.
struct Pack {
    sha256: BytesColumn,
    content: BytesColumn,
}

impl Pack {
    /// The pack table of `objects`, which come sorted by digest, each once.
    fn table(objects: &[(Digest, &[u8])]) -> Table {
        let bytes = objects.iter().map(|(_, data)| data.len()).sum();
        let mut sha256 = BytesColumn::with_capacity(objects.len(), 32 * objects.len());
        let mut content = BytesColumn::with_capacity(objects.len(), bytes);
        for (d, data) in objects {
            sha256.push(&d.0);
            content.push(data);
        }
        Table::from_columns(pack_schema(), vec![Column::Bytes(sha256), Column::Bytes(content)])
            .expect("columns built to the pack schema")
            .with_meta("format", PACK_FORMAT)
    }

    /// Reads pack bytes back; `None` unless they are what [`Pack::table`]
    /// writes for some objects: valid CRCs, the pack schema and metadata,
    /// 32-byte digests in strictly ascending order, and no content over
    /// [`INLINE_MAX`]. Whether each content matches its digest is left to
    /// the reopen, which verifies the objects it takes from here.
    fn decode(data: Vec<u8>) -> Option<Pack> {
        let table = Table::from_bytes(data)?;
        let tagged = matches!(table.meta(), [(key, PACK_FORMAT)] if key == "format");
        if !tagged || table.schema() != &pack_schema() {
            return None;
        }
        let [Column::Bytes(sha256), Column::Bytes(content)] =
            <[Column; 2]>::try_from(table.into_columns()).ok()?
        else {
            return None;
        };
        let digests = sha256.iter().all(|d| d.len() == 32);
        let ascending = sha256.iter().zip(sha256.iter().skip(1)).all(|(a, b)| a < b);
        let small = content.iter().all(|c| c.len() <= INLINE_MAX);
        (digests && ascending && small).then_some(Pack { sha256, content })
    }
}

/// One file step 1 of [`PersistentDedupStore::replay_with`] reads.
enum Stored {
    Pack(Pack),
    Layer(LayerRecipe),
}

/// Reads the file at `path` through `decode`; [`PersistError::Torn`] when
/// its bytes are not what `decode` takes.
fn read_file<T>(path: &Path, decode: impl FnOnce(Vec<u8>) -> Option<T>) -> Result<T, PersistError> {
    decode(std::fs::read(path)?).ok_or_else(|| PersistError::Torn(path.to_path_buf()))
}

/// Set in the `buf` of a slot [`PersistentDedupStore::replay_with`] took
/// from a pack but has not yet met on a layer's row; the other bits are
/// then the pack's index.
const UNSEEN: usize = 1 << (usize::BITS - 1);

/// Errors from the persistent store: either a logical store error (same
/// domain as the in-memory store) or a durability-tier failure.
#[derive(Debug)]
pub enum PersistentError {
    Store(StoreError),
    Persist(PersistError),
}

impl std::fmt::Display for PersistentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistentError::Store(e) => write!(f, "{e}"),
            PersistentError::Persist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PersistentError {}

impl From<StoreError> for PersistentError {
    fn from(e: StoreError) -> Self {
        PersistentError::Store(e)
    }
}

impl From<PersistError> for PersistentError {
    fn from(e: PersistError) -> Self {
        PersistentError::Persist(e)
    }
}

/// A [`DedupStore`] whose objects and recipes live on disk.
pub struct PersistentDedupStore {
    mem: DedupStore,
    objects: BlobStore,
    layers_dir: PathBuf,
    /// `packs/`: the commits' segments and `gc`'s `small`.
    packs_dir: PathBuf,
    publisher: Publisher,
}

impl PersistentDedupStore {
    /// Opens (creating if needed) a store rooted at `root` and replays any
    /// recipes already on disk into memory. All durable writes go through
    /// `publisher` (which may carry fault injection and metrics).
    pub fn open(root: impl AsRef<Path>, publisher: Publisher) -> Result<Self, PersistentError> {
        Self::open_obs(root, publisher, None)
    }

    /// [`PersistentDedupStore::open`] with the in-memory store's
    /// `dhub_store_*` metrics (and the blob store's `dhub_persist_*`
    /// metrics) bound to `reg`.
    pub fn open_obs(
        root: impl AsRef<Path>,
        publisher: Publisher,
        reg: Option<&MetricsRegistry>,
    ) -> Result<Self, PersistentError> {
        Self::open_with(root.as_ref(), publisher, reg, dhub_par::default_threads())
    }

    /// [`PersistentDedupStore::open_obs`] replaying on `threads` workers
    /// (every core outside tests).
    fn open_with(
        root: &Path,
        publisher: Publisher,
        reg: Option<&MetricsRegistry>,
        threads: usize,
    ) -> Result<Self, PersistentError> {
        let (layers_dir, packs_dir) = (root.join("layers"), root.join("packs"));
        for dir in [&layers_dir, &packs_dir] {
            if !dir.is_dir() {
                std::fs::create_dir_all(dir).map_err(PersistError::from)?;
                // A fresh entry in the store root.
                fsync_dir(root).map_err(PersistError::from)?;
            }
        }
        let mut objects = BlobStore::open(root.join("objects"), publisher.clone())?;
        let mem = match reg {
            Some(reg) => {
                objects = objects.with_metrics(reg);
                DedupStore::with_metrics(reg)
            }
            None => DedupStore::new(),
        };
        let store = PersistentDedupStore { mem, objects, layers_dir, packs_dir, publisher };
        store.replay_with(threads)?;
        Ok(store)
    }

    /// The in-memory store (stats, reconstruction, recipes — everything
    /// that does not touch disk).
    pub fn mem(&self) -> &DedupStore {
        &self.mem
    }

    /// The underlying object store.
    pub fn objects(&self) -> &BlobStore {
        &self.objects
    }

    /// `layers/ab/<hex>`: where a layer's file is published.
    fn layer_path(&self, layer_digest: &Digest) -> PathBuf {
        let hex = hex_of(layer_digest);
        self.layers_dir.join(&hex[..2]).join(hex)
    }

    /// Every layer file under `layers/`, sorted by path — the replay order
    /// — with the layer digest its name gives. Temp debris is not a layer.
    /// A `*.json` recipe envelope, what stores written before layer files
    /// hold, fails the open as [`PersistError::Torn`] (the first in path
    /// order): this build does not read that format, and skipping it would
    /// let `gc` collect the objects only it references.
    fn layer_files(&self) -> Result<Vec<(PathBuf, Digest)>, PersistError> {
        let (mut files, mut envelopes) = (Vec::new(), Vec::new());
        for shard in std::fs::read_dir(&self.layers_dir)? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for f in std::fs::read_dir(shard.path())? {
                let path = f?.path();
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
                if let Some(digest) = digest_from_hex(name) {
                    files.push((path, digest));
                } else if path.extension().is_some_and(|e| e == "json") {
                    envelopes.push(path);
                }
            }
        }
        if let Some(path) = envelopes.into_iter().min() {
            return Err(PersistError::Torn(path));
        }
        files.sort();
        Ok(files)
    }

    /// The segments under `packs/`, sorted by name: every file named by a
    /// layer digest. Temp debris is not a segment.
    fn segments(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut segments = Vec::new();
        for f in std::fs::read_dir(&self.packs_dir)? {
            let path = f?.path();
            if path.file_name().and_then(|n| n.to_str()).and_then(digest_from_hex).is_some() {
                segments.push(path);
            }
        }
        segments.sort();
        Ok(segments)
    }

    /// Replays every layer on disk into memory: reopen, in the three steps
    /// of the module docs. Steps 1 and 3 run on `threads` workers but hand
    /// their results back in input order, and each step is checked front to
    /// back before the next starts, so the damaged file an error names
    /// never depends on thread timing: the first torn file in read order —
    /// the packs, then the layer files by path — else the first bad object
    /// in first-seen order, packed or not.
    fn replay_with(&self, threads: usize) -> Result<(), PersistentError> {
        // (1) Read every pack and layer file, check its CRCs and walk its
        // rows: the packs first, `small`, the largest file, claimed first.
        let mut packs = self.segments().map_err(PersistError::from)?;
        let small = self.packs_dir.join(SMALL);
        if small.exists() {
            packs.insert(0, small);
        }
        let files = self.layer_files()?;
        let read = dhub_par::par_map_range(threads, 0..packs.len() + files.len(), |i| match packs.get(i) {
            Some(path) => read_file(path, Pack::decode).map(Stored::Pack),
            None => {
                let (path, digest) = &files[i - packs.len()];
                read_file(path, |data| decode_layer(*digest, data)).map(Stored::Layer)
            }
        });
        let (mut packs, mut layers) = (Vec::new(), Vec::new());
        for stored in read {
            match stored? {
                Stored::Pack(pack) => packs.push(pack),
                Stored::Layer(recipe) => layers.push(recipe),
            }
        }

        // (2) A slot per distinct object. The packs' rows are laid out
        // first, the first pack that holds a digest winning, each `UNSEEN`
        // until a layer names it; one no layer names is dropped. An object
        // no pack holds gets its object file, whose buffer step 3 reads into
        // place. A repeat must name the size the first row did, and a first
        // sighting the size of its pack row.
        let mut objects = Objects::default();
        let Objects { slots, bufs } = &mut objects;
        slots.reserve(packs.iter().map(|pack| pack.sha256.len()).sum());
        for (p, pack) in packs.iter().enumerate() {
            for (row, d) in pack.sha256.iter().enumerate() {
                let d = Digest(d.try_into().expect("a pack's digests are 32 bytes"));
                slots.entry(d).or_insert_with(|| Slot { buf: UNSEEN | p, at: pack.content.shared(row).1 });
            }
        }
        let mut unseen = slots.len();
        // Each pack's buffer's index in `bufs`, once a layer names one of
        // its rows.
        let mut pack_bufs = vec![None; packs.len()];
        let unread = Arc::new(Vec::new());
        // With each: where its bytes lie, and for an object file, the layer
        // that first names it.
        let mut first_seen: Vec<(Digest, Slot, Option<usize>)> = Vec::new();
        let (mut physical, mut logical) = (0, 0);
        for (at, recipe) in layers.iter().enumerate() {
            for (i, &size) in recipe.size.iter().enumerate() {
                if recipe.kind[i] != FILE {
                    continue;
                }
                logical += size;
                match slots.entry(recipe.digest(i)) {
                    Entry::Occupied(mut slot) => {
                        if slot.get().at.len() as u64 != size {
                            return Err(PersistError::Torn(files[at].0.clone()).into());
                        }
                        if slot.get().buf & UNSEEN != 0 {
                            let p = slot.get().buf & !UNSEEN;
                            slot.get_mut().buf = *pack_bufs[p].get_or_insert_with(|| {
                                bufs.push(Arc::clone(packs[p].content.shared(0).0));
                                bufs.len() - 1
                            });
                            unseen -= 1;
                            physical += size;
                            first_seen.push((*slot.key(), slot.get().clone(), None));
                        }
                    }
                    Entry::Vacant(vacant) => {
                        physical += size;
                        bufs.push(Arc::clone(&unread));
                        let slot = Slot { buf: bufs.len() - 1, at: 0..size as usize };
                        first_seen.push((*vacant.key(), slot.clone(), Some(at)));
                        vacant.insert(slot);
                    }
                }
            }
        }
        if unseen > 0 {
            slots.retain(|_, slot| slot.buf & UNSEEN == 0);
        }

        // (3) Each object digest-verified once, so torn or flipped bytes
        // surface as Corrupt, never as data; an object file's bytes become
        // its buffer.
        let verified = dhub_par::par_map(threads, &first_seen, |(d, slot, file_of)| {
            let Some(layer) = file_of else {
                self.objects.verify(d, &objects.bufs[slot.buf][slot.at.clone()])?;
                return Ok(None);
            };
            match self.objects.get(d)? {
                Some(data) if data.len() == slot.at.len() => Ok(Some((slot.buf, Arc::new(data)))),
                Some(_) => Err(PersistError::Torn(files[*layer].0.clone()).into()),
                None => Err(PersistentError::from(StoreError::MissingObject(*d))),
            }
        });
        for read in verified {
            if let Some((buf, data)) = read? {
                objects.bufs[buf] = data;
            }
        }
        self.mem.restore(layers.into_iter(), objects, physical, logical);
        Ok(())
    }

    /// Commits a parsed layer, durably. Publishes new large objects and
    /// the layer's segment first, then the layer file, then updates memory
    /// — see the module docs for why this ordering makes crashes safe. The
    /// layer file is the recipe's columns, each block copied once into the
    /// file's bytes; the columns then move on into memory as the recipe.
    pub fn commit_parsed(&self, layer: ParsedLayer<'_>) -> Result<IngestStats, PersistentError> {
        let ParsedLayer { recipe, files } = layer;
        let layer_digest = recipe.layer_digest;
        if self.mem.contains_layer(&layer_digest) {
            return Err(StoreError::AlreadyIngested.into());
        }
        let (mut small, large): (Vec<(Digest, &[u8])>, Vec<_>) =
            files.iter().copied().partition(|(_, data)| data.len() <= INLINE_MAX);
        // One batched publish for the layer's new large objects: a single
        // fanout dir fsync per touched shard instead of one per object.
        let new_objects: Vec<(Digest, &[u8])> =
            large.into_iter().filter(|(digest, _)| !self.mem.has_object(digest)).collect();
        self.objects.put_batch(&new_objects)?;
        small.sort_unstable_by_key(|(digest, _)| *digest);
        small.dedup_by_key(|(digest, _)| *digest);
        if !small.is_empty() {
            let segment = self.packs_dir.join(hex_of(&layer_digest));
            self.publisher.publish(&segment, &Pack::table(&small).to_bytes())?;
        }
        let path = self.layer_path(&layer_digest);
        let shard = path.parent().expect("layer path has a shard dir");
        if !shard.exists() {
            std::fs::create_dir_all(shard).map_err(PersistError::from)?;
            // The fanout directory itself is a fresh entry in `layers/`.
            fsync_dir(&self.layers_dir).map_err(PersistError::from)?;
        }
        let table = layer_table(recipe);
        self.publisher.publish(&path, &table.to_bytes())?;
        let recipe = split_layer_table(layer_digest, table).expect("the table just built");
        Ok(self.mem.commit_parsed(ParsedLayer { recipe, files })?)
    }

    /// No-op: layers + objects are the only durable state. Kept for the
    /// frozen `bench/` driver, which still calls it (ROADMAP item 1).
    pub fn checkpoint(&self) -> Result<(), PersistentError> {
        Ok(())
    }

    /// Garbage-collects object files no recipe references (crash orphans),
    /// sweeps in-flight temp debris under `objects/`, `layers/` and
    /// `packs/`, then merges the segments: stores each small object once
    /// (see the module docs). Must not overlap a layer commit: a commit's
    /// objects land before the layer file that makes them live, so a sweep
    /// in between would collect them. (Against a bare object publish the
    /// sweep is safe — both hold that fanout shard's lock.)
    pub fn gc(&self) -> Result<GcStats, PersistentError> {
        // Only the objects over INLINE_MAX have files under `objects/`.
        let mut live: FxHashSet<Digest> = FxHashSet::default();
        for d in self.mem.layer_digests() {
            if let Some(r) = self.mem.recipe(&d) {
                let large = (0..r.len()).filter(|&i| r.kind[i] == FILE && r.size[i] > INLINE_MAX as u64);
                live.extend(large.map(|i| r.digest(i)));
            }
        }
        let mut stats = self.objects.gc(&live)?;
        stats.tmp_files += self.sweep_debris().map_err(PersistError::from)?;
        self.merge_segments()?;
        Ok(stats)
    }

    /// Publishes `packs/small`, every small object the store holds, over
    /// any earlier one, then unlinks every segment and fsyncs `packs/`
    /// once. Nothing when there is no segment to merge.
    fn merge_segments(&self) -> Result<(), PersistError> {
        let segments = self.segments()?;
        if segments.is_empty() {
            return Ok(());
        }
        // Built on a thread of its own, which takes over an allocator arena
        // the ingest's finished workers left free: the pack's ~4 MB of
        // transient buffers then reuse memory already resident rather than
        // grow the caller's heap. On the bench files corpus this takes
        // `dhub store`'s peak RSS from 45.2 to 42.5 MB (glibc, two cores).
        let pack = std::thread::scope(|s| {
            let build = s.spawn(|| self.mem.with_small_objects(|small| Pack::table(small).to_bytes()));
            build.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        self.publisher.publish(&self.packs_dir.join(SMALL), &pack)?;
        for segment in &segments {
            std::fs::remove_file(segment)?;
        }
        Ok(fsync_dir(&self.packs_dir)?)
    }

    /// Deletes the `*.tmp` debris of layer files and packs whose publish
    /// crashed.
    fn sweep_debris(&self) -> std::io::Result<u64> {
        let mut dirs = vec![self.packs_dir.clone()];
        for shard in std::fs::read_dir(&self.layers_dir)? {
            dirs.push(shard?.path());
        }
        let mut swept = 0;
        for dir in dirs.iter().filter(|dir| dir.is_dir()) {
            for f in std::fs::read_dir(dir)? {
                let path = f?.path();
                if path.extension().is_some_and(|e| e == "tmp") {
                    std::fs::remove_file(&path)?;
                    swept += 1;
                }
            }
        }
        Ok(swept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_compress::{gzip_compress, CompressOptions};
    use crate::recipe::RowKind;
    use dhub_tar::TarEntry;
    use std::sync::Arc;

    fn layer(entries: &[TarEntry]) -> (Digest, Vec<u8>) {
        let tar = dhub_tar::write_archive(entries);
        let blob = gzip_compress(&tar, &CompressOptions::fast());
        (Digest::of(&blob), blob)
    }

    fn file(path: &str, data: &[u8]) -> TarEntry {
        TarEntry::file(path, data.to_vec())
    }

    fn read_layer(path: &Path, digest: Digest) -> Result<LayerRecipe, PersistError> {
        read_file(path, |data| decode_layer(digest, data))
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dhub-pstore-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Ingests one layer the way `dhub store --store-dir` does: through
    /// the fused analyze + ingest pass.
    fn ingest(
        store: &PersistentDedupStore,
        digest: Digest,
        blob: &[u8],
    ) -> Result<IngestStats, PersistentError> {
        dhub_par::with_scratch(|scratch| {
            crate::analyze_and_ingest(store, digest, blob, scratch).expect("layer decodes").1
        })
    }

    /// `len` bytes that differ per `seed`: over [`INLINE_MAX`] they get an
    /// object file of their own.
    fn large(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect()
    }

    fn sample_layers() -> Vec<(Digest, Vec<u8>)> {
        let shared = b"the shared library bytes".as_slice();
        let big = large(INLINE_MAX + 1, 1);
        vec![
            layer(&[
                TarEntry::dir("usr/"),
                file("usr/lib/libx.so", shared),
                file("usr/lib/big.so", &big),
                file("etc/one", b"one"),
                TarEntry::symlink("usr/l", "lib"),
            ]),
            layer(&[
                file("opt/lib/libx.so", shared),
                file("opt/lib/big.so", &big),
                file("etc/two", b"two"),
                file("etc/edge", &large(INLINE_MAX, 2)),
            ]),
            layer(&[file("var/empty", b""), TarEntry::hardlink("var/h", "var/empty")]),
        ]
    }

    #[test]
    fn reopened_store_matches_fresh_run_bit_for_bit() {
        let root = tmp_root("reopen");
        let reference = DedupStore::new();
        {
            let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
            for (d, b) in &sample_layers() {
                let sp = ingest(&store, *d, b).unwrap();
                let sm = reference.ingest_layer(*d, b).unwrap();
                assert_eq!(sp, sm, "persistent ingest must report identical stats");
            }
        }
        // Dirs written before the refcount manifest was dropped still carry
        // one; it is never opened, whatever it holds.
        std::fs::write(root.join("manifest.json"), b"{not json").unwrap();
        let reopened = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        assert_eq!(reopened.mem().stats(), reference.stats());
        assert_eq!(
            reopened.mem().stats().dedup_factor().to_bits(),
            reference.stats().dedup_factor().to_bits(),
            "dedup factor must be bit-identical after reload"
        );
        for (d, _) in &sample_layers() {
            assert_eq!(
                reopened.mem().reconstruct_tar(d).unwrap(),
                reference.reconstruct_tar(d).unwrap(),
                "reloaded recipes must reconstruct byte-identically"
            );
        }
        // Each layer file decodes to the recipe the live ingest recorded.
        for (d, _) in &sample_layers() {
            let stored =
                read_layer(&reopened.layer_path(d), *d).unwrap();
            assert_eq!(Some(&stored), reference.recipe(d).as_deref());
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn resume_skips_already_ingested_layers() {
        let root = tmp_root("resume");
        let layers = sample_layers();
        {
            let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
            ingest(&store, layers[0].0, &layers[0].1).unwrap();
        }
        let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        assert!(store.mem().contains_layer(&layers[0].0));
        assert!(matches!(
            ingest(&store, layers[0].0, &layers[0].1),
            Err(PersistentError::Store(StoreError::AlreadyIngested))
        ));
        for (d, b) in &layers[1..] {
            ingest(&store, *d, b).unwrap();
        }
        assert_eq!(store.mem().stats().layers, 3);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn orphan_objects_from_partial_commit_are_gced() {
        let root = tmp_root("orphan");
        let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        let (d, b) = sample_layers()[0].clone();
        ingest(&store, d, &b).unwrap();
        // Simulate a crash between object publish and layer publish:
        // objects on disk, no layer referencing them.
        let orphan = store.objects().put(b"orphaned by a crash").unwrap();
        let live_before = store.mem().stats().unique_objects;
        let swept = store.gc().unwrap();
        assert_eq!(swept.objects, 1, "exactly the orphan is collected");
        assert!(!store.objects().contains(&orphan));
        // Reopen: referenced objects all still present.
        drop(store);
        let reopened = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        assert_eq!(reopened.mem().stats().unique_objects, live_before);
        assert_eq!(reopened.mem().reconstruct_tar(&d).unwrap().len() % 512, 0);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn gc_sweeps_the_debris_of_crashed_layer_publishes() {
        let root = tmp_root("layer-debris");
        let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        let layers = sample_layers();
        ingest(&store, layers[0].0, &layers[0].1).unwrap();
        // A publish killed mid-write leaves its temp file beside the layer
        // files: one in a shard that holds a layer, one in a shard of its own.
        let next = store.layer_path(&layers[1].0);
        let beside = store.layer_path(&layers[0].0).with_file_name("f".repeat(64));
        let beside = dhub_persist::tmp_path(&beside);
        std::fs::create_dir_all(next.parent().unwrap()).unwrap();
        let debris = [dhub_persist::tmp_path(&next), beside];
        for path in &debris {
            std::fs::write(path, b"torn layer fi").unwrap();
        }
        let swept = store.gc().unwrap();
        assert_eq!((swept.objects, swept.tmp_files), (0, 2));
        assert!(debris.iter().all(|p| !p.exists()));
        assert!(store.layer_path(&layers[0].0).exists(), "a published layer file is never swept");
        drop(store);
        let reopened = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        assert_eq!(reopened.mem().stats().layers, 1);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn faulted_writes_retry_to_a_consistent_store() {
        use dhub_faults::{FaultConfig, FaultInjector, RetryPolicy};
        let root = tmp_root("faulted");
        let injector = Arc::new(FaultInjector::new(FaultConfig::uniform(41, 0.25)));
        let publisher = Publisher::new().with_faults(Some(dhub_persist::WriteFaults {
            injector: injector.clone(),
            policy: RetryPolicy::fast(32),
        }));
        let reference = DedupStore::new();
        {
            // Twelve layers: enough publishes (one per layer and per large
            // object) for the crash rate to fire.
            let store = PersistentDedupStore::open(&root, publisher).unwrap();
            for (d, b) in &many_layers() {
                ingest(&store, *d, b).unwrap();
                reference.ingest_layer(*d, b).unwrap();
            }
        }
        assert!(injector.stats().total() > 0, "25 % crash rate must fire");
        let reopened = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        assert_eq!(reopened.mem().stats(), reference.stats());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn torn_recipe_fails_replay_loudly() {
        let root = tmp_root("torn");
        let (d, b) = sample_layers()[0].clone();
        {
            let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
            ingest(&store, d, &b).unwrap();
        }
        // Flip a byte inside the layer file behind the store's back.
        let hex = hex_of(&d);
        let path = root.join("layers").join(&hex[..2]).join(hex);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = PersistentDedupStore::open(&root, Publisher::new())
            .err()
            .expect("replay of a tampered layer file must fail");
        match err {
            PersistentError::Persist(PersistError::Torn(p)) => assert_eq!(p, path),
            other => panic!("expected torn layer error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(root);
    }

    /// Twelve layers whose objects are shared by all, by pairs, by none,
    /// and twice within one layer — 19 unique objects over 48 file entries.
    /// The one every layer shares and every other pair's are large; the
    /// rest are small.
    fn many_layers() -> Vec<(Digest, Vec<u8>)> {
        (0..12u32)
            .map(|i| {
                let own = format!("only in layer {i}");
                let pair = i / 2;
                let mut pair_content = format!("shared by pair {pair}").into_bytes();
                if pair % 2 == 0 {
                    pair_content.extend(large(INLINE_MAX, pair as u8));
                }
                layer(&[
                    TarEntry::dir("shared/"),
                    file("shared/lib", &large(2 * INLINE_MAX, 0xa5)),
                    file(&format!("pair/{pair}"), &pair_content),
                    file(&format!("own/{i}"), own.as_bytes()),
                    file("own/again", own.as_bytes()),
                ])
            })
            .collect()
    }

    /// A populated store dir plus the in-memory store the same layers give.
    fn populated(tag: &str) -> (PathBuf, DedupStore) {
        let root = tmp_root(tag);
        let reference = DedupStore::new();
        let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        for (d, b) in &many_layers() {
            ingest(&store, *d, b).unwrap();
            reference.ingest_layer(*d, b).unwrap();
        }
        (root, reference)
    }

    fn flip_byte(path: &Path, at: usize) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[at] ^= 0x01;
        std::fs::write(path, &bytes).unwrap();
    }

    /// Rewrites `path`'s layer file with its columns passed through `edit`
    /// and every CRC recomputed, so only the checks past the CRCs can tell.
    fn rewrite_layer(path: &Path, edit: impl FnOnce(&mut [Column])) {
        let table = Table::from_bytes(std::fs::read(path).unwrap()).unwrap();
        let meta = table.meta().to_vec();
        let mut cols = table.into_columns();
        edit(&mut cols);
        let mut tampered = Table::from_columns(layer_schema(), cols).unwrap();
        for (key, value) in &meta {
            tampered = tampered.with_meta(key, *value);
        }
        std::fs::write(path, tampered.to_bytes()).unwrap();
    }

    /// Rewrites the pack at `path` with one byte of its copy of `victim`
    /// flipped: the pack reads back sound, and only the object's digest can
    /// catch the flip. False, and the pack left alone, when it holds no
    /// copy of `victim` with a byte to flip.
    fn flip_packed(path: &Path, victim: &Digest) -> bool {
        let pack = Pack::decode(std::fs::read(path).unwrap()).unwrap();
        let mut rows: Vec<(Digest, Vec<u8>)> = (pack.sha256.iter().zip(pack.content.iter()))
            .map(|(d, c)| (Digest(d.try_into().unwrap()), c.to_vec()))
            .collect();
        let Some((_, content)) = rows.iter_mut().find(|(d, c)| d == victim && !c.is_empty()) else {
            return false;
        };
        content[0] ^= 0x01;
        let rows: Vec<(Digest, &[u8])> = rows.iter().map(|(d, c)| (*d, c.as_slice())).collect();
        std::fs::write(path, Pack::table(&rows).to_bytes()).unwrap();
        true
    }

    /// Stats come from the `size` column, so a file row must name its
    /// object's length: a repeat that disagrees with the first row, rows
    /// that agree on a length the object file does not have, or a small
    /// file's row that disagrees with its pack row, are torn.
    #[test]
    fn a_file_rows_size_must_be_its_objects_length() {
        let root = tmp_root("size");
        let big = large(INLINE_MAX + 10, 3);
        let (d, b) = layer(&[file("big", &big), file("again", &big), file("small", b"small")]);
        let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        ingest(&store, d, &b).unwrap();
        let path = store.layer_path(&d);
        drop(store);
        let sound = std::fs::read(&path).unwrap();
        for rows in [&[1][..], &[0, 1], &[2]] {
            rewrite_layer(&path, |cols| {
                let Column::U64(size) = &mut cols[6] else { unreachable!("the layer schema") };
                rows.iter().for_each(|&row| size[row] += 1);
            });
            match PersistentDedupStore::open(&root, Publisher::new()).err() {
                Some(PersistentError::Persist(PersistError::Torn(p))) => assert_eq!(p, path),
                other => panic!("rows {rows:?}: expected a torn layer file, got {other:?}"),
            }
            std::fs::write(&path, &sound).unwrap();
        }
        assert!(PersistentDedupStore::open(&root, Publisher::new()).is_ok());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn reopen_is_bit_identical_at_any_thread_count() {
        let (root, reference) = populated("threads");
        for threads in [1, 2, 8] {
            let reopened =
                PersistentDedupStore::open_with(&root, Publisher::new(), None, threads).unwrap();
            assert_eq!(reopened.mem().stats(), reference.stats(), "threads={threads}");
            assert_eq!(
                reopened.mem().stats().dedup_factor().to_bits(),
                reference.stats().dedup_factor().to_bits(),
                "threads={threads}"
            );
            for (d, _) in &many_layers() {
                assert_eq!(
                    reopened.mem().reconstruct_tar(d).unwrap(),
                    reference.reconstruct_tar(d).unwrap(),
                    "threads={threads}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn reopen_reads_and_verifies_each_object_exactly_once() {
        let (root, reference) = populated("readonce");
        let reg = MetricsRegistry::new();
        let reopened = PersistentDedupStore::open_obs(&root, Publisher::new(), Some(&reg)).unwrap();
        let stats = reopened.mem().stats();
        assert_eq!(stats, reference.stats());
        assert!(stats.logical_bytes > stats.physical_bytes, "the sample must share objects");
        assert_eq!(reg.counter_value("dhub_persist_reads_total"), stats.unique_objects as u64);
        assert_eq!(reg.counter_value("dhub_persist_read_bytes_total"), stats.physical_bytes);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn the_damaged_file_open_names_does_not_depend_on_thread_timing() {
        let (root, _) = populated("blame");
        let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        let (layer_files, segments) = (store.layer_files().unwrap(), store.segments().unwrap());
        let (mut first_seen, mut large): (Vec<Digest>, Vec<Digest>) = (Vec::new(), Vec::new());
        for (path, digest) in &layer_files {
            let stored = read_layer(path, *digest).unwrap();
            for row in stored.rows() {
                let RowKind::File(d, _) = row.kind else { continue };
                if !first_seen.contains(&d) {
                    first_seen.push(d);
                    if row.size > INLINE_MAX as u64 {
                        large.push(d);
                    }
                }
            }
        }
        drop(store);
        let is_large = |d: &Digest| large.contains(d);
        let object_path = |d: &Digest| {
            let hex = hex_of(d);
            root.join("objects").join(&hex[..2]).join(hex)
        };
        // Two torn layer files, a flipped object file and a flipped packed
        // object at once: the first torn layer file in path order is named,
        // whatever the objects look like.
        let torn = [&layer_files[3].0, &layer_files[9].0];
        let sound: Vec<Vec<u8>> = torn.iter().map(|p| std::fs::read(p).unwrap()).collect();
        let packed_victim = *first_seen.iter().filter(|d| !is_large(d)).nth(2).unwrap();
        let large_victim = *first_seen.iter().filter(|d| is_large(d)).last().unwrap();
        let packed_at = first_seen.iter().position(|d| *d == packed_victim).unwrap();
        let large_at = first_seen.iter().position(|d| *d == large_victim).unwrap();
        assert!(packed_at < large_at);
        for path in torn {
            flip_byte(path, 200);
        }
        flip_byte(&object_path(&large_victim), 0);
        // The reopen takes an object from the first segment that holds it.
        let carrier = segments
            .into_iter()
            .find(|path| flip_packed(path, &packed_victim))
            .expect("a segment holds the packed victim");
        let blame = |want: &dyn Fn(PersistentError) -> bool, what: &str| {
            for threads in [1, 2, 8] {
                let err =
                    PersistentDedupStore::open_with(&root, Publisher::new(), None, threads).err();
                assert!(err.is_some_and(want), "threads={threads}: expected {what}");
            }
        };
        let corrupt = |want: Digest| {
            move |e| matches!(e, PersistentError::Persist(PersistError::Corrupt(d)) if d == want)
        };
        blame(
            &|e| matches!(e, PersistentError::Persist(PersistError::Torn(p)) if &p == torn[0]),
            "the first torn file",
        );
        // Every layer file sound again: the first bad object in first-seen
        // order is named, here the packed one…
        for (path, bytes) in torn.iter().zip(&sound) {
            std::fs::write(path, bytes).unwrap();
        }
        blame(&corrupt(packed_victim), "the packed object");
        // …and once it is sound, the object file.
        assert!(flip_packed(&carrier, &packed_victim));
        blame(&corrupt(large_victim), "the object file");
        // And an object gone altogether, earlier still, is what is named.
        assert!(is_large(&first_seen[0]));
        std::fs::remove_file(object_path(&first_seen[0])).unwrap();
        blame(
            &|e| matches!(e, PersistentError::Store(StoreError::MissingObject(d)) if d == first_seen[0]),
            "the missing object",
        );
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn every_bit_flip_in_a_layer_file_is_torn() {
        let root = tmp_root("flip");
        let (d, b) = sample_layers()[1].clone();
        let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        ingest(&store, d, &b).unwrap();
        let (path, segment) = (store.layer_path(&d), root.join("packs").join(hex_of(&d)));
        drop(store);
        let sound = std::fs::read(&path).unwrap();
        let stored = decode_layer(d, sound.clone()).expect("the writer's bytes decode");
        assert_eq!(stored.blob_len, b.len() as u64);
        let packed = Pack::decode(std::fs::read(&segment).unwrap()).expect("the writer's segment decodes");
        assert_eq!(packed.sha256.len(), 3, "every file up to INLINE_MAX, and only those");
        // The compressed length sits in the metadata, under the CRC like
        // every other byte.
        let blob_len = (b.len() as u64).to_le_bytes();
        let blob_len_at = sound.windows(8).position(|w| w == blob_len).unwrap();
        let flip = |bit: usize| {
            let mut bytes = sound.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            bytes
        };
        for bit in 0..sound.len() * 8 {
            assert!(decode_layer(d, flip(bit)).is_none(), "flip of bit {bit}");
        }
        // End to end through `open`: the head, the compressed length, a
        // path, the trailer.
        let path_at = sound.windows(7).position(|w| w == b"etc/two").unwrap();
        for at in [3, blob_len_at, path_at, sound.len() - 1] {
            std::fs::write(&path, flip(8 * at)).unwrap();
            match PersistentDedupStore::open(&root, Publisher::new()).err() {
                Some(PersistentError::Persist(PersistError::Torn(p))) => {
                    assert_eq!(p, path, "byte {at}")
                }
                other => panic!("byte {at}: expected a torn layer file, got {other:?}"),
            }
        }
        std::fs::write(&path, &sound).unwrap();
        assert!(PersistentDedupStore::open(&root, Publisher::new()).is_ok());
        let _ = std::fs::remove_dir_all(root);
    }

    /// A commit writes its layer's small objects to a segment, and `gc`
    /// merges the segments into the pack: a damaged segment or pack is
    /// torn, a missing pack leaves a small object missing, and a segment
    /// left behind (a merge cut short) reopens, its rows losing to the
    /// pack's, until the next `gc` unlinks it.
    #[test]
    fn a_compacted_store_reads_its_small_objects_from_the_pack() {
        let (root, reference) = populated("pack");
        let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        let segments = store.segments().unwrap();
        assert_eq!(segments.len(), 12, "every sample layer has small objects");
        let (first, uncompacted) = (segments[0].clone(), std::fs::read(&segments[0]).unwrap());
        flip_byte(&first, uncompacted.len() / 2);
        match PersistentDedupStore::open(&root, Publisher::new()).err() {
            Some(PersistentError::Persist(PersistError::Torn(p))) => assert_eq!(p, first),
            other => panic!("expected a torn segment, got {other:?}"),
        }
        std::fs::write(&first, &uncompacted).unwrap();
        store.gc().unwrap();
        assert!(store.segments().unwrap().is_empty(), "gc unlinks every segment");
        drop(store);
        let pack_path = root.join("packs").join("small");
        let pack = std::fs::read(&pack_path).unwrap();

        let reg = MetricsRegistry::new();
        let reopened = PersistentDedupStore::open_obs(&root, Publisher::new(), Some(&reg)).unwrap();
        let stats = reopened.mem().stats();
        assert_eq!(stats, reference.stats());
        assert_eq!(reg.counter_value("dhub_persist_reads_total"), stats.unique_objects as u64);
        assert_eq!(reg.counter_value("dhub_persist_read_bytes_total"), stats.physical_bytes);
        drop(reopened);

        flip_byte(&pack_path, pack.len() / 2);
        match PersistentDedupStore::open(&root, Publisher::new()).err() {
            Some(PersistentError::Persist(PersistError::Torn(p))) => assert_eq!(p, pack_path),
            other => panic!("expected a torn pack, got {other:?}"),
        }
        std::fs::remove_file(&pack_path).unwrap();
        match PersistentDedupStore::open(&root, Publisher::new()).err() {
            Some(PersistentError::Store(StoreError::MissingObject(d))) => assert!(reference.has_object(&d)),
            other => panic!("expected a missing object, got {other:?}"),
        }

        std::fs::write(&pack_path, &pack).unwrap();
        std::fs::write(&first, &uncompacted).unwrap();
        let reopened = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        assert_eq!(reopened.mem().stats(), reference.stats());
        reopened.gc().unwrap();
        assert!(!first.exists());
        assert_eq!(std::fs::read(&pack_path).unwrap(), pack, "the merge converges");
        for (d, _) in &many_layers() {
            assert_eq!(reopened.mem().reconstruct_tar(d).unwrap(), reference.reconstruct_tar(d).unwrap());
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn persistent_fused_matches_memory_fused() {
        let root = tmp_root("fused");
        let layers: Vec<(Digest, Arc<Vec<u8>>)> =
            sample_layers().into_iter().map(|(d, b)| (d, Arc::new(b))).collect();
        let mem_store = DedupStore::new();
        let mem_obs = MetricsRegistry::new();
        let mem_res = crate::analyze_and_ingest_all(&layers, 2, &mem_store, &mem_obs);

        let pstore = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        let pobs = MetricsRegistry::new();
        let pres = crate::analyze_and_ingest_all(&layers, 2, &pstore, &pobs);

        assert_eq!(pres.analysis.layers, mem_res.analysis.layers);
        assert_eq!(pres.ingests.len(), mem_res.ingests.len());
        assert_eq!(pstore.mem().stats(), mem_store.stats());
        assert_eq!(
            pobs.counter_value("dhub_analyze_files_total"),
            mem_obs.counter_value("dhub_analyze_files_total")
        );

        drop(pstore);
        let reopened = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        assert_eq!(reopened.mem().stats(), mem_store.stats());
        let _ = std::fs::remove_dir_all(root);
    }
}
