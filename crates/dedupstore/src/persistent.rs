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
//! packs/small             every live object of at most 4 KiB, once, in
//!                         digest order (written by `gc`)
//! ```
//!
//! A **layer file** is one `dhub-persist` table (`DHTB` v3): a row per tar
//! entry in archive order — path, kind, mode, uid, gid, mtime, size,
//! sha256, class (a file's [`FileKind::ALL`] index, else 0) and link
//! target, the per-file schema of a layer — plus a bytes column that, as a
//! commit writes it, holds the content of every regular file of at most
//! [`INLINE_MAX`] bytes on that content's first row in the layer (empty
//! elsewhere), and once `gc` has packed those contents is empty on every
//! row. Its metadata
//! carries the layer format (3, the schema; the table codec under it is
//! versioned on its own) and the layer's compressed length, and its
//! trailing CRC covers every byte of the file.
//! The codec stores each integer column as varint deltas, so the columns
//! that barely vary — kind, mode, uid, gid — cost about a byte a row, and
//! each string and bytes column as varint lengths then its values, which
//! a loaded column points into. A layer file of an older format is `Torn`.
//! Inline content is duplicated across layers rather than owned by one, so
//! a layer file's bytes depend on its layer alone, never on which layer
//! was committed first: store dirs are byte-identical at any worker count.
//! A durable study thus writes one file per layer and one per large
//! object, not one per object.
//!
//! The **pack** is one table too: a `sha256` and a `content` row per live
//! object of at most [`INLINE_MAX`] bytes, sorted by digest, each object
//! once. It is a function of the live set alone, so a compacted dir is as
//! byte-identical at any worker count as the layer files are.
//!
//! **Write ordering** makes every crash recoverable without a journal: a
//! layer commit publishes (1) any new objects over [`INLINE_MAX`], then
//! (2) the layer file, then (3) updates the in-memory store. Each publish
//! is atomic (temp + fsync + rename + parent fsync), so a crash anywhere
//! leaves either orphan objects with no layer — garbage, collected by
//! [`PersistentDedupStore::gc`] with any temp debris — or a complete layer
//! file whose large objects are all already durable. A layer can never
//! reference bytes that were not published first. (4) `gc` ends by
//! compacting: it publishes the pack over any earlier one, then each layer
//! file that still carries inline content again with its `content` column
//! emptied. Layers are never removed, so every pack holds every small
//! object any earlier pack or layer file did, and it lands before any
//! layer file gives up its copies: a kill at any step reopens, and the
//! next `gc` converges to the same bytes.
//!
//! **Reopen** replays the layer files (sorted by path, so deterministic)
//! in three steps: (1) per layer file, in parallel, one read, both CRC
//! tiers and one validating walk over its rows — the loaded columns *are*
//! the layer's recipe, and its inline objects stay slices of the buffer the
//! file was read into — with the pack read and checked beside them;
//! (2) one sequential pass in layer order gives every distinct object a
//! slot in first-seen order (its pack row when there is a pack, else its
//! first inline copy, else its object file) and sums the stats off the
//! `size` column; (3) each
//! object is digest-verified exactly once, in parallel, and counted as one
//! object read, inline, packed or not — a large one is read from its
//! object file, and every file row's size must equal its object's length.
//! What stays resident is each layer file's buffer (its recipe's string
//! and digest columns and any inline objects point into it), the pack's
//! buffer, the recipe's integer columns, each large object's file bytes,
//! and one slot per object: a few buffers per layer, however many rows it
//! has, and after a `gc` each small object once. Every aggregate the store
//! reports is an order-independent sum, so a reloaded store's stats —
//! including the float `dedup_factor()` — are bit-identical to the
//! single-process run that wrote it, at any thread count. Layers, objects
//! and the pack are the only state on disk: nothing derived from them is
//! stored, so there is nothing to go stale.

use crate::recipe::{LayerRecipe, DIR, FILE, HARDLINK, SYMLINK};
use crate::store::{DedupStore, IngestStats, Objects, ParsedLayer, Slot, StoreError, INLINE_MAX};
use dhub_digest::FxHashSet;
use dhub_model::{Digest, FileKind};
use dhub_obs::MetricsRegistry;
use dhub_persist::{
    digest_from_hex, fsync_dir, hex_of, BlobStore, BytesColumn, ColType, Column, GcStats,
    PersistError, Publisher, Schema, Table,
};
use dhub_sync::Mutex;
use std::collections::hash_map::Entry;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The layer file's format version (v1 was the JSON recipe envelope, v2
/// had no `class`): its schema, not the table codec's version.
const LAYER_FORMAT: u64 = 3;

/// The layer file's columns, in order: the recipe's, then `content`.
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
        ("content", Bytes),
    ])
}

/// One layer as read back from disk: its recipe, and the `content` column
/// that carries its inline objects (none once `gc` has packed them).
struct StoredLayer {
    recipe: LayerRecipe,
    content: BytesColumn,
}

impl StoredLayer {
    /// True while the file carries inline content: until `gc` strips it.
    fn carries_content(&self) -> bool {
        self.content.iter().any(|c| !c.is_empty())
    }
}

/// A commit's `content` column for `recipe`: each small file's content
/// inline on the first row that names it, every other row empty.
fn inline_content(recipe: &LayerRecipe, files: &[(Digest, &[u8])]) -> BytesColumn {
    let small: usize = files.iter().map(|(_, data)| data.len()).filter(|&n| n <= INLINE_MAX).sum();
    let mut content = BytesColumn::with_capacity(recipe.len(), small);
    let mut inlined = FxHashSet::default();
    let mut files = files.iter();
    for &kind in &recipe.kind {
        let body: &[u8] = match kind {
            FILE => {
                let (d, data) = files.next().expect("a payload per file row");
                if data.len() <= INLINE_MAX && inlined.insert(*d) {
                    data
                } else {
                    &[]
                }
            }
            _ => &[],
        };
        content.push(body);
    }
    content
}

/// The `content` column of a layer file `gc` has stripped: empty on all
/// `rows`.
fn empty_content(rows: usize) -> BytesColumn {
    let mut content = BytesColumn::with_capacity(rows, 0);
    (0..rows).for_each(|_| content.push(&[]));
    content
}

/// The layer file of `recipe` as a table: its columns, moved in, then
/// `content`.
fn layer_table(recipe: LayerRecipe, content: BytesColumn) -> Table {
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
        Column::Bytes(content),
    ];
    Table::from_columns(layer_schema(), cols)
        .expect("columns built to the layer schema")
        .with_meta("format", LAYER_FORMAT)
        .with_meta("blob_len", blob_len)
}

/// A layer table's columns moved back out as `layer_digest`'s recipe and
/// its `content` column; `None` unless the table has the layer schema and
/// metadata. The rows are not looked at.
fn split_layer_table(layer_digest: Digest, table: Table) -> Option<StoredLayer> {
    let blob_len = match table.meta() {
        [(format, LAYER_FORMAT), (key, len)] if format == "format" && key == "blob_len" => *len,
        _ => return None,
    };
    if table.schema() != &layer_schema() {
        return None;
    }
    let cols = <[Column; 11]>::try_from(table.into_columns()).ok()?;
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
        Column::Bytes(content),
    ] = cols
    else {
        return None;
    };
    let recipe = LayerRecipe {
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
    };
    Some(StoredLayer { recipe, content })
}

/// Reads a layer file's bytes back; `None` unless they are exactly what
/// a commit or `gc` writes for some layer: valid CRCs, the layer schema
/// and metadata, and every row's fields consistent with its kind — a
/// file's class a [`FileKind`] (else 0), and its content either inline on
/// its first row in the layer when it is small and nowhere else, or (once
/// stripped) on no row of the file at all. Nothing is copied out of
/// `data`: the recipe's columns and the inline contents point into it.
fn decode_layer(layer_digest: Digest, data: Vec<u8>) -> Option<StoredLayer> {
    let layer = split_layer_table(layer_digest, Table::from_bytes(data)?)?;
    let stripped = !layer.carries_content();
    let (r, content) = (&layer.recipe, &layer.content);
    let mut inlined = FxHashSet::default();
    let wide = |v: u64| v > u64::from(u32::MAX);
    let rows = r.sha256.iter().zip(r.target.iter()).zip(content.iter());
    for (i, ((sha256, target), content)) in rows.enumerate() {
        let (size, class) = (r.size[i], r.class[i]);
        let bare = size == 0 && class == 0 && sha256.is_empty() && content.is_empty();
        let sound = match r.kind[i] {
            FILE if target.is_empty() && class < FileKind::COUNT as u64 => {
                let d = Digest(sha256.try_into().ok()?);
                if !stripped && size <= INLINE_MAX as u64 && inlined.insert(d) {
                    content.len() as u64 == size
                } else {
                    content.is_empty()
                }
            }
            DIR => bare && target.is_empty(),
            SYMLINK | HARDLINK => bare,
            _ => false,
        };
        if !sound || wide(r.mode[i]) || wide(r.uid[i]) || wide(r.gid[i]) {
            return None;
        }
    }
    Some(layer)
}

/// The pack's format version: its schema, not the table codec's version.
const PACK_FORMAT: u64 = 1;

/// The pack's columns, in order.
fn pack_schema() -> Schema {
    Schema::new(&[("sha256", ColType::Bytes), ("content", ColType::Bytes)])
}

/// The pack as read back: every small object's digest, in ascending order,
/// and its content on the same row.
struct Pack {
    sha256: BytesColumn,
    content: BytesColumn,
}

impl Pack {
    /// The pack table of `objects`, which come sorted by digest.
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

/// The `buf` of a slot [`PersistentDedupStore::replay_with`] took from the
/// pack but has not yet met on a layer's row.
const UNSEEN: usize = usize::MAX;

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
    /// `packs/small`: where `gc` publishes the pack.
    pack_path: PathBuf,
    /// The layers whose file on disk still carries inline content: what
    /// the next `gc` strips.
    carrying: Mutex<Vec<Digest>>,
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
        let layers_dir = root.join("layers");
        std::fs::create_dir_all(&layers_dir).map_err(PersistError::from)?;
        let mut objects = BlobStore::open(root.join("objects"), publisher.clone())?;
        let mem = match reg {
            Some(reg) => {
                objects = objects.with_metrics(reg);
                DedupStore::with_metrics(reg)
            }
            None => DedupStore::new(),
        };
        let pack_path = root.join("packs").join("small");
        let carrying = Mutex::default();
        let store = PersistentDedupStore { mem, objects, layers_dir, pack_path, carrying, publisher };
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

    /// Reads one layer file; [`PersistError::Torn`] when its bytes are not
    /// a layer.
    fn read_layer(path: &Path, digest: Digest) -> Result<StoredLayer, PersistError> {
        let data = std::fs::read(path)?;
        decode_layer(digest, data).ok_or_else(|| PersistError::Torn(path.to_path_buf()))
    }

    /// Reads the pack; `None` when no `gc` has written one yet, and
    /// [`PersistError::Torn`] when its bytes are not a pack.
    fn read_pack(&self) -> Result<Option<Pack>, PersistError> {
        let data = match std::fs::read(&self.pack_path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            read => read?,
        };
        Pack::decode(data).map(Some).ok_or_else(|| PersistError::Torn(self.pack_path.clone()))
    }

    /// Replays every layer on disk into memory: reopen, in the three steps
    /// of the module docs over the sorted layer list. Steps 1 and 3 run on
    /// `threads` workers but hand their results back in input order, and
    /// each step is checked front to back before the next starts, so the
    /// damaged file an error names never depends on thread timing: the
    /// first torn layer file in path order, else a torn pack, else the
    /// first bad object in first-seen order, inline, packed or not.
    fn replay_with(&self, threads: usize) -> Result<(), PersistentError> {
        // (1) Read every layer file, check its CRCs and walk its rows, and
        // read and check the pack beside them: it is item 0, the largest
        // file, claimed first.
        let files = self.layer_files()?;
        let pack = Mutex::new(None);
        let read = dhub_par::par_map_range(threads, 0..files.len() + 1, |i| match i {
            0 => {
                *pack.lock() = Some(self.read_pack());
                None
            }
            i => Some(Self::read_layer(&files[i - 1].0, files[i - 1].1)),
        });
        let layers = read.into_iter().flatten().collect::<Result<Vec<_>, PersistError>>()?;
        let pack = pack.into_inner().expect("item 0 reads the pack")?;

        // (2) A slot per distinct object in first-seen order: its pack row
        // when there is a pack, else its first inline copy when a layer
        // file carries one, otherwise its object file, whose buffer step 3
        // reads into place. The pack's rows are laid out first, in pack
        // order, each `UNSEEN` until a layer names it; one no layer names
        // is dropped. A repeat must name the size the first row did, and a
        // first sighting the size of its pack row.
        let mut objects = Objects::default();
        let Objects { slots, bufs } = &mut objects;
        let mut unseen = 0;
        if let Some(Pack { sha256, content }) = &pack {
            slots.reserve(sha256.len());
            for (row, d) in sha256.iter().enumerate() {
                let d = Digest(d.try_into().expect("a pack's digests are 32 bytes"));
                slots.insert(d, Slot { buf: UNSEEN, at: content.shared(row).1 });
            }
            unseen = sha256.len();
        }
        let unread = Arc::new(Vec::new());
        let mut pack_buf = None;
        // With each: where its bytes lie, and for an object file, the layer
        // that first names it.
        let mut first_seen: Vec<(Digest, Slot, Option<usize>)> = Vec::new();
        let (mut physical, mut logical) = (0, 0);
        for (at, StoredLayer { recipe, content }) in layers.iter().enumerate() {
            let mut file_buf = None;
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
                        if slot.get().buf == UNSEEN {
                            let packed = pack.as_ref().expect("only the pack's slots are unseen");
                            slot.get_mut().buf = *pack_buf.get_or_insert_with(|| {
                                bufs.push(Arc::clone(packed.content.shared(0).0));
                                bufs.len() - 1
                            });
                            unseen -= 1;
                            physical += size;
                            first_seen.push((*slot.key(), slot.get().clone(), None));
                        }
                    }
                    Entry::Vacant(vacant) => {
                        physical += size;
                        let (file, range) = content.shared(i);
                        let (slot, file_of) = if range.len() as u64 == size {
                            let buf = *file_buf.get_or_insert_with(|| {
                                bufs.push(Arc::clone(file));
                                bufs.len() - 1
                            });
                            (Slot { buf, at: range }, None)
                        } else {
                            bufs.push(Arc::clone(&unread));
                            (Slot { buf: bufs.len() - 1, at: 0..size as usize }, Some(at))
                        };
                        first_seen.push((*vacant.key(), slot.clone(), file_of));
                        vacant.insert(slot);
                    }
                }
            }
        }
        if unseen > 0 {
            slots.retain(|_, slot| slot.buf != UNSEEN);
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
        *self.carrying.lock() = (layers.iter())
            .filter(|layer| layer.carries_content())
            .map(|layer| layer.recipe.layer_digest)
            .collect();
        let recipes = layers.into_iter().map(|layer| layer.recipe);
        self.mem.restore(recipes, objects, physical, logical);
        Ok(())
    }

    /// Commits a parsed layer, durably. Publishes new large objects first,
    /// then the layer file, then updates memory — see the module docs for
    /// why this ordering makes crashes safe. The layer file is the recipe's
    /// columns plus the inline contents, each block copied once into the
    /// file's bytes; the columns then move on into memory as the recipe.
    pub fn commit_parsed(&self, layer: ParsedLayer<'_>) -> Result<IngestStats, PersistentError> {
        let ParsedLayer { recipe, files } = layer;
        let layer_digest = recipe.layer_digest;
        if self.mem.contains_layer(&layer_digest) {
            return Err(StoreError::AlreadyIngested.into());
        }
        // One batched publish for the layer's new large objects: a single
        // fanout dir fsync per touched shard instead of one per object.
        let new_objects: Vec<(Digest, &[u8])> = files
            .iter()
            .filter(|(digest, data)| data.len() > INLINE_MAX && !self.mem.has_object(digest))
            .copied()
            .collect();
        self.objects.put_batch(&new_objects)?;
        let path = self.layer_path(&layer_digest);
        let shard = path.parent().expect("layer path has a shard dir");
        if !shard.exists() {
            std::fs::create_dir_all(shard).map_err(PersistError::from)?;
            // The fanout directory itself is a fresh entry in `layers/`.
            fsync_dir(&self.layers_dir).map_err(PersistError::from)?;
        }
        let content = inline_content(&recipe, &files);
        let carries = content.iter().any(|c| !c.is_empty());
        let table = layer_table(recipe, content);
        self.publisher.publish(&path, &table.to_bytes())?;
        if carries {
            self.carrying.lock().push(layer_digest);
        }
        let recipe = split_layer_table(layer_digest, table).expect("the table just built").recipe;
        Ok(self.mem.commit_parsed(ParsedLayer { recipe, files })?)
    }

    /// No-op: layers + objects are the only durable state. Kept for the
    /// frozen `bench/` driver, which still calls it (ROADMAP item 1).
    pub fn checkpoint(&self) -> Result<(), PersistentError> {
        Ok(())
    }

    /// Garbage-collects objects no recipe references (crash orphans),
    /// sweeps in-flight temp debris under `objects/`, `layers/` and
    /// `packs/`, then compacts: stores each small object once (see the
    /// module docs). Must not overlap a layer commit: a commit's objects
    /// land before the layer file that makes them live, so a sweep in
    /// between would collect them. (Against a bare object publish the sweep
    /// is safe — both hold that fanout shard's lock.)
    pub fn gc(&self) -> Result<GcStats, PersistentError> {
        let mut live: FxHashSet<Digest> = FxHashSet::default();
        for d in self.mem.layer_digests() {
            if let Some(recipe) = self.mem.recipe(&d) {
                live.extend(recipe.file_digests());
            }
        }
        let mut stats = self.objects.gc(&live)?;
        stats.tmp_files += self.sweep_debris().map_err(PersistError::from)?;
        self.compact()?;
        Ok(stats)
    }

    /// Publishes the pack of every small object the store holds, then
    /// every layer file that still carries inline content with its
    /// `content` column emptied. On every core: first the pack is built
    /// and published (item 0) while the stripped files are encoded, then
    /// those are published in path order, in one batch per core.
    fn compact(&self) -> Result<(), PersistentError> {
        let mut carrying = std::mem::take(&mut *self.carrying.lock());
        carrying.sort_unstable();
        carrying.dedup();
        let threads = dhub_par::default_threads();
        let mut encoded = dhub_par::par_map_range(threads, 0..carrying.len() + 1, |i| match i {
            0 => self.publish_pack().map(|()| Vec::new()),
            i => Ok(self.stripped_layer(&carrying[i - 1])),
        })
        .into_iter();
        let published = encoded.next().expect("item 0 is the pack").and_then(|_| {
            let stripped = encoded.collect::<Result<Vec<_>, PersistError>>()?;
            let batch: Vec<(PathBuf, &[u8])> =
                carrying.iter().map(|d| self.layer_path(d)).zip(stripped.iter().map(Vec::as_slice)).collect();
            let per_core: Vec<_> = batch.chunks(batch.len().div_ceil(threads).max(1)).collect();
            let published = dhub_par::par_map(threads, &per_core, |batch| self.publisher.publish_batch(batch));
            published.into_iter().collect()
        });
        if published.is_err() {
            // A later `gc` strips them: the rewrite is idempotent.
            self.carrying.lock().extend(carrying);
        }
        Ok(published?)
    }

    /// Publishes the pack of every small object the store holds over any
    /// earlier one.
    fn publish_pack(&self) -> Result<(), PersistError> {
        let pack = self.mem.with_small_objects(|small| Pack::table(small).to_bytes());
        let packs_dir = self.pack_path.parent().expect("the pack lies in packs/");
        if !packs_dir.exists() {
            std::fs::create_dir_all(packs_dir)?;
            // `packs/` itself is a fresh entry in the store root.
            fsync_dir(packs_dir.parent().expect("packs/ lies in the store root"))?;
        }
        self.publisher.publish(&self.pack_path, &pack)
    }

    /// The bytes of `layer`'s file with its `content` column emptied.
    fn stripped_layer(&self, layer: &Digest) -> Vec<u8> {
        let recipe = self.mem.recipe(layer).expect("a committed layer has a recipe");
        layer_table(LayerRecipe::clone(&recipe), empty_content(recipe.len())).to_bytes()
    }

    /// Deletes the `*.tmp` debris of layer files and packs whose publish
    /// crashed.
    fn sweep_debris(&self) -> std::io::Result<u64> {
        let mut dirs = vec![self.pack_path.parent().expect("the pack lies in packs/").to_path_buf()];
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
                PersistentDedupStore::read_layer(&reopened.layer_path(d), *d).unwrap();
            assert_eq!(Some(&stored.recipe), reference.recipe(d).as_deref());
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
    /// rest are inline.
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
    /// False, and the file left alone, when `edit` returns false.
    fn rewrite_layer(path: &Path, edit: impl FnOnce(&mut [Column]) -> bool) -> bool {
        let table = Table::from_bytes(std::fs::read(path).unwrap()).unwrap();
        let meta = table.meta().to_vec();
        let mut cols = table.into_columns();
        if !edit(&mut cols) {
            return false;
        }
        let mut tampered = Table::from_columns(layer_schema(), cols).unwrap();
        for (key, value) in &meta {
            tampered = tampered.with_meta(key, *value);
        }
        std::fs::write(path, tampered.to_bytes()).unwrap();
        true
    }

    /// Rewrites `path`'s layer file with one byte of the inline copy of
    /// `victim` flipped: the file reads back sound, and only the object's
    /// digest can catch the flip. False when the file carries no inline
    /// copy of `victim`.
    fn flip_inline(path: &Path, victim: &Digest) -> bool {
        rewrite_layer(path, |cols| {
            let (Column::Bytes(shas), Column::Bytes(contents)) = (&cols[7], &cols[10]) else {
                unreachable!("the layer schema")
            };
            let carried = shas
                .iter()
                .zip(contents.iter())
                .position(|(sha, c)| sha == victim.0 && !c.is_empty());
            let Some(row) = carried else { return false };
            let flipped: BytesColumn = contents
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let mut c = c.to_vec();
                    if i == row {
                        c[0] ^= 0x01;
                    }
                    c
                })
                .collect();
            cols[10] = Column::Bytes(flipped);
            true
        })
    }

    /// Stats come from the `size` column, so a file row must name its
    /// object's length: a repeat that disagrees with the first row, or rows
    /// that agree on a length the object file does not have, are torn.
    #[test]
    fn a_file_rows_size_must_be_its_objects_length() {
        let root = tmp_root("size");
        let big = large(INLINE_MAX + 10, 3);
        let (d, b) = layer(&[file("big", &big), file("again", &big)]);
        let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        ingest(&store, d, &b).unwrap();
        let path = store.layer_path(&d);
        drop(store);
        let sound = std::fs::read(&path).unwrap();
        for rows in [&[1][..], &[0, 1]] {
            assert!(rewrite_layer(&path, |cols| {
                let Column::U64(size) = &mut cols[6] else { unreachable!("the layer schema") };
                rows.iter().for_each(|&row| size[row] += 1);
                true
            }));
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
        let layer_files = store.layer_files().unwrap();
        let (mut first_seen, mut large): (Vec<Digest>, Vec<Digest>) = (Vec::new(), Vec::new());
        for (path, digest) in &layer_files {
            let stored = PersistentDedupStore::read_layer(path, *digest).unwrap();
            for row in stored.recipe.rows() {
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
        // Two torn layer files, a flipped object file and a flipped inline
        // object at once: the first torn layer file in path order is named,
        // whatever the objects look like.
        let torn = [&layer_files[3].0, &layer_files[9].0];
        let sound: Vec<Vec<u8>> = torn.iter().map(|p| std::fs::read(p).unwrap()).collect();
        let inline_victim = *first_seen.iter().filter(|d| !is_large(d)).nth(2).unwrap();
        let large_victim = *first_seen.iter().filter(|d| is_large(d)).last().unwrap();
        let inline_at = first_seen.iter().position(|d| *d == inline_victim).unwrap();
        let large_at = first_seen.iter().position(|d| *d == large_victim).unwrap();
        assert!(inline_at < large_at);
        for path in torn {
            flip_byte(path, 200);
        }
        flip_byte(&object_path(&large_victim), 0);
        let carrier = layer_files
            .iter()
            .find(|(path, _)| !torn.contains(&path) && flip_inline(path, &inline_victim))
            .expect("a sound layer file carries the inline victim")
            .0
            .clone();
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
        // order is named, here the inline one…
        for (path, bytes) in torn.iter().zip(&sound) {
            std::fs::write(path, bytes).unwrap();
        }
        blame(&corrupt(inline_victim), "the inline object");
        // …and once it is sound, the object file.
        assert!(flip_inline(&carrier, &inline_victim));
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
        let path = store.layer_path(&d);
        drop(store);
        let sound = std::fs::read(&path).unwrap();
        let stored = decode_layer(d, sound.clone()).expect("the writer's bytes decode");
        assert_eq!(stored.recipe.blob_len, b.len() as u64);
        let inline = stored.content.iter().filter(|c| !c.is_empty()).count();
        assert_eq!(inline, 3, "every file up to INLINE_MAX, and only those");
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
        // End to end through `open`: the head, the compressed length, an
        // inline object, the trailer.
        let content_at = sound.windows(3).position(|w| w == b"two").unwrap();
        for at in [3, blob_len_at, content_at, sound.len() - 1] {
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

    /// After `gc` the small objects live in the pack alone: a damaged pack
    /// is torn, a missing one leaves a small object missing, and a layer
    /// file still carrying its copies (a compaction cut short) reopens,
    /// taking them from the pack, until the next `gc` strips it.
    #[test]
    fn a_compacted_store_reads_its_small_objects_from_the_pack() {
        let (root, reference) = populated("pack");
        let store = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        let first = *store.carrying.lock().first().expect("the sample inlines small objects");
        let carrier = store.layer_path(&first);
        let uncompacted = std::fs::read(&carrier).unwrap();
        store.gc().unwrap();
        assert!(store.carrying.lock().is_empty());
        drop(store);
        assert!(!PersistentDedupStore::read_layer(&carrier, first).unwrap().carries_content());
        let pack_path = root.join("packs").join("small");
        let pack = std::fs::read(&pack_path).unwrap();

        let reg = MetricsRegistry::new();
        let reopened = PersistentDedupStore::open_obs(&root, Publisher::new(), Some(&reg)).unwrap();
        let stats = reopened.mem().stats();
        assert_eq!(stats, reference.stats());
        assert!(reopened.carrying.lock().is_empty(), "every layer file was stripped");
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
        std::fs::write(&carrier, &uncompacted).unwrap();
        let reopened = PersistentDedupStore::open(&root, Publisher::new()).unwrap();
        assert_eq!(reopened.mem().stats(), reference.stats());
        assert_eq!(*reopened.carrying.lock(), vec![first]);
        reopened.gc().unwrap();
        assert!(!PersistentDedupStore::read_layer(&carrier, first).unwrap().carries_content());
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
