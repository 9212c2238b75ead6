//! The analyze-then-ingest dedup store.

use crate::{gzip_decompress_reference, scalar_digest};
use dhub_dedupstore::{IngestStats, RecipeRow, RowKind, StoreError, StoreStats};
use dhub_model::Digest;
use dhub_tar::{read_archive, write_archive, EntryKind, TarEntry};
use std::collections::HashMap;

/// What a recipe row is, owned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RefKind {
    File(Digest),
    Dir,
    Symlink(String),
    Hardlink(String),
}

/// One recipe row, owned: what a `LayerRecipe` row view must read as.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefRow {
    pub path: String,
    pub kind: RefKind,
    /// A file's content length; 0 for every other kind.
    pub size: u64,
    pub mode: u32,
    pub uid: u32,
    pub gid: u32,
    pub mtime: u64,
}

impl RefRow {
    /// The row as a view, for pushing into a `LayerRecipe`.
    pub fn view(&self) -> RecipeRow<'_> {
        let kind = match &self.kind {
            RefKind::File(d) => RowKind::File(*d),
            RefKind::Dir => RowKind::Dir,
            RefKind::Symlink(t) => RowKind::Symlink(t),
            RefKind::Hardlink(t) => RowKind::Hardlink(t),
        };
        let (mode, uid, gid, mtime) = (self.mode, self.uid, self.gid, self.mtime);
        RecipeRow { path: &self.path, kind, size: self.size, mode, uid, gid, mtime }
    }
}

impl From<RecipeRow<'_>> for RefRow {
    fn from(row: RecipeRow<'_>) -> RefRow {
        let kind = match row.kind {
            RowKind::File(d) => RefKind::File(d),
            RowKind::Dir => RefKind::Dir,
            RowKind::Symlink(t) => RefKind::Symlink(t.to_string()),
            RowKind::Hardlink(t) => RefKind::Hardlink(t.to_string()),
        };
        let (mode, uid, gid, mtime) = (row.mode, row.uid, row.gid, row.mtime);
        RefRow { path: row.path.to_string(), kind, size: row.size, mode, uid, gid, mtime }
    }
}

/// A file-level dedup store kept the pre-fusion way: owned decompression,
/// owned tar entries, owned rows, plain maps. It counts for itself and
/// never calls `DedupStore`'s commit tail, so a slip there shows up as
/// diverging [`StoreStats`] rather than being shared by both sides.
#[derive(Default)]
pub struct ReferenceStore {
    objects: HashMap<Digest, Vec<u8>>,
    recipes: HashMap<Digest, Vec<RefRow>>,
    stats: StoreStats,
}

impl ReferenceStore {
    /// An empty store.
    pub fn new() -> ReferenceStore {
        ReferenceStore::default()
    }

    /// Ingests a gzip-compressed layer tarball under `layer_digest`:
    /// what `DedupStore::ingest_layer` and the fused pass must equal, in
    /// the per-layer [`IngestStats`], the recipe and the store totals.
    pub fn ingest_layer_reference(
        &mut self,
        layer_digest: Digest,
        blob: &[u8],
    ) -> Result<IngestStats, StoreError> {
        if self.recipes.contains_key(&layer_digest) {
            return Err(StoreError::AlreadyIngested);
        }
        let tar = gzip_decompress_reference(blob).map_err(|e| StoreError::BadLayer(e.to_string()))?;
        let entries = read_archive(&tar).map_err(|e| StoreError::BadLayer(e.to_string()))?;

        let mut stats = IngestStats::default();
        let mut rows = Vec::with_capacity(entries.len());
        for entry in entries {
            let mut size = 0;
            let kind = match entry.kind {
                EntryKind::File(data) => {
                    let digest = scalar_digest(&data);
                    size = data.len() as u64;
                    stats.files += 1;
                    if self.objects.contains_key(&digest) {
                        stats.bytes_deduped += size;
                    } else {
                        stats.new_files += 1;
                        stats.bytes_added += size;
                        self.objects.insert(digest, data);
                    }
                    RefKind::File(digest)
                }
                EntryKind::Dir => RefKind::Dir,
                EntryKind::Symlink(t) => RefKind::Symlink(t),
                EntryKind::Hardlink(t) => RefKind::Hardlink(t),
            };
            let (mode, uid, gid, mtime) = (entry.mode, entry.uid, entry.gid, entry.mtime);
            rows.push(RefRow { path: entry.path, kind, size, mode, uid, gid, mtime });
        }
        self.recipes.insert(layer_digest, rows);

        let c = &mut self.stats;
        c.layers += 1;
        c.physical_bytes += stats.bytes_added;
        c.logical_bytes += stats.bytes_added + stats.bytes_deduped;
        c.conventional_bytes += blob.len() as u64;
        c.unique_objects = self.objects.len();
        Ok(stats)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The recipe rows of an ingested layer, in archive order.
    pub fn recipe(&self, layer_digest: &Digest) -> Option<&[RefRow]> {
        self.recipes.get(layer_digest).map(Vec::as_slice)
    }

    /// Rebuilds the layer tarball from its recipe and the stored objects.
    pub fn reconstruct_tar(&self, layer_digest: &Digest) -> Result<Vec<u8>, StoreError> {
        let rows = self.recipes.get(layer_digest).ok_or(StoreError::UnknownLayer)?;
        let mut entries = Vec::with_capacity(rows.len());
        for e in rows {
            let kind = match &e.kind {
                RefKind::File(d) => {
                    EntryKind::File(self.objects.get(d).ok_or(StoreError::MissingObject(*d))?.clone())
                }
                RefKind::Dir => EntryKind::Dir,
                RefKind::Symlink(t) => EntryKind::Symlink(t.clone()),
                RefKind::Hardlink(t) => EntryKind::Hardlink(t.clone()),
            };
            let (path, mode, uid, gid, mtime) = (e.path.clone(), e.mode, e.uid, e.gid, e.mtime);
            entries.push(TarEntry { path, kind, mode, uid, gid, mtime });
        }
        Ok(write_archive(&entries))
    }
}
