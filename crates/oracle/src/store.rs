//! The analyze-then-ingest dedup store.

use crate::{gzip_decompress_reference, scalar_digest};
use dhub_dedupstore::{
    EntryMeta, IngestStats, LayerRecipe, RecipeEntryKind, StoreError, StoreStats,
};
use dhub_model::Digest;
use dhub_tar::{read_archive, write_archive, EntryKind, TarEntry};
use std::collections::HashMap;

/// A file-level dedup store kept the pre-fusion way: owned decompression,
/// owned tar entries, plain maps. It counts for itself and never calls
/// `DedupStore`'s commit tail, so a slip there shows up as diverging
/// [`StoreStats`] rather than being shared by both sides.
#[derive(Default)]
pub struct ReferenceStore {
    objects: HashMap<Digest, Vec<u8>>,
    recipes: HashMap<Digest, LayerRecipe>,
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
        let mut recipe_entries = Vec::with_capacity(entries.len());
        for entry in entries {
            let kind = match entry.kind {
                EntryKind::File(data) => {
                    let digest = scalar_digest(&data);
                    stats.files += 1;
                    if self.objects.contains_key(&digest) {
                        stats.bytes_deduped += data.len() as u64;
                    } else {
                        stats.new_files += 1;
                        stats.bytes_added += data.len() as u64;
                        self.objects.insert(digest, data);
                    }
                    RecipeEntryKind::File(digest)
                }
                EntryKind::Dir => RecipeEntryKind::Dir,
                EntryKind::Symlink(t) => RecipeEntryKind::Symlink(t),
                EntryKind::Hardlink(t) => RecipeEntryKind::Hardlink(t),
            };
            recipe_entries.push(EntryMeta {
                path: entry.path,
                kind,
                mode: entry.mode,
                uid: entry.uid,
                gid: entry.gid,
                mtime: entry.mtime,
            });
        }
        self.recipes.insert(layer_digest, LayerRecipe { layer_digest, entries: recipe_entries });

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

    /// The recipe of an ingested layer.
    pub fn recipe(&self, layer_digest: &Digest) -> Option<&LayerRecipe> {
        self.recipes.get(layer_digest)
    }

    /// Rebuilds the layer tarball from its recipe and the stored objects.
    pub fn reconstruct_tar(&self, layer_digest: &Digest) -> Result<Vec<u8>, StoreError> {
        let recipe = self.recipes.get(layer_digest).ok_or(StoreError::UnknownLayer)?;
        let mut entries = Vec::with_capacity(recipe.entries.len());
        for e in &recipe.entries {
            let kind = match &e.kind {
                RecipeEntryKind::File(d) => {
                    EntryKind::File(self.objects.get(d).ok_or(StoreError::MissingObject(*d))?.clone())
                }
                RecipeEntryKind::Dir => EntryKind::Dir,
                RecipeEntryKind::Symlink(t) => EntryKind::Symlink(t.clone()),
                RecipeEntryKind::Hardlink(t) => EntryKind::Hardlink(t.clone()),
            };
            let (path, mode, uid, gid, mtime) = (e.path.clone(), e.mode, e.uid, e.gid, e.mtime);
            entries.push(TarEntry { path, kind, mode, uid, gid, mtime });
        }
        Ok(write_archive(&entries))
    }
}
