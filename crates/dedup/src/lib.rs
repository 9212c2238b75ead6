//! Redundancy analysis (§V of the paper).
//!
//! Layer sharing, and file-level analyses that read one content index:
//! the [`FileIndex`] gives every unique file a dense slot (its copies,
//! size, smallest kind and distinct layers) and every layer its files as
//! slots. The [`ImageIndex`] lists the sorted ids of the images holding
//! each slot.
//!
//! * [`layer_sharing`] — how often layers are referenced by multiple
//!   images, and the storage saved by content-addressed layer sharing
//!   (Fig. 23; the paper's 1.8×),
//! * [`file_dedup`] — the file index, and file-level deduplication by
//!   count and capacity folded from it (Fig. 24 and the headline
//!   31.5× / 6.9× numbers),
//! * [`growth`] — dedup ratio as a function of dataset size: one pass over
//!   a seeded shuffle of the index's layers, reading each nested sample
//!   off running sums (Fig. 25),
//! * [`cross`] — cross-layer duplicate fractions from the file index's
//!   distinct-layer counts, and cross-image ones from the image index
//!   (Fig. 26),
//! * [`by_type`] — the per-kind census the file index fills (Figs. 13–22),
//!   and dedup ratio per type group and per specific type, folded from
//!   the file index (Figs. 27–29),
//! * [`image_index`] — the image index, which perfect-layer carving also
//!   groups by.
//!
//! The file index is one sequential pass over the layers, the only pass
//! that hashes a file digest; every other analysis reads slots. The image
//! index walks the images in order over the layers' slot lists, which
//! leaves every content's image ids sorted.

pub mod by_type;
pub mod cross;
pub mod file_dedup;
pub mod growth;
pub mod image_index;
pub mod layer_sharing;

pub use by_type::{dedup_by_group, dedup_by_kind, TypeCensus, TypeDedupRow};
pub use cross::{cross_duplicates, CrossDuplicates};
pub use file_dedup::{FileDedupStats, FileIndex};
pub use growth::{dedup_growth, GrowthPoint};
pub use image_index::ImageIndex;
pub use layer_sharing::{layer_sharing, LayerSharing};

use dhub_model::{Digest, LayerProfile};

/// The image→layers view the dedup analyses need (derived from manifests).
#[derive(Clone, Debug)]
pub struct ImageLayers {
    /// Layer digests referenced by the image's manifest.
    pub layers: Vec<Digest>,
}

/// Convenience: borrows profiles as a slice of references for analyses
/// that iterate layers.
pub fn profile_slice(map: &dhub_digest::FxHashMap<Digest, LayerProfile>) -> Vec<&LayerProfile> {
    let mut v: Vec<&LayerProfile> = map.values().collect();
    // Deterministic order for reproducible sampling.
    v.sort_by_key(|p| p.digest);
    v
}
