//! Redundancy analysis (§V of the paper).
//!
//! Layer sharing, and four file-level analyses that all read one
//! per-digest [`FileIndex`]:
//!
//! * [`layer_sharing`] — how often layers are referenced by multiple
//!   images, and the storage saved by content-addressed layer sharing
//!   (Fig. 23; the paper's 1.8×),
//! * [`file_dedup`] — the index itself, and file-level deduplication by
//!   count and capacity folded from it (Fig. 24 and the headline
//!   31.5× / 6.9× numbers),
//! * [`growth`] — dedup ratio as a function of dataset size, one index per
//!   nested sample (Fig. 25),
//! * [`cross`] — cross-layer duplicate fractions from the index's
//!   distinct-layer counts, and cross-image ones from an image pass
//!   (Fig. 26),
//! * [`by_type`] — dedup ratio per type group and per specific type, folded
//!   from the index (Figs. 27–29).
//!
//! The index is built in one pass over a [`dhub_par::ShardedMap`] so
//! multi-million file populations aggregate in parallel, then read without
//! locks.

pub mod by_type;
pub mod cross;
pub mod file_dedup;
pub mod growth;
pub mod layer_sharing;

pub use by_type::{dedup_by_group, dedup_by_kind, TypeDedupRow};
pub use cross::{cross_duplicates, CrossDuplicates};
pub use file_dedup::{FileDedupStats, FileIndex};
pub use growth::{dedup_growth, GrowthPoint};
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
