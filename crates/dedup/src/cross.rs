//! Cross-layer and cross-image file duplicates (Fig. 26).
//!
//! A file is a *cross-layer duplicate* if its content appears in more than
//! one distinct layer (layer sharing cannot eliminate it). The figure
//! plots, per layer, the fraction of its files that are cross-layer
//! duplicates — and likewise per image. Both are folds over indexes built
//! elsewhere: distinct-layer counts come from the [`FileIndex`], and
//! distinct-image counts from the [`ImageIndex`].

use crate::{FileIndex, ImageIndex, ImageLayers};
use dhub_digest::FxHashMap;
use dhub_model::{Digest, LayerProfile};

/// Per-layer and per-image duplicate fractions.
#[derive(Clone, Debug)]
pub struct CrossDuplicates {
    /// For each non-empty layer: fraction of its files duplicated across
    /// layers (0..=1).
    pub layer_fractions: Vec<f64>,
    /// For each non-empty image: fraction of its files duplicated across
    /// images.
    pub image_fractions: Vec<f64>,
}

/// Computes both fraction distributions. `files` indexes `layers`, and
/// `members` indexes `images`.
pub fn cross_duplicates(
    layers: &[&LayerProfile],
    files: &FileIndex,
    images: &[ImageLayers],
    members: &ImageIndex,
) -> CrossDuplicates {
    let cross_layer = |d: &Digest| files.get(d).is_some_and(|e| e.layers > 1);
    let layer_fractions: Vec<f64> = layers
        .iter()
        .filter(|l| !l.files.is_empty())
        .map(|l| {
            let dup = l.files.iter().filter(|f| cross_layer(&f.digest)).count();
            dup as f64 / l.files.len() as f64
        })
        .collect();

    // An image's file instances are its layers' files, every reference
    // counted, so its counts are sums of per-layer counts — each taken
    // once, however many images share the layer. A layer nobody analyzed
    // has no members and adds nothing.
    let mut layer_counts: FxHashMap<Digest, (usize, usize)> = FxHashMap::default();
    let image_fractions: Vec<f64> = images
        .iter()
        .filter_map(|img| {
            let (mut total, mut dup) = (0usize, 0usize);
            for ld in &img.layers {
                let (n, d) = *layer_counts.entry(*ld).or_insert_with(|| {
                    let count = |(n, d), ids: &[u32]| (n + 1, d + (ids.len() > 1) as usize);
                    members.layer_members(ld).fold((0, 0), count)
                });
                total += n;
                dup += d;
            }
            if total == 0 {
                None
            } else {
                Some(dup as f64 / total as f64)
            }
        })
        .collect();

    CrossDuplicates { layer_fractions, image_fractions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_model::{FileKind, FileRecord};

    fn cross(
        layers: &[&LayerProfile],
        images: &[ImageLayers],
        profiles: &FxHashMap<Digest, LayerProfile>,
        threads: usize,
    ) -> CrossDuplicates {
        let files = FileIndex::build(layers, threads);
        cross_duplicates(layers, &files, images, &ImageIndex::build(images, profiles))
    }

    fn file(tag: &str) -> FileRecord {
        FileRecord { digest: Digest::of(tag.as_bytes()), kind: FileKind::AsciiText, size: 10 }
    }

    fn layer(id: u8, tags: &[&str]) -> LayerProfile {
        LayerProfile {
            digest: Digest::of(&[id]),
            fls: 10 * tags.len() as u64,
            cls: 5,
            dir_count: 1,
            file_count: tags.len() as u64,
            max_depth: 1,
            files: tags.iter().map(|t| file(t)).collect(),
        }
    }

    #[test]
    fn layer_fractions_computed() {
        // "shared" in both layers; "only1"/"only2" unique to one layer.
        let l1 = layer(1, &["shared", "only1"]);
        let l2 = layer(2, &["shared", "only2", "only2b"]);
        let mut profiles = FxHashMap::default();
        profiles.insert(l1.digest, l1.clone());
        profiles.insert(l2.digest, l2.clone());
        let cd = cross(&[&l1, &l2], &[], &profiles, 2);
        let mut fr = cd.layer_fractions.clone();
        fr.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((fr[0] - 1.0 / 3.0).abs() < 1e-9);
        assert!((fr[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn same_digest_twice_in_one_layer_is_not_cross_layer() {
        let l1 = layer(1, &["dup", "dup"]);
        let l2 = layer(2, &["other"]);
        let profiles = FxHashMap::default();
        let cd = cross(&[&l1, &l2], &[], &profiles, 1);
        // "dup" appears in only one distinct layer ⇒ not a cross-layer dup.
        assert_eq!(cd.layer_fractions, vec![0.0, 0.0]);
    }

    #[test]
    fn image_fractions_computed() {
        let l1 = layer(1, &["a", "b"]);
        let l2 = layer(2, &["a", "c"]);
        let l3 = layer(3, &["z"]);
        let mut profiles = FxHashMap::default();
        for l in [&l1, &l2, &l3] {
            profiles.insert(l.digest, l.clone());
        }
        // Image 1 = {l1}, image 2 = {l2, l3}: file "a" in both images.
        let images = vec![
            ImageLayers { layers: vec![l1.digest] },
            ImageLayers { layers: vec![l2.digest, l3.digest] },
        ];
        let cd = cross(&[&l1, &l2, &l3], &images, &profiles, 2);
        let mut fr = cd.image_fractions.clone();
        fr.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Image 2: "a" of 3 files dup; image 1: "a" of 2 files dup.
        assert!((fr[0] - 1.0 / 3.0).abs() < 1e-9);
        assert!((fr[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_layers_excluded() {
        let l1 = layer(1, &[]);
        let profiles = FxHashMap::default();
        let cd = cross(&[&l1], &[], &profiles, 1);
        assert!(cd.layer_fractions.is_empty());
        assert_eq!(dhub_stats::nearest_rank(&cd.layer_fractions, 0.1), 0.0);
    }

    #[test]
    fn p10_matches_paper_reading() {
        // 10 layers: 9 fully duplicated, 1 at 0.5 ⇒ p10 = 0.5.
        let shared = layer(0, &["s1", "s2"]);
        let mut layers = vec![shared.clone()];
        for i in 1..9 {
            layers.push(layer(i, &["s1", "s2"]));
        }
        layers.push(layer(9, &["s1", "u"]));
        let refs: Vec<&LayerProfile> = layers.iter().collect();
        let cd = cross(&refs, &[], &FxHashMap::default(), 2);
        let mut fr = cd.layer_fractions.clone();
        fr.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(dhub_stats::nearest_rank(&fr, 0.1), 0.5);
    }
}
