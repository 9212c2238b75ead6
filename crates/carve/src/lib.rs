//! Layer carving: restructure images into shared "perfect" layers.
//!
//! The paper's related work cites Skourtis et al., *Carving perfect layers
//! out of Docker images* (HotCloud'19), as the way to exploit exactly the
//! redundancy it measures: files recur across images (§V-D), but because
//! each developer cuts layers differently, layer sharing misses most of
//! it. Carving regroups files by *which images contain them*:
//!
//! * every unique file has a **signature** — the set of images that
//!   contain it;
//! * files with the same signature form one **carved layer**, stored once
//!   and referenced by exactly those images;
//! * an image becomes the set of carved layers whose signatures include it.
//!
//! Perfect carving stores every unique file exactly once (the paper's
//! file-dedup bound) but can explode the number of layers an image
//! references, which hurts pull latency (§IV-B's layer-count concern). A
//! practical knob, `min_group_bytes`, folds tiny carved groups back into
//! per-image residual layers — trading some duplication for bounded layer
//! counts. [`Carver`] groups the files by signature once; each
//! [`Carver::carve`] is then a fold over the groups at one threshold,
//! giving both storage and layer-count statistics, so a sweep over
//! thresholds (Ext. C1) costs one grouping.

use dhub_digest::FxHashMap;
use dhub_model::Digest;

/// Carving configuration.
#[derive(Clone, Copy, Debug)]
#[derive(Default)]
pub struct CarveConfig {
    /// Carved groups smaller than this many bytes are folded into the
    /// owning images' residual layers (0 = perfect carving).
    pub min_group_bytes: u64,
}


/// One carved layer: a set of unique files shared by a set of images.
#[derive(Clone, Copy, Debug)]
pub struct CarvedGroup<'a> {
    /// Images referencing this carved layer (ids, ascending).
    pub images: &'a [u32],
    /// Unique files in the group.
    pub files: &'a [Digest],
    /// Total unique bytes.
    pub bytes: u64,
}

/// Result of a carving run.
#[derive(Clone, Debug)]
pub struct Carving<'a> {
    /// Shared carved layers (referenced by ≥ 1 image), largest first, ties
    /// by image ids.
    pub groups: Vec<CarvedGroup<'a>>,
    /// Per-image residual bytes (files folded out of tiny groups are
    /// duplicated into each owning image's residual layer).
    pub residual_bytes: Vec<u64>,
    /// Per-image carved-layer counts (incl. the residual layer when
    /// non-empty).
    pub layers_per_image: Vec<u32>,
    /// Bytes stored under this carving (shared groups once + residuals).
    pub stored_bytes: u64,
    /// Bytes the original layering stores (unique original layers' FLS).
    pub original_bytes: u64,
    /// The file-dedup lower bound (every unique file once).
    pub perfect_bytes: u64,
}

impl Carving<'_> {
    /// Storage saving factor vs. the original layering.
    pub fn saving_factor(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.original_bytes as f64 / self.stored_bytes as f64
        }
    }

    /// Mean carved layers per image.
    pub fn mean_layers_per_image(&self) -> f64 {
        if self.layers_per_image.is_empty() {
            0.0
        } else {
            self.layers_per_image.iter().map(|&l| l as f64).sum::<f64>()
                / self.layers_per_image.len() as f64
        }
    }

    /// Bytes duplicated into residual layers beyond the perfect bound.
    pub fn duplicated_bytes(&self) -> u64 {
        self.stored_bytes.saturating_sub(self.perfect_bytes)
    }
}

/// The unique files of an image population grouped by signature: the
/// part of carving every threshold shares.
pub struct Carver<'s> {
    /// Every signature's group — its images, files and bytes — largest
    /// first, ties by image ids.
    groups: Vec<(&'s [u32], Vec<Digest>, u64)>,
    images: usize,
    original_bytes: u64,
    perfect_bytes: u64,
}

impl<'s> Carver<'s> {
    /// Groups `files` — each unique file's digest, size and signature
    /// (sorted ids below `images` of the images holding it; never empty) —
    /// for a population whose original layering stores `original_bytes`.
    pub fn new(
        files: impl IntoIterator<Item = (Digest, u64, &'s [u32])>,
        images: usize,
        original_bytes: u64,
    ) -> Carver<'s> {
        let mut groups: Vec<(&[u32], Vec<Digest>, u64)> = Vec::new();
        let mut by_signature: FxHashMap<&[u32], usize> = FxHashMap::default();
        let mut perfect_bytes = 0u64;
        for (digest, size, signature) in files {
            perfect_bytes += size;
            let at = *by_signature.entry(signature).or_insert_with(|| {
                groups.push((signature, Vec::new(), 0));
                groups.len() - 1
            });
            groups[at].1.push(digest);
            groups[at].2 += size;
        }
        groups.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(b.0)));
        Carver { groups, images, original_bytes, perfect_bytes }
    }

    /// Carves at `cfg`'s threshold: groups below it fold into the residual
    /// layer of every image that holds them, so a group shared by several
    /// images is duplicated once per image.
    pub fn carve(&self, cfg: &CarveConfig) -> Carving<'_> {
        let mut residual_bytes = vec![0u64; self.images];
        let mut layers_per_image = vec![0u32; self.images];
        let mut kept = Vec::new();
        for (images, files, bytes) in &self.groups {
            if *bytes < cfg.min_group_bytes {
                for &i in *images {
                    residual_bytes[i as usize] += bytes;
                }
            } else {
                for &i in *images {
                    layers_per_image[i as usize] += 1;
                }
                kept.push(CarvedGroup { images, files, bytes: *bytes });
            }
        }
        for (n, &r) in layers_per_image.iter_mut().zip(&residual_bytes) {
            *n += (r > 0) as u32;
        }
        let stored_bytes =
            kept.iter().map(|g| g.bytes).sum::<u64>() + residual_bytes.iter().sum::<u64>();
        Carving {
            groups: kept,
            residual_bytes,
            layers_per_image,
            stored_bytes,
            original_bytes: self.original_bytes,
            perfect_bytes: self.perfect_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_digest::FxHashSet;
    use dhub_model::{FileKind, FileRecord, LayerProfile};

    /// Each unique file's signature, found the plain way: a set of image
    /// ids per file, filled image by image. Leaked, so the carver can
    /// borrow them for the rest of the test.
    fn carver(images: &[Vec<Digest>], profiles: &FxHashMap<Digest, LayerProfile>) -> Carver<'static> {
        let mut order = Vec::new();
        let mut sigs: FxHashMap<Digest, (u64, FxHashSet<u32>)> = FxHashMap::default();
        let mut original_bytes = 0;
        let mut seen_layers = FxHashSet::default();
        for (idx, layers) in images.iter().enumerate() {
            for ld in layers {
                let Some(lp) = profiles.get(ld) else { continue };
                if seen_layers.insert(*ld) {
                    original_bytes += lp.fls;
                }
                for f in &lp.files {
                    let e = sigs.entry(f.digest).or_insert_with(|| {
                        order.push(f.digest);
                        (f.size, FxHashSet::default())
                    });
                    e.1.insert(idx as u32);
                }
            }
        }
        let files: Vec<(Digest, u64, Vec<u32>)> = (order.iter())
            .map(|d| {
                let mut ids: Vec<u32> = sigs[d].1.iter().copied().collect();
                ids.sort_unstable();
                (*d, sigs[d].0, ids)
            })
            .collect();
        let files: &'static [(Digest, u64, Vec<u32>)] = Vec::leak(files);
        Carver::new(files.iter().map(|(d, s, ids)| (*d, *s, &ids[..])), images.len(), original_bytes)
    }

    fn file(tag: &str, size: u64) -> FileRecord {
        FileRecord { path: tag.into(), digest: Digest::of(tag.as_bytes()), kind: FileKind::AsciiText, size }
    }

    fn layer(id: u8, files: Vec<FileRecord>) -> LayerProfile {
        LayerProfile {
            digest: Digest::of(&[id]),
            fls: files.iter().map(|f| f.size).sum(),
            cls: 1,
            dir_count: 1,
            file_count: files.len() as u64,
            max_depth: 1,
            files,
        }
    }

    /// Two images, one shared file and one private file each — all in
    /// differently-cut original layers so layer sharing saves nothing.
    fn setup() -> (Vec<Vec<Digest>>, FxHashMap<Digest, LayerProfile>) {
        let l1 = layer(1, vec![file("shared", 100), file("only-a", 10)]);
        let l2 = layer(2, vec![file("shared", 100), file("only-b", 20)]);
        let mut profiles = FxHashMap::default();
        let images = vec![vec![l1.digest], vec![l2.digest]];
        profiles.insert(l1.digest, l1);
        profiles.insert(l2.digest, l2);
        (images, profiles)
    }

    #[test]
    fn perfect_carving_reaches_dedup_bound() {
        let (images, profiles) = setup();
        let k = carver(&images, &profiles);
        let c = k.carve(&CarveConfig::default());
        // Original: 110 + 120 = 230; perfect: 100 + 10 + 20 = 130.
        assert_eq!(c.original_bytes, 230);
        assert_eq!(c.perfect_bytes, 130);
        assert_eq!(c.stored_bytes, 130);
        assert_eq!(c.duplicated_bytes(), 0);
        assert!((c.saving_factor() - 230.0 / 130.0).abs() < 1e-9);
        // Groups: {shared: both images}, {only-a: img0}, {only-b: img1}.
        assert_eq!(c.groups.len(), 3);
        let shared = c.groups.iter().find(|g| g.images.len() == 2).unwrap();
        assert_eq!(shared.bytes, 100);
        assert_eq!(c.layers_per_image, vec![2, 2]);
    }

    #[test]
    fn min_group_bytes_folds_small_groups() {
        let (images, profiles) = setup();
        // Threshold 50: the 10- and 20-byte private groups fold into
        // residuals (no duplication: single-image groups).
        let k = carver(&images, &profiles);
        let c = k.carve(&CarveConfig { min_group_bytes: 50 });
        assert_eq!(c.groups.len(), 1, "only the shared group survives");
        assert_eq!(c.residual_bytes, vec![10, 20]);
        assert_eq!(c.stored_bytes, 130, "single-image folds do not duplicate");
        assert_eq!(c.layers_per_image, vec![2, 2]);
    }

    #[test]
    fn folding_shared_groups_duplicates() {
        let (images, profiles) = setup();
        // Threshold beyond the shared group's 100 bytes: everything folds;
        // the shared file is duplicated into both images.
        let k = carver(&images, &profiles);
        let c = k.carve(&CarveConfig { min_group_bytes: 1000 });
        assert!(c.groups.is_empty());
        assert_eq!(c.residual_bytes, vec![110, 120]);
        assert_eq!(c.stored_bytes, 230);
        assert_eq!(c.duplicated_bytes(), 100);
        assert_eq!(c.layers_per_image, vec![1, 1]);
    }

    #[test]
    fn carving_never_stores_more_than_original_when_perfect() {
        let (images, profiles) = setup();
        let k = carver(&images, &profiles);
        let c = k.carve(&CarveConfig::default());
        assert!(c.stored_bytes <= c.original_bytes);
        assert_eq!(c.stored_bytes, c.perfect_bytes);
    }

    #[test]
    fn empty_inputs() {
        let k = carver(&[], &FxHashMap::default());
        let c = k.carve(&CarveConfig::default());
        assert_eq!(c.stored_bytes, 0);
        assert_eq!(c.saving_factor(), 1.0);
        assert_eq!(c.mean_layers_per_image(), 0.0);
    }

    #[test]
    fn image_coverage_preserved() {
        // Every image's unique file set must be exactly covered by its
        // carved groups + residual (checked on group membership).
        let l1 = layer(1, vec![file("a", 1), file("b", 2), file("c", 3)]);
        let l2 = layer(2, vec![file("b", 2), file("c", 3)]);
        let l3 = layer(3, vec![file("c", 3), file("d", 4)]);
        let mut profiles = FxHashMap::default();
        let images = vec![vec![l1.digest], vec![l2.digest], vec![l3.digest]];
        for l in [l1, l2, l3] {
            profiles.insert(l.digest, l);
        }
        let k = carver(&images, &profiles);
        let c = k.carve(&CarveConfig::default());
        for (idx, layers) in images.iter().enumerate() {
            let mut want: FxHashSet<Digest> = FxHashSet::default();
            for ld in layers {
                for f in &profiles[ld].files {
                    want.insert(f.digest);
                }
            }
            let mut got: FxHashSet<Digest> = FxHashSet::default();
            for g in &c.groups {
                if g.images.contains(&(idx as u32)) {
                    got.extend(g.files.iter().copied());
                }
            }
            assert_eq!(got, want, "image {idx} coverage");
        }
    }

    #[test]
    fn layer_count_tradeoff_is_monotone() {
        // Larger min_group_bytes ⇒ fewer or equal shared groups, more or
        // equal stored bytes.
        let l1 = layer(1, (0..40).map(|i| file(&format!("f{i}"), 10 + i)).collect());
        let l2 = layer(2, (20..60).map(|i| file(&format!("f{i}"), 10 + i)).collect());
        let mut profiles = FxHashMap::default();
        let images = vec![vec![l1.digest], vec![l2.digest]];
        profiles.insert(l1.digest, l1);
        profiles.insert(l2.digest, l2);
        let k = carver(&images, &profiles);
        let mut last_groups = usize::MAX;
        let mut last_bytes = 0u64;
        for t in [0u64, 20, 50, 1000, 100_000] {
            let c = k.carve(&CarveConfig { min_group_bytes: t });
            assert!(c.groups.len() <= last_groups);
            assert!(c.stored_bytes >= last_bytes);
            last_groups = c.groups.len();
            last_bytes = c.stored_bytes;
        }
    }
}
