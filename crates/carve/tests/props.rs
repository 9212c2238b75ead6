//! Property tests: carving invariants over random image/file incidences,
//! and the threshold fold held to the one-shot carving it replaced.

use dhub_carve::{CarveConfig, Carver, Carving};
use dhub_digest::{FxHashMap, FxHashSet};
use dhub_model::{Digest, FileKind, FileRecord, LayerProfile};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};

type Images = Vec<Vec<Digest>>;
type Profiles = FxHashMap<Digest, LayerProfile>;

/// Builds a random population. Each `layer_picks` entry is one layer, its
/// files drawn from a universe of `universe` prototypes (so a layer can be
/// empty or hold one content twice); each `image_picks` entry is one
/// image's layer references, which may repeat a layer, share it with other
/// images, or name a layer that was never analyzed. Sizes come from a
/// short list, so groups tie on bytes, and span every threshold the folds
/// are checked at.
fn population(universe: u32, layer_picks: &[Vec<u32>], image_picks: &[Vec<u32>]) -> (Images, Profiles) {
    let layers: Vec<LayerProfile> = (layer_picks.iter().enumerate())
        .map(|(i, pick)| {
            let files: Vec<FileRecord> = pick
                .iter()
                .map(|&p| {
                    let p = p % universe.max(1);
                    let size = [0, 1, 100, 5_000, 70_000, 2_000_000][p as usize % 6];
                    let digest = Digest::of(&p.to_le_bytes());
                    FileRecord { digest, kind: FileKind::AsciiText, size }
                })
                .collect();
            LayerProfile {
                digest: Digest::of(&(i as u64).to_le_bytes()),
                fls: files.iter().map(|f| f.size).sum(),
                cls: 1,
                dir_count: 1,
                file_count: files.len() as u64,
                max_depth: 1,
                files,
            }
        })
        .collect();
    let unanalyzed = Digest::of(b"never analyzed");
    let images = (image_picks.iter())
        .map(|pick| {
            let layer = |&p: &u32| layers.get(p as usize % (layers.len() + 1)).map_or(unanalyzed, |l| l.digest);
            pick.iter().map(layer).collect()
        })
        .collect();
    (images, layers.into_iter().map(|l| (l.digest, l)).collect())
}

/// Each unique file's (digest, size, sorted image ids) in first-seen
/// order, and the original layering's bytes, found the plain way.
fn signatures(images: &Images, profiles: &Profiles) -> (Vec<(Digest, u64, Vec<u32>)>, u64) {
    let mut order = Vec::new();
    let mut sigs: FxHashMap<Digest, (u64, BTreeSet<u32>)> = FxHashMap::default();
    let mut seen_layers = FxHashSet::default();
    let mut original_bytes = 0;
    for (idx, layers) in images.iter().enumerate() {
        for ld in layers {
            let Some(lp) = profiles.get(ld) else { continue };
            if seen_layers.insert(*ld) {
                original_bytes += lp.fls;
            }
            for f in &lp.files {
                let e = sigs.entry(f.digest).or_insert_with(|| {
                    order.push(f.digest);
                    (f.size, BTreeSet::new())
                });
                e.1.insert(idx as u32);
            }
        }
    }
    let files = order.iter().map(|d| (*d, sigs[d].0, sigs[d].1.iter().copied().collect())).collect();
    (files, original_bytes)
}

fn carver<'s>(files: &'s [(Digest, u64, Vec<u32>)], images: usize, original_bytes: u64) -> Carver<'s> {
    Carver::new(files.iter().map(|(d, s, ids)| (*d, *s, &ids[..])), images, original_bytes)
}

/// A carved layer as the reference returns it: images, files, bytes.
type RefGroup = (Vec<u32>, Vec<Digest>, u64);

/// The reference: one whole carving per threshold, as `dhub-carve` did it
/// before the grouping was shared — a set of images per file, grouped by
/// signature, then folded.
struct RefCarving {
    groups: Vec<RefGroup>,
    residual_bytes: Vec<u64>,
    layers_per_image: Vec<u32>,
    stored_bytes: u64,
    original_bytes: u64,
    perfect_bytes: u64,
}

fn carve_reference(images: &Images, profiles: &Profiles, cfg: &CarveConfig) -> RefCarving {
    let mut file_images: FxHashMap<Digest, (u64, FxHashSet<u32>)> = FxHashMap::default();
    for (idx, layers) in images.iter().enumerate() {
        for ld in layers {
            let Some(lp) = profiles.get(ld) else { continue };
            for f in &lp.files {
                let e = file_images.entry(f.digest).or_insert_with(|| (f.size, FxHashSet::default()));
                e.1.insert(idx as u32);
            }
        }
    }

    let mut seen_layers = FxHashSet::default();
    let mut original_bytes = 0u64;
    for layers in images {
        for ld in layers {
            if seen_layers.insert(*ld) {
                if let Some(lp) = profiles.get(ld) {
                    original_bytes += lp.fls;
                }
            }
        }
    }

    let mut groups: FxHashMap<Vec<u32>, RefGroup> = FxHashMap::default();
    let mut perfect_bytes = 0u64;
    for (digest, (size, sig)) in file_images {
        perfect_bytes += size;
        let mut key: Vec<u32> = sig.into_iter().collect();
        key.sort_unstable();
        let g = groups.entry(key.clone()).or_insert_with(|| (key, Vec::new(), 0));
        g.1.push(digest);
        g.2 += size;
    }

    let mut residual_bytes = vec![0u64; images.len()];
    let mut kept: Vec<RefGroup> = Vec::new();
    for (_, g) in groups {
        if g.2 < cfg.min_group_bytes && g.0.len() > 1 {
            for &i in &g.0 {
                residual_bytes[i as usize] += g.2;
            }
        } else if g.2 < cfg.min_group_bytes {
            residual_bytes[g.0[0] as usize] += g.2;
        } else {
            kept.push(g);
        }
    }
    kept.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));

    let mut layers_per_image = vec![0u32; images.len()];
    for g in &kept {
        for &i in &g.0 {
            layers_per_image[i as usize] += 1;
        }
    }
    for (i, &r) in residual_bytes.iter().enumerate() {
        if r > 0 {
            layers_per_image[i] += 1;
        }
    }

    let stored_bytes = kept.iter().map(|g| g.2).sum::<u64>() + residual_bytes.iter().sum::<u64>();
    RefCarving { groups: kept, residual_bytes, layers_per_image, stored_bytes, original_bytes, perfect_bytes }
}

/// A group with its files sorted: neither side promises a file order
/// inside a group.
fn sorted(images: &[u32], files: &[Digest], bytes: u64) -> RefGroup {
    let mut files = files.to_vec();
    files.sort_unstable();
    (images.to_vec(), files, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At every threshold, each field of the fold over shared groups equals
    /// the reference's one-shot carving.
    #[test]
    fn fold_equals_the_one_shot_carving(
        universe in 1u32..40,
        layer_picks in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..30), 1..10),
        image_picks in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..5), 1..10),
    ) {
        let (images, profiles) = population(universe, &layer_picks, &image_picks);
        let (files, original_bytes) = signatures(&images, &profiles);
        let k = carver(&files, images.len(), original_bytes);
        for t in [0, 1, 4 << 10, 64 << 10, 1 << 20, u64::MAX] {
            let cfg = CarveConfig { min_group_bytes: t };
            let (c, want): (Carving, RefCarving) = (k.carve(&cfg), carve_reference(&images, &profiles, &cfg));
            let groups: Vec<RefGroup> = c.groups.iter().map(|g| sorted(g.images, g.files, g.bytes)).collect();
            let want_groups: Vec<RefGroup> = want.groups.iter().map(|g| sorted(&g.0, &g.1, g.2)).collect();
            prop_assert_eq!(groups, want_groups, "threshold {}", t);
            prop_assert_eq!(&c.residual_bytes, &want.residual_bytes, "threshold {}", t);
            prop_assert_eq!(&c.layers_per_image, &want.layers_per_image, "threshold {}", t);
            prop_assert_eq!(c.stored_bytes, want.stored_bytes, "threshold {}", t);
            prop_assert_eq!(c.original_bytes, want.original_bytes, "threshold {}", t);
            prop_assert_eq!(c.perfect_bytes, want.perfect_bytes, "threshold {}", t);
        }
    }

    /// Perfect carving always stores exactly the unique-file bound, never
    /// more than the original layering, and covers every image exactly.
    #[test]
    fn perfect_carving_invariants(
        universe in 1u32..40,
        layer_picks in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..30), 1..12),
        image_picks in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..4), 1..12),
    ) {
        let (images, profiles) = population(universe, &layer_picks, &image_picks);
        let (files, original_bytes) = signatures(&images, &profiles);
        let k = carver(&files, images.len(), original_bytes);
        let c = k.carve(&CarveConfig::default());
        prop_assert_eq!(c.stored_bytes, c.perfect_bytes);
        prop_assert!(c.stored_bytes <= c.original_bytes);
        prop_assert_eq!(c.duplicated_bytes(), 0);
        prop_assert!(c.saving_factor() >= 1.0);
        // Coverage: each image's unique file set equals the union of its groups.
        for (idx, layers) in images.iter().enumerate() {
            let mut want = HashSet::new();
            for ld in layers.iter().filter_map(|ld| profiles.get(ld)) {
                want.extend(ld.files.iter().map(|f| f.digest));
            }
            let mut got = HashSet::new();
            for g in &c.groups {
                if g.images.contains(&(idx as u32)) {
                    got.extend(g.files.iter().copied());
                }
            }
            prop_assert_eq!(got, want);
        }
        // Groups partition the unique-file universe (no digest in two groups).
        let mut seen = HashSet::new();
        for g in &c.groups {
            for f in g.files {
                prop_assert!(seen.insert(*f), "digest in two groups");
            }
        }
    }

    /// Folding monotonicity: higher thresholds never increase shared-group
    /// count and never decrease stored bytes.
    #[test]
    fn fold_threshold_monotone(
        universe in 1u32..30,
        layer_picks in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..20), 1..8),
        image_picks in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..4), 1..8),
    ) {
        let (images, profiles) = population(universe, &layer_picks, &image_picks);
        let (files, original_bytes) = signatures(&images, &profiles);
        let k = carver(&files, images.len(), original_bytes);
        let mut last_groups = usize::MAX;
        let mut last_bytes = 0u64;
        for t in [0u64, 50, 500, 5_000, 100_000, 5_000_000] {
            let c = k.carve(&CarveConfig { min_group_bytes: t });
            prop_assert!(c.groups.len() <= last_groups);
            prop_assert!(c.stored_bytes >= last_bytes);
            last_groups = c.groups.len();
            last_bytes = c.stored_bytes;
        }
    }
}
