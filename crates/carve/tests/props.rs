//! Property tests: carving invariants over random image/file incidences.

use dhub_carve::{carve, CarveConfig};
use dhub_digest::FxHashMap;
use dhub_model::{Digest, FileKind, FileRecord, LayerProfile};
use proptest::prelude::*;

/// Builds a random population: `n_images` images, each holding one layer
/// with files drawn from a universe of `universe` prototypes.
fn population(
    n_images: usize,
    universe: u32,
    picks: &[Vec<u32>],
) -> (Vec<Vec<Digest>>, FxHashMap<Digest, LayerProfile>) {
    let mut profiles = FxHashMap::default();
    let mut images = Vec::new();
    for (i, pick) in picks.iter().enumerate().take(n_images) {
        let files: Vec<FileRecord> = pick
            .iter()
            .map(|&p| {
                let p = p % universe.max(1);
                FileRecord {
                    path: format!("f{p}"),
                    digest: Digest::of(&p.to_le_bytes()),
                    kind: FileKind::AsciiText,
                    size: 10 + (p as u64 % 90),
                }
            })
            .collect();
        let lp = LayerProfile {
            digest: Digest::of(&(i as u64).to_le_bytes()),
            fls: files.iter().map(|f| f.size).sum(),
            cls: 1,
            dir_count: 1,
            file_count: files.len() as u64,
            max_depth: 1,
            files,
        };
        images.push(vec![lp.digest]);
        profiles.insert(lp.digest, lp);
    }
    (images, profiles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Perfect carving always stores exactly the unique-file bound, never
    /// more than the original layering, and covers every image exactly.
    #[test]
    fn perfect_carving_invariants(
        universe in 1u32..40,
        picks in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..30), 1..12),
    ) {
        let (images, profiles) = population(picks.len(), universe, &picks);
        let c = carve(&images, &profiles, &CarveConfig::default());
        prop_assert_eq!(c.stored_bytes, c.perfect_bytes);
        prop_assert!(c.stored_bytes <= c.original_bytes);
        prop_assert_eq!(c.duplicated_bytes(), 0);
        prop_assert!(c.saving_factor() >= 1.0);
        // Coverage: each image's unique file set equals the union of its groups.
        for (idx, layers) in images.iter().enumerate() {
            let mut want = std::collections::HashSet::new();
            for ld in layers {
                for f in &profiles[ld].files {
                    want.insert(f.digest);
                }
            }
            let mut got = std::collections::HashSet::new();
            for g in &c.groups {
                if g.images.contains(&(idx as u32)) {
                    got.extend(g.files.iter().copied());
                }
            }
            prop_assert_eq!(got, want);
        }
        // Groups partition the unique-file universe (no digest in two groups).
        let mut seen = std::collections::HashSet::new();
        for g in &c.groups {
            for f in &g.files {
                prop_assert!(seen.insert(*f), "digest in two groups");
            }
        }
    }

    /// Folding monotonicity: higher thresholds never increase shared-group
    /// count and never decrease stored bytes.
    #[test]
    fn fold_threshold_monotone(
        universe in 1u32..30,
        picks in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..20), 1..8),
    ) {
        let (images, profiles) = population(picks.len(), universe, &picks);
        let mut last_groups = usize::MAX;
        let mut last_bytes = 0u64;
        for t in [0u64, 50, 500, 5_000] {
            let c = carve(&images, &profiles, &CarveConfig { min_group_bytes: t });
            prop_assert!(c.groups.len() <= last_groups);
            prop_assert!(c.stored_bytes >= last_bytes);
            last_groups = c.groups.len();
            last_bytes = c.stored_bytes;
        }
    }
}
