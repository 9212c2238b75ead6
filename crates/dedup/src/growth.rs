//! Dedup ratio growth with dataset size (Fig. 25).
//!
//! The paper draws 4 random samples of increasing layer counts plus the
//! full dataset and shows the dedup ratio rising from 3.6× to 31.5× (count)
//! and 1.9× to 6.9× (capacity). The same procedure runs here, in one pass:
//! the samples are nested prefixes of one seeded shuffle, so walking the
//! shuffle once with running totals passes through every sample in turn.

use crate::file_dedup::{ratio, FileIndex};
use dhub_stats::Rng;

/// One point of the growth curve.
#[derive(Clone, Copy, Debug)]
pub struct GrowthPoint {
    /// Layers in the sample.
    pub layers: usize,
    pub count_ratio: f64,
    pub capacity_ratio: f64,
}

/// Computes dedup ratios for random samples of `sizes` layers each (plus
/// whatever sizes exceed the population, clamped to "all layers").
///
/// The samples are drawn from `index`'s layers by position. A content
/// counts as unique at the first sampled layer that holds it, and every
/// copy counts the content's indexed size; each point is then the running
/// integer sums divided once, so it equals the stats of an index built
/// over the same sample.
pub fn dedup_growth(index: &FileIndex, sizes: &[usize], seed: u64) -> Vec<GrowthPoint> {
    let layers = index.layer_count();
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..layers).collect();
    rng.shuffle(&mut order);

    let mut marks: Vec<usize> = sizes.iter().map(|&s| s.min(layers)).collect();
    marks.sort_unstable();
    marks.dedup();

    let entries = index.entries();
    let mut seen = vec![false; entries.len()];
    let (mut instances, mut bytes, mut unique, mut unique_bytes) = (0u64, 0u64, 0u64, 0u64);
    let mut walked = 0;
    let mut points = Vec::with_capacity(marks.len());
    for &n in &marks {
        for &at in &order[walked..n] {
            for &s in index.layer_slots(at) {
                let size = entries[s as usize].size;
                if !std::mem::replace(&mut seen[s as usize], true) {
                    unique += 1;
                    unique_bytes += size;
                }
                instances += 1;
                bytes += size;
            }
        }
        walked = n;
        points.push(GrowthPoint {
            layers: n,
            count_ratio: ratio(instances, unique),
            capacity_ratio: ratio(bytes, unique_bytes),
        });
    }

    let point = |s: usize| points[marks.binary_search(&s.min(layers)).expect("marked")];
    sizes.iter().map(|&s| point(s)).collect()
}

/// The sample ladder the figure uses, scaled to the population size:
/// four geometric steps plus the full dataset.
pub fn default_sample_sizes(population: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..4)
        .map(|i| ((population as f64) * 0.08 * 2.2f64.powi(i)) as usize)
        .filter(|&s| s >= 2 && s < population)
        .collect();
    sizes.push(population);
    sizes.dedup();
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhub_model::{Digest, FileKind, FileRecord, LayerProfile};

    /// Layers drawing from a small shared file universe: bigger samples
    /// cover more of the universe and re-hit it more often, so the ratio
    /// grows — the mechanism behind Fig. 25.
    fn population(n: usize) -> Vec<LayerProfile> {
        let mut rng = Rng::new(1);
        (0..n)
            .map(|i| {
                let files: Vec<FileRecord> = (0..30)
                    .map(|_| {
                        let proto = rng.below(400);
                        FileRecord {
                            digest: Digest::of(&proto.to_le_bytes()),
                            kind: FileKind::AsciiText,
                            size: 100 + proto % 50,
                        }
                    })
                    .collect();
                LayerProfile {
                    digest: Digest::of(&(i as u64).to_le_bytes()),
                    fls: files.iter().map(|f| f.size).sum(),
                    cls: 10,
                    dir_count: 1,
                    file_count: 30,
                    max_depth: 2,
                    files,
                }
            })
            .collect()
    }

    #[test]
    fn ratio_grows_with_sample_size() {
        let pop = population(500);
        let refs: Vec<&LayerProfile> = pop.iter().collect();
        let points = dedup_growth(&FileIndex::build(&refs), &[5, 50, 500], 7);
        assert_eq!(points.len(), 3);
        assert!(points[0].count_ratio < points[1].count_ratio);
        assert!(points[1].count_ratio < points[2].count_ratio);
        assert!(points[0].capacity_ratio < points[2].capacity_ratio);
        // Count ratio ≥ capacity ratio when hot files skew small... not
        // guaranteed in general; just require both > 1 for the full set.
        assert!(points[2].count_ratio > 2.0);
        assert!(points[2].capacity_ratio > 2.0);
    }

    #[test]
    fn deterministic_given_seed() {
        // Points come back in the order asked for, repeats included.
        let pop = population(100);
        let refs: Vec<&LayerProfile> = pop.iter().collect();
        let index = FileIndex::build(&refs);
        let bits = |p: &GrowthPoint| (p.layers, p.count_ratio.to_bits(), p.capacity_ratio.to_bits());
        let a: Vec<_> = dedup_growth(&index, &[10, 100], 3).iter().map(bits).collect();
        let b: Vec<_> = dedup_growth(&index, &[100, 10, 10], 3).iter().map(bits).collect();
        assert_eq!(b, vec![a[1], a[0], a[0]]);
        assert_eq!(dedup_growth(&index, &[10, 100], 3).iter().map(bits).collect::<Vec<_>>(), a);
    }

    #[test]
    fn oversized_sample_clamped() {
        let pop = population(20);
        let refs: Vec<&LayerProfile> = pop.iter().collect();
        let points = dedup_growth(&FileIndex::build(&refs), &[1000], 3);
        assert_eq!(points[0].layers, 20);
    }

    #[test]
    fn default_ladder_shape() {
        let sizes = default_sample_sizes(10_000);
        assert!(sizes.len() >= 4);
        assert_eq!(*sizes.last().unwrap(), 10_000);
        for w in sizes.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Tiny populations still produce a ladder ending at the population.
        let tiny = default_sample_sizes(10);
        assert_eq!(*tiny.last().unwrap(), 10);
    }
}
