//! Dedup ratio growth with dataset size (Fig. 25).
//!
//! The paper draws 4 random samples of increasing layer counts plus the
//! full dataset and shows the dedup ratio rising from 3.6× to 31.5× (count)
//! and 1.9× to 6.9× (capacity). The same procedure runs here: deterministic
//! samples of the layer population at increasing sizes.

use crate::FileIndex;
use dhub_model::LayerProfile;
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
pub fn dedup_growth(
    layers: &[&LayerProfile],
    sizes: &[usize],
    seed: u64,
    threads: usize,
) -> Vec<GrowthPoint> {
    let mut rng = Rng::new(seed);
    let mut indices: Vec<usize> = (0..layers.len()).collect();
    rng.shuffle(&mut indices);

    sizes
        .iter()
        .map(|&want| {
            let n = want.min(layers.len());
            // Prefix of one shuffle ⇒ samples are nested, like growing a
            // registry by adding layers.
            let sample: Vec<&LayerProfile> = indices[..n].iter().map(|&i| layers[i]).collect();
            let stats = FileIndex::build(&sample, threads).stats();
            GrowthPoint {
                layers: n,
                count_ratio: stats.count_ratio(),
                capacity_ratio: stats.capacity_ratio(),
            }
        })
        .collect()
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
    use dhub_model::{Digest, FileKind, FileRecord};

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
                            path: format!("f{proto}"),
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
        let points = dedup_growth(&refs, &[5, 50, 500], 7, 2);
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
        let pop = population(100);
        let refs: Vec<&LayerProfile> = pop.iter().collect();
        let a = dedup_growth(&refs, &[10, 100], 3, 2);
        let b = dedup_growth(&refs, &[10, 100], 3, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.layers, y.layers);
            assert!((x.count_ratio - y.count_ratio).abs() < 1e-12);
        }
    }

    #[test]
    fn oversized_sample_clamped() {
        let pop = population(20);
        let refs: Vec<&LayerProfile> = pop.iter().collect();
        let points = dedup_growth(&refs, &[1000], 3, 2);
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
