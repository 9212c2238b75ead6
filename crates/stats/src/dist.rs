//! Distribution samplers used by the synthetic hub generator.
//!
//! The paper's marginals are heavy-tailed: layer sizes and file sizes are
//! roughly log-normal with Pareto tails, repository popularity is Zipf-like
//! with an extra bump (Fig. 8), and file types are a weighted categorical
//! mix. Each sampler here is deterministic given the [`Rng`] stream.

use crate::rng::Rng;

/// Log-normal distribution: `exp(mu + sigma * N(0,1))`.
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    /// Mean of the underlying normal (i.e. `ln(median)`).
    pub mu: f64,
    /// Standard deviation of the underlying normal.
    pub sigma: f64,
}

impl LogNormal {
    /// Constructs from the median and the ratio p90/median, which is how the
    /// paper reports its distributions (e.g. layer FLS: median 4 MB, p90
    /// 177 MB). For a log-normal, `p90 = median * exp(1.2816 * sigma)`.
    pub fn from_median_p90(median: f64, p90: f64) -> LogNormal {
        assert!(median > 0.0 && p90 >= median);
        let sigma = (p90 / median).ln() / 1.281_551_565_544_6;
        LogNormal { mu: median.ln(), sigma }
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * rng.normal()).exp()
    }
}

/// Bounded Pareto distribution on `[lo, hi]` with shape `alpha`.
#[derive(Clone, Copy, Debug)]
pub struct Pareto {
    pub lo: f64,
    pub hi: f64,
    pub alpha: f64,
}

impl Pareto {
    /// Draws via inverse-CDF.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let u = rng.next_f64();
        let (l, h, a) = (self.lo, self.hi, self.alpha);
        let la = l.powf(a);
        let ha = h.powf(a);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / a)
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`:
/// `P(k) ∝ k^-s`. Sampling is inverse-CDF over a precomputed table, O(log n)
/// per draw; the table is built once per generator.
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Cumulative (unnormalized) weights; `cdf[k-1] = Σ_{i≤k} i^-s`.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draws a rank in `1..=n` (1 is the most popular).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cdf.last().unwrap();
        let u = rng.next_f64() * total;
        match self.cdf.binary_search_by(|x| x.partial_cmp(&u).unwrap()) {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

/// Weighted categorical sampler using Walker's alias method: O(n) build,
/// O(1) per draw. Used for file-type mixes where the generator draws
/// billions of file types at full scale.
#[derive(Clone, Debug)]
pub struct Categorical {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl Categorical {
    /// Builds from non-negative weights (not necessarily normalized).
    pub fn new(weights: &[f64]) -> Categorical {
        let n = weights.len();
        assert!(n > 0, "empty categorical");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "all-zero categorical weights");
        let scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0u32; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        let mut scaled = scaled;
        while !small.is_empty() && !large.is_empty() {
            let (s, l) = (small.pop().unwrap(), large.pop().unwrap());
            prob[s] = scaled[s];
            alias[s] = l as u32;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for i in large.into_iter().chain(small) {
            prob[i] = 1.0;
        }
        Categorical { prob, alias }
    }

    /// Draws an index.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let i = rng.below(self.prob.len() as u64) as usize;
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when there is exactly one category (len is never 0).
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn percentile(sorted: &[f64], p: f64) -> f64 {
        sorted[((sorted.len() as f64 - 1.0) * p) as usize]
    }

    #[test]
    fn lognormal_hits_median_and_p90() {
        let d = LogNormal::from_median_p90(4.0e6, 177.0e6);
        let mut rng = Rng::new(1);
        let mut xs: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = percentile(&xs, 0.5);
        let p90 = percentile(&xs, 0.9);
        assert!((med / 4.0e6 - 1.0).abs() < 0.05, "median {med}");
        assert!((p90 / 177.0e6 - 1.0).abs() < 0.10, "p90 {p90}");
    }

    #[test]
    fn pareto_bounds_respected() {
        let d = Pareto { lo: 10.0, hi: 1000.0, alpha: 1.2 };
        let mut rng = Rng::new(2);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((10.0..=1000.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let d = Pareto { lo: 1.0, hi: 1.0e9, alpha: 1.0 };
        let mut rng = Rng::new(3);
        let xs: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        // alpha=1 on [1, 1e9]: P(X > 1000) ≈ 1e-3, median = 2, mean ≈ ln(1e9) ≈ 20.7.
        let over_1000 = xs.iter().filter(|&&x| x > 1000.0).count();
        assert!((40..250).contains(&over_1000), "tail mass off: {over_1000}");
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[xs.len() / 2];
        let p999 = sorted[(xs.len() as f64 * 0.999) as usize];
        assert!(median < 3.0, "median {median}");
        // p99.9 ≈ 1000 for alpha=1: the far tail is orders of magnitude
        // above the median (the mean itself is too noisy to assert).
        assert!(p999 > 100.0 * median, "p99.9 {p999} vs median {median}");
    }

    #[test]
    fn zipf_rank1_dominates() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(4);
        let mut counts = vec![0usize; 1001];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[1] > counts[2] && counts[2] > counts[5]);
        // Rank-1 share for s=1, n=1000 is 1/H(1000) ≈ 13.4 %.
        let share = counts[1] as f64 / 100_000.0;
        assert!((0.11..0.16).contains(&share), "rank-1 share {share}");
    }

    #[test]
    fn categorical_matches_weights() {
        let c = Categorical::new(&[1.0, 2.0, 7.0]);
        let mut rng = Rng::new(5);
        let mut counts = [0usize; 3];
        let n = 200_000;
        for _ in 0..n {
            counts[c.sample(&mut rng)] += 1;
        }
        let shares: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        assert!((shares[0] - 0.1).abs() < 0.01, "{shares:?}");
        assert!((shares[1] - 0.2).abs() < 0.01, "{shares:?}");
        assert!((shares[2] - 0.7).abs() < 0.01, "{shares:?}");
    }

    #[test]
    fn categorical_single_and_zero_weight_categories() {
        let c = Categorical::new(&[5.0]);
        let mut rng = Rng::new(6);
        assert_eq!(c.sample(&mut rng), 0);
        let c = Categorical::new(&[0.0, 1.0, 0.0]);
        for _ in 0..1000 {
            assert_eq!(c.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn categorical_rejects_all_zero() {
        Categorical::new(&[0.0, 0.0]);
    }
}
