//! Empirical CDFs — the primary rendering of almost every figure in the
//! paper (layer sizes, file counts, pull counts, dedup ratios, ...).

/// An empirical cumulative distribution function over f64 samples.
#[derive(Clone, Debug)]
pub struct Ecdf {
    /// Sorted samples.
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds from (unsorted) samples. NaNo samples are rejected.
    pub fn new(mut samples: Vec<f64>) -> Ecdf {
        assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample");
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ecdf { sorted: samples }
    }

    /// Builds from integer counts (the common case for file/dir counts).
    pub fn from_u64(samples: impl IntoIterator<Item = u64>) -> Ecdf {
        Ecdf::new(samples.into_iter().map(|x| x as f64).collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x` (the CDF value at `x`).
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `p`-quantile (p in `[0,1]`), nearest-rank method — matches how
    /// the paper reads values like "90 % of layers are smaller than 177 MB".
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty ECDF");
        assert!((0.0..=1.0).contains(&p));
        if p <= 0.0 {
            return self.sorted[0];
        }
        let rank = (p * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Convenience: the median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Smallest and largest samples.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap()
    }

    /// Iterates the sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_set() {
        let e = Ecdf::from_u64(1..=100);
        assert_eq!(e.median(), 50.0);
        assert_eq!(e.quantile(0.9), 90.0);
        assert_eq!(e.quantile(1.0), 100.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 100.0);
    }

    #[test]
    fn fraction_le() {
        let e = Ecdf::from_u64([1, 2, 2, 3]);
        assert_eq!(e.fraction_le(0.0), 0.0);
        assert_eq!(e.fraction_le(1.0), 0.25);
        assert_eq!(e.fraction_le(2.0), 0.75);
        assert_eq!(e.fraction_le(10.0), 1.0);
    }

    #[test]
    fn single_sample() {
        let e = Ecdf::new(vec![7.0]);
        assert_eq!(e.median(), 7.0);
        assert_eq!(e.quantile(0.99), 7.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        Ecdf::new(vec![1.0, f64::NAN]);
    }
}
