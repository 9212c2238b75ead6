//! Descriptive summary statistics, the rows EXPERIMENTS.md compares against
//! the paper's reported anchors.

use crate::cdf::Ecdf;

/// A compact description of a sample distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub median: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Summary {
    /// Computes a summary from samples.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let e = Ecdf::new(samples.to_vec());
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        Some(Summary {
            count: samples.len(),
            min: e.min(),
            max: e.max(),
            mean,
            median: e.median(),
            p90: e.quantile(0.9),
            p99: e.quantile(0.99),
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} min={:.4} med={:.4} mean={:.4} p90={:.4} p99={:.4} max={:.4}",
            self.count, self.min, self.median, self.mean, self.p90, self.p99, self.max
        )
    }
}

/// Gini coefficient of a non-negative sample set — the standard inequality
/// measure for skew like Fig. 8's pull counts (0 = uniform, →1 = all mass
/// on one item).
pub fn gini(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    // G = (2 Σ i·x_i) / (n Σ x_i) − (n + 1)/n with 1-based ranks.
    let weighted: f64 = sorted.iter().enumerate().map(|(i, &x)| (i as f64 + 1.0) * x).sum();
    (2.0 * weighted) / (n as f64 * total) - (n as f64 + 1.0) / n as f64
}

/// Lorenz curve points `(population share, mass share)` at `k` knots —
/// the "what fraction of repos receive what fraction of pulls" view of the
/// popularity skew.
pub fn lorenz_curve(samples: &[f64], k: usize) -> Vec<(f64, f64)> {
    assert!(k >= 2);
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total: f64 = sorted.iter().sum();
    if sorted.is_empty() || total <= 0.0 {
        return (0..k).map(|i| (i as f64 / (k - 1) as f64, 0.0)).collect();
    }
    let mut cum = Vec::with_capacity(sorted.len());
    let mut acc = 0.0;
    for &x in &sorted {
        acc += x;
        cum.push(acc);
    }
    (0..k)
        .map(|i| {
            let p = i as f64 / (k - 1) as f64;
            let idx = ((p * sorted.len() as f64).round() as usize).min(sorted.len());
            let mass = if idx == 0 { 0.0 } else { cum[idx - 1] / total };
            (p, mass)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_range() {
        let s = Summary::of(&(1..=100).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.median, 50.0);
        assert_eq!(s.p90, 90.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn summary_of_empty() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn gini_known_cases() {
        // Uniform distribution: no inequality.
        assert!(gini(&[5.0, 5.0, 5.0, 5.0]).abs() < 1e-9);
        // All mass on one of n items: G = (n-1)/n.
        let g = gini(&[0.0, 0.0, 0.0, 10.0]);
        assert!((g - 0.75).abs() < 1e-9, "{g}");
        // Empty and all-zero inputs are defined as 0.
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
        // Skewed beats uniform.
        assert!(gini(&[1.0, 2.0, 4.0, 100.0]) > gini(&[1.0, 2.0, 3.0, 4.0]));
    }

    #[test]
    fn lorenz_curve_shape() {
        let pts = lorenz_curve(&[1.0, 1.0, 1.0, 97.0], 5);
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0], (0.0, 0.0));
        assert!((pts[4].1 - 1.0).abs() < 1e-9);
        // Convex: mass share below population share everywhere.
        for &(p, m) in &pts {
            assert!(m <= p + 1e-9, "({p},{m})");
        }
        // The top quarter holds 97 % of mass.
        assert!(pts[3].1 < 0.05);
    }
}
