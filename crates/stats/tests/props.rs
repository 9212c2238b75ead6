//! Property tests for the statistics toolkit.

use dhub_stats::{Categorical, Ecdf, Histogram, LogHistogram, Rng, Zipf};
use proptest::prelude::*;

proptest! {
    /// The PRNG stream is a pure function of the seed.
    #[test]
    fn rng_stream_stable(seed in any::<u64>()) {
        let a: Vec<u64> = { let mut r = Rng::new(seed); (0..16).map(|_| r.next_u64()).collect() };
        let b: Vec<u64> = { let mut r = Rng::new(seed); (0..16).map(|_| r.next_u64()).collect() };
        prop_assert_eq!(a, b);
    }

    /// below(n) always lands in range.
    #[test]
    fn below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(r.below(bound) < bound);
        }
    }

    /// ECDF quantiles are monotone in p and bounded by min/max.
    #[test]
    fn ecdf_quantile_monotone(mut xs in proptest::collection::vec(-1.0e9f64..1.0e9, 1..200)) {
        xs.iter_mut().for_each(|x| *x = x.round());
        let e = Ecdf::new(xs);
        let mut last = e.min();
        for i in 0..=20 {
            let q = e.quantile(i as f64 / 20.0);
            prop_assert!(q >= last);
            prop_assert!(q >= e.min() && q <= e.max());
            last = q;
        }
    }

    /// fraction_le is a proper CDF: 0 before min, 1 at max, monotone.
    #[test]
    fn ecdf_fraction_le(xs in proptest::collection::vec(0u64..10_000, 1..100)) {
        let e = Ecdf::from_u64(xs.iter().copied());
        prop_assert_eq!(e.fraction_le(e.max()), 1.0);
        prop_assert!(e.fraction_le(e.min() - 1.0) < 1.0 / e.len() as f64 + 1e-12);
        let mut last = 0.0;
        for x in (0..10_000).step_by(500) {
            let f = e.fraction_le(x as f64);
            prop_assert!(f >= last);
            last = f;
        }
    }

    /// Histogram conserves sample count across bins + out-of-range.
    #[test]
    fn histogram_conserves_count(xs in proptest::collection::vec(-100.0f64..200.0, 0..500)) {
        let mut h = Histogram::new(0.0, 100.0, 13);
        h.extend(xs.iter().copied());
        let binned: u64 = h.bins().iter().sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), xs.len() as u64);
    }

    /// Log histogram: every sample lands in exactly one row, and rows cover it.
    #[test]
    fn log_histogram_conserves(xs in proptest::collection::vec(any::<u64>(), 0..300)) {
        let mut h = LogHistogram::new();
        for &x in &xs { h.record(x); }
        let total: u64 = h.rows().iter().map(|&(_, _, c)| c).sum();
        prop_assert_eq!(total, xs.len() as u64);
        for &x in &xs {
            prop_assert!(h.rows().iter().any(|&(lo, hi, _)| x >= lo && (x < hi || hi == u64::MAX)));
        }
    }

    /// Categorical sampling never returns an out-of-range index and never
    /// returns a zero-weight category.
    #[test]
    fn categorical_respects_support(weights in proptest::collection::vec(0.0f64..10.0, 1..20), seed in any::<u64>()) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let c = Categorical::new(&weights);
        let mut r = Rng::new(seed);
        for _ in 0..200 {
            let i = c.sample(&mut r);
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "sampled zero-weight category {}", i);
        }
    }

    /// Zipf samples stay in 1..=n.
    #[test]
    fn zipf_in_range(n in 1usize..500, s in 0.1f64..2.5, seed in any::<u64>()) {
        let z = Zipf::new(n, s);
        let mut r = Rng::new(seed);
        for _ in 0..100 {
            let k = z.sample(&mut r);
            prop_assert!((1..=n).contains(&k));
        }
    }
}
