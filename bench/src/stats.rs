//! Sample summaries: the median and the "hi" percentile rule.

/// A timing median needs ten samples on each side of it.
pub const MIN_SAMPLES: usize = 21;

/// The tail is never reported beyond this percentile, however many samples
/// there are: with thousands of pulls the "ten samples beyond" rule alone
/// would pick p99.9, which a single scheduler hiccup moves.
pub const HI_CAP_PCT: f64 = 99.0;

/// Median and tail of one set of timing samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Timing {
    pub median: f64,
    /// The highest percentile (capped at [`HI_CAP_PCT`]) that still has ten
    /// samples beyond it; the maximum when `enough` is false.
    pub hi: f64,
    /// Which percentile `hi` is, in percent.
    pub hi_pct: f64,
    pub n: usize,
    /// False below [`MIN_SAMPLES`]: the numbers are a smoke reading only.
    pub enough: bool,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Plain median (mean of the two middle values for an even count); 0 for
/// an empty slice, which only non-applicable per-layer metrics produce.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Summarises timing samples under the percentile rule.
pub fn summarize(samples: &[f64]) -> Timing {
    let v = sorted(samples);
    let n = v.len();
    assert!(n > 0, "no timing samples");
    let enough = n >= MIN_SAMPLES;
    let (hi, hi_pct) = if enough {
        // Index n-11 has exactly ten samples beyond it.
        let cap = ((HI_CAP_PCT / 100.0) * n as f64).ceil() as usize;
        let idx = (n - 11).min(cap.max(1) - 1);
        (v[idx], (idx + 1) as f64 / n as f64 * 100.0)
    } else {
        (v[n - 1], 100.0)
    };
    Timing {
        median: median(&v),
        hi,
        hi_pct,
        n,
        enough,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 11 is coprime to every n used below, so this is a permutation of 1..=n.
        (0..n).map(|i| ((i * 11) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_needs_21_samples_to_count() {
        assert!(!summarize(&ramp(20)).enough);
        let t = summarize(&ramp(21));
        assert!(t.enough);
        assert_eq!(t.median, 11.0);
        assert_eq!(t.n, 21);
    }

    #[test]
    fn hi_has_exactly_ten_samples_beyond_it() {
        // 21 samples: the 11th (the median itself) is the only choice.
        let t = summarize(&ramp(21));
        assert_eq!(t.hi, 11.0);
        // 40 samples 1..=40: index 29 → value 30, ten values (31..=40) beyond.
        let t = summarize(&ramp(40));
        assert_eq!(t.hi, 30.0);
        assert!((t.hi_pct - 75.0).abs() < 1e-9);
    }

    #[test]
    fn hi_is_capped_at_p99() {
        let t = summarize(&ramp(5000));
        assert_eq!(t.hi, 4950.0);
        assert!((t.hi_pct - 99.0).abs() < 1e-9);
    }

    #[test]
    fn undersampled_reports_the_maximum() {
        let t = summarize(&[3.0, 1.0, 2.0]);
        assert!(!t.enough);
        assert_eq!((t.median, t.hi), (2.0, 3.0));
    }

    #[test]
    fn even_count_median_is_the_midpoint() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
