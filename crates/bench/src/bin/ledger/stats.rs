//! Exact order statistics over sorted samples, plus the run-set
//! summaries `ledger compare` prints.
//!
//! Everything the benchmark reports as a percentile comes from here:
//! nearest-rank quantiles of the full sample, never a histogram bucket
//! (`lq-telemetry`'s log2 histograms collapse p50 onto `2^n − 1`).

use std::fmt;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why [`quantile`] refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantileError {
    /// No samples at all.
    Empty,
    /// `p` outside `(0, 1)` or not finite.
    BadPercentile,
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the percentile.
    Thin {
        /// Samples strictly beyond the nearest-rank position.
        beyond: usize,
    },
}

impl fmt::Display for QuantileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "no samples"),
            Self::BadPercentile => write!(f, "percentile must lie strictly between 0 and 1"),
            Self::Thin { beyond } => write!(
                f,
                "only {beyond} samples beyond the percentile (need {MIN_BEYOND})"
            ),
        }
    }
}

/// Sort a sample ascending (total order, so a stray NaN cannot panic;
/// callers only feed finite durations).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Nearest-rank position of percentile `p` in `n` sorted samples
/// (0-based): the smallest index with at least `p·n` samples at or
/// below it.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples on the thinner side of percentile `p`: above it for the
/// upper half, at or below it for the lower half (so the median of 20
/// samples has 10 beyond, p90 of 100 has 10, p99 of 1000 has 10).
fn beyond(n: usize, p: f64) -> usize {
    let at_or_below = rank(n, p) + 1;
    if p >= 0.5 {
        n - at_or_below
    } else {
        at_or_below
    }
}

/// The exact nearest-rank `p`-quantile of an ascending sample, with no
/// check on how well the sample supports it. Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// The exact nearest-rank `p`-quantile of an ascending sample, refused
/// unless at least [`MIN_BEYOND`] samples lie beyond it.
pub fn quantile(sorted: &[f64], p: f64) -> Result<f64, QuantileError> {
    if !(p.is_finite() && p > 0.0 && p < 1.0) {
        return Err(QuantileError::BadPercentile);
    }
    if sorted.is_empty() {
        return Err(QuantileError::Empty);
    }
    let beyond = beyond(sorted.len(), p);
    if beyond < MIN_BEYOND {
        return Err(QuantileError::Thin { beyond });
    }
    Ok(nearest_rank(sorted, p))
}

/// A reported percentile: its value and whether the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reported {
    /// Nearest-rank value.
    pub value: f64,
    /// Sample size.
    pub n: usize,
    /// True when fewer than [`MIN_BEYOND`] samples lie beyond it; the
    /// value is then printed with a `thin` mark.
    pub thin: bool,
}

/// Report percentile `p` of an ascending sample, marking instead of
/// refusing a thin one (every declared metric must be printed on every
/// run). Returns `None` only for an empty sample.
pub fn report(sorted: &[f64], p: f64) -> Option<Reported> {
    let thin = match quantile(sorted, p) {
        Ok(_) => false,
        Err(QuantileError::Thin { .. }) => true,
        Err(_) => return None,
    };
    Some(Reported {
        value: nearest_rank(sorted, p),
        n: sorted.len(),
        thin,
    })
}

/// Median of an unsorted sample by interpolation between the two
/// middle values (run-set summaries, where n is 3–10). Panics when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the spread
/// the acceptance driver computes. `None` below two samples or at a
/// zero median.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |q: usize| {
        // Exclusive method: position q·(n+1)/4, 1-based, clamped.
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    let med = median(&s);
    (med != 0.0).then(|| (cut(3) - cut(1)).abs() / med.abs())
}

/// FNV-1a over 64-bit words: the output digest two runs of one seed
/// must share.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in the bit patterns of a float slice.
    pub fn push_f32s(&mut self, xs: &[f32]) {
        for x in xs {
            self.push(u64::from(x.to_bits()));
        }
    }

    /// The digest as a number (to fold one digest into another).
    pub fn value(self) -> u64 {
        self.0
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_is_exact_on_a_ramp() {
        let s = ramp(100);
        assert_eq!(nearest_rank(&s, 0.5), 50.0);
        assert_eq!(nearest_rank(&s, 0.9), 90.0);
        assert_eq!(nearest_rank(&s, 0.99), 99.0);
        assert_eq!(nearest_rank(&ramp(7), 0.5), 4.0);
        assert_eq!(nearest_rank(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn ten_beyond_rule_sets_the_smallest_supporting_sample() {
        assert_eq!(quantile(&ramp(100), 0.9), Ok(90.0));
        assert_eq!(
            quantile(&ramp(99), 0.9),
            Err(QuantileError::Thin { beyond: 9 })
        );
        assert_eq!(quantile(&ramp(1000), 0.99), Ok(990.0));
        assert_eq!(
            quantile(&ramp(999), 0.99),
            Err(QuantileError::Thin { beyond: 9 })
        );
        assert_eq!(quantile(&ramp(20), 0.5), Ok(10.0));
        assert_eq!(
            quantile(&ramp(19), 0.5),
            Err(QuantileError::Thin { beyond: 9 })
        );
        // Lower tail: the samples at or below the rank count.
        assert_eq!(quantile(&ramp(100), 0.1), Ok(10.0));
        assert_eq!(
            quantile(&ramp(100), 0.05),
            Err(QuantileError::Thin { beyond: 5 })
        );
    }

    #[test]
    fn refuses_unsupported_percentiles() {
        let s = ramp(1000);
        for p in [0.0, 1.0, -0.1, 1.5, f64::NAN, f64::INFINITY] {
            assert_eq!(quantile(&s, p), Err(QuantileError::BadPercentile), "{p}");
        }
        assert_eq!(quantile(&[], 0.5), Err(QuantileError::Empty));
        assert!(QuantileError::Thin { beyond: 3 }.to_string().contains("3"));
    }

    #[test]
    fn report_marks_thin_instead_of_refusing() {
        let r = report(&ramp(48), 0.9).unwrap();
        assert_eq!((r.value, r.n, r.thin), (44.0, 48, true));
        assert!(!report(&ramp(100), 0.9).unwrap().thin);
        assert_eq!(report(&[], 0.9), None);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = quartile_spread(&ramp(10)).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
        let s = quartile_spread(&[10.0, 12.0, 11.0]).unwrap();
        assert!((s - 2.0 / 11.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = quartile_spread(&[1.0, 2.0]).unwrap();
        assert!((s - 1.5 / 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[4.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn digest_separates_orders_and_values() {
        let mut a = Digest::default();
        a.push(1);
        a.push(2);
        let mut b = Digest::default();
        b.push(2);
        b.push(1);
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.push_f32s(&[0.0]);
        let mut d = Digest::default();
        d.push_f32s(&[-0.0]);
        assert_ne!(c.hex(), d.hex());
        assert_eq!(a.hex().len(), 16);
    }
}
