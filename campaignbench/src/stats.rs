//! Percentiles that refuse to extrapolate, and ratios that keep their
//! base.

use std::fmt;

/// A percentile needs at least this many samples beyond it.
pub const MIN_TAIL: usize = 10;

/// Why a percentile was not given.
#[derive(Debug, Clone, PartialEq)]
pub struct Refused {
    pub p: f64,
    pub samples: usize,
    pub needed: usize,
}

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} needs {} samples ({} beyond it), got {}",
            self.p * 100.0,
            self.needed,
            MIN_TAIL,
            self.samples
        )
    }
}

/// Samples needed for the `p` percentile to have [`MIN_TAIL`] samples
/// beyond it.
pub fn needed_for(p: f64) -> usize {
    // The epsilon absorbs the representation error of `1 - p`.
    (MIN_TAIL as f64 / (1.0 - p) - 1e-9).ceil() as usize
}

/// The `p` percentile (nearest rank) of `samples`, which must be
/// sorted ascending. Refused when fewer than [`MIN_TAIL`] samples lie
/// beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, Refused> {
    assert!((0.0..1.0).contains(&p), "percentile {p} outside [0, 1)");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let needed = needed_for(p);
    if sorted.len() < needed {
        return Err(Refused {
            p,
            samples: sorted.len(),
            needed,
        });
    }
    let rank = ((p * sorted.len() as f64 - 1e-9).ceil() as usize).max(1);
    Ok(sorted[rank - 1])
}

/// Like [`percentile`], but an empty sample set reads as 0: the layer
/// did no such work on this workload, which is itself the finding
/// (warm-replay simulates nothing). A non-empty set that is too small
/// is still refused.
pub fn percentile_or_zero(sorted: &[f64], p: f64) -> Result<f64, Refused> {
    if sorted.is_empty() {
        Ok(0.0)
    } else {
        percentile(sorted, p)
    }
}

/// Median by linear interpolation (for small sets of whole-run values
/// such as repeated set-up times).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// A ratio with its base: the numerator and denominator it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// `num / den`; 0 when the base is empty (no attempts, no
    /// fraction).
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
        assert_eq!(needed_for(0.5), 20);
        assert_eq!(needed_for(0.9), 100);
        assert_eq!(needed_for(0.99), 1000);
        for (p, n) in [(0.5, 20), (0.9, 100), (0.99, 1000)] {
            let err = percentile(&ramp(n - 1), p).expect_err("one sample short");
            assert_eq!(err.needed, n);
            assert_eq!(err.samples, n - 1);
            let v = percentile(&ramp(n), p).expect("exactly enough");
            let beyond = n - v as usize;
            assert!(beyond >= MIN_TAIL, "p{p}: {beyond} samples beyond");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(200);
        assert_eq!(percentile(&s, 0.5).unwrap(), 100.0);
        assert_eq!(percentile(&s, 0.9).unwrap(), 180.0);
        assert_eq!(percentile_or_zero(&[], 0.9).unwrap(), 0.0);
        assert!(
            percentile_or_zero(&[1.0], 0.9).is_err(),
            "one sample is refused, not zero"
        );
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!((r.num, r.den, r.value()), (3.0, 4.0, 0.75));
        assert_eq!(Ratio::new(0.0, 0.0).value(), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
