//! Floating-point round-off before hashing.
//!
//! Parallel reductions execute non-associative FP operations in different
//! orders in different runs, so bit-exact comparison of FP results reports
//! nondeterminism even for algorithmically deterministic code. InstantCheck
//! therefore optionally *rounds off* FP values before hashing them
//! (Sections 3.1 and 5 of the paper). Two rounding families are offered to
//! programmers:
//!
//! * **mantissa masking** — zero the least-significant `M` mantissa bits;
//!   discards small *relative* differences;
//! * **decimal rounding** — floor (or round) to `N` decimal digits;
//!   discards small *absolute* differences (the paper's default rounds to
//!   the closest 0.001).

/// Number of explicit mantissa bits in an IEEE-754 `f64`.
const MANTISSA_BITS: u32 = 52;

/// `10^d` for every decimal digit count `d` in `0..=18` (larger counts
/// clamp to 18); each power is exact in an `f64`.
const POW10: [f64; 19] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18,
];

/// `2^53`: from here on every `f64` is an integer.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

/// `x.trunc()` for `|x| < 2^53`, through the exact `i64` conversion: the
/// baseline x86-64 target has no rounding instruction, so `trunc`,
/// `round` and `floor` are software routines there. Keeps the sign of a
/// zero, as `trunc` does.
#[inline]
fn trunc_scaled(x: f64) -> f64 {
    ((x as i64) as f64).copysign(x)
}

/// `x.round()` (half away from zero) for `|x| < 2^53`. `x - trunc(x)` is
/// exact, so comparing it with `±0.5` decides the rounding exactly.
#[inline]
fn round_scaled(x: f64) -> f64 {
    let t = trunc_scaled(x);
    let frac = x - t;
    if frac >= 0.5 {
        t + 1.0
    } else if frac <= -0.5 {
        t - 1.0
    } else {
        t
    }
}

/// `x.floor()` for `|x| < 2^53`.
#[inline]
fn floor_scaled(x: f64) -> f64 {
    let t = trunc_scaled(x);
    if x < t {
        t - 1.0
    } else {
        t
    }
}

/// A floating-point round-off policy applied to FP values before hashing.
///
/// # Example
///
/// ```
/// use adhash::FpRound;
///
/// // Two runs of a parallel sum differ only in the last ulps:
/// let run_a: f64 = 0.1 + 0.2 + 0.3;
/// let run_b: f64 = 0.3 + 0.2 + 0.1;
/// assert_ne!(run_a.to_bits(), run_b.to_bits()); // bit-exactly different
///
/// let round = FpRound::default(); // nearest 0.001, the paper's default
/// assert_eq!(round.apply(run_a).to_bits(), round.apply(run_b).to_bits());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpRound {
    /// No rounding: compare FP values bit by bit.
    BitExact,
    /// Zero out the `bits` least-significant mantissa bits (relative
    /// tolerance of roughly `2^(bits-52)`).
    MaskMantissa {
        /// How many low mantissa bits to clear (0..=52).
        bits: u32,
    },
    /// Take the floor to a number with only `digits` decimal digits
    /// (absolute tolerance of `10^-digits`); the x86-rounding-style
    /// alternative of Section 3.1.
    FloorDecimal {
        /// How many decimal digits to keep.
        digits: u32,
    },
    /// Round to the *closest* multiple of `10^-digits` — the paper's
    /// default behaviour ("rounds to the closest 0.001").
    NearestDecimal {
        /// How many decimal digits to keep.
        digits: u32,
    },
}

impl Default for FpRound {
    /// The paper's default: round to the closest `0.001`.
    fn default() -> Self {
        FpRound::NearestDecimal { digits: 3 }
    }
}

impl FpRound {
    /// Returns `true` if this policy leaves values untouched.
    pub fn is_bit_exact(self) -> bool {
        matches!(self, FpRound::BitExact) || matches!(self, FpRound::MaskMantissa { bits: 0 })
    }

    /// Applies the round-off to one `f64` value.
    ///
    /// Non-finite values (NaN, ±∞) are returned unchanged: rounding exists
    /// to absorb last-ulp noise in ordinary arithmetic, and masking the
    /// mantissa of a NaN could silently turn it into an infinity.
    /// Decimal rounding also leaves values whose magnitude is too large to
    /// scale without overflow (≥ 2⁵³ · 10ᵈⁱᵍⁱᵗˢ) unchanged — such values
    /// have no fractional digits to round anyway.
    pub fn apply(self, x: f64) -> f64 {
        if !x.is_finite() {
            return x;
        }
        match self {
            FpRound::BitExact => x,
            FpRound::MaskMantissa { bits } => {
                let bits = bits.min(MANTISSA_BITS);
                if bits == 0 {
                    return x;
                }
                let mask = !((1u64 << bits) - 1);
                f64::from_bits(x.to_bits() & mask)
            }
            FpRound::FloorDecimal { digits } => Self::decimal(x, digits, true),
            FpRound::NearestDecimal { digits } => Self::decimal(x, digits, false),
        }
    }

    fn decimal(x: f64, digits: u32, floor: bool) -> f64 {
        let scale = POW10[digits.min(18) as usize];
        let scaled = x * scale;
        // Values this large have integral ulps already; rounding is a no-op
        // and the scaled arithmetic would lose precision, so skip it.
        if scaled.abs() >= TWO_POW_53 {
            return x;
        }
        // Rounding to nearest is this value. When it equals `x`, `x` is
        // already on the decimal grid (some `q / scale`) and returning
        // either is the same bits (equal `f64`s differ in bits only as
        // ±0, and `round` keeps the sign of a zero).
        let nearest = round_scaled(scaled) / scale;
        if !floor {
            return nearest;
        }
        // Leave on-grid values alone: otherwise re-applying floor-rounding
        // to its own output could step down one more grid cell whenever
        // `(q / scale) * scale` lands just below `q`.
        if nearest == x {
            return x;
        }
        floor_scaled(scaled) / scale
    }

    /// Applies the round-off to a value stored as raw `f64` bits, returning
    /// raw bits — the form used when hashing memory words.
    ///
    /// Canonicalizes `-0.0` to `+0.0` after rounding so that sums that
    /// differ only in the sign of a zero compare equal.
    pub fn apply_bits(self, bits: u64) -> u64 {
        // `+0.0` rounds to itself in every mode: every zero-filled word.
        if bits == 0 || self.is_bit_exact() {
            return bits;
        }
        let rounded = self.apply(f64::from_bits(bits));
        if rounded == 0.0 {
            return 0f64.to_bits();
        }
        rounded.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_exact_is_identity() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY] {
            let b = v.to_bits();
            assert_eq!(FpRound::BitExact.apply_bits(b), b);
        }
        assert!(FpRound::BitExact.is_bit_exact());
        assert!(FpRound::MaskMantissa { bits: 0 }.is_bit_exact());
        assert!(!FpRound::default().is_bit_exact());
    }

    #[test]
    fn default_absorbs_reduction_noise() {
        let round = FpRound::default();
        let a: f64 = 0.1 + 0.2 + 0.3;
        let b: f64 = 0.3 + 0.2 + 0.1;
        assert_ne!(a.to_bits(), b.to_bits());
        assert_eq!(round.apply_bits(a.to_bits()), round.apply_bits(b.to_bits()));
    }

    #[test]
    fn mask_mantissa_absorbs_relative_noise() {
        let round = FpRound::MaskMantissa { bits: 16 };
        let a: f64 = 1.0e9 + 0.0001;
        let b: f64 = 1.0e9 + 0.0002;
        assert_ne!(a.to_bits(), b.to_bits());
        assert_eq!(round.apply(a).to_bits(), round.apply(b).to_bits());
        // …but keeps large relative differences apart.
        assert_ne!(round.apply(1.0e9).to_bits(), round.apply(2.0e9).to_bits());
    }

    #[test]
    fn mask_mantissa_clamps_width() {
        let round = FpRound::MaskMantissa { bits: 99 };
        // Clamped to the full 52-bit mantissa: only sign+exponent survive.
        assert_eq!(round.apply(1.999), 1.0);
        assert_eq!(round.apply(-1.999), -1.0);
    }

    #[test]
    fn floor_decimal_keeps_digits() {
        let round = FpRound::FloorDecimal { digits: 3 };
        assert_eq!(round.apply(1.23456), 1.234);
        assert_eq!(round.apply(-1.23456), -1.235); // floor, not truncation
        assert_eq!(round.apply(2.0), 2.0);
    }

    #[test]
    fn nearest_decimal_rounds_both_ways() {
        let round = FpRound::NearestDecimal { digits: 3 };
        assert_eq!(round.apply(1.2344), 1.234);
        assert_eq!(round.apply(1.2346), 1.235);
    }

    #[test]
    fn non_finite_untouched() {
        for round in [
            FpRound::MaskMantissa { bits: 8 },
            FpRound::FloorDecimal { digits: 3 },
            FpRound::NearestDecimal { digits: 3 },
        ] {
            assert!(round.apply(f64::NAN).is_nan());
            assert_eq!(round.apply(f64::INFINITY), f64::INFINITY);
            assert_eq!(round.apply(f64::NEG_INFINITY), f64::NEG_INFINITY);
        }
    }

    #[test]
    fn huge_magnitudes_untouched_by_decimal_rounding() {
        let round = FpRound::NearestDecimal { digits: 3 };
        let huge = 1.0e300;
        assert_eq!(round.apply(huge), huge);
        assert_eq!(round.apply(-huge), -huge);
    }

    #[test]
    fn negative_zero_canonicalized() {
        let round = FpRound::NearestDecimal { digits: 3 };
        assert_eq!(
            round.apply_bits((-0.0f64).to_bits()),
            round.apply_bits(0.0f64.to_bits())
        );
        // Small negatives that round to zero also canonicalize.
        assert_eq!(round.apply_bits((-1.0e-9f64).to_bits()), 0.0f64.to_bits());
    }

    #[test]
    fn integer_rounding_matches_the_library_below_two_pow_53() {
        let check = |x: f64| {
            let (round, floor) = (round_scaled(x), floor_scaled(x));
            assert_eq!(round.to_bits(), x.round().to_bits(), "round {x:e}");
            assert_eq!(floor.to_bits(), x.floor().to_bits(), "floor {x:e}");
        };
        for x in [
            0.0,
            0.5,
            1.0,
            1.5,
            2.5,
            0.499_999_999_999_999_94,
            1e15 + 0.5,
        ]
        .into_iter()
        .chain([TWO_POW_53 / 2.0, TWO_POW_53 - 1.0])
        {
            for x in [x, f64::from_bits(x.to_bits() + 1)] {
                check(x);
                check(-x);
            }
            if x != 0.0 {
                check(f64::from_bits(x.to_bits() - 1));
            }
        }
        minicheck::check("integer_rounding_matches_the_library", 4096, |g| {
            let x = f64::from_bits(g.u64());
            let x = if x.abs() < TWO_POW_53 {
                x
            } else {
                g.finite_f64() % TWO_POW_53
            };
            check(x);
            // Halfway and near-halfway values at the default scale.
            check((x * 1e3).trunc() / 1e3 + 0.0005);
        });
    }

    #[test]
    fn zero_bits_take_the_shortcut_to_what_rounding_gives() {
        for round in [
            FpRound::BitExact,
            FpRound::MaskMantissa { bits: 0 },
            FpRound::MaskMantissa { bits: 20 },
            FpRound::MaskMantissa { bits: 99 },
            FpRound::FloorDecimal { digits: 0 },
            FpRound::FloorDecimal { digits: 2 },
            FpRound::NearestDecimal { digits: 3 },
            FpRound::NearestDecimal { digits: 40 },
        ] {
            assert_eq!(round.apply(0.0).to_bits(), 0, "{round:?}");
            assert_eq!(round.apply_bits(0), 0, "{round:?}");
        }
    }

    #[test]
    fn rounding_is_idempotent() {
        for round in [
            FpRound::MaskMantissa { bits: 12 },
            FpRound::FloorDecimal { digits: 3 },
            FpRound::NearestDecimal { digits: 3 },
        ] {
            for v in [0.0, 1.23456789, -987.654321, 1e-8, 12345.678] {
                let once = round.apply(v);
                let twice = round.apply(once);
                assert_eq!(once.to_bits(), twice.to_bits(), "{round:?} on {v}");
            }
        }
    }

    /// The decimal rounding as first written — `powi` for the scale, and
    /// the on-grid check before the rounding op for both modes — kept as
    /// the reference the table-driven version must match bit for bit.
    fn reference_decimal(x: f64, digits: u32, op: fn(f64) -> f64) -> f64 {
        let scale = 10f64.powi(digits.min(18) as i32);
        let scaled = x * scale;
        if scaled.abs() >= 2f64.powi(53) {
            return x;
        }
        if scaled.round() / scale == x {
            return x;
        }
        op(scaled) / scale
    }

    /// Both decimal modes at `digits` through `apply` and `apply_bits`,
    /// against the reference (non-finite values pass through, and a
    /// zero result canonicalizes to `+0.0` on the bits path).
    fn assert_decimal_matches_reference(bits: u64, digits: u32) {
        let x = f64::from_bits(bits);
        for (round, op) in [
            (
                FpRound::FloorDecimal { digits },
                f64::floor as fn(f64) -> f64,
            ),
            (FpRound::NearestDecimal { digits }, f64::round),
        ] {
            let want = if x.is_finite() {
                reference_decimal(x, digits, op)
            } else {
                x
            };
            let want_bits = if want == 0.0 { 0 } else { want.to_bits() };
            assert_eq!(
                round.apply(x).to_bits(),
                want.to_bits(),
                "{round:?} on {x:e} ({bits:#018x})"
            );
            assert_eq!(
                round.apply_bits(bits),
                want_bits,
                "{round:?} bits of {x:e} ({bits:#018x})"
            );
        }
    }

    #[test]
    fn power_table_is_powi_and_wide_digit_counts_clamp() {
        for (d, &p) in POW10.iter().enumerate() {
            assert_eq!(p.to_bits(), 10f64.powi(d as i32).to_bits(), "10^{d}");
        }
        assert_eq!(TWO_POW_53, 2f64.powi(53));
        for x in [0.123_456_789_012_345_6, -7.5e-12, 3.0e-300] {
            for wide in [19, 25, u32::MAX] {
                for (narrow, wider) in [
                    (
                        FpRound::FloorDecimal { digits: 18 },
                        FpRound::FloorDecimal { digits: wide },
                    ),
                    (
                        FpRound::NearestDecimal { digits: 18 },
                        FpRound::NearestDecimal { digits: wide },
                    ),
                ] {
                    assert_eq!(narrow.apply(x).to_bits(), wider.apply(x).to_bits());
                }
            }
        }
    }

    #[test]
    fn decimal_rounding_matches_the_reference_on_edge_cases() {
        for digits in 0..=20u32 {
            let scale = 10f64.powi(digits.min(18) as i32);
            let cutoff = 2f64.powi(53) / scale;
            let mut inputs = vec![
                0.0,
                -0.0,
                f64::MIN_POSITIVE,
                f64::MIN_POSITIVE / 2.0, // subnormal
                -f64::MIN_POSITIVE / 4.0,
                f64::from_bits(1), // smallest subnormal
                -f64::from_bits(1),
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN,
                f64::EPSILON,
                0.1 + 0.2 + 0.3,
                -(0.1 + 0.2 + 0.3),
                1.0 / 3.0,
                -2.0 / 3.0,
                cutoff,
                -cutoff,
                f64::from_bits(cutoff.to_bits() - 1),
                f64::from_bits(cutoff.to_bits() + 1),
                -f64::from_bits(cutoff.to_bits() - 1),
            ];
            for q in [-12_345i64, -3, -1, 0, 1, 2, 7, 999, 123_456_789] {
                let grid = q as f64 / scale;
                let half = (q as f64 + 0.5) / scale; // exact halfway case
                for v in [grid, half, -half] {
                    inputs.extend([v, f64::from_bits(v.to_bits().wrapping_add(1))]);
                    if v != 0.0 {
                        inputs.push(f64::from_bits(v.to_bits() - 1));
                    }
                }
            }
            for x in inputs {
                assert_decimal_matches_reference(x.to_bits(), digits);
            }
        }
    }

    #[test]
    fn decimal_rounding_matches_the_reference_on_random_bits() {
        minicheck::check("decimal_rounding_matches_the_reference", 2048, |g| {
            let digits = g.u32() % 21;
            // Raw bit patterns reach every exponent, NaN payloads and
            // subnormals. Decimal fractions `q / 10^k`, nudged by up to
            // one ulp, land on and beside the grid, where floor and
            // nearest part ways.
            let bits = if g.bool() {
                g.u64()
            } else {
                let q = g.u64_in(0, 1 << 41) as f64 - (1u64 << 40) as f64;
                let x = q / 10f64.powi(g.usize_in(0, 19) as i32);
                x.to_bits().wrapping_add(g.u64_in(0, 3)).wrapping_sub(1)
            };
            assert_decimal_matches_reference(bits, digits);
        });
    }
}
