//! The Figure 6 instruction-count cost model.
//!
//! Four configurations of the same run are compared: *Native* (no
//! checking), *HW-InstantCheck_Inc*, *SW-InstantCheck_Inc-Ideal*, and
//! *SW-InstantCheck_Tr-Ideal*. As in the paper, software hashing costs 5
//! instructions per byte and the software schemes' other overheads are
//! ignored (that is what makes them *ideal* lower bounds); the HW
//! scheme's overhead is the zero-filling of allocations (plus the rare
//! checkpoint-time software loops). Monitors are passive, so all four
//! configurations execute the identical interleaving for a given seed.

use adhash::FpRound;
use tsim::{Program, RunConfig, SimError};

use crate::ignore::IgnoreSpec;
use crate::scheme::{CheckMonitor, Scheme};

/// Instruction counts for the four Figure 6 configurations of one
/// program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadReport {
    /// Native instructions (no checking).
    pub native: u64,
    /// Native + zero-fill + checkpoint-time software loops.
    pub hw_inc: u64,
    /// Native + zero-fill + per-store software hashing.
    pub sw_inc_ideal: u64,
    /// Native + zero-fill + per-checkpoint state traversal hashing.
    pub sw_tr_ideal: u64,
}

impl OverheadReport {
    /// `HW-InstantCheck_Inc` instructions normalized to Native.
    pub fn hw_ratio(&self) -> f64 {
        self.hw_inc as f64 / self.native as f64
    }

    /// `SW-InstantCheck_Inc-Ideal` normalized to Native.
    pub fn sw_inc_ratio(&self) -> f64 {
        self.sw_inc_ideal as f64 / self.native as f64
    }

    /// `SW-InstantCheck_Tr-Ideal` normalized to Native.
    pub fn sw_tr_ratio(&self) -> f64 {
        self.sw_tr_ideal as f64 / self.native as f64
    }
}

/// Measures the four configurations on one program.
///
/// `rounding` and `ignore` configure the checking schemes exactly as a
/// real campaign would run them (the sphinx3 "delete 4% of the state"
/// experiment is this function with a non-empty `ignore`).
///
/// # Errors
///
/// Propagates any [`SimError`] from the runs.
pub fn measure_overhead<F: Fn() -> Program>(
    source: F,
    seed: u64,
    rounding: Option<FpRound>,
    ignore: &IgnoreSpec,
) -> Result<OverheadReport, SimError> {
    let run = |scheme: Scheme| -> Result<(u64, u64, u64), SimError> {
        let mut rc = RunConfig::random(seed);
        if scheme.is_checking() {
            rc = rc.with_zero_fill_charged();
        }
        let monitor = CheckMonitor::new(scheme, rounding, ignore.clone());
        let out = source().run_with(&rc, monitor)?;
        Ok((
            out.total_instructions(),
            out.zero_fill_instr,
            out.monitor.into_hashes().extra_instr,
        ))
    };

    let (native, _, _) = run(Scheme::Native)?;
    let (n_hw, zf_hw, extra_hw) = run(Scheme::HwInc)?;
    let (n_si, zf_si, extra_si) = run(Scheme::SwInc)?;
    let (n_tr, zf_tr, extra_tr) = run(Scheme::SwTr)?;
    debug_assert_eq!(native, n_hw, "monitors must not perturb execution");
    debug_assert_eq!(native, n_si);
    debug_assert_eq!(native, n_tr);

    Ok(OverheadReport {
        native,
        hw_inc: n_hw + zf_hw + extra_hw,
        sw_inc_ideal: n_si + zf_si + extra_si,
        sw_tr_ideal: n_tr + zf_tr + extra_tr,
    })
}

/// Geometric mean of a ratio over many reports (the GEOM bar).
pub fn geometric_mean<I: IntoIterator<Item = f64>>(ratios: I) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for r in ratios {
        log_sum += r.ln();
        n += 1;
    }
    if n == 0 {
        return f64::NAN;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::{ProgramBuilder, TypeTag, ValKind};

    /// Many writes, few checkpoints: SW-Inc should cost more than SW-Tr.
    fn write_heavy() -> Program {
        let mut b = ProgramBuilder::new(2);
        let g = b.global("buf", ValKind::U64, 8);
        let bar = b.barrier();
        for t in 0..2 {
            b.thread(async move |ctx| {
                for i in 0..500u64 {
                    ctx.store(g.at(((i + t as u64) % 8) as usize), i).await;
                }
                ctx.barrier(bar).await;
            });
        }
        b.build()
    }

    /// Few writes, many checkpoints over a large state: SW-Tr should
    /// cost more than SW-Inc.
    fn checkpoint_heavy() -> Program {
        let mut b = ProgramBuilder::new(2);
        let g = b.global("state", ValKind::U64, 2000);
        let bar = b.barrier();
        for t in 0..2usize {
            b.thread(async move |ctx| {
                for i in 0..50u64 {
                    ctx.store(g.at(t), i).await;
                    ctx.barrier(bar).await;
                }
            });
        }
        b.build()
    }

    #[test]
    fn hw_overhead_is_tiny() {
        let r = measure_overhead(write_heavy, 1, None, &IgnoreSpec::new()).unwrap();
        assert!(r.hw_ratio() < 1.05, "hw ratio {}", r.hw_ratio());
        assert!(r.sw_inc_ratio() > r.hw_ratio());
        assert!(r.sw_tr_ratio() > r.hw_ratio());
    }

    #[test]
    fn crossover_matches_the_papers_explanation() {
        let wh = measure_overhead(write_heavy, 1, None, &IgnoreSpec::new()).unwrap();
        assert!(
            wh.sw_tr_ideal < wh.sw_inc_ideal,
            "many writes between checks: traversal is relatively cheap"
        );
        let ch = measure_overhead(checkpoint_heavy, 1, None, &IgnoreSpec::new()).unwrap();
        assert!(
            ch.sw_inc_ideal < ch.sw_tr_ideal,
            "few writes, many checks over a large state: incremental wins"
        );
    }

    #[test]
    fn zero_fill_shows_up_in_hw_overhead() {
        let alloc_heavy = || {
            let mut b = ProgramBuilder::new(1);
            b.thread(async |ctx| {
                for _ in 0..20 {
                    let p = ctx.malloc("buf", TypeTag::u64s(), 500).await;
                    ctx.store(p, 1).await;
                    ctx.free(p).await;
                }
            });
            b.build()
        };
        let r = measure_overhead(alloc_heavy, 1, None, &IgnoreSpec::new()).unwrap();
        assert!(r.hw_inc > r.native);
    }

    #[test]
    fn ignoring_state_costs_every_scheme_with_hw_cheapest() {
        let source = || {
            let mut b = ProgramBuilder::new(2);
            let g = b.global("noise", ValKind::U64, 400);
            let bar = b.barrier();
            for t in 0..2usize {
                b.thread(async move |ctx| {
                    for i in 0..20u64 {
                        ctx.store(g.at(t), i).await;
                        ctx.barrier(bar).await;
                    }
                });
            }
            b.build()
        };
        let plain = measure_overhead(source, 1, None, &IgnoreSpec::new()).unwrap();
        let spec = IgnoreSpec::new().ignore_global("noise");
        let del = measure_overhead(source, 1, None, &spec).unwrap();
        assert!(del.hw_inc > plain.hw_inc);
        assert!(del.sw_inc_ideal > plain.sw_inc_ideal);
        // Deleting state is much cheaper with hardware hash support.
        let hw_delta = del.hw_inc - plain.hw_inc;
        let sw_delta = del.sw_inc_ideal - plain.sw_inc_ideal;
        assert!(sw_delta > 10 * hw_delta, "hw {hw_delta} sw {sw_delta}");
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean([3.0]) - 3.0).abs() < 1e-12);
        assert!(geometric_mean(std::iter::empty()).is_nan());
    }
}
