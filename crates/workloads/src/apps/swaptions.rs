//! `swaptions` (PARSEC) — Monte Carlo swaption pricing.
//!
//! A Monte Carlo simulation that is nonetheless **bit-by-bit
//! deterministic**: as the paper observes, each thread owns a
//! *thread-local* random number generator with no shared state, so given
//! the same seed every thread produces the same trial sequence for its
//! swaptions regardless of the interleaving. Determinism is checked at
//! the end of every simulation iteration (2500) plus the end of the
//! program = the 2501 points of Table 1.

use std::sync::Arc;

use instantcheck::DetClass;
use tsim::{Program, ProgramBuilder, ValKind};

use crate::util::{unit_f64, HandBarrier, LocalRng};
use crate::{AppSpec, THREADS};

/// Scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads (one swaption strip per thread).
    pub threads: usize,
    /// Monte Carlo iterations (one checkpoint each).
    pub iterations: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            threads: THREADS,
            iterations: 2_500,
        }
    }
}

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let threads = p.threads;
    let iterations = p.iterations;

    let mut b = ProgramBuilder::new(threads);
    let sums = b.global("payoff_sums", ValKind::F64, threads);
    let trials = b.global("trials", ValKind::U64, threads);
    let price = b.global("price", ValKind::F64, threads);
    // Read-mostly model data: part of the state the traversal scheme
    // must hash at every checkpoint, but touched only rarely natively.
    let yield_curve = b.global("yield_curve", ValKind::F64, 384);
    let hb = HandBarrier::new(&mut b, "mc_barrier", threads);

    b.setup(move |s| {
        for i in 0..384 {
            s.store_f64(yield_curve.at(i), 0.02 + 0.0001 * unit_f64(i as u64));
        }
    });

    for tid in 0..threads {
        b.thread(async move |ctx| {
            let mut rng = LocalRng::new(tid as u64 + 1);
            for _iter in 0..iterations {
                let _y = ctx.load_f64(yield_curve.at((ctx.tid() * 31) % 384)).await;
                // One Monte Carlo trial: simulate a short-rate path.
                let mut rate = 0.03;
                for _ in 0..4 {
                    rate += 0.002 * (rng.next_f64() - 0.5);
                    ctx.work(84);
                }
                let payoff = (rate - 0.03).max(0.0) * 1000.0;
                let s = ctx.load_f64(sums.at(tid)).await + payoff;
                ctx.store_f64(sums.at(tid), s).await;
                let n = ctx.load(trials.at(tid)).await + 1;
                ctx.store(trials.at(tid), n).await;
                ctx.store_f64(price.at(tid), s / n as f64).await;
                hb.wait_checkpoint(ctx, "mc_iteration").await;
            }
        });
    }
    b.build()
}

fn make_spec(p: Params) -> AppSpec {
    AppSpec {
        name: "swaptions",
        suite: "parsec",
        uses_fp: true,
        expected_class: DetClass::BitExact,
        expected_points: p.iterations + 1,
        ignore: instantcheck::IgnoreSpec::new(),
        build: Arc::new(move || build(&p)),
    }
}

/// Paper scale: 2501 checking points.
pub fn spec() -> AppSpec {
    make_spec(Params::default())
}

/// Miniature for tests.
pub fn spec_scaled() -> AppSpec {
    make_spec(Params {
        threads: 4,
        iterations: 8,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::{Addr, RunConfig, GLOBALS_BASE};

    #[test]
    fn monte_carlo_with_local_rngs_is_bitwise_deterministic() {
        let p = Params {
            threads: 4,
            iterations: 6,
        };
        let a = build(&p).run(&RunConfig::random(2)).unwrap();
        let b = build(&p).run(&RunConfig::random(33)).unwrap();
        for i in 0..12u64 {
            assert_eq!(
                a.final_word(Addr(GLOBALS_BASE + i)),
                b.final_word(Addr(GLOBALS_BASE + i))
            );
        }
    }

    #[test]
    fn prices_converge_to_something_positive() {
        let p = Params {
            threads: 2,
            iterations: 50,
        };
        let out = build(&p).run(&RunConfig::random(0)).unwrap();
        // price region comes after sums (2) and trials (2).
        let price0 = out.final_f64(Addr(GLOBALS_BASE + 4)).unwrap();
        assert!(price0.is_finite() && price0 >= 0.0);
        let trials0 = out.final_word(Addr(GLOBALS_BASE + 2)).unwrap();
        assert_eq!(trials0, 50);
    }

    #[test]
    fn checkpoint_count_matches() {
        let spec = spec_scaled();
        let out = spec.build().run(&RunConfig::random(0)).unwrap();
        assert_eq!(out.checkpoints as usize, spec.expected_points);
    }
}
