//! `blackscholes` (PARSEC) — data-parallel option pricing.
//!
//! Bit-by-bit deterministic: each thread prices a disjoint slice of the
//! option portfolio, so although the kernel is FP-heavy there is no
//! cross-thread FP reduction whose order could vary. Determinism is
//! checked at the end of every iteration of the simulation pass (via a
//! hand-coded barrier whose last arriver fires a manual checkpoint) —
//! 100 iterations + the end of the program = the 101 dynamic checking
//! points of Table 1.

use std::sync::Arc;

use instantcheck::DetClass;
use tsim::{Program, ProgramBuilder, ValKind};

use crate::util::{unit_f64, HandBarrier};
use crate::{AppSpec, THREADS};

/// Scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads.
    pub threads: usize,
    /// Options priced per thread.
    pub options_per_thread: usize,
    /// Simulation-pass iterations (one checkpoint each).
    pub iterations: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            threads: THREADS,
            options_per_thread: 16,
            iterations: 100,
        }
    }
}

/// A smooth stand-in for the cumulative normal of the Black–Scholes
/// formula.
fn phi(x: f64) -> f64 {
    0.5 * (1.0 + (0.8 * x).tanh())
}

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let n = p.threads * p.options_per_thread;
    let iterations = p.iterations;
    let chunk = p.options_per_thread;

    let mut b = ProgramBuilder::new(p.threads);
    let spot = b.global("spot", ValKind::F64, n);
    let strike = b.global("strike", ValKind::F64, n);
    let price = b.global("price", ValKind::F64, n);
    // Read-mostly model data: part of the state the traversal scheme
    // must hash at every checkpoint, but touched only rarely natively.
    let vol_surface = b.global("vol_surface", ValKind::F64, 384);
    let hb = HandBarrier::new(&mut b, "pass_barrier", p.threads);

    b.setup(move |s| {
        for i in 0..n {
            s.store_f64(spot.at(i), 50.0 + 100.0 * unit_f64(i as u64));
            s.store_f64(strike.at(i), 40.0 + 120.0 * unit_f64(i as u64 + 7_000));
        }
        for i in 0..384 {
            s.store_f64(vol_surface.at(i), 0.2 + 0.1 * unit_f64(i as u64 + 64_000));
        }
    });

    for tid in 0..p.threads {
        b.thread(async move |ctx| {
            let lo = tid * chunk;
            for iter in 0..iterations {
                let t = 1.0 + iter as f64 * 0.01; // time-to-expiry drift
                let _sigma = ctx.load_f64(vol_surface.at((iter * 3 + tid) % 384)).await;
                for i in lo..lo + chunk {
                    let s = ctx.load_f64(spot.at(i)).await;
                    let k = ctx.load_f64(strike.at(i)).await;
                    let d1 = (s / k).ln() / (0.3 * t.sqrt()) + 0.15 * t.sqrt();
                    let d2 = d1 - 0.3 * t.sqrt();
                    let v = s * phi(d1) - k * (-0.05 * t).exp() * phi(d2);
                    ctx.store_f64(price.at(i), v).await;
                    ctx.work(280); // formula evaluation
                }
                hb.wait_checkpoint(ctx, "pass_iteration").await;
            }
        });
    }
    b.build()
}

fn make_spec(p: Params) -> AppSpec {
    AppSpec {
        name: "blackscholes",
        suite: "parsec",
        uses_fp: true,
        expected_class: DetClass::BitExact,
        expected_points: p.iterations + 1,
        ignore: instantcheck::IgnoreSpec::new(),
        build: Arc::new(move || build(&p)),
    }
}

/// Paper scale: 101 dynamic checking points.
pub fn spec() -> AppSpec {
    make_spec(Params::default())
}

/// Miniature for tests.
pub fn spec_scaled() -> AppSpec {
    make_spec(Params {
        threads: 4,
        options_per_thread: 4,
        iterations: 5,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::RunConfig;

    #[test]
    fn prices_are_schedule_independent() {
        let p = Params {
            threads: 4,
            options_per_thread: 4,
            iterations: 3,
        };
        let a = build(&p).run(&RunConfig::random(1)).unwrap();
        let b = build(&p).run(&RunConfig::random(99)).unwrap();
        let price_base = tsim::Addr(tsim::GLOBALS_BASE + 32); // after spot+strike
        for i in 0..16 {
            assert_eq!(
                a.final_word(price_base.offset(i)),
                b.final_word(price_base.offset(i)),
                "option {i}"
            );
        }
    }

    #[test]
    fn checkpoint_count_matches_table1_structure() {
        let spec = spec_scaled();
        let out = spec.build().run(&RunConfig::random(0)).unwrap();
        assert_eq!(out.checkpoints as usize, spec.expected_points);
    }

    #[test]
    fn prices_are_sane() {
        let p = Params {
            threads: 2,
            options_per_thread: 2,
            iterations: 1,
        };
        let out = build(&p).run(&RunConfig::random(0)).unwrap();
        let price_base = tsim::Addr(tsim::GLOBALS_BASE + 8);
        for i in 0..4 {
            let v = f64::from_bits(out.final_word(price_base.offset(i)).unwrap());
            assert!(v.is_finite() && v >= -1.0, "price {v}");
        }
    }
}
