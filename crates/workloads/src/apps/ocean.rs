//! `ocean` (SPLASH-2) — red-black grid relaxation.
//!
//! Deterministic modulo FP precision: the grid sweeps write disjoint
//! row bands, but every sweep also accumulates a global residual under a
//! lock, whose last ulps depend on the accumulation order. 435
//! relaxation iterations × 2 barriers = 870 barriers + end = the 871
//! checking points of Table 1.
//!
//! Between two checkpoints only a small fraction of the state changes
//! (one band sweep + the residual) relative to the grid size, which is
//! why incremental hashing beats traversal hashing here (Figure 6).

use std::sync::Arc;

use instantcheck::DetClass;
use tsim::{Program, ProgramBuilder, ValKind};

use crate::util::unit_f64;
use crate::{AppSpec, THREADS};

/// Scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads (one row band each).
    pub threads: usize,
    /// Grid rows per thread.
    pub rows_per_thread: usize,
    /// Grid columns.
    pub cols: usize,
    /// Relaxation iterations (2 barriers each).
    pub iterations: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            threads: THREADS,
            rows_per_thread: 4,
            cols: 24,
            iterations: 435,
        }
    }
}

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let threads = p.threads;
    let rows = threads * p.rows_per_thread;
    let cols = p.cols;
    let band = p.rows_per_thread;
    let iterations = p.iterations;

    let mut b = ProgramBuilder::new(threads);
    let grid = b.global("grid", ValKind::F64, rows * cols);
    let residual = b.global("residual", ValKind::F64, 1);
    // Read-mostly model data: part of the state the traversal scheme
    // must hash at every checkpoint, but touched only rarely natively.
    let bathymetry = b.global("bathymetry", ValKind::F64, 512);
    let lock = b.mutex();
    let bar = b.barrier();

    b.setup(move |s| {
        for i in 0..rows * cols {
            s.store_f64(grid.at(i), unit_f64(i as u64));
        }
        for i in 0..512 {
            s.store_f64(bathymetry.at(i), unit_f64(i as u64 + 7_777));
        }
    });

    for tid in 0..threads {
        b.thread(async move |ctx| {
            let r0 = tid * band;
            for iter in 0..iterations {
                // Red sweep: update alternating cells of the band from
                // their neighbors (neighbor rows are stable during the
                // sweep because black cells are untouched).
                let mut local_res = 0.0;
                for r in r0..r0 + band {
                    for c in 0..cols {
                        if (r + c + iter) % 2 == 0 {
                            continue;
                        }
                        let i = r * cols + c;
                        let up = if r > 0 {
                            ctx.load_f64(grid.at(i - cols)).await
                        } else {
                            0.0
                        };
                        let down = if r + 1 < rows {
                            ctx.load_f64(grid.at(i + cols)).await
                        } else {
                            0.0
                        };
                        let left = if c > 0 {
                            ctx.load_f64(grid.at(i - 1)).await
                        } else {
                            0.0
                        };
                        let right = if c + 1 < cols {
                            ctx.load_f64(grid.at(i + 1)).await
                        } else {
                            0.0
                        };
                        let old = ctx.load_f64(grid.at(i)).await;
                        let new = 0.2 * (old + up + down + left + right);
                        ctx.store_f64(grid.at(i), new).await;
                        local_res += (new - old).abs();
                        ctx.work(63);
                    }
                }
                let _depth = ctx.load_f64(bathymetry.at(iter % 512)).await;
                ctx.barrier(bar).await;
                // Residual reduction: locked, order-dependent ulps.
                ctx.lock(lock).await;
                let r = ctx.load_f64(residual.at(0)).await;
                ctx.store_f64(residual.at(0), r + local_res).await;
                ctx.unlock(lock).await;
                ctx.barrier(bar).await;
            }
        });
    }
    b.build()
}

fn make_spec(p: Params) -> AppSpec {
    AppSpec {
        name: "ocean",
        suite: "splash2",
        uses_fp: true,
        expected_class: DetClass::FpRounded,
        expected_points: p.iterations * 2 + 1,
        ignore: instantcheck::IgnoreSpec::new(),
        build: Arc::new(move || build(&p)),
    }
}

/// Paper scale: 871 checking points.
pub fn spec() -> AppSpec {
    make_spec(Params::default())
}

/// Miniature for tests.
pub fn spec_scaled() -> AppSpec {
    make_spec(Params {
        threads: 4,
        rows_per_thread: 2,
        cols: 8,
        iterations: 4,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhash::FpRound;
    use instantcheck::{Checker, CheckerConfig, Scheme};

    #[test]
    fn fp_prec_class() {
        let spec = spec_scaled();
        let build = Arc::clone(&spec.build);
        let exact = Checker::new(CheckerConfig::new(Scheme::HwInc).with_runs(8))
            .expect("valid config")
            .check(move || build())
            .unwrap();
        assert!(!exact.is_deterministic(), "residual ulp noise expected");

        let build = Arc::clone(&spec.build);
        let rounded = Checker::new(
            CheckerConfig::new(Scheme::HwInc)
                .with_runs(8)
                .with_rounding(FpRound::default()),
        )
        .expect("valid config")
        .check(move || build())
        .unwrap();
        assert!(rounded.is_deterministic());
    }

    #[test]
    fn grid_itself_is_bitwise_deterministic() {
        // Only the residual carries ulp noise; the grid cells must be
        // bitwise identical across schedules.
        let p = Params {
            threads: 4,
            rows_per_thread: 2,
            cols: 8,
            iterations: 3,
        };
        let a = build(&p).run(&tsim::RunConfig::random(3)).unwrap();
        let b = build(&p).run(&tsim::RunConfig::random(17)).unwrap();
        for i in 0..64u64 {
            assert_eq!(
                a.final_word(tsim::Addr(tsim::GLOBALS_BASE + i)),
                b.final_word(tsim::Addr(tsim::GLOBALS_BASE + i)),
                "cell {i}"
            );
        }
    }

    #[test]
    fn checkpoint_count_matches() {
        let spec = spec_scaled();
        let out = spec.build().run(&tsim::RunConfig::random(0)).unwrap();
        assert_eq!(out.checkpoints as usize, spec.expected_points);
    }
}
