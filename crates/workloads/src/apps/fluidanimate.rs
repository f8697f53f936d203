//! `fluidanimate` (PARSEC) — particle fluid simulation on a cell grid.
//!
//! Deterministic modulo FP precision: each thread owns a slab of cells,
//! but density and force contributions to the *border* cells between
//! slabs are accumulated by both neighboring threads under per-border
//! locks — so the border cells' last ulps depend on the accumulation
//! order. With FP round-off the kernel is deterministic. 8 timesteps ×
//! 5 phase barriers = 40 barriers + end = the 41 checking points of
//! Table 1.

use std::sync::Arc;

use instantcheck::DetClass;
use tsim::{Program, ProgramBuilder, ValKind};

use crate::util::unit_f64;
use crate::{AppSpec, THREADS};

/// Scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads (one slab each).
    pub threads: usize,
    /// Cells per slab.
    pub cells_per_thread: usize,
    /// Timesteps (5 barriers each).
    pub timesteps: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            threads: THREADS,
            cells_per_thread: 16,
            timesteps: 8,
        }
    }
}

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let threads = p.threads;
    let chunk = p.cells_per_thread;
    let n = threads * chunk;
    let timesteps = p.timesteps;

    let mut b = ProgramBuilder::new(threads);
    let density = b.global("density", ValKind::F64, n);
    let force_g = b.global("force", ValKind::F64, n);
    let velocity = b.global("velocity", ValKind::F64, n);
    let position = b.global("position", ValKind::F64, n);
    // Read-mostly model data: part of the state the traversal scheme
    // must hash at every checkpoint, but touched only rarely natively.
    let kernel_table = b.global("kernel_table", ValKind::F64, 384);
    // One lock per slab border.
    let border_locks: Vec<_> = (0..threads).map(|_| b.mutex()).collect();
    let bar = b.barrier();

    b.setup(move |s| {
        for i in 0..n {
            s.store_f64(position.at(i), unit_f64(i as u64) * 0.1 + i as f64);
            s.store_f64(velocity.at(i), 0.0);
        }
        for i in 0..384 {
            s.store_f64(kernel_table.at(i), unit_f64(i as u64 + 2_718));
        }
    });

    for tid in 0..threads {
        let locks = border_locks.clone();
        b.thread(async move |ctx| {
            let lo = tid * chunk;
            let hi = lo + chunk;
            let left_border = lo; // shared with thread tid-1 (wraps)
            for ts in 0..timesteps {
                // Phase 1: rebuild grid (reset own densities/forces to
                // their per-cell base values; a nonzero base means the
                // border cells see three-term FP sums, whose rounding
                // depends on the association order).
                for i in lo..hi {
                    let x = ctx.load_f64(position.at(i)).await;
                    ctx.store_f64(density.at(i), 1.0 + 0.01 * x.fract()).await;
                    ctx.store_f64(force_g.at(i), 0.1 * x.fract()).await;
                    ctx.work(14);
                }
                let _w = ctx.load_f64(kernel_table.at((ts * 11 + tid) % 384)).await;
                ctx.barrier(bar).await;

                // Phase 2: densities. Interior cells are private; the
                // border cell is contributed to by both neighbors under
                // the border lock.
                for i in lo + 1..hi {
                    let x = ctx.load_f64(position.at(i)).await;
                    let d = ctx.load_f64(density.at(i)).await;
                    ctx.store_f64(density.at(i), d + 1.0 + 0.01 * x.fract())
                        .await;
                    ctx.work(56);
                }
                // Each border contribution is derived from this thread's
                // *own* interior, so the two neighbors contribute
                // different values to the shared cell.
                for &(cell, own, lock_idx) in &[
                    (left_border, lo + 1, tid),
                    (hi % n, hi - 1, (tid + 1) % threads),
                ] {
                    let x = ctx.load_f64(position.at(own)).await;
                    ctx.lock(locks[lock_idx]).await;
                    let d = ctx.load_f64(density.at(cell)).await;
                    ctx.store_f64(density.at(cell), d + 0.5 + 0.005 * x.fract())
                        .await;
                    ctx.unlock(locks[lock_idx]).await;
                    ctx.work(56);
                }
                ctx.barrier(bar).await;

                // Phase 3: forces (same sharing pattern as densities).
                for i in lo + 1..hi {
                    let d = ctx.load_f64(density.at(i)).await;
                    let f = ctx.load_f64(force_g.at(i)).await;
                    ctx.store_f64(force_g.at(i), f + 0.1 * (1.0 - d * 0.2))
                        .await;
                    ctx.work(56);
                }
                for &(cell, own, lock_idx) in &[
                    (left_border, lo + 1, tid),
                    (hi % n, hi - 1, (tid + 1) % threads),
                ] {
                    let d = ctx.load_f64(density.at(own)).await;
                    ctx.lock(locks[lock_idx]).await;
                    let f = ctx.load_f64(force_g.at(cell)).await;
                    ctx.store_f64(force_g.at(cell), f + 0.05 * (1.0 - d * 0.2))
                        .await;
                    ctx.unlock(locks[lock_idx]).await;
                    ctx.work(56);
                }
                ctx.barrier(bar).await;

                // Phase 4: collision handling (private).
                for i in lo..hi {
                    let f = ctx.load_f64(force_g.at(i)).await;
                    ctx.store_f64(force_g.at(i), f.clamp(-1.0, 1.0)).await;
                    ctx.work(21);
                }
                ctx.barrier(bar).await;

                // Phase 5: advance particles (private).
                for i in lo..hi {
                    let f = ctx.load_f64(force_g.at(i)).await;
                    let v = ctx.load_f64(velocity.at(i)).await * 0.99 + 0.01 * f;
                    ctx.store_f64(velocity.at(i), v).await;
                    let x = ctx.load_f64(position.at(i)).await + 0.01 * v;
                    ctx.store_f64(position.at(i), x).await;
                    ctx.work(35);
                }
                let _ = ts;
                ctx.barrier(bar).await;
            }
        });
    }
    b.build()
}

fn make_spec(p: Params) -> AppSpec {
    AppSpec {
        name: "fluidanimate",
        suite: "parsec",
        uses_fp: true,
        expected_class: DetClass::FpRounded,
        expected_points: p.timesteps * 5 + 1,
        ignore: instantcheck::IgnoreSpec::new(),
        build: Arc::new(move || build(&p)),
    }
}

/// Paper scale: 41 checking points.
pub fn spec() -> AppSpec {
    make_spec(Params::default())
}

/// Miniature for tests.
pub fn spec_scaled() -> AppSpec {
    make_spec(Params {
        threads: 4,
        cells_per_thread: 4,
        timesteps: 2,
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
        assert!(!exact.is_deterministic(), "border-cell ulp noise expected");

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
    fn checkpoint_count_matches() {
        let spec = spec_scaled();
        let out = spec.build().run(&tsim::RunConfig::random(0)).unwrap();
        assert_eq!(out.checkpoints as usize, spec.expected_points);
    }
}
