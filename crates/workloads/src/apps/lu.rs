//! `lu` (SPLASH-2) — dense LU factorization without pivoting.
//!
//! Bit-by-bit deterministic: at elimination step `k`, the rows below the
//! pivot are distributed round-robin over the threads, so every matrix
//! element is updated by exactly one thread in a fixed order. One
//! barrier per elimination step — 67 barriers + end = the 68 checking
//! points of Table 1.

use std::sync::Arc;

use instantcheck::DetClass;
use tsim::{Program, ProgramBuilder, Region, ThreadCtx, ValKind};

use crate::util::unit_f64;
use crate::{AppSpec, THREADS};

/// Scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads.
    pub threads: usize,
    /// Matrix dimension (n×n); produces `n-1` barriers.
    pub n: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            threads: THREADS,
            n: 68,
        }
    }
}

fn at(m: Region, n: usize, r: usize, c: usize) -> tsim::Addr {
    m.at(r * n + c)
}

async fn eliminate(ctx: &mut ThreadCtx, m: Region, n: usize, k: usize, r: usize) {
    let pivot = ctx.load_f64(at(m, n, k, k)).await;
    let factor = ctx.load_f64(at(m, n, r, k)).await / pivot;
    ctx.store_f64(at(m, n, r, k), factor).await; // store L entry in place
    for c in k + 1..n {
        let v = ctx.load_f64(at(m, n, r, c)).await;
        let p = ctx.load_f64(at(m, n, k, c)).await;
        ctx.store_f64(at(m, n, r, c), v - factor * p).await;
        ctx.work(42);
    }
}

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let n = p.n;
    let threads = p.threads;
    let mut b = ProgramBuilder::new(threads);
    let m = b.global("matrix", ValKind::F64, n * n);
    let bar = b.barrier();

    b.setup(move |s| {
        for r in 0..n {
            for c in 0..n {
                // Diagonally dominant so no pivoting is needed.
                let v = if r == c {
                    n as f64 + 1.0 + unit_f64((r * n + c) as u64)
                } else {
                    unit_f64((r * n + c) as u64) - 0.5
                };
                s.store_f64(m.at(r * n + c), v);
            }
        }
    });

    for tid in 0..threads {
        b.thread(async move |ctx| {
            for k in 0..n - 1 {
                for r in k + 1..n {
                    if r % ctx.nthreads() == tid {
                        eliminate(ctx, m, n, k, r).await;
                    }
                }
                ctx.barrier(bar).await;
            }
        });
    }
    b.build()
}

fn make_spec(p: Params) -> AppSpec {
    AppSpec {
        name: "lu",
        suite: "splash2",
        uses_fp: true,
        expected_class: DetClass::BitExact,
        expected_points: p.n, // (n-1) barriers + end
        ignore: instantcheck::IgnoreSpec::new(),
        build: Arc::new(move || build(&p)),
    }
}

/// Paper scale: 68 checking points.
pub fn spec() -> AppSpec {
    make_spec(Params::default())
}

/// Miniature for tests.
pub fn spec_scaled() -> AppSpec {
    make_spec(Params { threads: 4, n: 10 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::{Addr, RunConfig, GLOBALS_BASE};

    fn read_matrix(out: &tsim::RunOutcome<tsim::NullMonitor>, n: usize) -> Vec<f64> {
        (0..n * n)
            .map(|i| out.final_f64(Addr(GLOBALS_BASE + i as u64)).unwrap())
            .collect()
    }

    #[test]
    fn factorization_is_schedule_independent() {
        let p = Params { threads: 4, n: 8 };
        let a = build(&p).run(&RunConfig::random(5)).unwrap();
        let b = build(&p).run(&RunConfig::random(55)).unwrap();
        let (ma, mb) = (read_matrix(&a, 8), read_matrix(&b, 8));
        assert_eq!(
            ma.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            mb.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lu_reconstructs_the_input() {
        let n = 6;
        let p = Params { threads: 2, n };
        let out = build(&p).run(&RunConfig::random(0)).unwrap();
        let f = read_matrix(&out, n);
        // Rebuild A = L*U from the in-place factors and compare to the
        // original input.
        for r in 0..n {
            for c in 0..n {
                let mut sum = 0.0;
                for k in 0..=r.min(c) {
                    let l = if k == r { 1.0 } else { f[r * n + k] };
                    let u = if k <= c { f[k * n + c] } else { 0.0 };
                    if k < r && k > c {
                        continue;
                    }
                    sum += l * u;
                }
                let orig = if r == c {
                    n as f64 + 1.0 + unit_f64((r * n + c) as u64)
                } else {
                    unit_f64((r * n + c) as u64) - 0.5
                };
                assert!(
                    (sum - orig).abs() < 1e-9,
                    "A[{r}][{c}] = {orig}, L*U = {sum}"
                );
            }
        }
    }

    #[test]
    fn checkpoint_count_matches() {
        let spec = spec_scaled();
        let out = spec.build().run(&RunConfig::random(0)).unwrap();
        assert_eq!(out.checkpoints as usize, spec.expected_points);
    }
}
