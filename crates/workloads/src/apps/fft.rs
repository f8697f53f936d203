//! `fft` (SPLASH-2) — iterative radix-2 FFT over complex data.
//!
//! Bit-by-bit deterministic: the bit-reversal phase and every butterfly
//! stage partition the array into disjoint per-thread slices, so the FP
//! operations happen in a fixed order regardless of the schedule. A
//! pthread barrier separates the phases — 12 barriers + the end of the
//! program = the 13 checking points of Table 1.
//!
//! This kernel rewrites the whole working set between consecutive
//! checkpoints, which is why (Figure 6) traversal-based hashing beats
//! incremental software hashing on it.

use std::sync::Arc;

use instantcheck::DetClass;
use tsim::{Program, ProgramBuilder, ValKind};

use crate::util::unit_f64;
use crate::{AppSpec, THREADS};

/// Scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads.
    pub threads: usize,
    /// log2 of the transform size.
    pub log2_n: u32,
}

impl Default for Params {
    fn default() -> Self {
        // 2^11 = 2048 points → 11 stages + 1 bit-reverse barrier = 12
        // barriers, 13 checking points.
        Params {
            threads: THREADS,
            log2_n: 11,
        }
    }
}

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let n = 1usize << p.log2_n;
    let stages = p.log2_n;
    let threads = p.threads;

    let mut b = ProgramBuilder::new(threads);
    let src_re = b.global("src_re", ValKind::F64, n);
    let src_im = b.global("src_im", ValKind::F64, n);
    let re = b.global("re", ValKind::F64, n);
    let im = b.global("im", ValKind::F64, n);
    let bar = b.barrier();

    b.setup(move |s| {
        for i in 0..n {
            s.store_f64(src_re.at(i), unit_f64(i as u64) * 2.0 - 1.0);
            s.store_f64(src_im.at(i), unit_f64(i as u64 + 40_000) * 2.0 - 1.0);
        }
    });

    let log2_n = p.log2_n;
    for tid in 0..threads {
        b.thread(async move |ctx| {
            let chunk = n / ctx.nthreads();
            let lo = tid * chunk;
            let hi = if tid == ctx.nthreads() - 1 {
                n
            } else {
                lo + chunk
            };

            // Phase 1: bit-reverse permutation (disjoint destination
            // slices).
            for i in lo..hi {
                let j = (i as u64).reverse_bits() >> (64 - log2_n);
                let r = ctx.load_f64(src_re.at(j as usize)).await;
                let x = ctx.load_f64(src_im.at(j as usize)).await;
                ctx.store_f64(re.at(i), r).await;
                ctx.store_f64(im.at(i), x).await;
                ctx.work(56);
            }
            ctx.barrier(bar).await;

            // Phase 2: one barrier per butterfly stage. Each stage's
            // butterflies are partitioned by the index of the *first*
            // element of the pair, so the pairs touched by different
            // threads are disjoint.
            for s in 0..stages {
                let half = 1usize << s;
                let step = half << 1;
                // Global list of butterflies: (block, j) with block in
                // (0..n).step_by(step), j in 0..half. Flatten and slice.
                let total = n / 2;
                let per = total / ctx.nthreads();
                let from = tid * per;
                let to = if tid == ctx.nthreads() - 1 {
                    total
                } else {
                    from + per
                };
                for k in from..to {
                    let block = (k / half) * step;
                    let j = k % half;
                    let angle = -2.0 * std::f64::consts::PI * j as f64 / step as f64;
                    let (w_re, w_im) = (angle.cos(), angle.sin());
                    let a = block + j;
                    let c = a + half;
                    let (ar, ai) = (ctx.load_f64(re.at(a)).await, ctx.load_f64(im.at(a)).await);
                    let (cr, ci) = (ctx.load_f64(re.at(c)).await, ctx.load_f64(im.at(c)).await);
                    let tr = w_re * cr - w_im * ci;
                    let ti = w_re * ci + w_im * cr;
                    ctx.store_f64(re.at(a), ar + tr).await;
                    ctx.store_f64(im.at(a), ai + ti).await;
                    ctx.store_f64(re.at(c), ar - tr).await;
                    ctx.store_f64(im.at(c), ai - ti).await;
                    ctx.work(140);
                }
                ctx.barrier(bar).await;
            }
        });
    }
    b.build()
}

fn make_spec(p: Params) -> AppSpec {
    AppSpec {
        name: "fft",
        suite: "splash2",
        uses_fp: true,
        expected_class: DetClass::BitExact,
        expected_points: p.log2_n as usize + 2, // bitrev + stages + end
        ignore: instantcheck::IgnoreSpec::new(),
        build: Arc::new(move || build(&p)),
    }
}

/// Paper scale: 13 checking points.
pub fn spec() -> AppSpec {
    make_spec(Params::default())
}

/// Miniature for tests (2^6 = 64 points).
pub fn spec_scaled() -> AppSpec {
    make_spec(Params {
        threads: 4,
        log2_n: 6,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::{Addr, RunConfig, GLOBALS_BASE};

    fn read_spectrum(out: &tsim::RunOutcome<tsim::NullMonitor>, n: usize) -> Vec<(f64, f64)> {
        let re_base = Addr(GLOBALS_BASE + 2 * n as u64);
        let im_base = Addr(GLOBALS_BASE + 3 * n as u64);
        (0..n)
            .map(|i| {
                (
                    out.final_f64(re_base.offset(i as u64)).unwrap(),
                    out.final_f64(im_base.offset(i as u64)).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn fft_is_schedule_independent_bitwise() {
        let p = Params {
            threads: 4,
            log2_n: 5,
        };
        let a = build(&p).run(&RunConfig::random(1)).unwrap();
        let b = build(&p).run(&RunConfig::random(77)).unwrap();
        assert_eq!(read_spectrum(&a, 32), read_spectrum(&b, 32));
    }

    #[test]
    fn fft_matches_reference_dft() {
        let p = Params {
            threads: 2,
            log2_n: 4,
        };
        let n = 16usize;
        let out = build(&p).run(&RunConfig::random(0)).unwrap();
        let got = read_spectrum(&out, n);

        // Reference O(n^2) DFT on the same input.
        let input: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                (
                    unit_f64(i as u64) * 2.0 - 1.0,
                    unit_f64(i as u64 + 40_000) * 2.0 - 1.0,
                )
            })
            .collect();
        for (k, &(gr, gi)) in got.iter().enumerate() {
            let (mut sr, mut si) = (0.0f64, 0.0f64);
            for (t, &(xr, xi)) in input.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                sr += xr * c - xi * s;
                si += xr * s + xi * c;
            }
            assert!((gr - sr).abs() < 1e-9, "re[{k}]: {gr} vs {sr}");
            assert!((gi - si).abs() < 1e-9, "im[{k}]: {gi} vs {si}");
        }
    }

    #[test]
    fn checkpoint_count_matches() {
        let spec = spec_scaled();
        let out = spec.build().run(&RunConfig::random(0)).unwrap();
        assert_eq!(out.checkpoints as usize, spec.expected_points);
    }
}
