//! `radix` (SPLASH-2) — parallel LSD radix sort of integer keys.
//!
//! Bit-by-bit deterministic (no FP at all): each pass computes disjoint
//! per-thread histograms, thread 0 turns them into per-(digit, thread)
//! scatter offsets, and each thread scatters its chunk into destination
//! slots that are disjoint by construction. Four 4-bit passes over
//! 16-bit keys give 4×3−1 = 11 barriers + end = the 12 checking points
//! of Table 1.
//!
//! The `order_violation` variant seeds the Figure 7(c) bug: in the third
//! pass, thread 3 performs its scatter *before* the scan barrier — once
//! (`justOnce`) — racing with thread 0's offset computation. The scatter
//! destinations are taken modulo the array size so the bug corrupts data
//! instead of crashing (the paper makes the same arrangement).

use std::sync::Arc;

use instantcheck::DetClass;
use tsim::{Program, ProgramBuilder, Region, ThreadCtx, ValKind};

use crate::util::mix64;
use crate::{AppSpec, THREADS};

const DIGIT_BITS: u32 = 4;
const RADIX: usize = 1 << DIGIT_BITS;
const PASSES: usize = 4; // 16-bit keys

/// Scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads.
    pub threads: usize,
    /// Keys per thread.
    pub keys_per_thread: usize,
    /// Seed the Figure 7(c) order violation in thread 3, pass 3.
    pub seed_order_violation: bool,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            threads: THREADS,
            keys_per_thread: 64,
            seed_order_violation: false,
        }
    }
}

struct Arrays {
    bufs: [Region; 2],
    hist: Region,    // [thread][digit]
    offsets: Region, // [digit][thread]
}

fn digit(key: u64, pass: usize) -> usize {
    ((key >> (pass as u32 * DIGIT_BITS)) & (RADIX as u64 - 1)) as usize
}

async fn scatter_chunk(
    ctx: &mut ThreadCtx,
    a: &Arrays,
    pass: usize,
    tid: usize,
    lo: usize,
    hi: usize,
    n: usize,
) {
    let src = a.bufs[pass % 2];
    let dst = a.bufs[(pass + 1) % 2];
    let threads = ctx.nthreads();
    // Local cursors per digit, starting at this thread's offsets.
    let mut cursor = [0u64; RADIX];
    for (d, c) in cursor.iter_mut().enumerate() {
        *c = ctx.load(a.offsets.at(d * threads + tid)).await;
    }
    for i in lo..hi {
        let key = ctx.load(src.at(i)).await;
        let d = digit(key, pass);
        let pos = (cursor[d] as usize) % n; // clamp: the seeded bug may
                                            // read garbage offsets
        ctx.store(dst.at(pos), key).await;
        cursor[d] += 1;
        ctx.work(56);
    }
}

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let threads = p.threads;
    let n = threads * p.keys_per_thread;
    let chunk = p.keys_per_thread;
    let seed_bug = p.seed_order_violation;

    let mut b = ProgramBuilder::new(threads);
    let buf0 = b.global("keys0", ValKind::U64, n);
    let buf1 = b.global("keys1", ValKind::U64, n);
    let hist = b.global("hist", ValKind::U64, threads * RADIX);
    let offsets = b.global("offsets", ValKind::U64, RADIX * threads);
    let bar = b.barrier();

    b.setup(move |s| {
        for i in 0..n {
            s.store(buf0.at(i), mix64(i as u64) & 0xFFFF);
        }
    });

    for tid in 0..threads {
        b.thread(async move |ctx| {
            let a = Arrays {
                bufs: [buf0, buf1],
                hist,
                offsets,
            };
            let lo = tid * chunk;
            let hi = lo + chunk;
            let mut did_buggy_scatter = false;
            for pass in 0..PASSES {
                let src = a.bufs[pass % 2];
                // Phase 1: local histogram (disjoint rows).
                for d in 0..RADIX {
                    ctx.store(a.hist.at(tid * RADIX + d), 0).await;
                }
                for i in lo..hi {
                    let key = ctx.load(src.at(i)).await;
                    let d = digit(key, pass);
                    let h = a.hist.at(tid * RADIX + d);
                    let v = ctx.load(h).await;
                    ctx.store(h, v + 1).await;
                    ctx.work(42);
                }
                ctx.barrier(bar).await;

                // Seeded order violation (Figure 7(c)): thread 3, pass 3,
                // exactly once — scatter *before* the scan barrier,
                // racing with thread 0's offset writes below.
                if seed_bug && tid == 3 && pass == 2 && !did_buggy_scatter {
                    did_buggy_scatter = true;
                    scatter_chunk(ctx, &a, pass, tid, lo, hi, n).await;
                }

                // Phase 2: thread 0 computes exclusive prefix offsets in
                // (digit, thread) order.
                if tid == 0 {
                    let mut running = 0u64;
                    for d in 0..RADIX {
                        for t in 0..ctx.nthreads() {
                            ctx.store(a.offsets.at(d * ctx.nthreads() + t), running)
                                .await;
                            running += ctx.load(a.hist.at(t * RADIX + d)).await;
                            ctx.work(28);
                        }
                    }
                }
                ctx.barrier(bar).await;

                // Phase 3: scatter into disjoint destination slots.
                if !(seed_bug && tid == 3 && pass == 2) {
                    scatter_chunk(ctx, &a, pass, tid, lo, hi, n).await;
                }
                if pass != PASSES - 1 {
                    ctx.barrier(bar).await;
                }
            }
        });
    }
    b.build()
}

fn make_spec(p: Params, name: &'static str, class: DetClass) -> AppSpec {
    AppSpec {
        name,
        suite: "splash2",
        uses_fp: false,
        expected_class: class,
        expected_points: PASSES * 3, // 11 barriers + end
        ignore: instantcheck::IgnoreSpec::new(),
        build: Arc::new(move || build(&p)),
    }
}

/// Paper scale: 12 checking points, deterministic.
pub fn spec() -> AppSpec {
    make_spec(Params::default(), "radix", DetClass::BitExact)
}

/// Miniature for tests.
pub fn spec_scaled() -> AppSpec {
    make_spec(
        Params {
            threads: 4,
            keys_per_thread: 16,
            ..Params::default()
        },
        "radix",
        DetClass::BitExact,
    )
}

/// The Figure 7(c) seeded order violation (Table 2 row 3).
pub fn spec_order_violation() -> AppSpec {
    make_spec(
        Params {
            seed_order_violation: true,
            ..Params::default()
        },
        "radix+order-violation",
        DetClass::Nondeterministic,
    )
}

/// Miniature of the seeded variant.
pub fn spec_order_violation_scaled() -> AppSpec {
    make_spec(
        Params {
            threads: 4,
            keys_per_thread: 16,
            seed_order_violation: true,
        },
        "radix+order-violation",
        DetClass::Nondeterministic,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::{Addr, RunConfig, GLOBALS_BASE};

    fn final_keys(out: &tsim::RunOutcome<tsim::NullMonitor>, n: usize) -> Vec<u64> {
        // PASSES is even, so the sorted output lands back in buf0.
        (0..n)
            .map(|i| out.final_word(Addr(GLOBALS_BASE + i as u64)).unwrap())
            .collect()
    }

    #[test]
    fn sorts_correctly_under_any_schedule() {
        let p = Params {
            threads: 4,
            keys_per_thread: 16,
            ..Params::default()
        };
        let n = 64;
        for seed in [0, 9, 42] {
            let out = build(&p).run(&RunConfig::random(seed)).unwrap();
            let keys = final_keys(&out, n);
            let mut expect: Vec<u64> = (0..n).map(|i| mix64(i as u64) & 0xFFFF).collect();
            expect.sort_unstable();
            assert_eq!(keys, expect, "seed {seed}");
        }
    }

    #[test]
    fn order_violation_corrupts_some_runs() {
        let p = Params {
            threads: 4,
            keys_per_thread: 16,
            seed_order_violation: true,
        };
        let n = 64;
        let mut expect: Vec<u64> = (0..n).map(|i| mix64(i as u64) & 0xFFFF).collect();
        expect.sort_unstable();
        let mut corrupted = 0;
        for seed in 0..12 {
            let out = build(&p).run(&RunConfig::random(seed)).unwrap();
            if final_keys(&out, n) != expect {
                corrupted += 1;
            }
        }
        assert!(
            corrupted > 0,
            "the race should corrupt at least one schedule"
        );
        assert!(
            corrupted < 12,
            "when thread 0 wins the race, output is correct"
        );
    }

    #[test]
    fn checkpoint_count_matches() {
        let spec = spec_scaled();
        let out = spec.build().run(&RunConfig::random(0)).unwrap();
        assert_eq!(out.checkpoints as usize, spec.expected_points);
    }
}
