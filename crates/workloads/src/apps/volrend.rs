//! `volrend` (SPLASH-2) — volume rendering with a benign data race.
//!
//! Bit-by-bit deterministic and integer-only. Threads render disjoint
//! tiles of each frame, synchronizing mid-frame with a **hand-coded
//! sense-reversing spin barrier whose release flag is read/written with
//! racy plain accesses** — the benign race the paper calls out:
//! InstantCheck correctly classifies volrend as deterministic anyway,
//! because the race never changes the final state. One pthread barrier
//! per frame: 5 barriers + end = the 6 checking points of Table 1.

use std::sync::Arc;

use instantcheck::DetClass;
use tsim::{Program, ProgramBuilder, ValKind};

use crate::util::{mix64, RacySenseBarrier};
use crate::{AppSpec, THREADS};

/// Scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads.
    pub threads: usize,
    /// Frames rendered (one pthread barrier each).
    pub frames: usize,
    /// Pixels per thread per frame.
    pub pixels_per_thread: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            threads: THREADS,
            frames: 5,
            pixels_per_thread: 32,
        }
    }
}

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let threads = p.threads;
    let frames = p.frames;
    let chunk = p.pixels_per_thread;
    let width = threads * chunk;

    let mut b = ProgramBuilder::new(threads);
    let image = b.global("image", ValKind::U64, width);
    let opacity = b.global("opacity", ValKind::U64, width);
    // Read-mostly model data: part of the state the traversal scheme
    // must hash at every checkpoint, but touched only rarely natively.
    let volume = b.global("volume", ValKind::U64, 768);
    let rb = RacySenseBarrier::new(&mut b, "render_spin_barrier", threads);
    let bar = b.barrier();

    b.setup(move |s| {
        for i in 0..768 {
            let v = s.input_rand(i as u64);
            s.store(volume.at(i), v);
        }
    });

    for tid in 0..threads {
        b.thread(async move |ctx| {
            let lo = tid * chunk;
            let mut sense = 0u64;
            for frame in 0..frames {
                let _voxel = ctx.load(volume.at((frame * 31 + tid) % 768)).await;
                // Pass 1: ray casting into the opacity buffer (disjoint
                // tiles).
                for i in lo..lo + chunk {
                    ctx.store(opacity.at(i), mix64((frame * width + i) as u64) >> 32)
                        .await;
                    ctx.work(105);
                }
                // Mid-frame sync through the racy hand-coded barrier:
                // compositing below reads *other* threads' opacity.
                rb.wait(ctx, &mut sense).await;
                // Pass 2: compositing (reads neighbors, writes own
                // tile).
                for i in lo..lo + chunk {
                    let left = ctx.load(opacity.at(i.saturating_sub(1))).await;
                    let own = ctx.load(opacity.at(i)).await;
                    let right = ctx.load(opacity.at((i + 1).min(width - 1))).await;
                    ctx.store(image.at(i), own ^ (left >> 1) ^ (right >> 2))
                        .await;
                    ctx.work(56);
                }
                ctx.barrier(bar).await;
            }
        });
    }
    b.build()
}

fn make_spec(p: Params) -> AppSpec {
    AppSpec {
        name: "volrend",
        suite: "splash2",
        uses_fp: false,
        expected_class: DetClass::BitExact,
        expected_points: p.frames + 1,
        ignore: instantcheck::IgnoreSpec::new(),
        build: Arc::new(move || build(&p)),
    }
}

/// Paper scale: 6 checking points.
pub fn spec() -> AppSpec {
    make_spec(Params::default())
}

/// Miniature for tests.
pub fn spec_scaled() -> AppSpec {
    make_spec(Params {
        threads: 4,
        frames: 3,
        pixels_per_thread: 8,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use instantcheck::{Checker, CheckerConfig, Scheme};
    use tsim::{Addr, RunConfig, GLOBALS_BASE};

    #[test]
    fn image_is_schedule_independent_despite_the_benign_race() {
        let p = Params {
            threads: 4,
            frames: 2,
            pixels_per_thread: 4,
        };
        let a = build(&p).run(&RunConfig::random(1)).unwrap();
        let b = build(&p).run(&RunConfig::random(31337)).unwrap();
        for i in 0..16u64 {
            assert_eq!(
                a.final_word(Addr(GLOBALS_BASE + i)),
                b.final_word(Addr(GLOBALS_BASE + i)),
                "pixel {i}"
            );
        }
    }

    #[test]
    fn instantcheck_classifies_volrend_deterministic() {
        // The headline property: the hand-coded barrier races are benign
        // and InstantCheck sees through them.
        let spec = spec_scaled();
        let build = Arc::clone(&spec.build);
        let report = Checker::new(CheckerConfig::new(Scheme::HwInc).with_runs(8))
            .expect("valid config")
            .check(move || build())
            .unwrap();
        assert!(report.is_deterministic());
    }

    #[test]
    fn checkpoint_count_matches() {
        let spec = spec_scaled();
        let out = spec.build().run(&RunConfig::random(0)).unwrap();
        assert_eq!(out.checkpoints as usize, spec.expected_points);
    }
}
