//! `sphinx3` (ALPBench) — speech-recognition pipeline.
//!
//! Deterministic only after ignoring ~4% of the memory: the paper found
//! that memory allocated at 15 of sphinx3's 230 allocation sites is
//! nondeterministic (search-lattice scratch whose content depends on the
//! schedule), and deleting those sites from the hash makes the rest of
//! the state deterministic. This kernel allocates the same 230-site
//! profile (215 deterministic model/feature blocks, 15 nondeterministic
//! lattice blocks) and processes an utterance frame by frame with 8
//! barriers per frame — 533 frames × 8 = 4264 barriers + end = the 4265
//! checking points of Table 1.

use std::sync::{Arc, OnceLock};

use instantcheck::{DetClass, IgnoreSpec};
use tsim::{Program, ProgramBuilder, TypeTag, ValKind};

use crate::util::unit_f64;
use crate::{AppSpec, THREADS};

/// Total allocation sites, as in sphinx3.
pub const TOTAL_SITES: usize = 230;
/// Sites holding nondeterministic scratch, as in sphinx3.
pub const NDET_SITES: usize = 15;

/// Leaked static site names (`site_000` … `site_229`); the last
/// [`NDET_SITES`] are the nondeterministic ones.
fn site_names() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| {
        (0..TOTAL_SITES)
            .map(|i| {
                let name = if i >= TOTAL_SITES - NDET_SITES {
                    format!("lattice_site_{i:03}")
                } else {
                    format!("model_site_{i:03}")
                };
                &*Box::leak(name.into_boxed_str())
            })
            .collect()
    })
}

/// Scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads.
    pub threads: usize,
    /// Utterance frames (8 barriers each).
    pub frames: usize,
    /// Words per deterministic model block.
    pub model_block: usize,
    /// Words per nondeterministic lattice block.
    pub lattice_block: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            threads: THREADS,
            frames: 533,
            model_block: 10,
            lattice_block: 6,
        }
    }
}

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let threads = p.threads;
    let frames = p.frames;
    let model_block = p.model_block;
    let lattice_block = p.lattice_block;

    let mut b = ProgramBuilder::new(threads);
    // Handles to every allocated block.
    let blocks = b.global("block_ptrs", ValKind::U64, TOTAL_SITES);
    let score = b.global("utterance_score", ValKind::F64, 1);
    let slock = b.mutex();
    let llock = b.mutex();
    let bar = b.barrier();

    b.setup(move |s| {
        let names = site_names();
        for (i, name) in names.iter().enumerate() {
            let ndet = i >= TOTAL_SITES - NDET_SITES;
            let words = if ndet { lattice_block } else { model_block };
            let tag = if ndet {
                TypeTag::u64s()
            } else {
                TypeTag::f64s()
            };
            let addr = s.malloc(name, tag, words);
            s.store(blocks.at(i), addr.raw());
            if !ndet {
                for w in 0..words {
                    s.store_f64(addr.offset(w as u64), unit_f64((i * 31 + w) as u64));
                }
            }
        }
    });

    for tid in 0..threads {
        b.thread(async move |ctx| {
            let nthreads = ctx.nthreads();
            for frame in 0..frames {
                for phase in 0..8usize {
                    match phase % 4 {
                        0 | 2 => {
                            // Acoustic scoring: deterministic FP update
                            // of this thread's model blocks (disjoint).
                            let mut site = tid;
                            while site < TOTAL_SITES - NDET_SITES {
                                if site % 29 == (frame + phase) % 29 {
                                    let base = tsim::Addr(ctx.load(blocks.at(site)).await);
                                    let w = (frame + site) % model_block;
                                    let v = ctx.load_f64(base.offset(w as u64)).await;
                                    ctx.store_f64(
                                        base.offset(w as u64),
                                        (v * 1.0001 + 0.001).fract(),
                                    )
                                    .await;
                                    ctx.work(126);
                                }
                                site += nthreads;
                            }
                        }
                        1 => {
                            // Lattice expansion: every thread claims the
                            // frame's lattice slot under the lock — the
                            // last claimer wins, so the recorded value
                            // is schedule-dependent.
                            let site = TOTAL_SITES - NDET_SITES + frame % NDET_SITES;
                            let base = tsim::Addr(ctx.load(blocks.at(site)).await);
                            let w = frame % lattice_block;
                            ctx.lock(llock).await;
                            ctx.store(base.offset(w as u64), ((tid as u64) << 32) | frame as u64)
                                .await;
                            ctx.unlock(llock).await;
                            ctx.work(70);
                        }
                        _ => {
                            // Score reduction: locked FP accumulation
                            // (order-dependent ulps).
                            ctx.lock(slock).await;
                            let s = ctx.load_f64(score.at(0)).await;
                            ctx.store_f64(
                                score.at(0),
                                s + 0.001 * unit_f64((frame * 7 + tid) as u64),
                            )
                            .await;
                            ctx.unlock(slock).await;
                            ctx.work(42);
                        }
                    }
                    ctx.barrier(bar).await;
                }
            }
        });
    }
    b.build()
}

/// The 15-site ignore spec the programmer would write after the
/// localization tool points at the lattice sites.
pub fn ignore_spec() -> IgnoreSpec {
    let mut spec = IgnoreSpec::new();
    for name in &site_names()[TOTAL_SITES - NDET_SITES..] {
        spec = spec.ignore_site(*name);
    }
    spec
}

fn make_spec(p: Params) -> AppSpec {
    AppSpec {
        name: "sphinx3",
        suite: "alpBench",
        uses_fp: true,
        expected_class: DetClass::IgnoringStructs,
        expected_points: p.frames * 8 + 1,
        ignore: ignore_spec(),
        build: Arc::new(move || build(&p)),
    }
}

/// Paper scale: 4265 checking points.
pub fn spec() -> AppSpec {
    make_spec(Params::default())
}

/// Miniature for tests.
pub fn spec_scaled() -> AppSpec {
    make_spec(Params {
        threads: 4,
        frames: 4,
        model_block: 10,
        lattice_block: 6,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhash::FpRound;
    use instantcheck::{Checker, CheckerConfig, Scheme};

    fn campaign(runs: usize, round: bool, ignore: bool) -> instantcheck::CheckReport {
        let spec = spec_scaled();
        let build = Arc::clone(&spec.build);
        let mut cfg = CheckerConfig::new(Scheme::HwInc).with_runs(runs);
        if round {
            cfg = cfg.with_rounding(FpRound::default());
        }
        if ignore {
            cfg = cfg.with_ignore(spec.ignore.clone());
        }
        Checker::new(cfg)
            .expect("valid config")
            .check(move || build())
            .unwrap()
    }

    #[test]
    fn table1_pipeline_for_sphinx3() {
        assert!(!campaign(6, false, false).is_deterministic(), "bit-exact");
        assert!(
            !campaign(6, true, false).is_deterministic(),
            "lattice scratch survives FP rounding"
        );
        assert!(campaign(6, true, true).is_deterministic(), "isolated");
    }

    #[test]
    fn ignored_fraction_is_small() {
        let spec = spec_scaled();
        let out = spec.build().run(&tsim::RunConfig::random(0)).unwrap();
        let view = out.final_state();
        let ignored: usize = spec.ignore.resolve(&view).len();
        let total = view.live_word_count();
        let frac = ignored as f64 / total as f64;
        assert!(
            (0.01..0.10).contains(&frac),
            "ignored fraction {frac} should be a few percent (paper: 4%)"
        );
    }

    #[test]
    fn site_profile_matches_sphinx3() {
        assert_eq!(site_names().len(), 230);
        let spec = spec_scaled();
        let out = spec.build().run(&tsim::RunConfig::random(0)).unwrap();
        let view = out.final_state();
        assert_eq!(view.blocks().count(), 230);
    }
}
