//! `radiosity` (SPLASH-2) — hierarchical radiosity with task stealing.
//!
//! **Nondeterministic**: patches are claimed from a shared work counter,
//! and each patch records bookkeeping that depends on *which* thread
//! processed it (per-thread interaction budgets, visit counters) — a
//! faithful miniature of radiosity's schedule-dependent task structures.
//! All 19 checking points (18 barriers + end) are nondeterministic in
//! Table 1.

use std::sync::Arc;

use instantcheck::DetClass;
use tsim::{Program, ProgramBuilder, ValKind};

use crate::util::mix64;
use crate::{AppSpec, THREADS};

/// Scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads.
    pub threads: usize,
    /// Patches per round.
    pub patches: usize,
    /// Task rounds (one barrier each).
    pub rounds: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            threads: THREADS,
            patches: 32,
            rounds: 18,
        }
    }
}

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let threads = p.threads;
    let patches = p.patches;
    let rounds = p.rounds;

    let mut b = ProgramBuilder::new(threads);
    // Per patch: [radiosity value, processed_by bookkeeping].
    let energy = b.global("patch_energy", ValKind::U64, patches);
    let owner = b.global("patch_owner", ValKind::U64, patches);
    let counter = b.global("work_counters", ValKind::U64, rounds);
    let done_by = b.global("tasks_done_by", ValKind::U64, threads);
    // Read-mostly model data: part of the state the traversal scheme
    // must hash at every checkpoint, but touched only rarely natively.
    let form_factors = b.global("form_factors", ValKind::U64, 384);
    let bar = b.barrier();

    b.setup(move |s| {
        for i in 0..patches {
            s.store(energy.at(i), mix64(i as u64) >> 40);
        }
        for i in 0..384 {
            s.store(form_factors.at(i), mix64(i as u64 + 404) >> 24);
        }
    });

    for tid in 0..threads {
        b.thread(async move |ctx| {
            for round in 0..rounds {
                // Work stealing: claim patches until the round's budget
                // is exhausted; which thread gets which patch depends
                // on the schedule.
                loop {
                    let k = ctx.fetch_add(counter.at(round), 1).await;
                    if k >= patches as u64 {
                        break;
                    }
                    let i = k as usize;
                    let _ff = ctx.load(form_factors.at((i * 13) % 384)).await;
                    let e = ctx.load(energy.at(i)).await;
                    ctx.store(energy.at(i), (e * 3).div_ceil(2)).await;
                    // Schedule-dependent bookkeeping: who did it, and
                    // each thread's running tally.
                    ctx.store(owner.at(i), tid as u64).await;
                    let t = ctx.load(done_by.at(tid)).await;
                    ctx.store(done_by.at(tid), t + 1).await;
                    ctx.work(175);
                }
                ctx.barrier(bar).await;
            }
        });
    }
    b.build()
}

fn make_spec(p: Params) -> AppSpec {
    AppSpec {
        name: "radiosity",
        suite: "splash2",
        uses_fp: false,
        expected_class: DetClass::Nondeterministic,
        expected_points: p.rounds + 1,
        ignore: instantcheck::IgnoreSpec::new(),
        build: Arc::new(move || build(&p)),
    }
}

/// Paper scale: 19 checking points, all nondeterministic.
pub fn spec() -> AppSpec {
    make_spec(Params::default())
}

/// Miniature for tests.
pub fn spec_scaled() -> AppSpec {
    make_spec(Params {
        threads: 4,
        patches: 12,
        rounds: 4,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use instantcheck::{Checker, CheckerConfig, Scheme};

    #[test]
    fn all_points_nondeterministic_but_energies_converge() {
        let spec = spec_scaled();
        let build = Arc::clone(&spec.build);
        let report = Checker::new(CheckerConfig::new(Scheme::HwInc).with_runs(10))
            .expect("valid config")
            .check(move || build())
            .unwrap();
        assert!(!report.is_deterministic());
        assert_eq!(report.det_points, 0, "Table 1: radiosity has 0 det points");
        assert!(!report.det_at_end);
    }

    #[test]
    fn every_patch_is_processed_every_round() {
        let p = Params {
            threads: 4,
            patches: 8,
            rounds: 2,
        };
        let a = build(&p).run(&tsim::RunConfig::random(3)).unwrap();
        let b = build(&p).run(&tsim::RunConfig::random(4)).unwrap();
        // The energy values themselves are schedule-independent (the
        // transform is applied exactly once per round per patch)…
        for i in 0..8u64 {
            assert_eq!(
                a.final_word(tsim::Addr(tsim::GLOBALS_BASE + i)),
                b.final_word(tsim::Addr(tsim::GLOBALS_BASE + i)),
            );
        }
    }
}
