//! `canneal` (PARSEC) — simulated annealing of a netlist.
//!
//! **Nondeterministic by algorithm**: threads repeatedly swap netlist
//! elements chosen by a *shared* random number generator (a word of
//! state mutated under a lock), so the sequence of random draws each
//! thread sees — and therefore the whole annealing trajectory — depends
//! on the schedule from the very first step. Every one of the 64
//! checking points (63 barriers + end) is nondeterministic in Table 1.
//! Contrast with `swaptions`, whose thread-local generators keep a Monte
//! Carlo simulation deterministic.

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
    /// Netlist elements.
    pub elements: usize,
    /// Annealing temperature steps (one barrier each).
    pub steps: usize,
    /// Swaps attempted per thread per step.
    pub swaps_per_step: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            threads: THREADS,
            elements: 64,
            steps: 63,
            swaps_per_step: 2,
        }
    }
}

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let threads = p.threads;
    let n = p.elements;
    let steps = p.steps;
    let swaps = p.swaps_per_step;

    let mut b = ProgramBuilder::new(threads);
    let netlist = b.global("netlist", ValKind::U64, n);
    let rng = b.global("shared_rng", ValKind::U64, 1);
    // Read-mostly model data: part of the state the traversal scheme
    // must hash at every checkpoint, but touched only rarely natively.
    let wire_costs = b.global("wire_costs", ValKind::U64, 384);
    let lock = b.mutex();
    let bar = b.barrier();

    b.setup(move |s| {
        for i in 0..n {
            s.store(netlist.at(i), i as u64);
        }
        s.store(rng.at(0), 0x1234_5678_9abc_def0);
        for i in 0..384 {
            s.store(wire_costs.at(i), mix64(i as u64 + 99) >> 32);
        }
    });

    for tid in 0..threads {
        b.thread(async move |ctx| {
            let mut probe = tid as u64;
            let _ = &mut probe;
            for _step in 0..steps {
                for _ in 0..swaps {
                    // Draw two positions from the shared RNG; the draw
                    // order across threads is schedule-dependent.
                    ctx.lock(lock).await;
                    let r1 = mix64(ctx.load(rng.at(0)).await);
                    let r2 = mix64(r1);
                    ctx.store(rng.at(0), r2).await;
                    // The swap positions mix in the drawing thread's id
                    // (each thread perturbs its own movable elements), so
                    // *which* thread drew matters, not just the order.
                    let i = (mix64(r1 ^ tid as u64) % n as u64) as usize;
                    let j = (mix64(r2 ^ tid as u64) % n as u64) as usize;
                    let a = ctx.load(netlist.at(i)).await;
                    let c = ctx.load(netlist.at(j)).await;
                    ctx.store(netlist.at(i), c).await;
                    ctx.store(netlist.at(j), a).await;
                    ctx.unlock(lock).await;
                    probe = probe.wrapping_add(1);
                    let _cost = ctx.load(wire_costs.at((probe % 384) as usize)).await;
                    ctx.work(210); // routing-cost evaluation
                }
                ctx.barrier(bar).await;
            }
        });
    }
    b.build()
}

fn make_spec(p: Params) -> AppSpec {
    AppSpec {
        name: "canneal",
        suite: "parsec",
        uses_fp: false,
        expected_class: DetClass::Nondeterministic,
        expected_points: p.steps + 1,
        ignore: instantcheck::IgnoreSpec::new(),
        build: Arc::new(move || build(&p)),
    }
}

/// Paper scale: 64 checking points, all nondeterministic.
pub fn spec() -> AppSpec {
    make_spec(Params::default())
}

/// Miniature for tests.
pub fn spec_scaled() -> AppSpec {
    make_spec(Params {
        threads: 4,
        elements: 16,
        steps: 5,
        swaps_per_step: 2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use instantcheck::{Checker, CheckerConfig, Scheme};

    #[test]
    fn every_checkpoint_is_nondeterministic() {
        let spec = spec_scaled();
        let build = Arc::clone(&spec.build);
        let report = Checker::new(CheckerConfig::new(Scheme::HwInc).with_runs(10))
            .expect("valid config")
            .check(move || build())
            .unwrap();
        assert!(!report.is_deterministic());
        assert_eq!(report.det_points, 0, "Table 1: canneal has 0 det points");
        assert!(!report.det_at_end);
        assert!(report.first_ndet_run.unwrap() <= 3);
    }

    #[test]
    fn netlist_stays_a_permutation() {
        let p = Params {
            threads: 4,
            elements: 16,
            steps: 3,
            swaps_per_step: 2,
        };
        let out = build(&p).run(&tsim::RunConfig::random(7)).unwrap();
        let mut seen: Vec<u64> = (0..16u64)
            .map(|i| out.final_word(tsim::Addr(tsim::GLOBALS_BASE + i)).unwrap())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..16u64).collect::<Vec<_>>());
    }
}
