//! `cholesky` (SPLASH-2) — task-parallel sparse factorization.
//!
//! Deterministic only after ignoring small structures. Three sources of
//! nondeterminism, as in the paper:
//!
//! 1. FP precision (a locked global flop-sum whose accumulation order
//!    varies),
//! 2. the custom task allocator (we route it to the simulator's `malloc`
//!    exactly as the paper routes cholesky's custom allocator to libc
//!    `malloc`, so addresses are controlled by the checker's replay),
//! 3. the per-thread **free-task lists** (`freeTask`): after a thread
//!    processes a task it links the task node onto its own free list, so
//!    the lists' membership, order and head pointers depend on which
//!    thread won which task.
//!
//! The factorization result itself is deterministic: every task updates
//! a disjoint block of the matrix, so execution order is irrelevant.
//! Excluding the task nodes and the free-list heads from the hash (and
//! rounding FP) makes the kernel deterministic — Table 1's
//! "small-struct" class. 3 barriers + end = 4 checking points.

use std::sync::Arc;

use instantcheck::{DetClass, IgnoreSpec};
use tsim::{Program, ProgramBuilder, TypeTag, ValKind};

use crate::util::{mix64, unit_f64};
use crate::{AppSpec, THREADS};

/// Scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads.
    pub threads: usize,
    /// Number of tasks (= matrix blocks).
    pub tasks: usize,
    /// Words per matrix block.
    pub block: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            threads: THREADS,
            tasks: 48,
            block: 8,
        }
    }
}

/// Task node layout: `[next, task_id]`.
const NODE_WORDS: usize = 2;

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let threads = p.threads;
    let tasks = p.tasks;
    let block = p.block;
    let n = tasks * block;

    let mut b = ProgramBuilder::new(threads);
    let matrix = b.global("matrix", ValKind::F64, n);
    let flops = b.global("flop_sum", ValKind::F64, 1);
    let qhead = b.global("queue_head", ValKind::U64, 1);
    let free_heads = b.global("free_task_heads", ValKind::U64, threads);
    // Read-mostly model data: part of the state the traversal scheme
    // must hash at every checkpoint, but touched only rarely natively.
    let structure = b.global("sparsity_structure", ValKind::U64, 384);
    let qlock = b.mutex();
    let flock = b.mutex();
    let bar = b.barrier();

    b.setup(move |s| {
        for i in 0..n {
            s.store_f64(matrix.at(i), 1.0 + unit_f64(i as u64));
        }
        // The "custom allocator" of the paper, routed through malloc:
        // build the initial task queue as a linked list of task nodes.
        let mut head = 0u64;
        for t in (0..tasks).rev() {
            let node = s.malloc("task_node", TypeTag::u64s(), NODE_WORDS);
            s.store(node, head); // next
            s.store(node.offset(1), t as u64); // task id
            head = node.raw();
        }
        s.store(qhead.at(0), head);
        for i in 0..384 {
            s.store(structure.at(i), mix64(i as u64 + 5) >> 16);
        }
    });

    for tid in 0..threads {
        b.thread(async move |ctx| {
            // Phase 1: per-thread warmup of disjoint matrix stripes.
            let stripe = n / ctx.nthreads();
            for i in tid * stripe..(tid + 1) * stripe {
                let v = ctx.load_f64(matrix.at(i)).await;
                ctx.store_f64(matrix.at(i), v * 1.01).await;
                ctx.work(28);
            }
            ctx.barrier(bar).await;

            // Phase 2: task processing. Pop from the shared queue;
            // every task updates its own disjoint block.
            loop {
                ctx.lock(qlock).await;
                let head = ctx.load(qhead.at(0)).await;
                if head == 0 {
                    ctx.unlock(qlock).await;
                    break;
                }
                let node = tsim::Addr(head);
                let next = ctx.load(node).await;
                ctx.store(qhead.at(0), next).await;
                ctx.unlock(qlock).await;

                let _nz = ctx.load(structure.at((ctx.tid() * 37) % 384)).await;
                let t = ctx.load(node.offset(1)).await as usize;
                let mut local_flops = 0.0;
                for j in 0..block {
                    let i = t * block + j;
                    let v = ctx.load_f64(matrix.at(i)).await;
                    let f = (v + 0.5).sqrt();
                    ctx.store_f64(matrix.at(i), f).await;
                    local_flops += f;
                    ctx.work(84);
                }
                // Order-dependent FP accumulation (source 1).
                ctx.lock(flock).await;
                let s = ctx.load_f64(flops.at(0)).await;
                ctx.store_f64(flops.at(0), s + local_flops).await;
                ctx.unlock(flock).await;

                // Recycle the node onto this thread's free list
                // (source 3): membership and link order are
                // schedule-dependent.
                let old = ctx.load(free_heads.at(tid)).await;
                ctx.store(node, old).await;
                ctx.store(free_heads.at(tid), node.raw()).await;
            }
            ctx.barrier(bar).await;

            // Phase 3: normalize own stripes (deterministic).
            for i in tid * stripe..(tid + 1) * stripe {
                let v = ctx.load_f64(matrix.at(i)).await;
                ctx.store_f64(matrix.at(i), v * 0.5).await;
                ctx.work(21);
            }
            ctx.barrier(bar).await;
        });
    }
    b.build()
}

fn ignore_spec() -> IgnoreSpec {
    IgnoreSpec::new()
        .ignore_site("task_node")
        .ignore_global("free_task_heads")
}

fn make_spec(p: Params) -> AppSpec {
    AppSpec {
        name: "cholesky",
        suite: "splash2",
        uses_fp: true,
        expected_class: DetClass::IgnoringStructs,
        expected_points: 4,
        ignore: ignore_spec(),
        build: Arc::new(move || build(&p)),
    }
}

/// Paper scale: 4 checking points.
pub fn spec() -> AppSpec {
    make_spec(Params::default())
}

/// Miniature for tests.
pub fn spec_scaled() -> AppSpec {
    make_spec(Params {
        threads: 4,
        tasks: 12,
        block: 4,
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
    fn nondet_until_structures_are_ignored() {
        assert!(!campaign(8, false, false).is_deterministic(), "bit-exact");
        assert!(
            !campaign(8, true, false).is_deterministic(),
            "free lists survive FP rounding"
        );
        assert!(campaign(8, true, true).is_deterministic(), "isolated");
    }

    #[test]
    fn matrix_result_is_schedule_independent() {
        let p = Params {
            threads: 4,
            tasks: 8,
            block: 4,
        };
        let a = build(&p).run(&tsim::RunConfig::random(2)).unwrap();
        let b = build(&p).run(&tsim::RunConfig::random(23)).unwrap();
        for i in 0..32u64 {
            assert_eq!(
                a.final_word(tsim::Addr(tsim::GLOBALS_BASE + i)),
                b.final_word(tsim::Addr(tsim::GLOBALS_BASE + i)),
                "matrix[{i}]"
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
