//! Property-based tests of the engine itself: for randomly generated
//! (deadlock-free) programs, runs are bit-reproducible given the seed,
//! decision replay reproduces the trace exactly, and locked commutative
//! updates are conserved under every schedule.

use minicheck::{check, Gen};
use tsim::{Program, ProgramBuilder, RunConfig, SchedulerKind, SwitchPolicy, ValKind};

/// One straight-line operation of a generated thread body.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Add `1 + (v % 7)` to cell `v % CELLS` of the shared array, under
    /// the lock `v % LOCKS` (a locked commutative update).
    LockedAdd(u8),
    /// Write to this thread's private slot.
    PrivateStore(u8),
    /// Read some shared cell.
    SharedLoad(u8),
    /// Atomic increment of the tally cell.
    AtomicBump,
    /// Local compute.
    Work(u8),
    /// Voluntary yield.
    Yield,
}

const CELLS: usize = 8;
const LOCKS: usize = 3;

fn gen_op(g: &mut Gen) -> Op {
    match g.usize_in(0, 6) {
        0 => Op::LockedAdd(g.u8()),
        1 => Op::PrivateStore(g.u8()),
        2 => Op::SharedLoad(g.u8()),
        3 => Op::AtomicBump,
        4 => Op::Work(g.u8()),
        _ => Op::Yield,
    }
}

fn gen_bodies(g: &mut Gen) -> Vec<Vec<Op>> {
    g.vec_of(2, 5, |g| g.vec_of(0, 25, gen_op))
}

/// Materializes the generated op lists as a tsim program.
fn build(bodies: &[Vec<Op>]) -> Program {
    let nthreads = bodies.len();
    let mut b = ProgramBuilder::new(nthreads);
    let shared = b.global("shared", ValKind::U64, CELLS);
    let private = b.global("private", ValKind::U64, nthreads);
    let tally = b.global("tally", ValKind::U64, 1);
    let locks: Vec<_> = (0..LOCKS).map(|_| b.mutex()).collect();
    for (tid, body) in bodies.iter().enumerate() {
        let body = body.clone();
        let locks = locks.clone();
        b.thread(async move |ctx| {
            for op in &body {
                match *op {
                    Op::LockedAdd(v) => {
                        let cell_idx = v as usize % CELLS;
                        let cell = shared.at(cell_idx);
                        // The lock is a function of the cell, so every
                        // cell has exactly one guardian lock.
                        let lock = locks[cell_idx % LOCKS];
                        ctx.lock(lock).await;
                        let cur = ctx.load(cell).await;
                        ctx.store(cell, cur + 1 + u64::from(v % 7)).await;
                        ctx.unlock(lock).await;
                    }
                    Op::PrivateStore(v) => ctx.store(private.at(tid), u64::from(v)).await,
                    Op::SharedLoad(v) => {
                        let _ = ctx.load(shared.at(v as usize % CELLS)).await;
                    }
                    Op::AtomicBump => {
                        let _ = ctx.fetch_add(tally.at(0), 1).await;
                    }
                    Op::Work(v) => ctx.work(u64::from(v)),
                    Op::Yield => ctx.sched_yield().await,
                }
            }
        });
    }
    b.build()
}

fn expected_totals(bodies: &[Vec<Op>]) -> ([u64; CELLS], u64) {
    let mut cells = [0u64; CELLS];
    let mut tally = 0;
    for body in bodies {
        for op in body {
            match *op {
                Op::LockedAdd(v) => cells[v as usize % CELLS] += 1 + u64::from(v % 7),
                Op::AtomicBump => tally += 1,
                _ => {}
            }
        }
    }
    (cells, tally)
}

/// Same seed ⇒ bit-identical run (decisions, final memory,
/// instruction counts, trace).
#[test]
fn runs_are_reproducible_given_the_seed() {
    check("runs_are_reproducible_given_the_seed", 48, |g| {
        let bodies = gen_bodies(g);
        let seed = g.u64_in(0, 500);
        let a = build(&bodies)
            .run(&RunConfig::random(seed).with_trace())
            .unwrap();
        let b = build(&bodies)
            .run(&RunConfig::random(seed).with_trace())
            .unwrap();
        assert_eq!(&a.decisions, &b.decisions);
        assert_eq!(&a.instr, &b.instr);
        assert_eq!(&a.trace, &b.trace);
        for i in 0..CELLS as u64 {
            assert_eq!(
                a.final_word(tsim::Addr(tsim::GLOBALS_BASE + i)),
                b.final_word(tsim::Addr(tsim::GLOBALS_BASE + i))
            );
        }
    });
}

/// Replaying a run's decision log through the scripted scheduler
/// reproduces its trace exactly.
#[test]
fn decision_replay_reproduces_the_trace() {
    check("decision_replay_reproduces_the_trace", 48, |g| {
        let bodies = gen_bodies(g);
        let seed = g.u64_in(0, 500);
        let original = build(&bodies)
            .run(&RunConfig::random(seed).with_trace())
            .unwrap();
        let script = std::sync::Arc::new(original.decisions.clone());
        let replayed = build(&bodies)
            .run(
                &RunConfig::random(0)
                    .with_trace()
                    .with_scheduler(SchedulerKind::Scripted { script }),
            )
            .unwrap();
        assert_eq!(original.trace, replayed.trace);
        assert_eq!(original.decisions, replayed.decisions);
    });
}

/// Locked commutative updates and atomic bumps are conserved under
/// every scheduler and switch policy.
#[test]
fn locked_updates_are_conserved() {
    check("locked_updates_are_conserved", 48, |g| {
        let bodies = gen_bodies(g);
        let seed = g.u64_in(0, 500);
        let every_access = g.bool();
        let mut cfg = RunConfig::random(seed);
        if every_access {
            cfg = cfg.with_switch(SwitchPolicy::EveryAccess);
        }
        let out = build(&bodies).run(&cfg).unwrap();
        let (cells, tally) = expected_totals(&bodies);
        for (i, &want) in cells.iter().enumerate() {
            assert_eq!(
                out.final_word(tsim::Addr(tsim::GLOBALS_BASE + i as u64)),
                Some(want),
                "cell {i}"
            );
        }
        let tally_addr = tsim::Addr(tsim::GLOBALS_BASE + (CELLS + bodies.len()) as u64);
        assert_eq!(out.final_word(tally_addr), Some(tally));
    });
}

/// The total native instruction count varies across schedules only
/// through lock-contention retries, each of which also costs one
/// scheduling step — so runs with equal step counts have equal
/// instruction totals.
#[test]
fn instruction_totals_track_contention() {
    check("instruction_totals_track_contention", 48, |g| {
        let bodies = gen_bodies(g);
        let s1 = g.u64_in(0, 200);
        let s2 = g.u64_in(200, 400);
        let a = build(&bodies).run(&RunConfig::random(s1)).unwrap();
        let b = build(&bodies).run(&RunConfig::random(s2)).unwrap();
        if a.steps != b.steps {
            return;
        }
        assert_eq!(a.total_instructions(), b.total_instructions());
    });
}
