//! The executor survives failing runs. Runs that panic, deadlock, hit
//! the step limit, spin on local work or panic in an event sink are
//! interleaved with healthy runs: every failure must surface as its
//! typed [`SimError`], every healthy run must match the same-seed run
//! made before any failure, and a run's simulated threads are futures on
//! the calling thread, so hundreds of runs leave the process's OS thread
//! count unchanged.
//!
//! This file holds a single test so that it owns its process: the thread
//! count it reads is not disturbed by concurrently running tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obs::{Event, EventSink};
use tsim::{
    Addr, NullMonitor, Program, ProgramBuilder, RunConfig, RunOutcome, SimError, SimErrorKind,
    ValKind, GLOBALS_BASE,
};

const THREADS: usize = 4;

/// Four threads make locked updates to a shared array.
fn healthy() -> Program {
    let mut b = ProgramBuilder::new(THREADS);
    let shared = b.global("shared", ValKind::U64, 4);
    let lock = b.mutex();
    for tid in 0..THREADS as u64 {
        b.thread(async move |ctx| {
            for i in 0..25u64 {
                let cell = shared.at(((tid + i) % 4) as usize);
                ctx.lock(lock).await;
                let v = ctx.load(cell).await;
                ctx.store(cell, v * 3 + tid + 1).await;
                ctx.unlock(lock).await;
            }
        });
    }
    b.build()
}

/// Thread 2 panics halfway through its updates.
fn panicking() -> Program {
    let mut b = ProgramBuilder::new(THREADS);
    let shared = b.global("shared", ValKind::U64, 1);
    for tid in 0..THREADS as u64 {
        b.thread(async move |ctx| {
            for i in 0..10u64 {
                ctx.fetch_add(shared.at(0), 1).await;
                assert!(tid != 2 || i < 5, "thread 2 gives up");
            }
        });
    }
    b.build()
}

/// Every thread takes the lock and never releases it.
fn deadlocking() -> Program {
    let mut b = ProgramBuilder::new(THREADS);
    let lock = b.mutex();
    for _ in 0..THREADS {
        b.thread(async move |ctx| ctx.lock(lock).await);
    }
    b.build()
}

/// One thread spins on pure local work, so it never reaches a
/// scheduling point: only the step budget of its `work` calls can end
/// the run.
fn spinning() -> Program {
    let mut b = ProgramBuilder::new(THREADS);
    let g = b.global("g", ValKind::U64, 1);
    for tid in 0..THREADS {
        b.thread(async move |ctx| {
            ctx.store(g.at(0), tid as u64).await;
            if tid == 1 {
                loop {
                    ctx.work(1);
                }
            }
        });
    }
    b.build()
}

/// Threads with empty bodies: the second scheduler decision is taken in
/// the epilogue of whichever thread runs first.
fn empty() -> Program {
    let mut b = ProgramBuilder::new(THREADS);
    for _ in 0..THREADS {
        b.thread(async |_| {});
    }
    b.build()
}

/// A sink that panics on the second scheduler decision it sees.
#[derive(Debug, Default)]
struct PanicOnSecondPick(AtomicU64);

impl EventSink for PanicOnSecondPick {
    fn record(&self, event: Event) {
        if event.name == "sched" && self.0.fetch_add(1, Ordering::SeqCst) == 1 {
            panic!("sink rejects the second pick");
        }
    }
}

fn run_healthy(seed: u64) -> RunOutcome<NullMonitor> {
    healthy()
        .run(&RunConfig::random(seed).with_trace())
        .expect("healthy run completes")
}

fn assert_same_run(a: &RunOutcome<NullMonitor>, b: &RunOutcome<NullMonitor>) {
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.instr, b.instr);
    assert_eq!(a.trace, b.trace);
    let words = |o: &RunOutcome<NullMonitor>| {
        (0..4)
            .map(|i| o.final_word(Addr(GLOBALS_BASE + i)))
            .collect::<Vec<_>>()
    };
    assert_eq!(words(a), words(b));
}

fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("status has a Threads line")
        .trim()
        .parse()
        .expect("thread count is a number")
}

fn failing_run(kind: usize) -> (SimErrorKind, Result<(), SimError>) {
    match kind {
        0 => (
            SimErrorKind::ThreadPanic,
            panicking().run(&RunConfig::random(5)).map(drop),
        ),
        1 => (
            SimErrorKind::Deadlock,
            deadlocking().run(&RunConfig::random(5)).map(drop),
        ),
        2 => (
            SimErrorKind::StepLimit,
            healthy()
                .run(&RunConfig::random(5).with_max_steps(40))
                .map(drop),
        ),
        3 => (
            SimErrorKind::StepLimit,
            spinning()
                .run(&RunConfig::random(5).with_max_steps(10_000))
                .map(drop),
        ),
        _ => {
            let sink: Arc<dyn EventSink> = Arc::new(PanicOnSecondPick::default());
            (
                SimErrorKind::ThreadPanic,
                empty().run(&RunConfig::random(5).with_sink(sink)).map(drop),
            )
        }
    }
}

#[test]
fn executor_survives_failed_runs_without_starting_threads() {
    let start = os_threads();
    let seeds = [1u64, 2, 3];
    let reference: Vec<_> = seeds.iter().map(|&s| run_healthy(s)).collect();

    for round in 0..3 {
        for kind in 0..5 {
            let (want, got) = failing_run(kind);
            let err = got.expect_err("failing run must fail");
            assert_eq!(err.kind(), want, "round {round}, failure {kind}: {err}");
            match (kind, &err) {
                (0, SimError::ThreadPanic { tid, message }) => {
                    assert_eq!(*tid, 2);
                    assert!(message.contains("thread 2 gives up"), "{message}");
                }
                (2, e) => assert_eq!(*e, SimError::StepLimit { limit: 40 }),
                (3, e) => assert_eq!(*e, SimError::StepLimit { limit: 10_000 }),
                (4, SimError::ThreadPanic { message, .. }) => {
                    assert!(message.contains("second pick"), "{message}");
                }
                _ => {}
            }
            for (&seed, want) in seeds.iter().zip(&reference) {
                assert_same_run(&run_healthy(seed), want);
            }
        }
    }

    for i in 0..200u64 {
        let out = run_healthy(seeds[(i % 3) as usize]);
        assert_same_run(&out, &reference[(i % 3) as usize]);
    }
    let end = os_threads();
    assert_eq!(
        end, start,
        "runs started OS threads: {start} before, {end} after"
    );
}
