//! Integration tests of the deterministic fault-injection harness and
//! the wall-clock watchdog.

use std::time::Duration;

use minicheck::{check, Gen};
use tsim::{
    FaultKind, FaultPlan, Program, ProgramBuilder, RunConfig, SimError, SimErrorKind, Trigger,
    ValKind,
};

/// Two threads make locked commutative updates to a small shared array.
fn locked_adders() -> Program {
    let mut b = ProgramBuilder::new(2);
    let shared = b.global("shared", ValKind::U64, 4);
    let lock = b.mutex();
    for tid in 0..2u64 {
        b.thread(async move |ctx| {
            for i in 0..40u64 {
                let cell = shared.at(((tid + i) % 4) as usize);
                ctx.lock(lock).await;
                let v = ctx.load(cell).await;
                ctx.store(cell, v + 1 + tid).await;
                ctx.unlock(lock).await;
            }
        });
    }
    b.build()
}

#[test]
fn stale_read_corrupts_monitor_but_not_memory() {
    let plan = FaultPlan::new(5).with(FaultKind::StaleRead, Trigger::Nth(10));
    let clean = locked_adders().run(&RunConfig::random(3)).unwrap();
    let faulted = locked_adders()
        .run(&RunConfig::random(3).with_faults(plan))
        .unwrap();
    assert_eq!(faulted.faults.len(), 1);
    assert_eq!(faulted.faults[0].kind, FaultKind::StaleRead);
    // Memory itself is untouched — only the monitor was lied to.
    for i in 0..4 {
        let a = tsim::Addr(tsim::GLOBALS_BASE + i);
        assert_eq!(clean.final_word(a), faulted.final_word(a));
    }
}

#[test]
fn bit_flip_lands_in_memory() {
    let plan = FaultPlan::new(5).with(FaultKind::BitFlip, Trigger::Nth(0));
    let clean = locked_adders().run(&RunConfig::random(3)).unwrap();
    let faulted = locked_adders()
        .run(&RunConfig::random(3).with_faults(plan))
        .unwrap();
    assert_eq!(faulted.faults.len(), 1);
    let differs = (0..4).any(|i| {
        let a = tsim::Addr(tsim::GLOBALS_BASE + i);
        clean.final_word(a) != faulted.final_word(a)
    });
    assert!(differs, "a flipped store must change the final state");
}

#[test]
fn alloc_fail_aborts_with_alloc_failed() {
    let plan = FaultPlan::new(1).with(FaultKind::AllocFail, Trigger::Nth(1));
    let mut b = ProgramBuilder::new(1);
    b.thread(async |ctx| {
        for _ in 0..4 {
            let p = ctx.malloc("buf", tsim::TypeTag::u64s(), 8).await;
            ctx.store(p, 7).await;
        }
    });
    let err = b
        .build()
        .run(&RunConfig::random(0).with_faults(plan))
        .unwrap_err();
    assert_eq!(
        err,
        SimError::AllocFailed {
            tid: 0,
            site: "buf"
        }
    );
    assert_eq!(err.kind(), SimErrorKind::AllocFailed);
    assert!(!err.is_schedule_dependent());
}

#[test]
fn wake_drop_deadlocks_a_lock_handoff() {
    // Thread 0 takes the lock first (round-robin guarantees it), thread
    // 1 blocks on it; dropping thread 0's unlock wake leaves thread 1
    // blocked forever even though the lock is free.
    let build = || {
        let mut b = ProgramBuilder::new(2);
        let g = b.global("g", ValKind::U64, 1);
        let lock = b.mutex();
        for tid in 0..2u64 {
            b.thread(async move |ctx| {
                ctx.lock(lock).await;
                let v = ctx.load(g.at(0)).await;
                ctx.store(g.at(0), v + tid + 1).await;
                ctx.unlock(lock).await;
            });
        }
        b.build()
    };
    let rr = RunConfig::random(0).with_scheduler(tsim::SchedulerKind::RoundRobin);
    build().run(&rr).expect("fault-free handoff completes");
    let plan = FaultPlan::new(0).with(FaultKind::WakeDrop, Trigger::Nth(0));
    let err = build().run(&rr.clone().with_faults(plan)).unwrap_err();
    assert_eq!(err.kind(), SimErrorKind::Deadlock);
    assert!(err.is_schedule_dependent());
}

#[test]
fn lib_perturb_changes_the_observed_stream() {
    let build = || {
        let mut b = ProgramBuilder::new(1);
        let g = b.global("g", ValKind::U64, 4);
        b.thread(async move |ctx| {
            for i in 0..4 {
                let r = ctx.rand_u64();
                ctx.store(g.at(i), r).await;
            }
        });
        b.build()
    };
    let clean = build().run(&RunConfig::random(0)).unwrap();
    let plan = FaultPlan::new(9).with(FaultKind::LibPerturb, Trigger::Nth(2));
    let faulted = build()
        .run(&RunConfig::random(0).with_faults(plan))
        .unwrap();
    let read = |out: &tsim::RunOutcome<tsim::NullMonitor>, i| {
        out.final_word(tsim::Addr(tsim::GLOBALS_BASE + i)).unwrap()
    };
    assert_eq!(read(&clean, 0), read(&faulted, 0));
    assert_eq!(read(&clean, 1), read(&faulted, 1));
    assert_ne!(
        read(&clean, 2),
        read(&faulted, 2),
        "the 3rd call is perturbed"
    );
    assert_eq!(read(&clean, 3), read(&faulted, 3));
}

#[test]
fn watchdog_fires_deadline_on_spin_livelock() {
    // Thread 1 spins forever on a flag nobody sets: plain loads only,
    // so without the watchdog this would run until the (huge) step
    // limit. The forced-preemption backstop turns the spin into
    // scheduling points where the deadline check fires.
    let mut b = ProgramBuilder::new(2);
    let flag = b.global("flag", ValKind::U64, 1);
    b.thread(async move |ctx| {
        ctx.work(10);
    });
    b.thread(async move |ctx| {
        while ctx.load(flag.at(0)).await == 0 {
            // spin-wait on a flag that is never written
        }
    });
    let cfg = RunConfig::random(1)
        .with_max_steps(u64::MAX / 2)
        .with_deadline(Duration::from_millis(100));
    let err = b.build().run(&cfg).unwrap_err();
    assert_eq!(err.kind(), SimErrorKind::Deadline);
    assert_eq!(err, SimError::Deadline { limit_ms: 100 });
    assert!(err.is_schedule_dependent());
}

#[test]
fn generous_deadline_does_not_disturb_a_healthy_run() {
    let clean = locked_adders().run(&RunConfig::random(7)).unwrap();
    let watched = locked_adders()
        .run(&RunConfig::random(7).with_deadline(Duration::from_secs(60)))
        .unwrap();
    assert_eq!(clean.decisions, watched.decisions);
    assert_eq!(clean.steps, watched.steps);
}

#[test]
fn fault_injection_is_bit_for_bit_reproducible() {
    // The acceptance property: the same fault seed (same plan, same
    // scheduler seed) reproduces the same failure — or the same fault
    // log and final state — bit for bit.
    check(
        "fault_injection_is_bit_for_bit_reproducible",
        24,
        |g: &mut Gen| {
            let fault_seed = g.u64();
            let sched_seed = g.u64_in(0, 1000);
            let plan = FaultPlan::new(fault_seed)
                .with(FaultKind::BitFlip, Trigger::Rate { num: 1, denom: 16 })
                .with(FaultKind::StaleRead, Trigger::Rate { num: 1, denom: 16 })
                .with(FaultKind::WakeDrop, Trigger::Rate { num: 1, denom: 32 });
            let run =
                || locked_adders().run(&RunConfig::random(sched_seed).with_faults(plan.clone()));
            match (run(), run()) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.faults, b.faults);
                    assert_eq!(a.decisions, b.decisions);
                    for i in 0..4 {
                        let addr = tsim::Addr(tsim::GLOBALS_BASE + i);
                        assert_eq!(a.final_word(addr), b.final_word(addr));
                    }
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!(
                    "outcomes diverged under one seed: {:?} vs {:?}",
                    a.map(|o| o.steps),
                    b.map(|o| o.steps)
                ),
            }
        },
    );
}
