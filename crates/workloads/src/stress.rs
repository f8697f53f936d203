//! Stress kernels for exercising the checker's *failure* paths rather
//! than its verdicts: programs that are externally deterministic when
//! they complete but can fail to complete at all under adversarial
//! schedules.
//!
//! The flagship kernel, [`lock_order_hazard`], carries a classic ABBA
//! lock-order inversion with a deliberately narrow race window, so a
//! multi-run campaign over consecutive scheduler seeds completes under
//! most seeds and deadlocks under a few — exactly the situation the
//! [`FailurePolicy`](instantcheck::FailurePolicy) machinery and the
//! report's schedule-divergence classification exist for.

use tsim::{Program, ProgramBuilder, ValKind};

/// A two-worker kernel with an ABBA lock-order inversion.
///
/// Each worker first performs `preamble` iterations on a private lock
/// (pure desynchronization — the two workers drift apart according to
/// the scheduler's choices), then crosses a **single** two-lock critical
/// section: worker 0 takes `front` then `back`, worker 1 takes `back`
/// then `front`. The shared updates commute, so every completing run
/// ends in the same state: the kernel is externally deterministic *when
/// it terminates*. Whether it terminates depends on the schedule: the
/// run deadlocks only if the scheduler lines the two one-operation-wide
/// windows up exactly — worker 0 holding `front` while worker 1 holds
/// `back`.
///
/// `preamble` tunes how rare that is: the longer the drift phase, the
/// smaller the fraction of scheduler seeds under which the windows
/// align. The campaign integration tests calibrate a seed range over
/// this kernel in which exactly one seed deadlocks.
pub fn lock_order_hazard(preamble: u64) -> Program {
    let mut b = ProgramBuilder::new(2);
    let totals = b.global("totals", ValKind::U64, 2);
    let front = b.mutex();
    let back = b.mutex();
    let private = [b.mutex(), b.mutex()];
    for (w, &my) in private.iter().enumerate() {
        b.thread(async move |ctx| {
            for _ in 0..preamble {
                ctx.lock(my).await;
                let v = ctx.load(totals.at(w)).await;
                ctx.store(totals.at(w), v + 1).await;
                ctx.unlock(my).await;
            }
            let (first, second) = if w == 0 { (front, back) } else { (back, front) };
            ctx.lock(first).await;
            ctx.lock(second).await;
            let v = ctx.load(totals.at(w)).await;
            ctx.store(totals.at(w), v + 1).await;
            ctx.unlock(second).await;
            ctx.unlock(first).await;
        });
    }
    b.build()
}

/// The scheduler seeds in `seeds` under which [`lock_order_hazard`]
/// deadlocks (or fails for any other reason). Runs the kernel once per
/// seed — cheap, and deterministic because the simulator is.
pub fn failing_seeds(straight_iters: u64, seeds: impl IntoIterator<Item = u64>) -> Vec<u64> {
    seeds
        .into_iter()
        .filter(|&s| {
            lock_order_hazard(straight_iters)
                .run(&tsim::RunConfig::random(s))
                .is_err()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::RunConfig;

    #[test]
    fn completing_runs_all_agree() {
        let ok_seeds: Vec<u64> = (0..40)
            .filter(|&s| lock_order_hazard(32).run(&RunConfig::random(s)).is_ok())
            .collect();
        assert!(ok_seeds.len() >= 30, "most seeds complete");
        let outcome = |s| lock_order_hazard(32).run(&RunConfig::random(s)).unwrap();
        let base = outcome(ok_seeds[0]);
        for &s in &ok_seeds[1..] {
            let o = outcome(s);
            for i in 0..2 {
                let a = tsim::Addr(tsim::GLOBALS_BASE + i);
                assert_eq!(base.final_word(a), o.final_word(a), "seed {s}");
            }
        }
    }

    #[test]
    fn some_seed_deadlocks_but_only_rarely() {
        let failing = failing_seeds(32, 0..200);
        assert!(!failing.is_empty(), "the hazard must be reachable");
        assert!(failing.len() < 30, "the hazard must stay rare");
        let err = lock_order_hazard(32)
            .run(&RunConfig::random(failing[0]))
            .unwrap_err();
        assert_eq!(err.kind(), tsim::SimErrorKind::Deadlock);
        assert!(err.is_schedule_dependent());
    }
}
