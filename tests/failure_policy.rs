//! Campaign-level failure handling: the acceptance scenario for the
//! fault-tolerant checking harness.
//!
//! The subject is the `stress::lock_order_hazard` kernel — externally
//! deterministic whenever it completes, but carrying a narrow ABBA
//! lock-order inversion. The 30-seed window starting at `BASE_SEED` is
//! calibrated so that **exactly one** scheduler seed deadlocks (the
//! first test re-verifies the calibration, so a simulator change that
//! shifts the seed landscape fails loudly here rather than silently
//! weakening the other tests).

use instantcheck::{
    retry_seed, CheckReport, Checker, CheckerConfig, FailurePolicy, RunHashes, Scheme,
};
use instantcheck_workloads::stress;
use minicheck::{check, Gen};
use tsim::{FaultKind, FaultPlan, Program, ProgramBuilder, SimErrorKind, Trigger, ValKind};

/// Drift-phase length of the hazard kernel (see `stress` docs).
const PREAMBLE: u64 = 32;
/// First seed of the calibrated 30-seed window.
const BASE_SEED: u64 = 10;
/// The paper's campaign length.
const RUNS: usize = 30;
/// The one seed in `BASE_SEED..BASE_SEED + RUNS` that deadlocks.
const BAD_SEED: u64 = 34;

fn kernel() -> Program {
    stress::lock_order_hazard(PREAMBLE)
}

fn campaign(policy: FailurePolicy) -> Checker {
    Checker::new(
        CheckerConfig::new(Scheme::HwInc)
            .with_runs(RUNS)
            .with_base_seed(BASE_SEED)
            .with_policy(policy),
    )
    .expect("valid config")
}

#[test]
fn the_seed_window_is_calibrated() {
    let failing = stress::failing_seeds(PREAMBLE, BASE_SEED..BASE_SEED + RUNS as u64);
    assert_eq!(
        failing,
        vec![BAD_SEED],
        "recalibrate BASE_SEED/BAD_SEED: the kernel's deadlocking seeds moved"
    );
}

#[test]
fn abort_policy_surfaces_the_deadlock() {
    let err = campaign(FailurePolicy::Abort).check(kernel).unwrap_err();
    assert_eq!(err.kind(), SimErrorKind::Deadlock);
    assert!(err.is_schedule_dependent());
}

#[test]
fn skip_policy_completes_and_reports_the_deadlock_as_a_determinism_signal() {
    let report = campaign(FailurePolicy::Skip { max_failures: 3 })
        .check(kernel)
        .expect("one deadlock is within the skip budget");
    assert_eq!(report.runs, RUNS - 1, "the other 29 runs are all compared");
    assert_eq!(report.failures.len(), 1);
    let f = &report.failures[0];
    assert_eq!(f.seed, BAD_SEED);
    assert_eq!(f.run_index as u64, BAD_SEED - BASE_SEED);
    assert_eq!(f.error.kind(), SimErrorKind::Deadlock);
    assert_eq!(f.attempt, 0);
    assert!(!f.recovered);
    assert_eq!(report.failure_buckets(), vec![(SimErrorKind::Deadlock, 1)]);

    // The 29 completing runs agree bit for bit — yet the report must
    // not call the program deterministic: whether it *finishes* depends
    // on the schedule.
    assert_eq!(report.ndet_points, 0);
    assert!(report.output_deterministic);
    assert!(report.schedule_divergence());
    assert!(!report.is_deterministic());
}

#[test]
fn retry_policy_fills_every_slot_and_remembers_the_failure() {
    let report = campaign(FailurePolicy::Retry { max_retries: 3 })
        .check(kernel)
        .expect("reseeded retries recover the deadlocked slot");
    assert_eq!(report.runs, RUNS, "every slot is eventually compared");
    assert!(!report.failures.is_empty());
    let first = &report.failures[0];
    assert_eq!(first.seed, BAD_SEED);
    assert_eq!(first.attempt, 0);
    assert!(
        report.failures.iter().all(|f| f.recovered),
        "every failed attempt belongs to a slot that later completed"
    );
    // Each retry attempt's seed follows the documented derivation.
    for f in &report.failures {
        if f.attempt > 0 {
            assert_eq!(f.seed, retry_seed(BASE_SEED, f.run_index, f.attempt));
        }
    }
    assert!(
        report.schedule_divergence(),
        "the recovered deadlock still counts"
    );
    assert!(!report.is_deterministic());
}

#[test]
fn recovery_marks_only_its_own_slots_failures() {
    // Regression: a recovering slot must rewrite the recovered flag of
    // its *own* failed attempts only. Two different slots deadlock and
    // recover in one Retry campaign; each failure has to stay in its
    // slot's bucket with its own attempt numbering.
    let bad = stress::failing_seeds(PREAMBLE, BASE_SEED..BASE_SEED + 120);
    assert!(
        bad.len() >= 2,
        "calibration: need two deadlocking seeds in the scan window"
    );
    let base = bad[0] - 1;
    let runs = (bad[1] - base) as usize + 2;
    let report = Checker::new(
        CheckerConfig::new(Scheme::HwInc)
            .with_runs(runs)
            .with_base_seed(base)
            .with_policy(FailurePolicy::Retry { max_retries: 3 }),
    )
    .expect("valid config")
    .check(kernel)
    .expect("reseeded retries recover both slots");
    assert_eq!(report.runs, runs, "both deadlocked slots were refilled");

    let buckets = report.failures_by_slot();
    let slots: Vec<usize> = buckets.iter().map(|(slot, _)| *slot).collect();
    assert_eq!(
        slots,
        vec![(bad[0] - base) as usize, (bad[1] - base) as usize],
        "exactly the two deadlocking slots failed"
    );
    for (slot, fails) in &buckets {
        assert!(
            fails.iter().all(|f| f.run_index == *slot),
            "failures never migrate between slots"
        );
        assert_eq!(fails[0].attempt, 0, "first failure is the original attempt");
        assert_eq!(fails[0].seed, base + *slot as u64);
        assert!(
            fails.iter().all(|f| f.recovered),
            "recovery marks all of the slot's own attempts"
        );
    }
}

#[test]
fn retry_reseeds_deterministically() {
    let run = || {
        campaign(FailurePolicy::Retry { max_retries: 3 })
            .check(kernel)
            .expect("campaign completes")
    };
    let (a, b) = (run(), run());
    let digest = |r: &CheckReport| {
        (
            r.runs,
            r.failures
                .iter()
                .map(|f| (f.run_index, f.seed, f.attempt, f.error.kind()))
                .collect::<Vec<_>>(),
            r.distributions.clone(),
        )
    };
    assert_eq!(
        digest(&a),
        digest(&b),
        "a retried campaign replays bit for bit"
    );
}

/// A small kernel that allocates, so an injected `AllocFail` can kill a
/// chosen run: two threads sum into a shared cell through heap scratch.
fn alloc_kernel() -> Program {
    let mut b = ProgramBuilder::new(2);
    let g = b.global("G", ValKind::U64, 1);
    let lock = b.mutex();
    for t in 0..2u64 {
        b.thread(async move |ctx| {
            let p = ctx.malloc("scratch", tsim::TypeTag::u64s(), 2).await;
            ctx.store(p, (t + 1) * 3).await;
            let v = ctx.load(p).await;
            ctx.lock(lock).await;
            let acc = ctx.load(g.at(0)).await;
            ctx.store(g.at(0), acc + v).await;
            ctx.unlock(lock).await;
            ctx.free(p).await;
        });
    }
    b.build()
}

fn fingerprints(runs: &[RunHashes]) -> Vec<(Vec<u64>, u64)> {
    runs.iter()
        .map(|r| {
            (
                r.checkpoints.iter().map(|c| c.hash.as_raw()).collect(),
                r.output_digest,
            )
        })
        .collect()
}

#[test]
fn skipping_a_faulted_run_equals_the_clean_campaign_minus_that_run() {
    // Property: a Skip-policy campaign in which run k dies of an
    // injected fatal fault produces exactly the clean campaign's hash
    // sequences with run k deleted. (k >= 1 so both campaigns source
    // their allocation-replay log from the same first run.)
    check("skip_equivalence", 24, |g: &mut Gen| {
        let runs = 4 + g.u64_in(0, 4) as usize;
        let k = g.u64_in(1, runs as u64 - 1) as usize;
        let base = g.u64_in(0, 10_000);
        let cfg = CheckerConfig::new(Scheme::HwInc)
            .with_runs(runs)
            .with_base_seed(base);
        let clean = Checker::new(cfg.clone())
            .expect("valid config")
            .collect_runs(&alloc_kernel)
            .expect("clean campaign completes");

        let fault = FaultPlan::new(g.u64()).with(FaultKind::AllocFail, Trigger::Nth(0));
        let skipping = Checker::new(
            cfg.with_policy(FailurePolicy::Skip { max_failures: 1 })
                .with_fault_in_run(k, fault),
        )
        .expect("valid config")
        .collect_runs(&alloc_kernel)
        .expect("one fault is within the skip budget");

        let mut expected = fingerprints(&clean);
        expected.remove(k);
        assert_eq!(fingerprints(&skipping), expected);
    });
}
