//! The deterministic-reduction contract of the parallel campaign
//! executor: a checking campaign produces the same report, the same
//! serialized trace, and the same metrics snapshot whatever its worker
//! count, because the fanned-out slot results are reduced back in slot
//! order before anything escapes the checker.

use std::sync::Arc;

use instantcheck::{CheckReport, Checker, CheckerConfig, FailurePolicy, Scheme};
use instantcheck_workloads::stress;
use minicheck::{check, Gen};
use obs::{events_to_jsonl, MemorySink, Registry, Snapshot};
use tsim::{FaultKind, FaultPlan, Program, ProgramBuilder, Trigger, ValKind};

fn det_sum() -> Program {
    // Deterministic: commutative sum under a lock, with heap traffic so
    // the allocation-replay log matters.
    let mut b = ProgramBuilder::new(4);
    let g = b.global("G", ValKind::U64, 1);
    let lock = b.mutex();
    for t in 0..4u64 {
        b.thread(async move |ctx| {
            let p = ctx.malloc("scratch", tsim::TypeTag::u64s(), 2).await;
            ctx.store(p, t).await;
            ctx.lock(lock).await;
            let v = ctx.load(g.at(0)).await;
            ctx.store(g.at(0), v + (t + 1) * 10).await;
            ctx.unlock(lock).await;
            ctx.free(p).await;
        });
    }
    b.build()
}

fn last_writer() -> Program {
    // Nondeterministic: last writer wins.
    let mut b = ProgramBuilder::new(3);
    let g = b.global("G", ValKind::U64, 1);
    let lock = b.mutex();
    for t in 0..3u64 {
        b.thread(async move |ctx| {
            ctx.lock(lock).await;
            ctx.store(g.at(0), t + 1).await;
            ctx.unlock(lock).await;
        });
    }
    b.build()
}

/// Runs one traced, metered campaign and returns everything observable
/// about it.
fn observed(cfg: CheckerConfig, source: fn() -> Program) -> (CheckReport, String, Snapshot) {
    let sink = Arc::new(MemorySink::new());
    let reg = Arc::new(Registry::new());
    let report = Checker::new(cfg.with_sink(sink.clone()).with_registry(reg.clone()))
        .expect("valid config")
        .check(source)
        .expect("campaign completes");
    (report, events_to_jsonl(&sink.events()), reg.snapshot())
}

#[test]
fn worker_count_is_invisible_across_schemes_and_workloads() {
    check("parallel_reduction", 12, |g: &mut Gen| {
        let runs = 4 + g.usize_in(0, 4);
        let base = g.u64_in(0, 10_000);
        let scheme = *g.pick(&[Scheme::HwInc, Scheme::SwInc, Scheme::SwTr]);
        let source = *g.pick(&[det_sum as fn() -> Program, last_writer]);
        let traced = g.bool();
        let cfg = || {
            CheckerConfig::new(scheme)
                .with_runs(runs)
                .with_base_seed(base)
        };
        if traced {
            let (r1, t1, m1) = observed(cfg().with_jobs(1), source);
            for jobs in [2, 8] {
                let (r, t, m) = observed(cfg().with_jobs(jobs), source);
                assert_eq!(r1, r, "report (jobs={jobs})");
                assert_eq!(t1, t, "trace (jobs={jobs})");
                assert_eq!(m1, m, "metrics (jobs={jobs})");
            }
        } else {
            let r1 = Checker::new(cfg().with_jobs(1))
                .expect("valid config")
                .check(source)
                .unwrap();
            for jobs in [2, 8] {
                let r = Checker::new(cfg().with_jobs(jobs))
                    .expect("valid config")
                    .check(source)
                    .unwrap();
                assert_eq!(r1, r, "report (jobs={jobs})");
            }
        }
    });
}

#[test]
fn early_stop_truncates_at_the_same_run_for_all_worker_counts() {
    let at = |jobs: usize| {
        let sink = Arc::new(MemorySink::new());
        let cfg = CheckerConfig::new(Scheme::HwInc)
            .with_runs(30)
            .with_jobs(jobs)
            .with_sink(sink.clone());
        let (report, used) = Checker::new(cfg)
            .expect("valid config")
            .check_stopping_early(last_writer)
            .expect("campaign completes");
        (report, used, events_to_jsonl(&sink.events()))
    };
    let (serial_report, serial_used, serial_trace) = at(1);
    assert!(serial_used < 30, "last-writer diverges early");
    for jobs in [2, 8] {
        let (report, used, trace) = at(jobs);
        assert_eq!(serial_used, used, "stop point (jobs={jobs})");
        assert_eq!(serial_report, report, "report (jobs={jobs})");
        assert_eq!(serial_trace, trace, "trace (jobs={jobs})");
    }
}

#[test]
fn retried_campaign_reduces_identically() {
    // Seed window calibrated in tests/failure_policy.rs: seed 34 in
    // 10..40 deadlocks, so one slot fails and recovers under Retry.
    let cfg = || {
        CheckerConfig::new(Scheme::HwInc)
            .with_runs(30)
            .with_base_seed(10)
            .with_policy(FailurePolicy::Retry { max_retries: 3 })
    };
    let kernel = || stress::lock_order_hazard(32);
    let serial = Checker::new(cfg().with_jobs(1))
        .expect("valid config")
        .check(kernel)
        .unwrap();
    assert!(
        serial.failures.iter().all(|f| f.recovered),
        "the deadlocked slot recovers"
    );
    assert!(!serial.failures.is_empty());
    let parallel = Checker::new(cfg().with_jobs(4))
        .expect("valid config")
        .check(kernel)
        .unwrap();
    assert_eq!(serial, parallel, "failures and hashes reduce identically");
}

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

#[test]
fn exhausted_skip_budget_fails_with_the_serial_error() {
    // Faults kill slots 1 and 3; budget 1 means the campaign must give
    // up at slot 3 — the parallel executor may *run* later slots before
    // the cancellation lands, but the reduction has to discard them and
    // surface slot 3's error exactly as the serial walk would.
    let plan = |s| FaultPlan::new(s).with(FaultKind::AllocFail, Trigger::Nth(0));
    let at = |jobs: usize| {
        let cfg = CheckerConfig::new(Scheme::HwInc)
            .with_runs(8)
            .with_jobs(jobs)
            .with_policy(FailurePolicy::Skip { max_failures: 1 })
            .with_fault_in_run(1, plan(1))
            .with_fault_in_run(3, plan(2));
        Checker::new(cfg)
            .expect("valid config")
            .check(alloc_kernel)
            .unwrap_err()
    };
    let serial = at(1);
    for jobs in [2, 8] {
        assert_eq!(serial, at(jobs), "jobs={jobs}");
    }
}

#[test]
fn within_budget_skips_reduce_identically() {
    let plan = FaultPlan::new(5).with(FaultKind::AllocFail, Trigger::Nth(0));
    let at = |jobs: usize| {
        let cfg = CheckerConfig::new(Scheme::HwInc)
            .with_runs(8)
            .with_jobs(jobs)
            .with_policy(FailurePolicy::Skip { max_failures: 2 })
            .with_fault_in_run(2, plan.clone());
        Checker::new(cfg)
            .expect("valid config")
            .check(alloc_kernel)
            .unwrap()
    };
    let serial = at(1);
    assert_eq!(serial.failures.len(), 1);
    for jobs in [2, 8] {
        assert_eq!(serial, at(jobs), "jobs={jobs}");
    }
}
