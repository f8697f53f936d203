//! The exact registry bytes a campaign leaves behind: `checker.*`
//! counters, the `checker.run_steps` histogram and the `mhm.l1.*`
//! cache counters, as `Snapshot::to_json` writes them. Each campaign
//! shape pins its bytes: cold at one and four workers, warm from a
//! corpus, a Skip campaign with a failed slot mid-campaign, an Abort
//! campaign that fails after three completed runs (the registry holds
//! exactly those runs), and a campaign with the L1 cache model on.
//! However the checker accumulates these totals, a campaign must leave
//! the same bytes.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use corpus::{Corpus, CorpusOptions};
use instantcheck::{Checker, CheckerConfig, FailurePolicy, Scheme};
use obs::Registry;
use tsim::{FaultKind, FaultPlan, Program, ProgramBuilder, Trigger, TypeTag, ValKind};

/// Four threads scribble on heap blocks (allocator traffic, and a
/// fault target), three of them poll a flag under a lock until the
/// fourth sets it, and all race one last-writer word: completed runs
/// diverge, and their step counts depend on the schedule.
fn racy_heap() -> Program {
    let mut b = ProgramBuilder::new(4);
    let flag = b.global("flag", ValKind::U64, 1);
    let last = b.global("last", ValKind::U64, 1);
    let lock = b.mutex();
    for t in 0..4u64 {
        b.thread(async move |ctx| {
            let len = 2 + t as usize;
            let p = ctx.malloc("scratch", TypeTag::u64s(), len).await;
            for i in 0..len as u64 {
                ctx.store(p.offset(i), 10 * t + i).await;
            }
            loop {
                ctx.lock(lock).await;
                let set = ctx.load(flag.at(0)).await;
                if t == 0 {
                    ctx.store(flag.at(0), 1).await;
                }
                ctx.unlock(lock).await;
                if t == 0 || set != 0 {
                    break;
                }
            }
            ctx.store(last.at(0), t + 1).await;
            ctx.free(p).await;
        });
    }
    b.build()
}

fn config(jobs: usize) -> CheckerConfig {
    CheckerConfig::new(Scheme::HwInc)
        .with_runs(8)
        .with_base_seed(3)
        .with_jobs(jobs)
}

/// A fault plan that fails its run at the first allocation.
fn alloc_fail() -> FaultPlan {
    FaultPlan::new(5).with(FaultKind::AllocFail, Trigger::Nth(0))
}

/// Runs `cfg` against a fresh registry; returns the snapshot bytes and
/// whether the campaign completed.
fn campaign(cfg: CheckerConfig) -> (String, bool) {
    let reg = Arc::new(Registry::new());
    let checker = Checker::new(cfg.with_registry(Arc::clone(&reg))).expect("valid config");
    let ok = checker.check(racy_heap).is_ok();
    (reg.snapshot().to_json(), ok)
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaign-metrics-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The bytes `Snapshot::to_json` writes for `counters` (the inside of
/// the counters object) and a `checker.run_steps` histogram of
/// `count` runs summing to `sum` steps, with the nonzero buckets given
/// as `(bucket, runs)`.
fn expected(counters: &str, count: u64, sum: u64, nonzero: &[(usize, u64)]) -> String {
    let mut buckets = [0u64; obs::metrics::BUCKETS];
    for &(b, n) in nonzero {
        buckets[b] = n;
    }
    let buckets: Vec<String> = buckets.iter().map(u64::to_string).collect();
    format!(
        "{{\"counters\":{{{counters}}},\"histograms\":{{\"checker.run_steps\":\
         {{\"count\":{count},\"sum\":{sum},\"buckets\":[{}]}}}}}}",
        buckets.join(",")
    )
}

const FULL: &str = r#""checker.checkpoints":8,"checker.divergences":3,"checker.hash_instr":368,"checker.hash_updates":528,"checker.native_instr":1086,"checker.runs_completed":8,"checker.steps":286,"checker.stores":152"#;

fn full() -> String {
    expected(FULL, 8, 286, &[(5, 4), (6, 3), (7, 1)])
}

#[test]
fn cold_campaigns_pin_their_registry_at_any_worker_count() {
    for jobs in [1, 4] {
        assert_eq!(campaign(config(jobs)), (full(), true), "jobs {jobs}");
    }
}

#[test]
fn a_warm_campaign_registers_what_the_cold_one_did() {
    let dir = tempdir("warm");
    let corpus = Arc::new(Corpus::open(CorpusOptions::at(&dir)).unwrap());
    let cached = |jobs| config(jobs).with_run_cache(Arc::clone(&corpus) as _, "racy_heap");
    assert_eq!(campaign(cached(1)), (full(), true), "recording");
    for jobs in [1, 4] {
        assert_eq!(campaign(cached(jobs)), (full(), true), "warm, jobs {jobs}");
    }
    drop(corpus);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_skipped_slot_counts_as_failed_and_the_rest_complete() {
    let want = expected(
        r#""checker.checkpoints":7,"checker.divergences":2,"checker.hash_instr":322,"checker.hash_updates":462,"checker.native_instr":957,"checker.runs_completed":7,"checker.runs_failed":1,"checker.steps":256,"checker.stores":133"#,
        7,
        256,
        &[(5, 3), (6, 3), (7, 1)],
    );
    for jobs in [1, 4] {
        let cfg = config(jobs)
            .with_policy(FailurePolicy::Skip { max_failures: 1 })
            .with_fault_in_run(4, alloc_fail());
        assert_eq!(campaign(cfg), (want.clone(), true), "jobs {jobs}");
    }
}

/// Slot 3 fails under Abort: the registry holds the three completed
/// runs' totals and the failure, whatever the pool ran past slot 3.
#[test]
fn an_aborted_campaign_holds_exactly_its_completed_runs() {
    const THREE: &str = r#""checker.checkpoints":3,"checker.divergences":1,"checker.hash_instr":138,"checker.hash_updates":198,"checker.native_instr":458,"checker.runs_completed":3,"checker.steps":147,"checker.stores":57"#;
    let three = expected(THREE, 3, 147, &[(6, 2), (7, 1)]);
    assert_eq!(campaign(config(1).with_runs(3)), (three, true));
    let failed = THREE.replace(
        r#""checker.steps""#,
        r#""checker.runs_failed":1,"checker.steps""#,
    );
    let want = expected(&failed, 3, 147, &[(6, 2), (7, 1)]);
    for jobs in [1, 4] {
        let cfg = config(jobs).with_fault_in_run(3, alloc_fail());
        assert_eq!(campaign(cfg), (want.clone(), false), "jobs {jobs}");
    }
}

#[test]
fn a_campaign_without_a_completed_run_registers_no_run_metrics() {
    for jobs in [1, 4] {
        let cfg = config(jobs).with_fault_in_run(0, alloc_fail());
        assert_eq!(
            campaign(cfg),
            (
                r#"{"counters":{"checker.runs_failed":1},"histograms":{}}"#.to_string(),
                false
            ),
            "jobs {jobs}"
        );
    }
}

#[test]
fn the_cache_model_adds_its_l1_counters() {
    let counters = format!(
        r#"{FULL},"mhm.l1.hits":152,"mhm.l1.mhm_read_misses":0,"mhm.l1.mhm_reads":152,"mhm.l1.misses":72"#
    );
    let want = expected(&counters, 8, 286, &[(5, 4), (6, 3), (7, 1)]);
    for jobs in [1, 4] {
        let cfg = config(jobs).with_cache_model();
        assert_eq!(campaign(cfg), (want.clone(), true), "jobs {jobs}");
    }
}
