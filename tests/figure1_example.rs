//! The paper's running example (Figures 1 and 2), end to end: external
//! determinism despite internal nondeterminism, detected identically by
//! all three checking schemes.

use instantcheck::{Checker, CheckerConfig, Scheme};
use tsim::{Program, ProgramBuilder, RunConfig, SchedulerKind, ValKind};

fn figure1() -> Program {
    let mut b = ProgramBuilder::new(2);
    let g = b.global("G", ValKind::U64, 1);
    let lock = b.mutex();
    b.setup(move |s| s.store(g.at(0), 2));
    for local in [7u64, 3u64] {
        b.thread(async move |ctx| {
            ctx.lock(lock).await;
            let v = ctx.load(g.at(0)).await;
            ctx.store(g.at(0), v + local).await;
            ctx.unlock(lock).await;
        });
    }
    b.build()
}

#[test]
fn externally_deterministic_under_every_scheme() {
    for scheme in [Scheme::HwInc, Scheme::SwInc, Scheme::SwTr] {
        let report = Checker::new(CheckerConfig::new(scheme).with_runs(15))
            .expect("valid config")
            .check(figure1)
            .unwrap();
        assert!(report.is_deterministic(), "{scheme:?}");
        assert_eq!(report.ndet_points, 0);
        assert!(report.det_at_end);
    }
}

#[test]
fn internal_nondeterminism_is_real() {
    // Force the two update orders and verify the intermediate value of G
    // differs (9 vs 5) while the final value is 12 either way — exactly
    // Figure 1(b) vs 1(c).
    let run_forced = |first: u32| {
        let script = std::sync::Arc::new(vec![first; 8]);
        figure1()
            .run(
                &RunConfig::random(0)
                    .with_trace()
                    .with_scheduler(SchedulerKind::Scripted { script }),
            )
            .unwrap()
    };
    let a = run_forced(0);
    let b = run_forced(1);
    let g = tsim::Addr(tsim::GLOBALS_BASE);
    assert_eq!(a.final_word(g), Some(12));
    assert_eq!(b.final_word(g), Some(12));

    // The store sequences differ: thread 0 first writes 9; thread 1
    // first writes 5.
    let intermediate = |out: &tsim::RunOutcome<tsim::NullMonitor>| {
        out.trace
            .as_ref()
            .unwrap()
            .accesses()
            .filter(|(e, _, w)| *w && matches!(e.op, tsim::TraceOp::Store(_)))
            .count()
    };
    assert_eq!(intermediate(&a), 2);
    assert_eq!(intermediate(&b), 2);
    assert_ne!(a.decisions, b.decisions);
}

#[test]
fn per_thread_hashes_differ_but_state_hash_agrees() {
    // The Figure 2 observation, measured on real runs: thread hashes can
    // differ between runs whose state hashes agree.
    use instantcheck::{CheckMonitor, IgnoreSpec};

    let run = |first: u32| {
        let script = std::sync::Arc::new(vec![first; 8]);
        let monitor = CheckMonitor::new(Scheme::HwInc, None, IgnoreSpec::new());
        figure1()
            .run_with(
                &RunConfig::random(0).with_scheduler(SchedulerKind::Scripted { script }),
                monitor,
            )
            .unwrap()
            .monitor
            .into_hashes()
    };
    let a = run(0);
    let b = run(1);
    assert_eq!(
        a.checkpoints.last().unwrap().hash,
        b.checkpoints.last().unwrap().hash,
        "external determinism: state hashes agree"
    );
}
