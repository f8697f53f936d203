//! Property-based tests of the checker: programs built only from
//! schedule-commutative operations are always classified deterministic
//! (no false positives), and injecting a single order-sensitive
//! operation is always detectable (no false negatives within the
//! campaign's coverage) — under all three schemes.

use instantcheck::{Checker, CheckerConfig, Scheme};
use minicheck::{check, Gen};
use tsim::{Program, ProgramBuilder, ValKind};

const CELLS: usize = 6;

/// Operations that commute across threads (locked adds, atomics,
/// private writes) — any program made of these is externally
/// deterministic.
#[derive(Debug, Clone, Copy)]
enum CommutingOp {
    LockedAdd(u8),
    AtomicBump(u8),
    PrivateStore(u8),
}

fn gen_op(g: &mut Gen) -> CommutingOp {
    match g.usize_in(0, 3) {
        0 => CommutingOp::LockedAdd(g.u8()),
        1 => CommutingOp::AtomicBump(g.u8()),
        _ => CommutingOp::PrivateStore(g.u8()),
    }
}

fn gen_bodies(g: &mut Gen) -> Vec<Vec<CommutingOp>> {
    g.vec_of(2, 4, |g| g.vec_of(1, 12, gen_op))
}

/// When `poison` is set, thread 0's *first* operation snapshots cell 0
/// into `last_writer`, and thread 1's *first* operation adds to cell 0 —
/// so their order is decided by the very first scheduling decisions and
/// flips with probability ~1/2 per run. (Had the snapshot been buried
/// deep in one body, the random serialized scheduler could order it the
/// same way in almost every run — the paper's "within the test
/// coverage" caveat, demonstrated by construction.)
fn build(bodies: &[Vec<CommutingOp>], poison: bool) -> Program {
    let nthreads = bodies.len();
    let mut b = ProgramBuilder::new(nthreads);
    let shared = b.global("shared", ValKind::U64, CELLS);
    let privates = b.global("privates", ValKind::U64, nthreads);
    let last_writer = b.global("last_writer", ValKind::U64, 1);
    let lock = b.mutex();
    for (tid, body) in bodies.iter().enumerate() {
        let body = body.clone();
        b.thread(async move |ctx| {
            if poison && tid == 0 {
                // The order-sensitive snapshot, first thing.
                ctx.lock(lock).await;
                let seen = ctx.load(shared.at(0)).await;
                ctx.store(last_writer.at(0), seen.wrapping_mul(3) + 1).await;
                ctx.unlock(lock).await;
            }
            if poison && tid == 1 {
                // The conflicting add, first thing.
                ctx.lock(lock).await;
                let cur = ctx.load(shared.at(0)).await;
                ctx.store(shared.at(0), cur + 100).await;
                ctx.unlock(lock).await;
            }
            for op in &body {
                match *op {
                    CommutingOp::LockedAdd(v) => {
                        let cell = shared.at(v as usize % CELLS);
                        ctx.lock(lock).await;
                        let cur = ctx.load(cell).await;
                        ctx.store(cell, cur + 1 + u64::from(v)).await;
                        ctx.unlock(lock).await;
                    }
                    CommutingOp::AtomicBump(v) => {
                        let _ = ctx.fetch_add(shared.at(v as usize % CELLS), 2).await;
                    }
                    CommutingOp::PrivateStore(v) => {
                        ctx.store(privates.at(tid), u64::from(v)).await;
                    }
                }
            }
        });
    }
    b.build()
}

/// No false positives: commuting-only programs are deterministic
/// under every scheme.
#[test]
fn commuting_programs_are_always_deterministic() {
    check("commuting_programs_are_always_deterministic", 12, |g| {
        let bodies = gen_bodies(g);
        for scheme in [Scheme::HwInc, Scheme::SwInc, Scheme::SwTr] {
            let bodies = bodies.clone();
            let report = Checker::new(CheckerConfig::new(scheme).with_runs(6))
                .expect("valid config")
                .check(move || build(&bodies, false))
                .unwrap();
            assert!(report.is_deterministic(), "{scheme:?}");
        }
    });
}

/// Sensitivity: snapshotting a mid-computation value (which depends
/// on how much the other threads have already added) is caught —
/// unless every schedule happens to order it identically, which the
/// campaign's randomization makes vanishingly rare for nonempty
/// bodies.
#[test]
fn order_sensitive_snapshot_is_caught() {
    check("order_sensitive_snapshot_is_caught", 12, |g| {
        let bodies = gen_bodies(g);
        let report = Checker::new(CheckerConfig::new(Scheme::HwInc).with_runs(16))
            .expect("valid config")
            .check(move || build(&bodies, true))
            .unwrap();
        assert!(!report.is_deterministic());
    });
}

/// Agreement: the three schemes produce identical per-checkpoint
/// verdict profiles on arbitrary commuting programs with a poisoned
/// thread.
#[test]
fn schemes_agree_on_arbitrary_programs() {
    check("schemes_agree_on_arbitrary_programs", 12, |g| {
        let bodies = gen_bodies(g);
        let profile = |scheme| {
            let bodies = bodies.clone();
            let report = Checker::new(CheckerConfig::new(scheme).with_runs(6))
                .expect("valid config")
                .check(move || build(&bodies, true))
                .unwrap();
            report
                .distributions
                .iter()
                .map(|d| d.counts().to_vec())
                .collect::<Vec<_>>()
        };
        let hw = profile(Scheme::HwInc);
        assert_eq!(&hw, &profile(Scheme::SwInc));
        assert_eq!(&hw, &profile(Scheme::SwTr));
    });
}
