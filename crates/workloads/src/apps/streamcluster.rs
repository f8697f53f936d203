//! `streamcluster` (PARSEC) — the paper's headline anecdote.
//!
//! The kernel runs a long sequence of barrier-delimited clustering
//! iterations. Fixed, it is bit-by-bit deterministic. The *buggy*
//! variant reproduces the real order-violation race InstantCheck found
//! in PARSEC 2.1 streamcluster: inside a window of iterations, the
//! coordinator thread publishes the updated center *after* the barrier
//! instead of before it, so worker reads of the center in the next
//! iteration race with the write. The corrupted scratch values are
//! rewritten deterministically once the window passes, so the
//! nondeterminism shows at exactly the window's barriers and is *masked
//! by the end of the run* — it is caught only because InstantCheck
//! checks at every dynamic barrier (74 of 13002 points in the paper).

use std::sync::Arc;

use instantcheck::DetClass;
use tsim::{Program, ProgramBuilder, ValKind};

use crate::util::unit_f64;
use crate::{AppSpec, THREADS};

/// Scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads (thread 0 is also the coordinator).
    pub threads: usize,
    /// Barrier-delimited iterations.
    pub iterations: usize,
    /// First buggy iteration (ignored unless `buggy`).
    pub bug_start: usize,
    /// Number of buggy iterations.
    pub bug_len: usize,
    /// Seed the order-violation race.
    pub buggy: bool,
    /// Size of the (read-mostly) point set. The large static state is
    /// what makes traversal hashing expensive here relative to the few
    /// writes between barriers (Figure 6).
    pub points: usize,
}

impl Default for Params {
    fn default() -> Self {
        // 13001 barriers + end = 13002 checking points; 74 buggy.
        Params {
            threads: THREADS,
            iterations: 13_001,
            bug_start: 3_000,
            bug_len: 74,
            buggy: true,
            points: 2000,
        }
    }
}

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let threads = p.threads;
    let iterations = p.iterations;
    let bug = p.buggy.then_some((p.bug_start, p.bug_start + p.bug_len));

    let npoints = p.points;
    let mut b = ProgramBuilder::new(threads);
    // Double-buffered: iteration i reads center[i % 2] and the
    // coordinator publishes center[(i + 1) % 2], so correct code has no
    // read/write conflict within an iteration.
    let center = b.global("center", ValKind::F64, 2);
    let scratch = b.global("scratch", ValKind::F64, threads);
    let cost = b.global("cost", ValKind::F64, threads);
    let points = b.global("points", ValKind::F64, npoints);
    let bar = b.barrier();

    b.setup(move |s| {
        s.store_f64(center.at(0), 1.0);
        s.store_f64(center.at(1), 1.0);
        for i in 0..npoints {
            s.store_f64(points.at(i), unit_f64(i as u64 + 900_000));
        }
    });

    for tid in 0..threads {
        b.thread(async move |ctx| {
            for i in 0..iterations {
                // Every worker evaluates the current center against its
                // slice of the points and records a per-thread cost.
                let c = ctx.load_f64(center.at(i % 2)).await;
                let pt = ctx.load_f64(points.at((i * 7 + tid * 13) % npoints)).await;
                let local = (c * 0.9 + pt + unit_f64((i * 31 + tid) as u64)).fract();
                ctx.store_f64(scratch.at(tid), local).await;
                // Overwritten every iteration: corruption in the bug
                // window does not persist past it.
                ctx.store_f64(cost.at(tid), local * 1.5).await;
                ctx.work(175);

                let in_bug_window = bug.is_some_and(|(lo, hi)| i >= lo && i < hi);
                // The coordinator publishes the next center. Correct
                // code publishes *before* the barrier so workers' reads
                // in iteration i+1 are ordered after the write.
                if tid == 0 && !in_bug_window {
                    ctx.store_f64(center.at((i + 1) % 2), unit_f64(i as u64) + 0.25)
                        .await;
                }
                ctx.barrier(bar).await;
                if tid == 0 && in_bug_window {
                    // ORDER VIOLATION: the publish slid past the
                    // barrier; workers already started iteration i+1 and
                    // race with this store.
                    ctx.store_f64(center.at((i + 1) % 2), unit_f64(i as u64) + 0.25)
                        .await;
                }
            }
        });
    }
    b.build()
}

fn make_spec(p: Params, name: &'static str, class: DetClass) -> AppSpec {
    AppSpec {
        name,
        suite: "parsec",
        uses_fp: true,
        expected_class: class,
        expected_points: p.iterations + 1,
        ignore: instantcheck::IgnoreSpec::new(),
        build: Arc::new(move || build(&p)),
    }
}

/// Paper scale, original buggy code (v2.1): 13002 checking points, 74 of
/// them nondeterministic, deterministic at the end. The paper's Table 1
/// groups this with the bit-by-bit deterministic applications (starred).
pub fn spec_buggy() -> AppSpec {
    make_spec(Params::default(), "streamcluster", DetClass::BitExact)
}

/// Paper scale, with the bug fixed: fully bit-by-bit deterministic.
pub fn spec_fixed() -> AppSpec {
    make_spec(
        Params {
            buggy: false,
            ..Params::default()
        },
        "streamcluster-fixed",
        DetClass::BitExact,
    )
}

/// Miniature buggy variant for tests.
pub fn spec_buggy_scaled() -> AppSpec {
    make_spec(
        Params {
            threads: 4,
            iterations: 60,
            bug_start: 20,
            bug_len: 6,
            buggy: true,
            points: 64,
        },
        "streamcluster",
        DetClass::BitExact,
    )
}

/// Miniature fixed variant for tests.
pub fn spec_fixed_scaled() -> AppSpec {
    make_spec(
        Params {
            threads: 4,
            iterations: 60,
            bug_start: 20,
            bug_len: 6,
            buggy: false,
            points: 64,
        },
        "streamcluster-fixed",
        DetClass::BitExact,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use instantcheck::{Checker, CheckerConfig, Scheme};

    fn campaign(spec: &AppSpec, runs: usize) -> instantcheck::CheckReport {
        let build = Arc::clone(&spec.build);
        Checker::new(CheckerConfig::new(Scheme::HwInc).with_runs(runs))
            .expect("valid config")
            .check(move || build())
            .unwrap()
    }

    #[test]
    fn fixed_variant_is_bit_exact_deterministic() {
        let report = campaign(&spec_fixed_scaled(), 8);
        assert!(report.is_deterministic());
        assert_eq!(report.aligned_checkpoints, 61);
    }

    #[test]
    fn buggy_variant_is_nondet_only_in_the_window_and_masked_at_end() {
        let report = campaign(&spec_buggy_scaled(), 10);
        assert!(!report.is_deterministic());
        assert!(report.det_at_end, "the bug is masked by the end of the run");
        // Nondeterministic barriers are exactly the window's barriers
        // (i+1 for each buggy iteration i in [20, 26)).
        let ndet: Vec<usize> = (0..report.aligned_checkpoints)
            .filter(|&i| !report.distributions[i].is_deterministic())
            .collect();
        assert!(!ndet.is_empty());
        assert!(
            ndet.iter().all(|&i| (21..=26).contains(&i)),
            "nondet checkpoints {ndet:?} escape the bug window"
        );
        assert!(
            ndet.len() >= 3,
            "most window barriers should catch it: {ndet:?}"
        );
    }

    #[test]
    fn bug_is_invisible_if_you_only_check_the_end() {
        // The paper's point: checking only at the end misses the bug.
        let report = campaign(&spec_buggy_scaled(), 10);
        let end = report.distributions.last().unwrap();
        assert!(end.is_deterministic());
    }
}
