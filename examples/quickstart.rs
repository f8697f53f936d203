//! Quickstart: check the external determinism of a small parallel
//! program — the paper's Figure 1 example.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use instantcheck::{Checker, CheckerConfig, Scheme};
use tsim::{Program, ProgramBuilder, ValKind};

/// Figure 1: two threads add their local value to a shared global under
/// a lock. The interleaving (and the intermediate values of G) differ
/// between runs, but the final state is always G == 12: *internally*
/// nondeterministic, *externally* deterministic.
///
/// Each thread body is an async closure: every `ThreadCtx` operation
/// that can switch threads is awaited, and the simulator polls the
/// bodies in turn on the thread that runs the program.
fn figure1() -> Program {
    let mut b = ProgramBuilder::new(2);
    let g = b.global("G", ValKind::U64, 1);
    let lock = b.mutex();
    b.setup(move |s| s.store(g.at(0), 2)); // fixed input: G == 2
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

/// The same program without the lock and with a non-commutative update:
/// last writer wins, so the final state depends on the schedule.
fn last_writer_wins() -> Program {
    let mut b = ProgramBuilder::new(2);
    let g = b.global("G", ValKind::U64, 1);
    for local in [7u64, 3u64] {
        b.thread(async move |ctx| {
            ctx.store(g.at(0), local).await;
        });
    }
    b.build()
}

fn main() {
    // Run each program 20 times under random serialized schedules,
    // hashing the memory state at every checkpoint with the modeled
    // MHM hardware (HW-InstantCheck_Inc).
    let checker =
        Checker::new(CheckerConfig::new(Scheme::HwInc).with_runs(20)).expect("valid config");

    let report = checker.check(figure1).expect("runs complete");
    println!("figure1 (G += L under a lock):");
    println!("  deterministic        : {}", report.is_deterministic());
    println!("  checking points      : {}", report.aligned_checkpoints);
    println!(
        "  det / nondet points  : {} / {}",
        report.det_points, report.ndet_points
    );

    let report = checker.check(last_writer_wins).expect("runs complete");
    println!("last-writer-wins (racy, non-commutative):");
    println!("  deterministic        : {}", report.is_deterministic());
    println!(
        "  first nondet run     : {:?} (the paper reports detection in run 2-3)",
        report.first_ndet_run
    );
    println!(
        "  final-state spread   : {} over {} runs",
        report.distributions.last().expect("end checkpoint"),
        report.runs
    );
}
