//! §6.2 demonstration: systematic-testing state pruning. Exhaustively
//! explores small programs and reports how many executions a
//! happens-before prune (CHESS) keeps versus a state-hash prune
//! (InstantCheck) — the hash partition is coarser, so it prunes more.

use instantcheck_bench::{HarnessOpts, Reporter};
use instantcheck_explorer::systematic::{explore, explore_with_state_pruning};
use tsim::{Program, ProgramBuilder, ValKind};

fn commuting(n: usize) -> impl Fn() -> Program {
    move || {
        let mut b = ProgramBuilder::new(n);
        let g = b.global("G", ValKind::U64, 1);
        let lock = b.mutex();
        for t in 0..n as u64 {
            b.thread(async move |ctx| {
                ctx.lock(lock).await;
                let v = ctx.load(g.at(0)).await;
                ctx.store(g.at(0), v + 10 * (t + 1)).await;
                ctx.unlock(lock).await;
            });
        }
        b.build()
    }
}

fn last_writer(n: usize) -> impl Fn() -> Program {
    move || {
        let mut b = ProgramBuilder::new(n);
        let g = b.global("G", ValKind::U64, 1);
        let lock = b.mutex();
        for t in 0..n as u64 {
            b.thread(async move |ctx| {
                ctx.lock(lock).await;
                ctx.store(g.at(0), t + 1).await;
                ctx.unlock(lock).await;
            });
        }
        b.build()
    }
}

fn two_phase_commuting(n: usize) -> impl Fn() -> Program {
    move || {
        let mut b = ProgramBuilder::new(n);
        let g = b.global("G", ValKind::U64, 2);
        let bar = b.barrier();
        let lock = b.mutex();
        for t in 0..n as u64 {
            b.thread(async move |ctx| {
                ctx.lock(lock).await;
                let v = ctx.load(g.at(0)).await;
                ctx.store(g.at(0), v + 10 * (t + 1)).await;
                ctx.unlock(lock).await;
                ctx.barrier(bar).await;
                ctx.lock(lock).await;
                let v = ctx.load(g.at(1)).await;
                ctx.store(g.at(1), v + 100 * (t + 1)).await;
                ctx.unlock(lock).await;
            });
        }
        b.build()
    }
}

fn main() {
    let _opts = HarnessOpts::from_args();
    let r = Reporter::new("pruning");
    r.line(format!(
        "{:<28} {:>11} {:>12} {:>12} {:>10}",
        "program", "executions", "HB classes", "state seqs", "states"
    ));
    r.line("-".repeat(78));
    let mut rows = Vec::new();
    for (name, stats) in [
        (
            "figure1 (2 commuting)",
            explore(commuting(2), 200_000).unwrap(),
        ),
        (
            "3 commuting threads",
            explore(commuting(3), 200_000).unwrap(),
        ),
        (
            "2 last-writer threads",
            explore(last_writer(2), 200_000).unwrap(),
        ),
        (
            "3 last-writer threads",
            explore(last_writer(3), 200_000).unwrap(),
        ),
    ] {
        r.line(format!(
            "{:<28} {:>11} {:>12} {:>12} {:>10}{}",
            name,
            stats.executions,
            stats.distinct_hb_classes,
            stats.distinct_state_sequences,
            stats.distinct_final_states,
            if stats.truncated { " (truncated)" } else { "" },
        ));
        rows.push((name.to_owned(), stats));
    }
    r.line("\nState-hash pruning explores at most `states`; a happens-before");
    r.line("prune must still explore `HB classes` (CHESS); the gap is the");
    r.line("speedup InstantCheck enables (§6.2).\n");

    // Second panel: an actual state-pruned search on a barrier-structured
    // program, segment by segment, versus exhaustive enumeration.
    r.line(format!(
        "{:<34} {:>16} {:>16} {:>8}",
        "two-phase commuting program", "runs (exhaustive)", "runs (pruned)", "states"
    ));
    r.line(format!("{:-<78}", ""));
    for n in [2usize, 3] {
        let full = explore(two_phase_commuting(n), 4_000_000).unwrap();
        let pruned = explore_with_state_pruning(two_phase_commuting(n), 4_000_000).unwrap();
        assert_eq!(full.distinct_final_states, pruned.distinct_final_states);
        r.line(format!(
            "{:<34} {:>17} {:>16} {:>8}",
            format!("{n} threads x 2 phases"),
            full.executions,
            pruned.executions,
            pruned.distinct_final_states,
        ));
    }
    r.line("\nPruning at barrier checkpoints by state hash turns the multiplicative");
    r.line("(phase1 x phase2) schedule tree into an additive search.");
    r.artifact(
        &rows
            .iter()
            .map(|(n, s)| {
                (
                    n.clone(),
                    s.executions,
                    s.distinct_hb_classes,
                    s.distinct_final_states,
                )
            })
            .collect::<Vec<_>>(),
    );
}
