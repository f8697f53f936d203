//! §6.1 demonstration: filtering out benign data races by comparing the
//! state hashes of runs in which the race resolved in each order
//! (Narayanasamy et al.'s flip-and-compare, made cheap by InstantCheck).
//!
//! Each candidate race is classified against the state of the program
//! that contains it (as in the original approach, the comparison is per
//! race: a harmful race elsewhere in the same program would dominate the
//! whole-state comparison).

use instantcheck_bench::{HarnessOpts, Reporter};
use instantcheck_explorer::races::{classify_races, RaceReport};
use tsim::{Program, ProgramBuilder, ValKind};

/// Benign: both threads set the same "done" flag value (the
/// volrend-style idempotent race).
fn benign_flag() -> Program {
    let mut b = ProgramBuilder::new(2);
    let flag = b.global("done_flag", ValKind::U64, 1);
    for _ in 0..2 {
        b.thread(async move |ctx| {
            ctx.work(10);
            ctx.store(flag.at(0), 1).await;
        });
    }
    b.build()
}

/// Benign: racy reads of a published value feeding an idempotent update.
fn benign_republish() -> Program {
    let mut b = ProgramBuilder::new(2);
    let cell = b.global("cell", ValKind::U64, 1);
    b.setup(move |s| s.store(cell.at(0), 5));
    for _ in 0..2 {
        b.thread(async move |ctx| {
            let v = ctx.load(cell.at(0)).await; // racy read…
            ctx.store(cell.at(0), v | 5).await; // …but the update is idempotent
        });
    }
    b.build()
}

/// Harmful: last writer wins with different values.
fn harmful_last_writer() -> Program {
    let mut b = ProgramBuilder::new(2);
    let winner = b.global("winner", ValKind::U64, 1);
    for t in 0..2u64 {
        b.thread(async move |ctx| {
            ctx.work(10);
            ctx.store(winner.at(0), t + 1).await;
        });
    }
    b.build()
}

/// Harmful: unsynchronized read-modify-write loses updates.
fn harmful_lost_update() -> Program {
    let mut b = ProgramBuilder::new(2);
    let counter = b.global("counter", ValKind::U64, 1);
    for _ in 0..2 {
        b.thread(async move |ctx| {
            let v = ctx.load(counter.at(0)).await;
            ctx.sched_yield().await; // widen the window
            ctx.store(counter.at(0), v + 1).await;
        });
    }
    b.build()
}

fn show(r: &Reporter, name: &str, report: &RaceReport) {
    for race in &report.races {
        r.line(format!(
            "{:<22} {:<12} {:>10} {:>16} {:>16}",
            name,
            race.addr.to_string(),
            format!("{}<->{}", race.threads.0, race.threads.1),
            format!("{}/{}", race.order_counts.0, race.order_counts.1),
            format!("{:?}", race.verdict),
        ));
    }
}

type Case = (&'static str, fn() -> Program);

fn main() {
    let opts = HarnessOpts::from_args(&[&["--runs N", "--seed N"]]);
    let r = Reporter::new("race_filter");
    let runs = opts.spec.runs.max(20);
    r.line(format!(
        "{:<22} {:<12} {:>10} {:>16} {:>16}",
        "program", "address", "threads", "orders seen", "verdict"
    ));
    r.line(format!("{:-<82}", ""));

    let mut rows = Vec::new();
    let mut benign = 0usize;
    let mut harmful = 0usize;
    let cases: [Case; 4] = [
        ("benign_flag", benign_flag),
        ("benign_republish", benign_republish),
        ("harmful_last_writer", harmful_last_writer),
        ("harmful_lost_update", harmful_lost_update),
    ];
    for (name, source) in cases {
        let report = classify_races(source, runs, opts.spec.base_seed).expect("runs complete");
        show(&r, name, &report);
        benign += report.benign().count();
        harmful += report.harmful().count();
        for race in &report.races {
            rows.push((
                name.to_owned(),
                race.addr.raw(),
                format!("{:?}", race.verdict),
            ));
        }
    }
    r.line(format!(
        "\n{benign} benign race(s) filtered out, {harmful} harmful race(s) kept \
         (the paper cites ~90% of real races as benign)"
    ));
    r.artifact(&rows);
}
