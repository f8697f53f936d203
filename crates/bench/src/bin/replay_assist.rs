//! §6.3 demonstration: hash-assisted deterministic replay. Record a
//! partial decision log plus checkpoint hashes of an original run, then
//! search completions until the hashes confirm full-state reproduction.

use instantcheck_bench::{HarnessOpts, Reporter};
use instantcheck_explorer::replay::{record_partial_log, search_replay};
use tsim::{Program, ProgramBuilder, ValKind};

fn program() -> Program {
    let mut b = ProgramBuilder::new(3);
    let g = b.global("g", ValKind::U64, 2);
    let bar = b.barrier();
    let lock = b.mutex();
    for t in 0..3u64 {
        b.thread(async move |ctx| {
            ctx.lock(lock).await;
            let v = ctx.load(g.at(0)).await;
            ctx.store(g.at(0), v * 3 + t).await;
            ctx.unlock(lock).await;
            ctx.barrier(bar).await;
            ctx.lock(lock).await;
            let v = ctx.load(g.at(1)).await;
            ctx.store(g.at(1), v * 5 + t).await;
            ctx.unlock(lock).await;
        });
    }
    b.build()
}

fn main() {
    let opts = HarnessOpts::from_args(&[&["--seed N"]]);
    let r = Reporter::new("replay_assist");
    r.line(format!(
        "{:>12} {:>10} {:>12} {:>14}",
        "log kept", "attempts", "reproduced", "early rejects"
    ));
    r.line("-".repeat(54));
    let mut rows = Vec::new();
    for fraction in [1.0, 0.75, 0.5, 0.25, 0.0] {
        let log = record_partial_log(&program, opts.spec.base_seed + 42, fraction)
            .expect("recording run completes");
        let result = search_replay(&program, &log, 2000).expect("search runs complete");
        r.line(format!(
            "{:>11}% {:>10} {:>12} {:>14}",
            (fraction * 100.0) as u32,
            result.attempts,
            result.reproducing_seed.is_some(),
            result.early_rejects,
        ));
        rows.push((fraction, result.attempts, result.reproducing_seed.is_some()));
    }
    r.line("\nShorter logs need longer searches; the checkpoint hashes both");
    r.line("confirm full-state reproduction and reject divergent candidates");
    r.line("at intermediate checkpoints (§6.3).");
    r.artifact(&rows);
}
