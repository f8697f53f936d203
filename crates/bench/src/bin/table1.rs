//! Regenerates Table 1: determinism characteristics of the 17
//! applications. `--scaled` for miniatures, `--runs N` (default 30).

use instantcheck_bench::{render_table1, table1_row, HarnessOpts, Reporter};

fn main() {
    let opts = HarnessOpts::from_args();
    let r = Reporter::new("table1");
    r.progress(&format!(
        "Table 1: {} runs per campaign, {} workloads…",
        opts.spec.runs,
        if opts.scaled { "scaled" } else { "paper-scale" }
    ));
    let mut rows = Vec::new();
    for app in opts.apps() {
        r.progress(&format!("  characterizing {}…", app.name));
        if let Some(row) = table1_row(&app, &opts, &r) {
            rows.push(row);
        }
    }
    r.table(&render_table1(&rows));
    r.line("* streamcluster: nondeterministic barriers caused by the PARSEC 2.1");
    r.line("  order-violation bug; with the bug fixed they become deterministic.");
    r.artifact(&rows);
}
