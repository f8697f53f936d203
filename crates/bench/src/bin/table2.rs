//! Regenerates Table 2: detection of the three seeded bugs (Figure 7).

use instantcheck_bench::{render_table2, table2_row, HarnessOpts, Reporter};

fn main() {
    let opts = HarnessOpts::from_args();
    let r = Reporter::new("table2");
    r.progress(&format!("Table 2: {} runs per campaign…", opts.spec.runs));
    let mut rows = Vec::new();
    for app in opts.seeded() {
        r.progress(&format!("  checking {}…", app.name));
        if let Some(row) = table2_row(&app, &opts, &r) {
            rows.push(row);
        }
    }
    r.table(&render_table2(&rows));
    r.artifact(&rows);
}
