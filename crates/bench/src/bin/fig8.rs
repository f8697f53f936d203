//! Regenerates Figure 8: distributions of nondeterminism points for the
//! seeded bugs of Figure 7 (checked with FP rounding, so all observed
//! nondeterminism is the bug's).

use adhash::FpRound;
use instantcheck_bench::{cli, distributions, render_distributions, HarnessOpts, Reporter};

fn main() {
    let opts = HarnessOpts::from_args(cli::CAMPAIGN_READS);
    let r = Reporter::new("fig8");
    let mut reports = Vec::new();
    for app in opts.seeded() {
        r.progress(&format!("  measuring distributions for {}…", app.name));
        let rounding = app.uses_fp.then(FpRound::default);
        if let Some(report) = distributions(&app, &opts, rounding, &r) {
            reports.push(report);
        }
    }
    r.require_rows(&reports);
    r.table(&render_distributions(&reports));
    r.artifact(&reports);
}
