//! Regenerates Figure 5: distributions of nondeterminism points for
//! representative applications (how many of the 30 runs produced each
//! distinct state at each checking point).

use instantcheck_bench::{distributions, render_distributions, HarnessOpts, Reporter};

const APPS: [&str; 3] = ["canneal", "fluidanimate", "sphinx3"];

fn main() {
    let opts = HarnessOpts::from_args();
    let r = Reporter::new("fig5");
    let mut reports = Vec::new();
    // (a) an inherently nondeterministic app; (b) an FP-precision app
    // checked bit-exactly (the "highly nondeterministic without
    // rounding" panel); (c) a small-struct app checked bit-exactly.
    for name in APPS {
        r.progress(&format!("  measuring distributions for {name}…"));
        let app = instantcheck_workloads::by_name(name, opts.scaled).expect("registered");
        if let Some(report) = distributions(&app, &opts, None, &r) {
            reports.push(report);
        }
    }
    r.table(&render_distributions(&reports));
    r.artifact(&reports);
}
