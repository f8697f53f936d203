//! Regenerates Figure 6: instructions executed under the four
//! configurations (Native, HW-InstantCheck_Inc, SW-InstantCheck_Inc-
//! Ideal, SW-InstantCheck_Tr-Ideal), normalized to Native, including the
//! GEOM bars and the sphinx3 delete-4% case.

use instantcheck_bench::{cli, fig6, render_fig6, HarnessOpts, Reporter};

fn main() {
    let opts = HarnessOpts::from_args(&[&["--seed N", cli::SCALED]]);
    let r = Reporter::new("fig6");
    r.progress("Figure 6: measuring the four configurations per app…");
    let (rows, geom, deletion) = fig6(&opts);
    r.table(&render_fig6(&rows, &geom, &deletion));
    r.artifact(&(rows, geom, deletion));
}
