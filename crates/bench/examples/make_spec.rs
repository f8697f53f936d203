//! Prints the canonical single-line JSON for a campaign spec assembled
//! from the shared harness flags — the format `--spec FILE` and the
//! `icd` orchestrator's batch lines consume.
//!
//! ```text
//! cargo run -p instantcheck-bench --example make_spec -- \
//!     --workload canneal:scaled --runs 8 --seed 1 > canneal.spec.json
//! ```

fn main() {
    let sa = instantcheck_bench::HarnessOpts::from_args(&[instantcheck_bench::cli::SPEC_FLAGS]);
    if sa.spec.workload.is_empty() {
        eprintln!("note: no --workload set; the spec is a template");
    }
    println!("{}", sa.spec.to_json());
}
