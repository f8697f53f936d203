//! `campaignbench` — one end-to-end benchmark of InstantCheck checking
//! campaigns, with per-layer time attribution.
//!
//! ```text
//! campaignbench --workload <cold-check|warm-replay|daemon-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up three times (reporting the
//! median set-up time), measures for `--seconds`, and prints the
//! end-to-end metrics. With `--trace 1` it sets up once, measures half
//! the time untraced and half traced, and prints the per-layer metrics.
//! The last line of standard output is the result object; the line
//! before it carries the run's provenance. Exit status: 0 when every
//! campaign reproduced its reference (and, traced, the predicted layer
//! split held), 1 when not, 2 on a usage or set-up error.
//!
//! See README.md beside this file for the workloads and the metrics.

mod gen;
mod report;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use report::{bases_json, num, quote, result_json, Metrics};
use workloads::{Section, Setup, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Alters one reference byte, to show the correctness gate fails.
    corrupt_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt_reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        corrupt_reference,
    })
}

/// Working directory for corpora, removed on every exit path.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(path: PathBuf) -> Result<WorkDir, String> {
        workloads::remove_dir(&path)?;
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs whole passes until `seconds` have elapsed and at least
/// `min_campaigns` campaigns have run (bounded at ten times `seconds`).
fn section(
    setup: &Setup,
    work: &Path,
    seconds: f64,
    min_campaigns: u64,
) -> Result<Section, String> {
    let mut sec = Section::default();
    let start = Instant::now();
    loop {
        workloads::pass(setup, work, &mut sec)?;
        let elapsed = start.elapsed().as_secs_f64();
        let enough = sec.campaigns >= min_campaigns;
        if (elapsed >= seconds && enough) || elapsed >= 10.0 * seconds {
            return Ok(sec);
        }
    }
}

/// The commit measured: `git rev-parse HEAD` in the directory the
/// benchmark sits in (never a repository above it), or "unknown".
fn commit(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

struct Outcome {
    metrics: Metrics,
    sections: Vec<Section>,
    setup_s: Vec<f64>,
    campaigns_per_pass: usize,
    runs_per_pass: usize,
    predictions: Vec<String>,
}

fn measure(args: &Args, work: &Path, out: &Path) -> Result<Outcome, String> {
    let setups = if args.trace { 1 } else { 3 };
    let mut setup_s = Vec::with_capacity(setups);
    let mut setup = None;
    for _ in 0..setups {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(workloads::setup(args.workload, args.seed, work)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("at least one set-up");
    if args.corrupt_reference {
        setup.corrupt_one_reference();
    }
    let campaigns_per_pass = setup.all().count();
    let runs_per_pass = setup.runs_per_pass();
    let seconds = args.seconds as f64;
    let min = stats::needed_for(0.9) as u64;
    if !args.trace {
        let sec = section(&setup, work, seconds, min)?;
        return Ok(Outcome {
            metrics: report::end_to_end(&sec, &setup_s)?,
            sections: vec![sec],
            setup_s,
            campaigns_per_pass,
            runs_per_pass,
            predictions: Vec::new(),
        });
    }
    let untraced = section(&setup, work, seconds / 2.0, min)?;
    trace::set_tracing(true);
    // The dwell p99 is taken over campaigns, so the daemon's traced half
    // runs until it has enough of them.
    let traced_min = match args.workload {
        Workload::Daemon => stats::needed_for(0.99) as u64,
        _ => min,
    };
    let traced = section(&setup, work, seconds / 2.0, traced_min);
    trace::set_tracing(false);
    let traced = traced?;
    let spans = trace::take();
    let adhash = report::adhash_ns_per_update(&setup)?;
    let metrics = report::per_layer(&setup, &untraced, &traced, &spans, &adhash)?;
    let spans_path = out.join(format!("{}-seed{}.spans", args.workload.name(), args.seed));
    trace::write_spans(&spans_path, &spans)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let predictions = report::check_predictions(args.workload, &metrics);
    Ok(Outcome {
        metrics,
        sections: vec![untraced, traced],
        setup_s,
        campaigns_per_pass,
        runs_per_pass,
        predictions,
    })
}

fn provenance(args: &Args, root: &Path, o: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sum = |f: fn(&Section) -> u64| o.sections.iter().map(f).sum::<u64>();
    let mut p = String::from("{\"provenance\":{");
    let _ = write!(
        p,
        "\"workload\":{},\"seed\":{},\"plan_fnv64\":\"{:016x}\",\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"workers\":{},\
         \"commit\":{},\"flush_policy\":{},\"segment_bytes\":{},\"campaigns_per_pass\":{},\"runs_per_pass\":{},\
         \"passes\":{},\"campaigns\":{},\"runs\":{},\"failed\":{},",
        quote(args.workload.name()),
        args.seed,
        corpus::fnv64(gen::render_plan(args.workload.name(), args.seed).unwrap_or_default().as_bytes()),
        args.seconds,
        u8::from(args.trace),
        workloads::WORKERS,
        quote(&commit(root)),
        quote(workloads::FLUSH_POLICY),
        workloads::SEGMENT_BYTES,
        o.campaigns_per_pass,
        o.runs_per_pass,
        sum(|s| s.passes),
        sum(|s| s.campaigns),
        sum(|s| s.slots),
        sum(|s| s.failed),
    );
    let list = |items: Vec<String>| items.join(",");
    let _ = write!(
        p,
        "\"pass_rates\":[{}],\"setup_s_samples\":[{}],\"samples\":{{{}}},\"bases\":{},\"unobservable\":[{}],\"reference_derived\":[{}],\"predictions_failed\":[{}],\"mismatches\":[{}]}}}}",
        list(o.sections.iter().flat_map(|s| &s.pass_rates).map(|r| format!("{:.0}", r.value())).collect()),
        list(o.setup_s.iter().map(|v| num(*v)).collect()),
        list(o.metrics.samples.iter().map(|(k, v)| format!("{}:{v}", quote(k))).collect()),
        bases_json(&o.metrics),
        list(o.metrics.unobservable.iter().map(|n| quote(n)).collect()),
        list(o.metrics.reference_derived.iter().map(|n| quote(n)).collect()),
        list(o.predictions.iter().map(|n| quote(n)).collect()),
        list(o.sections.iter().flat_map(|s| &s.mismatches).map(|m| quote(m)).collect()),
    );
    p
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaignbench: {e}");
            return ExitCode::from(2);
        }
    };
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = here.parent().unwrap_or(here);
    let out = here.join("out");
    let outcome = WorkDir::create(out.join(format!("work-{}", std::process::id())))
        .and_then(|work| measure(&args, &work.0, &out));
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("campaignbench: {e}");
            return ExitCode::from(2);
        }
    };
    let attempted: u64 = o.sections.iter().map(|s| s.campaigns).sum();
    let failed: u64 = o.sections.iter().map(|s| s.failed).sum();
    let correct = failed == 0 && o.predictions.is_empty();
    for m in o.sections.iter().flat_map(|s| &s.mismatches) {
        eprintln!("campaignbench: mismatch: {m}");
    }
    for p in &o.predictions {
        eprintln!("campaignbench: predicted layer split did not hold: {p}");
    }
    let provenance = provenance(&args, root, &o);
    let result = result_json(correct, attempted, failed, &o.metrics);
    println!("{provenance}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
