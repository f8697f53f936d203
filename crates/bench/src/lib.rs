//! Shared machinery for the experiment harness binaries.
//!
//! One binary per paper table/figure (see `src/bin/`): `table1`,
//! `table2`, `fig5`, `fig6`, `fig8`, `race_filter`, `pruning`,
//! `replay_assist`, plus the `icprof` trace profiler. Each prints a
//! human-readable table to stdout and writes a JSON artifact under
//! `results/`. The campaign binaries (`table1`, `table2`, `fig5`,
//! `fig8`) accept every spec flag, among them `--scaled` (miniature
//! workloads for a quick pass) and `--runs N`; the others refuse the
//! spec flags they do not read (see
//! [`HarnessOpts::from_args_reading`]). With `--trace`, campaign
//! binaries also write a deterministic event trace
//! (`results/<app>.trace.jsonl`) that `icprof` can profile or convert
//! for `chrome://tracing`; with
//! `--cache-model`, L1/MHM hit rates are measured and included in the
//! JSON artifacts; with `--corpus-dir DIR`, completed runs are recorded
//! to (and replayed from) a persistent content-addressed store — see
//! the `corpus` crate and the `corpus` binary, which records and
//! drift-checks campaign baselines against that store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use adhash::FpRound;
use instantcheck::{
    characterize, geometric_mean, measure_overhead, CampaignSpec, Characterization, CheckerConfig,
    IgnoreSpec,
};
use instantcheck_workloads::AppSpec;

pub mod cli;
pub mod json;

use json::{write_field, ToJson};

/// The parsed command line of a harness binary (see
/// [`cli::parse_spec`]): the campaign spec plus the harness-only
/// switches.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// The campaign template. Its `workload` is empty unless `--spec`
    /// supplied one — the table/figure binaries key each app's corpus
    /// entries by [`workload_id`](Self::workload_id). Corpus placement
    /// flags are echoed into the spec's shape-only `corpus_*` fields, so
    /// a recorded spec documents the storage it ran against without
    /// moving any run key.
    pub spec: CampaignSpec,
    /// `--scaled`: use miniature workloads.
    pub scaled: bool,
    /// `--trace`: record per-campaign event traces under `results/`.
    pub trace: bool,
    /// The persistent run corpus named by `--corpus-dir`, already
    /// opened with the sizing flags applied: completed runs are looked
    /// up in, and recorded to, the log-structured store, so repeated
    /// harness invocations replay instead of re-simulating. Warm
    /// campaigns produce byte-identical reports, so tables and figures
    /// are unaffected.
    pub corpus: Option<std::sync::Arc<corpus::Corpus>>,
    /// Arguments the parser did not recognize, in order — binaries
    /// with extra flags (subcommands, `--app`, …) consume these.
    pub rest: Vec<String>,
}

impl HarnessOpts {
    /// Parses the shared spec flags (see [`cli::parse_spec`]) from
    /// `std::env::args`. An unknown argument or a malformed value exits
    /// with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::or_exit(cli::parse_flags(&args, None, cli::no_rest))
    }

    /// [`from_args`](Self::from_args) for a binary that reads only the
    /// spec flags in `reads` (see [`cli::parse_spec_reading`]): any
    /// other spec flag is a usage error, exit status 2.
    pub fn from_args_reading(reads: &[&str]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::or_exit(cli::parse_flags(&args, Some(reads), cli::no_rest))
    }

    /// The parsed options, or exit status 2 with the usage error or
    /// the first unknown argument.
    fn or_exit(parsed: Result<Self, String>) -> Self {
        parsed.unwrap_or_else(|error| {
            eprintln!("{error}");
            std::process::exit(2);
        })
    }

    /// The workload registry for the chosen scale.
    pub fn apps(&self) -> Vec<AppSpec> {
        if self.scaled {
            instantcheck_workloads::all_scaled()
        } else {
            instantcheck_workloads::all()
        }
    }

    /// The seeded-bug registry for the chosen scale.
    pub fn seeded(&self) -> Vec<AppSpec> {
        if self.scaled {
            instantcheck_workloads::seeded_bugs_scaled()
        } else {
            instantcheck_workloads::seeded_bugs()
        }
    }

    /// The checker template: exactly the parsed [`spec`](Self::spec).
    pub fn template(&self) -> CheckerConfig {
        CheckerConfig::from_spec(&self.spec)
    }

    /// A fresh in-memory trace sink for one campaign, when `--trace`
    /// was passed.
    pub fn trace_sink(&self) -> Option<std::sync::Arc<obs::MemorySink>> {
        self.trace
            .then(|| std::sync::Arc::new(obs::MemorySink::new()))
    }

    /// The corpus workload id of one registered app at the chosen
    /// scale. The registry guarantees `(name, scale)` pins the built
    /// program exactly, which is the
    /// [`RunKey::workload`](instantcheck::RunKey) contract.
    pub fn workload_id(&self, app_name: &str) -> String {
        format!("{app_name}:{}", if self.scaled { "scaled" } else { "full" })
    }

    /// Attaches the `--corpus-dir` store (when present) to a campaign
    /// config, keyed by the app's [`workload_id`](Self::workload_id).
    pub fn with_corpus(&self, cfg: CheckerConfig, app_name: &str) -> CheckerConfig {
        match &self.corpus {
            Some(corpus) => cfg.with_run_cache(
                std::sync::Arc::clone(corpus) as _,
                self.workload_id(app_name),
            ),
            None => cfg,
        }
    }
}

/// One Table 1 row, measured.
#[derive(Debug)]
pub struct Table1Row {
    /// Application name.
    pub name: String,
    /// Suite.
    pub suite: String,
    /// FP operations present?
    pub fp: bool,
    /// Deterministic as is (bit by bit)?
    pub det_as_is: bool,
    /// First run detecting bit-exact nondeterminism.
    pub first_ndet_run: Option<usize>,
    /// "Det → Det" / "NDet → Det" / "NDet → NDet" / "-" for FP rounding.
    pub fp_impact: String,
    /// First nondeterministic run after FP rounding.
    pub first_ndet_after_fp: Option<usize>,
    /// "NDet → Det" when isolating small structures settled it.
    pub isolating: String,
    /// Deterministic dynamic checking points (final configuration).
    pub det_points: usize,
    /// Nondeterministic dynamic checking points.
    pub ndet_points: usize,
    /// Deterministic at the end of the program?
    pub det_at_end: bool,
    /// Final class.
    pub class: String,
    /// Failed runs the campaign's failure policy absorbed.
    pub failed_runs: usize,
    /// L1 demand hit rate in percent (`--cache-model`).
    pub l1_hit_rate: Option<f64>,
    /// MHM old-value read hit rate in percent (`--cache-model`).
    pub mhm_hit_rate: Option<f64>,
}

/// The campaign-wide cache rates of a report, when the cache model ran.
fn cache_rates(report: &instantcheck::CheckReport) -> (Option<f64>, Option<f64>) {
    match &report.cache {
        Some(c) => (Some(c.hit_rate()), Some(c.mhm_hit_rate())),
        None => (None, None),
    }
}

/// Logs a campaign failure and returns `None` so the caller can move on
/// to the next application instead of aborting the whole table.
fn log_and_skip<T>(app: &AppSpec, what: &str, err: &tsim::SimError) -> Option<T> {
    eprintln!(
        "  {}: {what} failed ({}: {err}) — skipping; rerun with --policy \
         skip or retry to salvage the campaign",
        app.name,
        err.kind(),
    );
    None
}

/// Logs any failures a completed campaign absorbed.
fn log_absorbed(app: &AppSpec, report: &instantcheck::CheckReport) {
    for f in &report.failures {
        eprintln!("  {}: absorbed failure: {f}", app.name);
    }
}

/// Runs the Table 1 pipeline for one registered application. Returns
/// `None` (after logging) if the campaign failed beyond what its
/// failure policy absorbs.
pub fn table1_row(app: &AppSpec, opts: &HarnessOpts, reporter: &Reporter) -> Option<Table1Row> {
    let subject = app.subject();
    let sink = opts.trace_sink();
    let mut cfg = opts.with_corpus(opts.template(), app.name);
    if let Some(s) = &sink {
        cfg = cfg.with_sink(std::sync::Arc::clone(s) as _);
    }
    let c: Characterization = match characterize(&subject, &cfg) {
        Ok(c) => c,
        Err(e) => return log_and_skip(app, "characterization", &e),
    };
    if let Some(s) = &sink {
        reporter.trace(app.name, s);
    }
    Some(characterization_to_row(app, &c))
}

fn characterization_to_row(app: &AppSpec, c: &Characterization) -> Table1Row {
    let fp_impact = if c.det_as_is() {
        // Bit-identical runs stay identical after any deterministic
        // rounding, FP app or not.
        "Det→Det".to_owned()
    } else if let Some(r) = &c.fp_rounded {
        if r.is_deterministic() {
            "NDet→Det".to_owned()
        } else {
            "NDet→NDet".to_owned()
        }
    } else {
        "NDet→NDet".to_owned() // non-FP app: rounding changes nothing
    };
    let isolating = match &c.isolated {
        Some(r) if r.is_deterministic() => "NDet→Det".to_owned(),
        Some(_) => "NDet→NDet".to_owned(),
        None => "-".to_owned(),
    };
    let report = c.final_report();
    let (l1_hit_rate, mhm_hit_rate) = cache_rates(report);
    Table1Row {
        name: app.name.to_owned(),
        suite: app.suite.to_owned(),
        fp: app.uses_fp,
        det_as_is: c.det_as_is(),
        first_ndet_run: c.first_ndet_run(),
        fp_impact,
        first_ndet_after_fp: c.first_ndet_run_after_fp(),
        isolating,
        det_points: report.det_points,
        ndet_points: report.ndet_points,
        det_at_end: report.det_at_end,
        class: c.class.to_string(),
        failed_runs: c.failures().len(),
        l1_hit_rate,
        mhm_hit_rate,
    }
}

/// Renders Table 1.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<24} {:<9} {:>3} {:>7} {:>6} {:>10} {:>7} {:>10} {:>8} {:>6} {:>4}  Class",
        "Application",
        "Source",
        "FP?",
        "Det as",
        "First",
        "FP round",
        "First",
        "Isolating",
        "#Det",
        "#NDet",
        "End"
    );
    let _ = writeln!(
        s,
        "{:<24} {:<9} {:>3} {:>7} {:>6} {:>10} {:>7} {:>10} {:>8} {:>6} {:>4}",
        "", "", "", "is?", "NDet", "impact", "NDet", "structs", "points", "points", "Det"
    );
    let _ = writeln!(s, "{:-<118}", "");
    for r in rows {
        let star = if r.name == "streamcluster" && r.ndet_points > 0 {
            "*"
        } else {
            ""
        };
        let _ = writeln!(
            s,
            "{:<24} {:<9} {:>3} {:>7} {:>6} {:>10} {:>7} {:>10} {:>8} {:>5}{} {:>4}  {}",
            r.name,
            r.suite,
            if r.fp { "Y" } else { "N" },
            if r.det_as_is { "Y" } else { "N" },
            r.first_ndet_run.map_or("-".into(), |v| v.to_string()),
            r.fp_impact,
            r.first_ndet_after_fp.map_or("-".into(), |v| v.to_string()),
            r.isolating,
            r.det_points,
            r.ndet_points,
            star,
            if r.det_at_end { "Y" } else { "N" },
            r.class,
        );
    }
    s
}

/// One Figure 6 bar group.
#[derive(Debug)]
pub struct Fig6Row {
    /// Application.
    pub name: String,
    /// `HW-InstantCheck_Inc` / Native.
    pub hw: f64,
    /// `SW-InstantCheck_Inc-Ideal` / Native.
    pub sw_inc: f64,
    /// `SW-InstantCheck_Tr-Ideal` / Native.
    pub sw_tr: f64,
}

/// Measures Figure 6 for every registered app, plus the GEOM row and the
/// sphinx3 delete-4% special case.
pub fn fig6(opts: &HarnessOpts) -> (Vec<Fig6Row>, Fig6Row, Fig6Row) {
    let seed = opts.spec.base_seed;
    let mut rows = Vec::new();
    for app in opts.apps() {
        let build = std::sync::Arc::clone(&app.build);
        let report = match measure_overhead(move || build(), seed, None, &IgnoreSpec::new()) {
            Ok(r) => r,
            Err(e) => {
                let skipped: Option<()> = log_and_skip(&app, "overhead run", &e);
                let _ = skipped;
                continue;
            }
        };
        rows.push(Fig6Row {
            name: app.name.to_owned(),
            hw: report.hw_ratio(),
            sw_inc: report.sw_inc_ratio(),
            sw_tr: report.sw_tr_ratio(),
        });
    }
    let geom = Fig6Row {
        name: "GEOM".to_owned(),
        hw: geometric_mean(rows.iter().map(|r| r.hw)),
        sw_inc: geometric_mean(rows.iter().map(|r| r.sw_inc)),
        sw_tr: geometric_mean(rows.iter().map(|r| r.sw_tr)),
    };
    // The sphinx3 "delete 4% of the state at every checkpoint" case.
    let sphinx =
        instantcheck_workloads::by_name("sphinx3", opts.scaled).expect("sphinx3 registered");
    let build = std::sync::Arc::clone(&sphinx.build);
    let del = measure_overhead(
        move || build(),
        seed,
        Some(FpRound::default()),
        &sphinx.ignore,
    )
    .expect("overhead run completes");
    let deletion = Fig6Row {
        name: "sphinx3+delete4%".to_owned(),
        hw: del.hw_ratio(),
        sw_inc: del.sw_inc_ratio(),
        sw_tr: del.sw_tr_ratio(),
    };
    (rows, geom, deletion)
}

/// Renders Figure 6 as a table.
pub fn render_fig6(rows: &[Fig6Row], geom: &Fig6Row, deletion: &Fig6Row) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<24} {:>12} {:>16} {:>16}",
        "Application", "HW-Inc", "SW-Inc-Ideal", "SW-Tr-Ideal"
    );
    let _ = writeln!(s, "{}", "-".repeat(72));
    for r in rows.iter().chain([geom, deletion]) {
        let _ = writeln!(
            s,
            "{:<24} {:>11.3}x {:>15.2}x {:>15.2}x",
            r.name, r.hw, r.sw_inc, r.sw_tr
        );
    }
    s
}

/// One Table 2 row (seeded-bug detection).
#[derive(Debug)]
pub struct Table2Row {
    /// Application + bug type.
    pub name: String,
    /// Deterministic dynamic checking points.
    pub det_points: usize,
    /// Nondeterministic dynamic checking points.
    pub ndet_points: usize,
    /// First run detecting the bug's nondeterminism.
    pub first_ndet_run: Option<usize>,
    /// The nondeterminism distributions (Figure 8), rendered.
    pub distributions: Vec<String>,
    /// Failed runs the campaign's failure policy absorbed.
    pub failed_runs: usize,
    /// L1 demand hit rate in percent (`--cache-model`).
    pub l1_hit_rate: Option<f64>,
    /// MHM old-value read hit rate in percent (`--cache-model`).
    pub mhm_hit_rate: Option<f64>,
}

/// Runs the Table 2 campaign for one seeded-bug variant. The seeded
/// water bugs are checked with FP rounding enabled (the unseeded apps
/// are deterministic under that configuration, so any nondeterminism is
/// the bug's). Returns `None` (after logging) if the campaign failed
/// beyond what its failure policy absorbs.
pub fn table2_row(app: &AppSpec, opts: &HarnessOpts, reporter: &Reporter) -> Option<Table2Row> {
    let build = std::sync::Arc::clone(&app.build);
    let sink = opts.trace_sink();
    let mut cfg = opts.with_corpus(opts.template(), app.name);
    if app.uses_fp {
        cfg = cfg.with_rounding(FpRound::default());
    }
    if let Some(s) = &sink {
        cfg = cfg.with_sink(std::sync::Arc::clone(s) as _);
    }
    let report = match instantcheck::Checker::new(cfg)
        .expect("valid config")
        .check(move || build())
    {
        Ok(r) => r,
        Err(e) => return log_and_skip(app, "campaign", &e),
    };
    if let Some(s) = &sink {
        reporter.trace(app.name, s);
    }
    log_absorbed(app, &report);
    let (l1_hit_rate, mhm_hit_rate) = cache_rates(&report);
    Some(Table2Row {
        name: app.name.to_owned(),
        det_points: report.det_points,
        ndet_points: report.ndet_points,
        first_ndet_run: report.first_ndet_run,
        distributions: report
            .ndet_distributions()
            .into_iter()
            .map(|(d, count)| format!("{count} points: {d}"))
            .collect(),
        failed_runs: report.failures.len(),
        l1_hit_rate,
        mhm_hit_rate,
    })
}

/// Renders Table 2.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<24} {:>10} {:>11} {:>10}",
        "Application+bug", "#Det", "#NDet", "First NDet"
    );
    let _ = writeln!(s, "{}", "-".repeat(60));
    for r in rows {
        let _ = writeln!(
            s,
            "{:<24} {:>10} {:>11} {:>10}",
            r.name,
            r.det_points,
            r.ndet_points,
            r.first_ndet_run.map_or("-".into(), |v| v.to_string()),
        );
    }
    s
}

/// Distribution report for Figures 5/8: for each named app, the grouped
/// per-checkpoint distributions.
#[derive(Debug)]
pub struct DistributionReport {
    /// Application name.
    pub name: String,
    /// `(distribution, number of checkpoints behaving that way)`,
    /// deterministic groups included.
    pub groups: Vec<(String, usize)>,
    /// Failed runs the campaign's failure policy absorbed.
    pub failed_runs: usize,
    /// L1 demand hit rate in percent (`--cache-model`).
    pub l1_hit_rate: Option<f64>,
    /// MHM old-value read hit rate in percent (`--cache-model`).
    pub mhm_hit_rate: Option<f64>,
}

/// Measures the nondeterminism distributions of one app under the given
/// config (Figure 5 uses bit-exact configs for FP-noise apps and default
/// configs for others; Figure 8 uses the seeded bugs with rounding).
/// Returns `None` (after logging) if the campaign failed beyond what
/// its failure policy absorbs.
pub fn distributions(
    app: &AppSpec,
    opts: &HarnessOpts,
    rounding: Option<FpRound>,
    reporter: &Reporter,
) -> Option<DistributionReport> {
    let build = std::sync::Arc::clone(&app.build);
    let sink = opts.trace_sink();
    let mut cfg = opts.with_corpus(opts.template(), app.name);
    if let Some(r) = rounding {
        cfg = cfg.with_rounding(r);
    }
    if let Some(s) = &sink {
        cfg = cfg.with_sink(std::sync::Arc::clone(s) as _);
    }
    let report = match instantcheck::Checker::new(cfg)
        .expect("valid config")
        .check(move || build())
    {
        Ok(r) => r,
        Err(e) => return log_and_skip(app, "campaign", &e),
    };
    if let Some(s) = &sink {
        reporter.trace(app.name, s);
    }
    log_absorbed(app, &report);
    let (l1_hit_rate, mhm_hit_rate) = cache_rates(&report);
    Some(DistributionReport {
        name: app.name.to_owned(),
        groups: report
            .grouped_distributions()
            .into_iter()
            .map(|(d, count)| (d.to_string(), count))
            .collect(),
        failed_runs: report.failures.len(),
        l1_hit_rate,
        mhm_hit_rate,
    })
}

/// Renders a distribution report.
pub fn render_distributions(reports: &[DistributionReport]) -> String {
    let mut s = String::new();
    for r in reports {
        let _ = writeln!(s, "{}:", r.name);
        for (dist, count) in &r.groups {
            let label = if dist.contains('-') { "NDet" } else { "Det " };
            let _ = writeln!(s, "  [{label}] {count:>6} checking points behave {dist}");
        }
    }
    s
}

impl ToJson for Table1Row {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        write_field(out, &mut first, "name", &self.name);
        write_field(out, &mut first, "suite", &self.suite);
        write_field(out, &mut first, "fp", &self.fp);
        write_field(out, &mut first, "det_as_is", &self.det_as_is);
        write_field(out, &mut first, "first_ndet_run", &self.first_ndet_run);
        write_field(out, &mut first, "fp_impact", &self.fp_impact);
        write_field(
            out,
            &mut first,
            "first_ndet_after_fp",
            &self.first_ndet_after_fp,
        );
        write_field(out, &mut first, "isolating", &self.isolating);
        write_field(out, &mut first, "det_points", &self.det_points);
        write_field(out, &mut first, "ndet_points", &self.ndet_points);
        write_field(out, &mut first, "det_at_end", &self.det_at_end);
        write_field(out, &mut first, "class", &self.class);
        write_field(out, &mut first, "failed_runs", &self.failed_runs);
        write_field(out, &mut first, "l1_hit_rate", &self.l1_hit_rate);
        write_field(out, &mut first, "mhm_hit_rate", &self.mhm_hit_rate);
        out.push('}');
    }
}

impl ToJson for Fig6Row {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        write_field(out, &mut first, "name", &self.name);
        write_field(out, &mut first, "hw", &self.hw);
        write_field(out, &mut first, "sw_inc", &self.sw_inc);
        write_field(out, &mut first, "sw_tr", &self.sw_tr);
        out.push('}');
    }
}

impl ToJson for Table2Row {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        write_field(out, &mut first, "name", &self.name);
        write_field(out, &mut first, "det_points", &self.det_points);
        write_field(out, &mut first, "ndet_points", &self.ndet_points);
        write_field(out, &mut first, "first_ndet_run", &self.first_ndet_run);
        write_field(out, &mut first, "distributions", &self.distributions);
        write_field(out, &mut first, "failed_runs", &self.failed_runs);
        write_field(out, &mut first, "l1_hit_rate", &self.l1_hit_rate);
        write_field(out, &mut first, "mhm_hit_rate", &self.mhm_hit_rate);
        out.push('}');
    }
}

impl ToJson for DistributionReport {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        write_field(out, &mut first, "name", &self.name);
        write_field(out, &mut first, "groups", &self.groups);
        write_field(out, &mut first, "failed_runs", &self.failed_runs);
        write_field(out, &mut first, "l1_hit_rate", &self.l1_hit_rate);
        write_field(out, &mut first, "mhm_hit_rate", &self.mhm_hit_rate);
        out.push('}');
    }
}

/// Where the harness binaries write their artifacts, relative to the
/// working directory.
const RESULTS_DIR: &str = "results";

/// Writes `contents` to `dir/file`, creating `dir` first, and returns
/// the path written. The error names that path.
fn write_artifact(dir: &Path, file: String, contents: &str) -> io::Result<PathBuf> {
    let path = dir.join(file);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|e| {
            io::Error::new(e.kind(), format!("could not write {}: {e}", path.display()))
        })?;
    Ok(path)
}

/// Writes a JSON artifact to `dir/{name}.json`.
///
/// # Errors
///
/// Creating `dir` or writing the file failed.
pub fn write_json<T: ToJson + ?Sized>(dir: &Path, name: &str, value: &T) -> io::Result<PathBuf> {
    write_artifact(dir, format!("{name}.json"), &value.to_json())
}

/// Writes a campaign event trace to `dir/{name}.trace.jsonl`, next to
/// the JSON artifacts, as deterministic JSONL that `icprof` consumes.
///
/// # Errors
///
/// Creating `dir` or writing the file failed.
pub fn write_trace(dir: &Path, name: &str, events: &[obs::Event]) -> io::Result<PathBuf> {
    write_artifact(
        dir,
        format!("{name}.trace.jsonl"),
        &obs::events_to_jsonl(events),
    )
}

/// Uniform output channel for the harness binaries: progress notes on
/// stderr, result rows/tables on stdout, JSON and trace artifacts under
/// `results/` — so every binary reports the same way.
#[derive(Debug)]
pub struct Reporter {
    tool: String,
}

impl Reporter {
    /// Creates the reporter for one harness binary; `tool` names the
    /// JSON artifact (`results/{tool}.json`).
    pub fn new(tool: &str) -> Self {
        Reporter {
            tool: tool.to_owned(),
        }
    }

    /// A progress note (stderr, so tables stay pipeable).
    pub fn progress(&self, msg: &str) {
        eprintln!("{msg}");
    }

    /// One result line (stdout).
    pub fn line(&self, line: impl AsRef<str>) {
        println!("{}", line.as_ref());
    }

    /// A pre-rendered multi-line table (stdout).
    pub fn table(&self, text: &str) {
        println!("{text}");
    }

    /// Ends the process with status 1, before any table or artifact is
    /// written, when no campaign produced a row: every failure is
    /// already logged, and an empty table must not pass for a result.
    pub fn require_rows<T>(&self, rows: &[T]) {
        if rows.is_empty() {
            eprintln!("{}: every campaign failed; nothing to report", self.tool);
            std::process::exit(1);
        }
    }

    /// Writes the binary's JSON artifact (`results/{tool}.json`).
    /// Exits with status 2 when it cannot be written.
    pub fn artifact<T: ToJson + ?Sized>(&self, value: &T) {
        written(write_json(Path::new(RESULTS_DIR), &self.tool, value));
    }

    /// Writes a recorded campaign trace
    /// (`results/{tool}-{label}.trace.jsonl`). Exits with status 2 when
    /// it cannot be written.
    pub fn trace(&self, label: &str, sink: &obs::MemorySink) {
        let name = format!("{}-{label}", self.tool);
        written(write_trace(Path::new(RESULTS_DIR), &name, &sink.events()));
    }
}

/// Reports an artifact write; a binary whose artifact is missing must
/// not exit 0, so a failed write ends the process.
fn written(result: io::Result<PathBuf>) {
    match result {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> HarnessOpts {
        cli::parse_spec(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()).unwrap()
    }

    fn quick_opts() -> HarnessOpts {
        opts(&["--scaled", "--runs", "5"])
    }

    #[test]
    fn table1_row_for_a_bit_exact_app() {
        let app = instantcheck_workloads::by_name("fft", true).unwrap();
        let row =
            table1_row(&app, &quick_opts(), &Reporter::new("test")).expect("campaign completes");
        assert!(row.det_as_is);
        assert_eq!(row.fp_impact, "Det→Det");
        assert_eq!(row.ndet_points, 0);
        assert!(row.det_at_end);
        assert_eq!(row.class, "bit-by-bit");
        assert_eq!(row.failed_runs, 0);
    }

    #[test]
    fn table2_row_for_a_seeded_bug() {
        let app = instantcheck_workloads::seeded_bugs_scaled()
            .into_iter()
            .find(|a| a.name.contains("atomicity"))
            .unwrap();
        let opts = opts(&["--scaled", "--runs", "10"]);
        let row = table2_row(&app, &opts, &Reporter::new("test")).expect("campaign completes");
        assert!(row.ndet_points > 0);
        assert!(row.det_points > 0);
        assert!(row.first_ndet_run.is_some());
        assert!(row.l1_hit_rate.is_none(), "cache model was off");
    }

    #[test]
    fn cache_model_rates_reach_the_row_json() {
        let app = instantcheck_workloads::by_name("fft", true).unwrap();
        let opts = opts(&["--scaled", "--runs", "5", "--cache-model"]);
        let row = table2_row(&app, &opts, &Reporter::new("test")).expect("campaign completes");
        let mhm = row.mhm_hit_rate.expect("cache model was on");
        assert!((mhm - 100.0).abs() < 1e-9, "§3.1: old-value reads all hit");
        assert!(row.l1_hit_rate.is_some());
        let json = row.to_json();
        assert!(json.contains("\"l1_hit_rate\": "));
        assert!(json.contains("\"mhm_hit_rate\": 100.0"));
    }

    #[test]
    fn render_functions_produce_tables() {
        let rows = vec![Table1Row {
            name: "x".into(),
            suite: "s".into(),
            fp: true,
            det_as_is: true,
            first_ndet_run: None,
            fp_impact: "Det→Det".into(),
            first_ndet_after_fp: None,
            isolating: "-".into(),
            det_points: 5,
            ndet_points: 0,
            det_at_end: true,
            class: "bit-by-bit".into(),
            failed_runs: 0,
            l1_hit_rate: None,
            mhm_hit_rate: None,
        }];
        let t = render_table1(&rows);
        assert!(t.contains("Application"));
        assert!(t.contains('x'));

        let f = Fig6Row {
            name: "x".into(),
            hw: 1.0,
            sw_inc: 3.0,
            sw_tr: 5.0,
        };
        let g = Fig6Row {
            name: "GEOM".into(),
            hw: 1.0,
            sw_inc: 3.0,
            sw_tr: 5.0,
        };
        let d = Fig6Row {
            name: "del".into(),
            hw: 4.5,
            sw_inc: 55.0,
            sw_tr: 438.0,
        };
        let s = render_fig6(&[f], &g, &d);
        assert!(s.contains("GEOM"));
        assert!(s.contains("438.00x"));
    }

    #[test]
    fn artifact_writes_fail_loudly_when_a_file_blocks_the_directory() {
        let base = std::env::temp_dir().join(format!("bench-blocked-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let blocker = base.join("results");
        std::fs::write(&blocker, "a plain file, not a directory").unwrap();
        let json = write_json(&blocker, "table1", &vec![1u64, 2]).unwrap_err();
        assert!(json.to_string().contains("table1.json"), "{json}");
        let trace = write_trace(&blocker, "fig5-canneal", &[]).unwrap_err();
        assert!(
            trace.to_string().contains("fig5-canneal.trace.jsonl"),
            "{trace}"
        );

        let dir = base.join("ok");
        let path = write_json(&dir, "table1", &vec![1u64, 2]).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "[1, 2]");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn opts_defaults() {
        let o = opts(&[]);
        assert_eq!(o.spec.runs, 30);
        assert!(!o.scaled);
        assert_eq!(o.apps().len(), 17);
    }

    #[test]
    fn every_spec_flag_reaches_the_checker_template() {
        let o = opts(&[
            "--lib-seed",
            "5",
            "--switch",
            "every-access",
            "--max-steps",
            "10",
            "--rounding",
            "mask-mantissa:12",
        ]);
        assert_eq!(o.spec.lib_seed, 5);
        assert_eq!(o.spec.max_steps, 10);
        assert_eq!(o.template().spec, o.spec);

        // A 10-step limit fails every run, so the campaign is skipped.
        let app = instantcheck_workloads::seeded_bugs_scaled()
            .into_iter()
            .next()
            .unwrap();
        let o = opts(&["--scaled", "--runs", "2", "--max-steps", "10"]);
        assert!(table2_row(&app, &o, &Reporter::new("test")).is_none());
    }
}
