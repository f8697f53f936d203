//! Shared machinery for the experiment harness binaries.
//!
//! One binary per paper table/figure (see `src/bin/`): `table1`,
//! `table2`, `fig5`, `fig6`, `fig8`, `race_filter`, `pruning`,
//! `replay_assist`, plus the `icprof` trace profiler. Each accepts
//! `--scaled` (miniature workloads for a quick pass) and `--runs N`,
//! prints a human-readable table to stdout, and writes a JSON artifact
//! under `results/`. With `--trace`, campaign binaries also write a
//! deterministic event trace (`results/<app>.trace.jsonl`) that
//! `icprof` can profile or convert for `chrome://tracing`; with
//! `--cache-model`, L1/MHM hit rates are measured and included in the
//! JSON artifacts; with `--corpus-dir DIR`, completed runs are recorded
//! to (and replayed from) a persistent content-addressed store — see
//! the `corpus` crate and the `corpus` binary, which records and
//! drift-checks campaign baselines against that store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use adhash::FpRound;
use instantcheck::{
    characterize, geometric_mean, measure_overhead, CampaignSpec, Characterization, CheckerConfig,
    FailurePolicy, IgnoreSpec, Scheme,
};
use instantcheck_workloads::AppSpec;

pub mod cli;
pub mod json;
pub mod timing;

use json::{write_field, ToJson};

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Use miniature workloads.
    pub scaled: bool,
    /// Runs per campaign (the paper uses 30).
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
    /// Checking scheme (the harness default is HW-InstantCheck, as in
    /// the paper's determinism experiments; the software schemes agree
    /// on all verdicts).
    pub scheme: Scheme,
    /// What a campaign does when one of its runs fails.
    pub policy: FailurePolicy,
    /// Record per-campaign event traces under `results/`.
    pub trace: bool,
    /// Model L1/MHM cache behavior during the campaigns.
    pub cache_model: bool,
    /// Worker threads per campaign (`None` = the machine's available
    /// parallelism; the report is identical either way).
    pub jobs: Option<usize>,
    /// Persistent run corpus (`--corpus-dir DIR`): completed runs are
    /// looked up in, and recorded to, the log-structured store, so
    /// repeated harness invocations replay instead of re-simulating. Warm campaigns produce
    /// byte-identical reports (the determinism verdicts cannot drift
    /// with cache state), so tables and figures are unaffected.
    pub corpus: Option<std::sync::Arc<corpus::Corpus>>,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            scaled: false,
            runs: 30,
            seed: 1,
            scheme: Scheme::HwInc,
            policy: FailurePolicy::Abort,
            trace: false,
            cache_model: false,
            jobs: None,
            corpus: None,
        }
    }
}

impl HarnessOpts {
    /// Parses the shared spec flags (see [`cli::parse_spec`]) from
    /// `std::env::args`: `--scaled`, `--runs N`, `--seed N`,
    /// `--scheme S`, `--jobs N`, `--policy P` (`abort`/`skip`/
    /// `retry`/`retry-same`), `--trace`, `--cache-model`,
    /// `--corpus-dir DIR`, `--spec FILE`, and the rest of the spec fields.
    /// Unknown arguments are reported and ignored; malformed values
    /// exit with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match cli::parse_spec(&args) {
            Ok(sa) => {
                for other in &sa.rest {
                    eprintln!("ignoring unknown argument {other}");
                }
                HarnessOpts::from_spec_args(&sa)
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// Builds harness options from a parsed spec command line.
    pub fn from_spec_args(sa: &cli::SpecArgs) -> Self {
        HarnessOpts {
            scaled: sa.scaled,
            runs: sa.spec.runs,
            seed: sa.spec.base_seed,
            scheme: sa.spec.scheme,
            policy: sa.spec.policy,
            trace: sa.trace,
            cache_model: sa.spec.cache_model,
            jobs: sa.spec.jobs,
            corpus: sa.corpus.clone(),
        }
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

    /// The campaign template as a spec, workload unset — the
    /// table/figure binaries stamp per-app ids via
    /// [`spec_for`](Self::spec_for).
    pub fn base_spec(&self) -> CampaignSpec {
        let mut spec = CampaignSpec::new("", self.scheme)
            .with_runs(self.runs)
            .with_base_seed(self.seed)
            .with_policy(self.policy);
        spec.cache_model = self.cache_model;
        spec.jobs = self.jobs;
        spec
    }

    /// The campaign spec for one registered app —
    /// [`base_spec`](Self::base_spec) stamped with the app's
    /// [`workload_id`](Self::workload_id). This is exactly what the
    /// `icd` orchestrator would run for the same flags.
    pub fn spec_for(&self, app_name: &str) -> CampaignSpec {
        let mut spec = self.base_spec();
        spec.workload = self.workload_id(app_name);
        spec
    }

    /// The checker template, built from [`base_spec`](Self::base_spec).
    pub fn template(&self) -> CheckerConfig {
        CheckerConfig::from_spec(&self.base_spec())
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
    let mut rows = Vec::new();
    for app in opts.apps() {
        let build = std::sync::Arc::clone(&app.build);
        let report = match measure_overhead(move || build(), opts.seed, None, &IgnoreSpec::new()) {
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
        opts.seed,
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

/// One wall-clock measurement of a full checking campaign at a fixed
/// worker count — a row of `results/BENCH_campaign.json`.
#[derive(Debug)]
pub struct CampaignBenchRow {
    /// Application name.
    pub name: String,
    /// Campaign length (runs compared).
    pub runs: usize,
    /// Worker threads (`--jobs`).
    pub jobs: usize,
    /// Repetitions measured.
    pub reps: usize,
    /// Mean campaign wall time in milliseconds.
    pub mean_ms: f64,
    /// Standard deviation across the repetitions, in milliseconds.
    pub stddev_ms: f64,
    /// Mean serial (jobs=1) wall time divided by this row's mean.
    pub speedup: f64,
}

/// Times full checking campaigns for one app across worker counts and
/// returns one row per `jobs` value, with speedups relative to the
/// serial (jobs=1) row — or the first row when the axis omits 1.
/// Returns `None` (after logging) if the campaign fails outright.
///
/// The checker's deterministic reduction makes the report identical at
/// every worker count, so only the wall clock varies; each row's last
/// repetition is still compared against the serial report as a cheap
/// end-to-end cross-check. The `--corpus-dir` store is deliberately *not*
/// attached here: a timing sweep satisfied from cache would measure
/// file reads, not the campaign executor.
pub fn campaign_bench(
    app: &AppSpec,
    opts: &HarnessOpts,
    jobs_axis: &[usize],
    reps: usize,
    reporter: &Reporter,
) -> Option<Vec<CampaignBenchRow>> {
    // One untimed serial campaign validates the workload (a campaign
    // that aborts is not worth timing) and pins the reference report.
    let build = std::sync::Arc::clone(&app.build);
    let reference = match instantcheck::Checker::new(opts.template().with_jobs(1))
        .expect("valid config")
        .check(move || build())
    {
        Ok(r) => r,
        Err(e) => return log_and_skip(app, "campaign", &e),
    };
    let mut measured = Vec::new();
    for &jobs in jobs_axis {
        reporter.progress(&format!(
            "  timing {} ({} runs, jobs={jobs}, {reps} reps)…",
            app.name, opts.runs
        ));
        let cfg = opts.template().with_jobs(jobs);
        let build = std::sync::Arc::clone(&app.build);
        let mut last = None;
        let samples = timing::time_reps(reps, || {
            last = Some(
                instantcheck::Checker::new(cfg.clone())
                    .expect("valid config")
                    .check(|| build())
                    .expect("campaign validated above"),
            );
        });
        assert_eq!(
            last.as_ref(),
            Some(&reference),
            "{}: worker count changed the report (jobs={jobs})",
            app.name
        );
        let (mean_ms, stddev_ms) = timing::mean_stddev(&samples);
        measured.push((jobs, mean_ms, stddev_ms));
    }
    let serial_mean = measured
        .iter()
        .find(|(jobs, ..)| *jobs == 1)
        .or_else(|| measured.first())
        .map(|(_, mean, _)| *mean)?;
    Some(
        measured
            .into_iter()
            .map(|(jobs, mean_ms, stddev_ms)| CampaignBenchRow {
                name: app.name.to_owned(),
                runs: opts.runs,
                jobs,
                reps,
                mean_ms,
                stddev_ms,
                speedup: serial_mean / mean_ms.max(f64::MIN_POSITIVE),
            })
            .collect(),
    )
}

/// Renders campaign-bench rows as an aligned table.
pub fn render_campaign_bench(rows: &[CampaignBenchRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<16} {:>5} {:>5} {:>12} {:>11} {:>8}",
        "app", "runs", "jobs", "mean", "stddev", "speedup"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<16} {:>5} {:>5} {:>9.2} ms {:>8.2} ms {:>7.2}x",
            r.name, r.runs, r.jobs, r.mean_ms, r.stddev_ms, r.speedup
        );
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

impl ToJson for CampaignBenchRow {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        write_field(out, &mut first, "name", &self.name);
        write_field(out, &mut first, "runs", &self.runs);
        write_field(out, &mut first, "jobs", &self.jobs);
        write_field(out, &mut first, "reps", &self.reps);
        write_field(out, &mut first, "mean_ms", &self.mean_ms);
        write_field(out, &mut first, "stddev_ms", &self.stddev_ms);
        write_field(out, &mut first, "speedup", &self.speedup);
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

/// Writes a JSON artifact under `results/`.
pub fn write_json<T: ToJson + ?Sized>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Err(e) = std::fs::write(&path, value.to_json()) {
            eprintln!("could not write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
}

/// Writes a campaign event trace under `results/`, next to the JSON
/// artifacts, as deterministic JSONL that `icprof` consumes.
pub fn write_trace(name: &str, events: &[obs::Event]) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.trace.jsonl"));
        if let Err(e) = std::fs::write(&path, obs::events_to_jsonl(events)) {
            eprintln!("could not write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
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

    /// Writes the binary's JSON artifact (`results/{tool}.json`).
    pub fn artifact<T: ToJson + ?Sized>(&self, value: &T) {
        write_json(&self.tool, value);
    }

    /// Writes a recorded campaign trace
    /// (`results/{tool}-{label}.trace.jsonl`).
    pub fn trace(&self, label: &str, sink: &obs::MemorySink) {
        write_trace(&format!("{}-{label}", self.tool), &sink.events());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> HarnessOpts {
        HarnessOpts {
            scaled: true,
            runs: 5,
            ..HarnessOpts::default()
        }
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
        let opts = HarnessOpts {
            scaled: true,
            runs: 10,
            ..HarnessOpts::default()
        };
        let row = table2_row(&app, &opts, &Reporter::new("test")).expect("campaign completes");
        assert!(row.ndet_points > 0);
        assert!(row.det_points > 0);
        assert!(row.first_ndet_run.is_some());
        assert!(row.l1_hit_rate.is_none(), "cache model was off");
    }

    #[test]
    fn cache_model_rates_reach_the_row_json() {
        let app = instantcheck_workloads::by_name("fft", true).unwrap();
        let opts = HarnessOpts {
            cache_model: true,
            ..quick_opts()
        };
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
    fn opts_defaults() {
        let o = HarnessOpts::default();
        assert_eq!(o.runs, 30);
        assert!(!o.scaled);
        assert_eq!(o.apps().len(), 17);
    }
}
