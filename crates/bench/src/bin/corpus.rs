//! Corpus maintenance: records campaign baselines into a persistent
//! run corpus and checks fresh campaigns against them.
//!
//! ```text
//! corpus record|check --app NAME [--require-hits] [--scaled]
//!     [every spec flag but --workload] [--corpus-dir DIR]
//!     [--corpus-segment-bytes N] [--corpus-max-bytes N] [--corpus-cache-slots N]
//! corpus dump --corpus-dir DIR
//! ```
//!
//! `record` runs one checking campaign, stores every completed run in
//! the content-addressed corpus, and freezes the campaign's reference
//! hashes and summary verdicts as a named baseline under
//! `<dir>/baselines/`. `check` reruns the campaign (replaying run
//! outcomes from the corpus where possible), compares it against the
//! stored baseline, and exits nonzero on drift — printing the first
//! divergent checkpoint, and, when the fresh campaign disagrees with
//! *itself*, the state-diff localization (`instantcheck::localize`)
//! that maps the divergence back to globals and allocation sites.
//! `--require-hits` additionally fails the check unless every run was
//! replayed from the corpus: no miss and no quarantined record (the CI
//! smoke leg uses this to prove the warm path answered the whole
//! campaign). `dump` prints every live record of an existing corpus as
//! one readable block — fingerprint and location, key tokens, counters,
//! checkpoints, alloc-log and trace lengths — the human view of the
//! binary on-disk records; it never creates a corpus.
//!
//! `record` and `check` parse their command line with the shared parser
//! (`bench::cli::parse`), so `--runs`/`--seed`/`--jobs`/`--scheme`/
//! `--spec FILE` and the storage flags mean exactly what they mean to
//! every other binary. `--app` and `--scaled` name the workload, so
//! `--workload` is refused, as is `--trace` (no trace is written).
//! Without `--corpus-dir`, the store lives at `results/corpus`; it is
//! opened only once the command line is vetted, so a usage error
//! (exit status 2) creates none.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use corpus::{kind_token, CampaignBaseline, CorpusOptions, StoredRecord};
use instantcheck::{CheckReport, Checker};
use instantcheck_bench::cli;
use instantcheck_bench::HarnessOpts;
use instantcheck_workloads::AppSpec;

const APP: &str = "--app NAME";
/// `record` and `check` read `--app`, `--require-hits`, `--scaled`, the
/// spec flags but `--workload` (the app names the workload) and the
/// storage flags.
const READS: &[&[&str]] = &[
    &[APP],
    &["--require-hits", cli::SCALED],
    cli::PER_APP_FLAGS,
    cli::STORAGE_FLAGS,
];

fn usage() -> String {
    format!(
        "usage: corpus record|check {APP} {}\n       corpus dump --corpus-dir DIR",
        cli::synopsis(&READS[1..])
    )
}

struct Cli {
    command: String,
    app: String,
    opts: HarnessOpts,
}

/// Parses `record|check`'s command line. The store defaults to
/// `results/corpus` (a later `--corpus-dir` overrides it), and opens
/// only once the subcommand and `--app` are vetted, so a usage error
/// creates none.
fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let args: Vec<String> = ["--corpus-dir", "results/corpus"]
        .into_iter()
        .map(str::to_owned)
        .chain(args.iter().cloned())
        .collect();
    let mut parsed = cli::parse(&args, READS, &[])?;
    let command = match parsed.opts.rest.first() {
        Some(c) if c == "record" || c == "check" => parsed.opts.rest.remove(0),
        Some(other) => return Err(format!("unknown argument {other}")),
        None => return Err("expected a subcommand: record, check or dump".to_owned()),
    };
    let parsed = parsed.no_rest()?;
    let app = match parsed.opts.value("--app") {
        Some(app) if !app.is_empty() => app.to_owned(),
        _ => return Err(format!("--app: {command} needs an app")),
    };
    let mut opts = parsed.open()?;
    opts.spec.workload = opts.workload_id(&app);
    Ok(Cli { command, app, opts })
}

fn campaign(cli: &Cli, app: &AppSpec) -> (Vec<instantcheck::RunHashes>, CheckReport) {
    let cfg = cli.opts.with_corpus(cli.opts.template(), &cli.app);
    let build = Arc::clone(&app.build);
    let runs = Checker::new(cfg)
        .unwrap_or_else(|e| {
            eprintln!("{}: invalid campaign: {e}", cli.app);
            std::process::exit(2);
        })
        .collect_runs(&move || build())
        .unwrap_or_else(|e| {
            eprintln!("{}: campaign failed: {e}", cli.app);
            std::process::exit(2);
        });
    let report = CheckReport::from_runs(&runs);
    (runs, report)
}

/// `corpus dump --corpus-dir DIR`: prints every live record of the
/// corpus at `DIR` as one readable block. Refuses a directory that
/// holds no corpus rather than creating one.
fn dump(args: &[String]) -> ExitCode {
    let dir = match args {
        [flag, dir] if flag == "--corpus-dir" => Path::new(dir),
        _ => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if !dir.join("format").is_file() {
        eprintln!("no corpus at {}", dir.display());
        return ExitCode::from(2);
    }
    let records = match CorpusOptions::at(dir).open().and_then(|c| c.records()) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    match records
        .iter()
        .try_for_each(|rec| write_record(&mut out, rec))
        .and_then(|()| out.flush())
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dump failed: {e}");
            ExitCode::from(2)
        }
    }
}

/// One record's block: address line, then key tokens, counters,
/// checkpoints (kinds as [`kind_token`]), and alloc-log and trace
/// lengths — or the corruption class of a record that fails its checks.
fn write_record(out: &mut impl Write, rec: &StoredRecord) -> std::io::Result<()> {
    writeln!(
        out,
        "record {:032x} seg {} offset {} len {}",
        rec.fp, rec.segment, rec.offset, rec.len
    )?;
    let (key, run) = match &rec.content {
        Ok(content) => content,
        Err(why) => return writeln!(out, "  corrupt {}: {why}", why.label()),
    };
    write!(out, "  key")?;
    for (label, value) in key.tokens() {
        write!(out, " {label}={value}")?;
    }
    let h = &run.hashes;
    writeln!(
        out,
        "\n  run steps={} native={} zerofill={}\n  hashes output={} extra={} stores={} hashup={}",
        run.steps,
        run.native_instr,
        run.zero_fill_instr,
        h.output_digest,
        h.extra_instr,
        h.stores,
        h.hash_updates
    )?;
    if let Some(c) = h.cache {
        writeln!(
            out,
            "  l1 hits={} misses={} mhm_reads={} mhm_read_misses={}",
            c.hits, c.misses, c.mhm_reads, c.mhm_read_misses
        )?;
    }
    for cp in &h.checkpoints {
        writeln!(
            out,
            "  cp {} {:016x}",
            kind_token(cp.kind),
            cp.hash.as_raw()
        )?;
    }
    if let Some(log) = &run.alloc_log {
        writeln!(out, "  alloclog {}", log.len())?;
    }
    if let Some(events) = &run.sim_trace {
        writeln!(out, "  trace {}", events.len())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("dump") {
        return dump(&args[1..]);
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(app) = instantcheck_workloads::by_name(&cli.app, cli.opts.scaled) else {
        eprintln!("unknown app {:?} at this scale", cli.app);
        return ExitCode::from(2);
    };
    let store = cli
        .opts
        .corpus
        .as_ref()
        .expect("the store has a default directory");
    let baselines = store.baselines_dir();
    // One baseline per `(app, scale, runs, seed)` campaign shape, so
    // differently-shaped campaigns never compare against each other's.
    let spec = &cli.opts.spec;
    let name = format!(
        "{}-r{}-s{}",
        spec.workload.replace(':', "-"),
        spec.runs,
        spec.base_seed
    );
    let (runs, report) = campaign(&cli, &app);
    eprintln!(
        "{}: {} runs, corpus {} hits / {} misses / {} stores / {} quarantined",
        cli.app,
        report.runs,
        store.hits(),
        store.misses(),
        store.stores(),
        store.quarantined(),
    );

    if cli.command == "record" {
        let baseline = CampaignBaseline::capture(
            &name,
            &spec.workload,
            spec.scheme,
            spec.base_seed,
            &runs[0],
            &report,
        );
        if let Err(e) = baseline.save(&baselines) {
            eprintln!("cannot save baseline {name}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "recorded baseline {name}: {} checkpoints, {} ndet points, det_at_end={}",
            baseline.reference.len(),
            baseline.ndet_points,
            baseline.det_at_end
        );
        return ExitCode::SUCCESS;
    }

    // check
    let baseline = match CampaignBaseline::load(&baselines, &name) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "no baseline {name} in {}: {e} (run `corpus record` first)",
                baselines.display()
            );
            return ExitCode::from(2);
        }
    };
    let drifts = baseline.compare(&runs[0], &report);
    let mut failed = false;
    if drifts.is_empty() {
        println!(
            "{name}: no drift ({} checkpoints match)",
            baseline.reference.len()
        );
    } else {
        failed = true;
        println!("{name}: DRIFT detected ({} finding(s))", drifts.len());
        for d in &drifts {
            println!("  {d}");
        }
        // When the fresh campaign disagrees with itself, the full
        // state-diff localization names the structures responsible.
        if let Some(ndet_run) = report.first_ndet_run {
            let diverging = &runs[ndet_run - 1];
            if let Some(seq) = runs[0].first_divergent_checkpoint(diverging) {
                let build = Arc::clone(&app.build);
                match instantcheck::localize(
                    move || build(),
                    spec.base_seed,
                    spec.base_seed + (ndet_run as u64 - 1),
                    seq,
                    spec.lib_seed,
                    None,
                ) {
                    Ok(loc) => {
                        println!("  localization at checkpoint {seq} (run 1 vs run {ndet_run}):");
                        for (origin, count) in loc.summary() {
                            println!("    {count:>6} differing word(s): {origin}");
                        }
                    }
                    Err(e) => eprintln!("  localization failed: {e}"),
                }
            }
        }
    }
    if cli.opts.switch("--require-hits") && (store.misses() > 0 || store.quarantined() > 0) {
        eprintln!(
            "{name}: --require-hits set but {} run(s) missed the corpus and {} record(s) were quarantined",
            store.misses(),
            store.quarantined()
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
