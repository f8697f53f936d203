//! Corpus maintenance: records campaign baselines into a persistent
//! run corpus and checks fresh campaigns against them.
//!
//! ```text
//! corpus record --app canneal [--scaled] [--runs N] [--seed N] [--corpus-dir DIR]
//! corpus check  --app canneal [--scaled] [--runs N] [--seed N] [--corpus-dir DIR] [--require-hits]
//! corpus dump   --corpus-dir DIR
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
//! `--require-hits` additionally fails the check if nothing was
//! replayed from the corpus (the CI smoke leg uses this to prove the
//! warm path actually engaged). `dump` prints every live record of an
//! existing corpus as one readable block — fingerprint and location,
//! key tokens, counters, checkpoints, alloc-log and trace lengths — the
//! human view of the binary on-disk records.
//!
//! Campaign shape comes from the shared spec flags (`bench::cli`), so
//! `--runs`/`--seed`/`--jobs`/`--scheme`/`--spec FILE` — and the
//! storage flags `--corpus-dir`/`--corpus-segment-bytes`/
//! `--corpus-max-bytes`/`--corpus-cache-slots` — mean exactly what
//! they mean to every other harness binary and to `icd`. Without
//! `--corpus-dir`, the store lives at `results/corpus`.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use corpus::{kind_token, CampaignBaseline, Corpus, CorpusOptions, StoredRecord};
use instantcheck::{CampaignSpec, CheckReport, Checker, CheckerConfig};
use instantcheck_bench::cli;
use instantcheck_workloads::AppSpec;

struct Cli {
    command: String,
    app: String,
    scaled: bool,
    corpus: Arc<Corpus>,
    require_hits: bool,
    spec: CampaignSpec,
}

fn usage() -> ! {
    eprintln!(
        "usage: corpus <record|check> --app NAME [--scaled] [--runs N] \
         [--seed N] [--jobs N] [--corpus-dir DIR] [--require-hits] [shared spec flags]\n       \
         corpus dump --corpus-dir DIR"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = String::new();
    let mut app = String::new();
    let mut require_hits = false;
    // The subcommand and `--app` are checked before `--corpus-dir` is
    // opened, so a usage error creates no store.
    let sa = cli::parse_spec_then(&args, |rest| {
        let mut i = 0;
        while i < rest.len() {
            let value = |i: &mut usize| -> String {
                *i += 1;
                rest.get(*i).cloned().unwrap_or_else(|| usage())
            };
            match rest[i].as_str() {
                "record" | "check" if command.is_empty() => command = rest[i].clone(),
                "--app" => app = value(&mut i),
                "--require-hits" => require_hits = true,
                other => return Err(format!("unknown argument {other}")),
            }
            i += 1;
        }
        if command.is_empty() || app.is_empty() {
            usage();
        }
        Ok(())
    })
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    });
    let mut spec = sa.spec;
    spec.workload = format!("{app}:{}", if sa.scaled { "scaled" } else { "full" });
    // Without `--corpus-dir` the store defaults to `results/corpus`,
    // opened through `cli::open_corpus` like the shared flag's, so the
    // sizing flags apply either way.
    let corpus = match &sa.corpus {
        Some(corpus) => Arc::clone(corpus),
        None => match cli::open_corpus(
            "results/corpus",
            spec.corpus_segment_bytes,
            spec.corpus_max_bytes,
            spec.corpus_cache_slots,
        ) {
            Ok(c) => Arc::new(c),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
    };
    spec.corpus_dir = Some(corpus.dir().to_string_lossy().into_owned());
    Cli {
        command,
        app,
        scaled: sa.scaled,
        corpus,
        require_hits,
        spec,
    }
}

/// The baseline name: one per `(app, scale, runs, seed)` campaign
/// shape, so differently-shaped campaigns never compare against each
/// other's baselines.
fn baseline_name(cli: &Cli) -> String {
    format!(
        "{}-{}-r{}-s{}",
        cli.app,
        if cli.scaled { "scaled" } else { "full" },
        cli.spec.runs,
        cli.spec.base_seed
    )
}

fn campaign(cli: &Cli, app: &AppSpec) -> (Vec<instantcheck::RunHashes>, CheckReport) {
    let cfg = CheckerConfig::from_spec(&cli.spec)
        .with_run_cache(Arc::clone(&cli.corpus) as _, &cli.spec.workload);
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
        _ => usage(),
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
    let (tokens, run) = match &rec.content {
        Ok(content) => content,
        Err(why) => return writeln!(out, "  corrupt {}: {why}", why.label()),
    };
    write!(out, "  key")?;
    for (label, value) in tokens {
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
    let cli = parse_cli();
    let Some(app) = instantcheck_workloads::by_name(&cli.app, cli.scaled) else {
        eprintln!("unknown app {:?} at this scale", cli.app);
        return ExitCode::from(2);
    };
    let store = &cli.corpus;
    let baselines = store.baselines_dir();
    let name = baseline_name(&cli);
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
            &cli.spec.workload,
            cli.spec.scheme,
            cli.spec.base_seed,
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
                    cli.spec.base_seed,
                    cli.spec.base_seed + (ndet_run as u64 - 1),
                    seq,
                    cli.spec.lib_seed,
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
    if cli.require_hits && store.hits() == 0 {
        eprintln!("{name}: --require-hits set but no run was replayed from the corpus");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
