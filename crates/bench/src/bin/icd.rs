//! `icd` — the InstantCheck campaign daemon binary.
//!
//! A thin front end over `sched`: it parses the command line, opens the
//! run corpus, feeds submissions to a `sched::Service`, and writes the
//! drained batch's artifacts. The intake protocol, the socket and HTTP
//! servers, and their per-connection limits live in `sched` (see
//! DESIGN.md §12–13).
//!
//! ```text
//! icd [--width N] [--queue-cap N] [--budget N] [--trace]
//!     [--tenant-quota N] [--idle-timeout-ms N] [--max-bad-lines N]
//!     [--corpus-dir DIR] [--corpus-segment-bytes N]
//!     [--corpus-max-bytes N] [--corpus-cache-slots N]
//!     [--out DIR] [--batch FILE|-] [--socket PATH]
//!     [--http ADDR] [--heartbeat-ms N]
//! icd --connect PATH [--batch FILE|-]        # client mode
//! ```
//!
//! Submissions are read, in order, from `--batch FILE` (`-` for
//! stdin), then served from `--socket PATH` until a `drain` line or
//! SIGTERM/SIGINT, then — when neither was given — from stdin.
//! `--corpus-dir` opens (or creates) the shared run corpus, sized by
//! the other `--corpus-*` flags. `--http ADDR` binds the read-only
//! telemetry plane (`/status`, `/metrics`, `/profile`), and
//! `--heartbeat-ms N` appends a telemetry snapshot line per interval to
//! `<out>/heartbeat.jsonl`.
//!
//! With `--connect`, `icd` is the matching client: it forwards each
//! input line to the daemon, prints one reply line per request, and —
//! when the input ends in an unterminated fragment — sends the bytes
//! and disconnects mid-line, which the daemon must shrug off.
//!
//! Artifacts land under `--out` (default `results/icd`), each written
//! atomically (tmp + rename): per-campaign `<id>.report.json`
//! (byte-identical to the same spec run alone, at any `--width` and
//! any client interleaving) and optional `<id>.trace.jsonl`, plus the
//! batch summary `batch.jsonl` (one result line per submission, in
//! submission-sequence order), the deterministic batch span trace
//! `batch.trace.jsonl`, and the wall-clock side of the story in
//! `metrics.json` (shed counts, connection counts — everything that is
//! *allowed* to vary run to run) and `profile.json` (the `/profile`
//! body: wait histograms, worker lanes, cache contention).
//!
//! Exit status: 0 when every submission completed, 1 when any
//! campaign failed, was invalid, was shed, or a submission line did
//! not parse, 2 on usage or I/O errors (including refusing to clobber
//! a live daemon's socket).

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use corpus::Corpus;
use instantcheck_bench::cli;
use obs::Heartbeat;
use sched::{
    CampaignStatus, HttpOptions, HttpServer, Orchestrator, OrchestratorConfig, ProgramSource,
    Resolver, Service, SocketOptions,
};

struct IcdCli {
    config: OrchestratorConfig,
    /// The shared run corpus the storage flags opened.
    corpus: Option<Arc<Corpus>>,
    out: String,
    batch: Option<String>,
    socket: Option<String>,
    connect: Option<String>,
    daemon: SocketOptions,
    /// Address of the read-only HTTP telemetry plane, when enabled.
    http: Option<String>,
    /// Heartbeat snapshot interval, when enabled.
    heartbeat: Option<Duration>,
}

fn usage() -> ! {
    eprintln!(
        "usage: icd [--width N] [--queue-cap N] [--budget N] [--trace] \
         [--tenant-quota N] [--idle-timeout-ms N] [--max-bad-lines N] \
         [--corpus-dir DIR] [--corpus-segment-bytes N] [--corpus-max-bytes N] \
         [--corpus-cache-slots N] [--out DIR] [--batch FILE|-] [--socket PATH] \
         [--http ADDR] [--heartbeat-ms N]\n\
         \x20      icd --connect PATH [--batch FILE|-]"
    );
    std::process::exit(2);
}

/// Parses the command line. `--trace` and the storage flags go through
/// the harness parser (`cli::parse`), which opens the corpus once every
/// other flag has been vetted; the daemon's own flags are the rest.
fn parse_cli() -> IcdCli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = IcdCli {
        config: OrchestratorConfig::default(),
        corpus: None,
        out: "results/icd".to_owned(),
        batch: None,
        socket: None,
        connect: None,
        daemon: SocketOptions::default(),
        http: None,
        heartbeat: None,
    };
    let own_flags = |rest: &[String]| {
        let mut i = 0;
        while i < rest.len() {
            let value = |i: &mut usize| -> String {
                *i += 1;
                rest.get(*i).cloned().unwrap_or_else(|| usage())
            };
            let num = |i: &mut usize| -> u64 { value(i).parse().unwrap_or_else(|_| usage()) };
            match rest[i].as_str() {
                "--width" => cli.config.width = num(&mut i) as usize,
                "--queue-cap" => cli.config.queue_capacity = num(&mut i) as usize,
                "--budget" => cli.config.job_budget = num(&mut i) as usize,
                "--tenant-quota" => cli.config.tenant_quota = Some(num(&mut i)),
                "--idle-timeout-ms" => {
                    cli.daemon.idle_timeout = Duration::from_millis(num(&mut i).max(1));
                }
                "--max-bad-lines" => cli.daemon.max_bad_lines = num(&mut i) as usize,
                "--out" => cli.out = value(&mut i),
                "--batch" => cli.batch = Some(value(&mut i)),
                "--socket" => cli.socket = Some(value(&mut i)),
                "--connect" => cli.connect = Some(value(&mut i)),
                "--http" => cli.http = Some(value(&mut i)),
                "--heartbeat-ms" => {
                    cli.heartbeat = Some(Duration::from_millis(num(&mut i).max(1)));
                }
                other => return Err(format!("unknown argument {other}")),
            }
            i += 1;
        }
        // Checked before the corpus opens: a client uses none, so a
        // storage flag there would create a directory for nothing.
        match args
            .iter()
            .find(|a| cli::STORAGE_FLAGS.contains(&a.as_str()))
        {
            Some(flag) if cli.connect.is_some() => {
                Err(format!("{flag}: a --connect client opens no corpus"))
            }
            _ => Ok(()),
        }
    };
    let sa =
        cli::parse(&args, &[cli::STORAGE_FLAGS, &["--trace"]], own_flags).unwrap_or_else(|e| {
            eprintln!("{e}");
            usage();
        });
    cli.config.trace = sa.trace;
    cli.corpus = sa.corpus;
    cli
}

/// Maps `app:scaled` / `app:full` workload ids onto the registered
/// workload programs — the same ids the corpus keys runs by.
fn resolver() -> Resolver {
    Arc::new(|workload: &str| -> Option<ProgramSource> {
        let (app, scale) = workload.split_once(':')?;
        let scaled = match scale {
            "scaled" => true,
            "full" => false,
            _ => return None,
        };
        instantcheck_workloads::by_name(app, scaled).map(|a| a.build)
    })
}

/// The flag-based signal hook: SIGTERM/SIGINT set an atomic the socket
/// server polls, turning an operator kill into a graceful drain. Uses
/// the libc `signal` entry point the Rust runtime already links — no
/// external crates.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a single atomic store, nothing else.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Installs the handler for SIGTERM and SIGINT (idempotent).
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    /// Whether a shutdown signal has arrived.
    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

/// Client mode: forward each input line to a daemon, print one reply
/// line per request. A final unterminated fragment is sent as raw
/// bytes followed by a disconnect — the deliberate mid-line-drop probe
/// the daemon-mode tests and CI use. `Ok(false)` when any reply was an
/// error or a shed.
fn run_client(path: &str, batch: Option<&str>) -> Result<bool, String> {
    let mut input = Vec::new();
    match batch {
        Some("-") | None => std::io::stdin().lock().read_to_end(&mut input),
        Some(file) => std::fs::File::open(file).and_then(|mut f| f.read_to_end(&mut input)),
    }
    .map_err(|e| format!("cannot read input: {e}"))?;
    let mut writer =
        UnixStream::connect(path).map_err(|e| format!("cannot connect to {path}: {e}"))?;
    let mut reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
    let mut ok = true;
    for line in input.split_inclusive(|&b| b == b'\n') {
        let Some(text) = line.strip_suffix(b"\n") else {
            // Unterminated fragment: send it and hang up mid-line. A daemon
            // that refuses an over-cap line closes before taking it all.
            match writer.write_all(line).and_then(|()| writer.flush()) {
                Ok(()) => eprintln!(
                    "icd: sent {} unterminated byte(s) and disconnected",
                    line.len()
                ),
                Err(e) => eprintln!("icd: daemon closed the connection mid-fragment: {e}"),
            }
            break;
        };
        let text = String::from_utf8_lossy(text);
        let text = text.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let mut reply = String::new();
        writeln!(writer, "{text}")
            .and_then(|()| reader.read_line(&mut reply))
            .map_err(|e| format!("connection lost: {e}"))?;
        let reply = reply.trim_end();
        println!("{reply}");
        // Only error and shed replies degrade the exit status; a
        // `status` snapshot mentions "shed" in its tenant table.
        let failed = obs::json::parse(reply).is_ok_and(|v| {
            v.get("error").is_some()
                || v.get("disposition").and_then(obs::json::Value::as_str) == Some("shed")
        });
        ok &= !failed;
    }
    Ok(ok)
}

/// A campaign id as a safe artifact file stem.
fn file_stem(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let cli = parse_cli();
    let outcome = match &cli.connect {
        Some(path) => run_client(path, cli.batch.as_deref()),
        None => run_daemon(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("icd: {e}");
            ExitCode::from(2)
        }
    }
}

/// Daemon mode: intake, drain, artifacts. `Ok(false)` when any
/// submission did not complete or a line was malformed.
fn run_daemon(cli: &IcdCli) -> Result<bool, String> {
    let out_dir = PathBuf::from(&cli.out);
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let svc = Arc::new(Service::new(Orchestrator::new(
        cli.config.clone(),
        resolver(),
        cli.corpus.clone(),
    )));

    // The wall-clock telemetry plane: read-only, so it starts before
    // intake and keeps serving through the drain.
    let mut http_server = match &cli.http {
        Some(addr) => {
            let server = HttpServer::bind(addr.as_str(), Arc::clone(&svc), HttpOptions::default())
                .map_err(|e| format!("cannot bind http {addr}: {e}"))?;
            eprintln!(
                "icd: telemetry on http://{} (/status /metrics /profile)",
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };
    let mut heartbeat = match cli.heartbeat {
        Some(interval) => {
            let path = out_dir.join("heartbeat.jsonl");
            let hb = Heartbeat::start(Arc::clone(svc.telemetry()), path.clone(), interval)
                .map_err(|e| format!("cannot start heartbeat at {}: {e}", path.display()))?;
            Some(hb)
        }
        None => None,
    };
    intake(cli, &svc).map_err(|e| format!("intake failed: {e}"))?;

    eprintln!("icd: draining {} submission(s)…", svc.submitted());
    let results = svc.drain();
    let bad_lines = svc.registry().counter("icd.bad_lines").get();
    let mut summary = String::new();
    for r in &results {
        let line = r.summary_json();
        println!("{line}");
        summary.push_str(&line);
        summary.push('\n');
        let stem = file_stem(&r.id);
        if let Some(report) = &r.report_json {
            write_artifact(&out_dir.join(format!("{stem}.report.json")), report);
        }
        if let Some(trace) = &r.trace_jsonl {
            write_artifact(&out_dir.join(format!("{stem}.trace.jsonl")), trace);
        }
    }
    write_artifact(&out_dir.join("batch.jsonl"), &summary);
    write_artifact(
        &out_dir.join("batch.trace.jsonl"),
        &obs::events_to_jsonl(&Orchestrator::batch_trace(&results)),
    );
    write_artifact(
        &out_dir.join("metrics.json"),
        &svc.registry().snapshot().to_json(),
    );
    // The wall-clock story (queue dwell, cache waits, worker lanes);
    // same body `/profile` serves. Written before the HTTP listener
    // stops so a final scrape and the artifact agree on schema.
    write_artifact(&out_dir.join("profile.json"), &svc.profile_json());
    if let Some(hb) = &mut heartbeat {
        hb.stop();
    }
    if let Some(server) = &mut http_server {
        server.shutdown();
    }

    let completed = results
        .iter()
        .filter(|r| r.status == CampaignStatus::Completed)
        .count();
    eprintln!(
        "icd: {} submitted / {completed} completed / {} shed / {bad_lines} bad line(s)",
        results.len(),
        results.iter().filter(|r| r.shed.is_some()).count(),
    );
    if let Some(corpus) = &cli.corpus {
        eprintln!(
            "icd: corpus {} hits / {} misses / {} stores",
            corpus.hits(),
            corpus.misses(),
            corpus.stores()
        );
        if let Some(s) = corpus.log_stats() {
            eprintln!(
                "icd: corpus {} segment(s), {} live record(s), {} live / {} garbage byte(s), \
                 {} compaction(s)",
                s.segments, s.live_records, s.live_bytes, s.garbage_bytes, s.compactions
            );
        }
    }
    Ok(bad_lines == 0 && completed == results.len())
}

/// Reads submissions from `--batch`, then serves `--socket`, then —
/// when neither was given — reads stdin.
fn intake(cli: &IcdCli, svc: &Service) -> std::io::Result<()> {
    if let Some(batch) = &cli.batch {
        if batch == "-" {
            sched::read_submissions(std::io::stdin().lock(), svc)?;
        } else {
            sched::read_submissions(std::fs::File::open(batch)?, svc)?;
        }
    }
    if let Some(path) = &cli.socket {
        signals::install();
        sched::serve_socket(path, svc, &cli.daemon, &signals::requested)?;
        if signals::requested() {
            eprintln!("icd: shutdown signal received, draining");
        }
    } else if cli.batch.is_none() {
        sched::read_submissions(std::io::stdin().lock(), svc)?;
    }
    Ok(())
}

/// Writes one artifact atomically (tmp + rename in the target
/// directory), so a crash mid-write can never leave a truncated file
/// that a later byte-compare reads as drift.
fn write_artifact(path: &std::path::Path, contents: &str) {
    let result = (|| -> std::io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp-{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, contents)?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    })();
    match result {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
