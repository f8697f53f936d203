//! `icd` — the InstantCheck campaign daemon binary.
//!
//! A thin front end over `sched`: it parses the command line, opens the
//! run corpus, feeds submissions to a `sched::Service`, and writes the
//! drained batch's artifacts. The intake protocol, the socket and HTTP
//! servers, and their per-connection limits live in `sched` (see
//! DESIGN.md §12–13).
//!
//! ```text
//! icd [--width N] [--queue-cap N] [--budget N] [--tenant-quota N]
//!     [--idle-timeout-ms N] [--max-bad-lines N] [--out DIR] [--socket PATH]
//!     [--http ADDR] [--heartbeat-ms N] [--batch FILE|-] [--corpus-dir DIR]
//!     [--corpus-segment-bytes N] [--corpus-max-bytes N]
//!     [--corpus-cache-slots N] [--trace]
//! icd --connect PATH [--batch FILE|-]        # client mode
//! ```
//!
//! Both lines go through the shared parser (`bench::cli::parse`): a
//! client reads only `--connect` and `--batch`, so a daemon flag there
//! is refused by name, as is a malformed or missing value.
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
//! a live daemon's socket). A usage error creates neither `--out` nor
//! the corpus.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use instantcheck_bench::cli;
use instantcheck_bench::HarnessOpts;
use obs::Heartbeat;
use sched::{
    CampaignStatus, HttpOptions, HttpServer, Orchestrator, OrchestratorConfig, ProgramSource,
    Resolver, Service, SocketOptions,
};

/// The daemon's own flags, beside `--batch`, the storage flags and
/// `--trace`.
const DAEMON: &[&str] = &[
    "--width N",
    "--queue-cap N",
    "--budget N",
    "--tenant-quota N",
    "--idle-timeout-ms N",
    "--max-bad-lines N",
    "--out DIR",
    "--socket PATH",
    "--http ADDR",
    "--heartbeat-ms N",
];
const BATCH: &str = "--batch FILE|-";
const CONNECT: &str = "--connect PATH";
const DAEMON_READS: &[&[&str]] = &[DAEMON, &[BATCH], cli::STORAGE_FLAGS, &[cli::TRACE]];
/// A client opens no corpus and runs no campaign: it reads only these.
const CLIENT_READS: &[&[&str]] = &[&[CONNECT, BATCH]];

fn usage() -> String {
    format!(
        "usage: icd {}\n       icd {CONNECT} [{BATCH}]",
        cli::synopsis(DAEMON_READS)
    )
}

/// Parses the command line: a client's read-set when `--connect` is
/// given, else the daemon's. The corpus opens once every flag has been
/// vetted.
fn parse_cli(args: &[String]) -> Result<HarnessOpts, String> {
    let (reads, unread) = match args.iter().any(|a| a == "--connect") {
        true => (CLIENT_READS, DAEMON_READS),
        false => (DAEMON_READS, &[][..]),
    };
    cli::parse(args, reads, unread)?.no_rest()?.open()
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_cli(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.value("--connect") {
        Some(path) => run_client(path, opts.value("--batch")),
        None => run_daemon(&opts),
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
fn run_daemon(opts: &HarnessOpts) -> Result<bool, String> {
    let out_dir = PathBuf::from(opts.value("--out").unwrap_or("results/icd"));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let defaults = OrchestratorConfig::default();
    let svc = Arc::new(Service::new(Orchestrator::new(
        OrchestratorConfig {
            width: size(opts, "--width").unwrap_or(defaults.width),
            queue_capacity: size(opts, "--queue-cap").unwrap_or(defaults.queue_capacity),
            job_budget: size(opts, "--budget").unwrap_or(defaults.job_budget),
            tenant_quota: opts.num("--tenant-quota"),
            trace: opts.trace,
        },
        resolver(),
        opts.corpus.clone(),
    )));

    // The wall-clock telemetry plane: read-only, so it starts before
    // intake and keeps serving through the drain.
    let mut http_server = match opts.value("--http") {
        Some(addr) => {
            let server = HttpServer::bind(addr, Arc::clone(&svc), HttpOptions::default())
                .map_err(|e| format!("cannot bind http {addr}: {e}"))?;
            eprintln!(
                "icd: telemetry on http://{} (/status /metrics /profile)",
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };
    let mut heartbeat = match opts.num("--heartbeat-ms") {
        Some(ms) => {
            let interval = Duration::from_millis(ms.max(1));
            let path = out_dir.join("heartbeat.jsonl");
            let hb = Heartbeat::start(Arc::clone(svc.telemetry()), path.clone(), interval)
                .map_err(|e| format!("cannot start heartbeat at {}: {e}", path.display()))?;
            Some(hb)
        }
        None => None,
    };
    intake(opts, &svc).map_err(|e| format!("intake failed: {e}"))?;

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
    if let Some(corpus) = &opts.corpus {
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
fn intake(opts: &HarnessOpts, svc: &Service) -> std::io::Result<()> {
    let batch = opts.value("--batch");
    if let Some(batch) = batch {
        if batch == "-" {
            sched::read_submissions(std::io::stdin().lock(), svc)?;
        } else {
            sched::read_submissions(std::fs::File::open(batch)?, svc)?;
        }
    }
    if let Some(path) = opts.value("--socket") {
        signals::install();
        let defaults = SocketOptions::default();
        let daemon = SocketOptions {
            idle_timeout: opts
                .num("--idle-timeout-ms")
                .map_or(defaults.idle_timeout, |ms| Duration::from_millis(ms.max(1))),
            max_bad_lines: size(opts, "--max-bad-lines").unwrap_or(defaults.max_bad_lines),
        };
        sched::serve_socket(path, svc, &daemon, &signals::requested)?;
        if signals::requested() {
            eprintln!("icd: shutdown signal received, draining");
        }
    } else if batch.is_none() {
        sched::read_submissions(std::io::stdin().lock(), svc)?;
    }
    Ok(())
}

/// A count flag's value.
fn size(opts: &HarnessOpts, flag: &str) -> Option<usize> {
    opts.num(flag).map(|n| n as usize)
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
