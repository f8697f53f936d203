//! Campaign-trace profiler. Loads a JSONL event trace recorded by a
//! traced campaign (pass `--trace` to the harness binaries), prints the
//! per-run profile — steps, instruction attribution per scheme, MHM hit
//! rates, the fault/failure timeline, divergences — and optionally
//! exports Chrome trace-event JSON for `chrome://tracing` / Perfetto.
//!
//! With `--profile FILE` (the daemon's `profile.json` artifact or a
//! saved `GET /profile` body) it additionally prints the wall-clock
//! side: wait-histogram quantiles (queue dwell, cache acquire/wait,
//! worker busy/idle) and the shared-cache contention table — probe
//! lengths, CAS retries, in-flight waits, arena occupancy. When
//! `--chrome` is also given, per-worker lanes from the
//! profile ride along in the export as their own process, so the
//! simulated-step tracks and the wall-clock worker timeline land in
//! one Perfetto view.
//!
//! ```text
//! icprof [trace.jsonl] [--profile FILE] [--chrome FILE] [--help] [-h]
//! ```
//!
//! It needs a trace or `--profile`; the flags go through the shared
//! parser (`bench::cli::parse`). A usage error exits 2, an unreadable
//! or malformed file 1.

use std::fmt::Write as _;
use std::process::ExitCode;

use instantcheck_bench::cli;
use obs::telemetry::TelemetrySnapshot;

fn seconds(ns: u64) -> String {
    format!("{:.6}s", ns as f64 / 1e9)
}

/// Renders the wall-clock profile: histogram quantiles, gauges,
/// counters, and the contention table of `cache` (the `/profile`
/// body's shared-cache object).
fn render_profile(snap: &TelemetrySnapshot, cache: Option<&obs::json::Value>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== wall-clock telemetry ==");
    let _ = writeln!(out, "uptime: {}", seconds(snap.uptime_ns));
    if !snap.histograms.is_empty() {
        let _ = writeln!(out, "\nwait/latency histograms (wall clock):");
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>12} {:>12}",
            "name", "count", "p50<=", "p95<=", "p99<="
        );
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12} {:>12} {:>12}",
                name,
                h.count,
                seconds(h.p50()),
                seconds(h.p95()),
                seconds(h.p99()),
            );
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "\ngauges:");
        for (name, value) in &snap.gauges {
            let _ = writeln!(out, "  {name:<28} {value}");
        }
    }
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "\ncounters:");
        for (name, value) in &snap.counters {
            let _ = writeln!(out, "  {name:<28} {value}");
        }
    }

    // The shared-cache contention table: the evidence base for deciding
    // whether the lock-free run cache scales — long probes, CAS-retry
    // storms, or heavy in-flight waiting all show up here.
    if let Some(cache @ obs::json::Value::Obj(_)) = cache {
        let field =
            |k: &str| -> u64 { cache.get(k).and_then(obs::json::Value::as_u64).unwrap_or(0) };
        let (probes, steps) = (field("probes"), field("probe_steps"));
        let mean_probe = if probes == 0 {
            0.0
        } else {
            steps as f64 / probes as f64
        };
        let _ = writeln!(out, "\n== shared run cache ==");
        let _ = writeln!(
            out,
            "  occupancy: {} published / {} in-flight / {} abandoned of {} slots",
            field("published"),
            field("in_flight"),
            field("abandoned"),
            field("capacity")
        );
        let _ = writeln!(
            out,
            "  probes: {probes} sequence(s), mean length {mean_probe:.2} slot(s)"
        );
        let _ = writeln!(
            out,
            "  contention: {} CAS retr{}, {} in-flight wait(s) totalling {}",
            field("cas_retries"),
            if field("cas_retries") == 1 {
                "y"
            } else {
                "ies"
            },
            field("waits"),
            seconds(field("wait_ns"))
        );
        let _ = writeln!(out, "  arena-full fallbacks: {}", field("arena_full"));
    }
    if !snap.lanes.is_empty() || snap.dropped_lanes > 0 {
        let _ = writeln!(
            out,
            "\nworker lanes: {} span(s) retained, {} dropped",
            snap.lanes.len(),
            snap.dropped_lanes
        );
    }
    out
}

const FLAGS: &[&str] = &["--profile FILE", "--chrome FILE", "--help", "-h"];

fn usage() -> String {
    format!("usage: icprof [trace.jsonl] {}", cli::synopsis(&[FLAGS]))
}

/// A usage error: the error, the usage text, exit status 2.
fn refuse(error: &str) -> ExitCode {
    eprintln!("{error}\n{}", usage());
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse(&args, &[FLAGS], &[]) {
        Ok(parsed) => parsed.opts,
        Err(e) => return refuse(&e),
    };
    // One positional at most: the trace path.
    let trace_path = opts.rest.first().filter(|path| !path.starts_with('-'));
    if let Some(other) = opts.rest.get(usize::from(trace_path.is_some())) {
        return refuse(&format!("unknown argument {other}"));
    }
    if opts.switch("--help") || opts.switch("-h") {
        eprintln!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let profile_path = opts.value("--profile");
    if trace_path.is_none() && profile_path.is_none() {
        return refuse("icprof needs a trace or --profile");
    }

    let mut events = Vec::new();
    if let Some(path) = trace_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("could not read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        events = match obs::parse_jsonl(&text) {
            Ok(ev) => ev,
            Err(e) => {
                eprintln!("could not parse {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let profile = obs::CampaignProfile::from_events(&events);
        print!("{}", profile.render());
    }

    let mut lanes = Vec::new();
    if let Some(path) = profile_path {
        // Accept both the `/profile` body ({"telemetry":…,"cache":…})
        // and a bare telemetry snapshot (a heartbeat line).
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| obs::json::parse(&text))
            .and_then(|v| {
                let snap = TelemetrySnapshot::from_json(v.get("telemetry").unwrap_or(&v))?;
                Ok((snap, v))
            });
        match parsed {
            Ok((snap, v)) => {
                print!("{}", render_profile(&snap, v.get("cache")));
                lanes = snap.lanes;
            }
            Err(e) => {
                eprintln!("could not read profile {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(out) = opts.value("--chrome") {
        if let Err(e) = std::fs::write(out, obs::chrome_lanes(&events, &lanes)) {
            eprintln!("could not write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out}");
    }
    ExitCode::SUCCESS
}
