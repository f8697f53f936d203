//! Telemetry-plane end-to-end suite: drives the real `icd` binary with
//! the HTTP listener (`--http`) bound next to the unix-socket intake
//! and proves the observability contracts:
//!
//! * **Strictly observational** — with `/status`, `/metrics`, and
//!   `/profile` scraped throughout a campaign batch (and the heartbeat
//!   writer running), every campaign's report/trace artifacts stay
//!   byte-identical to solo checker runs.
//! * **Fault isolation on the HTTP side** — a malformed request line,
//!   oversized headers, a mid-request disconnect, and a slow-loris
//!   stall each cost exactly that connection (explicit 400/431/408 or
//!   a silent drop); the next well-formed scrape succeeds.
//! * **Valid exposition** — `/metrics` is parseable Prometheus text
//!   (v0.0.4) and the wait histograms (`icd_queue_dwell_seconds`,
//!   `icd_cache_acquire_seconds`) carry observed samples.
//! * **Drain visibility** — the plane answers during a SIGTERM drain,
//!   reporting `"draining":true`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use instantcheck::{CampaignSpec, CheckReport, Checker, CheckerConfig, Scheme};
use obs::json::Value;
use obs::MemorySink;
use sched::{ProgramSource, Resolver};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("icd-http-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The same workload-id resolver the `icd` binary uses.
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

fn spec(app: &str, seed: u64) -> CampaignSpec {
    CampaignSpec::new(format!("{app}:scaled"), Scheme::HwInc)
        .with_runs(3)
        .with_base_seed(seed)
}

fn submission_line(id: &str, spec: &CampaignSpec) -> String {
    format!("{{\"id\":\"{id}\",\"spec\":{}}}", spec.to_json())
}

/// The solo reference artifacts: `(report_json, trace_jsonl)`.
fn solo_artifacts(id: &str, spec: &CampaignSpec) -> (String, String) {
    let sink = Arc::new(MemorySink::new());
    let cfg = CheckerConfig::from_spec(spec).with_sink(Arc::clone(&sink) as _);
    let source = resolver()(&spec.workload).expect("registered workload");
    let runs = Checker::new(cfg)
        .expect("valid spec")
        .collect_runs(&move || source())
        .expect("campaign completes");
    let report = CheckReport::from_runs(&runs);
    let baseline = corpus::CampaignBaseline::capture(
        id,
        &spec.workload,
        spec.scheme,
        spec.base_seed,
        &runs[0],
        &report,
    );
    (baseline.to_json(), sink.to_jsonl())
}

/// Spawns the daemon with `--http 127.0.0.1:0` and learns the bound
/// address from its startup banner on stderr (the rest of stderr keeps
/// draining in the background so the pipe never fills).
fn spawn_daemon(sock: &Path, out: &Path, extra: &[&str]) -> (Child, SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_icd"));
    cmd.arg("--socket")
        .arg(sock)
        .arg("--out")
        .arg(out)
        .arg("--http")
        .arg("127.0.0.1:0")
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("daemon spawns");
    let stderr = child.stderr.take().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut tx = Some(tx);
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("icd: telemetry on http://") {
                if let (Some(tx), Some(addr)) = (tx.take(), rest.split_whitespace().next()) {
                    let _ = tx.send(addr.to_owned());
                }
            }
        }
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("daemon announces its http address")
        .parse()
        .expect("announced address parses");
    (child, addr)
}

fn wait_for_socket(path: &Path) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if UnixStream::connect(path).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("daemon never started listening on {}", path.display());
}

fn wait_for_exit(child: &mut Child) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    while Instant::now() < deadline {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let _ = child.kill();
    panic!("daemon did not exit within the watchdog window");
}

fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -TERM failed");
}

/// One line-protocol submission client over the unix socket.
fn submit(sock: &Path, line: &str) -> String {
    let stream = UnixStream::connect(sock).expect("intake connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writeln!(writer, "{line}").expect("request writes");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("reply");
    reply.trim_end().to_owned()
}

/// Sends raw bytes to the HTTP port and returns whatever comes back
/// until EOF — hostile clients must tolerate resets, so errors just
/// truncate the reply.
fn raw_http(addr: SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("http connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let _ = stream.write_all(payload);
    let mut reply = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
        }
    }
    String::from_utf8_lossy(&reply).into_owned()
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    raw_http(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: icd\r\n\r\n").as_bytes(),
    )
}

/// Splits an HTTP reply into (status line, headers, body).
fn split_reply(reply: &str) -> (&str, &str, &str) {
    let (head, body) = reply.split_once("\r\n\r\n").unwrap_or((reply, ""));
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status, headers, body)
}

/// Minimal Prometheus text-format validation: every non-comment line
/// is `name[{labels}] value` with a parseable float value and a legal
/// metric-name head.
fn assert_valid_exposition(body: &str) {
    let mut samples = 0usize;
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("exposition line has no value: {line:?}");
        });
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable sample value in {line:?}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "illegal metric name in {line:?}"
        );
        samples += 1;
    }
    assert!(samples > 0, "exposition body was empty");
}

/// A histogram's `_count` sample from an exposition body, 0 if absent.
fn exposition_count(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name}_count ")))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The headline scenario in one daemon lifetime: a campaign batch
/// scraped throughout, four hostile HTTP clients mid-batch, then
/// SIGTERM — artifacts byte-identical to solo, metrics valid with
/// observed wait samples, heartbeat and profile artifacts on disk.
#[test]
fn http_plane_is_observational_and_fault_isolated() {
    let dir = tempdir("plane");
    let sock = dir.join("icd.sock");
    let out = dir.join("out");
    let (mut daemon, addr) = spawn_daemon(&sock, &out, &["--trace", "--heartbeat-ms", "20"]);
    wait_for_socket(&sock);

    // Before any work: all three endpoints answer.
    let (status, headers, body) = {
        let reply = http_get(addr, "/status");
        let (s, h, b) = split_reply(&reply);
        (s.to_owned(), h.to_owned(), b.to_owned())
    };
    assert!(status.starts_with("HTTP/1.1 200 "), "{status}");
    assert!(headers.contains("application/json"), "{headers}");
    let v = obs::json::parse(body.trim()).expect("status body parses");
    assert_eq!(v.get("draining"), Some(&Value::Bool(false)));

    // Submit six campaigns while a scraper hammers the plane.
    let batch: Vec<(String, CampaignSpec)> =
        ["fft", "lu", "radix", "canneal", "blackscholes", "fft"]
            .iter()
            .enumerate()
            .map(|(i, app)| (format!("c{i}"), spec(app, 1 + (i as u64 % 2))))
            .collect();
    for (id, s) in &batch {
        let reply = submit(&sock, &submission_line(id, s));
        assert!(reply.contains("\"enqueued\""), "{reply}");
    }

    // Hostile HTTP clients, interleaved with the running batch. Each
    // gets its explicit close; none takes the listener down.
    let reply = raw_http(addr, b"TOTALLY bogus\r\n\r\n");
    assert!(
        reply.starts_with("HTTP/1.1 400 "),
        "malformed line: {reply}"
    );
    let mut oversized = Vec::from(&b"GET /status HTTP/1.1\r\n"[..]);
    while oversized.len() <= 8192 {
        oversized.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    let reply = raw_http(addr, &oversized);
    assert!(
        reply.starts_with("HTTP/1.1 431 "),
        "oversized head: {reply}"
    );
    {
        // Mid-request disconnect: a torn request line, then gone.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /sta").unwrap();
        drop(stream);
    }
    let reply = http_get(addr, "/nowhere");
    assert!(reply.starts_with("HTTP/1.1 404 "), "{reply}");
    let reply = raw_http(addr, b"POST /status HTTP/1.1\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 405 "), "{reply}");

    // The plane still answers the next well-formed client.
    assert!(http_get(addr, "/status").starts_with("HTTP/1.1 200 "));

    // Wait for the batch to complete, scraping /status for progress.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = http_get(addr, "/status");
        let (_, _, body) = split_reply(&reply);
        let v = obs::json::parse(body.trim()).expect("status parses");
        let completed = v
            .get("counters")
            .and_then(|c| c.get("icd.completed"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if completed == batch.len() as u64 {
            break;
        }
        assert!(Instant::now() < deadline, "batch never completed");
        std::thread::sleep(Duration::from_millis(50));
    }

    // /metrics: valid exposition, right content type, observed waits.
    let reply = http_get(addr, "/metrics");
    let (status, headers, body) = split_reply(&reply);
    assert!(status.starts_with("HTTP/1.1 200 "), "{status}");
    assert!(
        headers.contains("text/plain; version=0.0.4"),
        "exposition content type: {headers}"
    );
    assert_valid_exposition(body);
    assert_eq!(
        exposition_count(body, "icd_queue_dwell_seconds"),
        batch.len() as u64,
        "one dwell observation per campaign"
    );
    // Pre-registered even without a corpus attached; the cache
    // counter series themselves only export when a cache exists.
    assert!(body.contains("icd_cache_acquire_seconds"));
    assert!(body.contains("icd_http_requests_total"));
    assert!(body.contains("icd_http_closed_bad_request_total 1"));
    assert!(body.contains("icd_http_closed_too_large_total 1"));

    // /profile: the wall-clock snapshot round-trips and carries worker
    // lanes plus the dwell histogram.
    let reply = http_get(addr, "/profile");
    let (status, _, body) = split_reply(&reply);
    assert!(status.starts_with("HTTP/1.1 200 "), "{status}");
    let v = obs::json::parse(body.trim()).expect("profile parses");
    let snap = obs::TelemetrySnapshot::from_json(v.get("telemetry").expect("telemetry key"))
        .expect("snapshot round-trips");
    assert_eq!(snap.histograms["icd.queue.dwell"].count, batch.len() as u64);
    assert!(
        snap.lanes.iter().any(|l| l.lane.starts_with("icd.w")),
        "worker lanes recorded"
    );

    // Give the drain real work: a long campaign (full-scale fft, 800
    // runs on a seed no other campaign uses, about a second and a half
    // of simulation and 9 MB of trace) is submitted right before
    // SIGTERM, so the drain window outlasts the scrapes below instead
    // of racing an idle daemon's exit. (The CI `icd-daemon` leg drains
    // full-scale canneal, but without `--trace`; traced, that campaign
    // writes about 300 MB.)
    let long = CampaignSpec::new("fft:full", Scheme::HwInc)
        .with_runs(800)
        .with_base_seed(1001);
    let reply = submit(&sock, &submission_line("drain", &long));
    assert!(reply.contains("\"enqueued\""), "{reply}");

    // SIGTERM: the plane answers during the drain window, then the
    // daemon exits cleanly with artifacts on disk.
    sigterm(&daemon);
    let mut saw_draining = false;
    for _ in 0..100 {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            break;
        };
        let _ = stream.write_all(b"GET /status HTTP/1.1\r\n\r\n");
        let mut reply = Vec::new();
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => reply.extend_from_slice(&chunk[..n]),
            }
        }
        let reply = String::from_utf8_lossy(&reply).into_owned();
        if reply.contains("\"draining\":true") {
            saw_draining = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(saw_draining, "the plane answered during the SIGTERM drain");
    let exit = wait_for_exit(&mut daemon);
    assert_eq!(exit.code(), Some(0), "clean drain");

    // Byte-identity: telemetry plane fully on, artifacts unchanged.
    for (id, s) in &batch {
        let (report, trace) = solo_artifacts(id, s);
        let got = std::fs::read_to_string(out.join(format!("{id}.report.json"))).expect(id);
        assert_eq!(got, report, "{id}: report bytes == solo bytes with --http");
        let got = std::fs::read_to_string(out.join(format!("{id}.trace.jsonl"))).expect(id);
        assert_eq!(got, trace, "{id}: trace bytes == solo bytes with --http");
    }

    // The wall-clock artifacts landed too: a parseable heartbeat trail
    // and the final profile snapshot.
    let heartbeat = std::fs::read_to_string(out.join("heartbeat.jsonl")).expect("heartbeat");
    assert!(!heartbeat.lines().next().unwrap_or("").is_empty());
    for line in heartbeat.lines() {
        let v = obs::json::parse(line).expect("heartbeat line parses");
        assert!(v.get("uptime_ns").is_some());
    }
    let profile = std::fs::read_to_string(out.join("profile.json")).expect("profile artifact");
    let v = obs::json::parse(&profile).expect("profile artifact parses");
    obs::TelemetrySnapshot::from_json(v.get("telemetry").expect("telemetry key"))
        .expect("artifact snapshot round-trips");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A slow-loris client — connected, trickling, never finishing its
/// request head — is cut at the idle deadline with `408`, and the
/// daemon keeps serving.
#[test]
fn slow_loris_is_cut_at_the_idle_deadline() {
    let dir = tempdir("loris");
    let sock = dir.join("icd.sock");
    let (mut daemon, addr) = spawn_daemon(&sock, &dir.join("out"), &[]);
    wait_for_socket(&sock);

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"GET /status HTTP/1.1\r\nX-Slow:")
        .unwrap();
    // Never send the final CRLFCRLF; the server must speak first.
    let mut reply = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
        }
    }
    let reply = String::from_utf8_lossy(&reply);
    assert!(
        reply.starts_with("HTTP/1.1 408 "),
        "slow loris got the idle cut: {reply}"
    );

    // Only that connection paid; the next scrape is fine.
    assert!(http_get(addr, "/status").starts_with("HTTP/1.1 200 "));

    submit(&sock, "drain");
    let exit = wait_for_exit(&mut daemon);
    assert_eq!(exit.code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
