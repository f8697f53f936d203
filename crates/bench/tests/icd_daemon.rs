//! Daemon-mode end-to-end suite: drives the real `icd` binary over a
//! unix socket with concurrent (and hostile) clients and proves the
//! two hardening contracts:
//!
//! * **Fault isolation** — a mid-line disconnect, a malformed-line
//!   flood, an idle stall, and quota exhaustion each drop *that*
//!   client with an explicit outcome, while every other client's
//!   report/trace artifacts stay byte-identical to solo checker runs.
//! * **Graceful shutdown** — SIGTERM (and the socket `drain` command)
//!   stops intake, answers `{"draining":true}`, finishes every
//!   accepted campaign, and removes the socket file on every exit
//!   path; binding refuses to clobber a *live* daemon's socket but
//!   reclaims a stale one.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use instantcheck::{CampaignSpec, CheckReport, Checker, CheckerConfig, Scheme};
use obs::json::Value;
use obs::MemorySink;
use sched::{ProgramSource, Resolver};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("icd-daemon-{tag}-{}", std::process::id()));
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
        .with_runs(2)
        .with_base_seed(seed)
}

/// A submission line in the daemon's wrapper format.
fn submission_line(id: &str, tenant: &str, spec: &CampaignSpec) -> String {
    format!(
        "{{\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"spec\":{}}}",
        spec.to_json()
    )
}

/// The solo reference artifacts for one campaign id + spec:
/// `(report_json, trace_jsonl)` — exactly what the daemon must write.
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

/// A spawned daemon, killed on drop if it is still running, so a failing
/// test never leaves it behind.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

fn spawn_daemon(sock: &Path, out: &Path, extra: &[&str]) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_icd"));
    cmd.arg("--socket")
        .arg(sock)
        .arg("--out")
        .arg(out)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    Daemon(cmd.spawn().expect("daemon spawns"))
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

fn wait_for_exit(daemon: &mut Daemon) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    while Instant::now() < deadline {
        if let Some(status) = daemon.0.try_wait().expect("try_wait") {
            return status;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("daemon did not exit within the watchdog window");
}

fn sigterm(daemon: &Daemon) {
    let status = Command::new("kill")
        .arg("-TERM")
        .arg(daemon.0.id().to_string())
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -TERM failed");
}

/// One protocol client: line out, reply line in.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(path: &Path) -> Client {
        let stream = UnixStream::connect(path).expect("client connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn request(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("request writes");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply arrives");
        reply.trim_end().to_owned()
    }
}

fn status(sock: &Path) -> Value {
    let reply = Client::connect(sock).request("status");
    obs::json::parse(&reply).expect("status parses")
}

fn counter(status: &Value, name: &str) -> u64 {
    status
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// The headline acceptance scenario, in one daemon lifetime: three
/// concurrent well-behaved clients, one mid-line disconnect, one
/// malformed flood, and quota exhaustion — then SIGTERM. The daemon
/// survives everything, the good artifacts are byte-identical to solo
/// runs, the drain is complete, and the socket file is gone.
#[test]
fn daemon_survives_hostile_clients_and_sigterm_drains_completely() {
    let dir = tempdir("hostile");
    let sock = dir.join("icd.sock");
    let out = dir.join("out");
    let mut daemon = spawn_daemon(
        &sock,
        &out,
        &["--trace", "--tenant-quota", "2", "--max-bad-lines", "4"],
    );
    wait_for_socket(&sock);

    // Three good clients, two campaigns each, interleaved arbitrarily.
    let apps = [["fft", "lu"], ["radix", "blackscholes"], ["canneal", "fft"]];
    let mut good: Vec<(String, CampaignSpec)> = Vec::new();
    for (c, pair) in apps.iter().enumerate() {
        for (j, app) in pair.iter().enumerate() {
            good.push((format!("g{c}-{j}"), spec(app, 1 + c as u64)));
        }
    }
    let mut clients = Vec::new();
    for (c, pair) in good.chunks(2).enumerate() {
        let sock = sock.clone();
        let pair = pair.to_vec();
        clients.push(std::thread::spawn(move || {
            let mut client = Client::connect(&sock);
            for (id, spec) in &pair {
                let reply = client.request(&submission_line(id, &format!("good{c}"), spec));
                assert!(
                    reply.contains("\"enqueued\""),
                    "good submission accepted: {reply}"
                );
            }
        }));
    }

    // The quota tenant: budget 2, submits 3 — the third sheds.
    let quota_specs = [spec("lu", 7), spec("radix", 7), spec("fft", 7)];
    {
        let mut client = Client::connect(&sock);
        for (i, s) in quota_specs.iter().enumerate() {
            let reply = client.request(&submission_line(&format!("q{i}"), "greedy", s));
            if i < 2 {
                assert!(reply.contains("\"enqueued\""), "{reply}");
            } else {
                assert!(
                    reply.contains("\"shed\"") && reply.contains("quota-exceeded"),
                    "quota exhaustion is an explicit disposition: {reply}"
                );
            }
        }
    }

    // The flood client: more malformed lines than the kick threshold.
    {
        let mut client = Client::connect(&sock);
        for i in 0..4 {
            let reply = client.request(&format!("not json at all {i}"));
            assert!(reply.contains("\"error\""), "{reply}");
        }
        // The kick notice arrives, then EOF — and nobody else notices.
        let mut rest = String::new();
        let _ = client.reader.read_line(&mut rest);
        assert!(
            rest.contains("too many malformed lines"),
            "flooding client is told why it was dropped: {rest:?}"
        );
    }

    // The mid-line disconnect: a partial submission, then a vanishing
    // client. The fragment is dropped; the daemon keeps serving.
    {
        let mut stream = UnixStream::connect(&sock).unwrap();
        stream.write_all(b"{\"id\":\"torn\",\"spec\":{").unwrap();
        stream.flush().unwrap();
        drop(stream);
    }

    for c in clients {
        c.join().unwrap();
    }

    // Poll `status` until all eight accepted campaigns completed and
    // both hostile connections' closes were counted (a close is counted
    // when its handler notices it, which may be after the campaigns
    // finish); the daemon answered every hostile client without dying.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let s = status(&sock);
        if counter(&s, "icd.completed") == 8
            && counter(&s, "icd.conn.closed.partial") > 0
            && counter(&s, "icd.conn.closed.kicked") > 0
        {
            assert_eq!(
                s.get("draining"),
                Some(&Value::Bool(false)),
                "still serving while hostile clients come and go"
            );
            assert_eq!(
                s.get("tenants")
                    .and_then(|t| t.get("greedy"))
                    .and_then(|g| g.get("shed"))
                    .and_then(Value::as_u64),
                Some(1)
            );
            assert!(counter(&s, "icd.bad_lines") >= 4);
            assert_eq!(counter(&s, "icd.conn.closed.kicked"), 1);
            assert_eq!(counter(&s, "icd.conn.closed.partial"), 1);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "campaigns never completed or hostile closes never counted: {:?}",
            s.get("counters")
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // SIGTERM mid-service: a complete drain, artifacts on disk, socket
    // gone. Exit code 1 records the (expected) sheds and bad lines.
    sigterm(&daemon);
    let exit = wait_for_exit(&mut daemon);
    assert_eq!(exit.code(), Some(1), "degraded-but-drained exit");
    assert!(!sock.exists(), "socket file removed on signal exit");

    // Every accepted campaign's artifacts are byte-identical to solo
    // runs, regardless of client count, interleaving, disconnects, or
    // the drain trigger.
    let mut accepted = good.clone();
    accepted.push(("q0".to_owned(), quota_specs[0].clone()));
    accepted.push(("q1".to_owned(), quota_specs[1].clone()));
    for (id, spec) in &accepted {
        let (report, trace) = solo_artifacts(id, spec);
        let got_report = std::fs::read_to_string(out.join(format!("{id}.report.json"))).expect(id);
        assert_eq!(got_report, report, "{id}: report bytes == solo bytes");
        let got_trace = std::fs::read_to_string(out.join(format!("{id}.trace.jsonl"))).expect(id);
        assert_eq!(got_trace, trace, "{id}: trace bytes == solo bytes");
    }

    // The batch summary covers every parsed submission (8 accepted +
    // 1 quota shed; the torn fragment never became a submission), in
    // seq order, with the shed recorded explicitly.
    let summary = std::fs::read_to_string(out.join("batch.jsonl")).unwrap();
    let lines: Vec<&str> = summary.lines().collect();
    assert_eq!(lines.len(), 9);
    let seqs: Vec<u64> = lines
        .iter()
        .map(|l| {
            obs::json::parse(l)
                .unwrap()
                .get("seq")
                .unwrap()
                .as_u64()
                .unwrap()
        })
        .collect();
    assert_eq!(seqs, (0..9).collect::<Vec<u64>>(), "summary sorted by seq");
    assert!(summary.contains("\"q2\"") && summary.contains("quota-exceeded"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Binding refuses to clobber a live daemon's socket; a stale socket
/// left by a dead process is reclaimed.
#[test]
fn socket_binding_is_liveness_aware() {
    let dir = tempdir("bind");
    let sock = dir.join("icd.sock");
    let out_a = dir.join("a");
    let out_b = dir.join("b");

    let mut a = spawn_daemon(&sock, &out_a, &[]);
    wait_for_socket(&sock);

    // A second daemon on the same socket must refuse (exit 2) and must
    // not unlink the live listener.
    let mut b = spawn_daemon(&sock, &out_b, &[]);
    let exit_b = wait_for_exit(&mut b);
    assert_eq!(exit_b.code(), Some(2), "refuses a live socket");
    let reply = Client::connect(&sock).request("status");
    assert!(
        reply.contains("\"draining\":false"),
        "first daemon unharmed: {reply}"
    );

    // Socket-protocol drain: `{"draining":true}` reply, clean exit,
    // no socket file left.
    let reply = Client::connect(&sock).request("drain");
    assert!(reply.contains("\"draining\":true"), "{reply}");
    let exit_a = wait_for_exit(&mut a);
    assert_eq!(exit_a.code(), Some(0), "nothing submitted, clean drain");
    assert!(!sock.exists(), "socket removed on drain exit");

    // A stale socket file (listener long dead) is reclaimed on boot.
    drop(UnixListener::bind(&sock).unwrap());
    assert!(sock.exists(), "stale socket file left behind");
    let mut c = spawn_daemon(&sock, &dir.join("c"), &[]);
    wait_for_socket(&sock);
    let reply = Client::connect(&sock).request("status");
    assert!(reply.contains("\"submitted\":0"), "{reply}");
    Client::connect(&sock).request("drain");
    let exit_c = wait_for_exit(&mut c);
    assert_eq!(exit_c.code(), Some(0));
    assert!(!sock.exists());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A stalled client is disconnected at the idle deadline instead of
/// pinning a handler thread forever, and the daemon keeps serving.
#[test]
fn idle_clients_are_disconnected_at_the_deadline() {
    let dir = tempdir("idle");
    let sock = dir.join("icd.sock");
    let mut daemon = spawn_daemon(&sock, &dir.join("out"), &["--idle-timeout-ms", "200"]);
    wait_for_socket(&sock);

    let stream = UnixStream::connect(&sock).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    // Send nothing: the daemon must speak first, then hang up.
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("idle timeout"), "{reply:?}");
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "then EOF");

    let s = status(&sock);
    assert_eq!(counter(&s, "icd.conn.closed.idle-timeout"), 1);
    Client::connect(&sock).request("drain");
    let exit = wait_for_exit(&mut daemon);
    assert_eq!(exit.code(), Some(0));
    assert!(!sock.exists());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs are bounded by steps alone, so `icd` has no run deadline or
/// campaign retry loop to tune and the harness no deadline flag, and
/// `icd` pushes no telemetry file (the snapshot is pulled over HTTP):
/// each such flag is a usage error naming it, not a silently ignored
/// one.
#[test]
fn deadline_and_retry_flags_are_unknown_arguments() {
    let dir = tempdir("flags");
    for (bin, flag) in [
        (env!("CARGO_BIN_EXE_icd"), "--deadline-ms"),
        (env!("CARGO_BIN_EXE_icd"), "--retries"),
        (env!("CARGO_BIN_EXE_icd"), "--backoff-ms"),
        (env!("CARGO_BIN_EXE_icd"), "--heartbeat-ms"),
        (env!("CARGO_BIN_EXE_table2"), "--deadline-ms"),
    ] {
        let out = Command::new(bin)
            .args([flag, "5"])
            .current_dir(&dir)
            .stdin(Stdio::null())
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument {flag}")),
            "{bin} {flag}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Storage is a deployment setting (the `--corpus-*` flags), not part
/// of a campaign: a batch line whose spec sets a storage key is a bad
/// line naming that key, and the rest of the batch runs as if the line
/// were absent.
#[test]
fn a_spec_that_sets_a_storage_key_is_a_bad_line() {
    let dir = tempdir("storage-key");
    let never = dir.join("never");
    let out = dir.join("out");
    let clean = spec("fft", 3);
    let stored = clean.to_json().replacen(
        '{',
        &format!("{{\"corpus_dir\":\"{}\",", never.display()),
        1,
    );
    let batch = dir.join("batch.jsonl");
    std::fs::write(
        &batch,
        format!(
            "{{\"id\":\"stored\",\"spec\":{stored}}}\n{}\n",
            submission_line("clean", "anon", &clean)
        ),
    )
    .unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_icd"))
        .args(["--trace", "--batch"])
        .arg(&batch)
        .arg("--out")
        .arg(&out)
        .stdin(Stdio::null())
        .output()
        .expect("run icd");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(
        run.status.code(),
        Some(1),
        "a bad line fails the batch: {stderr}"
    );
    assert!(
        stderr.contains("\"corpus_dir\"") && stderr.contains("--corpus-dir"),
        "the refusal names the key and its flag: {stderr}"
    );
    assert!(!never.exists(), "the refused spec's directory was created");

    let metrics = std::fs::read_to_string(out.join("metrics.json")).unwrap();
    let metrics = obs::json::parse(&metrics).expect("metrics parse");
    assert_eq!(counter(&metrics, "icd.bad_lines"), 1);
    let summary = std::fs::read_to_string(out.join("batch.jsonl")).unwrap();
    assert_eq!(
        summary.lines().count(),
        1,
        "only the clean line ran: {summary}"
    );
    assert!(
        summary.contains("\"id\":\"clean\"") && summary.contains("\"status\":\"completed\""),
        "{summary}"
    );
    let (report, trace) = solo_artifacts("clean", &clean);
    assert_eq!(
        std::fs::read_to_string(out.join("clean.report.json")).unwrap(),
        report
    );
    assert_eq!(
        std::fs::read_to_string(out.join("clean.trace.jsonl")).unwrap(),
        trace
    );

    // A client opens no corpus: its storage flags are refused before
    // anything is created.
    let client = Command::new(env!("CARGO_BIN_EXE_icd"))
        .args(["--connect", &dir.join("no.sock").to_string_lossy()])
        .args(["--corpus-dir", &never.to_string_lossy()])
        .stdin(Stdio::null())
        .output()
        .expect("run icd");
    let stderr = String::from_utf8_lossy(&client.stderr);
    assert_eq!(client.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("--corpus-dir:"), "{stderr}");
    assert!(!never.exists(), "the client created a corpus");
    let _ = std::fs::remove_dir_all(&dir);
}
