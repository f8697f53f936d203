//! The socket intake's hostile-input contract, in process: `sched`'s
//! socket server runs on a temp socket and every misbehaving client —
//! an over-cap line, a mid-line disconnect, a malformed-line flood, an
//! idle stall — costs only its own connection, counted under its close
//! reason, while well-behaved clients are served and their campaigns
//! complete. Batch and stdin intake read through the same bounded
//! reader.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use instantcheck::{CampaignSpec, Scheme};
use sched::{
    CampaignStatus, Orchestrator, OrchestratorConfig, ProgramSource, Resolver, Service,
    SocketOptions, MAX_LINE_BYTES,
};
use tsim::{ProgramBuilder, ValKind};

fn resolver() -> Resolver {
    Arc::new(|workload: &str| {
        (workload == "sum").then(|| -> ProgramSource {
            Arc::new(|| {
                let mut b = ProgramBuilder::new(2);
                let g = b.global("G", ValKind::U64, 1);
                let lock = b.mutex();
                for t in 0..2u64 {
                    b.thread(async move |ctx| {
                        ctx.lock(lock).await;
                        let v = ctx.load(g.at(0)).await;
                        ctx.store(g.at(0), v + t + 1).await;
                        ctx.unlock(lock).await;
                    });
                }
                b.build()
            })
        })
    })
}

fn submission(id: &str) -> String {
    let spec = CampaignSpec::new("sum", Scheme::HwInc).with_runs(2);
    format!("{{\"id\":\"{id}\",\"spec\":{}}}", spec.to_json())
}

/// A socket server running on its own thread over a fresh service.
struct Server {
    path: PathBuf,
    svc: Arc<Service>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    fn start(tag: &str, options: SocketOptions) -> Server {
        let path =
            std::env::temp_dir().join(format!("icd-intake-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let svc = Arc::new(Service::new(Orchestrator::new(
            OrchestratorConfig::default(),
            resolver(),
            None,
        )));
        let thread = {
            let (path, svc) = (path.to_string_lossy().into_owned(), Arc::clone(&svc));
            std::thread::spawn(move || sched::serve_socket(&path, &svc, &options, &|| false))
        };
        Server { path, svc, thread }
    }

    fn counter(&self, name: &str) -> u64 {
        self.svc.registry().counter(name).get()
    }

    /// Polls until `name` reaches `want`: a close is counted when its
    /// handler notices it.
    fn await_counter(&self, name: &str, want: u64) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.counter(name) < want {
            assert!(Instant::now() < deadline, "{name} never reached {want}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Drains through a `drain` line, waits for the server to return,
    /// and finishes every accepted campaign.
    fn drain(self) -> (Arc<Service>, Vec<sched::CampaignResult>) {
        let reply = Client::connect(&self.path).request("drain");
        assert_eq!(reply, "{\"draining\":true}");
        self.thread.join().unwrap().expect("server ran");
        assert!(!self.path.exists(), "socket file removed");
        let results = self.svc.drain();
        (self.svc, results)
    }
}

/// One line-protocol client.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(path: &Path) -> Client {
        let deadline = Instant::now() + Duration::from_secs(20);
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(stream) => break stream,
                Err(e) => assert!(Instant::now() < deadline, "server never listened: {e}"),
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn request(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("request writes");
        self.reply()
    }

    fn reply(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("a reply arrives");
        reply.trim_end().to_owned()
    }

    /// The server hung up: EOF, or a reset when it closed with our
    /// bytes still unread (queued replies are delivered first).
    fn assert_closed(&mut self) {
        let mut rest = String::new();
        match self.reader.read_line(&mut rest) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("expected the connection closed, got {other:?} {rest:?}"),
        }
    }
}

#[test]
fn an_oversized_line_costs_only_its_own_connection() {
    let server = Server::start("oversized", SocketOptions::default());
    let mut good = Client::connect(&server.path);

    // Twice the cap with no newline, streamed from its own thread: the
    // server stops reading at the cap, so the tail of the write fails.
    let mut hostile = Client::connect(&server.path);
    let mut flood = hostile.writer.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        let _ = flood.write_all(&vec![b'x'; 2 * MAX_LINE_BYTES]);
    });

    let reply = good.request(&submission("good"));
    assert!(reply.contains("\"enqueued\""), "{reply}");

    let reply = hostile.reply();
    assert!(
        reply.starts_with("{\"error\":") && reply.contains("longer than"),
        "the over-cap client is told why: {reply:?}"
    );
    hostile.assert_closed();
    writer.join().unwrap();
    server.await_counter("icd.conn.closed.too-large", 1);

    // The daemon still serves the next client.
    let reply = Client::connect(&server.path).request("status");
    assert!(reply.contains("\"draining\":false"), "{reply}");

    let (svc, results) = server.drain();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].id, "good");
    assert_eq!(results[0].status, CampaignStatus::Completed);
    let counters = svc.registry().snapshot().counters;
    assert_eq!(counters.get("icd.conn.closed.too-large"), Some(&1));
    assert_eq!(counters.get("icd.conn.closed.error"), None);
}

#[test]
fn hostile_clients_each_cost_only_their_own_connection() {
    let options = SocketOptions {
        idle_timeout: Duration::from_millis(300),
        max_bad_lines: 3,
    };
    let server = Server::start("hostile", options);

    // Mid-line disconnect: half a submission, then gone.
    {
        let mut torn = Client::connect(&server.path);
        torn.writer
            .write_all(b"{\"id\":\"torn\",\"spec\":{")
            .unwrap();
    }

    // Malformed-line flood: three error replies, the kick notice, EOF.
    let mut flood = Client::connect(&server.path);
    for i in 0..3 {
        let reply = flood.request(&format!("not json {i}"));
        assert!(reply.starts_with("{\"error\":"), "{reply}");
    }
    let notice = flood.reply();
    assert!(notice.contains("too many malformed lines"), "{notice:?}");
    flood.assert_closed();

    // Idle stall: the server speaks first, then hangs up.
    let mut idle = Client::connect(&server.path);
    assert!(idle.reply().contains("idle timeout"));
    idle.assert_closed();

    // A well-behaved client is served throughout.
    let reply = Client::connect(&server.path).request(&submission("good"));
    assert!(reply.contains("\"enqueued\""), "{reply}");

    for reason in ["partial", "kicked", "idle-timeout"] {
        server.await_counter(&format!("icd.conn.closed.{reason}"), 1);
    }
    let (svc, results) = server.drain();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].status, CampaignStatus::Completed);
    let counters = svc.registry().snapshot().counters;
    for reason in ["partial", "kicked", "idle-timeout"] {
        let name = format!("icd.conn.closed.{reason}");
        assert_eq!(counters.get(&name), Some(&1), "{name}");
    }
    assert_eq!(counters.get("icd.bad_lines"), Some(&3));
}

#[test]
fn a_drain_line_answers_every_connected_client() {
    let server = Server::start("drain", SocketOptions::default());
    let mut bystander = Client::connect(&server.path);
    let status = bystander.request("status");
    assert!(status.contains("\"draining\":false"), "{status}");

    let (svc, results) = {
        let path = server.path.clone();
        let drained = std::thread::spawn(move || server.drain());
        assert_eq!(bystander.reply(), "{\"draining\":true}");
        bystander.assert_closed();
        let drained = drained.join().unwrap();
        assert!(!path.exists());
        drained
    };
    assert!(results.is_empty());
    let counters = svc.registry().snapshot().counters;
    assert_eq!(counters.get("icd.conn.closed.draining"), Some(&2));
}

#[test]
fn batch_intake_reads_through_the_same_bounded_reader() {
    let svc = Service::new(Orchestrator::new(
        OrchestratorConfig::default(),
        resolver(),
        None,
    ));
    // A comment, a good line, an over-cap line, and a line after it
    // that is never read: an over-cap line ends intake from its source.
    let mut input = format!("# batch\n{}\n", submission("a")).into_bytes();
    input.extend(vec![b'x'; MAX_LINE_BYTES + 1]);
    input.extend(format!("\n{}\n", submission("b")).into_bytes());
    sched::read_submissions(&input[..], &svc).unwrap();
    assert_eq!(svc.registry().counter("icd.bad_lines").get(), 1);

    // A final line without a newline is still a submission.
    sched::read_submissions(submission("c").as_bytes(), &svc).unwrap();
    let ids: Vec<String> = svc.drain().into_iter().map(|r| r.id).collect();
    assert_eq!(ids, ["a", "c"]);
}
