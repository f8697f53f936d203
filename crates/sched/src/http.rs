//! A dependency-free HTTP/1.1 read-only surface for the daemon.
//!
//! One [`HttpServer`] serves three operator endpoints off a
//! [`Service`]:
//!
//! * `GET /status` — the service's status snapshot (JSON).
//! * `GET /metrics` — Prometheus text exposition v0.0.4 of the
//!   telemetry plane plus the deterministic registry.
//! * `GET /profile` — the full telemetry snapshot (histograms with
//!   quantiles, worker lanes) and the shared-cache contention table
//!   (JSON), consumable by `icprof --profile`.
//!
//! It runs on the shared connection core (`crate::conn`): each hostile
//! client costs only its own connection, counted as
//! `icd.http.closed.<reason>` on the telemetry plane. It is read-only
//! (`GET` only), so it keeps answering during drain.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::conn::{accept_loop, ConnClose, FrameReader, TICK};
use crate::Service;

/// HTTP server tuning.
#[derive(Debug, Clone)]
pub struct HttpOptions {
    /// Hard cap on the request head (request line + headers); longer
    /// requests are answered `431` and dropped.
    pub max_request_bytes: usize,
    /// A connection that has not delivered a complete request head
    /// within this window is answered `408` and dropped — the
    /// slow-loris guard.
    pub idle_timeout: Duration,
}

impl Default for HttpOptions {
    fn default() -> Self {
        HttpOptions {
            max_request_bytes: 8192,
            idle_timeout: Duration::from_secs(5),
        }
    }
}

/// The read-only HTTP/1.1 listener. Dropping (or
/// [`shutdown`](HttpServer::shutdown)) stops the accept loop and joins
/// every connection handler.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`; port `0` picks a free one
    /// — read it back with [`local_addr`](HttpServer::local_addr)) and
    /// starts serving `service`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be bound.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        service: Arc<Service>,
        options: HttpOptions,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            let telemetry = service.telemetry();
            accept_loop(
                move || {
                    let (stream, _) = listener.accept()?;
                    stream.set_read_timeout(Some(TICK))?;
                    let _ = stream.set_nodelay(true);
                    Ok(stream)
                },
                &|| flag.load(Ordering::SeqCst),
                &|_| telemetry.counter("icd.http.accept_errors").inc(),
                &|stream| {
                    let close = serve_connection(stream, &service, &options);
                    telemetry
                        .counter(&format!("icd.http.closed.{}", close.label()))
                        .inc();
                },
            );
        });
        Ok(HttpServer {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The actually-bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, joins the accept loop and all handlers.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Where a request head ends: its first blank line.
fn head_end(buf: &[u8]) -> Option<usize> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2);
    crlf.into_iter().chain(lf).min()
}

/// Parses `GET /path HTTP/1.x`, returning the path (query stripped).
fn parse_request_line(head: &[u8]) -> Result<(String, String), ConnClose> {
    let line_end = head
        .iter()
        .position(|&b| b == b'\r' || b == b'\n')
        .unwrap_or(head.len());
    let line = std::str::from_utf8(&head[..line_end]).map_err(|_| ConnClose::BadRequest)?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ConnClose::BadRequest);
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") || !target.starts_with('/') {
        return Err(ConnClose::BadRequest);
    }
    let path = target.split('?').next().unwrap_or(target).to_owned();
    Ok((method.to_owned(), path))
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    extra_headers: &str,
    body: &str,
) -> Result<(), ConnClose> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n{extra_headers}\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .and_then(|()| stream.flush())
        .map_err(|_| ConnClose::WriteError)
}

/// The Prometheus exposition content type the scrapers expect.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

const JSON: &str = "application/json";
const TEXT: &str = "text/plain; charset=utf-8";

/// Serves exactly one request on `stream` (`Connection: close`
/// discipline), recording per-request latency telemetry. All errors
/// are local to the connection.
fn serve_connection(stream: TcpStream, service: &Service, options: &HttpOptions) -> ConnClose {
    let telemetry = service.telemetry();
    telemetry.counter("icd.http.requests").inc();
    let started = Instant::now();
    let mut frames = FrameReader::new(
        stream,
        options.max_request_bytes,
        Some(options.idle_timeout),
    );
    // Shutdown lets a request in flight finish: it is read to its end or
    // to the deadline.
    let request = frames.next_frame(head_end, &|| false);
    let close = match request.and_then(|head| parse_request_line(&head)) {
        Ok((method, path)) => {
            let (status, content_type, extra, body) = match (method.as_str(), path.as_str()) {
                ("GET", "/status") => ("200 OK", JSON, "", service.status_json()),
                ("GET", "/metrics") => ("200 OK", METRICS_CONTENT_TYPE, "", service.metrics_text()),
                ("GET", "/profile") => ("200 OK", JSON, "", service.profile_json()),
                ("GET", _) => (
                    "404 Not Found",
                    TEXT,
                    "",
                    "unknown path; try /status, /metrics, /profile\n".to_owned(),
                ),
                _ => (
                    "405 Method Not Allowed",
                    TEXT,
                    "Allow: GET\r\n",
                    "only GET is supported\n".to_owned(),
                ),
            };
            write_response(frames.stream(), status, content_type, extra, &body)
                .err()
                .unwrap_or(ConnClose::Served)
        }
        // The transport ends of the shared reader are one close here.
        Err(ConnClose::Eof | ConnClose::Partial | ConnClose::Error(_)) => ConnClose::Disconnect,
        Err(close) => {
            // Best-effort error reply; the connection is dropped either
            // way, and a peer that already vanished just ignores it.
            let reply = match close {
                ConnClose::BadRequest => Some(("400 Bad Request", "malformed request line\n")),
                ConnClose::TooLarge => Some((
                    "431 Request Header Fields Too Large",
                    "request head too large\n",
                )),
                ConnClose::IdleTimeout => {
                    Some(("408 Request Timeout", "request not completed in time\n"))
                }
                _ => None,
            };
            if let Some((status, body)) = reply {
                let _ = write_response(frames.stream(), status, TEXT, "", body);
            }
            close
        }
    };
    telemetry.record_wait("icd.http.latency", started.elapsed());
    close
}

#[cfg(test)]
mod tests {
    use std::io::Read;
    use std::sync::Arc;

    use instantcheck::Scheme;

    use super::*;
    use crate::tests::TempCorpus;
    use crate::{CampaignSpec, Orchestrator, OrchestratorConfig, Resolver, Service, Submission};

    /// A service over a fresh corpus; keep the returned guard alive
    /// for as long as the service runs.
    fn service() -> (Arc<Service>, TempCorpus) {
        let resolver: Resolver = Arc::new(|_| None);
        let corpus = TempCorpus::new();
        let svc = Arc::new(Service::new(Orchestrator::new(
            OrchestratorConfig::default(),
            resolver,
            Some(Arc::clone(&corpus.corpus)),
        )));
        (svc, corpus)
    }

    fn request(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        // A hostile request may be cut off (RST) mid-write or mid-read
        // when the server rejects early; keep whatever arrived.
        let _ = stream.write_all(raw.as_bytes());
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

    fn get(addr: SocketAddr, path: &str) -> String {
        request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
    }

    #[test]
    fn serves_status_metrics_and_profile() {
        let (svc, _corpus) = service();
        svc.submit(Submission::new(
            "x",
            CampaignSpec::new("nope", Scheme::HwInc),
        ));
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&svc), HttpOptions::default())
            .expect("binds");
        let addr = server.local_addr();

        let status = get(addr, "/status");
        assert!(status.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(status.contains("Content-Type: application/json"));
        let body = status.split("\r\n\r\n").nth(1).unwrap();
        let v = obs::json::parse(body).expect("status body is JSON");
        assert_eq!(v.get("submitted").unwrap().as_u64(), Some(1));
        assert!(v.get("corpus").unwrap().get("cache_capacity").is_some());

        let metrics = get(addr, "/metrics");
        assert!(metrics.contains(&format!("Content-Type: {METRICS_CONTENT_TYPE}")));
        assert!(metrics.contains("# TYPE icd_queue_dwell_seconds histogram"));
        assert!(metrics.contains("# TYPE icd_cache_acquire_seconds histogram"));
        assert!(metrics.contains("# TYPE icd_cache_cas_retries_total counter"));
        assert!(metrics.contains("icd_http_requests_total"));

        let profile = get(addr, "/profile");
        let body = profile.split("\r\n\r\n").nth(1).unwrap();
        let v = obs::json::parse(body).expect("profile body is JSON");
        assert!(v.get("telemetry").unwrap().get("histograms").is_some());
        assert!(matches!(v.get("cache"), Some(obs::json::Value::Obj(_))));
    }

    #[test]
    fn hostile_clients_cost_only_their_connection() {
        let (svc, _corpus) = service();
        let options = HttpOptions {
            max_request_bytes: 512,
            idle_timeout: Duration::from_millis(200),
        };
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&svc), options).expect("binds");
        let addr = server.local_addr();

        // Malformed request line.
        assert!(request(addr, "N0T-HTTP\r\n\r\n").starts_with("HTTP/1.1 400"));
        // Oversized head.
        let big = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(4096));
        assert!(request(addr, &big).starts_with("HTTP/1.1 431"));
        // Unknown path and method.
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
        assert!(request(addr, "POST /status HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
        // Mid-request disconnect: write half a request and vanish.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /st").unwrap();
        }
        // Slow loris: connect, send nothing, wait out the idle window.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut reply = String::new();
            s.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 408"), "got: {reply:?}");
        }
        // The server is still fully alive for well-formed clients.
        assert!(get(addr, "/status").starts_with("HTTP/1.1 200"));
        let closed = svc.telemetry().snapshot();
        assert!(closed.counters["icd.http.closed.bad-request"] >= 1);
        assert!(closed.counters["icd.http.closed.too-large"] >= 1);
        assert!(closed.counters["icd.http.closed.idle-timeout"] >= 1);
    }

    #[test]
    fn shutdown_joins_and_frees_the_port() {
        let (svc, _corpus) = service();
        let mut server =
            HttpServer::bind("127.0.0.1:0", Arc::clone(&svc), HttpOptions::default()).unwrap();
        let addr = server.local_addr();
        assert!(get(addr, "/metrics").starts_with("HTTP/1.1 200"));
        server.shutdown();
        // The port is rebindable immediately after shutdown.
        let again = HttpServer::bind(addr, svc, HttpOptions::default());
        assert!(again.is_ok(), "{:?}", again.err());
    }
}
