//! JSONL submission intake: the daemon's line protocol on a unix
//! socket, and the same bounded line reader for batch files and stdin.
//! DESIGN.md §12 specifies the protocol.

use std::io::{self, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use instantcheck::CampaignSpec;
use obs::json::{self, parse, Layout, ToJson, Value};

use crate::conn::{accept_loop, line_end, ConnClose, FrameReader, TICK};
use crate::{Disposition, Service, Submission};

/// The longest submission line accepted, newline included; spec lines
/// are a few hundred bytes.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Per-connection policy of the socket intake.
#[derive(Debug, Clone)]
pub struct SocketOptions {
    /// Disconnect a client that has not completed a line for this long.
    pub idle_timeout: Duration,
    /// Disconnect a client after this many malformed lines.
    pub max_bad_lines: usize,
}

impl Default for SocketOptions {
    fn default() -> Self {
        SocketOptions {
            idle_timeout: Duration::from_millis(30_000),
            max_bad_lines: 100,
        }
    }
}

/// Parses one submission line: a bare spec, or `{"id", "priority",
/// "tenant", "spec"}`. An absent id is left empty — the service fills
/// in `c<seq>` under its intake lock, so concurrent clients cannot race
/// the default.
///
/// # Errors
///
/// A message naming what did not parse.
pub fn parse_submission(line: &str) -> Result<Submission, String> {
    let v = parse(line)?;
    let (spec_value, id, priority, tenant) = match v.get("spec") {
        Some(spec) => {
            let id = v
                .get("id")
                .and_then(Value::as_str)
                .map(str::to_owned)
                .unwrap_or_default();
            let priority = match v.get("priority") {
                None | Some(Value::Null) => 0,
                Some(Value::Num(raw)) => {
                    raw.parse().map_err(|_| format!("bad priority {raw:?}"))?
                }
                Some(_) => return Err("priority must be a number".to_owned()),
            };
            let tenant = match v.get("tenant") {
                None | Some(Value::Null) => None,
                Some(Value::Str(t)) => Some(t.clone()),
                Some(_) => return Err("tenant must be a string".to_owned()),
            };
            (spec, id, priority, tenant)
        }
        None => (&v, String::new(), 0, None),
    };
    let spec = CampaignSpec::from_value(spec_value)?;
    let mut sub = Submission::new(id, spec).with_priority(priority);
    sub.tenant = tenant;
    Ok(sub)
}

fn disposition_json(id: &str, d: Disposition) -> String {
    let mut out = String::new();
    json::object(&mut out, Layout::Compact, |o| {
        o.field("id", id);
        match d {
            Disposition::Enqueued => o.field("disposition", "enqueued"),
            Disposition::Shed(reason) => o
                .field("disposition", "shed")
                .field("reason", reason.label()),
        };
    });
    out
}

/// A one-member object: the `{"error":…}` and `{"draining":true}`
/// replies.
fn reply_json<T: ToJson + ?Sized>(key: &str, value: &T) -> String {
    let mut out = String::new();
    json::object(&mut out, Layout::Compact, |o| {
        o.field(key, value);
    });
    out
}

/// A frame as trimmed text, or `None` for blank and `#` comment lines.
fn line_text(frame: &[u8]) -> Option<String> {
    let line = String::from_utf8_lossy(frame);
    let text = line.trim();
    (!text.is_empty() && !text.starts_with('#')).then(|| text.to_owned())
}

/// Parses and submits one line; a malformed one counts in
/// `icd.bad_lines`.
fn submit_line(text: &str, service: &Service) -> Result<(String, Disposition), String> {
    let sub = parse_submission(text).inspect_err(|_| service.registry().add("icd.bad_lines", 1))?;
    Ok(service.submit(sub))
}

/// Submits every line of one single-client source (a batch file or
/// stdin) until it ends; a final line without a newline counts too. An
/// over-cap line counts in `icd.bad_lines` and ends intake from this
/// source.
///
/// # Errors
///
/// The source's read error.
pub fn read_submissions(source: impl Read, service: &Service) -> io::Result<()> {
    let mut frames = FrameReader::new(source, MAX_LINE_BYTES, None);
    let submit = |frame: &[u8]| {
        let Some(text) = line_text(frame) else { return };
        match submit_line(&text, service) {
            Ok((id, Disposition::Shed(reason))) => {
                eprintln!("icd: shed {id:?} ({})", reason.label());
            }
            Ok(_) => {}
            Err(e) => eprintln!("icd: bad submission line: {e}"),
        }
    };
    loop {
        match frames.next_frame(line_end, &|| false) {
            Ok(frame) => submit(&frame),
            Err(ConnClose::Partial) => {
                submit(&frames.into_partial());
                return Ok(());
            }
            Err(ConnClose::TooLarge) => {
                service.registry().add("icd.bad_lines", 1);
                eprintln!(
                    "icd: a line exceeds {MAX_LINE_BYTES} bytes; intake from this source ends"
                );
                return Ok(());
            }
            Err(ConnClose::Error(e)) => return Err(e),
            Err(_) => return Ok(()),
        }
    }
}

/// A bound socket that unlinks its file when dropped, so the file goes
/// on every exit path: drain, signal, or panic unwind.
struct SocketFile {
    listener: UnixListener,
    path: PathBuf,
}

impl Drop for SocketFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Binds `path`, refusing to clobber a *live* daemon: if the path
/// exists and a probe connect succeeds, someone is serving it; only a
/// dead (connection-refused) leftover is removed and re-bound.
fn bind_socket(path: &str) -> io::Result<SocketFile> {
    if Path::new(path).exists() {
        if UnixStream::connect(path).is_ok() {
            return Err(io::Error::new(
                ErrorKind::AddrInUse,
                format!("{path}: a live daemon is already listening"),
            ));
        }
        // Stale socket from a dead process — safe to reclaim.
        std::fs::remove_file(path)?;
    }
    let socket = SocketFile {
        listener: UnixListener::bind(path)?,
        path: path.into(),
    };
    socket.listener.set_nonblocking(true)?;
    Ok(socket)
}

/// Serves the line protocol on a unix socket at `path` until the
/// service drains — by a `drain` line, or by `stop` returning true,
/// which begins the drain. Returns once every connection handler has
/// finished; the socket file is removed on every exit path.
///
/// # Errors
///
/// Binding errors, including a live daemon already serving `path`.
pub fn serve_socket(
    path: &str,
    service: &Service,
    options: &SocketOptions,
    stop: &dyn Fn() -> bool,
) -> io::Result<()> {
    let socket = bind_socket(path)?;
    eprintln!("icd: serving {path} (lines: submissions, `status`, `drain`)");
    let registry = service.registry();
    accept_loop(
        move || {
            let (stream, _) = socket.listener.accept()?;
            stream.set_read_timeout(Some(TICK))?;
            Ok(stream)
        },
        &|| {
            if stop() {
                service.begin_drain();
            }
            service.is_draining()
        },
        &|e| {
            registry.add("icd.conn.accept_errors", 1);
            eprintln!("icd: accept failed: {e}");
        },
        &|stream| {
            registry.add("icd.conn.opened", 1);
            let close = serve_lines(stream, service, options);
            if let ConnClose::Error(e) = &close {
                eprintln!("icd: connection error: {e}");
            }
            registry.add("icd.conn.closed", 1);
            registry.add(&format!("icd.conn.closed.{}", close.label()), 1);
        },
    );
    Ok(())
}

/// Serves one socket client until it ends.
fn serve_lines(stream: UnixStream, service: &Service, options: &SocketOptions) -> ConnClose {
    let mut frames = FrameReader::new(stream, MAX_LINE_BYTES, Some(options.idle_timeout));
    let mut bad_lines = 0usize;
    loop {
        let frame = match frames.next_frame(line_end, &|| service.is_draining()) {
            Ok(frame) => frame,
            Err(close) => {
                let notice = match close {
                    ConnClose::Draining => reply_json("draining", &true),
                    ConnClose::IdleTimeout => reply_json("error", "idle timeout"),
                    ConnClose::TooLarge => {
                        reply_json("error", &format!("line longer than {MAX_LINE_BYTES} bytes"))
                    }
                    _ => return close,
                };
                let _ = writeln!(frames.stream(), "{notice}");
                return close;
            }
        };
        let Some(text) = line_text(&frame) else {
            continue;
        };
        let reply = match text.as_str() {
            "status" => service.status_json(),
            "drain" => {
                service.begin_drain();
                reply_json("draining", &true)
            }
            _ => match submit_line(&text, service) {
                Ok((id, d)) => disposition_json(&id, d),
                Err(e) => {
                    bad_lines += 1;
                    reply_json("error", &e)
                }
            },
        };
        if let Err(e) = writeln!(frames.stream(), "{reply}") {
            return ConnClose::Error(e);
        }
        if text == "drain" {
            return ConnClose::Draining;
        }
        if bad_lines >= options.max_bad_lines {
            let _ = writeln!(
                frames.stream(),
                "{}",
                reply_json("error", "too many malformed lines")
            );
            return ConnClose::Kicked;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShedReason;

    #[test]
    fn reply_bytes() {
        assert_eq!(
            disposition_json("a\"1", Disposition::Enqueued),
            r#"{"id":"a\"1","disposition":"enqueued"}"#
        );
        assert_eq!(
            disposition_json("b", Disposition::Shed(ShedReason::QueueFull)),
            r#"{"id":"b","disposition":"shed","reason":"queue-full"}"#
        );
        assert_eq!(
            reply_json("error", "bad \"line\"\n"),
            r#"{"error":"bad \"line\"\n"}"#
        );
        assert_eq!(reply_json("draining", &true), r#"{"draining":true}"#);
    }
}
