//! The connection core both servers share: the socket intake
//! (`crate::intake`) and the HTTP listener (`crate::http`) differ only
//! in framing and replies. DESIGN.md §12 describes the discipline.

use std::io::{self, ErrorKind, Read};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// Poll granularity of the accept loop and of connection reads; servers
/// arm every accepted stream's read timeout with it.
pub(crate) const TICK: Duration = Duration::from_millis(20);

/// Bytes requested from the stream per read.
const CHUNK: usize = 8192;

/// Why one connection ended; each server uses the variants its protocol
/// can reach. The label is the suffix of the close counter:
/// `icd.conn.closed.<label>` on the socket, `icd.http.closed.<label>`
/// on the HTTP listener.
#[derive(Debug)]
pub(crate) enum ConnClose {
    Eof,
    Partial,
    TooLarge,
    IdleTimeout,
    Draining,
    Kicked,
    Error(io::Error),
    Served,
    BadRequest,
    Disconnect,
    WriteError,
}

impl ConnClose {
    pub(crate) fn label(&self) -> &'static str {
        match self {
            ConnClose::Eof => "eof",
            ConnClose::Partial => "partial",
            ConnClose::TooLarge => "too-large",
            ConnClose::IdleTimeout => "idle-timeout",
            ConnClose::Draining => "draining",
            ConnClose::Kicked => "kicked",
            ConnClose::Error(_) => "error",
            ConnClose::Served => "served",
            ConnClose::BadRequest => "bad-request",
            ConnClose::Disconnect => "disconnect",
            ConnClose::WriteError => "write-error",
        }
    }
}

/// Serves connections until `stop` returns true. `accept` polls a
/// non-blocking listener it owns; every stream it yields gets its own
/// handler thread running `serve`, so nothing a client does reaches the
/// loop. Finished handlers are reaped on every accept; accept errors go
/// to `on_error` and the loop keeps serving. On stop, `accept` (and the
/// listener with it) is dropped before the remaining handlers are
/// joined, so late connects fail fast.
pub(crate) fn accept_loop<S: Send>(
    mut accept: impl FnMut() -> io::Result<S>,
    stop: &dyn Fn() -> bool,
    on_error: &dyn Fn(&io::Error),
    serve: &(dyn Fn(S) + Sync),
) {
    std::thread::scope(|scope| {
        let mut live: Vec<ScopedJoinHandle<'_, ()>> = Vec::new();
        while !stop() {
            match accept() {
                Ok(stream) => {
                    let (done, running) = std::mem::take(&mut live)
                        .into_iter()
                        .partition(|h| h.is_finished());
                    live = running;
                    for handler in done {
                        let _ = handler.join();
                    }
                    live.push(scope.spawn(move || serve(stream)));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(TICK),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    on_error(&e);
                    std::thread::sleep(TICK);
                }
            }
        }
        drop(accept);
        for handler in live {
            let _ = handler.join();
        }
    });
}

/// Where the first newline-terminated line in `buf` ends, if any.
pub(crate) fn line_end(buf: &[u8]) -> Option<usize> {
    buf.iter().position(|&b| b == b'\n').map(|i| i + 1)
}

/// Reads delimited frames off one stream, never holding more than the
/// cap plus one read chunk.
pub(crate) struct FrameReader<S> {
    stream: S,
    pending: Vec<u8>,
    max_bytes: usize,
    deadline: Option<Duration>,
}

impl<S: Read> FrameReader<S> {
    /// Frames on `stream` may be at most `max_bytes` long (delimiter
    /// included) and must each complete within `deadline` of being
    /// asked for; `None` waits forever.
    pub(crate) fn new(stream: S, max_bytes: usize, deadline: Option<Duration>) -> Self {
        FrameReader {
            stream,
            pending: Vec::new(),
            max_bytes,
            deadline,
        }
    }

    /// The underlying stream, for replies.
    pub(crate) fn stream(&mut self) -> &mut S {
        &mut self.stream
    }

    /// The unterminated bytes left after the stream ended mid-frame.
    pub(crate) fn into_partial(self) -> Vec<u8> {
        self.pending
    }

    /// The next frame, delimiter included; `end` finds where the first
    /// complete frame in a buffer ends. Between reads (each at most one
    /// [`TICK`] on a socket) it checks `stop`, then the deadline.
    pub(crate) fn next_frame(
        &mut self,
        end: fn(&[u8]) -> Option<usize>,
        stop: &dyn Fn() -> bool,
    ) -> Result<Vec<u8>, ConnClose> {
        let started = Instant::now();
        let mut chunk = [0u8; CHUNK];
        let mut waited = false;
        loop {
            match end(&self.pending) {
                Some(n) if n <= self.max_bytes => return Ok(self.pending.drain(..n).collect()),
                Some(_) => return Err(ConnClose::TooLarge),
                None if self.pending.len() > self.max_bytes => return Err(ConnClose::TooLarge),
                None => {}
            }
            if waited {
                if stop() {
                    return Err(ConnClose::Draining);
                }
                if self.deadline.is_some_and(|d| started.elapsed() >= d) {
                    return Err(ConnClose::IdleTimeout);
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) if self.pending.is_empty() => return Err(ConnClose::Eof),
                Ok(0) => return Err(ConnClose::Partial),
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(ConnClose::Error(e)),
            }
            waited = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(input: &[u8], max_bytes: usize) -> (Vec<String>, ConnClose) {
        let mut reader = FrameReader::new(input, max_bytes, None);
        let mut out = Vec::new();
        loop {
            match reader.next_frame(line_end, &|| false) {
                Ok(frame) => out.push(String::from_utf8(frame).unwrap()),
                Err(close) => return (out, close),
            }
        }
    }

    #[test]
    fn lines_split_and_the_stream_end_is_typed() {
        let (lines, close) = frames(b"a\nbb\n", 8);
        assert_eq!(lines, ["a\n", "bb\n"]);
        assert!(matches!(close, ConnClose::Eof));

        let (lines, close) = frames(b"a\ntorn", 8);
        assert_eq!(lines, ["a\n"]);
        assert!(matches!(close, ConnClose::Partial));
    }

    #[test]
    fn the_cap_counts_the_delimiter_and_stops_unterminated_input() {
        let (lines, close) = frames(b"1234567\n12345678\n", 8);
        assert_eq!(lines, ["1234567\n"]);
        assert!(matches!(close, ConnClose::TooLarge));

        let endless = vec![b'x'; 3 * CHUNK];
        let mut reader = FrameReader::new(&endless[..], 100, None);
        assert!(matches!(
            reader.next_frame(line_end, &|| false),
            Err(ConnClose::TooLarge)
        ));
        assert!(reader.into_partial().len() <= 100 + CHUNK);
    }
}
