//! The per-thread read window over sealed segments.
//!
//! A campaign's records are appended one after another, and sealed
//! segments never change, so a replay that reads them in slot order
//! walks one contiguous stretch of one file. Each thread keeps one
//! window of up to [`WINDOW_BYTES`]: a record that lies inside it is
//! sliced straight out of it; otherwise one `pread` starting at the
//! record's offset (clipped at the end of the segment) refills it. A
//! 30-run replay then costs one or two syscalls instead of 30.
//!
//! The active segment and any record larger than the window keep an
//! exact read of the record's bytes, which also leaves the window
//! empty. Either way the caller gets the bytes the file held and
//! checks them exactly as before (length, checksum, stored key); a
//! read that comes up short yields just the bytes it found.
//!
//! A window is tied to one segment handle by a `Weak` of its
//! `Arc<File>`, compared by pointer. While the `Weak` lives the
//! allocation cannot be reused, so no other handle — the read-only one
//! a seal swaps in, a segment compaction or eviction deletes, another
//! store instance's — can ever match a window it did not fill, and the
//! window never keeps a deleted segment's descriptor open.

use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::{Arc, Weak};

use crate::index::{Located, RecordLoc};
use crate::record::Corruption;

/// Bytes one window refill reads at most.
pub(crate) const WINDOW_BYTES: usize = 16 * 1024;

thread_local! {
    static WINDOW: RefCell<Window> = const {
        RefCell::new(Window {
            file: Weak::new(),
            start: 0,
            filled: 0,
            bytes: Vec::new(),
        })
    };
    static READS: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` with the calling thread's window.
pub(crate) fn with_window<R>(f: impl FnOnce(&mut Window) -> R) -> R {
    WINDOW.with(|w| f(&mut w.borrow_mut()))
}

/// Positional reads the calling thread has issued for record reads
/// since it started: one per window refill, one per exact read.
///
/// Only a test's view of how well the window works; nothing in the
/// store reads it.
pub fn thread_record_reads() -> u64 {
    READS.with(Cell::get)
}

/// One thread's read window (see the module docs).
#[derive(Debug)]
pub(crate) struct Window {
    /// The segment handle `bytes[..filled]` came from; dangling when
    /// the window holds nothing reusable.
    file: Weak<File>,
    /// File offset of `bytes[0]`.
    start: u64,
    /// Bytes of `bytes` the last read filled.
    filled: usize,
    /// Grows to the largest read so far and is never shrunk, so a
    /// refill neither allocates nor zeroes.
    bytes: Vec<u8>,
}

impl Window {
    /// The bytes of the record `at` locates: all `at.loc.len` of them,
    /// or fewer when the file ends (or a read fails) first.
    pub(crate) fn record(&mut self, at: &Located) -> &[u8] {
        let (file, loc) = (&at.file, at.loc);
        let len = loc.len as usize;
        let want = match at.sealed_len {
            Some(seg_len) if len <= WINDOW_BYTES => {
                if self.covers(file, loc) {
                    let at = (loc.offset - self.start) as usize;
                    return &self.bytes[at..at + len];
                }
                self.file = Arc::downgrade(file);
                let rest = seg_len.saturating_sub(loc.offset);
                (rest.min(WINDOW_BYTES as u64) as usize).max(len)
            }
            _ => {
                self.file = Weak::new();
                len
            }
        };
        if self.bytes.len() < want {
            self.bytes.resize(want, 0);
        }
        self.start = loc.offset;
        self.filled = read_at_most(file, loc.offset, &mut self.bytes[..want]);
        &self.bytes[..self.filled.min(len)]
    }

    /// Whether the window holds all of the record at `loc` in `file`.
    fn covers(&self, file: &Arc<File>, loc: RecordLoc) -> bool {
        std::ptr::eq(self.file.as_ptr(), Arc::as_ptr(file))
            && loc.offset >= self.start
            && loc.offset + u64::from(loc.len) <= self.start + self.filled as u64
    }
}

/// [`Corruption::Truncated`] when a read returned fewer bytes than the
/// record at `loc` declares.
pub(crate) fn whole(record: &[u8], loc: RecordLoc) -> Result<(), Corruption> {
    if record.len() < loc.len as usize {
        return Err(Corruption::Truncated {
            expected: loc.len as usize,
            found: record.len(),
        });
    }
    Ok(())
}

/// Reads from `offset` until `buf` is full, the file ends, or a read
/// fails; returns the bytes read.
fn read_at_most(file: &File, offset: u64, buf: &mut [u8]) -> usize {
    READS.with(|n| n.set(n.get() + 1));
    let mut got = 0;
    while got < buf.len() {
        match file.read_at(&mut buf[got..], offset + got as u64) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    got
}
