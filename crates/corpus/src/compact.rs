//! Background-free inline compaction and size-bounded eviction.
//!
//! Compaction runs *inline* on the write path — there is no background
//! thread to coordinate with, crash during, or leak. After a store the
//! engine asks: does some sealed segment hold more garbage (superseded
//! or quarantined records) than live data, and enough of it to be
//! worth a rewrite? If so, the live records of the *most-garbage*
//! segment are re-appended to the active segment and the source file
//! is deleted. The ordering is the crash-safety argument:
//!
//! 1. copy live records forward (appends — crash here leaves
//!    duplicates, which the "later wins" rebuild rule resolves);
//! 2. delete the source segment (crash before this point loses
//!    nothing; after it the log is simply smaller).
//!
//! Eviction bounds the store's total size: when the log exceeds
//! `max_bytes`, whole segments are dropped oldest-first (segment id is
//! creation order, so age-keyed). Evicted records are plain cache
//! misses later — the corpus is a cache, and eviction is the one case
//! where "losing" records is by design.

use std::io;

use crate::index::{CrashPoints, LogInner, RecordLoc};
use crate::window::{whole, with_window};

/// What one inline compaction did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompactionOutcome {
    /// Live records rewritten into the active segment.
    pub rewritten: u64,
    /// Bytes reclaimed by deleting the source segment.
    pub reclaimed_bytes: u64,
}

/// Picks the compaction victim: the sealed segment with the most
/// garbage, provided garbage outweighs live data and amounts to at
/// least a quarter segment — below that a rewrite costs more I/O than
/// it reclaims.
fn victim(inner: &LogInner, segment_bytes: u64) -> Option<u64> {
    inner
        .segments
        .iter()
        .filter(|(_, info)| {
            info.sealed
                && info.garbage_bytes > info.live_bytes
                && info.garbage_bytes >= segment_bytes / 4
        })
        .max_by_key(|(_, info)| info.garbage_bytes)
        .map(|(id, _)| *id)
}

/// Compacts the most-garbage sealed segment, if any qualifies.
/// Returns `None` when nothing was worth compacting.
pub(crate) fn maybe_compact(
    inner: &mut LogInner,
    segment_bytes: u64,
    crash: &CrashPoints,
) -> io::Result<Option<CompactionOutcome>> {
    let Some(id) = victim(inner, segment_bytes) else {
        return Ok(None);
    };
    let reclaimed_bytes = inner.segments[&id].len;
    // Collect the victim's live records in file order (locality), then
    // re-append each — the index update inside `append` retires the old
    // location as garbage, so a crash mid-loop leaves a log the rebuild
    // rules resolve to exactly the same live set.
    let mut live: Vec<(u128, RecordLoc)> = inner
        .map
        .iter()
        .filter(|(_, loc)| loc.seg == id)
        .map(|(fp, loc)| (*fp, *loc))
        .collect();
    live.sort_unstable_by_key(|(_, loc)| loc.offset);
    let rewritten = live.len() as u64;
    // Records are self-contained (the frame carries the fingerprint),
    // so a live record moves byte for byte. Read in file order through
    // the thread's window, one `pread` fetches many of them.
    with_window(|window| -> io::Result<()> {
        for (fp, loc) in live {
            let at = inner.segments[&id].located(loc);
            let record = window.record(&at);
            whole(record, loc).map_err(|why| {
                io::Error::new(io::ErrorKind::UnexpectedEof, format!("segment {id}: {why}"))
            })?;
            inner.append(fp, record, segment_bytes, crash)?;
        }
        Ok(())
    })?;
    if crash.fires("compact") {
        std::process::abort();
    }
    inner.remove_segment(id)?;
    Ok(Some(CompactionOutcome {
        rewritten,
        reclaimed_bytes,
    }))
}

/// Evicts whole segments oldest-first until the log fits `max_bytes`.
/// The active segment is never evicted. Returns the live records
/// dropped.
pub(crate) fn enforce_size_bound(inner: &mut LogInner, max_bytes: u64) -> io::Result<u64> {
    let mut dropped = 0;
    while inner.total_bytes() > max_bytes {
        let Some(oldest) = inner
            .segments
            .iter()
            .find(|(_, info)| info.sealed)
            .map(|(id, _)| *id)
        else {
            break;
        };
        dropped += inner.remove_segment(oldest)?;
    }
    Ok(dropped)
}
