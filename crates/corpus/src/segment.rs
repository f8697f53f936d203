//! `icseg-v4` segment files and their open-time scan.
//!
//! A corpus is a sequence of append-only *segment* files, each a plain
//! concatenation of records (see [`crate::record`] for the record
//! layout). Exactly one segment per store is *active*
//! (`seg-NNNNNNNN.open`) and appended in place; full segments are
//! *sealed* by an atomic rename to `seg-NNNNNNNN.icseg` and never
//! written again. A crash can therefore damage at most the tail of the
//! active segment, and [`scan_segment`] finds exactly where the damage
//! starts: it hops from frame to frame, stops at the first frame that
//! is cut short or declares an impossible body, and reports the valid
//! prefix length so the opener can truncate the torn tail away.
//!
//! The scan is structural only — it never verifies a checksum. Content
//! integrity is checked on every read, where a bad record quarantines
//! individually instead of poisoning the records behind it, and the
//! open of a large log costs one frame parse per record.

use crate::record::{parse_frame, FRAME_LEN, MIN_BODY_LEN};

/// Magic token of the segment format (the `format` marker reads
/// `icseg 4`).
pub const SEGMENT_MAGIC: &str = "icseg";

/// Version of the segment format. Bumped on any change to the record
/// encoding or to the fingerprint records are addressed by
/// ([`fingerprint_key`](crate::fingerprint_key)); a store of a
/// different version is refused at open.
pub const SEGMENT_VERSION: u32 = 4;

/// Default size bound of the active segment: once an append would grow
/// it past this many bytes it is sealed and a new one started. Sized so
/// a realistic campaign's records (a few hundred bytes each) pack
/// thousands per segment while compaction still has usefully small
/// units to rewrite.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// One record as located by a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScannedRecord {
    /// The fingerprint the record's frame declares.
    pub fp: u128,
    /// Byte offset of the record (its frame) in the segment.
    pub offset: u64,
    /// Whole record length: frame plus body.
    pub len: u32,
}

/// The result of structurally scanning one segment's bytes.
#[derive(Debug)]
pub(crate) struct SegmentScan {
    /// Every structurally whole record, in file order.
    pub records: Vec<ScannedRecord>,
    /// Length of the valid prefix. Equal to the input length when the
    /// segment is clean; shorter when a torn tail follows.
    pub valid_len: u64,
    /// Whether bytes past `valid_len` were cut — the torn tail of a
    /// crashed append, preserved for quarantine.
    pub torn: bool,
}

/// File name of a sealed segment.
pub(crate) fn sealed_name(id: u64) -> String {
    format!("seg-{id:08}.{SEGMENT_MAGIC}")
}

/// File name of the active (append-in-place) segment.
pub(crate) fn open_name(id: u64) -> String {
    format!("seg-{id:08}.open")
}

/// Parses a segment file name into `(id, sealed)`.
pub(crate) fn parse_segment_name(name: &str) -> Option<(u64, bool)> {
    let rest = name.strip_prefix("seg-")?;
    if let Some(id) = rest
        .strip_suffix(".icseg")
        .and_then(|d| d.parse::<u64>().ok())
    {
        return Some((id, true));
    }
    if let Some(id) = rest
        .strip_suffix(".open")
        .and_then(|d| d.parse::<u64>().ok())
    {
        return Some((id, false));
    }
    None
}

/// Structurally scans `bytes` as a segment: parses each frame, bounds-
/// checks its body, and stops at the first frame that is cut short or
/// declares a body smaller than any record can have. Does not verify
/// checksums (see the module docs).
pub(crate) fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while let Some(frame) = parse_frame(&bytes[offset..]) {
        let body_len = frame.body_len as usize;
        let end = offset + FRAME_LEN + body_len;
        if body_len < MIN_BODY_LEN || end > bytes.len() {
            break; // impossible or cut-short body: torn tail
        }
        records.push(ScannedRecord {
            fp: frame.fp,
            offset: offset as u64,
            len: (FRAME_LEN + body_len) as u32,
        });
        offset = end;
    }
    SegmentScan {
        records,
        valid_len: offset as u64,
        torn: offset < bytes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::frame_record;

    fn body(tag: u8, len: usize) -> Vec<u8> {
        vec![tag; len.max(MIN_BODY_LEN)]
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(sealed_name(7), "seg-00000007.icseg");
        assert_eq!(open_name(12), "seg-00000012.open");
        assert_eq!(parse_segment_name("seg-00000007.icseg"), Some((7, true)));
        assert_eq!(parse_segment_name("seg-00000012.open"), Some((12, false)));
        assert_eq!(parse_segment_name("seg-xx.icseg"), None);
        assert_eq!(parse_segment_name("other"), None);
        assert_eq!(parse_segment_name("seg-1.tmp"), None);
    }

    #[test]
    fn scan_round_trips_multiple_records() {
        let bodies = [body(1, 0), body(2, 100)];
        let mut bytes = Vec::new();
        for (i, b) in bodies.iter().enumerate() {
            bytes.extend_from_slice(&frame_record(i as u128 + 1, b));
        }
        let scan = scan_segment(&bytes);
        assert_eq!(scan.records.len(), 2);
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        for (i, (rec, b)) in scan.records.iter().zip(&bodies).enumerate() {
            assert_eq!(rec.fp, i as u128 + 1);
            assert_eq!(rec.len as usize, FRAME_LEN + b.len());
            let got = &bytes[rec.offset as usize + FRAME_LEN..][..b.len()];
            assert_eq!(got, &b[..]);
        }
    }

    #[test]
    fn torn_tail_is_cut_at_the_last_whole_record() {
        let mut bytes = frame_record(1, &body(1, 0));
        let keep = bytes.len() as u64;
        let second = frame_record(2, &body(2, 80));
        for cut in [1, FRAME_LEN - 1, FRAME_LEN, second.len() - 1] {
            let mut torn = bytes.clone();
            torn.extend_from_slice(&second[..cut]);
            let scan = scan_segment(&torn);
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len, keep);
            assert!(scan.torn);
        }
        bytes.extend_from_slice(&second);
        assert_eq!(scan_segment(&bytes).records.len(), 2);
    }

    #[test]
    fn a_zero_filled_tail_is_torn_not_a_run_of_empty_records() {
        let mut bytes = frame_record(1, &body(1, 0));
        let keep = bytes.len() as u64;
        bytes.extend_from_slice(&[0; 4 * FRAME_LEN]);
        let scan = scan_segment(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, keep);
        assert!(scan.torn);
    }

    #[test]
    fn scan_does_not_verify_checksums() {
        // A bit-flipped body still scans (content checks happen at read
        // time so one bad record cannot poison its successors).
        let mut bytes = frame_record(1, &body(1, 0));
        let flip = bytes.len() - 2;
        bytes[flip] ^= 1;
        bytes.extend_from_slice(&frame_record(2, &body(2, 0)));
        let scan = scan_segment(&bytes);
        assert_eq!(scan.records.len(), 2);
        assert!(!scan.torn);
    }
}
