//! The in-memory fingerprint index over the segment log, and the
//! mutable log state (`LogInner`) every write path goes through.
//!
//! The index is rebuilt by scanning the segments on first use — the
//! log itself is the only durable structure; there is no on-disk index
//! to corrupt. The rebuild applies two rules:
//!
//! * **Later wins.** Records are scanned in `(segment id, offset)`
//!   order and a later record for a fingerprint supersedes an earlier
//!   one, whose bytes become garbage in their segment. This is what
//!   makes compaction crash-safe: a crash after copying live records
//!   but before deleting the source segment leaves duplicates that the
//!   next rebuild resolves identically.
//! * **Torn tails truncate.** A crash mid-append can only damage the
//!   tail of the active segment; the structural scan finds the first
//!   frame that is cut short, the torn bytes are preserved for
//!   quarantine, and the file is truncated back to its last whole
//!   record. Records before the tear are untouched.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::hash::{BuildHasher, Hasher};
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::segment::{
    open_name, parse_segment_name, scan_segment, sealed_name, ScannedRecord, SEGMENT_MAGIC,
};

/// Environment variable arming a seeded crash point, for crash-recovery
/// tests: `ICSEG_CRASH=<point>[:<n>]` aborts the process at the n-th
/// (default first) hit of the named point. Points: `append` (a torn
/// half-record write), `seal-pre` (before the seal rename), `seal-post`
/// (after the rename, before the next active segment exists), and
/// `compact` (after live records are rewritten, before the source
/// segment is deleted).
pub const CRASH_ENV: &str = "ICSEG_CRASH";

/// Seeded fault points, parsed once from [`CRASH_ENV`]. Inert (two
/// relaxed atomic loads) unless the variable is set.
#[derive(Debug)]
pub(crate) struct CrashPoints {
    point: Option<(String, u64)>,
    hits: AtomicU64,
}

impl CrashPoints {
    pub(crate) fn from_env() -> CrashPoints {
        let point = std::env::var(CRASH_ENV)
            .ok()
            .map(|v| match v.split_once(':') {
                Some((name, n)) => (name.to_owned(), n.parse().unwrap_or(1).max(1)),
                None => (v, 1),
            });
        CrashPoints {
            point,
            hits: AtomicU64::new(0),
        }
    }

    /// Whether the named point fires now (its configured hit count was
    /// just reached). The caller performs the seeded damage and aborts.
    pub(crate) fn fires(&self, name: &str) -> bool {
        match &self.point {
            Some((p, n)) if p == name => self.hits.fetch_add(1, Ordering::Relaxed) + 1 == *n,
            _ => false,
        }
    }
}

/// The index's hasher builder: a folded 64×64→128 multiply of the
/// fingerprint's two halves under a random per-store key. Fingerprints
/// are already uniform hashes of the key block, so one multiply mixes
/// enough; SipHash would cost three times as much per probe. The key
/// stays secret and per store (drawn from [`RandomState`]) because the
/// fingerprinted fields come from clients: without it, chosen keys
/// could pile into one bucket.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FpKeys {
    k0: u64,
    k1: u64,
}

impl FpKeys {
    /// Fresh random keys.
    pub(crate) fn new() -> FpKeys {
        let seeds = RandomState::new();
        FpKeys {
            k0: seeds.hash_one(0u8),
            k1: seeds.hash_one(1u8),
        }
    }
}

impl BuildHasher for FpKeys {
    type Hasher = FpHasher;

    fn build_hasher(&self) -> FpHasher {
        FpHasher {
            keys: *self,
            hash: 0,
        }
    }
}

/// The hasher [`FpKeys`] builds. A `u128` key is one
/// [`write_u128`](Hasher::write_u128); other input is folded in
/// 16-byte words.
#[derive(Debug)]
pub(crate) struct FpHasher {
    keys: FpKeys,
    hash: u64,
}

impl Hasher for FpHasher {
    fn write_u128(&mut self, word: u128) {
        let a = self.hash ^ word as u64 ^ self.keys.k0;
        let b = (word >> 64) as u64 ^ self.keys.k1;
        let product = u128::from(a) * u128::from(b);
        self.hash = product as u64 ^ (product >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(16) {
            let mut word = [0u8; 16];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u128(u128::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Where a live record lives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordLoc {
    /// Segment id.
    pub seg: u64,
    /// Byte offset of the record (its frame) within the segment.
    pub offset: u64,
    /// Whole-record length: frame plus body.
    pub len: u32,
}

/// One segment's open handle and byte accounting.
#[derive(Debug)]
pub(crate) struct SegmentInfo {
    /// Shared read handle; also the write handle of the active segment.
    pub file: Arc<File>,
    /// Sealed segments are immutable; exactly one segment is not.
    pub sealed: bool,
    /// Current byte length.
    pub len: u64,
    /// Bytes of live (indexed) records.
    pub live_bytes: u64,
    /// Bytes of superseded or quarantined records.
    pub garbage_bytes: u64,
    /// Count of live records.
    pub live_records: u64,
}

impl SegmentInfo {
    /// What a read of the record at `loc` in this segment needs.
    pub(crate) fn located(&self, loc: RecordLoc) -> Located {
        Located {
            file: Arc::clone(&self.file),
            sealed_len: self.sealed.then_some(self.len),
            loc,
        }
    }
}

/// A live record's location plus what a read of it needs from its
/// segment, taken under the store lock and read outside it.
#[derive(Debug)]
pub(crate) struct Located {
    /// The segment's shared read handle.
    pub file: Arc<File>,
    /// The segment's length when it is sealed (immutable, so a read
    /// window may serve it); `None` for the active segment.
    pub sealed_len: Option<u64>,
    /// Where the record lives.
    pub loc: RecordLoc,
}

/// A torn tail preserved from a scan, for quarantine by the caller.
#[derive(Debug)]
pub(crate) struct TornTail {
    /// The segment the tail was cut from.
    pub seg: u64,
    /// Offset the tear started at.
    pub offset: u64,
    /// The unparseable bytes.
    pub bytes: Vec<u8>,
}

/// The mutable log state: fingerprint index, segment table, and the
/// active segment every append goes to. All mutation happens behind
/// the store's mutex; reads clone the `Arc<File>` handle and leave.
#[derive(Debug)]
pub(crate) struct LogInner {
    segments_dir: PathBuf,
    /// fingerprint → live record location.
    pub map: HashMap<u128, RecordLoc, FpKeys>,
    /// Segment table in id (= age) order.
    pub segments: BTreeMap<u64, SegmentInfo>,
    /// Id of the active segment.
    pub active: u64,
}

impl LogInner {
    /// Scans `segments_dir` and rebuilds the index. Creates the first
    /// active segment if the log is empty; truncates torn tails and
    /// returns them for quarantine (normally at most one, on the active
    /// segment, after a crash).
    pub(crate) fn open(segments_dir: &Path) -> io::Result<(LogInner, Vec<TornTail>)> {
        let mut found: Vec<(u64, bool)> = Vec::new();
        for entry in fs::read_dir(segments_dir)? {
            let entry = entry?;
            if let Some(parsed) = entry.file_name().to_str().and_then(parse_segment_name) {
                found.push(parsed);
            }
        }
        found.sort_unstable();

        let mut inner = LogInner {
            segments_dir: segments_dir.to_path_buf(),
            map: HashMap::with_hasher(FpKeys::new()),
            segments: BTreeMap::new(),
            active: 0,
        };
        let mut torn = Vec::new();
        // One buffer serves every segment: `read_to_end` reserves the
        // file's length up front, so it grows only to the largest
        // segment instead of allocating afresh per segment.
        let mut bytes = Vec::new();

        for &(id, sealed) in &found {
            let name = if sealed {
                sealed_name(id)
            } else {
                open_name(id)
            };
            let path = segments_dir.join(name);
            bytes.clear();
            File::open(&path)?.read_to_end(&mut bytes)?;
            let scan = scan_segment(&bytes);
            inner.map.reserve(scan.records.len());
            if scan.torn {
                torn.push(TornTail {
                    seg: id,
                    offset: scan.valid_len,
                    bytes: bytes[scan.valid_len as usize..].to_vec(),
                });
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.valid_len)?;
            }
            // A stale `.open` segment older than the newest one (a
            // crash window between seal and next-active creation never
            // leaves this, but be safe) is sealed on sight.
            let is_last = id == found.last().expect("nonempty").0;
            let (path, sealed) = if !sealed && !is_last {
                let sealed_path = segments_dir.join(sealed_name(id));
                fs::rename(&path, &sealed_path)?;
                (sealed_path, true)
            } else {
                (path, sealed)
            };
            let file = if sealed {
                File::open(&path)?
            } else {
                OpenOptions::new().read(true).write(true).open(&path)?
            };
            let mut info = SegmentInfo {
                file: Arc::new(file),
                sealed,
                len: scan.valid_len,
                live_bytes: 0,
                garbage_bytes: 0,
                live_records: 0,
            };
            for rec in &scan.records {
                index_record(&mut inner.map, &mut inner.segments, &mut info, id, rec);
            }
            inner.segments.insert(id, info);
            if !sealed {
                inner.active = id;
            }
        }

        if inner.active == 0 {
            let id = inner.segments.keys().next_back().copied().unwrap_or(0) + 1;
            inner.create_active(id)?;
        }
        Ok((inner, torn))
    }

    fn create_active(&mut self, id: u64) -> io::Result<()> {
        let path = self.segments_dir.join(open_name(id));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        self.segments.insert(
            id,
            SegmentInfo {
                file: Arc::new(file),
                sealed: false,
                len: 0,
                live_bytes: 0,
                garbage_bytes: 0,
                live_records: 0,
            },
        );
        self.active = id;
        Ok(())
    }

    /// Seals the active segment (atomic rename `.open` → `.icseg`) and
    /// starts the next one. `crash` arms the seeded `seal-pre` /
    /// `seal-post` fault points.
    pub(crate) fn seal_active(&mut self, crash: &CrashPoints) -> io::Result<()> {
        let id = self.active;
        if crash.fires("seal-pre") {
            std::process::abort();
        }
        let from = self.segments_dir.join(open_name(id));
        let to = self.segments_dir.join(sealed_name(id));
        fs::rename(&from, &to)?;
        if let Some(info) = self.segments.get_mut(&id) {
            info.sealed = true;
            // Reopen read-only so the sealed handle can never write.
            info.file = Arc::new(File::open(&to)?);
        }
        if crash.fires("seal-post") {
            std::process::abort();
        }
        self.create_active(id + 1)
    }

    /// Appends one whole record to the active segment, sealing first
    /// when the append would overflow `segment_bytes`. Updates the
    /// index; a superseded older record becomes garbage in its segment.
    /// `crash` arms the seeded `append` fault point (a torn
    /// half-record write followed by abort).
    pub(crate) fn append(
        &mut self,
        fp: u128,
        record: &[u8],
        segment_bytes: u64,
        crash: &CrashPoints,
    ) -> io::Result<()> {
        let active_len = self.segments[&self.active].len;
        if active_len > 0 && active_len + record.len() as u64 > segment_bytes {
            self.seal_active(crash)?;
        }
        let info = self.segments.get_mut(&self.active).expect("active exists");
        if crash.fires("append") {
            let half = record.len() / 2;
            let _ = info.file.write_all_at(&record[..half], info.len);
            let _ = info.file.sync_data();
            std::process::abort();
        }
        info.file.write_all_at(record, info.len)?;
        let rec = ScannedRecord {
            fp,
            offset: info.len,
            len: record.len() as u32,
        };
        info.len += record.len() as u64;
        let id = self.active;
        let mut info = self.segments.remove(&id).expect("active exists");
        index_record(&mut self.map, &mut self.segments, &mut info, id, &rec);
        self.segments.insert(id, info);
        Ok(())
    }

    /// Looks a fingerprint up, returning a cloned file handle plus the
    /// record location so the read can happen outside the store lock.
    pub(crate) fn locate(&self, fp: u128) -> Option<Located> {
        let loc = self.map.get(&fp)?;
        Some(self.segments.get(&loc.seg)?.located(*loc))
    }

    /// Every live record with its segment handle, in log order.
    pub(crate) fn live_in_log_order(&self) -> Vec<(u128, Located)> {
        let mut live: Vec<(u128, Located)> = self
            .map
            .iter()
            .filter_map(|(&fp, &loc)| Some((fp, self.segments.get(&loc.seg)?.located(loc))))
            .collect();
        live.sort_unstable_by_key(|(_, at)| (at.loc.seg, at.loc.offset));
        live
    }

    /// Drops a fingerprint from the index (quarantined or untrusted
    /// record); its bytes become garbage in their segment.
    pub(crate) fn mark_dead(&mut self, fp: u128) {
        if let Some(loc) = self.map.remove(&fp) {
            if let Some(info) = self.segments.get_mut(&loc.seg) {
                info.live_bytes -= u64::from(loc.len);
                info.live_records -= 1;
                info.garbage_bytes += u64::from(loc.len);
            }
        }
    }

    /// Live record count.
    pub(crate) fn live_records(&self) -> usize {
        self.map.len()
    }

    /// Total bytes across all segments.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.segments.values().map(|s| s.len).sum()
    }

    /// Deletes a segment outright (eviction, or compaction source
    /// cleanup). Live records still indexed in it are dropped.
    pub(crate) fn remove_segment(&mut self, id: u64) -> io::Result<u64> {
        let Some(info) = self.segments.remove(&id) else {
            return Ok(0);
        };
        let name = if info.sealed {
            sealed_name(id)
        } else {
            open_name(id)
        };
        fs::remove_file(self.segments_dir.join(name))?;
        let dropped = info.live_records;
        self.map.retain(|_, loc| loc.seg != id);
        Ok(dropped)
    }
}

/// Indexes one scanned record of segment `id`, superseding any earlier
/// record with the same fingerprint ("later wins").
fn index_record(
    map: &mut HashMap<u128, RecordLoc, FpKeys>,
    segments: &mut BTreeMap<u64, SegmentInfo>,
    info: &mut SegmentInfo,
    id: u64,
    rec: &ScannedRecord,
) {
    let loc = RecordLoc {
        seg: id,
        offset: rec.offset,
        len: rec.len,
    };
    if let Some(old) = map.insert(rec.fp, loc) {
        let old_info = if old.seg == id {
            &mut *info
        } else {
            segments.get_mut(&old.seg).expect("superseded segment")
        };
        old_info.live_bytes -= u64::from(old.len);
        old_info.live_records -= 1;
        old_info.garbage_bytes += u64::from(old.len);
    }
    info.live_bytes += u64::from(rec.len);
    info.live_records += 1;
}

/// `format` marker contents of an `icseg` store.
pub(crate) fn format_marker() -> String {
    format!("{SEGMENT_MAGIC} {}\n", crate::segment::SEGMENT_VERSION)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::path::PathBuf;

    use super::*;
    use crate::record::{frame_record, MIN_BODY_LEN};

    /// A fresh segments directory, removed on drop.
    struct TempSegments(PathBuf);

    impl TempSegments {
        fn new(tag: &str) -> TempSegments {
            let dir = std::env::temp_dir().join(format!(
                "corpus-index-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            TempSegments(dir)
        }
    }

    impl Drop for TempSegments {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn no_crash() -> CrashPoints {
        CrashPoints {
            point: None,
            hits: AtomicU64::new(0),
        }
    }

    fn open(dir: &TempSegments) -> LogInner {
        let (inner, torn) = LogInner::open(&dir.0).unwrap();
        assert!(torn.is_empty());
        inner
    }

    /// The index's live set: fingerprint → (segment, offset, length).
    fn live_set(inner: &LogInner) -> BTreeMap<u128, (u64, u64, u32)> {
        inner
            .map
            .iter()
            .map(|(&fp, loc)| (fp, (loc.seg, loc.offset, loc.len)))
            .collect()
    }

    #[test]
    fn two_stores_key_the_index_differently() {
        let (a, b) = (TempSegments::new("key-a"), TempSegments::new("key-b"));
        let (a, b) = (open(&a), open(&b));
        let fp = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        assert_ne!(a.map.hasher().hash_one(fp), b.map.hasher().hash_one(fp));
    }

    /// Fingerprint sets a weak mix would send to one bucket: 4,096
    /// sharing their low 64 bits, and 4,096 sharing `lo ^ hi`. Each
    /// indexes, looks up, hashes without a collision, and rebuilds
    /// into the same live set from a log of 16 KiB segments.
    #[test]
    fn degenerate_fingerprint_sets_index_look_up_and_rebuild() {
        const N: u64 = 4096;
        let spread = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let same_lo: Vec<u128> = (0..N)
            .map(|i| u128::from(spread(i + 1)) << 64 | 0x5555_aaaa_5555_aaaa)
            .collect();
        let same_xor: Vec<u128> = (0..N)
            .map(|i| {
                let lo = spread(i + 1);
                u128::from(lo ^ 0x0f0f_0f0f_0f0f_0f0f) << 64 | u128::from(lo)
            })
            .collect();
        let body = vec![7u8; MIN_BODY_LEN];
        for (name, fps) in [("same-lo", same_lo), ("same-xor", same_xor)] {
            let dir = TempSegments::new(name);
            let mut inner = open(&dir);
            for &fp in &fps {
                inner
                    .append(fp, &frame_record(fp, &body), 16 * 1024, &no_crash())
                    .unwrap();
            }
            assert_eq!(inner.live_records(), N as usize, "{name}");
            assert!(inner.segments.len() > 1, "{name}: the log must rotate");
            for &fp in &fps {
                let at = inner
                    .locate(fp)
                    .unwrap_or_else(|| panic!("{name}: {fp:#x}"));
                assert_eq!(
                    u64::from(at.loc.len),
                    (crate::record::FRAME_LEN + body.len()) as u64
                );
            }
            let hashes: HashSet<u64> = fps
                .iter()
                .map(|&fp| inner.map.hasher().hash_one(fp))
                .collect();
            assert_eq!(
                hashes.len(),
                N as usize,
                "{name}: the mix collapsed fingerprints"
            );
            let before = live_set(&inner);
            drop(inner);
            let rebuilt = open(&dir);
            assert_eq!(live_set(&rebuilt), before, "{name}");
        }
    }
}
