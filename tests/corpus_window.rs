//! The corpus's per-thread read window over sealed segments, checked
//! from the outside.
//!
//! Reads of a sealed segment in log order are served from one window
//! refill ([`corpus::thread_record_reads`] counts the positional reads
//! this thread issued), and the window never changes what a read
//! returns:
//!
//! * every bit flip of a record between two neighbours quarantines
//!   exactly that record's bytes, and both neighbours come out of the
//!   same window intact;
//! * a window filled from a segment that compaction then deletes never
//!   serves a later read, and never keeps the deleted file open;
//! * a record appended after a read of the active segment reads back
//!   intact once that segment seals;
//! * a sealed segment cut short under a live store reports the bytes it
//!   still holds;
//! * [`Corpus::records`] over several segments equals an independent
//!   decode of every segment file.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use adhash::HashSum;
use corpus::{
    decode_record, encode_record, fingerprint_key, thread_record_reads, Corpus, CorpusOptions,
    Corruption, FRAME_LEN,
};
use instantcheck::{CachedRun, CheckpointRecord, RunCache, RunHashes, RunKey, Scheme};
use tsim::{AllocLog, BarrierId, CheckpointKind, SwitchPolicy};

/// The smallest segment the store accepts, so a few dozen records seal
/// several segments.
const SEGMENT_BYTES: u64 = 4096;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("corpus-window-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> Corpus {
    Corpus::open(CorpusOptions::at(dir).segment_bytes(SEGMENT_BYTES)).unwrap()
}

fn key(seed: u64) -> RunKey {
    RunKey {
        workload: "window:scaled".into(),
        scheme: Scheme::HwInc,
        seed,
        lib_seed: 5,
        switch: SwitchPolicy::SyncOnly,
        max_steps: 10_000,
        rounding: None,
        ignore_token: 0,
        fault_token: 0,
        cache_model: true,
        alloc_seed: None,
    }
}

/// A run with every record section present, distinct per seed.
fn run(seed: u64) -> CachedRun {
    let mut log = AllocLog::default();
    log.insert(1, 0, 0x4000 + seed);
    CachedRun {
        hashes: RunHashes {
            checkpoints: vec![
                CheckpointRecord {
                    kind: CheckpointKind::Barrier(BarrierId::from_index(0)),
                    hash: HashSum::from_raw(0x1234_5678_9abc_def0 ^ seed),
                },
                CheckpointRecord {
                    kind: CheckpointKind::Manual("window"),
                    hash: HashSum::from_raw(0x0fed_cba9_8765_4321 ^ seed),
                },
            ],
            output_digest: 11 + seed,
            extra_instr: 5,
            stores: 6,
            hash_updates: 7,
            cache: Some(mhm::CacheStats {
                hits: 1,
                misses: 2,
                mhm_reads: 3,
                mhm_read_misses: 4,
            }),
        },
        steps: 100 + seed,
        native_instr: 200,
        zero_fill_instr: 3,
        alloc_log: Some(Arc::new(log)),
        sim_trace: Some(vec![
            obs::Event::instant(1, 0, "sched").with_arg("seed", seed)
        ]),
    }
}

fn store(corpus: &Corpus, seed: u64) {
    corpus.store(&key(seed), &Arc::new(run(seed)));
}

/// Stores seeds `0..` into a fresh corpus at `dir` until `sealed`
/// segments have sealed; returns how many it stored.
fn fill(dir: &Path, sealed: u64) -> u64 {
    let corpus = open(dir);
    let mut seed = 0;
    while corpus.log_stats().unwrap().segments <= sealed {
        store(&corpus, seed);
        seed += 1;
    }
    seed
}

/// `(offset, len)` of every record in a segment file's bytes.
fn frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let body = u32::from_le_bytes(bytes[at + 16..at + 20].try_into().unwrap());
        out.push((at, FRAME_LEN + body as usize));
        at += FRAME_LEN + body as usize;
    }
    out
}

/// The seed among `0..n` whose key has fingerprint `fp`.
fn seed_of(fp: u128, n: u64) -> u64 {
    (0..n).find(|&s| fingerprint_key(&key(s)) == fp).unwrap()
}

/// Whether `corpus` serves `seed`'s run, byte for byte.
fn hits_intact(corpus: &Corpus, seed: u64) -> bool {
    let key = key(seed);
    corpus
        .lookup(&key)
        .is_some_and(|hit| encode_record(&key, &hit) == encode_record(&key, &run(seed)))
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("segments/seg-{id:08}.icseg"))
}

fn counter(corpus: &Corpus, name: &str) -> u64 {
    corpus.metrics().counters.get(name).copied().unwrap_or(0)
}

/// The quarantined copies under `dir`, by file name.
fn quarantined_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir.join("quarantine"))
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn a_flipped_record_is_quarantined_and_its_neighbours_come_from_the_same_window() {
    let dir = tempdir("flips");
    let records = [0, 1, 2].map(|seed| encode_record(&key(seed), &run(seed)));
    let victim_at = records[0].len() as u64;
    let sealed = records.concat();
    let victim_file = format!("{:032x}.0.bad", fingerprint_key(&key(1)));
    for bit in 0..records[1].len() * 8 {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("segments")).unwrap();
        fs::write(dir.join("format"), "icseg 4\n").unwrap();
        fs::write(segment_path(&dir, 1), &sealed).unwrap();
        let corpus = open(&dir);
        // Index the clean segment first, then flip the bit under the
        // live store: every flip reaches the read, none the scan.
        assert_eq!(corpus.run_count(), 3);
        let byte = victim_at + bit as u64 / 8;
        let mut flipped = records[1].clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let file = OpenOptions::new()
            .write(true)
            .open(segment_path(&dir, 1))
            .unwrap();
        file.write_all_at(&flipped[bit / 8..bit / 8 + 1], byte)
            .unwrap();

        let reads = thread_record_reads();
        assert!(hits_intact(&corpus, 0), "bit {bit}: first neighbour");
        assert!(
            corpus.lookup(&key(1)).is_none(),
            "bit {bit}: a flipped record was served"
        );
        assert!(hits_intact(&corpus, 2), "bit {bit}: second neighbour");
        assert_eq!(
            thread_record_reads() - reads,
            1,
            "bit {bit}: one window refill serves all three records"
        );
        assert_eq!(corpus.quarantined(), 1, "bit {bit}");
        assert_eq!(
            quarantined_files(&dir),
            BTreeMap::from([(victim_file.clone(), flipped)]),
            "bit {bit}: exactly the victim's bytes are quarantined"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Every live record of `corpus`, decoded without the store: each
/// segment file read whole and walked frame by frame. Keyed by
/// `(segment, offset)`, valued `(fp, len, content)`.
type Decoded = BTreeMap<(u64, u64), (u128, u32, String)>;

fn decode_segment_files(dir: &Path) -> Decoded {
    let mut out = Decoded::new();
    for entry in fs::read_dir(dir.join("segments")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let id: u64 = name["seg-".len().."seg-".len() + 8].parse().unwrap();
        let bytes = fs::read(&path).unwrap();
        for (at, len) in frames(&bytes) {
            let record = &bytes[at..at + len];
            let fp = u128::from_le_bytes(record[..16].try_into().unwrap());
            let content = format!("{:?}", decode_record(record));
            out.insert((id, at as u64), (fp, len as u32, content));
        }
    }
    out
}

/// What [`Corpus::records`] reads back, in the same shape.
fn read_back(corpus: &Corpus) -> Decoded {
    corpus
        .records()
        .unwrap()
        .into_iter()
        .map(|r| {
            let content = format!("{:?}", r.content);
            ((r.segment, r.offset), (r.fp, r.len, content))
        })
        .collect()
}

#[test]
fn records_over_several_segments_equal_an_independent_decode() {
    let dir = tempdir("records");
    let stored = fill(&dir, 3);
    // One record mid-segment damaged in its body must read back as the
    // same corruption either way.
    let seg = segment_path(&dir, 2);
    let mut bytes = fs::read(&seg).unwrap();
    let spans = frames(&bytes);
    let (at, _) = spans[spans.len() / 2];
    bytes[at + FRAME_LEN + 3] ^= 0x10;
    fs::write(&seg, bytes).unwrap();

    let corpus = open(&dir);
    let reads = thread_record_reads();
    let got = read_back(&corpus);
    assert!(
        thread_record_reads() - reads < stored / 4,
        "sealed segments read a window at a time"
    );
    assert_eq!(got.len() as u64, stored);
    assert_eq!(got, decode_segment_files(&dir));
    assert_eq!(
        got.values()
            .filter(|(_, _, content)| content.starts_with("Err(BadChecksum)"))
            .count(),
        1
    );
    assert_eq!(corpus.quarantined(), 0, "reading back never quarantines");
    fs::remove_dir_all(&dir).unwrap();
}

/// Descriptors of this process that point at `path`.
fn open_descriptors(path: &Path) -> usize {
    let path = path.to_string_lossy().into_owned();
    fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|e| fs::read_link(e.ok()?.path()).ok())
        .filter(|target| target.to_string_lossy().starts_with(&path))
        .count()
}

#[test]
fn a_window_on_a_segment_compaction_deletes_never_serves_again() {
    let dir = tempdir("compact");
    let stored = fill(&dir, 1);
    let corpus = open(&dir);
    let in_first: Vec<u64> = corpus
        .records()
        .unwrap()
        .iter()
        .filter(|r| r.segment == 1)
        .map(|r| seed_of(r.fp, stored))
        .collect();
    assert!(in_first.len() >= 8, "segment 1 holds {in_first:?}");
    // Fill the window from segment 1, then supersede its records until
    // compaction copies the rest out (through that same window) and
    // deletes it.
    assert!(hits_intact(&corpus, in_first[0]));
    for &seed in &in_first[1..] {
        store(&corpus, seed);
        if corpus.log_stats().unwrap().compactions > 0 {
            break;
        }
    }
    assert_eq!(corpus.log_stats().unwrap().compactions, 1);
    let first = segment_path(&dir, 1);
    assert!(!first.exists(), "compaction deleted segment 1");
    assert_eq!(
        open_descriptors(&first),
        0,
        "nothing keeps the deleted segment open"
    );
    // Seal the copied records into new segments, whose handles are
    // allocated after segment 1's was released, then read everything
    // back through this thread's window.
    for seed in stored..stored * 3 {
        store(&corpus, seed);
    }
    assert_eq!(read_back(&corpus), decode_segment_files(&dir));
    let reopened = open(&dir);
    for seed in 0..stored * 3 {
        assert!(hits_intact(&reopened, seed), "seed {seed}");
    }
    assert_eq!(corpus.quarantined() + reopened.quarantined(), 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_record_appended_after_an_active_read_hits_intact_once_sealed() {
    let dir = tempdir("active");
    let stored = fill(&dir, 1);
    let corpus = open(&dir);
    let active = corpus.log_stats().unwrap().segments;
    assert_eq!(active, 2);
    // A sealed read, then a read of the active segment's last record.
    assert!(hits_intact(&corpus, 0));
    assert!(hits_intact(&corpus, stored - 1));
    store(&corpus, 100);
    let mut seed = 101;
    while corpus.log_stats().unwrap().segments == active {
        store(&corpus, seed);
        seed += 1;
    }
    assert!(
        segment_path(&dir, active).exists(),
        "segment {active} sealed"
    );
    let back = read_back(&corpus);
    assert_eq!(back, decode_segment_files(&dir));
    assert!(back
        .values()
        .all(|(_, _, content)| content.starts_with("Ok(")));
    let reopened = open(&dir);
    assert!(hits_intact(&reopened, 100));
    assert_eq!(corpus.quarantined() + reopened.quarantined(), 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_sealed_segment_cut_short_under_a_live_store_reports_what_it_holds() {
    let dir = tempdir("truncate");
    let stored = fill(&dir, 1);
    let corpus = open(&dir);
    let records = corpus.records().unwrap();
    let last = records.iter().rfind(|r| r.segment == 1).unwrap();
    let (fp, offset, len) = (last.fp, last.offset, last.len);
    let seed = seed_of(fp, stored);
    let kept = len / 3;
    OpenOptions::new()
        .write(true)
        .open(segment_path(&dir, 1))
        .unwrap()
        .set_len(offset + u64::from(kept))
        .unwrap();

    let truncated = Corruption::Truncated {
        expected: len as usize,
        found: kept as usize,
    };
    let back = corpus.records().unwrap();
    let cut = back.iter().find(|r| r.fp == fp).unwrap();
    assert_eq!(cut.content.as_ref().unwrap_err(), &truncated);
    assert!(back
        .iter()
        .filter(|r| r.fp != fp)
        .all(|r| r.content.is_ok()));

    assert!(corpus.lookup(&key(seed)).is_none());
    assert_eq!(counter(&corpus, "corpus.quarantined.truncated"), 1);
    let bad = quarantined_files(&dir);
    assert_eq!(bad.len(), 1);
    let bytes = fs::read(segment_path(&dir, 1)).unwrap();
    assert_eq!(
        bad.values().next().unwrap(),
        &bytes[offset as usize..],
        "the quarantined copy is the bytes the read found"
    );
    fs::remove_dir_all(&dir).unwrap();
}
