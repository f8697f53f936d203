//! The log-structured on-disk run store.
//!
//! Layout under the root directory:
//!
//! ```text
//! <root>/format                  "icseg 2" — the store's format marker
//! <root>/segments/seg-NNNNNNNN.icseg   sealed, immutable segments
//! <root>/segments/seg-NNNNNNNN.open    the one active segment
//! <root>/quarantine/             corrupt records and torn tails,
//!                                preserved as .bad files for autopsy
//! <root>/baselines/              named campaign baselines (JSON)
//! ```
//!
//! Segments hold `icseg-v2` records ([`crate::record`]). The engine
//! never trusts a damaged record: a read that comes up short, fails
//! the checksum, or finds another key at the address quarantines the
//! record (the bytes move to `quarantine/`, the fingerprint leaves the
//! index) and reports a miss, which makes the checker recompute and
//! re-append the run. Records behind or ahead of a bad one are
//! untouched — corruption never poisons neighbors.
//!
//! A warm hit does each step once: the caller hands in the key's
//! rendered tokens and fingerprint, the index yields the record's
//! location, the thread's read window ([`crate::window`]) yields its
//! bytes — from memory when an earlier read of the same sealed segment
//! already fetched them, else by one `pread` that refills the window —
//! and one pass verifies the length and checksum, compares the stored
//! key token for token and decodes the run.
//!
//! The in-memory index is built lazily: opening a store only checks the
//! format marker, and the segment scan runs on the first lookup or
//! append, with its duration recorded in the
//! [`CORPUS_OPEN_HISTOGRAM`] telemetry histogram. A write-only
//! recording campaign on a fresh directory therefore pays no scan at
//! all.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use instantcheck::CachedRun;
use obs::{Counter, Registry, Telemetry};

use crate::compact::{enforce_size_bound, maybe_compact};
use crate::error::CorpusError;
use crate::index::{format_marker, CrashPoints, LogInner};
use crate::record::{decode_for, decode_record, encode_into, Corruption};
use crate::window::{whole, with_window};

/// Telemetry histogram fed with the wall-clock duration of each lazy
/// index build (the segment scan). One sample per store instance per
/// process — a fat sample here means the log is large or cold on disk.
pub const CORPUS_OPEN_HISTOGRAM: &str = "icd.corpus.open";

/// Telemetry histogram fed with the wall-clock duration of each inline
/// compaction (victim selection, live-record rewrite, source deletion).
/// Empty until the log accumulates enough garbage to be worth
/// rewriting.
pub const CORPUS_COMPACT_HISTOGRAM: &str = "icd.corpus.compact";

/// A point-in-time view of the log engine: segment counts, byte
/// accounting, and maintenance tallies — the `icd_corpus_*` `/metrics`
/// series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogStats {
    /// Segments on disk (sealed + the active one).
    pub segments: u64,
    /// Live (indexed) records.
    pub live_records: u64,
    /// Bytes of live records.
    pub live_bytes: u64,
    /// Bytes of superseded or quarantined records awaiting compaction.
    pub garbage_bytes: u64,
    /// Total bytes across all segments.
    pub total_bytes: u64,
    /// Inline compactions run by this instance.
    pub compactions: u64,
    /// Live records rewritten by those compactions.
    pub compacted_records: u64,
    /// Live records dropped by size-bound eviction.
    pub evicted_records: u64,
    /// Nanoseconds the lazy index build took (0 until it runs).
    pub open_ns: u64,
}

/// One live record as read back by [`Corpus::records`](crate::Corpus::records).
#[derive(Debug)]
pub struct StoredRecord {
    /// The fingerprint the record is indexed under.
    pub fp: u128,
    /// Id of the segment holding it.
    pub segment: u64,
    /// Byte offset of its frame in the segment.
    pub offset: u64,
    /// Whole record length, frame included.
    pub len: u32,
    /// The stored key tokens and run, or why the record fails its
    /// checks.
    pub content: Result<(Vec<(String, String)>, CachedRun), Corruption>,
}

/// The log-structured store: segment files, a lazily built in-memory
/// fingerprint index, inline compaction, and size-bounded eviction.
/// Private to the crate — every consumer goes through
/// [`Corpus`](crate::Corpus).
#[derive(Debug)]
pub(crate) struct LogStore {
    root: PathBuf,
    segment_bytes: u64,
    max_bytes: Option<u64>,
    registry: Arc<Registry>,
    /// `registry`'s hot-path counters, resolved once.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    stores: Arc<Counter>,
    telemetry: OnceLock<Arc<Telemetry>>,
    crash: CrashPoints,
    inner: Mutex<Option<LogInner>>,
    compactions: AtomicU64,
    compacted_records: AtomicU64,
    evicted_records: AtomicU64,
    open_ns: AtomicU64,
}

impl LogStore {
    /// Opens (creating if needed) a log store rooted at `root`. Cheap:
    /// directory creation and a marker check; the segment scan is
    /// deferred to first use.
    pub(crate) fn open(
        root: &Path,
        segment_bytes: u64,
        max_bytes: Option<u64>,
    ) -> Result<LogStore, CorpusError> {
        let mk = |e: io::Error| CorpusError::Open {
            dir: root.to_path_buf(),
            source: e,
        };
        fs::create_dir_all(root.join("segments")).map_err(mk)?;
        fs::create_dir_all(root.join("quarantine")).map_err(mk)?;
        fs::create_dir_all(root.join("baselines")).map_err(mk)?;
        let marker = root.join("format");
        let expected = format_marker();
        match fs::read_to_string(&marker) {
            Ok(found) if found == expected => {}
            Ok(found) => {
                return Err(CorpusError::FormatMismatch {
                    dir: root.to_path_buf(),
                    found: found.trim_end().to_owned(),
                    expected: expected.trim_end().to_owned(),
                });
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                fs::write(&marker, &expected).map_err(mk)?;
            }
            Err(e) => return Err(mk(e)),
        }
        let registry = Arc::new(Registry::new());
        Ok(LogStore {
            root: root.to_path_buf(),
            segment_bytes: segment_bytes.max(4096),
            max_bytes,
            hits: registry.counter("corpus.hits"),
            misses: registry.counter("corpus.misses"),
            stores: registry.counter("corpus.stores"),
            registry,
            telemetry: OnceLock::new(),
            crash: CrashPoints::from_env(),
            inner: Mutex::new(None),
            compactions: AtomicU64::new(0),
            compacted_records: AtomicU64::new(0),
            evicted_records: AtomicU64::new(0),
            open_ns: AtomicU64::new(0),
        })
    }

    pub(crate) fn root(&self) -> &Path {
        &self.root
    }

    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Attaches the wall-clock telemetry plane (index-build and
    /// compaction histograms). First binding wins.
    pub(crate) fn bind_telemetry(&self, telemetry: &Arc<Telemetry>) {
        telemetry.histogram(CORPUS_OPEN_HISTOGRAM);
        telemetry.histogram(CORPUS_COMPACT_HISTOGRAM);
        let _ = self.telemetry.set(Arc::clone(telemetry));
    }

    /// Runs `f` over the log state, building the index first if this
    /// is the store's first use.
    fn with_inner<R>(&self, f: impl FnOnce(&mut LogInner) -> R) -> Result<R, CorpusError> {
        let mut guard = self.inner.lock().unwrap();
        if guard.is_none() {
            let start = Instant::now();
            let (inner, torn) =
                LogInner::open(&self.root.join("segments")).map_err(CorpusError::Index)?;
            let took = start.elapsed();
            self.open_ns
                .store(took.as_nanos() as u64, Ordering::Relaxed);
            if let Some(t) = self.telemetry.get() {
                t.record_wait(CORPUS_OPEN_HISTOGRAM, took);
            }
            for tail in &torn {
                // A torn tail is the truncation class: a crashed append
                // left a half-written record behind.
                self.registry.add("corpus.quarantined", 1);
                self.registry.add("corpus.quarantined.truncated", 1);
                self.write_bad_file(
                    &format!("torn-seg-{:08}-{}", tail.seg, tail.offset),
                    &tail.bytes,
                );
            }
            *guard = Some(inner);
        }
        Ok(f(guard.as_mut().expect("just built")))
    }

    /// Preserves corrupt bytes under `quarantine/<stem>.<n>.bad`.
    /// Best-effort: quarantine exists for autopsy, not correctness —
    /// the record is already out of the index.
    fn write_bad_file(&self, stem: &str, bytes: &[u8]) {
        for attempt in 0u32..64 {
            let dest = self
                .root
                .join("quarantine")
                .join(format!("{stem}.{attempt}.bad"));
            if dest.exists() {
                continue;
            }
            let _ = fs::write(&dest, bytes);
            return;
        }
    }

    /// Quarantines one record: bytes move aside, the fingerprint
    /// leaves the index (its bytes become garbage), the per-class
    /// counter bumps.
    fn quarantine(&self, fp: u128, bytes: &[u8], why: &Corruption) {
        self.registry.add("corpus.quarantined", 1);
        self.registry
            .add(&format!("corpus.quarantined.{}", why.label()), 1);
        self.write_bad_file(&format!("{fp:032x}"), bytes);
        let _ = self.with_inner(|inner| inner.mark_dead(fp));
    }

    /// Live record count (builds the index if needed).
    pub(crate) fn run_count(&self) -> usize {
        self.with_inner(|inner| inner.live_records()).unwrap_or(0)
    }

    /// Engine statistics. Cheap once the index exists.
    pub(crate) fn log_stats(&self) -> LogStats {
        let (segments, live_records, live_bytes, garbage_bytes, total_bytes) = self
            .with_inner(|inner| {
                let live_bytes = inner.segments.values().map(|s| s.live_bytes).sum();
                let garbage_bytes = inner.segments.values().map(|s| s.garbage_bytes).sum();
                (
                    inner.segments.len() as u64,
                    inner.live_records() as u64,
                    live_bytes,
                    garbage_bytes,
                    inner.total_bytes(),
                )
            })
            .unwrap_or_default();
        LogStats {
            segments,
            live_records,
            live_bytes,
            garbage_bytes,
            total_bytes,
            compactions: self.compactions.load(Ordering::Relaxed),
            compacted_records: self.compacted_records.load(Ordering::Relaxed),
            evicted_records: self.evicted_records.load(Ordering::Relaxed),
            open_ns: self.open_ns.load(Ordering::Relaxed),
        }
    }
}

thread_local! {
    /// Each thread reuses one buffer across appends, so the store path
    /// allocates nothing to encode a record. Reads go through the
    /// thread's read window instead.
    static ENCODED: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl LogStore {
    /// The lookup path proper, with the key's fingerprint and canonical
    /// tokens already rendered by the caller. The record is verified
    /// and decoded in a single pass ([`decode_for`]): a fingerprint
    /// collision (or a record compacted to the wrong address) must
    /// never read as a hit.
    pub(crate) fn lookup_prepared(
        &self,
        fp: u128,
        tokens: &[(&'static str, &str)],
    ) -> Option<Arc<CachedRun>> {
        // Locate under the lock, read outside it: concurrent lookups
        // share nothing but the index probe, and each thread reads
        // through its own window.
        let located = self.with_inner(|inner| inner.locate(fp)).ok().flatten();
        let Some(at) = located else {
            self.misses.inc();
            return None;
        };
        with_window(|window| {
            let record = window.record(&at);
            let why = match whole(record, at.loc).and_then(|()| decode_for(record, fp, tokens)) {
                Ok(run) => {
                    self.hits.inc();
                    return Some(Arc::new(run));
                }
                Err(why) => why,
            };
            self.quarantine(fp, record, &why);
            self.misses.inc();
            None
        })
    }

    /// The store path proper, with the key's fingerprint and canonical
    /// tokens already rendered by the caller. The API is infallible: a
    /// failed append is just a future miss.
    pub(crate) fn store_prepared(
        &self,
        fp: u128,
        tokens: &[(&'static str, &str)],
        run: &CachedRun,
    ) {
        ENCODED.with(|buf| {
            let mut record = buf.borrow_mut();
            encode_into(&mut record, fp, tokens, run);
            if matches!(
                self.with_inner(|inner| self.append(inner, fp, &record)),
                Ok(Ok(()))
            ) {
                self.stores.inc();
            }
        });
    }

    /// Appends one record, then runs inline compaction and the size
    /// bound.
    fn append(&self, inner: &mut LogInner, fp: u128, record: &[u8]) -> io::Result<()> {
        inner.append(fp, record, self.segment_bytes, &self.crash)?;
        let start = Instant::now();
        if let Some(out) = maybe_compact(inner, self.segment_bytes, &self.crash)? {
            self.compactions.fetch_add(1, Ordering::Relaxed);
            self.compacted_records
                .fetch_add(out.rewritten, Ordering::Relaxed);
            self.registry.add("corpus.compactions", 1);
            self.registry
                .add("corpus.compacted.bytes", out.reclaimed_bytes);
            if let Some(t) = self.telemetry.get() {
                t.record_wait(CORPUS_COMPACT_HISTOGRAM, start.elapsed());
            }
        }
        if let Some(max) = self.max_bytes {
            let dropped = enforce_size_bound(inner, max)?;
            if dropped > 0 {
                self.evicted_records.fetch_add(dropped, Ordering::Relaxed);
                self.registry.add("corpus.evicted", dropped);
            }
        }
        Ok(())
    }

    /// Every live record, in log order, read back and checked.
    pub(crate) fn records(&self) -> Result<Vec<StoredRecord>, CorpusError> {
        let live = self.with_inner(|inner| inner.live_in_log_order())?;
        Ok(with_window(|window| {
            live.into_iter()
                .map(|(fp, at)| {
                    let record = window.record(&at);
                    StoredRecord {
                        fp,
                        segment: at.loc.seg,
                        offset: at.loc.offset,
                        len: at.loc.len,
                        content: whole(record, at.loc).and_then(|()| decode_record(record)),
                    }
                })
                .collect()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint_fields;
    use adhash::HashSum;
    use instantcheck::{CheckpointRecord, RunHashes, RunKey, Scheme};
    use tsim::{CheckpointKind, SwitchPolicy};

    static SERIAL: AtomicU64 = AtomicU64::new(0);

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "corpus-log-{tag}-{}-{}",
            std::process::id(),
            SERIAL.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_key(seed: u64) -> RunKey {
        RunKey {
            workload: "store-test".into(),
            scheme: Scheme::HwInc,
            seed,
            lib_seed: 42,
            switch: SwitchPolicy::SyncOnly,
            max_steps: 1_000,
            rounding: None,
            ignore_token: 0,
            fault_token: 0,
            cache_model: false,
            alloc_seed: None,
        }
    }

    fn sample_run() -> CachedRun {
        CachedRun {
            hashes: RunHashes {
                checkpoints: vec![CheckpointRecord {
                    kind: CheckpointKind::End,
                    hash: HashSum::from_raw(0xdead_beef),
                }],
                output_digest: 99,
                extra_instr: 1,
                stores: 2,
                hash_updates: 3,
                cache: None,
            },
            steps: 10,
            native_instr: 20,
            zero_fill_instr: 5,
            alloc_log: None,
            sim_trace: None,
        }
    }

    /// The prepared lookup path, keyed the way `Corpus` keys it.
    fn lookup(store: &LogStore, key: &RunKey) -> Option<Arc<CachedRun>> {
        key.with_tokens(|tokens| store.lookup_prepared(fingerprint_fields(tokens), tokens))
    }

    /// The prepared store path, keyed the way `Corpus` keys it.
    fn put(store: &LogStore, key: &RunKey, run: &CachedRun) {
        key.with_tokens(|tokens| store.store_prepared(fingerprint_fields(tokens), tokens, run))
    }

    fn open(dir: &Path) -> LogStore {
        LogStore::open(dir, crate::segment::DEFAULT_SEGMENT_BYTES, None).unwrap()
    }

    #[test]
    fn store_round_trips_and_counts() {
        let dir = tempdir("roundtrip");
        let store = open(&dir);
        let key = sample_key(1);
        assert!(lookup(&store, &key).is_none());
        assert_eq!(store.registry().counter("corpus.misses").get(), 1);
        put(&store, &key, &sample_run());
        assert_eq!(store.registry().counter("corpus.stores").get(), 1);
        assert_eq!(store.run_count(), 1);
        let hit = lookup(&store, &key).expect("stored entry readable");
        assert_eq!(hit.hashes.output_digest, 99);
        assert_eq!(store.registry().counter("corpus.hits").get(), 1);
        // A second instance over the same directory sees the entry.
        let reopened = open(&dir);
        assert!(lookup(&reopened, &key).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn small_segments_rotate_and_reopen_cleanly() {
        let dir = tempdir("rotate");
        let store = LogStore::open(&dir, 4096, None).unwrap();
        for seed in 0..40 {
            put(&store, &sample_key(seed), &sample_run());
        }
        let stats = store.log_stats();
        assert!(stats.segments > 1, "4 KiB segments must rotate: {stats:?}");
        assert_eq!(stats.live_records, 40);
        let reopened = LogStore::open(&dir, 4096, None).unwrap();
        assert_eq!(reopened.run_count(), 40);
        for seed in 0..40 {
            assert!(
                lookup(&reopened, &sample_key(seed)).is_some(),
                "seed {seed}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn superseding_stores_create_garbage_and_compaction_reclaims_it() {
        let dir = tempdir("compact");
        let store = LogStore::open(&dir, 4096, None).unwrap();
        // Re-store the same small key set until enough sealed garbage
        // accumulates that inline compaction triggers.
        for round in 0..40 {
            for seed in 0..8 {
                put(&store, &sample_key(seed), &sample_run());
            }
            if store.log_stats().compactions > 0 {
                let _ = round;
                break;
            }
        }
        let stats = store.log_stats();
        assert!(
            stats.compactions > 0,
            "compaction never triggered: {stats:?}"
        );
        assert_eq!(stats.live_records, 8, "compaction preserves the live set");
        for seed in 0..8 {
            assert!(lookup(&store, &sample_key(seed)).is_some(), "seed {seed}");
        }
        // And the log is still clean on reopen.
        let reopened = LogStore::open(&dir, 4096, None).unwrap();
        assert_eq!(reopened.run_count(), 8);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_bound_evicts_oldest_segments() {
        let dir = tempdir("evict");
        let store = LogStore::open(&dir, 4096, Some(16 * 1024)).unwrap();
        for seed in 0..200 {
            put(&store, &sample_key(seed), &sample_run());
        }
        let stats = store.log_stats();
        assert!(
            stats.total_bytes <= 16 * 1024,
            "size bound enforced: {stats:?}"
        );
        assert!(stats.evicted_records > 0);
        // Old keys evicted (miss), newest keys still present.
        assert!(lookup(&store, &sample_key(0)).is_none());
        assert!(lookup(&store, &sample_key(199)).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_one_file_per_run_store_is_refused_with_a_typed_error() {
        let dir = tempdir("migration");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("format"), "icorpus 1\n").unwrap();
        match LogStore::open(&dir, 1 << 20, None) {
            Err(CorpusError::FormatMismatch {
                found, expected, ..
            }) => {
                assert_eq!(found, "icorpus 1");
                assert_eq!(expected, "icseg 2");
            }
            other => panic!("expected FormatMismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_key_at_an_address_is_quarantined_not_trusted() {
        let dir = tempdir("keycheck");
        let store = open(&dir);
        let a = sample_key(3);
        let b = sample_key(4);
        put(&store, &a, &sample_run());
        // Graft a's body under b's fingerprint with a valid checksum by
        // appending the forged record to the active segment, then
        // reopen so the forgery is indexed.
        let body = &crate::encode_record(&a, &sample_run())[crate::FRAME_LEN..];
        let forged = crate::frame_record(crate::fingerprint_key(&b), body);
        let seg = fs::read_dir(dir.join("segments"))
            .unwrap()
            .flatten()
            .find(|e| e.file_name().to_string_lossy().ends_with(".open"))
            .unwrap()
            .path();
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(&forged);
        fs::write(&seg, &bytes).unwrap();
        let store = open(&dir);
        assert!(lookup(&store, &b).is_none());
        assert_eq!(store.registry().counter("corpus.quarantined").get(), 1);
        assert_eq!(
            store
                .registry()
                .counter("corpus.quarantined.malformed")
                .get(),
            1
        );
        assert!(lookup(&store, &a).is_some(), "neighbor record unharmed");
        fs::remove_dir_all(&dir).unwrap();
    }
}
