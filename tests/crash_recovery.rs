//! Crash-recovery properties of the log-structured corpus.
//!
//! Each test re-executes this test binary as a child process with
//! [`CRASH_ENV`] arming one seeded fault point — `append` (a torn
//! half-record write), `seal-pre` / `seal-post` (either side of the
//! seal rename), or `compact` (live records rewritten, source segment
//! not yet deleted) — lets the child abort mid-operation, then reopens
//! the store it left behind and checks the recovery invariants:
//!
//! * every record fully appended before the crash is recovered
//!   **byte-identically** (warm == cold: re-encoding the recovered run
//!   reproduces the original record bytes);
//! * the in-flight record is lost cleanly — a miss, never a wrong hit
//!   and never damage to its neighbors;
//! * a torn tail is truncated away and preserved in `quarantine/`;
//! * duplicates left by a crashed compaction resolve by "later wins"
//!   to exactly the pre-crash live set.
//!
//! The suite also pins the migration stance: an `icorpus 1` one-file-per-run
//! store is refused with a typed [`CorpusError::FormatMismatch`],
//! never silently misread.

use std::fs;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adhash::HashSum;
use corpus::{encode_record, Corpus, CorpusError, CorpusOptions, CRASH_ENV};
use detrand::splitmix64;
use instantcheck::{CachedRun, CheckpointRecord, RunCache, RunHashes, RunKey, Scheme};
use tsim::{CheckpointKind, SwitchPolicy};

/// Child-mode trigger: the store directory the child should drive.
const DIR_ENV: &str = "ICSEG_CRASH_TEST_DIR";
/// Child-mode workload: `fill` (distinct keys, in order) or `churn`
/// (overwrite the same keys until compaction triggers).
const MODE_ENV: &str = "ICSEG_CRASH_TEST_MODE";

/// Small segments so a few hundred records exercise sealing and
/// compaction; the engine clamps lower values to this anyway.
const SEGMENT_BYTES: u64 = 4096;

/// Records the `fill` child appends: three segments, so the second seal
/// (`seal-pre:2`) fires.
const FILL: u64 = 40;
/// Distinct keys the `churn` child overwrites.
const CHURN_KEYS: u64 = 12;
/// Overwrite rounds in the `churn` child — enough that sealed segments
/// accumulate majority-garbage and compaction fires.
const CHURN_ROUNDS: u64 = 4;

static SERIAL: AtomicU64 = AtomicU64::new(0);

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "corpus-crash-{tag}-{}-{}",
        std::process::id(),
        SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn sample_key(seed: u64) -> RunKey {
    RunKey {
        workload: "crashprop:scaled".into(),
        scheme: Scheme::HwInc,
        seed,
        lib_seed: 7,
        switch: SwitchPolicy::SyncOnly,
        max_steps: 50_000,
        rounding: None,
        ignore_token: 0,
        fault_token: 0,
        cache_model: false,
        alloc_seed: None,
    }
}

/// Run content derived from the seed alone, so the parent can verify
/// recovered records byte-for-byte without knowing how far the child
/// got before it died.
fn sample_run(seed: u64) -> CachedRun {
    let checkpoints = (0..8u64)
        .map(|j| CheckpointRecord {
            kind: CheckpointKind::End,
            hash: HashSum::from_raw(splitmix64(seed.wrapping_mul(31) ^ j)),
        })
        .collect();
    CachedRun {
        hashes: RunHashes {
            checkpoints,
            output_digest: splitmix64(seed ^ 0xC4A5),
            extra_instr: seed % 193,
            stores: 1 + seed % 719,
            hash_updates: 1 + seed % 83,
            cache: None,
        },
        steps: 500 + seed % 97,
        native_instr: 2_000 + seed % 389,
        zero_fill_instr: seed % 5,
        alloc_log: None,
        sim_trace: None,
    }
}

fn open_store(dir: &Path) -> Corpus {
    Corpus::open(CorpusOptions::at(dir).segment_bytes(SEGMENT_BYTES)).expect("open log store")
}

/// The child payload. Inert (an immediately-passing test) unless the
/// parent armed it via [`DIR_ENV`]; with it, drives the store until the
/// seeded crash point aborts the process.
#[test]
fn child_drives_the_store() {
    let Ok(dir) = std::env::var(DIR_ENV) else {
        return;
    };
    let mode = std::env::var(MODE_ENV).unwrap_or_default();
    let store = open_store(Path::new(&dir));
    match mode.as_str() {
        "fill" => {
            for i in 0..FILL {
                store.store(&sample_key(i), &Arc::new(sample_run(i)));
            }
        }
        "churn" => {
            for _ in 0..CHURN_ROUNDS {
                for i in 0..CHURN_KEYS {
                    store.store(&sample_key(i), &Arc::new(sample_run(i)));
                }
            }
        }
        other => panic!("unknown child mode {other:?}"),
    }
    // Reaching this line means the armed crash point never fired; the
    // parent asserts on the SIGABRT it expected and will fail loudly.
}

/// Re-executes this test binary in child mode with one crash point
/// armed, and asserts the child died by `abort()` — proof the fault
/// point fired, as opposed to the workload finishing or panicking.
fn crash_child(dir: &Path, mode: &str, crash: &str) {
    let status = Command::new(std::env::current_exe().expect("current exe"))
        .args(["child_drives_the_store", "--exact"])
        .env(DIR_ENV, dir)
        .env(MODE_ENV, mode)
        .env(CRASH_ENV, crash)
        .output()
        .expect("spawn crash child")
        .status;
    assert_eq!(
        status.signal(),
        Some(6),
        "child with {CRASH_ENV}={crash} should die by SIGABRT, got {status:?}"
    );
}

/// After a crash in the `fill` workload, the recovered store must hold
/// exactly a prefix of the appended records — each byte-identical to
/// what was stored — and nothing else. Returns the prefix length.
fn assert_prefix_recovery(dir: &Path) -> usize {
    let warm = open_store(dir);
    let recovered = warm.run_count();
    assert!(recovered > 0, "crash recovery found no records at all");
    assert!(
        recovered < FILL as usize,
        "the in-flight tail should have been lost"
    );
    for i in 0..FILL {
        let key = sample_key(i);
        match warm.lookup(&key) {
            Some(run) => {
                assert!(
                    (i as usize) < recovered,
                    "record {i} survived beyond the recovered prefix"
                );
                // Warm == cold, byte for byte: re-encoding the
                // recovered run reproduces the original record exactly.
                assert_eq!(
                    encode_record(&key, &run),
                    encode_record(&key, &sample_run(i)),
                    "record {i} was not recovered byte-identically"
                );
            }
            None => assert!(
                (i as usize) >= recovered,
                "record {i} is missing inside the recovered prefix"
            ),
        }
    }
    recovered
}

#[test]
fn a_torn_append_truncates_cleanly_and_quarantines_the_tail() {
    let dir = tempdir("append");
    crash_child(&dir, "fill", "append:20");
    // The 20th append died half-written: 19 whole records remain, the
    // torn one is truncated away and preserved for autopsy.
    let recovered = assert_prefix_recovery(&dir);
    assert_eq!(recovered, 19, "every whole record before the tear survives");
    let torn: Vec<String> = fs::read_dir(dir.join("quarantine"))
        .expect("quarantine dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert!(
        torn.iter()
            .any(|n| n.starts_with("torn-") && n.ends_with(".bad")),
        "torn tail should be preserved in quarantine/, found {torn:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_before_the_seal_rename_loses_only_the_in_flight_record() {
    let dir = tempdir("seal-pre");
    crash_child(&dir, "fill", "seal-pre:2");
    // The active segment was never renamed; every record inside it is
    // whole and must be recovered. Only the append that triggered the
    // seal is lost.
    assert_prefix_recovery(&dir);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_after_the_seal_rename_recovers_without_an_active_segment() {
    let dir = tempdir("seal-post");
    crash_child(&dir, "fill", "seal-post:1");
    // The crash window leaves only sealed segments on disk — no
    // `.open` file. Reopen must rebuild, restart an active segment,
    // and accept appends again.
    let recovered = assert_prefix_recovery(&dir);
    let warm = open_store(&dir);
    warm.store(&sample_key(FILL), &Arc::new(sample_run(FILL)));
    assert_eq!(
        warm.run_count(),
        recovered + 1,
        "recovered store accepts appends"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_mid_compaction_resolves_duplicates_to_the_same_live_set() {
    let dir = tempdir("compact");
    crash_child(&dir, "churn", "compact:1");
    // The child died after rewriting the victim's live records but
    // before deleting the source segment, so duplicates exist on disk.
    // The rebuild's "later wins" rule must resolve them: every churned
    // key readable exactly once, byte-identical, the stale copies
    // counted as garbage.
    let warm = open_store(&dir);
    assert_eq!(
        warm.run_count(),
        CHURN_KEYS as usize,
        "duplicates must collapse to one live record per key"
    );
    for i in 0..CHURN_KEYS {
        let key = sample_key(i);
        let run = warm.lookup(&key).expect("churned key survives the crash");
        assert_eq!(
            encode_record(&key, &run),
            encode_record(&key, &sample_run(i)),
            "key {i} must read back byte-identically"
        );
    }
    let stats = warm.log_stats().expect("durable store has log stats");
    assert!(
        stats.garbage_bytes > 0,
        "the undeleted compaction source should surface as garbage"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_icorpus_one_file_per_run_store_is_refused_with_a_typed_error() {
    let dir = tempdir("icorpus");
    fs::create_dir_all(&dir).expect("icorpus dir");
    // The one-file-per-run store's marker: `icorpus 1`. The log engine must refuse
    // it outright — a typed error naming both formats — rather than
    // scribbling segments next to foreign files.
    fs::write(dir.join("format"), "icorpus 1\n").expect("icorpus marker");
    match Corpus::open(CorpusOptions::at(&dir)) {
        Err(CorpusError::FormatMismatch {
            found, expected, ..
        }) => {
            assert_eq!(found, "icorpus 1");
            assert_eq!(expected, "icseg 4");
        }
        Ok(_) => panic!("an icorpus store must not open as a log store"),
        Err(other) => panic!("expected FormatMismatch, got {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}
