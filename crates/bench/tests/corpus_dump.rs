//! `corpus dump` is the human view of the binary `icseg 2` records: its
//! output for a fixed record — and with it the record's fingerprint
//! and encoded length — is pinned here, end to end through the binary.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use adhash::HashSum;
use corpus::{Corpus, CorpusOptions};
use instantcheck::{CachedRun, CheckpointRecord, RunCache, RunHashes, RunKey, Scheme};
use obs::Event;
use tsim::{AllocLog, BarrierId, CheckpointKind, SwitchPolicy};

/// One fixed record with every section present.
fn fixed_record() -> (RunKey, CachedRun) {
    let key = RunKey {
        workload: "dump demo".into(),
        scheme: Scheme::HwInc,
        seed: 7,
        lib_seed: 42,
        switch: SwitchPolicy::SyncOnly,
        max_steps: 1_000,
        rounding: None,
        ignore_token: 0,
        fault_token: 0,
        cache_model: true,
        alloc_seed: None,
    };
    let mut log = AllocLog::default();
    log.insert(0, 0, 4096);
    log.insert(1, 0, 4160);
    let cp = |kind, hash| CheckpointRecord {
        kind,
        hash: HashSum::from_raw(hash),
    };
    let run = CachedRun {
        hashes: RunHashes {
            checkpoints: vec![
                cp(
                    CheckpointKind::Barrier(BarrierId::from_index(0)),
                    0x0123_4567_89ab_cdef,
                ),
                cp(CheckpointKind::Manual("iter end"), 0xfedc_ba98_7654_3210),
                cp(CheckpointKind::End, 0xfedc_ba98_7654_3210),
            ],
            output_digest: 99,
            extra_instr: 1,
            stores: 2,
            hash_updates: 3,
            cache: Some(mhm::CacheStats {
                hits: 10,
                misses: 11,
                mhm_reads: 12,
                mhm_read_misses: 13,
            }),
        },
        steps: 100,
        native_instr: 200,
        zero_fill_instr: 5,
        alloc_log: Some(Arc::new(log)),
        sim_trace: Some(vec![
            Event::instant(1, 0, "sched"),
            Event::instant(2, 1, "sched").with_arg("why", "preempt"),
        ]),
    };
    (key, run)
}

fn dump(dir: &PathBuf) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_corpus"))
        .args(["dump", "--corpus-dir"])
        .arg(dir)
        .output()
        .expect("run corpus dump");
    (
        out.status.code(),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

#[test]
fn the_dump_of_a_fixed_record_is_pinned() {
    let dir = std::env::temp_dir().join(format!("corpus-dump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = Corpus::open(CorpusOptions::at(&dir)).unwrap();
    let (key, run) = fixed_record();
    corpus.store(&key, &Arc::new(run));
    drop(corpus);
    let (status, stdout, stderr) = dump(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(status, Some(0), "{stderr}");
    assert_eq!(
        stdout,
        "record efe80fb13e0f8c6c13763012fdc9f4cc seg 1 offset 0 len 479\n  \
         key version=1 workload=dump demo scheme=HwInc seed=7 lib_seed=42 switch=sync-only \
         max_steps=1000 rounding=none ignore=0000000000000000 faults=0000000000000000 \
         cache_model=1 alloc_seed=log\n  \
         run steps=100 native=200 zerofill=5\n  \
         hashes output=99 extra=1 stores=2 hashup=3\n  \
         l1 hits=10 misses=11 mhm_reads=12 mhm_read_misses=13\n  \
         cp b:0 0123456789abcdef\n  \
         cp m:iter%20end fedcba9876543210\n  \
         cp e fedcba9876543210\n  \
         alloclog 2\n  \
         trace 2\n"
    );
}

#[test]
fn dump_refuses_a_directory_without_a_corpus() {
    let dir = std::env::temp_dir().join(format!("corpus-dump-none-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (status, stdout, stderr) = dump(&dir);
    assert_eq!(status, Some(2));
    assert!(stdout.is_empty());
    assert!(stderr.contains("no corpus at"), "{stderr}");
    assert!(!dir.exists(), "dump must not create a corpus");
}

#[test]
fn a_usage_error_creates_no_corpus() {
    let dir = std::env::temp_dir().join(format!("corpus-usage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = |bin: &str, args: &[&str]| {
        let out = Command::new(bin)
            .args(args)
            .arg("--corpus-dir")
            .arg(&dir)
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(!dir.exists(), "{bin} {args:?} created a corpus");
    };
    let corpus = env!("CARGO_BIN_EXE_corpus");
    // No subcommand, no `--app`, an unknown argument.
    run(corpus, &[]);
    run(corpus, &["check"]);
    run(corpus, &["record", "--app", "canneal", "--bogus"]);
    // The table binaries refuse an unknown argument before opening the
    // store too.
    run(env!("CARGO_BIN_EXE_table2"), &["--scaled", "--bogus"]);
}

#[test]
fn a_memo_arena_past_the_maximum_is_refused_by_value() {
    let dir = std::env::temp_dir().join(format!("corpus-slots-{}", std::process::id()));
    let out = std::env::temp_dir().join(format!("corpus-slots-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (dir_s, out_s) = (dir.to_string_lossy(), out.to_string_lossy());
    let slots = u64::MAX.to_string();
    let storage = ["--corpus-dir", &dir_s, "--corpus-cache-slots", &slots];
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_corpus"),
            vec!["check", "--app", "canneal", "--scaled"],
        ),
        (env!("CARGO_BIN_EXE_table2"), vec!["--scaled"]),
        (
            env!("CARGO_BIN_EXE_icd"),
            vec!["--batch", "/dev/null", "--out", &out_s],
        ),
    ] {
        let run = Command::new(bin)
            .args(args)
            .args(storage)
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8(run.stderr).unwrap();
        assert_eq!(run.status.code(), Some(2), "{bin}: {stderr}");
        assert!(stderr.contains(&slots), "{bin} names the value: {stderr}");
        assert!(!dir.exists(), "{bin} created a corpus");
    }
    let _ = std::fs::remove_dir_all(&out);
}
