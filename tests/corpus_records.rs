//! The corpus's on-disk contract, checked from the outside: stores of
//! another format are refused with a typed error, and every shape of
//! record the checker writes — cache-model stats, manual-label
//! checkpoints, the allocator log, a simulator trace, and a traceless
//! entry later upgraded by a traced recompute — comes back from a
//! reopened corpus byte for byte.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use adhash::HashSum;
use corpus::{encode_record, Corpus, CorpusError, CorpusOptions};
use instantcheck::{
    CachedRun, Checker, CheckerConfig, CheckpointRecord, RunCache, RunHashes, RunKey, Scheme,
};
use obs::{Event, MemorySink};
use tsim::{AllocLog, BarrierId, CheckpointKind, Program, ProgramBuilder, SwitchPolicy, ValKind};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("corpus-rec-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &PathBuf) -> Arc<Corpus> {
    Arc::new(Corpus::open(CorpusOptions::at(dir)).unwrap())
}

fn refused_marker(marker: &str) -> (String, String) {
    let dir = tempdir(&marker.replace(' ', "-"));
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("format"), format!("{marker}\n")).unwrap();
    let refused = match Corpus::open(CorpusOptions::at(&dir)) {
        Err(CorpusError::FormatMismatch {
            found, expected, ..
        }) => (found, expected),
        Ok(_) => panic!("a {marker:?} store must not open"),
        Err(other) => panic!("expected FormatMismatch for {marker:?}, got {other}"),
    };
    fs::remove_dir_all(&dir).unwrap();
    refused
}

#[test]
fn stores_of_other_formats_are_refused_with_a_typed_error() {
    // Binary records whose keys are stored as decimal text tokens.
    assert_eq!(
        refused_marker("icseg 3"),
        ("icseg 3".to_owned(), "icseg 4".to_owned())
    );
    // Binary records addressed by the commutative field-hash sum,
    // whose addresses the ordered fingerprint no longer finds.
    assert_eq!(
        refused_marker("icseg 2"),
        ("icseg 2".to_owned(), "icseg 4".to_owned())
    );
    // The text-entry segment log that preceded the binary records.
    assert_eq!(
        refused_marker("icseg 1"),
        ("icseg 1".to_owned(), "icseg 4".to_owned())
    );
    // The one-file-per-run store before that.
    assert_eq!(
        refused_marker("icorpus 1"),
        ("icorpus 1".to_owned(), "icseg 4".to_owned())
    );
}

/// Heap traffic (an allocator log on the logging run), a barrier, and
/// two manual checkpoints — one with a label a text format would have
/// to escape.
fn phased() -> Program {
    let mut b = ProgramBuilder::new(3);
    let g = b.global("G", ValKind::U64, 1);
    let bar = b.barrier();
    let lock = b.mutex();
    for t in 0..3u64 {
        b.thread(async move |ctx| {
            let p = ctx.malloc("scratch", tsim::TypeTag::u64s(), 2).await;
            ctx.store(p, t).await;
            ctx.checkpoint("phase 1%").await;
            ctx.barrier(bar).await;
            ctx.lock(lock).await;
            let v = ctx.load(g.at(0)).await;
            ctx.store(g.at(0), v + t + 1).await;
            ctx.unlock(lock).await;
            ctx.checkpoint("phase-2").await;
            ctx.free(p).await;
        });
    }
    b.build()
}

fn campaign(corpus: &Arc<Corpus>, sink: Option<&Arc<MemorySink>>) -> instantcheck::CheckReport {
    let mut cfg = CheckerConfig::new(Scheme::HwInc)
        .with_runs(4)
        .with_cache_model()
        .with_run_cache(Arc::clone(corpus) as _, "phased");
    if let Some(sink) = sink {
        cfg = cfg.with_sink(Arc::clone(sink) as _);
    }
    Checker::new(cfg)
        .expect("valid config")
        .check(phased)
        .expect("completes")
}

#[test]
fn checker_records_round_trip_and_a_traced_recompute_upgrades_them() {
    let dir = tempdir("upgrade");

    // An untraced campaign stores traceless records.
    let cold = open(&dir);
    let untraced = campaign(&cold, None);
    assert_eq!(cold.stores(), 4);
    drop(cold);

    // A traced campaign cannot replay a traceless record: it recomputes
    // every run and re-stores it with its trace.
    let upgrading = open(&dir);
    let cold_sink = Arc::new(MemorySink::new());
    let traced = campaign(&upgrading, Some(&cold_sink));
    assert_eq!(traced, untraced, "tracing never changes the verdict");
    assert_eq!(upgrading.stores(), 4, "every traceless record upgraded");
    drop(upgrading);

    // A fresh instance reads the upgraded records — later wins — and
    // replays the trace byte for byte, with nothing recomputed.
    let warm = open(&dir);
    let warm_sink = Arc::new(MemorySink::new());
    assert_eq!(campaign(&warm, Some(&warm_sink)), untraced);
    assert_eq!(warm.hits(), 4);
    assert_eq!(warm.stores(), 0);
    assert_eq!(warm.quarantined(), 0);
    assert_eq!(cold_sink.to_jsonl(), warm_sink.to_jsonl());

    // The recorded shapes are the ones this test is about.
    let records = warm.records().unwrap();
    let runs: Vec<&CachedRun> = records
        .iter()
        .map(|r| &r.content.as_ref().expect("intact record").1)
        .collect();
    assert_eq!(runs.len(), 4, "one live record per slot");
    assert!(runs
        .iter()
        .all(|r| r.hashes.cache.is_some() && r.sim_trace.is_some()));
    for label in ["phase 1%", "phase-2"] {
        assert!(runs[0]
            .hashes
            .checkpoints
            .iter()
            .any(|cp| cp.kind == CheckpointKind::Manual(label)));
    }
    let logs: Vec<usize> = runs
        .iter()
        .filter_map(|r| r.alloc_log.as_ref().map(|log| log.len()))
        .collect();
    assert_eq!(logs, [3], "only the logging run carries the alloc log");
    fs::remove_dir_all(&dir).unwrap();
}

fn key(seed: u64) -> RunKey {
    RunKey {
        workload: "shapes with spaces %20\t".into(),
        scheme: Scheme::SwTr,
        seed,
        lib_seed: 9,
        switch: SwitchPolicy::EveryNth(3),
        max_steps: 1 << 40,
        rounding: None,
        ignore_token: u64::MAX,
        fault_token: 1,
        cache_model: true,
        alloc_seed: (seed % 2 == 1).then_some(seed),
    }
}

/// One run per record shape, each section present or absent on its own.
fn shapes() -> Vec<CachedRun> {
    let bare = CachedRun {
        hashes: RunHashes {
            checkpoints: Vec::new(),
            output_digest: 0,
            extra_instr: 0,
            stores: 0,
            hash_updates: 0,
            cache: None,
        },
        steps: 0,
        native_instr: 0,
        zero_fill_instr: 0,
        alloc_log: None,
        sim_trace: None,
    };
    let mut rich = bare.clone();
    rich.hashes.checkpoints = [
        CheckpointKind::Barrier(BarrierId::from_index(300)),
        CheckpointKind::Manual("iter end"),
        CheckpointKind::Barrier(BarrierId::from_index(300)),
        CheckpointKind::End,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, kind)| CheckpointRecord {
        kind,
        hash: HashSum::from_raw(u64::MAX - i as u64),
    })
    .collect();
    rich.hashes.output_digest = u64::MAX;
    rich.hashes.cache = Some(mhm::CacheStats {
        hits: 1,
        misses: 2,
        mhm_reads: 3,
        mhm_read_misses: u64::MAX,
    });
    rich.steps = 1 << 63;
    let mut log = AllocLog::default();
    log.insert(0, 0, 0x1000);
    log.insert(7, 1 << 40, u64::MAX);
    rich.alloc_log = Some(Arc::new(log));
    rich.sim_trace = Some(vec![
        Event::instant(5, 1, "sched").with_arg("why", "preempt\nnow"),
        Event::end(9, 0, "run").with_arg("ok", true),
    ]);
    let mut empty_sections = bare.clone();
    empty_sections.alloc_log = Some(Arc::new(AllocLog::default()));
    empty_sections.sim_trace = Some(Vec::new());
    vec![bare, rich, empty_sections]
}

#[test]
fn every_record_shape_round_trips_through_a_reopened_corpus() {
    let dir = tempdir("shapes");
    let corpus = open(&dir);
    let runs = shapes();
    for (seed, run) in runs.iter().enumerate() {
        corpus.store(&key(seed as u64), &Arc::new(run.clone()));
    }
    drop(corpus);
    let reopened = open(&dir);
    for (seed, run) in runs.iter().enumerate() {
        let key = key(seed as u64);
        let hit = reopened.lookup(&key).expect("stored shape reads back");
        assert_eq!(
            encode_record(&key, &hit),
            encode_record(&key, run),
            "shape {seed} round-trips byte for byte"
        );
        assert_eq!(hit.hashes.checkpoints, run.hashes.checkpoints);
        assert_eq!(
            hit.sim_trace.as_ref().map(Vec::len),
            run.sim_trace.as_ref().map(Vec::len)
        );
    }
    assert_eq!(reopened.quarantined(), 0);
    fs::remove_dir_all(&dir).unwrap();
}
