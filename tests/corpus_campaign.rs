//! The persistent corpus, checked end to end through the checker: warm
//! campaigns replayed from disk are byte-identical to cold ones at any
//! worker count, corrupt records are quarantined and recomputed (never
//! trusted), and recorded baselines flag perturbation as drift.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use corpus::{CampaignBaseline, Corpus, CorpusOptions, Drift, FRAME_LEN};
use instantcheck::{CheckReport, Checker, CheckerConfig, RunCache, Scheme};
use obs::{MemorySink, Registry};
use tsim::{Program, ProgramBuilder, ValKind};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("corpus-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &PathBuf) -> Arc<Corpus> {
    Arc::new(Corpus::open(CorpusOptions::at(dir)).unwrap())
}

/// Deterministic, with a barrier checkpoint, heap traffic (exercising
/// the allocator-replay provenance in cache keys), and output.
fn commuting_sum() -> Program {
    let mut b = ProgramBuilder::new(4);
    let g = b.global("G", ValKind::U64, 1);
    let bar = b.barrier();
    let lock = b.mutex();
    for t in 0..4u64 {
        b.thread(move |ctx| {
            let p = ctx.malloc("scratch", tsim::TypeTag::u64s(), 2);
            ctx.store(p, t);
            ctx.barrier(bar);
            ctx.lock(lock);
            let v = ctx.load(g.at(0));
            ctx.store(g.at(0), v + (t + 1) * 10);
            ctx.unlock(lock);
            ctx.free(p);
        });
    }
    b.build()
}

/// Nondeterministic: last writer wins at the End checkpoint.
fn last_writer() -> Program {
    let mut b = ProgramBuilder::new(3);
    let g = b.global("G", ValKind::U64, 1);
    let lock = b.mutex();
    for t in 0..3u64 {
        b.thread(move |ctx| {
            ctx.lock(lock);
            ctx.store(g.at(0), t + 1);
            ctx.unlock(lock);
        });
    }
    b.build()
}

fn config(store: &Arc<Corpus>, jobs: usize) -> CheckerConfig {
    CheckerConfig::new(Scheme::HwInc)
        .with_runs(6)
        .with_jobs(jobs)
        .with_cache_model()
        .with_run_cache(Arc::clone(store) as _, "commuting_sum")
}

/// Runs one fully-instrumented campaign and returns every observable
/// surface: report, serialized trace, and metrics snapshot.
fn observed_campaign(store: &Arc<Corpus>, jobs: usize) -> (CheckReport, String, obs::Snapshot) {
    let sink = Arc::new(MemorySink::new());
    let reg = Arc::new(Registry::new());
    let cfg = config(store, jobs)
        .with_sink(sink.clone())
        .with_registry(reg.clone());
    let report = Checker::new(cfg)
        .expect("valid config")
        .check(commuting_sum)
        .expect("completes");
    (report, sink.to_jsonl(), reg.snapshot())
}

/// One record of a segment file, split for in-place mutation.
struct RawRecord {
    fp: u128,
    body: Vec<u8>,
    /// The checksum the frame declares.
    sum: u64,
}

impl RawRecord {
    /// Re-frames the record with a checksum valid for its current
    /// fingerprint and body, so only the body's contents can reject it.
    fn reframe(&mut self) {
        self.sum = corpus::record_sum(self.fp, &self.body);
    }
}

/// Reads every record of every segment under `dir`, in log order. The
/// frame is `fp u128 | body_len u32 | sum u64`, little-endian.
fn read_records(dir: &Path) -> (PathBuf, Vec<RawRecord>) {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir.join("segments"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .collect();
    segs.sort();
    assert_eq!(segs.len(), 1, "the small campaign fits one segment");
    let bytes = fs::read(&segs[0]).unwrap();
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let frame = &bytes[offset..offset + FRAME_LEN];
        let len = u32::from_le_bytes(frame[16..20].try_into().unwrap()) as usize;
        let body_at = offset + FRAME_LEN;
        records.push(RawRecord {
            fp: u128::from_le_bytes(frame[..16].try_into().unwrap()),
            body: bytes[body_at..body_at + len].to_vec(),
            sum: u64::from_le_bytes(frame[20..28].try_into().unwrap()),
        });
        offset = body_at + len;
    }
    (segs[0].clone(), records)
}

/// Rewrites a segment from (possibly mutated) records, framing each
/// body with its current length so the file stays structurally
/// scannable — read-time checks, not the scan, must be what rejects a
/// damaged record.
fn write_records(path: &PathBuf, records: &[RawRecord]) {
    let mut bytes = Vec::new();
    for rec in records {
        bytes.extend_from_slice(&rec.fp.to_le_bytes());
        bytes.extend_from_slice(&(rec.body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&rec.sum.to_le_bytes());
        bytes.extend_from_slice(&rec.body);
    }
    fs::write(path, bytes).unwrap();
}

#[test]
fn warm_disk_campaign_is_byte_identical_to_cold() {
    for jobs in [1usize, 8] {
        let dir = tempdir(&format!("warmcold-{jobs}"));
        let cold_store = open(&dir);
        let cold = observed_campaign(&cold_store, jobs);
        assert_eq!(cold_store.hits(), 0, "jobs={jobs}: first campaign is cold");
        assert_eq!(cold_store.run_count(), 6, "jobs={jobs}: all runs stored");

        // A fresh corpus over the same directory models a fresh
        // process: everything must replay from disk.
        let warm_store = open(&dir);
        let warm = observed_campaign(&warm_store, jobs);
        assert_eq!(cold.0, warm.0, "jobs={jobs}: report");
        assert_eq!(cold.1, warm.1, "jobs={jobs}: trace bytes");
        assert_eq!(cold.2, warm.2, "jobs={jobs}: campaign metrics");
        assert_eq!(warm_store.hits(), 6, "jobs={jobs}: every slot hit");
        assert_eq!(warm_store.stores(), 0, "jobs={jobs}: nothing re-stored");
        // The hit counters live in the store's own registry, visible
        // without perturbing the campaign metrics compared above.
        assert_eq!(
            warm_store.metrics().counters.get("corpus.hits"),
            Some(&6),
            "jobs={jobs}: hits visible in the store snapshot"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn corrupt_records_are_quarantined_and_recomputed() {
    let dir = tempdir("corrupt");
    let store = open(&dir);
    let cold = observed_campaign(&store, 1);
    drop(store);

    // Corrupt one stored record per read-time class: cut one body in
    // half under a re-framed (checksum-valid) frame, so its layout runs
    // out before its sections do; flip a body byte of another under its
    // old checksum; and re-frame a third record's body at a second
    // record's address, a checksum-valid record under the wrong key.
    // Every frame matches its body length, so the segment still scans —
    // the read-time checks are what must reject each one.
    let (seg, mut records) = read_records(&dir);
    assert_eq!(records.len(), 6);
    let half = records[0].body.len() / 2;
    records[0].body.truncate(half);
    records[0].reframe();
    let last = records[1].body.len() - 2;
    records[1].body[last] ^= 0x40;
    records[2].body = records[3].body.clone();
    records[2].reframe();
    write_records(&seg, &records);

    let warm_store = open(&dir);
    let warm = observed_campaign(&warm_store, 1);
    assert_eq!(cold.0, warm.0, "report survives corruption");
    assert_eq!(cold.1, warm.1, "trace survives corruption");
    assert_eq!(cold.2, warm.2, "metrics survive corruption");
    assert_eq!(warm_store.hits(), 3, "intact records replay");
    assert_eq!(warm_store.quarantined(), 3, "corrupt records quarantined");
    assert_eq!(
        warm_store.stores(),
        3,
        "corrupt records recomputed and re-stored"
    );
    assert_eq!(
        fs::read_dir(dir.join("quarantine")).unwrap().count(),
        3,
        "quarantine keeps the evidence"
    );
    let m = warm_store.metrics();
    for class in ["truncated", "bad-checksum", "malformed"] {
        assert_eq!(
            m.counters.get(&format!("corpus.quarantined.{class}")),
            Some(&1),
            "one {class} quarantine"
        );
    }
    drop(warm_store);

    // The repaired corpus is fully warm again: the re-appended records
    // are later in the log than the corrupt ones, so the rebuild's
    // later-wins rule resolves every fingerprint to a good record.
    let healed = open(&dir);
    let again = observed_campaign(&healed, 1);
    assert_eq!(cold.0, again.0);
    assert_eq!(healed.hits(), 6);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_cached_lookup_never_trusts_a_tampered_hash() {
    // Flip a checkpoint-hash bit *and* fix nothing else: the record
    // checksum rejects it, so the campaign verdict cannot be poisoned.
    let dir = tempdir("tamper");
    let store = open(&dir);
    let cold = Checker::new(config(&store, 1))
        .expect("valid config")
        .check(commuting_sum)
        .unwrap();
    assert!(cold.is_deterministic());
    drop(store);

    let (seg, mut records) = read_records(&dir);
    for rec in &mut records {
        let (_, run) = corpus::decode_record(&corpus::frame_record(rec.fp, &rec.body)).unwrap();
        let hash = run.hashes.checkpoints[0].hash.as_raw().to_le_bytes();
        let at = rec
            .body
            .windows(8)
            .position(|w| w == hash)
            .expect("the first checkpoint hash is stored verbatim");
        rec.body[at + 7] ^= 0x10;
    }
    write_records(&seg, &records);

    let warm_store = open(&dir);
    let warm = Checker::new(config(&warm_store, 1))
        .expect("valid config")
        .check(commuting_sum)
        .unwrap();
    assert_eq!(cold, warm, "tampered records recompute to the truth");
    assert!(warm.is_deterministic(), "no forged nondeterminism verdict");
    assert_eq!(warm_store.quarantined(), 6);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn perturbed_baseline_is_flagged_as_drift() {
    let dir = tempdir("baseline");
    let store = open(&dir);
    let baselines = store.baselines_dir().expect("on-disk corpus");
    let runs = Checker::new(config(&store, 1))
        .expect("valid config")
        .collect_runs(&commuting_sum)
        .unwrap();
    let report = CheckReport::from_runs(&runs);
    let baseline = CampaignBaseline::capture(
        "commuting-sum",
        "commuting_sum",
        Scheme::HwInc,
        1,
        &runs[0],
        &report,
    );
    baseline.save(&baselines).unwrap();

    // Round-tripped and compared against the same campaign: no drift.
    let loaded = CampaignBaseline::load(&baselines, "commuting-sum").unwrap();
    assert_eq!(loaded, baseline);
    assert!(loaded.compare(&runs[0], &report).is_empty());

    // A perturbed copy — one reference hash nudged — must be flagged,
    // localized to that checkpoint.
    let mut perturbed = loaded.clone();
    let idx = perturbed.reference.len() / 2;
    perturbed.reference[idx].1 ^= 1;
    let drifts = perturbed.compare(&runs[0], &report);
    assert!(!drifts.is_empty(), "perturbation detected");
    match &drifts[0] {
        Drift::ReferenceHash { checkpoint, .. } => assert_eq!(*checkpoint, idx),
        other => panic!("expected ReferenceHash, got {other:?}"),
    }

    // A genuinely different campaign (nondeterministic workload) drifts
    // on the summary verdicts too.
    let ndet_runs = Checker::new(CheckerConfig::new(Scheme::HwInc).with_runs(6))
        .expect("valid config")
        .collect_runs(&last_writer)
        .unwrap();
    let ndet_report = CheckReport::from_runs(&ndet_runs);
    let drifts = baseline.compare(&ndet_runs[0], &ndet_report);
    assert!(drifts
        .iter()
        .any(|d| matches!(d, Drift::Summary { field, .. } if *field == "ndet_points")));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn disk_ephemeral_and_memory_caches_agree() {
    // The log-backed corpus, the ephemeral corpus, and the in-memory
    // reference implementation are interchangeable RunCache impls:
    // same campaign, same results.
    let dir = tempdir("parity");
    let disk = open(&dir);
    let ephemeral = Arc::new(Corpus::open(CorpusOptions::ephemeral()).unwrap());
    let memory = Arc::new(instantcheck::MemoryRunCache::new());
    let run = |cache: Arc<dyn RunCache>| {
        let cfg = CheckerConfig::new(Scheme::HwInc)
            .with_runs(4)
            .with_run_cache(cache, "commuting_sum");
        Checker::new(cfg)
            .expect("valid config")
            .check(commuting_sum)
            .unwrap()
    };
    let a = run(disk.clone());
    let b = run(memory.clone());
    let c = run(ephemeral.clone());
    assert_eq!(a, b);
    assert_eq!(a, c);
    // Warm reruns on all three also agree.
    let a2 = run(disk);
    let b2 = run(memory.clone());
    let c2 = run(ephemeral.clone());
    assert_eq!(a2, b2);
    assert_eq!(a2, c2);
    assert_eq!(a, a2);
    assert_eq!(memory.hits(), 4);
    // On the same instance, warm lookups are satisfied by the memo
    // arena before reaching the backend — the runs are still all there.
    assert_eq!(ephemeral.run_count(), 4);
    fs::remove_dir_all(&dir).unwrap();
}
