//! The persistent corpus, checked end to end through the checker: warm
//! campaigns replayed from disk or from the memo arena are
//! byte-identical to cold ones at any worker count, run keys separate
//! what changes a run and nothing else, failures and traceless entries
//! are recomputed, corrupt records are quarantined and recomputed
//! (never trusted), and recorded baselines flag perturbation as drift.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use corpus::{
    CampaignBaseline, Corpus, CorpusError, CorpusOptions, Drift, FRAME_LEN, MAX_CACHE_SLOTS,
};
use instantcheck::{CheckReport, Checker, CheckerConfig, FailurePolicy, Scheme};
use obs::{MemorySink, Registry, Telemetry};
use tsim::{FaultKind, FaultPlan, Program, ProgramBuilder, Trigger, ValKind};

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
        b.thread(async move |ctx| {
            let p = ctx.malloc("scratch", tsim::TypeTag::u64s(), 2).await;
            ctx.store(p, t).await;
            ctx.barrier(bar).await;
            ctx.lock(lock).await;
            let v = ctx.load(g.at(0)).await;
            ctx.store(g.at(0), v + (t + 1) * 10).await;
            ctx.unlock(lock).await;
            ctx.free(p).await;
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
        b.thread(async move |ctx| {
            ctx.lock(lock).await;
            ctx.store(g.at(0), t + 1).await;
            ctx.unlock(lock).await;
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

/// A `runs`-run campaign of `commuting_sum` on a fresh open of the
/// corpus at `dir` (a new process's view), with telemetry attached:
/// every deterministic surface plus the slot samples the worker pool
/// recorded.
fn traced_campaign(
    dir: &PathBuf,
    runs: usize,
    jobs: usize,
) -> ((CheckReport, String, obs::Snapshot), u64) {
    let sink = Arc::new(MemorySink::new());
    let reg = Arc::new(Registry::new());
    let telemetry = Arc::new(Telemetry::new());
    let cfg = config(&open(dir), jobs)
        .with_runs(runs)
        .with_sink(sink.clone())
        .with_registry(reg.clone())
        .with_telemetry(telemetry.clone());
    let report = Checker::new(cfg)
        .expect("valid config")
        .check(commuting_sum)
        .expect("completes");
    let busy = telemetry
        .snapshot()
        .histograms
        .get("checker.slot.busy")
        .map_or(0, |h| h.count);
    ((report, sink.to_jsonl(), reg.snapshot()), busy)
}

#[test]
fn warm_hits_are_answered_inline_at_any_worker_count() {
    let dir = tempdir("inline");
    let (cold, busy) = traced_campaign(&dir, 30, 4);
    assert!(busy > 0, "the cold campaign fans out");

    // Every slot is a hit: the sequential prefix answers all of them,
    // so no worker pool runs, and the artifacts match the serial
    // campaign's and the cold one's byte for byte.
    let (warm4, busy4) = traced_campaign(&dir, 30, 4);
    let (warm1, _) = traced_campaign(&dir, 30, 1);
    assert_eq!(busy4, 0, "an all-hit campaign fans nothing out");
    assert_eq!(warm4.0, warm1.0, "report");
    assert_eq!(warm4.1, warm1.1, "trace bytes");
    assert_eq!(warm4.2, warm1.2, "registry snapshot");
    assert_eq!(warm4, cold, "warm equals cold");
    fs::remove_dir_all(&dir).unwrap();

    // Partially warm: slots 0..10 hit inline, slot 10 is simulated,
    // the rest fan out. The result is the cold campaign's.
    let warm_dir = tempdir("inline-partial");
    traced_campaign(&warm_dir, 10, 2);
    let cold_dir = tempdir("inline-partial-cold");
    let (partial, partial_busy) = traced_campaign(&warm_dir, 30, 2);
    let (cold, _) = traced_campaign(&cold_dir, 30, 2);
    assert!(partial_busy > 0, "the slots after the first miss fan out");
    assert_eq!(partial.0, cold.0, "report");
    assert_eq!(partial.1, cold.1, "trace bytes");
    assert_eq!(partial.2, cold.2, "registry snapshot");
    fs::remove_dir_all(&warm_dir).unwrap();
    fs::remove_dir_all(&cold_dir).unwrap();
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
    let baselines = store.baselines_dir();
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
fn disk_and_memory_caches_agree() {
    // A warm campaign on the instance that recorded the runs is answered
    // by the memo arena; one on a fresh instance reads the log. Both
    // replay the cold campaign byte for byte, at any worker count.
    for jobs in [1usize, 8] {
        let dir = tempdir(&format!("parity-{jobs}"));
        let memo_registry = Arc::new(Registry::new());
        let recorder = Arc::new(
            Corpus::open(CorpusOptions::at(&dir).registry(memo_registry.clone())).unwrap(),
        );
        let cold = observed_campaign(&recorder, jobs);
        let memo = observed_campaign(&recorder, jobs);
        assert_eq!(cold, memo, "jobs={jobs}: the memo arena replays cold");
        assert_eq!(
            memo_registry.counter("corpus.cache.memo_hits").get(),
            6,
            "jobs={jobs}: every warm slot hit the arena"
        );
        assert_eq!(recorder.hits(), 0, "jobs={jobs}: no warm slot read the log");

        let fresh = open(&dir);
        let log = observed_campaign(&fresh, jobs);
        assert_eq!(cold, log, "jobs={jobs}: the log replays cold");
        assert_eq!(fresh.hits(), 6, "jobs={jobs}: every slot read the log");
        assert_eq!(fresh.run_count(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn cache_keys_are_worker_count_invariant() {
    // Entries a serial campaign stored satisfy a parallel rerun. The
    // program is nondeterministic, so the warm report matches the cold
    // one only if every slot got back its own run.
    let dir = tempdir("jobs");
    let at = |store: &Arc<Corpus>, jobs: usize| {
        let cfg = CheckerConfig::new(Scheme::SwInc)
            .with_runs(8)
            .with_jobs(jobs)
            .with_run_cache(Arc::clone(store) as _, "last_writer");
        Checker::new(cfg)
            .expect("valid config")
            .check(last_writer)
            .unwrap()
    };
    let serial = open(&dir);
    let cold = at(&serial, 1);
    assert!(!cold.is_deterministic(), "the slots' runs differ");
    let parallel = open(&dir);
    let warm = at(&parallel, 8);
    assert_eq!(cold, warm);
    assert_eq!(
        parallel.hits(),
        8,
        "serial entries satisfy a parallel rerun"
    );
    assert_eq!(parallel.stores(), 0, "no re-store on a pure-hit rerun");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn adjacent_base_seed_campaigns_each_get_their_own_runs() {
    // Slot i of base b and slot i - 1 of base b + 1 differ by one in
    // both the seed and the allocator seed: keys an order-independent
    // fingerprint let collide, so one instance's memo arena served one
    // campaign another's runs. The program is nondeterministic, so a
    // foreign run shows in the report.
    let dir = tempdir("adjacent");
    let store = open(&dir);
    let campaign = |base_seed, cache: Option<&Arc<Corpus>>| {
        let mut cfg = CheckerConfig::new(Scheme::SwInc)
            .with_runs(6)
            .with_jobs(1)
            .with_base_seed(base_seed);
        if let Some(store) = cache {
            cfg = cfg.with_run_cache(Arc::clone(store) as _, "last_writer");
        }
        Checker::new(cfg)
            .expect("valid config")
            .check(last_writer)
            .unwrap()
    };
    for base_seed in 1..=40 {
        assert_eq!(
            campaign(base_seed, Some(&store)),
            campaign(base_seed, None),
            "base seed {base_seed}"
        );
    }
    assert_eq!(store.quarantined(), 0);
    assert_eq!(store.run_count(), 240);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn traceless_cache_entry_is_recomputed_by_a_tracing_campaign() {
    // One instance throughout, so the traced recompute replaces the
    // traceless entries in the memo arena, not only in the log.
    let dir = tempdir("traceless");
    let store = open(&dir);
    let base = || config(&store, 1).with_runs(3);
    // Populate without a sink: entries have no stored trace.
    let untraced = Checker::new(base())
        .expect("valid config")
        .check(commuting_sum)
        .unwrap();
    // A tracing campaign must not replay those entries.
    let sink = Arc::new(MemorySink::new());
    let traced = Checker::new(base().with_sink(sink.clone()))
        .expect("valid config")
        .check(commuting_sum)
        .unwrap();
    assert_eq!(untraced, traced);
    assert!(
        sink.events().iter().any(|e| e.name == "sched"),
        "trace has live simulator events"
    );
    assert_eq!(
        store.stores(),
        6,
        "the tracing campaign re-stored every run"
    );
    // A second tracing campaign replays the upgraded entries
    // byte-identically and computes nothing.
    let sink2 = Arc::new(MemorySink::new());
    let replayed = Checker::new(base().with_sink(sink2.clone()))
        .expect("valid config")
        .check(commuting_sum)
        .unwrap();
    assert_eq!(traced, replayed);
    assert_eq!(sink.to_jsonl(), sink2.to_jsonl());
    assert_eq!(store.stores(), 6, "the replay stored nothing");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cache_preserves_failure_policy_behavior() {
    // A slot that deterministically fails must fail again on a warm
    // rerun: failures are never cached.
    let dir = tempdir("failure");
    let plan = FaultPlan::new(3).with(FaultKind::AllocFail, Trigger::Nth(0));
    let cfg = |store: &Arc<Corpus>| {
        config(store, 1)
            .with_policy(FailurePolicy::Skip { max_failures: 3 })
            .with_fault_in_run(2, plan.clone())
    };
    let cold_store = open(&dir);
    let cold = Checker::new(cfg(&cold_store))
        .expect("valid config")
        .check(commuting_sum)
        .unwrap();
    assert_eq!(cold.failures.len(), 1, "the faulted slot failed");
    assert_eq!(cold_store.run_count(), 5, "only completed runs are stored");
    let warm_store = open(&dir);
    let warm = Checker::new(cfg(&warm_store))
        .expect("valid config")
        .check(commuting_sum)
        .unwrap();
    assert_eq!(cold, warm);
    assert_eq!(warm.failures.len(), 1, "the failure recomputed");
    assert_eq!(warm_store.hits(), 5);
    assert_eq!(warm_store.stores(), 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cache_key_distinguishes_scheme_and_seed() {
    let dir = tempdir("keys");
    let store = open(&dir);
    let run = |scheme, base_seed| {
        let cfg = CheckerConfig::new(scheme)
            .with_runs(2)
            .with_jobs(1)
            .with_base_seed(base_seed)
            .with_run_cache(Arc::clone(&store) as _, "commuting_sum");
        Checker::new(cfg)
            .expect("valid config")
            .check(commuting_sum)
            .unwrap();
        store.run_count()
    };
    assert_eq!(run(Scheme::HwInc, 1), 2);
    assert_eq!(run(Scheme::SwTr, 1), 4, "different scheme, new entries");
    assert_eq!(run(Scheme::HwInc, 100), 6, "different seeds, new entries");
    assert_eq!(run(Scheme::HwInc, 1), 6, "a repeat adds nothing");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_memo_arena_past_the_maximum_is_refused_before_the_store_exists() {
    let dir = tempdir("slots");
    for slots in [usize::MAX, MAX_CACHE_SLOTS + 1] {
        match Corpus::open(CorpusOptions::at(&dir).cache_slots(slots)) {
            Err(CorpusError::Open { source, .. }) => {
                assert_eq!(source.kind(), std::io::ErrorKind::InvalidInput);
                assert!(source.to_string().contains(&slots.to_string()), "{source}");
            }
            Ok(_) => panic!("{slots} cache slots must be refused"),
            Err(other) => panic!("expected an Open error, got {other}"),
        }
        assert!(!dir.exists(), "a refused open created {}", dir.display());
    }
}
