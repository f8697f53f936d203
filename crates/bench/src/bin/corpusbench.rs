//! Storage-backend micro-benchmark: one-file-per-run vs the
//! log-structured `Corpus` engine.
//!
//! ```text
//! corpusbench [--entries N[,N...]]
//! ```
//!
//! For each population size (default 10k and 100k entries) the bench
//! builds the same synthetic run population twice: once through a
//! faithful reimplementation of the PR-4 one-file-per-run backend
//! (fingerprint-named file per record, tmp+rename atomicity), writing
//! the same `icseg-v2` record bytes the log does, and once through
//! [`Corpus::open`](corpus::Corpus) over the `icseg-v2` segment log.
//! It then measures the *warm* path both ways — a fresh instance over
//! the populated store, every key looked up exactly once in a
//! scattered order — plus cold write cost and (for the log engine) the
//! open-time index scan. Results land in `results/BENCH_corpus.json`;
//! EXPERIMENTS.md interprets them. The decode cost is identical on
//! both sides by construction, so the delta isolates the I/O path:
//! open+read+close per lookup against one `pread` on an already-open
//! segment handle.
//!
//! The bench asserts every lookup round-trips (both backends, every
//! key), so it doubles as an end-to-end codec check at population
//! sizes the unit suites never reach.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use adhash::HashSum;
use corpus::{decode_record, encode_record, fingerprint_key, Corpus, CorpusOptions};
use detrand::splitmix64;
use instantcheck::{CachedRun, CheckpointRecord, RunCache, RunHashes, RunKey, Scheme};
use instantcheck_bench::json::{write_field, ToJson};
use instantcheck_bench::Reporter;
use tsim::{CheckpointKind, SwitchPolicy};

/// Checkpoints per synthetic run — sized so one encoded entry is a few
/// hundred bytes, the shape real scaled campaigns produce.
const CHECKPOINTS: usize = 8;

/// One population size: cold-write and warm-lookup cost per backend.
struct CorpusBenchRow {
    entries: usize,
    flat_write_ms: f64,
    flat_lookup_ms: f64,
    flat_lookup_ns_per_op: u64,
    log_write_ms: f64,
    log_open_ms: f64,
    log_lookup_ms: f64,
    log_lookup_ns_per_op: u64,
    warm_speedup_x: f64,
    segments: u64,
    live_bytes: u64,
}

impl ToJson for CorpusBenchRow {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        write_field(out, &mut first, "entries", &self.entries);
        write_field(out, &mut first, "flat_write_ms", &self.flat_write_ms);
        write_field(out, &mut first, "flat_lookup_ms", &self.flat_lookup_ms);
        write_field(
            out,
            &mut first,
            "flat_lookup_ns_per_op",
            &self.flat_lookup_ns_per_op,
        );
        write_field(out, &mut first, "log_write_ms", &self.log_write_ms);
        write_field(out, &mut first, "log_open_ms", &self.log_open_ms);
        write_field(out, &mut first, "log_lookup_ms", &self.log_lookup_ms);
        write_field(
            out,
            &mut first,
            "log_lookup_ns_per_op",
            &self.log_lookup_ns_per_op,
        );
        write_field(out, &mut first, "warm_speedup_x", &self.warm_speedup_x);
        write_field(out, &mut first, "segments", &self.segments);
        write_field(out, &mut first, "live_bytes", &self.live_bytes);
        out.push('}');
    }
}

/// The PR-4 backend, reimplemented minimally and faithfully: one
/// fingerprint-named file per record under the root, written via
/// tmp+rename, read back through the shared record codec.
struct FlatStore {
    dir: PathBuf,
}

impl FlatStore {
    fn open(dir: &Path) -> FlatStore {
        fs::create_dir_all(dir).expect("flat store dir");
        FlatStore {
            dir: dir.to_path_buf(),
        }
    }

    fn path(&self, key: &RunKey) -> PathBuf {
        self.dir.join(format!("{:032x}.run", fingerprint_key(key)))
    }

    fn store(&self, key: &RunKey, run: &CachedRun) {
        let path = self.path(key);
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, encode_record(key, run)).expect("flat store write");
        fs::rename(&tmp, &path).expect("flat store rename");
    }

    fn lookup(&self, key: &RunKey) -> Option<CachedRun> {
        let bytes = fs::read(self.path(key)).ok()?;
        let (tokens, run) = decode_record(&bytes).ok()?;
        // Field-for-field key verification, exactly as the PR-4 store
        // did it — a fingerprint collision must never read as a hit.
        let expected: Vec<(String, String)> = key
            .tokens()
            .into_iter()
            .map(|(l, v)| (l.to_owned(), v))
            .collect();
        (tokens == expected).then_some(run)
    }
}

fn sample_key(seed: u64) -> RunKey {
    RunKey {
        workload: "corpusbench:scaled".into(),
        scheme: Scheme::HwInc,
        seed,
        lib_seed: 42,
        switch: SwitchPolicy::SyncOnly,
        max_steps: 100_000,
        rounding: None,
        ignore_token: 0,
        fault_token: 0,
        cache_model: false,
        alloc_seed: None,
    }
}

fn sample_run(seed: u64) -> CachedRun {
    let checkpoints = (0..CHECKPOINTS as u64)
        .map(|j| CheckpointRecord {
            kind: CheckpointKind::End,
            hash: HashSum::from_raw(splitmix64(seed.wrapping_mul(8191) ^ j)),
        })
        .collect();
    CachedRun {
        hashes: RunHashes {
            checkpoints,
            output_digest: splitmix64(seed ^ 0xD1_6E57),
            extra_instr: seed % 977,
            stores: 1 + seed % 4093,
            hash_updates: 1 + seed % 509,
            cache: None,
        },
        steps: 1_000 + seed % 251,
        native_instr: 5_000 + seed % 997,
        zero_fill_instr: seed % 7,
        alloc_log: None,
        sim_trace: None,
    }
}

/// Lookup order: a fixed stride permutation so neither backend gets a
/// free sequential-scan advantage over the store layout it wrote.
fn scattered(n: usize) -> impl Iterator<Item = u64> {
    (0..n as u64).map(move |i| (i.wrapping_mul(7919)) % n as u64)
}

fn tempdir(tag: &str, entries: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "corpusbench-{tag}-{entries}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn bench_size(r: &Reporter, entries: usize) -> CorpusBenchRow {
    // Both warm loops replay this same key sequence; building it once
    // outside the timed regions keeps key construction out of the
    // numbers — the measurement is the store lookup, nothing else.
    let keys: Vec<(u64, RunKey)> = scattered(entries).map(|i| (i, sample_key(i))).collect();

    // --- one-file-per-run backend ---------------------------------
    r.progress(&format!("  flat backend, {entries} entries…"));
    let flat_dir = tempdir("flat", entries);
    let flat = FlatStore::open(&flat_dir);
    let t0 = Instant::now();
    for i in 0..entries as u64 {
        flat.store(&sample_key(i), &sample_run(i));
    }
    let flat_write_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm = FlatStore::open(&flat_dir);
    let t0 = Instant::now();
    for (i, key) in &keys {
        let run = warm.lookup(key).expect("flat entry present");
        assert_eq!(run.hashes.output_digest, splitmix64(i ^ 0xD1_6E57));
    }
    let flat_lookup = t0.elapsed();
    fs::remove_dir_all(&flat_dir).expect("flat cleanup");

    // --- log-structured backend -----------------------------------
    r.progress(&format!("  log backend, {entries} entries…"));
    let log_dir = tempdir("log", entries);
    // Memo arena sized to the population — the knob `icd
    // --corpus-cache-slots` exposes; an undersized arena would turn
    // every publish into a full-table probe and measure the memo's
    // overflow behavior instead of the storage engine.
    let slots = (2 * entries).next_power_of_two();
    let cold = Corpus::open(CorpusOptions::at(&log_dir).cache_slots(slots)).expect("cold corpus");
    let t0 = Instant::now();
    for i in 0..entries as u64 {
        cold.store(&sample_key(i), &Arc::new(sample_run(i)));
    }
    let log_write_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(cold);
    let t0 = Instant::now();
    let warm = Corpus::open(CorpusOptions::at(&log_dir).cache_slots(slots)).expect("warm corpus");
    let log_open_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        warm.run_count(),
        entries,
        "index rebuild found every record"
    );
    let t0 = Instant::now();
    for (i, key) in &keys {
        let run = warm.lookup(key).expect("log entry present");
        assert_eq!(run.hashes.output_digest, splitmix64(i ^ 0xD1_6E57));
    }
    let log_lookup = t0.elapsed();
    let stats = warm.log_stats().expect("durable corpus has log stats");
    fs::remove_dir_all(&log_dir).expect("log cleanup");

    let flat_lookup_ms = flat_lookup.as_secs_f64() * 1e3;
    let log_lookup_ms = log_lookup.as_secs_f64() * 1e3;
    let warm_speedup_x = flat_lookup_ms / log_lookup_ms.max(f64::EPSILON);
    r.line(format!(
        "{entries} entries: warm lookup {:.0}ns/op flat vs {:.0}ns/op log \
         ({warm_speedup_x:.2}x), cold write {flat_write_ms:.0}ms vs \
         {log_write_ms:.0}ms, log open {log_open_ms:.1}ms over {} segment(s)",
        flat_lookup.as_nanos() as f64 / entries as f64,
        log_lookup.as_nanos() as f64 / entries as f64,
        stats.segments,
    ));
    CorpusBenchRow {
        entries,
        flat_write_ms,
        flat_lookup_ms,
        flat_lookup_ns_per_op: flat_lookup.as_nanos() as u64 / entries as u64,
        log_write_ms,
        log_open_ms,
        log_lookup_ms,
        log_lookup_ns_per_op: log_lookup.as_nanos() as u64 / entries as u64,
        warm_speedup_x,
        segments: stats.segments,
        live_bytes: stats.live_bytes,
    }
}

fn main() -> ExitCode {
    let mut sizes = vec![10_000usize, 100_000];
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--entries" => {
                i += 1;
                let Some(spec) = args.get(i) else {
                    eprintln!("--entries needs N[,N...]");
                    return ExitCode::from(2);
                };
                match spec.split(',').map(str::parse).collect() {
                    Ok(parsed) => sizes = parsed,
                    Err(e) => {
                        eprintln!("bad --entries {spec:?}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            other => {
                eprintln!("unknown argument {other}");
                eprintln!("usage: corpusbench [--entries N[,N...]]");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    if sizes.is_empty() || sizes.contains(&0) {
        eprintln!("--entries needs positive sizes");
        return ExitCode::from(2);
    }
    let r = Reporter::new("corpusbench");
    let rows: Vec<CorpusBenchRow> = sizes.into_iter().map(|n| bench_size(&r, n)).collect();
    instantcheck_bench::write_json("BENCH_corpus", &rows);
    ExitCode::SUCCESS
}
