//! Every single-bit flip of a stored record — frame bytes included — is
//! caught. The victim sits last in a sealed segment, between a
//! neighbor before it in the same segment and one after it in the
//! active segment. For each bit in turn the log is rebuilt, the flip
//! applied, and the corpus reopened:
//!
//! * the victim's key never reads as a hit;
//! * the damage is detected — quarantined at read time (bad checksum,
//!   truncated or malformed), cut by the open-time scan as a torn tail,
//!   or, when the flip moved the record to another fingerprint (an
//!   address nobody asks for), reported corrupt when every live record
//!   is read back ([`Corpus::records`], what `corpus dump` prints);
//! * both neighbors still hit with their original bytes.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use adhash::HashSum;
use corpus::{encode_record, Corpus, CorpusOptions, Corruption};
use instantcheck::{CachedRun, CheckpointRecord, RunCache, RunHashes, RunKey, Scheme};
use tsim::{AllocLog, BarrierId, CheckpointKind, SwitchPolicy};

fn key(seed: u64) -> RunKey {
    RunKey {
        workload: "bitflip:scaled".into(),
        scheme: Scheme::HwInc,
        seed,
        lib_seed: 3,
        switch: SwitchPolicy::SyncOnly,
        max_steps: 10_000,
        rounding: None,
        ignore_token: 0,
        fault_token: 0,
        cache_model: true,
        alloc_seed: None,
    }
}

/// A run with every section present, so the flips cover each one.
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
                    kind: CheckpointKind::Manual("end of phase"),
                    hash: HashSum::from_raw(0x0fed_cba9_8765_4321 ^ seed),
                },
            ],
            output_digest: 77 + seed,
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
        steps: 100,
        native_instr: 200,
        zero_fill_instr: 3,
        alloc_log: Some(Arc::new(log)),
        sim_trace: Some(vec![
            obs::Event::instant(1, 0, "sched").with_arg("tid", 1u64)
        ]),
    }
}

/// Lays the log out by hand: `[before, victim]` sealed, `[after]`
/// active, with `victim` bit-flipped at `bit` (if any).
fn write_log(dir: &Path, records: &[Vec<u8>; 3], bit: Option<usize>) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir.join("segments")).unwrap();
    fs::write(dir.join("format"), "icseg 4\n").unwrap();
    let mut victim = records[1].clone();
    if let Some(bit) = bit {
        victim[bit / 8] ^= 1 << (bit % 8);
    }
    let mut sealed = records[0].clone();
    sealed.extend_from_slice(&victim);
    fs::write(dir.join("segments/seg-00000001.icseg"), sealed).unwrap();
    fs::write(dir.join("segments/seg-00000002.open"), &records[2]).unwrap();
}

#[test]
fn every_bit_flip_of_a_record_is_caught_and_spares_its_neighbors() {
    let dir: PathBuf = std::env::temp_dir().join(format!("corpus-bitflip-{}", std::process::id()));
    let keys = [key(1), key(2), key(3)];
    let records = [0, 1, 2].map(|i| encode_record(&keys[i], &run(i as u64 + 1)));

    // Unflipped, all three hit.
    write_log(&dir, &records, None);
    let clean = Corpus::open(CorpusOptions::at(&dir)).unwrap();
    for (i, key) in keys.iter().enumerate() {
        assert!(clean.lookup(key).is_some(), "record {i} hits when clean");
    }
    drop(clean);

    let (mut quarantined, mut moved) = (0usize, 0usize);
    for bit in 0..records[1].len() * 8 {
        write_log(&dir, &records, Some(bit));
        let corpus = Corpus::open(CorpusOptions::at(&dir)).unwrap();
        assert!(
            corpus.lookup(&keys[1]).is_none(),
            "bit {bit}: a flipped record was served as a hit"
        );
        for i in [0, 2] {
            let hit = corpus
                .lookup(&keys[i])
                .unwrap_or_else(|| panic!("bit {bit}: neighbor {i} lost"));
            assert_eq!(
                encode_record(&keys[i], &hit),
                records[i],
                "bit {bit}: neighbor {i} altered"
            );
        }
        let metrics = corpus.metrics();
        let count = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
        let records = corpus.records().unwrap();
        if count("corpus.quarantined") > 0 {
            assert_eq!(
                count("corpus.quarantined.bad-checksum")
                    + count("corpus.quarantined.truncated")
                    + count("corpus.quarantined.malformed"),
                count("corpus.quarantined"),
                "bit {bit}: unknown quarantine class"
            );
            quarantined += 1;
        } else if records
            .iter()
            .any(|r| matches!(r.content, Err(Corruption::BadChecksum)))
        {
            // Only a fingerprint bit can move the record off its key's
            // address without any read or scan noticing.
            assert!(bit < 128, "bit {bit}: undetected outside the fingerprint");
            moved += 1;
        } else {
            panic!("bit {bit}: the flip went undetected\n{records:?}");
        }
    }
    assert_eq!(moved, 128, "every fingerprint flip is caught on read-back");
    assert_eq!(quarantined + moved, records[1].len() * 8);
    fs::remove_dir_all(&dir).unwrap();
}
