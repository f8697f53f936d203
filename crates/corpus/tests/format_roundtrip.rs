//! Property tests of the corpus record format: encode/decode identity,
//! fingerprints that tell apart keys a field step apart, a quarantine
//! classification per corruption class, damaged key blocks read as
//! malformed records — plus the campaign-spec codec
//! the same fingerprints key off: `CampaignSpec` → JSON →
//! `CampaignSpec` is the identity, and each run-content field moves
//! the derived `RunKey` fingerprint while campaign-shape fields
//! (runs, policy, deadline, jobs) deliberately do not.

use std::sync::Arc;

use adhash::{FpRound, HashSum};
use corpus::{decode_record, encode_record, fingerprint_key, frame_record, Corruption, FRAME_LEN};
use instantcheck::{
    CachedRun, CampaignSpec, CheckpointRecord, FailurePolicy, IgnoreSpec, RunHashes, RunKey, Scheme,
};
use minicheck::{check, Gen};
use obs::Event;
use tsim::{AllocLog, BarrierId, CheckpointKind, FaultPlan, SwitchPolicy, Trigger, FAULT_KINDS};

/// A workload id with spaces, percent signs, tabs, separators and
/// plain alphanumerics — bytes a text format would have to escape.
fn gen_workload(g: &mut Gen) -> String {
    let alphabet = [
        "app", " ", "%", "%25", "\t", "x1", ":scaled", "_", "=", ";", "b",
    ];
    let parts = g.vec_of(1, 6, |g| *g.pick(&alphabet));
    parts.concat()
}

fn gen_key(g: &mut Gen) -> RunKey {
    RunKey {
        workload: gen_workload(g),
        scheme: *g.pick(&[Scheme::Native, Scheme::HwInc, Scheme::SwInc, Scheme::SwTr]),
        seed: g.u64(),
        lib_seed: g.u64(),
        switch: *g.pick(&[
            SwitchPolicy::SyncOnly,
            SwitchPolicy::EveryAccess,
            SwitchPolicy::EveryNth(3),
        ]),
        max_steps: g.u64_in(1, 1 << 40),
        rounding: match g.usize_in(0, 3) {
            0 => None,
            1 => Some(FpRound::BitExact),
            _ => Some(FpRound::MaskMantissa {
                bits: g.u64_in(1, 52) as u32,
            }),
        },
        ignore_token: g.u64(),
        fault_token: g.u64(),
        cache_model: g.bool(),
        alloc_seed: g.bool().then(|| g.u64()),
    }
}

fn gen_run(g: &mut Gen) -> CachedRun {
    let checkpoints = g.vec_of(0, 8, |g| CheckpointRecord {
        kind: match g.usize_in(0, 3) {
            0 => CheckpointKind::Barrier(BarrierId::from_index(g.usize_in(0, 16))),
            1 => {
                const LABELS: [&str; 3] = ["iter end", "phase 2", "a%b"];
                CheckpointKind::Manual(LABELS[g.usize_in(0, LABELS.len())])
            }
            _ => CheckpointKind::End,
        },
        hash: HashSum::from_raw(g.u64()),
    });
    let cache = g.bool().then(|| mhm::CacheStats {
        hits: g.u64(),
        misses: g.u64(),
        mhm_reads: g.u64(),
        mhm_read_misses: g.u64(),
    });
    let alloc_log = g.bool().then(|| {
        let mut log = AllocLog::default();
        for _ in 0..g.usize_in(0, 10) {
            log.insert(g.usize_in(0, 8), g.u64_in(0, 64), g.u64());
        }
        Arc::new(log)
    });
    let sim_trace = g.bool().then(|| {
        g.vec_of(0, 6, |g| {
            let mut ev = Event::instant(g.u64(), g.u32(), "sched");
            if g.bool() {
                ev = ev.with_arg("tid", g.u64()).with_arg("why", "preempt");
            }
            ev
        })
    });
    CachedRun {
        hashes: RunHashes {
            checkpoints,
            output_digest: g.u64(),
            extra_instr: g.u64(),
            stores: g.u64(),
            hash_updates: g.u64(),
            cache,
        },
        steps: g.u64(),
        native_instr: g.u64(),
        zero_fill_instr: g.u64(),
        alloc_log,
        sim_trace,
    }
}

#[test]
fn encode_decode_is_the_identity() {
    check("corpus_encode_decode_identity", 128, |g: &mut Gen| {
        let key = gen_key(g);
        let run = gen_run(g);
        let bytes = encode_record(&key, &run);
        let (stored, decoded) = decode_record(&bytes).unwrap_or_else(|why| {
            panic!("fresh record failed to decode: {why}\n{bytes:?}");
        });
        assert_eq!(stored, key, "the key round-trips");
        // Encoding is a pure function of (key, run), so decode is the
        // identity exactly when re-encoding reproduces the bytes.
        assert_eq!(
            encode_record(&key, &decoded),
            bytes,
            "decoded run re-encodes identically"
        );
    });
}

#[test]
fn keys_a_step_apart_fingerprint_apart() {
    check("corpus_fingerprint_steps", 256, |g: &mut Gen| {
        let key = gen_key(g);
        // One or two fields stepped by one, as the keys of campaigns
        // with adjacent base seeds are.
        let mut other = key.clone();
        for _ in 0..g.usize_in(1, 3) {
            match g.usize_in(0, 6) {
                0 => other.workload.push('!'),
                1 => other.seed = other.seed.wrapping_add(1),
                2 => other.lib_seed = other.lib_seed.wrapping_sub(1),
                3 => other.max_steps += 1,
                4 => other.cache_model = !other.cache_model,
                _ => other.alloc_seed = Some(other.alloc_seed.map_or(0, |s| s.wrapping_add(1))),
            }
        }
        if other != key {
            assert_ne!(
                fingerprint_key(&key),
                fingerprint_key(&other),
                "{key:?} vs {other:?}"
            );
        }
    });
}

#[test]
fn every_corruption_class_is_detected_and_classified() {
    check("corpus_corruption_classes", 96, |g: &mut Gen| {
        let key = gen_key(g);
        let run = gen_run(g);
        let bytes = encode_record(&key, &run);
        let body = &bytes[FRAME_LEN..];
        match g.usize_in(0, 5) {
            0 => {
                // A flipped frame bit: a fingerprint or checksum bit
                // fails the checksum, a length bit no longer matches
                // the bytes present.
                let mut bad = bytes.clone();
                bad[g.usize_in(0, FRAME_LEN)] ^= 1 << g.usize_in(0, 8);
                assert!(matches!(
                    decode_record(&bad),
                    Err(Corruption::BadChecksum | Corruption::Truncated { .. })
                ));
            }
            1 => {
                // A checksum-valid record framed under another key's
                // fingerprint.
                let other = gen_key(g);
                if other == key {
                    return; // the generator drew the same key twice
                }
                let bad = frame_record(fingerprint_key(&other), body);
                assert!(matches!(decode_record(&bad), Err(Corruption::Malformed(_))));
            }
            2 => {
                // Truncation: drop bytes off the end of the body.
                let keep = g.usize_in(0, body.len());
                let bad = &bytes[..FRAME_LEN + keep];
                match decode_record(bad) {
                    Err(Corruption::Truncated { expected, found }) => {
                        assert_eq!(expected, body.len());
                        assert_eq!(found, keep);
                    }
                    other => panic!("expected Truncated, got {other:?}"),
                }
            }
            3 => {
                // Flip one body byte (same length): the checksum rejects
                // it before any field parse could misread it.
                let at = FRAME_LEN + g.usize_in(0, body.len());
                let mut bad = bytes.clone();
                bad[at] ^= 0x01;
                assert!(matches!(decode_record(&bad), Err(Corruption::BadChecksum)));
            }
            _ => {
                // A valid frame over a junk body: only the field decoder
                // can catch it.
                let junk = vec![0xffu8; 64];
                let bad = frame_record(0, &junk);
                assert!(
                    matches!(decode_record(&bad), Err(Corruption::Malformed(_))),
                    "junk body classified as malformed"
                );
            }
        }
    });
}

/// `record`'s body with its key block replaced by `block`, re-framed
/// under the original fingerprint with a valid checksum.
fn with_key_block(record: &[u8], block: &[u8]) -> Vec<u8> {
    let body = &record[FRAME_LEN..];
    let (mut len, mut at) = (0usize, 0usize);
    loop {
        let b = body[at];
        len |= usize::from(b & 0x7f) << (7 * at);
        at += 1;
        if b & 0x80 == 0 {
            break;
        }
    }
    let mut out = Vec::new();
    let mut n = block.len();
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
    out.extend_from_slice(block);
    out.extend_from_slice(&body[at + len..]);
    let fp = u128::from_le_bytes(record[..16].try_into().unwrap());
    frame_record(fp, &out)
}

#[test]
fn damaged_key_blocks_are_malformed_never_a_panic() {
    check("corpus_damaged_key_blocks", 256, |g: &mut Gen| {
        let key = gen_key(g);
        let record = encode_record(&key, &gen_run(g));
        let good = key.with_bytes(<[u8]>::to_vec);
        let mut bad = good.clone();
        match g.usize_in(0, 5) {
            // Truncated: the fixed part or the workload id cut short.
            0 => bad.truncate(g.usize_in(0, good.len())),
            // An unknown tag in one of the five tag bytes.
            1 => bad[4 + g.usize_in(0, 5)] = 0x80 | g.u32() as u8,
            // Non-canonical: a parameter under a tag that takes none,
            // or a trailing byte.
            2 => {
                bad[5] = 0;
                bad[9] |= 1;
            }
            3 => bad.push(g.u32() as u8),
            // Garbled: random bytes anywhere.
            _ => {
                for _ in 0..g.usize_in(1, 4) {
                    let at = g.usize_in(0, bad.len());
                    bad[at] = g.u32() as u8;
                }
            }
        }
        match decode_record(&with_key_block(&record, &bad)) {
            Ok((stored, _)) => {
                assert_eq!(bad, good, "only the intact block decodes");
                assert_eq!(stored, key);
            }
            Err(Corruption::Malformed(_)) => assert_ne!(bad, good),
            Err(other) => panic!("{bad:?}: expected Malformed, got {other:?}"),
        }
    });
}

fn gen_switch(g: &mut Gen) -> SwitchPolicy {
    match g.usize_in(0, 3) {
        0 => SwitchPolicy::SyncOnly,
        1 => SwitchPolicy::EveryAccess,
        _ => SwitchPolicy::EveryNth(g.u64_in(1, 9) as u32),
    }
}

fn gen_rounding(g: &mut Gen) -> Option<FpRound> {
    match g.usize_in(0, 5) {
        0 => None,
        1 => Some(FpRound::BitExact),
        2 => Some(FpRound::MaskMantissa {
            bits: g.u64_in(1, 52) as u32,
        }),
        3 => Some(FpRound::FloorDecimal {
            digits: g.u64_in(0, 9) as u32,
        }),
        _ => Some(FpRound::NearestDecimal {
            digits: g.u64_in(0, 9) as u32,
        }),
    }
}

fn gen_spec(g: &mut Gen) -> CampaignSpec {
    let scheme = *g.pick(&[Scheme::Native, Scheme::HwInc, Scheme::SwInc, Scheme::SwTr]);
    let mut spec = CampaignSpec::new(gen_workload(g), scheme);
    spec.runs = g.usize_in(1, 64);
    spec.base_seed = g.u64();
    spec.lib_seed = g.u64();
    spec.switch = gen_switch(g);
    spec.rounding = gen_rounding(g);
    if g.bool() {
        spec.ignore = IgnoreSpec::new()
            .ignore_global(gen_workload(g))
            .ignore_site_offsets(gen_workload(g), g.vec_of(0, 4, |g| g.usize_in(0, 64)));
    }
    spec.policy = match g.usize_in(0, 3) {
        0 => FailurePolicy::Abort,
        1 => FailurePolicy::Skip {
            max_failures: g.usize_in(0, 32),
        },
        _ => FailurePolicy::Retry {
            max_retries: g.usize_in(0, 5),
        },
    };
    spec.max_steps = g.u64_in(1, 1 << 40);
    spec.jobs = g.bool().then(|| g.usize_in(1, 16));
    spec.cache_model = g.bool();
    // Fault plans on run slots ≥ 1 only: the fingerprint test below
    // mutates slot 0 and must know it starts fault-free.
    spec.fault_plans = g.vec_of(0, 3, |g| {
        let mut plan = FaultPlan::new(g.u64());
        plan = plan.with(
            *g.pick(&FAULT_KINDS),
            match g.usize_in(0, 3) {
                0 => Trigger::Never,
                1 => Trigger::Nth(g.u64_in(0, 100)),
                _ => Trigger::Rate {
                    num: g.u64_in(1, 4),
                    denom: g.u64_in(4, 64),
                },
            },
        );
        (g.usize_in(1, 8), plan)
    });
    spec
}

#[test]
fn spec_json_round_trip_is_the_identity() {
    check("spec_json_round_trip", 160, |g: &mut Gen| {
        let spec = gen_spec(g);
        let json = spec.to_json();
        let back = CampaignSpec::from_json(&json)
            .unwrap_or_else(|why| panic!("fresh spec failed to parse: {why}\n{json}"));
        assert_eq!(back, spec, "decode is the identity");
        assert_eq!(back.to_json(), json, "re-encode is byte-stable");
    });
}

#[test]
fn each_run_content_field_moves_the_fingerprint_and_shape_fields_do_not() {
    check("spec_field_fingerprints", 128, |g: &mut Gen| {
        let spec = gen_spec(g);
        let fp = |s: &CampaignSpec| fingerprint_key(&s.run_key(0, s.base_seed, None));
        let base = fp(&spec);

        // Every run-content field: a single-field mutation moves the
        // derived run-key fingerprint.
        let mut moved: Vec<(&str, CampaignSpec)> = Vec::new();
        let mut m = spec.clone();
        m.workload.push('!');
        moved.push(("workload", m));
        let mut m = spec.clone();
        m.scheme = match m.scheme {
            Scheme::Native => Scheme::HwInc,
            Scheme::HwInc => Scheme::SwInc,
            Scheme::SwInc => Scheme::SwTr,
            Scheme::SwTr => Scheme::Native,
        };
        moved.push(("scheme", m));
        let mut m = spec.clone();
        m.base_seed = m.base_seed.wrapping_add(1);
        moved.push(("base_seed", m));
        let mut m = spec.clone();
        m.lib_seed = m.lib_seed.wrapping_add(1);
        moved.push(("lib_seed", m));
        let mut m = spec.clone();
        m.switch = match m.switch {
            SwitchPolicy::SyncOnly => SwitchPolicy::EveryAccess,
            SwitchPolicy::EveryAccess => SwitchPolicy::EveryNth(2),
            SwitchPolicy::EveryNth(_) => SwitchPolicy::SyncOnly,
        };
        moved.push(("switch", m));
        let mut m = spec.clone();
        m.rounding = match m.rounding {
            None => Some(FpRound::BitExact),
            Some(_) => None,
        };
        moved.push(("rounding", m));
        let mut m = spec.clone();
        m.ignore = m.ignore.ignore_global("added-by-mutation");
        moved.push(("ignore", m));
        let mut m = spec.clone();
        m.max_steps += 1;
        moved.push(("max_steps", m));
        let mut m = spec.clone();
        m.cache_model = !m.cache_model;
        moved.push(("cache_model", m));
        let mut m = spec.clone();
        m.fault_plans
            .push((0, FaultPlan::new(7).with(FAULT_KINDS[0], Trigger::Nth(3))));
        moved.push(("fault_plans", m));
        for (field, mutated) in &moved {
            assert_ne!(base, fp(mutated), "mutating {field} must move the key");
        }

        // Campaign-shape fields describe how many runs to do and what
        // to do when one fails — not what a run computes — so they are
        // deliberately outside the key: a recorded corpus stays warm
        // when only the campaign shape changes.
        let mut same: Vec<(&str, CampaignSpec)> = Vec::new();
        let mut m = spec.clone();
        m.runs += 1;
        same.push(("runs", m));
        let mut m = spec.clone();
        m.policy = match m.policy {
            FailurePolicy::Abort => FailurePolicy::Skip { max_failures: 3 },
            _ => FailurePolicy::Abort,
        };
        same.push(("policy", m));
        let mut m = spec.clone();
        m.jobs = match m.jobs {
            None => Some(4),
            Some(_) => None,
        };
        same.push(("jobs", m));
        for (field, mutated) in &same {
            assert_eq!(
                base,
                fp(mutated),
                "{field} is campaign shape, not run content"
            );
        }
    });
}
