//! Golden checkpoint-path digests.
//!
//! Every scaled Table-1 kernel runs under each checking scheme with
//! three rounding variants — the kernel's class rounding, then
//! `FloorDecimal { digits: 2 }` and `MaskMantissa { bits: 20 }` — always
//! with the kernel's own ignore spec, over a few scheduler seeds. Each
//! run's [`RunHashes`] (checkpoint kinds and hashes, output digest,
//! extra instructions, stores, hash updates) is folded into one digest
//! per (kernel, scheme).
//!
//! Every run also executes with the L1 cache model on. The model only
//! observes: each such run must report every `RunHashes` field but
//! `cache` exactly as the plain run does, and a second digest per
//! (kernel, scheme) folds these runs together with their cache
//! counters, pinning the §3.1 hit/miss numbers under every rounding.
//!
//! `engine_datapath` pins the engine's per-thread store sums, but not
//! what `CheckMonitor::on_checkpoint` makes of them (the ignore-set
//! resolution, the exclusion sums, the traversal, FP rounding). These
//! digests were produced by the straightforward checkpoint path (a
//! fresh resolve per checkpoint, a per-word traversal) and pin its exact
//! output. The L1 digests were recorded while the L1 model still hashed
//! through its own per-thread `MhmCore`s.

use std::sync::Arc;

use adhash::FpRound;
use instantcheck::{CheckMonitor, DetClass, IgnoreSpec, RunHashes, Scheme};
use tsim::{CheckpointKind, RunConfig};

mod common;
use common::reuse_program;

const SEEDS: [u64; 5] = [1, 2, 7, 99, 1234];
const SCHEMES: [Scheme; 3] = [Scheme::HwInc, Scheme::SwInc, Scheme::SwTr];

/// `(kernel, [HwInc, SwInc, SwTr])` digests.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 3]); 17] = [
    ("blackscholes", [0xf7941a0e3a1918a1, 0x8a0ce3c41d01e08b, 0x6b8a0aee405ea7c8]),
    ("fft", [0x678e6dde18cb3cba, 0x7985c63ef7175fac, 0x5e2b51009e89e99e]),
    ("lu", [0xe20c37a3aaa41d9b, 0x00a07c2a16277cb6, 0x5560b8176c1fa824]),
    ("radix", [0x6035c8fe5ef765fe, 0xdb53ef4f5e2b76a3, 0x6e3663bc7a5d0580]),
    ("streamcluster", [0x042850e695b55d7f, 0xc1c57125999a5d88, 0xbae77098b108cba8]),
    ("swaptions", [0x5f2cd274d8d2cf1a, 0xf8f93bb2f322dded, 0xf58e49fedf87d8d4]),
    ("volrend", [0xa3e9206b4ca9f551, 0xa17c5ac736fb727f, 0x5b81f82ae1656617]),
    ("fluidanimate", [0x9610587f313bb3e8, 0x1118e96f106af192, 0x6e1db6a553e69e7a]),
    ("ocean", [0xd772c5a188592e56, 0x18c881cb1f54f4cd, 0x6b27ee3e03c2034e]),
    ("waterNS", [0xcc5b3e420c7e71ba, 0x1ee573b70e0b793c, 0xe2adf5ab4526f62d]),
    ("waterSP", [0xcf21d6845350078f, 0xabe8ab9fafa8b862, 0x7b058adc8d21c634]),
    ("cholesky", [0x68329a34e5abf38d, 0x3d80cd777853c9d7, 0xa0d5873b364a93cf]),
    ("pbzip2", [0x0ccf63ee505465af, 0x3ad8e797f22a43ef, 0x53568cd218a717ce]),
    ("sphinx3", [0x1a9f34909b569f43, 0x19dbc1354e0610d8, 0x50060e843b1c1406]),
    ("barnes", [0x093dd938ea24494a, 0x7734d856e5a61030, 0x841613b1d54ab37b]),
    ("canneal", [0x0b293f9c2a23f083, 0x0ef7b621aae895de, 0xe4b7271aec6e514c]),
    ("radiosity", [0x5e32af79556b11b0, 0x15b36b47f454ec5f, 0xc87f388636fc4def]),
];

/// `(kernel, [HwInc, SwInc, SwTr])` digests of the same runs with the L1
/// model on, each folded by [`fold_l1_run`].
#[rustfmt::skip]
const L1_GOLDEN: [(&str, [u64; 3]); 17] = [
    ("blackscholes", [0x1da24a3d74d0a7ff, 0x2edbab9106514f27, 0x9b73f04e0738a924]),
    ("fft", [0x2243de743098845a, 0x885d7feed1e39fc1, 0x6559664398c4ee75]),
    ("lu", [0x04ee04c46dc6ad7c, 0x9f95c2dc2dc7b447, 0xf74fd6a243868a56]),
    ("radix", [0x9627ede3ed1e6cc4, 0x96c3517ba2bd5f82, 0xe85244f40cc39be4]),
    ("streamcluster", [0x8c15cbd6b26136bc, 0x8ee847c4096bc999, 0x267838e35f8c4efd]),
    ("swaptions", [0xc6b05da120f4d016, 0x533cfbc1c6ad6a12, 0xef172b7f31dc8d6a]),
    ("volrend", [0x7db5314a7dad246b, 0x64b5ec948c852917, 0xa08b07be8b2320c1]),
    ("fluidanimate", [0xccb1cdd2abae3a77, 0x9eb5698e13e63a2f, 0x27991e59c75f8a51]),
    ("ocean", [0x936f25887664a5d5, 0xd1ecdb1198439cef, 0x2b2bec3e2fc34990]),
    ("waterNS", [0x53358ecec96ef277, 0xd625f43cfaa0ca84, 0xf715e0542da94109]),
    ("waterSP", [0x13e966ec1e776ab4, 0xe4a7ed77cedd0329, 0x3d3519f137fd4a0f]),
    ("cholesky", [0xbd6fb25d82fe816e, 0x556615aa807e220f, 0xe3209871245842bc]),
    ("pbzip2", [0x049184335f6612a4, 0xbd8622056edebfb7, 0x658722816c23abc2]),
    ("sphinx3", [0x47515fc5706187bb, 0x28b6a8feb20fe80a, 0xe40adb6cbbc37e25]),
    ("barnes", [0xc4581d5da8c9621b, 0x15aac35b656e21a6, 0x442500773991f579]),
    ("canneal", [0xb09104138202b659, 0x85519c960789003d, 0xbd8fb33f347cdab4]),
    ("radiosity", [0x955bb6eb4a65f511, 0xe5b598c42821e1e5, 0xf11218d1ace13786]),
];

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .rotate_left(29)
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
}

fn fold_run(mut h: u64, r: &RunHashes) -> u64 {
    h = mix(h, r.checkpoints.len() as u64);
    for c in &r.checkpoints {
        let kind = match c.kind {
            CheckpointKind::Barrier(b) => 1 + ((b.index() as u64) << 8),
            CheckpointKind::Manual(name) => name.bytes().fold(2, |k, byte| mix(k, u64::from(byte))),
            CheckpointKind::End => 3,
        };
        h = mix(mix(h, kind), c.hash.as_raw());
    }
    h = mix(h, r.output_digest);
    h = mix(h, r.extra_instr);
    h = mix(h, r.stores);
    mix(h, r.hash_updates)
}

/// [`fold_run`] followed by the run's L1 model counters.
fn fold_l1_run(h: u64, r: &RunHashes) -> u64 {
    let c = r.cache.expect("the L1 model was on");
    [c.hits, c.misses, c.mhm_reads, c.mhm_read_misses]
        .into_iter()
        .fold(fold_run(h, r), mix)
}

/// The L1 model only observes: a run with it on reports every
/// [`RunHashes`] field but `cache` exactly as the plain run does.
fn assert_observation_only(plain: &RunHashes, l1: &RunHashes, what: &str) {
    assert!(
        plain.cache.is_none(),
        "{what}: plain run has cache counters"
    );
    assert!(l1.cache.is_some(), "{what}: L1 run has no cache counters");
    let without_cache = |r: &RunHashes| {
        format!(
            "{:?}",
            RunHashes {
                cache: None,
                ..r.clone()
            }
        )
    };
    assert_eq!(
        without_cache(plain),
        without_cache(l1),
        "{what}: the L1 model changed the run's hashes"
    );
}

/// The kernel's class rounding, as a campaign over it would configure.
fn class_rounding(class: DetClass, uses_fp: bool) -> Option<FpRound> {
    match class {
        DetClass::FpRounded => Some(FpRound::default()),
        DetClass::IgnoringStructs if uses_fp => Some(FpRound::default()),
        _ => None,
    }
}

/// The plain and the L1-model digest of `app` under `scheme`.
fn digests(app: &instantcheck_workloads::AppSpec, scheme: Scheme) -> [u64; 2] {
    let variants = [
        class_rounding(app.expected_class, app.uses_fp),
        Some(FpRound::FloorDecimal { digits: 2 }),
        Some(FpRound::MaskMantissa { bits: 20 }),
    ];
    let mut h = 0xc0ff_ee00_0000_0001;
    let mut h_l1 = 0xc0ff_ee00_0000_0011;
    for rounding in variants {
        for seed in SEEDS {
            let what = format!("{} {scheme:?} {rounding:?} seed {seed}", app.name);
            let rc = RunConfig::random(seed).with_zero_fill_charged();
            let run = |monitor: CheckMonitor| {
                app.build()
                    .run_with(&rc, monitor)
                    .unwrap_or_else(|e| panic!("{what}: {e}"))
                    .monitor
                    .into_hashes()
            };
            let monitor = || CheckMonitor::new(scheme, rounding, app.ignore.clone());
            let plain = run(monitor());
            let l1 = run(monitor().with_cache_model());
            assert_observation_only(&plain, &l1, &what);
            h = fold_run(h, &plain);
            h_l1 = fold_l1_run(h_l1, &l1);
        }
    }
    [h, h_l1]
}

#[test]
fn checkpoint_path_matches_the_golden_digests() {
    let apps = instantcheck_workloads::all_scaled();
    assert_eq!(apps.len(), GOLDEN.len());
    let mut table = String::new();
    let mut l1_table = String::new();
    let mut bad = Vec::new();
    for (i, (app, (name, want))) in apps.iter().zip(GOLDEN).enumerate() {
        assert_eq!(app.name, name, "kernel order changed");
        let (l1_name, l1_want) = L1_GOLDEN[i];
        assert_eq!(l1_name, name, "L1 table order");
        let [got, l1_got] = transpose(SCHEMES.map(|s| digests(app, s)));
        table.push_str(&format!(
            "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}]),\n",
            got[0], got[1], got[2]
        ));
        l1_table.push_str(&format!(
            "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}]),\n",
            l1_got[0], l1_got[1], l1_got[2]
        ));
        for (i, scheme) in SCHEMES.iter().enumerate() {
            if got[i] != want[i] {
                bad.push(format!("{name} {scheme:?}"));
            }
            if l1_got[i] != l1_want[i] {
                bad.push(format!("{name} {scheme:?} + L1"));
            }
        }
    }
    assert!(
        bad.is_empty(),
        "checkpoint digests changed for {bad:?}; computed table:\n{table}\nL1 table:\n{l1_table}"
    );
}

/// Per-scheme `[plain, L1]` pairs to `[plain per scheme, L1 per scheme]`.
fn transpose(d: [[u64; 2]; 3]) -> [[u64; 3]; 2] {
    [d.map(|p| p[0]), d.map(|p| p[1])]
}

/// `[HwInc, SwInc, SwTr]` digests of `reuse_program` over [`SEEDS`] ×
/// the three roundings of [`reuse_digest`], natural and replayed.
const REUSE_GOLDEN: [u64; 3] = [0xbd9aa2e98358a0b6, 0x5fdde11ac412fd31, 0x015e0316effd6413];

/// The same runs with the L1 model on, folded by [`fold_l1_run`].
const REUSE_L1_GOLDEN: [u64; 3] = [0xed806865b25d8a4c, 0xb391294f2dec3a9b, 0x99696d70aec89ab3];

/// The plain and the L1-model digest of `reuse_program` under `scheme`.
fn reuse_digests(scheme: Scheme) -> [u64; 2] {
    let ignore = IgnoreSpec::new()
        .ignore_site("junk")
        .ignore_global_range("noise", 1, 3)
        .ignore_site_offsets("rec", [1]);
    let roundings = [
        Some(FpRound::default()),
        Some(FpRound::FloorDecimal { digits: 2 }),
        Some(FpRound::MaskMantissa { bits: 20 }),
    ];
    let mut h = [0xc0ff_ee00_0000_0002, 0xc0ff_ee00_0000_0012];
    let mut replay = None;
    for rounding in roundings {
        for seed in SEEDS {
            for replayed in [false, true] {
                let mut rc = RunConfig::random(seed).with_zero_fill_charged();
                if replayed {
                    rc = rc.with_alloc_replay(Arc::clone(replay.as_ref().unwrap()));
                }
                let what = format!("reuse {scheme:?} {rounding:?} seed {seed} {replayed}");
                let monitor = || CheckMonitor::new(scheme, rounding, ignore.clone());
                let mut hashes = [None, None];
                for (l1, monitor) in [monitor(), monitor().with_cache_model()]
                    .into_iter()
                    .enumerate()
                {
                    let out = reuse_program()
                        .run_with(&rc, monitor)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    let h = &mut h[l1];
                    for ((tid, seq), base) in out.alloc_log.entries() {
                        *h = mix(mix(mix(*h, tid as u64), seq), base);
                    }
                    *h = mix(*h, out.replay_misses);
                    *h = mix(*h, out.zero_fill_instr);
                    let run = out.monitor.into_hashes();
                    *h = [fold_run, fold_l1_run][l1](*h, &run);
                    hashes[l1] = Some(run);
                    if replay.is_none() {
                        replay = Some(out.alloc_log);
                    }
                }
                let [plain, l1] = hashes.map(Option::unwrap);
                assert_observation_only(&plain, &l1, &what);
            }
        }
    }
    h
}

#[test]
fn reuse_and_mixed_tag_program_matches_the_golden_digests() {
    let [got, l1_got] = transpose(SCHEMES.map(reuse_digests));
    assert_eq!(
        got, REUSE_GOLDEN,
        "reuse digests changed; computed [{:#018x}, {:#018x}, {:#018x}]",
        got[0], got[1], got[2]
    );
    assert_eq!(
        l1_got, REUSE_L1_GOLDEN,
        "reuse L1 digests changed; computed [{:#018x}, {:#018x}, {:#018x}]",
        l1_got[0], l1_got[1], l1_got[2]
    );
}
