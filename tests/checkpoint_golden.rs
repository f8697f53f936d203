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
//! `fast_path_equivalence` compares the engine fast path with the
//! dynamic-dispatch path, but both sides run the same
//! `CheckMonitor::on_checkpoint`, so a fault in the checkpoint path (the
//! ignore-set resolution, the exclusion sums, the traversal, FP
//! rounding) shows on both and cancels. These digests were produced by
//! the straightforward checkpoint path (a fresh resolve per checkpoint,
//! a per-word traversal) and pin its exact output.

use adhash::FpRound;
use instantcheck::{CheckMonitor, DetClass, RunHashes, Scheme};
use tsim::{CheckpointKind, RunConfig};

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

/// The kernel's class rounding, as a campaign over it would configure.
fn class_rounding(class: DetClass, uses_fp: bool) -> Option<FpRound> {
    match class {
        DetClass::FpRounded => Some(FpRound::default()),
        DetClass::IgnoringStructs if uses_fp => Some(FpRound::default()),
        _ => None,
    }
}

fn digest(app: &instantcheck_workloads::AppSpec, scheme: Scheme) -> u64 {
    let variants = [
        class_rounding(app.expected_class, app.uses_fp),
        Some(FpRound::FloorDecimal { digits: 2 }),
        Some(FpRound::MaskMantissa { bits: 20 }),
    ];
    let mut h = 0xc0ff_ee00_0000_0001;
    for rounding in variants {
        for seed in SEEDS {
            let rc = RunConfig::random(seed).with_zero_fill_charged();
            let monitor = CheckMonitor::new(scheme, rounding, app.ignore.clone());
            let out = app
                .build()
                .run_with(&rc, monitor)
                .unwrap_or_else(|e| panic!("{} {scheme:?} seed {seed}: {e}", app.name));
            h = fold_run(h, &out.monitor.into_hashes());
        }
    }
    h
}

#[test]
fn checkpoint_path_matches_the_golden_digests() {
    let apps = instantcheck_workloads::all_scaled();
    assert_eq!(apps.len(), GOLDEN.len());
    let mut table = String::new();
    let mut bad = Vec::new();
    for (app, (name, want)) in apps.iter().zip(GOLDEN) {
        assert_eq!(app.name, name, "kernel order changed");
        let got = SCHEMES.map(|s| digest(app, s));
        table.push_str(&format!(
            "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}]),\n",
            got[0], got[1], got[2]
        ));
        for (i, scheme) in SCHEMES.iter().enumerate() {
            if got[i] != want[i] {
                bad.push(format!("{name} {scheme:?}"));
            }
        }
    }
    assert!(
        bad.is_empty(),
        "checkpoint digests changed for {bad:?}; computed table:\n{table}"
    );
}
