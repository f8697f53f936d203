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

use std::sync::Arc;

use adhash::FpRound;
use instantcheck::{CheckMonitor, DetClass, IgnoreSpec, RunHashes, Scheme};
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

/// `[HwInc, SwInc, SwTr]` digests of [`reuse_program`] over [`SEEDS`] ×
/// the three roundings of [`reuse_digest`], natural and replayed.
const REUSE_GOLDEN: [u64; 3] = [0xbd9aa2e98358a0b6, 0x5fdde11ac412fd31, 0x015e0316effd6413];

/// A program exercising what no Table-1 kernel does: each thread frees a
/// block at an ignored site and reallocates the same base (an exact-size
/// free-list reuse, or the replayed address) at a kept site, and FP words
/// live in a `[U64, F64, F64]`-tagged block written both during setup
/// and by the threads.
fn reuse_program() -> tsim::Program {
    use tsim::{ProgramBuilder, TypeTag, ValKind};

    let mut b = ProgramBuilder::new(3);
    let noise = b.global("noise", ValKind::U64, 5);
    let sums = b.global("sums", ValKind::F64, 3);
    let recs = b.global("recs", ValKind::U64, 1);
    let bar = b.barrier();
    b.setup(move |s| {
        let tag = TypeTag::of(vec![ValKind::U64, ValKind::F64, ValKind::F64]);
        let rec = s.malloc("rec", tag, 9);
        for i in 0..9u64 {
            match i % 3 {
                0 => s.store(rec.offset(i), 10 + i),
                _ => s.store_f64(rec.offset(i), 0.1 * i as f64 + 1e-7),
            }
        }
        s.store(recs.at(0), rec.raw());
        for i in 0..3 {
            s.store_f64(sums.at(i), 1.0 / (i + 7) as f64);
        }
    });
    for t in 0..3u64 {
        b.thread(async move |ctx| {
            // A distinct size per thread, so the reuse below is always
            // this thread's own freed block.
            let len = 4 + t as usize;
            let junk = ctx.malloc("junk", TypeTag::u64s(), len).await;
            for i in 0..len as u64 {
                ctx.store(junk.offset(i), 0xdead + 16 * t + i).await;
            }
            ctx.store(noise.at(t as usize), 100 + t).await;
            let rec = ctx.load(recs.at(0)).await;
            for k in 0..3u64 {
                let w = tsim::Addr(rec).offset(3 * t + k);
                match k {
                    0 => ctx.store(w, 1000 * t + 1).await,
                    _ => {
                        let v = ctx.load_f64(w).await;
                        ctx.store_f64(w, v * 3.0 + 1.0 / (t + 3) as f64).await;
                    }
                }
            }
            ctx.barrier(bar).await;
            ctx.free(junk).await;
            let keep = ctx.malloc("keep", TypeTag::u64s(), len).await;
            assert_eq!(keep, junk, "the freed base must be handed back");
            for i in 0..len as u64 {
                ctx.store(keep.offset(i), 0xbeef + i).await;
            }
            let s = ctx.load_f64(sums.at(t as usize)).await;
            ctx.store_f64(sums.at(t as usize), s + 0.25 / (t + 1) as f64)
                .await;
            ctx.checkpoint("reused").await;
            ctx.barrier(bar).await;
            // Free the kept block too: its words leave the state.
            if t == 1 {
                ctx.free(keep).await;
            }
        });
    }
    b.build()
}

fn reuse_digest(scheme: Scheme) -> u64 {
    let ignore = IgnoreSpec::new()
        .ignore_site("junk")
        .ignore_global_range("noise", 1, 3)
        .ignore_site_offsets("rec", [1]);
    let roundings = [
        Some(FpRound::default()),
        Some(FpRound::FloorDecimal { digits: 2 }),
        Some(FpRound::MaskMantissa { bits: 20 }),
    ];
    let mut h = 0xc0ff_ee00_0000_0002;
    let mut replay = None;
    for rounding in roundings {
        for seed in SEEDS {
            for replayed in [false, true] {
                let mut rc = RunConfig::random(seed).with_zero_fill_charged();
                if replayed {
                    rc = rc.with_alloc_replay(Arc::clone(replay.as_ref().unwrap()));
                }
                let monitor = CheckMonitor::new(scheme, rounding, ignore.clone());
                let out = reuse_program()
                    .run_with(&rc, monitor)
                    .unwrap_or_else(|e| panic!("reuse {scheme:?} seed {seed}: {e}"));
                for ((tid, seq), base) in out.alloc_log.entries() {
                    h = mix(mix(mix(h, tid as u64), seq), base);
                }
                h = mix(h, out.replay_misses);
                h = mix(h, out.zero_fill_instr);
                h = fold_run(h, &out.monitor.into_hashes());
                if replay.is_none() {
                    replay = Some(out.alloc_log);
                }
            }
        }
    }
    h
}

#[test]
fn reuse_and_mixed_tag_program_matches_the_golden_digests() {
    let got = SCHEMES.map(reuse_digest);
    assert_eq!(
        got, REUSE_GOLDEN,
        "reuse digests changed; computed [{:#018x}, {:#018x}, {:#018x}]",
        got[0], got[1], got[2]
    );
}
