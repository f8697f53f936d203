//! The engine's store datapath against the paper's hardware model.
//!
//! The engine hashes every store itself: HW-Inc and SW-Inc run the same
//! datapath and differ only in what the cost model charges. This
//! property pins that datapath to `mhm::MhmCore`. Over generated
//! programs, at every checkpoint, the engine's per-thread sums equal a
//! per-thread `MhmCore` fold of the stores an access-observing monitor
//! saw so far. The programs mix setup stores, integer and FP stores,
//! `fetch_add` and `compare_and_swap`, under every rounding mode, and
//! some run under a `StaleRead`/`BitFlip` fault plan, whose corrupted
//! old and new values the monitor sees exactly as the engine hashes
//! them. Free cancellation is pinned by the checker's `Referee` test
//! (`crates/core/src/scheme.rs`), which runs on this datapath too.

use adhash::{FpRound, HashSum};
use mhm::MhmCore;
use minicheck::{check, Gen};
use tsim::{
    Addr, CheckpointInfo, FaultKind, FaultPlan, HashSpec, Monitor, ProgramBuilder, RunConfig,
    StateView, SwitchPolicy, ThreadId, Trigger, ValKind,
};

/// Folds every store it is shown into one `MhmCore` per thread, grown
/// lazily like the engine's sums, and compares the two at every
/// checkpoint.
struct Reference {
    spec: HashSpec,
    cores: Vec<MhmCore>,
    stores: u64,
    checked: u64,
}

impl Reference {
    fn new(rounding: Option<FpRound>) -> Self {
        Reference {
            spec: HashSpec {
                hashing: true,
                rounding,
                accesses: true,
            },
            cores: Vec::new(),
            stores: 0,
            checked: 0,
        }
    }
}

impl Monitor for Reference {
    fn hash_spec(&self) -> HashSpec {
        self.spec
    }

    fn on_store(&mut self, tid: ThreadId, addr: Addr, old: u64, new: u64, kind: ValKind) {
        if self.cores.len() <= tid {
            let mut core = MhmCore::new();
            if let Some(r) = self.spec.rounding {
                core.set_rounding(r);
                core.start_fp_rounding();
            }
            self.cores.resize(tid + 1, core);
        }
        self.cores[tid].on_store(addr.raw(), old, new, kind == ValKind::F64);
        self.stores += 1;
    }

    fn on_checkpoint(&mut self, info: &CheckpointInfo, view: &StateView<'_>) {
        let engine = view.engine_hashes();
        let folded: Vec<HashSum> = self.cores.iter().map(MhmCore::th).collect();
        assert_eq!(engine.sums, folded, "sums at checkpoint {}", info.seq);
        assert_eq!(
            engine.stores, self.stores,
            "stores at checkpoint {}",
            info.seq
        );
        assert_eq!(engine.freed_words, 0);
        self.checked += 1;
    }
}

const WORDS: usize = 8;

/// One generated thread operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Store(usize, u64),
    StoreF64(usize, u64),
    FetchAdd(usize, u64),
    Cas(usize, u64),
    Checkpoint,
}

fn op(g: &mut Gen) -> Op {
    let i = g.usize_in(0, WORDS);
    match g.u64_in(0, 10) {
        0..=2 => Op::Store(i, if g.bool() { g.u64() } else { g.u64_in(0, 8) }),
        3..=6 => Op::StoreF64(i, fp_bits(g)),
        7 => Op::FetchAdd(i, g.u64_in(1, 4)),
        8 => Op::Cas(i, g.u64_in(0, 4)),
        _ => Op::Checkpoint,
    }
}

/// FP bits: arbitrary finite values, or short decimals that sit on and
/// near the rounding modes' boundaries.
fn fp_bits(g: &mut Gen) -> u64 {
    let v = if g.bool() {
        g.finite_f64()
    } else {
        g.u64_in(0, 4000) as f64 * 0.0005 + if g.bool() { 1e-12 } else { 0.0 }
    };
    v.to_bits()
}

const ROUNDINGS: [Option<FpRound>; 5] = [
    None,
    Some(FpRound::BitExact),
    Some(FpRound::NearestDecimal { digits: 3 }),
    Some(FpRound::FloorDecimal { digits: 2 }),
    Some(FpRound::MaskMantissa { bits: 20 }),
];

#[test]
fn engine_sums_equal_an_mhm_fold_of_the_observed_stores() {
    let mut totals = [0u64; 3]; // checkpoints, runs with faults fired, FP stores
    check("engine_sums_equal_an_mhm_fold", 300, |g| {
        let nthreads = g.usize_in(1, 5);
        let phases = g.usize_in(1, 4);
        let mut b = ProgramBuilder::new(nthreads);
        let ints = b.global("ints", ValKind::U64, WORDS);
        let fps = b.global("fps", ValKind::F64, WORDS);
        let bar = b.barrier();
        let setup: Vec<Op> = g.vec_of(0, 6, op);
        b.setup(move |s| {
            for op in setup {
                match op {
                    Op::Store(i, v) => s.store(ints.at(i), v),
                    Op::StoreF64(i, v) => s.store_f64(fps.at(i), f64::from_bits(v)),
                    _ => {}
                }
            }
        });
        for _ in 0..nthreads {
            let plan: Vec<Vec<Op>> = (0..phases).map(|_| g.vec_of(0, 24, op)).collect();
            totals[2] += plan
                .iter()
                .flatten()
                .filter(|op| matches!(op, Op::StoreF64(..)))
                .count() as u64;
            b.thread(async move |ctx| {
                for phase in plan {
                    for op in phase {
                        match op {
                            Op::Store(i, v) => ctx.store(ints.at(i), v).await,
                            Op::StoreF64(i, v) => ctx.store_f64(fps.at(i), f64::from_bits(v)).await,
                            Op::FetchAdd(i, d) => {
                                ctx.fetch_add(ints.at(i), d).await;
                            }
                            Op::Cas(i, expected) => {
                                ctx.compare_and_swap(ints.at(i), expected, expected + 1)
                                    .await;
                            }
                            Op::Checkpoint => ctx.checkpoint("op").await,
                        }
                    }
                    ctx.barrier(bar).await;
                }
            });
        }
        let switch = *g.pick(&[
            SwitchPolicy::SyncOnly,
            SwitchPolicy::EveryAccess,
            SwitchPolicy::EveryNth(3),
        ]);
        let mut rc = RunConfig::random(g.u64()).with_switch(switch);
        if g.bool() {
            let plan = FaultPlan::new(g.u64())
                .with(FaultKind::StaleRead, Trigger::Rate { num: 1, denom: 5 })
                .with(FaultKind::BitFlip, Trigger::Rate { num: 1, denom: 7 });
            rc = rc.with_faults(plan);
        }
        let rounding = *g.pick(&ROUNDINGS);
        let out = b
            .build()
            .run_with(&rc, Reference::new(rounding))
            .expect("the run completes");
        assert_eq!(out.monitor.checked, out.checkpoints);
        totals[0] += out.checkpoints;
        totals[1] += u64::from(!out.faults.is_empty());
    });
    let [checkpoints, faulted, fp_stores] = totals;
    assert!(checkpoints > 600, "{checkpoints} checkpoints compared");
    assert!(faulted > 30, "{faulted} runs had faults fire");
    assert!(fp_stores > 1000, "{fp_stores} FP stores generated");
}
