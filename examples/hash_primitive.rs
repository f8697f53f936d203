//! The hardware primitive on its own (Sections 2.2, 3): per-core
//! incremental hashing, virtualization via save/restore, exclusion of a
//! variable from the hash, and the clustered highly-parallel design —
//! plus a §6.2-style exploration showing why state hashes prune
//! systematic testing better than happens-before.
//!
//! ```sh
//! cargo run --example hash_primitive
//! ```

use instantcheck_explorer::systematic::explore;
use mhm::{isa, ClusterOp, ClusteredMhm, MhmCore};
use tsim::{Program, ProgramBuilder, ValKind};

fn main() {
    // --- Figure 2: interleaving-independent state hashes -------------
    let g = 0x1000;
    let mut run_a = (MhmCore::new(), MhmCore::new());
    run_a.0.on_store(g, 2, 9, false); // thread 0 first
    run_a.1.on_store(g, 9, 12, false);
    let mut run_b = (MhmCore::new(), MhmCore::new());
    run_b.1.on_store(g, 2, 5, false); // thread 1 first
    run_b.0.on_store(g, 5, 12, false);
    println!("Figure 2: per-thread hashes differ across runs:");
    println!("  run A: TH0={} TH1={}", run_a.0.th(), run_a.1.th());
    println!("  run B: TH0={} TH1={}", run_b.0.th(), run_b.1.th());
    println!(
        "  …but the State Hash is identical: {} == {}\n",
        MhmCore::combine([&run_a.0, &run_a.1]),
        MhmCore::combine([&run_b.0, &run_b.1]),
    );

    // --- Figure 4 ISA: context switch + exclusion ---------------------
    let mut core = MhmCore::new();
    let mut mem = std::collections::HashMap::new();
    mem.insert(0x20u64, 7u64); // the store lands in memory…
    core.on_store(0x20, 0, 7, false); // …and the MHM hashes it
    isa::execute(
        &mut core,
        &mut mem,
        isa::Instruction::SaveHash { addr: 0x900 },
    );
    core.reset(); // another thread borrows the core…
    isa::execute(
        &mut core,
        &mut mem,
        isa::Instruction::RestoreHash { addr: 0x900 },
    );
    println!("ISA: TH register survives a context switch: {}", core.th());
    // Delete the variable from the hash: subtract its current value,
    // add back its initial (zero) value — Section 2.2.
    isa::execute_all(
        &mut core,
        &mut mem,
        &[
            isa::Instruction::MinusHash {
                addr: 0x20,
                is_fp: false,
            },
            isa::Instruction::PlusHash {
                addr: 0x20,
                val: 0,
                is_fp: false,
            },
        ],
    );
    println!("ISA: after deleting the variable, TH == {}\n", core.th());

    // --- Figure 3(b): clustered design equivalence --------------------
    let mut clustered = ClusteredMhm::new(4);
    clustered.dispatch(
        3,
        ClusterOp::PlusNew {
            addr: 0x40,
            value: 9,
        },
    );
    clustered.dispatch(
        0,
        ClusterOp::MinusOld {
            addr: 0x40,
            value: 2,
        },
    );
    let mut basic = MhmCore::new();
    basic.on_store(0x40, 2, 9, false);
    println!(
        "Clustered MHM (out-of-order, cross-cluster) == basic design: {}\n",
        clustered.th() == basic.th()
    );

    // --- §6.2: state hashes prune better than happens-before ----------
    fn commuting(n: usize) -> impl Fn() -> Program {
        move || {
            let mut b = ProgramBuilder::new(n);
            let g = b.global("G", ValKind::U64, 1);
            let lock = b.mutex();
            for t in 0..n as u64 {
                b.thread(async move |ctx| {
                    ctx.lock(lock).await;
                    let v = ctx.load(g.at(0)).await;
                    ctx.store(g.at(0), v + 10 * (t + 1)).await;
                    ctx.unlock(lock).await;
                });
            }
            b.build()
        }
    }
    let stats = explore(commuting(3), 100_000).expect("exploration completes");
    println!("Systematic exploration of 3 commuting threads:");
    println!("  schedules executed    : {}", stats.executions);
    println!(
        "  happens-before classes: {} (CHESS must keep these)",
        stats.distinct_hb_classes
    );
    println!(
        "  distinct final states : {} (hash pruning keeps only this)",
        stats.distinct_final_states
    );
}
