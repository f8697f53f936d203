//! End-to-end tests of the simulation engine: scheduling, synchronization,
//! monitoring, replay, and failure modes.

use std::sync::{Arc, Mutex};

use tsim::{
    Addr, CheckpointKind, HashSpec, Monitor, ProgramBuilder, RunConfig, SchedulerKind, SimError,
    SwitchPolicy, ThreadId, TypeTag, ValKind,
};

/// A monitor that records everything it sees (shared so tests can assert
/// on it after the run returns it by value).
type StoreEvent = (ThreadId, Addr, u64, u64, ValKind);

#[derive(Debug, Default, Clone)]
struct Recorder {
    stores: Arc<Mutex<Vec<StoreEvent>>>,
    checkpoints: Arc<Mutex<Vec<CheckpointKind>>>,
    allocs: Arc<Mutex<Vec<(&'static str, usize)>>>,
    outputs: Arc<Mutex<Vec<u8>>>,
}

impl Monitor for Recorder {
    fn on_store(&mut self, tid: ThreadId, addr: Addr, old: u64, new: u64, kind: ValKind) {
        self.stores
            .lock()
            .unwrap()
            .push((tid, addr, old, new, kind));
    }
    fn on_alloc(&mut self, _tid: ThreadId, block: &tsim::BlockInfo) {
        self.allocs.lock().unwrap().push((block.site, block.len));
    }
    fn on_output(&mut self, _tid: ThreadId, bytes: &[u8]) {
        self.outputs.lock().unwrap().extend_from_slice(bytes);
    }
    fn on_checkpoint(&mut self, info: &tsim::CheckpointInfo, _view: &tsim::StateView<'_>) {
        self.checkpoints.lock().unwrap().push(info.kind);
    }
    fn hash_spec(&self) -> HashSpec {
        HashSpec {
            accesses: true,
            ..HashSpec::default()
        }
    }
}

/// The Figure 1 program: two threads do `G += L` under a lock.
fn figure1_program() -> (tsim::Program, tsim::Region) {
    let mut b = ProgramBuilder::new(2);
    let g = b.global("G", ValKind::U64, 1);
    let lock = b.mutex();
    b.setup(move |s| s.store(g.at(0), 2));
    for local in [7u64, 3u64] {
        b.thread(async move |ctx| {
            ctx.lock(lock).await;
            let v = ctx.load(g.at(0)).await;
            ctx.store(g.at(0), v + local).await;
            ctx.unlock(lock).await;
        });
    }
    (b.build(), g)
}

#[test]
fn figure1_final_state_is_deterministic() {
    for seed in 0..20 {
        let (prog, g) = figure1_program();
        let out = prog.run(&RunConfig::random(seed)).unwrap();
        assert_eq!(out.final_word(g.at(0)), Some(12), "seed {seed}");
    }
}

#[test]
fn same_seed_reproduces_decisions_and_instructions() {
    let run = |seed| {
        let (prog, _) = figure1_program();
        prog.run(&RunConfig::random(seed)).unwrap()
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.instr, b.instr);
    assert_eq!(a.steps, b.steps);
}

#[test]
fn different_seeds_reach_different_interleavings() {
    let decisions: Vec<_> = (0..10)
        .map(|seed| {
            let (prog, _) = figure1_program();
            prog.run(&RunConfig::random(seed)).unwrap().decisions
        })
        .collect();
    assert!(
        decisions.windows(2).any(|w| w[0] != w[1]),
        "ten seeds should not all produce the same schedule"
    );
}

#[test]
fn scripted_scheduler_replays_a_run() {
    let (prog, _) = figure1_program();
    let original = prog.run(&RunConfig::random(3).with_trace()).unwrap();

    let (prog2, _) = figure1_program();
    let script = Arc::new(original.decisions.clone());
    let replayed = prog2
        .run(
            &RunConfig::random(0)
                .with_scheduler(SchedulerKind::Scripted { script })
                .with_trace(),
        )
        .unwrap();
    assert_eq!(original.decisions, replayed.decisions);
    assert_eq!(original.trace, replayed.trace);
}

#[test]
fn monitor_observes_stores_with_old_values() {
    let (prog, g) = figure1_program();
    let rec = Recorder::default();
    let out = prog.run_with(&RunConfig::random(1), rec).unwrap();
    let stores = out.monitor.stores.lock().unwrap().clone();
    // setup store (2 over 0) + two increments.
    assert_eq!(stores.len(), 3);
    assert_eq!(stores[0], (0, g.at(0), 0, 2, ValKind::U64));
    let (_, _, old1, new1, _) = stores[1];
    let (_, _, old2, new2, _) = stores[2];
    assert_eq!(old1, 2);
    assert_eq!(new1, old2, "second writer sees first writer's value");
    assert_eq!(new2, 12);
}

#[test]
fn barriers_fire_checkpoints_in_order() {
    let mut b = ProgramBuilder::new(4);
    let bar = b.barrier();
    for _ in 0..4 {
        b.thread(async move |ctx| {
            for _ in 0..3 {
                ctx.barrier(bar).await;
            }
        });
    }
    let rec = Recorder::default();
    let out = b.build().run_with(&RunConfig::random(5), rec).unwrap();
    let cps = out.monitor.checkpoints.lock().unwrap().clone();
    assert_eq!(cps.len(), 4); // 3 barriers + End
    assert!(matches!(cps[0], CheckpointKind::Barrier(_)));
    assert!(matches!(cps[3], CheckpointKind::End));
    assert_eq!(out.checkpoints, 4);
}

#[test]
fn barrier_actually_synchronizes_phases() {
    // Phase 1: each thread writes its slot. Phase 2: each thread reads all
    // slots; the barrier guarantees it sees every phase-1 write.
    let n = 8;
    let mut b = ProgramBuilder::new(n);
    let slots = b.global("slots", ValKind::U64, n);
    let sums = b.global("sums", ValKind::U64, n);
    let bar = b.barrier();
    for tid in 0..n {
        b.thread(async move |ctx| {
            ctx.store(slots.at(tid), (tid as u64) + 1).await;
            ctx.barrier(bar).await;
            let mut sum = 0;
            for i in 0..n {
                sum += ctx.load(slots.at(i)).await;
            }
            ctx.store(sums.at(tid), sum).await;
        });
    }
    let out = b.build().run(&RunConfig::random(11)).unwrap();
    let expect = (1..=n as u64).sum::<u64>();
    for tid in 0..n {
        assert_eq!(out.final_word(sums.at(tid)), Some(expect));
    }
}

#[test]
fn lock_provides_mutual_exclusion_for_rmw_sequences() {
    // Without the lock this increment pattern loses updates under an
    // access-granular scheduler; with the lock it must not.
    let n = 4;
    let iters = 25;
    let mut b = ProgramBuilder::new(n);
    let g = b.global("counter", ValKind::U64, 1);
    let lock = b.mutex();
    for _ in 0..n {
        b.thread(async move |ctx| {
            for _ in 0..iters {
                ctx.lock(lock).await;
                let v = ctx.load(g.at(0)).await;
                ctx.store(g.at(0), v + 1).await;
                ctx.unlock(lock).await;
            }
        });
    }
    let out = b
        .build()
        .run(&RunConfig::random(9).with_switch(SwitchPolicy::EveryAccess))
        .unwrap();
    assert_eq!(out.final_word(g.at(0)), Some((n * iters) as u64));
}

#[test]
fn racy_increments_lose_updates_under_access_preemption() {
    // Sanity-check that the simulator can actually *express* the race:
    // unlocked read-modify-write with preemption at every access must lose
    // updates for some seed.
    let n = 4;
    let iters = 20;
    let mut lost = false;
    for seed in 0..20 {
        let mut b = ProgramBuilder::new(n);
        let g = b.global("counter", ValKind::U64, 1);
        for _ in 0..n {
            b.thread(async move |ctx| {
                for _ in 0..iters {
                    let v = ctx.load(g.at(0)).await;
                    ctx.store(g.at(0), v + 1).await;
                }
            });
        }
        let out = b
            .build()
            .run(&RunConfig::random(seed).with_switch(SwitchPolicy::EveryAccess))
            .unwrap();
        if out.final_word(g.at(0)) != Some((n * iters) as u64) {
            lost = true;
            break;
        }
    }
    assert!(
        lost,
        "expected at least one seed to exhibit the lost update"
    );
}

#[test]
fn fetch_add_is_atomic_even_with_access_preemption() {
    let n = 4;
    let iters = 25;
    let mut b = ProgramBuilder::new(n);
    let g = b.global("counter", ValKind::U64, 1);
    for _ in 0..n {
        b.thread(async move |ctx| {
            for _ in 0..iters {
                ctx.fetch_add(g.at(0), 1).await;
            }
        });
    }
    let out = b
        .build()
        .run(&RunConfig::random(13).with_switch(SwitchPolicy::EveryAccess))
        .unwrap();
    assert_eq!(out.final_word(g.at(0)), Some((n * iters) as u64));
}

#[test]
fn compare_and_swap_takes_effect_once() {
    let mut b = ProgramBuilder::new(2);
    let g = b.global("flag", ValKind::U64, 1);
    let wins = b.global("wins", ValKind::U64, 2);
    for tid in 0..2 {
        b.thread(async move |ctx| {
            let old = ctx.compare_and_swap(g.at(0), 0, tid as u64 + 1).await;
            if old == 0 {
                ctx.store(wins.at(tid), 1).await;
            }
        });
    }
    let out = b.build().run(&RunConfig::random(2)).unwrap();
    let w0 = out.final_word(wins.at(0)).unwrap();
    let w1 = out.final_word(wins.at(1)).unwrap();
    assert_eq!(w0 + w1, 1, "exactly one CAS must win");
}

#[test]
fn condvar_producer_consumer() {
    let mut b = ProgramBuilder::new(3);
    let q = b.global("queue", ValKind::U64, 1); // 0 = empty
    let done = b.global("done", ValKind::U64, 1);
    let consumed = b.global("consumed", ValKind::U64, 2);
    let lock = b.mutex();
    let cv = b.condvar();
    // Producer.
    b.thread(async move |ctx| {
        for item in 1..=10u64 {
            ctx.lock(lock).await;
            while ctx.load(q.at(0)).await != 0 {
                ctx.cond_wait(cv, lock).await;
            }
            ctx.store(q.at(0), item).await;
            ctx.cond_broadcast(cv).await;
            ctx.unlock(lock).await;
        }
        ctx.lock(lock).await;
        ctx.store(done.at(0), 1).await;
        ctx.cond_broadcast(cv).await;
        ctx.unlock(lock).await;
    });
    // Two consumers.
    for i in 0..2 {
        b.thread(async move |ctx| {
            let mut count = 0u64;
            loop {
                ctx.lock(lock).await;
                while ctx.load(q.at(0)).await == 0 && ctx.load(done.at(0)).await == 0 {
                    ctx.cond_wait(cv, lock).await;
                }
                let item = ctx.load(q.at(0)).await;
                if item != 0 {
                    ctx.store(q.at(0), 0).await;
                    count += 1;
                    ctx.cond_broadcast(cv).await;
                    ctx.unlock(lock).await;
                } else {
                    ctx.unlock(lock).await;
                    break;
                }
            }
            ctx.store(consumed.at(i), count).await;
        });
    }
    let out = b.build().run(&RunConfig::random(42)).unwrap();
    let c0 = out.final_word(consumed.at(0)).unwrap();
    let c1 = out.final_word(consumed.at(1)).unwrap();
    assert_eq!(c0 + c1, 10, "all items consumed exactly once");
}

#[test]
fn deadlock_is_detected() {
    let mut b = ProgramBuilder::new(2);
    let l1 = b.mutex();
    let l2 = b.mutex();
    b.thread(async move |ctx| {
        ctx.lock(l1).await;
        for _ in 0..3 {
            ctx.sched_yield().await;
        }
        ctx.lock(l2).await;
        ctx.unlock(l2).await;
        ctx.unlock(l1).await;
    });
    b.thread(async move |ctx| {
        ctx.lock(l2).await;
        for _ in 0..3 {
            ctx.sched_yield().await;
        }
        ctx.lock(l1).await;
        ctx.unlock(l1).await;
        ctx.unlock(l2).await;
    });
    let err = b.build().run(&RunConfig::random(0)).unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    assert!(err.to_string().contains("waits on lock"));
}

#[test]
fn unlock_not_held_is_an_error() {
    let mut b = ProgramBuilder::new(1);
    let l = b.mutex();
    b.thread(async move |ctx| ctx.unlock(l).await);
    let err = b.build().run(&RunConfig::random(0)).unwrap_err();
    assert!(
        matches!(err, SimError::UnlockNotHeld { tid: 0, .. }),
        "{err}"
    );
}

#[test]
fn relock_is_an_error() {
    let mut b = ProgramBuilder::new(1);
    let l = b.mutex();
    b.thread(async move |ctx| {
        ctx.lock(l).await;
        ctx.lock(l).await;
    });
    let err = b.build().run(&RunConfig::random(0)).unwrap_err();
    assert!(matches!(err, SimError::RelockHeld { .. }), "{err}");
}

#[test]
fn bad_address_is_an_error() {
    let mut b = ProgramBuilder::new(1);
    b.thread(async |ctx| {
        ctx.store(Addr(3), 1).await;
    });
    let err = b.build().run(&RunConfig::random(0)).unwrap_err();
    assert!(
        matches!(
            err,
            SimError::BadAddress {
                tid: 0,
                addr: Addr(3)
            }
        ),
        "{err}"
    );
}

#[test]
fn bad_free_is_an_error() {
    let mut b = ProgramBuilder::new(1);
    b.thread(async |ctx| {
        ctx.free(Addr(tsim::HEAP_BASE)).await;
    });
    let err = b.build().run(&RunConfig::random(0)).unwrap_err();
    assert!(matches!(err, SimError::BadFree { .. }), "{err}");
}

#[test]
fn workload_panic_is_reported() {
    let mut b = ProgramBuilder::new(2);
    let bar = b.barrier();
    b.thread(async move |_ctx| panic!("assertion blew up"));
    b.thread(async move |ctx| ctx.barrier(bar).await);
    let err = b.build().run(&RunConfig::random(0)).unwrap_err();
    match err {
        SimError::ThreadPanic { tid: 0, message } => {
            assert!(message.contains("assertion blew up"));
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn step_limit_stops_livelock() {
    let mut b = ProgramBuilder::new(1);
    b.thread(async |ctx| loop {
        ctx.sched_yield().await;
    });
    let err = b
        .build()
        .run(&RunConfig::random(0).with_max_steps(1000))
        .unwrap_err();
    assert!(matches!(err, SimError::StepLimit { limit: 1000 }), "{err}");
}

#[test]
fn spin_loop_on_plain_loads_cannot_hang_the_engine() {
    // The forced-preemption backstop must let the flag-setting thread run
    // even under SyncOnly switching.
    let mut b = ProgramBuilder::new(2);
    let flag = b.global("flag", ValKind::U64, 1);
    b.thread(async move |ctx| {
        while ctx.load(flag.at(0)).await == 0 {
            ctx.work(1);
        }
    });
    b.thread(async move |ctx| {
        ctx.store(flag.at(0), 1).await;
    });
    // Force the spinner to start first via a script preferring thread 0.
    let script = Arc::new(vec![0u32; 3]);
    let out = b
        .build()
        .run(&RunConfig::random(0).with_scheduler(SchedulerKind::Scripted { script }))
        .unwrap();
    assert_eq!(out.final_word(flag.at(0)), Some(1));
}

#[test]
fn malloc_free_lifecycle_is_observed() {
    let mut b = ProgramBuilder::new(1);
    b.thread(async |ctx| {
        let p = ctx.malloc("nodes", TypeTag::u64s(), 3).await;
        ctx.store(p, 10).await;
        ctx.store(p.offset(2), 30).await;
        ctx.free(p).await;
        let q = ctx.malloc("nodes", TypeTag::u64s(), 3).await;
        // Reused memory is zero-filled.
        assert_eq!(ctx.load(q).await, 0);
        assert_eq!(ctx.load(q.offset(2)).await, 0);
        ctx.store(q.offset(1), 7).await;
        let r = ctx.malloc("edges", TypeTag::u64s(), 2).await;
        ctx.free(r).await;
    });
    let rec = Recorder::default();
    let out = b
        .build()
        .run_with(&RunConfig::random(0).with_trace(), rec)
        .unwrap();
    assert_eq!(
        out.monitor.allocs.lock().unwrap().as_slice(),
        &[("nodes", 3), ("nodes", 3), ("edges", 2)]
    );
    // The freed blocks leave the live state; the reused one is live.
    let view = out.final_state();
    let live: Vec<_> = view.blocks().map(|b| (b.site, b.len)).collect();
    assert_eq!(live, [("nodes", 3)]);
    let regions: Vec<_> = view.live_regions().map(|(_, w, _)| w.to_vec()).collect();
    assert_eq!(regions, [vec![0, 7, 0]]);
    let trace = out.trace.expect("trace requested");
    let allocs: Vec<_> = trace
        .events()
        .iter()
        .filter_map(|e| match e.op {
            tsim::TraceOp::Alloc { base, .. } => Some(base),
            _ => None,
        })
        .collect();
    let frees: Vec<_> = trace
        .events()
        .iter()
        .filter_map(|e| match e.op {
            tsim::TraceOp::Free { base } => Some(base),
            _ => None,
        })
        .collect();
    assert_eq!(
        frees,
        [allocs[0], allocs[2]],
        "each free is traced at its base"
    );
}

#[test]
fn alloc_replay_fixes_addresses_across_schedules() {
    let build = || {
        let mut b = ProgramBuilder::new(2);
        let ptrs = b.global("ptrs", ValKind::U64, 2);
        for tid in 0..2usize {
            b.thread(async move |ctx| {
                // Interleaving-dependent allocation order.
                let p = ctx.malloc("buf", TypeTag::u64s(), 4 + tid).await;
                ctx.store(ptrs.at(tid), p.raw()).await;
            });
        }
        (b.build(), ptrs)
    };

    // Find two seeds with different allocation orders.
    let (p1, ptrs) = build();
    let out1 = p1.run(&RunConfig::random(0)).unwrap();
    let mut out2 = None;
    for seed in 1..50 {
        let (p2, _) = build();
        let o = p2.run(&RunConfig::random(seed)).unwrap();
        if o.final_word(ptrs.at(0)) != out1.final_word(ptrs.at(0)) {
            out2 = Some((seed, o));
            break;
        }
    }
    let (seed2, out2) = out2.expect("some schedule must swap the allocation order");
    assert_ne!(out1.final_word(ptrs.at(0)), out2.final_word(ptrs.at(0)));

    // Replaying run 1's allocations under run 2's seed restores run 1's
    // addresses.
    let (p3, _) = build();
    let out3 = p3
        .run(&RunConfig::random(seed2).with_alloc_replay(out1.alloc_log.clone()))
        .unwrap();
    assert_eq!(out1.final_word(ptrs.at(0)), out3.final_word(ptrs.at(0)));
    assert_eq!(out1.final_word(ptrs.at(1)), out3.final_word(ptrs.at(1)));
    assert_eq!(out3.replay_misses, 0);
}

#[test]
fn lib_replay_fixes_rand_and_time() {
    let build = || {
        let mut b = ProgramBuilder::new(1);
        let g = b.global("vals", ValKind::U64, 2);
        b.thread(async move |ctx| {
            let r = ctx.rand_u64();
            let t = ctx.gettimeofday();
            ctx.store(g.at(0), r).await;
            ctx.store(g.at(1), t).await;
        });
        (b.build(), g)
    };
    let (p1, g) = build();
    let out1 = p1.run(&RunConfig::random(0).with_lib_seed(111)).unwrap();
    let (p2, _) = build();
    let out2 = p2.run(&RunConfig::random(0).with_lib_seed(222)).unwrap();
    assert_ne!(out1.final_word(g.at(0)), out2.final_word(g.at(0)));

    let (p3, _) = build();
    let out3 = p3
        .run(
            &RunConfig::random(0)
                .with_lib_seed(222)
                .with_lib_replay(out1.lib_log.clone()),
        )
        .unwrap();
    assert_eq!(out1.final_word(g.at(0)), out3.final_word(g.at(0)));
    assert_eq!(out1.final_word(g.at(1)), out3.final_word(g.at(1)));
}

#[test]
fn output_stream_is_collected_and_observed() {
    let mut b = ProgramBuilder::new(2);
    let lock = b.mutex();
    for tid in 0..2u8 {
        b.thread(async move |ctx| {
            ctx.lock(lock).await;
            ctx.write_output(&[tid; 4]).await;
            ctx.unlock(lock).await;
        });
    }
    let rec = Recorder::default();
    let out = b.build().run_with(&RunConfig::random(3), rec).unwrap();
    assert_eq!(out.output.len(), 8);
    assert_eq!(out.monitor.outputs.lock().unwrap().len(), 8);
}

#[test]
fn manual_checkpoints_fire() {
    let mut b = ProgramBuilder::new(1);
    b.thread(async |ctx| {
        for _ in 0..5 {
            ctx.checkpoint("iteration").await;
        }
    });
    let rec = Recorder::default();
    let out = b.build().run_with(&RunConfig::random(0), rec).unwrap();
    let cps = out.monitor.checkpoints.lock().unwrap().clone();
    assert_eq!(cps.len(), 6);
    assert!(matches!(cps[0], CheckpointKind::Manual("iteration")));
}

#[test]
fn trace_records_the_serialized_execution() {
    let (prog, _) = figure1_program();
    let out = prog.run(&RunConfig::random(1).with_trace()).unwrap();
    let trace = out.trace.expect("trace requested");
    assert!(!trace.is_empty());
    let locks = trace
        .events()
        .iter()
        .filter(|e| matches!(e.op, tsim::TraceOp::Lock(_)))
        .count();
    assert_eq!(locks, 2);
    assert_eq!(trace.accesses().count(), 4, "2 loads + 2 stores");
}

#[test]
fn f64_roundtrip_through_memory() {
    let mut b = ProgramBuilder::new(1);
    let g = b.global("x", ValKind::F64, 1);
    b.thread(async move |ctx| {
        ctx.store_f64(g.at(0), 3.5).await;
        let v = ctx.load_f64(g.at(0)).await;
        ctx.store_f64(g.at(0), v * 2.0).await;
    });
    let out = b.build().run(&RunConfig::random(0)).unwrap();
    assert_eq!(out.final_f64(g.at(0)), Some(7.0));
}

#[test]
fn instruction_counts_are_per_thread_and_work_is_charged() {
    let mut b = ProgramBuilder::new(2);
    let g = b.global("g", ValKind::U64, 2);
    b.thread(async move |ctx| {
        ctx.work(100);
        ctx.store(g.at(0), 1).await;
    });
    b.thread(async move |ctx| {
        ctx.store(g.at(1), 1).await;
    });
    let out = b.build().run(&RunConfig::random(0)).unwrap();
    assert_eq!(out.instr[0], 101);
    assert_eq!(out.instr[1], 1);
    assert_eq!(out.total_instructions(), 102);
}

#[test]
fn zero_fill_charging_is_conditional() {
    let build = || {
        let mut b = ProgramBuilder::new(1);
        b.thread(async |ctx| {
            let _ = ctx.malloc("big", TypeTag::u64s(), 1000).await;
        });
        b.build()
    };
    let native = build().run(&RunConfig::random(0)).unwrap();
    assert_eq!(native.zero_fill_instr, 0);
    let checked = build()
        .run(&RunConfig::random(0).with_zero_fill_charged())
        .unwrap();
    assert_eq!(checked.zero_fill_instr, 1000);
    // The *native* instruction counts are identical either way.
    assert_eq!(native.total_instructions(), checked.total_instructions());
}

#[test]
fn final_state_view_exposes_live_blocks_only() {
    let mut b = ProgramBuilder::new(1);
    let keep = b.global("keep", ValKind::U64, 1);
    b.thread(async move |ctx| {
        let dead = ctx.malloc("dead", TypeTag::u64s(), 2).await;
        let live = ctx.malloc("live", TypeTag::f64s(), 2).await;
        ctx.store(dead, 1).await;
        ctx.store_f64(live, 2.0).await;
        ctx.store(keep.at(0), live.raw()).await;
        ctx.free(dead).await;
    });
    let out = b.build().run(&RunConfig::random(0)).unwrap();
    let view = out.final_state();
    assert_eq!(view.blocks().count(), 1);
    assert_eq!(view.blocks_at_site("live").count(), 1);
    assert_eq!(view.blocks_at_site("dead").count(), 0);
    // 1 global + 2 live heap words.
    assert_eq!(view.live_word_count(), 3);
    assert_eq!(view.global("keep").unwrap().region.len, 1);
}

#[test]
fn pct_scheduler_runs_programs() {
    let (prog, g) = figure1_program();
    let out = prog
        .run(&RunConfig::random(0).with_scheduler(SchedulerKind::Pct {
            seed: 4,
            depth: 3,
            expected_steps: 50,
        }))
        .unwrap();
    assert_eq!(out.final_word(g.at(0)), Some(12));
}

#[test]
fn round_robin_scheduler_runs_programs() {
    let (prog, g) = figure1_program();
    let out = prog
        .run(&RunConfig::random(0).with_scheduler(SchedulerKind::RoundRobin))
        .unwrap();
    assert_eq!(out.final_word(g.at(0)), Some(12));
}
