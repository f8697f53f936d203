//! Tests of the reader-writer locks and counting semaphores.

use tsim::{ProgramBuilder, RunConfig, SimError, SwitchPolicy, ValKind};

#[test]
fn rwlock_allows_concurrent_readers_and_excludes_writers() {
    // Writers increment a counter; readers verify they never observe a
    // torn intermediate (the writer writes two words that must agree).
    let n = 6;
    for seed in 0..10 {
        let mut b = ProgramBuilder::new(n);
        let pair = b.global("pair", ValKind::U64, 2);
        let rw = b.rwlock();
        for t in 0..n {
            if t < 2 {
                // Writers.
                b.thread(async move |ctx| {
                    for i in 0..10u64 {
                        ctx.write_lock(rw).await;
                        let v = ctx.load(pair.at(0)).await;
                        ctx.store(pair.at(0), v + 1).await;
                        ctx.store(pair.at(1), v + 1).await;
                        ctx.write_unlock(rw).await;
                        let _ = i;
                    }
                });
            } else {
                // Readers.
                b.thread(async move |ctx| {
                    for _ in 0..10 {
                        ctx.read_lock(rw).await;
                        let a = ctx.load(pair.at(0)).await;
                        let bv = ctx.load(pair.at(1)).await;
                        assert_eq!(a, bv, "torn read under the read lock");
                        ctx.read_unlock(rw).await;
                    }
                });
            }
        }
        let out = b
            .build()
            .run(&RunConfig::random(seed).with_switch(SwitchPolicy::EveryAccess))
            .unwrap();
        assert_eq!(out.final_word(pair.at(0)), Some(20), "seed {seed}");
        assert_eq!(out.final_word(pair.at(1)), Some(20), "seed {seed}");
    }
}

#[test]
fn write_unlock_without_hold_is_an_error() {
    let mut b = ProgramBuilder::new(1);
    let rw = b.rwlock();
    b.thread(async move |ctx| ctx.write_unlock(rw).await);
    let err = b.build().run(&RunConfig::random(0)).unwrap_err();
    assert!(
        matches!(err, SimError::RwUnlockNotHeld { write: true, .. }),
        "{err}"
    );
}

#[test]
fn read_unlock_without_hold_is_an_error() {
    let mut b = ProgramBuilder::new(1);
    let rw = b.rwlock();
    b.thread(async move |ctx| ctx.read_unlock(rw).await);
    let err = b.build().run(&RunConfig::random(0)).unwrap_err();
    assert!(
        matches!(err, SimError::RwUnlockNotHeld { write: false, .. }),
        "{err}"
    );
}

#[test]
fn writer_blocks_until_readers_leave() {
    // Reader holds the lock, then a barrier-free handshake through a
    // semaphore lets the writer try; the writer's store must land after
    // the reader's verification.
    let mut b = ProgramBuilder::new(2);
    let g = b.global("g", ValKind::U64, 1);
    let rw = b.rwlock();
    let sem = b.semaphore(0);
    b.thread(async move |ctx| {
        ctx.read_lock(rw).await;
        ctx.sem_post(sem).await; // writer may start trying
        for _ in 0..5 {
            ctx.sched_yield().await;
            assert_eq!(
                ctx.load(g.at(0)).await,
                0,
                "writer broke in past the read lock"
            );
        }
        ctx.read_unlock(rw).await;
    });
    b.thread(async move |ctx| {
        ctx.sem_wait(sem).await;
        ctx.write_lock(rw).await;
        ctx.store(g.at(0), 1).await;
        ctx.write_unlock(rw).await;
    });
    let out = b.build().run(&RunConfig::random(3)).unwrap();
    assert_eq!(out.final_word(g.at(0)), Some(1));
}

#[test]
fn semaphore_bounds_a_resource_pool() {
    // A pool of 2 permits; 5 threads; occupancy must never exceed 2.
    let n = 5;
    for seed in 0..10 {
        let mut b = ProgramBuilder::new(n);
        let occupancy = b.global("occupancy", ValKind::U64, 1);
        let max_seen = b.global("max_seen", ValKind::U64, 1);
        let sem = b.semaphore(2);
        for _ in 0..n {
            b.thread(async move |ctx| {
                for _ in 0..4 {
                    ctx.sem_wait(sem).await;
                    let occ = ctx.fetch_add(occupancy.at(0), 1).await + 1;
                    let seen = ctx.load(max_seen.at(0)).await;
                    if occ > seen {
                        ctx.store(max_seen.at(0), occ).await;
                    }
                    ctx.work(10);
                    ctx.fetch_add(occupancy.at(0), u64::MAX).await; // -1
                    ctx.sem_post(sem).await;
                }
            });
        }
        let out = b.build().run(&RunConfig::random(seed)).unwrap();
        let max = out.final_word(max_seen.at(0)).unwrap();
        assert!(max <= 2, "seed {seed}: occupancy reached {max}");
        assert!(max >= 1);
        assert_eq!(out.final_word(occupancy.at(0)), Some(0));
    }
}

#[test]
fn semaphore_as_signal_orders_work() {
    let mut b = ProgramBuilder::new(2);
    let g = b.global("g", ValKind::U64, 1);
    let sem = b.semaphore(0);
    b.thread(async move |ctx| {
        ctx.store(g.at(0), 7).await;
        ctx.sem_post(sem).await;
    });
    b.thread(async move |ctx| {
        ctx.sem_wait(sem).await;
        assert_eq!(ctx.load(g.at(0)).await, 7);
        ctx.store(g.at(0), 8).await;
    });
    let out = b.build().run(&RunConfig::random(1)).unwrap();
    assert_eq!(out.final_word(g.at(0)), Some(8));
}

#[test]
fn rwlock_deadlock_is_detected() {
    // A thread that write-locks and never unlocks starves the reader.
    let mut b = ProgramBuilder::new(2);
    let rw = b.rwlock();
    b.thread(async move |ctx| {
        ctx.write_lock(rw).await;
        // never unlocks; finishes while holding (a bug in the workload)…
    });
    b.thread(async move |ctx| {
        // …ensure the writer grabs it first.
        for _ in 0..3 {
            ctx.sched_yield().await;
        }
        ctx.read_lock(rw).await;
        ctx.read_unlock(rw).await;
    });
    let script = std::sync::Arc::new(vec![0u32; 2]);
    let result = b
        .build()
        .run(&RunConfig::random(0).with_scheduler(tsim::SchedulerKind::Scripted { script }));
    match result {
        Err(SimError::Deadlock { detail }) => {
            assert!(detail.contains("rwlock"), "{detail}");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}
