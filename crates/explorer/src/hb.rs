//! Vector clocks and happens-before analysis over recorded traces.
//!
//! This is the substrate CHESS-style tools use to identify equivalent
//! interleavings (and the paper's comparison point in §6.2): two
//! serialized executions are HB-equivalent if they order the *same
//! conflicting operations* the same way, even if independent operations
//! are interleaved differently.

use std::collections::HashMap;

use tsim::{Addr, ThreadId, Trace, TraceOp};

/// A vector clock (one logical clock per thread).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorClock {
    clocks: Vec<u64>,
}

impl VectorClock {
    /// The zero clock for `n` threads.
    pub fn new(n: usize) -> Self {
        VectorClock { clocks: vec![0; n] }
    }

    /// This clock's component for `tid`.
    pub fn get(&self, tid: ThreadId) -> u64 {
        self.clocks.get(tid).copied().unwrap_or(0)
    }

    /// Advances `tid`'s own component.
    pub fn tick(&mut self, tid: ThreadId) {
        self.clocks[tid] += 1;
    }

    /// Joins (pointwise max) another clock into this one.
    pub fn join(&mut self, other: &VectorClock) {
        for (a, b) in self.clocks.iter_mut().zip(&other.clocks) {
            *a = (*a).max(*b);
        }
    }

    /// Returns `true` if `self` happens-before-or-equals `other`.
    pub fn le(&self, other: &VectorClock) -> bool {
        self.clocks.iter().zip(&other.clocks).all(|(a, b)| a <= b)
    }
}

/// One detected data race: two accesses to the same address, at least
/// one a write, unordered by happens-before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Race {
    /// The racing address.
    pub addr: Addr,
    /// Trace index of the earlier access (in this serialization).
    pub first_index: u64,
    /// Thread of the earlier access.
    pub first_tid: ThreadId,
    /// Whether the earlier access was a write.
    pub first_is_write: bool,
    /// Trace index of the later access.
    pub second_index: u64,
    /// Thread of the later access.
    pub second_tid: ThreadId,
    /// Whether the later access was a write.
    pub second_is_write: bool,
}

#[derive(Debug, Clone)]
struct Access {
    tid: ThreadId,
    vc: VectorClock,
    index: u64,
}

/// The result of a happens-before pass over one trace.
#[derive(Debug)]
pub struct HbAnalysis {
    /// All detected races (unordered conflicting access pairs).
    pub races: Vec<Race>,
    /// A canonical fingerprint of the happens-before equivalence class
    /// (see [`hb_signature`]).
    pub signature: u64,
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Runs the vector-clock pass: computes races and the HB signature.
///
/// Synchronization edges: lock release→acquire, barrier (full join of
/// all arrivers at release), atomic RMW (acquire+release on a per-address
/// object), allocation (the allocator's internal lock), and output (the
/// stream lock). Condition variables synchronize through their paired
/// lock (the wait's re-acquire appears as an ordinary `Lock` event).
pub fn analyze(trace: &Trace, nthreads: usize) -> HbAnalysis {
    let mut threads: Vec<VectorClock> = (0..nthreads).map(|_| VectorClock::new(nthreads)).collect();
    // Give each thread a distinct starting tick so epochs are usable.
    for (t, vc) in threads.iter_mut().enumerate() {
        vc.tick(t);
    }
    let mut locks: HashMap<usize, VectorClock> = HashMap::new();
    let mut atomics: HashMap<u64, VectorClock> = HashMap::new();
    let mut allocator = VectorClock::new(nthreads);
    let mut output = VectorClock::new(nthreads);
    let mut barrier_pending: HashMap<usize, (VectorClock, Vec<ThreadId>)> = HashMap::new();

    // Race state per address.
    let mut last_write: HashMap<u64, Access> = HashMap::new();
    let mut reads: HashMap<u64, Vec<Access>> = HashMap::new();
    let mut races = Vec::new();

    // Signature state: per-object operation sequences (hashed), and
    // per-address conflict sequences.
    let mut obj_seq: HashMap<u64, u64> = HashMap::new();
    let mut addr_seq: HashMap<u64, (u64, u64)> = HashMap::new(); // (hash, pending read set)

    let mut bump_obj = |key: u64, tid: ThreadId, op: u64| {
        let h = obj_seq.entry(key).or_insert(0x9e37_79b9);
        *h = mix(*h ^ mix(tid as u64 + 1) ^ op);
    };

    for e in trace.events() {
        let t = e.tid;
        match e.op {
            TraceOp::Lock(l) => {
                if let Some(vc) = locks.get(&l.index()) {
                    let vc = vc.clone();
                    threads[t].join(&vc);
                }
                threads[t].tick(t);
                bump_obj(1 << 40 | l.index() as u64, t, 1);
            }
            TraceOp::Unlock(l) => {
                threads[t].tick(t);
                locks
                    .entry(l.index())
                    .or_insert_with(|| VectorClock::new(nthreads))
                    .join(&threads[t]);
                bump_obj(1 << 40 | l.index() as u64, t, 2);
            }
            TraceOp::BarrierArrive(b) => {
                let entry = barrier_pending
                    .entry(b.index())
                    .or_insert_with(|| (VectorClock::new(nthreads), Vec::new()));
                entry.0.join(&threads[t]);
                entry.1.push(t);
                bump_obj(2 << 40 | b.index() as u64, t, 3);
            }
            TraceOp::BarrierRelease(b) => {
                if let Some((vc, arrived)) = barrier_pending.remove(&b.index()) {
                    for a in arrived {
                        threads[a].join(&vc);
                        threads[a].tick(a);
                    }
                }
            }
            TraceOp::CondWait(c, _l) => {
                // The lock release is implied here; the re-acquire shows
                // up as a separate Lock event.
                threads[t].tick(t);
                locks
                    .entry(usize::MAX - c.index())
                    .or_insert_with(|| VectorClock::new(nthreads))
                    .join(&threads[t]);
            }
            TraceOp::CondSignal(_) | TraceOp::CondBroadcast(_) => {
                threads[t].tick(t);
            }
            TraceOp::Rmw(a) => {
                if let Some(vc) = atomics.get(&a.raw()) {
                    let vc = vc.clone();
                    threads[t].join(&vc);
                }
                threads[t].tick(t);
                atomics
                    .entry(a.raw())
                    .or_insert_with(|| VectorClock::new(nthreads))
                    .join(&threads[t]);
                bump_obj(3 << 40 | a.raw(), t, 4);
                record_write(
                    a,
                    t,
                    e.index,
                    &threads,
                    &mut last_write,
                    &mut reads,
                    &mut races,
                );
                bump_conflict(&mut addr_seq, a, t, true);
            }
            TraceOp::Alloc { .. } | TraceOp::Free { .. } => {
                threads[t].join(&allocator.clone());
                threads[t].tick(t);
                allocator.join(&threads[t]);
            }
            TraceOp::Output { .. } => {
                threads[t].join(&output.clone());
                threads[t].tick(t);
                output.join(&threads[t]);
                bump_obj(4 << 40, t, 5);
            }
            TraceOp::Load(a) => {
                if let Some(w) = last_write.get(&a.raw()) {
                    if !w.vc.le(&threads[t]) {
                        races.push(Race {
                            addr: a,
                            first_index: w.index,
                            first_tid: w.tid,
                            first_is_write: true,
                            second_index: e.index,
                            second_tid: t,
                            second_is_write: false,
                        });
                    }
                }
                reads.entry(a.raw()).or_default().push(Access {
                    tid: t,
                    vc: threads[t].clone(),
                    index: e.index,
                });
                bump_conflict(&mut addr_seq, a, t, false);
            }
            TraceOp::Store(a) => {
                record_write(
                    a,
                    t,
                    e.index,
                    &threads,
                    &mut last_write,
                    &mut reads,
                    &mut races,
                );
                bump_conflict(&mut addr_seq, a, t, true);
            }
            TraceOp::Checkpoint { .. } => {}
            // Reader-writer locks: modeled conservatively as a single
            // sync object (read-side critical sections are ordered with
            // each other too; this over-approximates HB but never
            // reports a false race).
            TraceOp::RwReadLock(l) | TraceOp::RwWriteLock(l) => {
                let key = usize::MAX / 2 - l.index();
                if let Some(vc) = locks.get(&key) {
                    let vc = vc.clone();
                    threads[t].join(&vc);
                }
                threads[t].tick(t);
                bump_obj(5 << 40 | l.index() as u64, t, 6);
            }
            TraceOp::RwReadUnlock(l) | TraceOp::RwWriteUnlock(l) => {
                let key = usize::MAX / 2 - l.index();
                threads[t].tick(t);
                locks
                    .entry(key)
                    .or_insert_with(|| VectorClock::new(nthreads))
                    .join(&threads[t]);
                bump_obj(5 << 40 | l.index() as u64, t, 7);
            }
            // Semaphores: a post releases, a successful wait acquires.
            TraceOp::SemPost(sem) => {
                let key = usize::MAX / 4 - sem.index();
                threads[t].tick(t);
                locks
                    .entry(key)
                    .or_insert_with(|| VectorClock::new(nthreads))
                    .join(&threads[t]);
                bump_obj(6 << 40 | sem.index() as u64, t, 8);
            }
            TraceOp::SemWait(sem) => {
                let key = usize::MAX / 4 - sem.index();
                if let Some(vc) = locks.get(&key) {
                    let vc = vc.clone();
                    threads[t].join(&vc);
                }
                threads[t].tick(t);
                bump_obj(6 << 40 | sem.index() as u64, t, 9);
            }
            // `TraceOp` is non-exhaustive: future ops carry no HB edges
            // until taught here.
            _ => {}
        }
    }

    // Combine per-object and per-address sequence hashes (order across
    // objects is irrelevant — they commute — so use modular addition).
    let mut signature = 0u64;
    for (&k, &h) in &obj_seq {
        signature = signature.wrapping_add(mix(k).wrapping_mul(h | 1));
    }
    for (&a, &(h, pending)) in &addr_seq {
        signature = signature.wrapping_add(mix(a ^ 0xabcd).wrapping_mul(mix(h ^ pending) | 1));
    }

    races.sort_by_key(|r| (r.addr, r.first_index, r.second_index));
    races.dedup_by_key(|r| {
        (
            r.addr,
            r.first_tid,
            r.second_tid,
            r.first_is_write,
            r.second_is_write,
        )
    });
    HbAnalysis { races, signature }
}

/// Shorthand: just the HB-equivalence fingerprint of a trace.
pub fn hb_signature(trace: &Trace, nthreads: usize) -> u64 {
    analyze(trace, nthreads).signature
}

#[allow(clippy::too_many_arguments)]
fn record_write(
    a: Addr,
    t: ThreadId,
    index: u64,
    threads: &[VectorClock],
    last_write: &mut HashMap<u64, Access>,
    reads: &mut HashMap<u64, Vec<Access>>,
    races: &mut Vec<Race>,
) {
    if let Some(w) = last_write.get(&a.raw()) {
        if !w.vc.le(&threads[t]) {
            races.push(Race {
                addr: a,
                first_index: w.index,
                first_tid: w.tid,
                first_is_write: true,
                second_index: index,
                second_tid: t,
                second_is_write: true,
            });
        }
    }
    if let Some(rs) = reads.get(&a.raw()) {
        for r in rs {
            if r.tid != t && !r.vc.le(&threads[t]) {
                races.push(Race {
                    addr: a,
                    first_index: r.index,
                    first_tid: r.tid,
                    first_is_write: false,
                    second_index: index,
                    second_tid: t,
                    second_is_write: true,
                });
            }
        }
    }
    reads.remove(&a.raw());
    last_write.insert(
        a.raw(),
        Access {
            tid: t,
            vc: threads[t].clone(),
            index,
        },
    );
}

/// Per-address conflict sequence hashing: consecutive reads between two
/// writes commute, so they are folded as an unordered set; writes are
/// order-sensitive.
fn bump_conflict(addr_seq: &mut HashMap<u64, (u64, u64)>, a: Addr, tid: ThreadId, is_write: bool) {
    let entry = addr_seq.entry(a.raw()).or_insert((0x517c_c1b7, 0));
    if is_write {
        // Fold the pending read set, then the write, order-sensitively.
        entry.0 = mix(entry.0 ^ entry.1);
        entry.1 = 0;
        entry.0 = mix(entry.0 ^ mix(tid as u64 + 0x1000));
    } else {
        // Reads commute: accumulate commutatively.
        entry.1 = entry.1.wrapping_add(mix(tid as u64 + 0x2000));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::{ProgramBuilder, RunConfig, SchedulerKind, SwitchPolicy, ValKind};

    fn run_traced(
        build: impl Fn(&mut ProgramBuilder, tsim::Region),
        seed: u64,
        every_access: bool,
    ) -> (Trace, usize) {
        let mut b = ProgramBuilder::new(2);
        let g = b.global("g", ValKind::U64, 2);
        build(&mut b, g);
        let mut cfg = RunConfig::random(seed).with_trace();
        if every_access {
            cfg = cfg.with_switch(SwitchPolicy::EveryAccess);
        }
        let out = b.build().run(&cfg).unwrap();
        (out.trace.unwrap(), 2)
    }

    #[test]
    fn locked_accesses_do_not_race() {
        let (trace, n) = run_traced(
            |b, g| {
                let l = b.mutex();
                for _ in 0..2 {
                    b.thread(async move |ctx| {
                        ctx.lock(l).await;
                        let v = ctx.load(g.at(0)).await;
                        ctx.store(g.at(0), v + 1).await;
                        ctx.unlock(l).await;
                    });
                }
            },
            3,
            false,
        );
        let hb = analyze(&trace, n);
        assert!(hb.races.is_empty(), "{:?}", hb.races);
    }

    #[test]
    fn unlocked_conflicting_writes_race() {
        let (trace, n) = run_traced(
            |b, g| {
                for t in 0..2u64 {
                    b.thread(async move |ctx| {
                        ctx.store(g.at(0), t + 1).await;
                    });
                }
            },
            3,
            false,
        );
        let hb = analyze(&trace, n);
        assert_eq!(hb.races.len(), 1);
        assert!(hb.races[0].first_is_write && hb.races[0].second_is_write);
        assert_eq!(hb.races[0].addr, Addr(tsim::GLOBALS_BASE));
    }

    #[test]
    fn disjoint_writes_do_not_race() {
        let (trace, n) = run_traced(
            |b, g| {
                for t in 0..2usize {
                    b.thread(async move |ctx| {
                        ctx.store(g.at(t), 1).await;
                    });
                }
            },
            3,
            false,
        );
        assert!(analyze(&trace, n).races.is_empty());
    }

    #[test]
    fn barrier_orders_accesses() {
        let mut b = ProgramBuilder::new(2);
        let g = b.global("g", ValKind::U64, 1);
        let bar = b.barrier();
        b.thread(async move |ctx| {
            ctx.store(g.at(0), 1).await;
            ctx.barrier(bar).await;
        });
        b.thread(async move |ctx| {
            ctx.barrier(bar).await;
            let _ = ctx.load(g.at(0)).await;
        });
        let out = b.build().run(&RunConfig::random(1).with_trace()).unwrap();
        let hb = analyze(&out.trace.unwrap(), 2);
        assert!(hb.races.is_empty(), "{:?}", hb.races);
    }

    #[test]
    fn rmw_synchronizes() {
        let (trace, n) = run_traced(
            |b, g| {
                for _ in 0..2 {
                    b.thread(async move |ctx| {
                        ctx.fetch_add(g.at(0), 1).await;
                    });
                }
            },
            5,
            false,
        );
        assert!(analyze(&trace, n).races.is_empty());
    }

    #[test]
    fn read_write_race_detected() {
        let (trace, n) = run_traced(
            |b, g| {
                b.thread(async move |ctx| {
                    let _ = ctx.load(g.at(0)).await;
                });
                b.thread(async move |ctx| {
                    ctx.store(g.at(0), 9).await;
                });
            },
            2,
            true,
        );
        let hb = analyze(&trace, n);
        assert!(!hb.races.is_empty());
    }

    #[test]
    fn hb_signature_distinguishes_lock_orders_but_not_noise() {
        // Two runs with the same lock acquisition order have the same
        // signature even if scheduled differently in between; runs with
        // different lock orders differ.
        let run = |script: Vec<u32>| {
            let mut b = ProgramBuilder::new(2);
            let g = b.global("g", ValKind::U64, 1);
            let l = b.mutex();
            for t in 0..2u64 {
                b.thread(async move |ctx| {
                    ctx.work(5);
                    ctx.lock(l).await;
                    let v = ctx.load(g.at(0)).await;
                    ctx.store(g.at(0), v + t + 1).await;
                    ctx.unlock(l).await;
                });
            }
            let cfg = RunConfig::random(0)
                .with_trace()
                .with_scheduler(SchedulerKind::Scripted {
                    script: std::sync::Arc::new(script),
                });
            let out = b.build().run(&cfg).unwrap();
            hb_signature(&out.trace.unwrap(), 2)
        };
        let t0_first_a = run(vec![0, 0, 0, 0, 1]);
        let t0_first_b = run(vec![0, 0, 0, 1, 0, 0]);
        let t1_first = run(vec![1, 1, 1, 1, 0]);
        assert_eq!(t0_first_a, t0_first_b, "same HB class");
        assert_ne!(t0_first_a, t1_first, "different lock order");
    }

    #[test]
    fn rwlock_protected_accesses_do_not_race() {
        let mut b = ProgramBuilder::new(2);
        let g = b.global("g", ValKind::U64, 1);
        let rw = b.rwlock();
        b.thread(async move |ctx| {
            ctx.write_lock(rw).await;
            ctx.store(g.at(0), 1).await;
            ctx.write_unlock(rw).await;
        });
        b.thread(async move |ctx| {
            ctx.read_lock(rw).await;
            let _ = ctx.load(g.at(0)).await;
            ctx.read_unlock(rw).await;
        });
        let out = b.build().run(&RunConfig::random(4).with_trace()).unwrap();
        let hb = analyze(&out.trace.unwrap(), 2);
        assert!(hb.races.is_empty(), "{:?}", hb.races);
    }

    #[test]
    fn semaphore_signal_orders_accesses() {
        let mut b = ProgramBuilder::new(2);
        let g = b.global("g", ValKind::U64, 1);
        let sem = b.semaphore(0);
        b.thread(async move |ctx| {
            ctx.store(g.at(0), 7).await;
            ctx.sem_post(sem).await;
        });
        b.thread(async move |ctx| {
            ctx.sem_wait(sem).await;
            let _ = ctx.load(g.at(0)).await;
        });
        let out = b.build().run(&RunConfig::random(4).with_trace()).unwrap();
        let hb = analyze(&out.trace.unwrap(), 2);
        assert!(hb.races.is_empty(), "{:?}", hb.races);
    }

    #[test]
    fn vector_clock_laws() {
        let mut a = VectorClock::new(3);
        let mut b = VectorClock::new(3);
        a.tick(0);
        b.tick(1);
        assert!(!a.le(&b) && !b.le(&a), "concurrent");
        b.join(&a);
        assert!(a.le(&b));
        assert_eq!(b.get(0), 1);
        assert_eq!(b.get(1), 1);
        assert_eq!(b.get(2), 0);
    }
}
