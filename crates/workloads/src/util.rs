//! Shared building blocks for the application kernels.

use tsim::{CondId, LockId, ProgramBuilder, Region, ThreadCtx, ValKind};

/// A hand-coded barrier built from a lock + condition variable +
/// generation counter — the kind of barrier real applications roll by
/// hand (it does **not** fire a determinism checkpoint, unlike
/// [`ThreadCtx::barrier`]).
///
/// Its state (arrival count, generation) is deterministic whenever all
/// parties are past the barrier, so it never perturbs the state hash at
/// checkpoints.
#[derive(Debug, Clone, Copy)]
pub struct HandBarrier {
    lock: LockId,
    cond: CondId,
    /// `state.at(0)` = arrived count, `state.at(1)` = generation.
    state: Region,
    parties: u64,
}

impl HandBarrier {
    /// Declares the barrier's lock, condvar and state words on `b`.
    pub fn new(b: &mut ProgramBuilder, name: &'static str, parties: usize) -> Self {
        HandBarrier {
            lock: b.mutex(),
            cond: b.condvar(),
            state: b.global(name, ValKind::U64, 2),
            parties: parties as u64,
        }
    }

    /// Waits until all parties arrive.
    pub async fn wait(&self, ctx: &mut ThreadCtx) {
        self.wait_inner(ctx, None).await;
    }

    /// Waits until all parties arrive; the *last* arriver fires a manual
    /// determinism checkpoint while every other party is still blocked,
    /// so the checkpoint observes a quiescent state (this is how the
    /// blackscholes/swaptions per-iteration checking points of Table 1
    /// are modeled).
    pub async fn wait_checkpoint(&self, ctx: &mut ThreadCtx, label: &'static str) {
        self.wait_inner(ctx, Some(label)).await;
    }

    async fn wait_inner(&self, ctx: &mut ThreadCtx, label: Option<&'static str>) {
        let count = self.state.at(0);
        let gen = self.state.at(1);
        ctx.lock(self.lock).await;
        let my_gen = ctx.load(gen).await;
        let arrived = ctx.load(count).await + 1;
        ctx.store(count, arrived).await;
        if arrived == self.parties {
            ctx.store(count, 0).await;
            ctx.store(gen, my_gen + 1).await;
            if let Some(label) = label {
                // All other parties are blocked on the condvar: the
                // state is quiescent.
                ctx.checkpoint(label).await;
            }
            ctx.cond_broadcast(self.cond).await;
            ctx.unlock(self.lock).await;
        } else {
            while ctx.load(gen).await == my_gen {
                ctx.cond_wait(self.cond, self.lock).await;
            }
            ctx.unlock(self.lock).await;
        }
    }
}

/// A *racy* sense-reversing spin barrier, as found in `volrend`'s
/// hand-coded synchronization: the arrival counter is an atomic RMW, but
/// the release flag is spun on with plain loads that race with the
/// releasing store. The race is benign — every run leaves the barrier
/// state (and the program) in the same final state — and InstantCheck
/// must classify programs using it as deterministic.
#[derive(Debug, Clone, Copy)]
pub struct RacySenseBarrier {
    /// `state.at(0)` = arrived count, `state.at(1)` = sense flag.
    state: Region,
    parties: u64,
}

impl RacySenseBarrier {
    /// Declares the barrier's state words on `b`.
    pub fn new(b: &mut ProgramBuilder, name: &'static str, parties: usize) -> Self {
        RacySenseBarrier {
            state: b.global(name, ValKind::U64, 2),
            parties: parties as u64,
        }
    }

    /// Waits until all parties arrive (spinning; yields while spinning).
    ///
    /// `my_sense` is the caller's thread-local sense word; initialize it
    /// to 0 and pass the same variable to every wait.
    pub async fn wait(&self, ctx: &mut ThreadCtx, my_sense: &mut u64) {
        let count = self.state.at(0);
        let sense = self.state.at(1);
        let next = 1 - *my_sense;
        let arrived = ctx.fetch_add(count, 1).await + 1;
        if arrived == self.parties {
            ctx.store(count, 0).await;
            ctx.store(sense, next).await; // racy release store…
        } else {
            while ctx.load(sense).await != next {
                // …racing with these plain spin loads (benign).
                ctx.sched_yield().await;
            }
        }
        *my_sense = next;
    }
}

/// A deterministic 64-bit mixer for building input data and thread-local
/// pseudo-random streams (fixed across runs; *not* a nondeterministic
/// library call).
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic f64 in `[0, 1)` derived from a key.
pub fn unit_f64(key: u64) -> f64 {
    (mix64(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// A thread-local deterministic PRNG stream — the swaptions pattern:
/// "thread-local random number generators that have no shared state",
/// which is why a Monte Carlo simulation can be bit-by-bit deterministic.
#[derive(Debug, Clone)]
pub struct LocalRng {
    state: u64,
}

impl LocalRng {
    /// Seeds the stream (seed it from the thread id for per-thread
    /// streams).
    pub fn new(seed: u64) -> Self {
        LocalRng {
            state: mix64(seed ^ 0xd1b5_4a32_d192_ed03),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = mix64(self.state);
        self.state
    }

    /// Next f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::{ProgramBuilder, RunConfig};

    #[test]
    fn hand_barrier_synchronizes() {
        let n = 4;
        let mut b = ProgramBuilder::new(n);
        let slots = b.global("slots", ValKind::U64, n);
        let sums = b.global("sums", ValKind::U64, n);
        let hb = HandBarrier::new(&mut b, "hb", n);
        for tid in 0..n {
            b.thread(async move |ctx| {
                ctx.store(slots.at(tid), tid as u64 + 1).await;
                hb.wait(ctx).await;
                let mut s = 0;
                for i in 0..n {
                    s += ctx.load(slots.at(i)).await;
                }
                ctx.store(sums.at(tid), s).await;
            });
        }
        let out = b.build().run(&RunConfig::random(3)).unwrap();
        for tid in 0..n {
            assert_eq!(out.final_word(sums.at(tid)), Some(10));
        }
    }

    #[test]
    fn hand_barrier_is_reusable() {
        let n = 3;
        let mut b = ProgramBuilder::new(n);
        let acc = b.global("acc", ValKind::U64, 1);
        let hb = HandBarrier::new(&mut b, "hb", n);
        let lock = b.mutex();
        for _ in 0..n {
            b.thread(async move |ctx| {
                for _ in 0..5 {
                    ctx.lock(lock).await;
                    let v = ctx.load(acc.at(0)).await;
                    ctx.store(acc.at(0), v + 1).await;
                    ctx.unlock(lock).await;
                    hb.wait(ctx).await;
                }
            });
        }
        let out = b.build().run(&RunConfig::random(9)).unwrap();
        assert_eq!(out.final_word(tsim::Addr(tsim::GLOBALS_BASE)), Some(15));
    }

    #[test]
    fn racy_sense_barrier_synchronizes_despite_the_race() {
        let n = 4;
        for seed in 0..10 {
            let mut b = ProgramBuilder::new(n);
            let slots = b.global("slots", ValKind::U64, n);
            let ok = b.global("ok", ValKind::U64, n);
            let rb = RacySenseBarrier::new(&mut b, "rb", n);
            for tid in 0..n {
                b.thread(async move |ctx| {
                    let mut sense = 0u64;
                    for round in 0..3u64 {
                        ctx.store(slots.at(tid), round * 10 + tid as u64).await;
                        rb.wait(ctx, &mut sense).await;
                        let mut sum = 0;
                        for i in 0..n {
                            sum += ctx.load(slots.at(i)).await;
                        }
                        assert_eq!(sum, round * 10 * n as u64 + 6);
                        rb.wait(ctx, &mut sense).await;
                    }
                    ctx.store(ok.at(tid), 1).await;
                });
            }
            let out = b.build().run(&RunConfig::random(seed)).unwrap();
            for tid in 0..n {
                assert_eq!(out.final_word(ok.at(tid)), Some(1), "seed {seed}");
            }
        }
    }

    #[test]
    fn local_rng_is_deterministic_and_varied() {
        let mut a = LocalRng::new(3);
        let mut b = LocalRng::new(3);
        let mut c = LocalRng::new(4);
        for _ in 0..100 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, c.next_u64());
        }
        let u = a.next_f64();
        assert!((0.0..1.0).contains(&u));
        assert!((0.0..1.0).contains(&unit_f64(77)));
    }
}
