//! The lock-free memo arena in front of the corpus log.
//!
//! When many campaigns run at once against one corpus — the `icd`
//! orchestrator's whole point — the memo is the one structure every
//! worker touches on every run slot, and any lock in it becomes the
//! serialization point every wide batch pays for. [`SharedCache`]
//! removes the locks: it is an open-addressing hash table over a
//! **fixed arena** of slots, in the style of the shared state tables
//! used for multi-core reachability (Laarman et al., *Boosting
//! Multi-Core Reachability Performance with Shared Hash Tables*). Every
//! operation on the table is a short linear probe over atomic words —
//! no mutex, no stripe, no allocation after construction.
//!
//! Three ideas carry the design:
//!
//! * **Hash memoization.** A slot memoizes the 128-bit fingerprint of
//!   its key next to the slot state, so probing compares two `u64`
//!   loads per step instead of re-deriving or re-comparing canonical
//!   key strings. The fingerprint is written exactly once in a slot's
//!   lifetime (under the `RESERVED` micro-state, by the unique thread
//!   that won the slot's empty-CAS), which is what makes tag reads
//!   safe without any lock or version counter.
//! * **CAS slot claiming.** An empty slot is claimed with a single
//!   compare-and-swap on its state word. The winner owns the slot;
//!   losers re-read and either find the published value or wait for
//!   it. See the slot state machine on [`SharedCache`].
//! * **In-flight claims.** A claimed-but-unpublished slot marks a run
//!   that some worker is *currently computing*. Other workers that
//!   need the same key wait for the publication instead of
//!   re-simulating the run — across concurrent campaigns, every
//!   distinct run is computed at most once per process. A claimant
//!   that fails (a run that errors is never cached) abandons the
//!   claim, waking the waiters, one of which re-claims and computes.
//!
//! The arena holds no log: [`Corpus`](crate::Corpus) implements
//! `RunCache` by pairing [`acquire`](SharedCache::acquire) — the one
//! find-or-claim operation, which reads the log through a caller's
//! closure only under a fresh claim — with a write-through
//! [`publish`](SharedCache::publish) and [`abandon`](SharedCache::abandon).
//!
//! Correctness note: the arena is a pure pass-through cache of the
//! log's contents, and determinism never depends on hitting it — a
//! miss just re-asks the log, and a hit replays through the checker's
//! normal reduction path. Artifacts therefore stay byte-identical to
//! solo runs regardless of which worker computed which entry, in what
//! order, or whether the arena was full. The wait/retry/probe tallies
//! are wall-clock telemetry and never feed deterministic artifacts.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use instantcheck::{CacheLease, CachedRun, RunKey};
use obs::{Counter, Registry, Telemetry};

use crate::fingerprint::fingerprint_block;

/// Default arena capacity in slots. Sized so realistic campaign
/// batches (tens of campaigns × tens of runs) stay far below the
/// insertion cap; at ~72 bytes a slot the default arena is ~1 MiB.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 14;

/// Telemetry histogram fed with the wall-clock duration of every
/// arena acquisition (`Corpus::begin`): key encode, fingerprint and
/// probe time plus, on the slow path, the in-flight wait or the log
/// read. Always sampled under cache
/// traffic, so contention shows up as a fat tail of one series rather
/// than a separate one.
pub const CACHE_ACQUIRE_HISTOGRAM: &str = "icd.cache.acquire";

/// Telemetry histogram fed only with in-flight claim waits — the time
/// a worker spent parked on another worker's computation of the same
/// key. Empty when no two workers ever raced a key.
pub const CACHE_WAIT_HISTOGRAM: &str = "icd.cache.wait";

/// Slots examined before a probe sequence gives up. With the insertion
/// cap holding the arena at ≤ 3/4 load, linear-probe clusters longer
/// than this are vanishingly rare; a sequence that exhausts the limit
/// falls through to the log uncached (correct, just unmemoized)
/// and is counted in [`SharedCacheStats::arena_full`].
const PROBE_LIMIT: usize = 64;

/// Occupancy bound: past 3/4 load no new slots are claimed (existing
/// entries still hit), keeping probe sequences short instead of letting
/// a full table degrade every miss into a linear scan.
const fn insert_cap(capacity: usize) -> usize {
    capacity - capacity / 4
}

// Slot states. A slot's lifetime is
// EMPTY → RESERVED → CLAIMED → {PUBLISHED | ABANDONED},
// with ABANDONED re-claimable (→ CLAIMED). PUBLISHED is terminal.
/// Never used; the fingerprint tags are meaningless.
const EMPTY: u64 = 0;
/// Won by an empty-CAS; the winner is writing the fingerprint tags.
/// Transient for a few instructions; probers spin through it.
const RESERVED: u64 = 1;
/// Tags frozen; some worker is computing this key's run.
const CLAIMED: u64 = 2;
/// Tags frozen; the value cell holds the published outcome. Terminal.
const PUBLISHED: u64 = 3;
/// Tags frozen; the claimant failed without publishing. Re-claimable.
const ABANDONED: u64 = 4;

/// One arena slot: the state word, the memoized key fingerprint, and
/// the write-once value cells.
#[derive(Debug)]
struct Slot {
    state: AtomicU64,
    fp_lo: AtomicU64,
    fp_hi: AtomicU64,
    /// The published outcome. Set at most once, by whichever thread
    /// moves the slot to `PUBLISHED`.
    value: OnceLock<Arc<CachedRun>>,
    /// A one-shot traced replacement: when a traceless entry is later
    /// recomputed by a tracing campaign, the traced outcome lands here
    /// (trace presence is terminal, so one upgrade cell suffices) and
    /// shadows `value` for every subsequent reader.
    upgrade: OnceLock<Arc<CachedRun>>,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            state: AtomicU64::new(EMPTY),
            fp_lo: AtomicU64::new(0),
            fp_hi: AtomicU64::new(0),
            value: OnceLock::new(),
            upgrade: OnceLock::new(),
        }
    }

    /// The slot's current best value: the traced upgrade when present,
    /// the original publication otherwise. Callers must have observed
    /// `PUBLISHED` first.
    fn best(&self) -> Option<Arc<CachedRun>> {
        self.upgrade.get().or_else(|| self.value.get()).cloned()
    }
}

/// Wall-clock contention tallies. Strictly telemetry: the values
/// depend on thread interleaving and never feed deterministic
/// artifacts or lookups.
#[derive(Debug, Default)]
struct Tallies {
    probes: AtomicU64,
    probe_steps: AtomicU64,
    cas_retries: AtomicU64,
    waits: AtomicU64,
    wait_ns: AtomicU64,
    arena_full: AtomicU64,
}

/// A point-in-time view of the arena and its contention tallies — the
/// `/profile` contention table and the `icd_cache_*` `/metrics`
/// series. Wall-clock telemetry only; the values vary run to run and
/// must never be folded into deterministic artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Fixed arena capacity in slots.
    pub capacity: usize,
    /// Slots currently holding a published outcome.
    pub published: u64,
    /// Slots currently claimed by an in-flight computation.
    pub in_flight: u64,
    /// Slots currently abandoned (claim failed, re-claimable).
    pub abandoned: u64,
    /// Probe sequences started (one per `begin`, `store` and `abandon`).
    pub probes: u64,
    /// Total slots examined across all probe sequences; divide by
    /// [`probes`](SharedCacheStats::probes) for the mean probe length.
    pub probe_steps: u64,
    /// Slot-claim CAS attempts that lost a race and retried.
    pub cas_retries: u64,
    /// Acquisitions that parked on another worker's in-flight claim.
    pub waits: u64,
    /// Total wall-clock nanoseconds spent in those parks.
    pub wait_ns: u64,
    /// Probe sequences that gave up (probe limit or insertion cap) and
    /// fell through to the log unmemoized.
    pub arena_full: u64,
}

/// A lock-free, fixed-arena, open-addressing memo with in-flight claim
/// tracking, addressed by key fingerprint. Built only by
/// [`Corpus::open`](crate::Corpus::open), which pairs it with the log.
///
/// # Slot state machine
///
/// ```text
///            empty-CAS          tags written         publish
///   EMPTY ─────────────▶ RESERVED ─────────▶ CLAIMED ─────────▶ PUBLISHED (terminal)
///                                               │    ▲
///                                       abandon │    │ re-claim CAS
///                                               ▼    │
///                                             ABANDONED
/// ```
#[derive(Debug)]
pub(crate) struct SharedCache {
    slots: Box<[Slot]>,
    mask: usize,
    /// Slots ever moved off `EMPTY`; gates the insertion cap.
    occupied: AtomicUsize,
    tallies: Tallies,
    /// Deterministic memo counters; bindable once, at construction or
    /// later (an orchestrator attaches its registry after the owning
    /// [`Corpus`](crate::Corpus) was opened).
    registry: OnceLock<Arc<Registry>>,
    /// `corpus.cache.memo_hits`/`memo_misses`, resolved from the bound
    /// registry on first use so every acquisition skips the by-name
    /// lookup.
    memo_hits: OnceLock<Arc<Counter>>,
    memo_misses: OnceLock<Arc<Counter>>,
    /// Wall-clock telemetry plane; bindable once, like `registry`.
    telemetry: OnceLock<Arc<Telemetry>>,
    /// Park/wake pair for in-flight waits. Waiting is the rare path
    /// (two workers racing one key); probes never touch this lock, and
    /// publications only while a waiter is parked.
    park: Mutex<()>,
    wake: Condvar,
    /// Threads inside [`wait_for_publication`](Self::wait_for_publication).
    /// A `notify_all` is a futex syscall even with nobody to wake, and
    /// every warm hit publishes, so [`notify`](Self::notify) skips the
    /// wake while this reads 0.
    parked: AtomicUsize,
}

/// Splits a fingerprint into the arena's two tag words.
fn tags(fp: u128) -> (u64, u64) {
    (fp as u64, (fp >> 64) as u64)
}

/// What one probe sequence found.
enum Found<'a> {
    /// The key's slot, in the returned state (`CLAIMED`, `PUBLISHED`,
    /// or `ABANDONED` — never `EMPTY`/`RESERVED`).
    Slot(&'a Slot, u64),
    /// The key is absent and `claim` was set: the slot is now ours in
    /// `CLAIMED` state (tags written).
    Claimed(&'a Slot),
    /// The key is absent and either `claim` was unset, the probe limit
    /// was exhausted, or the arena is at the insertion cap.
    Absent,
}

impl SharedCache {
    /// Builds an arena of `capacity` slots (rounded up to a power of
    /// two, minimum 8; the caller bounds `capacity` by
    /// [`MAX_CACHE_SLOTS`](crate::MAX_CACHE_SLOTS)). When `registry` is
    /// given, the memo counts `corpus.cache.memo_hits` and
    /// `corpus.cache.memo_misses` into the deterministic registry —
    /// totals that do not depend on worker interleaving, because the
    /// claim protocol computes every distinct key at most once.
    pub(crate) fn new(capacity: usize, registry: Option<Arc<Registry>>) -> Self {
        let capacity = capacity.next_power_of_two().max(8);
        let cache = SharedCache {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            mask: capacity - 1,
            occupied: AtomicUsize::new(0),
            tallies: Tallies::default(),
            registry: OnceLock::new(),
            memo_hits: OnceLock::new(),
            memo_misses: OnceLock::new(),
            telemetry: OnceLock::new(),
            park: Mutex::new(()),
            wake: Condvar::new(),
            parked: AtomicUsize::new(0),
        };
        if let Some(registry) = registry {
            cache.bind_registry(&registry);
        }
        cache
    }

    /// Late-binds the deterministic memo-counter registry (see
    /// [`new`](SharedCache::new)). The first binding wins; later calls
    /// are no-ops, so an orchestrator can attach its registry to a
    /// cache that was constructed elsewhere.
    pub(crate) fn bind_registry(&self, registry: &Arc<Registry>) {
        let _ = self.registry.set(Arc::clone(registry));
    }

    /// Late-binds the wall-clock telemetry plane: every acquisition
    /// records its duration into [`CACHE_ACQUIRE_HISTOGRAM`], and
    /// in-flight waits additionally land in [`CACHE_WAIT_HISTOGRAM`].
    /// First binding wins. Both histograms are pre-registered so
    /// `/metrics` exports them (at zero) before the first acquisition.
    pub(crate) fn bind_telemetry(&self, telemetry: &Arc<Telemetry>) {
        telemetry.histogram(CACHE_ACQUIRE_HISTOGRAM);
        telemetry.histogram(CACHE_WAIT_HISTOGRAM);
        let _ = self.telemetry.set(Arc::clone(telemetry));
    }

    /// A point-in-time stats snapshot (occupancy states are scanned
    /// live; tallies are monotonic).
    pub(crate) fn stats(&self) -> SharedCacheStats {
        let (mut published, mut in_flight, mut abandoned) = (0u64, 0u64, 0u64);
        for slot in self.slots.iter() {
            match slot.state.load(Ordering::Relaxed) {
                PUBLISHED => published += 1,
                CLAIMED | RESERVED => in_flight += 1,
                ABANDONED => abandoned += 1,
                _ => {}
            }
        }
        let t = &self.tallies;
        SharedCacheStats {
            capacity: self.slots.len(),
            published,
            in_flight,
            abandoned,
            probes: t.probes.load(Ordering::Relaxed),
            probe_steps: t.probe_steps.load(Ordering::Relaxed),
            cas_retries: t.cas_retries.load(Ordering::Relaxed),
            waits: t.waits.load(Ordering::Relaxed),
            wait_ns: t.wait_ns.load(Ordering::Relaxed),
            arena_full: t.arena_full.load(Ordering::Relaxed),
        }
    }

    fn count(&self, name: &str) {
        if let Some(reg) = self.registry.get() {
            reg.add(name, 1);
        }
    }

    /// [`count`](Self::count) for a hot counter cached in `cell`.
    fn count_hot(&self, cell: &OnceLock<Arc<Counter>>, name: &str) {
        if let Some(reg) = self.registry.get() {
            cell.get_or_init(|| reg.counter(name)).add(1);
        }
    }

    /// Parks until `slot` leaves `CLAIMED`, tallying the wait. The
    /// waiter counts itself in `parked` before it checks the state, and
    /// the publisher/abandoner stores the state before it reads
    /// `parked`, all `SeqCst`: a waiter that read `CLAIMED` is counted
    /// by the time the publisher looks. The publisher then takes the
    /// park lock (empty critical section) before notifying, so a waiter
    /// that checked the state under the lock can never miss the wake;
    /// the timeout is pure defense in depth.
    fn wait_for_publication(&self, slot: &Slot) {
        let start = Instant::now();
        let mut guard = self.park.lock().unwrap();
        self.parked.fetch_add(1, Ordering::SeqCst);
        while slot.state.load(Ordering::SeqCst) == CLAIMED {
            let (g, _) = self
                .wake
                .wait_timeout(guard, Duration::from_millis(10))
                .unwrap();
            guard = g;
        }
        self.parked.fetch_sub(1, Ordering::Relaxed);
        drop(guard);
        let wait = start.elapsed();
        self.tallies.waits.fetch_add(1, Ordering::Relaxed);
        self.tallies
            .wait_ns
            .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        if let Some(t) = self.telemetry.get() {
            t.record_wait(CACHE_WAIT_HISTOGRAM, wait);
        }
    }

    /// Wakes every parked waiter, if there is one (see
    /// [`wait_for_publication`](Self::wait_for_publication)); the caller
    /// has just stored the slot's new state `SeqCst`. Taking (and
    /// immediately dropping) the park lock orders this thread's state
    /// store before any waiter's under-lock state check — the classic
    /// no-lost-wakeup handshake.
    fn notify(&self) {
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        drop(self.park.lock().unwrap());
        self.wake.notify_all();
    }

    /// The shared probe sequence: linear probing from the fingerprint's
    /// home slot, at most [`PROBE_LIMIT`] steps. `claim` asks for an
    /// empty (or matching-abandoned) slot to be CAS-claimed for the
    /// caller; `wait` parks on a matching in-flight claim instead of
    /// returning it.
    ///
    /// Memory ordering: state loads are `Acquire`, pairing with the
    /// `Release` (or stronger) state stores in
    /// [`claim_slot`](Self::claim_slot),
    /// [`publish_slot`](Self::publish_slot), and [`Self::abandon`], so
    /// fingerprint tags (written before the `CLAIMED` release) and
    /// published values (written before the `PUBLISHED` release) are
    /// visible to any thread that observed the state.
    fn probe(&self, lo: u64, hi: u64, claim: bool, wait: bool) -> Found<'_> {
        let t = &self.tallies;
        t.probes.fetch_add(1, Ordering::Relaxed);
        let (found, steps) = self.probe_sequence(lo, hi, claim, wait);
        t.probe_steps.fetch_add(steps, Ordering::Relaxed);
        found
    }

    /// [`probe`](Self::probe)'s sequence: what it found, and how many
    /// slots it examined, so the tally takes one add per sequence.
    fn probe_sequence(&self, lo: u64, hi: u64, claim: bool, wait: bool) -> (Found<'_>, u64) {
        let t = &self.tallies;
        let start = (lo ^ hi) as usize & self.mask;
        let limit = PROBE_LIMIT.min(self.slots.len());
        for i in 0..limit {
            let steps = i as u64 + 1;
            let slot = &self.slots[(start + i) & self.mask];
            loop {
                match slot.state.load(Ordering::Acquire) {
                    EMPTY => {
                        if !claim {
                            // An empty slot proves the key is nowhere
                            // in its probe sequence.
                            return (Found::Absent, steps);
                        }
                        if self.occupied.load(Ordering::Relaxed) >= insert_cap(self.slots.len()) {
                            // Insertion cap: the key is absent and may
                            // not claim a slot — an arena-full fallback.
                            t.arena_full.fetch_add(1, Ordering::Relaxed);
                            return (Found::Absent, steps);
                        }
                        match self.claim_slot(slot, lo, hi) {
                            true => return (Found::Claimed(slot), steps),
                            false => {
                                // Lost the empty-CAS; re-examine the
                                // slot under its new owner.
                                t.cas_retries.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                        }
                    }
                    RESERVED => {
                        // The tag-write window of another thread's
                        // claim: a few instructions. Spin through it.
                        std::hint::spin_loop();
                        continue;
                    }
                    state => {
                        // Tags are frozen from CLAIMED onward, so this
                        // comparison is race-free without any lock.
                        if slot.fp_lo.load(Ordering::Relaxed) != lo
                            || slot.fp_hi.load(Ordering::Relaxed) != hi
                        {
                            break; // other key's slot — next probe step
                        }
                        match state {
                            PUBLISHED => return (Found::Slot(slot, PUBLISHED), steps),
                            ABANDONED if claim => {
                                if slot
                                    .state
                                    .compare_exchange(
                                        ABANDONED,
                                        CLAIMED,
                                        Ordering::AcqRel,
                                        Ordering::Acquire,
                                    )
                                    .is_ok()
                                {
                                    return (Found::Claimed(slot), steps);
                                }
                                t.cas_retries.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            ABANDONED => return (Found::Slot(slot, ABANDONED), steps),
                            CLAIMED if wait => {
                                self.wait_for_publication(slot);
                                continue;
                            }
                            _ => return (Found::Slot(slot, CLAIMED), steps),
                        }
                    }
                }
            }
        }
        t.arena_full.fetch_add(1, Ordering::Relaxed);
        (Found::Absent, limit as u64)
    }

    /// CAS-claims an empty slot and freezes the fingerprint tags.
    /// Returns `false` if another thread won the slot. The `RESERVED`
    /// micro-state covers the tag writes; the `Release` store of
    /// `CLAIMED` publishes them to every `Acquire` prober.
    fn claim_slot(&self, slot: &Slot, lo: u64, hi: u64) -> bool {
        if slot
            .state
            .compare_exchange(EMPTY, RESERVED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        self.occupied.fetch_add(1, Ordering::Relaxed);
        slot.fp_lo.store(lo, Ordering::Relaxed);
        slot.fp_hi.store(hi, Ordering::Relaxed);
        slot.state.store(CLAIMED, Ordering::Release);
        true
    }

    /// Publishes `run` into a slot this thread holds in `CLAIMED`
    /// state (or just claimed for direct insertion) and wakes waiters.
    /// The value is set before the store of `PUBLISHED`, so any prober
    /// that observes the state also observes the value.
    fn publish_slot(&self, slot: &Slot, run: &Arc<CachedRun>) {
        let _ = slot.value.set(Arc::clone(run));
        slot.state.store(PUBLISHED, Ordering::SeqCst);
        self.notify();
    }

    /// Installs a traced `run` as the upgrade of a published traceless
    /// entry. Trace presence is terminal, so the one-shot cell
    /// suffices; losing the `set` race just means another tracing
    /// campaign got there first with identical bytes.
    fn try_upgrade(&self, slot: &Slot, run: &Arc<CachedRun>) {
        if run.sim_trace.is_some()
            && slot.value.get().is_some_and(|v| v.sim_trace.is_none())
            && slot.upgrade.set(Arc::clone(run)).is_ok()
        {
            self.count("corpus.cache.upgrades");
        }
    }

    /// The find-or-claim operation behind `Corpus::begin`: the
    /// published outcome for `key`, or — when this call wins the key's
    /// claim — whatever `fetch` reads from the log given the key's
    /// fingerprint and block, published under the claim so waiters
    /// block on the read once instead of all issuing it. A miss in
    /// `fetch` leaves the claim held (`Compute { claimed: true }`) for
    /// the caller to resolve with [`publish`](Self::publish) or
    /// [`abandon`](Self::abandon). When no slot can be claimed (arena
    /// full, or a lost abandoned slot), `fetch` still answers, uncached
    /// and unclaimed. Each `icd.cache.acquire` sample covers the whole
    /// call: key encode, fingerprint, probe, wait and log read.
    pub(crate) fn acquire(
        &self,
        key: &RunKey,
        fetch: impl FnOnce(u128, &[u8]) -> Option<Arc<CachedRun>>,
    ) -> CacheLease {
        let start = self.telemetry.get().map(|_| Instant::now());
        let lease = key.with_bytes(|block| {
            let fp = fingerprint_block(block);
            self.find_or_claim(fp, || fetch(fp, block))
        });
        if let (Some(t), Some(start)) = (self.telemetry.get(), start) {
            t.record_wait(CACHE_ACQUIRE_HISTOGRAM, start.elapsed());
        }
        lease
    }

    /// `acquire`'s probe for an encoded key's fingerprint `fp`.
    fn find_or_claim(
        &self,
        fp: u128,
        fetch: impl FnOnce() -> Option<Arc<CachedRun>>,
    ) -> CacheLease {
        let (lo, hi) = tags(fp);
        // Claiming, waiting probe: the only outcomes are a published
        // value or ownership of the key's computation.
        match self.probe(lo, hi, true, true) {
            Found::Slot(slot, PUBLISHED) => {
                self.count_hot(&self.memo_hits, "corpus.cache.memo_hits");
                match slot.best() {
                    Some(run) => CacheLease::Hit(run),
                    // Unreachable by construction (value precedes
                    // PUBLISHED); degrade to a computing miss.
                    None => CacheLease::Compute { claimed: false },
                }
            }
            Found::Claimed(slot) => {
                self.count_hot(&self.memo_misses, "corpus.cache.memo_misses");
                match fetch() {
                    Some(fetched) => {
                        self.publish_slot(slot, &fetched);
                        CacheLease::Hit(fetched)
                    }
                    None => CacheLease::Compute { claimed: true },
                }
            }
            _ => {
                self.count_hot(&self.memo_misses, "corpus.cache.memo_misses");
                match fetch() {
                    Some(fetched) => CacheLease::Hit(fetched),
                    None => CacheLease::Compute { claimed: false },
                }
            }
        }
    }

    /// Publishes `run` under fingerprint `fp` once the log holds it:
    /// into the caller's claim, or a fresh slot, or — over a published
    /// traceless entry — as its traced upgrade. An abandoned slot
    /// another worker re-claimed, or a full arena, leaves `run` to the
    /// log alone.
    pub(crate) fn publish(&self, fp: u128, run: &Arc<CachedRun>) {
        let (lo, hi) = tags(fp);
        match self.probe(lo, hi, true, false) {
            // The common case: this thread's claim from `acquire`.
            Found::Slot(slot, CLAIMED) | Found::Claimed(slot) => self.publish_slot(slot, run),
            // Re-store over a published entry: only meaningful as a
            // traced upgrade of a traceless value (the checker
            // recomputes such entries under a tracing sink).
            Found::Slot(slot, PUBLISHED) => self.try_upgrade(slot, run),
            _ => {}
        }
    }

    /// Releases the claim on fingerprint `fp` without publishing, waking
    /// every waiter (one of which re-claims and computes). A no-op when
    /// the key is not claimed.
    pub(crate) fn abandon(&self, fp: u128) {
        let (lo, hi) = tags(fp);
        if let Found::Slot(slot, CLAIMED) = self.probe(lo, hi, false, false) {
            if slot
                .state
                .compare_exchange(CLAIMED, ABANDONED, Ordering::SeqCst, Ordering::Acquire)
                .is_ok()
            {
                self.notify();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};

    use adhash::HashSum;
    use instantcheck::{CheckpointRecord, RunHashes, Scheme};
    use tsim::{CheckpointKind, SwitchPolicy};

    use super::*;
    use crate::{Corpus, CorpusOptions};
    use instantcheck::{RunCache, RunKey};

    static SERIAL: AtomicU64 = AtomicU64::new(0);

    /// A fresh corpus directory, removed on drop.
    struct TempLog {
        dir: PathBuf,
    }

    impl TempLog {
        fn new() -> TempLog {
            let dir = std::env::temp_dir().join(format!(
                "corpus-shared-{}-{}",
                std::process::id(),
                SERIAL.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            TempLog { dir }
        }

        /// A corpus over this directory with an arena of `capacity`
        /// slots.
        fn arena(&self, capacity: usize) -> Arena {
            Arena(Corpus::open(CorpusOptions::at(&self.dir).cache_slots(capacity)).unwrap())
        }
    }

    impl Drop for TempLog {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    /// A corpus seen from its arena: the claim protocol goes through
    /// `RunCache for Corpus`, and everything else reads the arena.
    struct Arena(Corpus);

    impl std::ops::Deref for Arena {
        type Target = SharedCache;

        fn deref(&self) -> &SharedCache {
            &self.0.cache
        }
    }

    impl Arena {
        fn begin(&self, key: &RunKey) -> CacheLease {
            self.0.begin(key)
        }

        fn store(&self, key: &RunKey, run: &Arc<CachedRun>) {
            self.0.store(key, run);
        }

        fn abandon(&self, key: &RunKey) {
            self.0.abandon(key);
        }
    }

    fn key(seed: u64) -> RunKey {
        RunKey {
            workload: "shared-test".into(),
            scheme: Scheme::HwInc,
            seed,
            lib_seed: 42,
            switch: SwitchPolicy::SyncOnly,
            max_steps: 1_000,
            rounding: None,
            ignore_token: 0,
            fault_token: 0,
            cache_model: false,
            alloc_seed: None,
        }
    }

    fn run(digest: u64) -> Arc<CachedRun> {
        Arc::new(CachedRun {
            hashes: RunHashes {
                checkpoints: vec![CheckpointRecord {
                    kind: CheckpointKind::End,
                    hash: HashSum::from_raw(digest),
                }],
                output_digest: digest,
                extra_instr: 1,
                stores: 2,
                hash_updates: 3,
                cache: None,
            },
            steps: 10,
            native_instr: 20,
            zero_fill_instr: 5,
            alloc_log: None,
            sim_trace: None,
        })
    }

    /// A tiny deterministic PRNG so the stress schedules are seeded and
    /// reproducible, not time-dependent.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn begin_store_round_trips_through_the_arena() {
        let log = TempLog::new();
        let cache = log.arena(64);
        let k = key(1);
        match cache.begin(&k) {
            CacheLease::Compute { claimed } => assert!(claimed, "empty arena grants the claim"),
            CacheLease::Hit(_) => panic!("empty cache cannot hit"),
        }
        cache.store(&k, &run(7));
        match cache.begin(&k) {
            CacheLease::Hit(hit) => assert_eq!(hit.hashes.output_digest, 7),
            CacheLease::Compute { .. } => panic!("published entry must hit"),
        }
        assert_eq!(cache.stats().published, 1);
        assert!(cache.0.lookup(&k).is_some());
    }

    #[test]
    fn a_lookup_miss_occupies_an_abandoned_slot() {
        let log = TempLog::new();
        let cache = log.arena(64);
        assert!(cache.0.lookup(&key(3)).is_none());
        let stats = cache.stats();
        assert_eq!(
            (stats.in_flight, stats.abandoned),
            (0, 1),
            "the miss's claim stays abandoned"
        );
        assert_eq!(
            cache.occupied.load(Ordering::Relaxed),
            1,
            "it counts against the cap"
        );
        // A later begin re-claims the same slot rather than a new one.
        assert!(matches!(
            cache.begin(&key(3)),
            CacheLease::Compute { claimed: true }
        ));
        assert_eq!(cache.occupied.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn inner_hits_publish_into_the_arena_under_the_claim() {
        let log = TempLog::new();
        log.arena(64).store(&key(5), &run(50));
        let cache = log.arena(64);
        // First begin finds the entry in the log and publishes
        // it, so it reads as a Hit without any checker round trip.
        match cache.begin(&key(5)) {
            CacheLease::Hit(hit) => assert_eq!(hit.hashes.output_digest, 50),
            CacheLease::Compute { .. } => panic!("logged entry must surface as a hit"),
        }
        assert_eq!(cache.stats().published, 1, "log hit published to arena");
    }

    /// A publication wakes a parked waiter at once, not at the 10 ms
    /// re-check: skipping the wake while nobody is parked must never
    /// skip it for a waiter that is.
    #[test]
    fn publish_wakes_a_parked_waiter_before_the_recheck() {
        let mut fastest = Duration::MAX;
        for seed in 0..20 {
            let log = TempLog::new();
            let cache = Arc::new(log.arena(64));
            let k = key(seed);
            assert!(matches!(
                cache.begin(&k),
                CacheLease::Compute { claimed: true }
            ));
            let waiter = {
                let cache = Arc::clone(&cache);
                let k = k.clone();
                std::thread::spawn(move || cache.begin(&k))
            };
            while cache.parked.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            cache.store(&k, &run(seed));
            assert!(matches!(waiter.join().unwrap(), CacheLease::Hit(_)));
            fastest = fastest.min(Duration::from_nanos(cache.stats().wait_ns));
        }
        assert!(
            fastest < Duration::from_millis(10),
            "every wait ran to the re-check: {fastest:?}"
        );
    }

    #[test]
    fn abandon_wakes_a_waiter_that_then_recomputes() {
        let log = TempLog::new();
        let cache = Arc::new(log.arena(64));
        let k = key(9);
        match cache.begin(&k) {
            CacheLease::Compute { claimed: true } => {}
            other => panic!("expected a fresh claim, got {other:?}"),
        }
        let waiter = {
            let cache = Arc::clone(&cache);
            let k = k.clone();
            std::thread::spawn(move || cache.begin(&k))
        };
        // Give the waiter time to park on the in-flight claim, then
        // fail the computation. The waiter must wake, re-claim, and get
        // to compute — never hang, never see a phantom value.
        std::thread::sleep(Duration::from_millis(20));
        cache.abandon(&k);
        match waiter.join().unwrap() {
            CacheLease::Compute { claimed } => assert!(claimed, "waiter re-claims after abandon"),
            CacheLease::Hit(_) => panic!("abandoned claim must not read as a hit"),
        }
        assert!(cache.stats().waits >= 1, "the wait was tallied");
    }

    /// The tentpole correctness property, raced for real: many workers
    /// begin/compute/store the same keys concurrently, and the claim
    /// protocol must yield exactly one computation per key with every
    /// reader observing identical bytes.
    #[test]
    fn racing_workers_compute_each_key_exactly_once() {
        const WORKERS: usize = 8;
        const KEYS: u64 = 16;
        for trial in 0..4u64 {
            let log = TempLog::new();
            let cache = Arc::new(log.arena(256));
            let computed = Arc::new(AtomicU64::new(0));
            let barrier = Arc::new(Barrier::new(WORKERS));
            let mut handles = Vec::new();
            for w in 0..WORKERS {
                let cache = Arc::clone(&cache);
                let computed = Arc::clone(&computed);
                let barrier = Arc::clone(&barrier);
                handles.push(std::thread::spawn(move || {
                    let mut rng = trial * 1_000 + w as u64 + 1;
                    // Each worker visits every key in a seeded shuffle,
                    // so claim races hit different keys per worker.
                    let mut order: Vec<u64> = (0..KEYS).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, (xorshift(&mut rng) % (i as u64 + 1)) as usize);
                    }
                    barrier.wait();
                    let mut seen = Vec::new();
                    for seed in order {
                        let k = key(seed);
                        match cache.begin(&k) {
                            CacheLease::Hit(hit) => {
                                seen.push((seed, hit.hashes.output_digest));
                            }
                            CacheLease::Compute { claimed } => {
                                assert!(claimed, "arena is far from full");
                                computed.fetch_add(1, Ordering::Relaxed);
                                // The "simulation": deterministic in the
                                // key, as the checker's would be.
                                cache.store(&k, &run(seed * 31 + 7));
                                seen.push((seed, seed * 31 + 7));
                            }
                        }
                    }
                    seen
                }));
            }
            let mut observed: Vec<(u64, u64)> = Vec::new();
            for h in handles {
                observed.extend(h.join().unwrap());
            }
            assert_eq!(
                computed.load(Ordering::Relaxed),
                KEYS,
                "trial {trial}: every key computed exactly once across {WORKERS} workers"
            );
            for (seed, digest) in observed {
                assert_eq!(
                    digest,
                    seed * 31 + 7,
                    "trial {trial}: every reader observed the unique computation's bytes"
                );
            }
            let stats = cache.stats();
            assert_eq!(stats.published, KEYS);
            assert_eq!(stats.in_flight, 0);
            assert_eq!(stats.abandoned, 0);
        }
    }

    /// Claim/abandon raced with publication: a seeded subset of winners
    /// abandon instead of storing (the failed-run path). No waiter may
    /// hang, every key must still end published with consistent bytes,
    /// and failures must never be served from the cache.
    #[test]
    fn seeded_abandon_storm_never_strands_a_waiter() {
        const WORKERS: usize = 6;
        const KEYS: u64 = 8;
        for trial in 0..6u64 {
            let log = TempLog::new();
            let cache = Arc::new(log.arena(128));
            let barrier = Arc::new(Barrier::new(WORKERS));
            let mut handles = Vec::new();
            for w in 0..WORKERS {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                handles.push(std::thread::spawn(move || {
                    let mut rng = trial * 7_777 + w as u64 + 1;
                    barrier.wait();
                    for seed in 0..KEYS {
                        let k = key(seed);
                        // Retry until this worker observes the key's
                        // published value — mirroring the checker's
                        // attempt loop around a failed run.
                        loop {
                            match cache.begin(&k) {
                                CacheLease::Hit(hit) => {
                                    assert_eq!(hit.hashes.output_digest, seed + 100);
                                    break;
                                }
                                CacheLease::Compute { claimed } => {
                                    assert!(claimed);
                                    if xorshift(&mut rng).is_multiple_of(3) {
                                        // A failed run: abandon, retry.
                                        cache.abandon(&k);
                                        std::thread::yield_now();
                                    } else {
                                        cache.store(&k, &run(seed + 100));
                                        break;
                                    }
                                }
                            }
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let stats = cache.stats();
            assert_eq!(stats.published, KEYS, "trial {trial}: all keys published");
            assert_eq!(stats.in_flight, 0, "trial {trial}: no claim leaked");
        }
    }

    #[test]
    fn arena_full_degrades_to_inner_lookups_not_errors() {
        // Capacity 8 with a 3/4 insertion cap: only 6 keys get slots.
        let log = TempLog::new();
        let cache = log.arena(8);
        for seed in 0..32 {
            let k = key(seed);
            match cache.begin(&k) {
                CacheLease::Compute { .. } => cache.store(&k, &run(seed)),
                CacheLease::Hit(_) => panic!("cold keys cannot hit"),
            }
        }
        // Every key still round-trips: memoized ones from the arena,
        // the rest straight from the log.
        for seed in 0..32 {
            match cache.begin(&key(seed)) {
                CacheLease::Hit(hit) => assert_eq!(hit.hashes.output_digest, seed),
                CacheLease::Compute { .. } => panic!("stored key {seed} must hit"),
            }
        }
        let stats = cache.stats();
        assert!(stats.published <= 6, "insertion cap held: {stats:?}");
        assert!(stats.arena_full > 0, "fallbacks were tallied");
    }

    #[test]
    fn traced_store_upgrades_a_traceless_entry() {
        let log = TempLog::new();
        let cache = log.arena(64);
        let k = key(3);
        assert!(matches!(
            cache.begin(&k),
            CacheLease::Compute { claimed: true }
        ));
        cache.store(&k, &run(30));
        // A tracing campaign recomputes the entry and re-stores it with
        // the trace attached; subsequent readers get the traced value.
        let traced = Arc::new(CachedRun {
            sim_trace: Some(Vec::new()),
            ..(*run(30)).clone()
        });
        cache.store(&k, &traced);
        match cache.begin(&k) {
            CacheLease::Hit(hit) => assert!(hit.sim_trace.is_some(), "upgrade visible"),
            CacheLease::Compute { .. } => panic!("published entry must hit"),
        }
    }

    /// Ten fingerprints share one home slot, so the k-th (from 0)
    /// sits k slots down the cluster: its claim, its publication and
    /// its hit each examine k + 1 slots, and a miss for an eleventh
    /// examines all ten plus the empty slot that ends the cluster.
    #[test]
    fn probe_steps_sum_the_probe_lengths_of_a_cluster() {
        const N: u64 = 10;
        let cache = SharedCache::new(64, None);
        let fp = |k: u64| u128::from(k * 64 + 5);
        for k in 0..N {
            assert!(matches!(
                cache.find_or_claim(fp(k), || None),
                CacheLease::Compute { claimed: true }
            ));
            cache.publish(fp(k), &run(k));
        }
        for k in 0..N {
            assert!(matches!(
                cache.find_or_claim(fp(k), || None),
                CacheLease::Hit(_)
            ));
        }
        cache.abandon(fp(N));
        let lengths: u64 = (0..N).map(|k| 3 * (k + 1)).sum::<u64>() + N + 1;
        let stats = cache.stats();
        assert_eq!((stats.probes, stats.probe_steps), (3 * N + 1, lengths));
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        let log = TempLog::new();
        assert_eq!(log.arena(100).stats().capacity, 128);
        let tiny = log.arena(0);
        assert_eq!(tiny.stats().capacity, 8);
    }
}
