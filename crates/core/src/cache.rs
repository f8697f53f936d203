//! Run-result caching: satisfy a campaign's run slots from previously
//! recorded outcomes instead of re-simulating them.
//!
//! The paper's whole premise is that a 64-bit State Hash is a cheap,
//! durable witness of a run's memory state — yet a naive harness throws
//! every witness away and recomputes all 30 runs of every campaign from
//! scratch. This module makes the witnesses reusable. A [`RunCache`]
//! keys *everything that determines a run's hash sequence* — workload
//! identity, scheme, scheduler seed, library seed, preemption policy,
//! FP-rounding config, ignore spec, fault plan, allocator-replay
//! provenance — into a [`RunKey`], and maps it to the [`CachedRun`] the
//! simulator produced last time. On a hit the checker skips the
//! simulation entirely and replays the recorded outcome through exactly
//! the same reduction path a cold run takes, so the campaign's
//! [`CheckReport`](crate::CheckReport), metrics, and event trace are
//! byte-identical to a cold campaign's.
//!
//! Two implementations exist:
//!
//! * [`MemoryRunCache`] (here) — a process-local warm cache, useful for
//!   repeated campaigns over the same workload within one process and
//!   as the reference implementation for tests.
//! * `corpus::Corpus` (the `corpus` crate) — the unified storage
//!   facade: a log-structured, crash-safe on-disk store with
//!   corruption quarantine behind a lock-free warm cache, the
//!   persistent cross-process/cross-PR corpus.
//!
//! # What is cached
//!
//! Only *completed* runs. A failed attempt is never satisfied from a
//! cache: [`tsim::SimError`] carries non-serializable context, and
//! recomputing failures keeps the failure-policy machinery honest. A cached run carries the full
//! [`RunHashes`], the simulator accounting the metrics registry folds
//! in, the allocator log (when the run was the campaign's
//! address-logging run), and — when the run was recorded under an event
//! sink — its simulator event trace, so warm campaigns reproduce cold
//! traces byte for byte. A cache entry without a stored trace is
//! treated as a miss by a campaign that records traces.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use adhash::FpRound;
use detrand::splitmix64;
use obs::Event;
use tsim::{AllocLog, FaultPlan, SwitchPolicy, FAULT_KINDS};

use crate::checker::RunHashes;
use crate::scheme::Scheme;

/// Version of the run-key encoding. Bumped whenever the meaning of a
/// cached outcome changes (new nondeterminism control, changed hash
/// algebra), so stale entries key-miss instead of being trusted.
pub const RUN_KEY_VERSION: u32 = 1;

/// Mixes a byte string into a 64-bit token (splitmix64-chained,
/// length-prefixed so `("ab","c")` and `("a","bc")` differ).
pub(crate) fn mix_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = splitmix64(seed ^ bytes.len() as u64);
    for &b in bytes {
        h = splitmix64(h ^ u64::from(b));
    }
    h
}

/// Mixes one `u64` into a token.
pub(crate) fn mix_u64(seed: u64, value: u64) -> u64 {
    splitmix64(seed ^ value)
}

/// A stable 64-bit token for a [`FaultPlan`]: the plan seed plus every
/// kind's trigger. Equal plans (same seed, same triggers) produce equal
/// tokens; `None` plans are conventionally token `0`.
pub fn fault_plan_token(plan: &FaultPlan) -> u64 {
    let mut h = mix_u64(0xfa17_07a9_0000_0001, plan.seed);
    for kind in FAULT_KINDS {
        let t = match plan.trigger(kind) {
            tsim::Trigger::Never => 0u64,
            tsim::Trigger::Nth(n) => 1 << 62 | n,
            tsim::Trigger::Rate { num, denom } => 2 << 62 | num << 31 | denom,
        };
        h = mix_u64(h, mix_bytes(t, kind.label().as_bytes()));
    }
    // A token of 0 is reserved for "no plan"; remap the (cosmically
    // unlikely) collision.
    if h == 0 {
        1
    } else {
        h
    }
}

/// Everything that determines one run attempt's [`RunHashes`].
///
/// Two attempts with equal keys simulate identically, so one's recorded
/// outcome can satisfy the other. The key deliberately excludes
/// anything that does *not* affect the hashes: the failure policy (it
/// decides which attempts run, not what an attempt computes), the
/// worker count, and observability sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct RunKey {
    /// Caller-supplied workload identity: program name plus every
    /// construction parameter (scale, input size). The checker cannot
    /// see inside the `Fn() -> Program` closure, so this is the
    /// caller's contract: equal ids must build equal programs.
    pub workload: String,
    /// The checking scheme (affects hashes *and* cost counters).
    pub scheme: Scheme,
    /// Scheduler seed of the attempt.
    pub seed: u64,
    /// Library-call seed.
    pub lib_seed: u64,
    /// Preemption policy.
    pub switch: SwitchPolicy,
    /// Per-run step limit (a run near the limit could complete under
    /// one limit and fail under another).
    pub max_steps: u64,
    /// FP round-off applied before hashing.
    pub rounding: Option<FpRound>,
    /// Token of the ignore spec ([`IgnoreSpec::cache_token`](crate::IgnoreSpec::cache_token)).
    pub ignore_token: u64,
    /// Token of the slot's fault plan ([`fault_plan_token`]; `0` = none).
    pub fault_token: u64,
    /// Whether the L1/MHM cache model ran (it adds counters to the
    /// outcome).
    pub cache_model: bool,
    /// Allocator-replay provenance: `None` when this run logs its own
    /// allocator addresses, `Some(seed)` when it replays the log of the
    /// completed run with that scheduler seed. Addresses feed the
    /// location hash, so provenance is part of the key.
    pub alloc_seed: Option<u64>,
}

/// A fixed-capacity stack string for one rendered key token. Writes
/// past the capacity fail the `fmt::Write` contract instead of
/// allocating; capacities are sized to each field's maximum rendering.
struct TokenBuf<const N: usize> {
    bytes: [u8; N],
    len: usize,
}

impl<const N: usize> TokenBuf<N> {
    fn new() -> Self {
        TokenBuf {
            bytes: [0; N],
            len: 0,
        }
    }

    fn push(&mut self, s: &str) {
        let _ = self.write_str(s);
    }

    fn as_str(&self) -> &str {
        // Only whole `str`s are ever copied in, so the prefix is valid
        // UTF-8 by construction.
        std::str::from_utf8(&self.bytes[..self.len]).unwrap_or_default()
    }
}

impl<const N: usize> fmt::Write for TokenBuf<N> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        if end > N {
            return Err(fmt::Error);
        }
        self.bytes[self.len..end].copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

impl RunKey {
    /// The key as canonical `(label, value)` fields.
    ///
    /// This is the serialization contract for fingerprinting: every
    /// field is rendered to a stable string, labels are unique, and a
    /// fingerprint built from these fields must not depend on their
    /// order (see the corpus crate's order-independent fingerprint).
    /// The encoding version rides along as its own field, so bumping
    /// [`RUN_KEY_VERSION`] invalidates old entries by key mismatch.
    pub fn tokens(&self) -> Vec<(&'static str, String)> {
        self.with_tokens(|fields| {
            fields
                .iter()
                .map(|(label, value)| (*label, (*value).to_owned()))
                .collect()
        })
    }

    /// [`tokens`](RunKey::tokens) as borrowed `(label, value)` pairs on
    /// the stack — same labels, same values, same order, no per-field
    /// allocation. This is the form the corpus lookup path consumes on
    /// every cache probe, where the owned vector would be pure
    /// overhead.
    pub fn with_tokens<R>(&self, f: impl FnOnce(&[(&'static str, &str)]) -> R) -> R {
        let mut version = TokenBuf::<10>::new();
        let _ = write!(version, "{RUN_KEY_VERSION}");
        let mut seed = TokenBuf::<20>::new();
        let _ = write!(seed, "{}", self.seed);
        let mut lib_seed = TokenBuf::<20>::new();
        let _ = write!(lib_seed, "{}", self.lib_seed);
        let mut switch = TokenBuf::<32>::new();
        match self.switch {
            SwitchPolicy::SyncOnly => switch.push("sync-only"),
            SwitchPolicy::EveryAccess => switch.push("every-access"),
            SwitchPolicy::EveryNth(n) => {
                let _ = write!(switch, "every-nth:{n}");
            }
        }
        let mut max_steps = TokenBuf::<20>::new();
        let _ = write!(max_steps, "{}", self.max_steps);
        let mut rounding = TokenBuf::<32>::new();
        match self.rounding {
            None => rounding.push("none"),
            Some(FpRound::BitExact) => rounding.push("bit-exact"),
            Some(FpRound::MaskMantissa { bits }) => {
                let _ = write!(rounding, "mask-mantissa:{bits}");
            }
            Some(FpRound::FloorDecimal { digits }) => {
                let _ = write!(rounding, "floor-decimal:{digits}");
            }
            Some(FpRound::NearestDecimal { digits }) => {
                let _ = write!(rounding, "nearest-decimal:{digits}");
            }
        }
        let mut ignore = TokenBuf::<16>::new();
        let _ = write!(ignore, "{:016x}", self.ignore_token);
        let mut faults = TokenBuf::<16>::new();
        let _ = write!(faults, "{:016x}", self.fault_token);
        let mut alloc_seed = TokenBuf::<20>::new();
        match self.alloc_seed {
            None => alloc_seed.push("log"),
            Some(s) => {
                let _ = write!(alloc_seed, "{s}");
            }
        }
        f(&[
            ("version", version.as_str()),
            ("workload", &self.workload),
            ("scheme", self.scheme.name()),
            ("seed", seed.as_str()),
            ("lib_seed", lib_seed.as_str()),
            ("switch", switch.as_str()),
            ("max_steps", max_steps.as_str()),
            ("rounding", rounding.as_str()),
            ("ignore", ignore.as_str()),
            ("faults", faults.as_str()),
            ("cache_model", if self.cache_model { "1" } else { "0" }),
            ("alloc_seed", alloc_seed.as_str()),
        ])
    }

    /// A canonical single-string rendering of [`tokens`](RunKey::tokens)
    /// (fields joined in label order) — the map key of
    /// [`MemoryRunCache`] and a convenient debugging handle.
    pub fn canonical(&self) -> String {
        let mut fields = self.tokens();
        fields.sort_by_key(|(label, _)| *label);
        let mut s = String::new();
        for (label, value) in fields {
            s.push_str(label);
            s.push('=');
            s.push_str(&value);
            s.push(';');
        }
        s
    }
}

/// One completed run, as a cache can reproduce it: the hash sequence
/// plus the accounting and logs the checker needs to make a warm
/// campaign indistinguishable from a cold one.
#[derive(Debug, Clone)]
pub struct CachedRun {
    /// The run's hash sequence (checkpoints, output digest, cost and
    /// cache counters).
    pub hashes: RunHashes,
    /// Scheduler steps the run took (metrics + trace).
    pub steps: u64,
    /// Native instructions the run executed (metrics + trace).
    pub native_instr: u64,
    /// Zero-fill instructions charged to the run (trace).
    pub zero_fill_instr: u64,
    /// The allocator log the run recorded, present exactly when the run
    /// logged its own addresses (`RunKey::alloc_seed == None`); later
    /// slots of a warm campaign replay it just as they would a cold
    /// log.
    pub alloc_log: Option<Arc<AllocLog>>,
    /// The simulator events the run emitted under its sink, in order —
    /// present only when the run was recorded by a tracing campaign.
    /// Campaigns that trace treat an entry without one as a miss.
    pub sim_trace: Option<Vec<Event>>,
}

/// What a claim-aware cache told an attempt to do.
///
/// Returned by [`RunCache::begin`]. `Hit` carries a published outcome;
/// `Compute` tells the caller to simulate the run itself. When
/// `claimed` is `true` the cache has recorded the attempt as
/// *in-flight* — concurrent attempts on the same key will wait for this
/// one instead of recomputing — and the caller **must** resolve the
/// claim with exactly one of [`RunCache::store`] (on completion) or
/// [`RunCache::abandon`] (on failure or unwind).
#[derive(Debug)]
pub enum CacheLease {
    /// A trustworthy published outcome; replay it.
    Hit(Arc<CachedRun>),
    /// No outcome yet; the caller computes the run.
    Compute {
        /// Whether the cache tracks this attempt as in-flight (and so
        /// must be released via `store` or `abandon`).
        claimed: bool,
    },
}

/// A store of completed run outcomes keyed by [`RunKey`].
///
/// Implementations must be infallible at the API level: corruption or
/// I/O trouble is an implementation concern (quarantine, recompute) and
/// surfaces as a `None` lookup, never as a trusted-but-wrong hit.
///
/// Outcomes travel as `Arc<CachedRun>` so publication is a pointer
/// swap: a hit never deep-copies the hash sequence or a recorded event
/// trace, and a concurrent cache can publish an entry to other workers
/// with a single atomic store.
///
/// The optional claim protocol ([`begin`](RunCache::begin) /
/// [`abandon`](RunCache::abandon)) lets a cache deduplicate *in-flight*
/// work: when two workers race the same key, one computes and the other
/// waits for the published result. The default implementations degrade
/// to plain `lookup` with no claim tracking, so simple caches need not
/// implement them.
pub trait RunCache: fmt::Debug + Send + Sync {
    /// Returns the recorded outcome for `key`, if one is stored and
    /// trustworthy.
    fn lookup(&self, key: &RunKey) -> Option<Arc<CachedRun>>;

    /// Records the outcome of a completed run under `key`, releasing
    /// the caller's claim on the key if it held one.
    fn store(&self, key: &RunKey, run: &Arc<CachedRun>);

    /// Claim-aware lookup: returns the published outcome, or tells the
    /// caller to compute it — possibly registering the attempt as
    /// in-flight so concurrent attempts on `key` wait instead of
    /// duplicating the work. The default is a plain [`lookup`]
    /// (`lookup`): hits map to [`CacheLease::Hit`], misses to an
    /// unclaimed [`CacheLease::Compute`].
    ///
    /// [`lookup`]: RunCache::lookup
    fn begin(&self, key: &RunKey) -> CacheLease {
        match self.lookup(key) {
            Some(hit) => CacheLease::Hit(hit),
            None => CacheLease::Compute { claimed: false },
        }
    }

    /// Releases a claim issued by [`begin`](RunCache::begin) without
    /// publishing an outcome (the attempt failed or was abandoned), so
    /// waiting attempts wake up and compute the run themselves. A no-op
    /// for caches without claim tracking, and for keys the caller does
    /// not hold a claim on.
    fn abandon(&self, _key: &RunKey) {}
}

/// A process-local, in-memory [`RunCache`].
///
/// # Example
///
/// Two campaigns over the same workload share the run results — the
/// second is satisfied entirely from memory and produces the identical
/// report:
///
/// ```
/// use std::sync::Arc;
/// use instantcheck::{Checker, CheckerConfig, MemoryRunCache, Scheme};
/// use tsim::{ProgramBuilder, ValKind};
///
/// let source = || {
///     let mut b = ProgramBuilder::new(2);
///     let g = b.global("G", ValKind::U64, 1);
///     let lock = b.mutex();
///     for t in 0..2u64 {
///         b.thread(async move |ctx| {
///             ctx.lock(lock).await;
///             let v = ctx.load(g.at(0)).await;
///             ctx.store(g.at(0), v + t + 1).await;
///             ctx.unlock(lock).await;
///         });
///     }
///     b.build()
/// };
///
/// let cache = Arc::new(MemoryRunCache::new());
/// let cfg = CheckerConfig::new(Scheme::HwInc)
///     .with_runs(4)
///     .with_run_cache(cache.clone(), "g-plus-t");
/// let cold = Checker::new(cfg.clone()).expect("valid config").check(source).unwrap();
/// let warm = Checker::new(cfg).expect("valid config").check(source).unwrap();
/// assert_eq!(cold, warm);
/// assert_eq!(cache.hits(), 4);
/// ```
#[derive(Debug, Default)]
pub struct MemoryRunCache {
    entries: Mutex<HashMap<String, Arc<CachedRun>>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl MemoryRunCache {
    /// An empty cache.
    pub fn new() -> Self {
        MemoryRunCache::default()
    }

    /// Number of stored runs.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups satisfied from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl RunCache for MemoryRunCache {
    fn lookup(&self, key: &RunKey) -> Option<Arc<CachedRun>> {
        let hit = self.entries.lock().unwrap().get(&key.canonical()).cloned();
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        hit
    }

    fn store(&self, key: &RunKey, run: &Arc<CachedRun>) {
        self.entries
            .lock()
            .unwrap()
            .insert(key.canonical(), Arc::clone(run));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_key() -> RunKey {
        RunKey {
            workload: "w:scaled".into(),
            scheme: Scheme::HwInc,
            seed: 7,
            lib_seed: 0xfeed,
            switch: SwitchPolicy::SyncOnly,
            max_steps: 1000,
            rounding: None,
            ignore_token: 0,
            fault_token: 0,
            cache_model: false,
            alloc_seed: None,
        }
    }

    fn sample_run() -> CachedRun {
        CachedRun {
            hashes: RunHashes {
                checkpoints: Vec::new(),
                output_digest: 5,
                extra_instr: 1,
                stores: 2,
                hash_updates: 3,
                cache: None,
            },
            steps: 10,
            native_instr: 20,
            zero_fill_instr: 0,
            alloc_log: None,
            sim_trace: None,
        }
    }

    #[test]
    fn with_tokens_renders_exactly_like_the_token_helpers() {
        // The stack rendering duplicates switch_token/rounding_token's
        // formats; this pins them together across every parametric
        // variant so the fingerprint can never drift from the spec
        // tokens.
        let mut key = sample_key();
        key.workload = "canneal:full".into();
        key.seed = u64::MAX;
        key.lib_seed = 0;
        key.switch = SwitchPolicy::EveryNth(12345);
        key.max_steps = 42;
        key.rounding = Some(FpRound::NearestDecimal { digits: 6 });
        key.ignore_token = 0xdead_beef;
        key.fault_token = u64::MAX;
        key.cache_model = true;
        key.alloc_seed = Some(u64::MAX);
        for key in [sample_key(), key] {
            let owned = key.tokens();
            key.with_tokens(|borrowed| {
                assert_eq!(owned.len(), borrowed.len());
                for ((ol, ov), (bl, bv)) in owned.iter().zip(borrowed) {
                    assert_eq!((ol, ov.as_str()), (bl, *bv));
                }
            });
            assert_eq!(
                owned[5].1,
                crate::spec::switch_token(key.switch),
                "switch rendering drifted"
            );
            assert_eq!(
                owned[7].1,
                crate::spec::rounding_token(key.rounding),
                "rounding rendering drifted"
            );
        }
    }

    #[test]
    fn canonical_distinguishes_every_field() {
        let base = sample_key();
        let mut variants = vec![base.clone()];
        let mut k = base.clone();
        k.workload = "other".into();
        variants.push(k.clone());
        k = base.clone();
        k.scheme = Scheme::SwTr;
        variants.push(k.clone());
        k = base.clone();
        k.seed = 8;
        variants.push(k.clone());
        k = base.clone();
        k.lib_seed = 1;
        variants.push(k.clone());
        k = base.clone();
        k.switch = SwitchPolicy::EveryNth(3);
        variants.push(k.clone());
        k = base.clone();
        k.max_steps = 999;
        variants.push(k.clone());
        k = base.clone();
        k.rounding = Some(FpRound::default());
        variants.push(k.clone());
        k = base.clone();
        k.ignore_token = 9;
        variants.push(k.clone());
        k = base.clone();
        k.fault_token = 9;
        variants.push(k.clone());
        k = base.clone();
        k.cache_model = true;
        variants.push(k.clone());
        k = base.clone();
        k.alloc_seed = Some(1);
        variants.push(k);
        let canon: Vec<String> = variants.iter().map(RunKey::canonical).collect();
        for i in 0..canon.len() {
            for j in (i + 1)..canon.len() {
                assert_ne!(canon[i], canon[j], "fields {i} and {j} collide");
            }
        }
    }

    #[test]
    fn memory_cache_round_trips() {
        let cache = MemoryRunCache::new();
        let key = sample_key();
        assert!(cache.lookup(&key).is_none());
        assert_eq!(cache.misses(), 1);
        cache.store(&key, &Arc::new(sample_run()));
        let hit = cache.lookup(&key).expect("stored");
        assert_eq!(hit.hashes.output_digest, 5);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn fault_plan_tokens_depend_on_seed_and_triggers() {
        use tsim::{FaultKind, Trigger};
        let a = fault_plan_token(&FaultPlan::new(1));
        let b = fault_plan_token(&FaultPlan::new(2));
        assert_ne!(a, b);
        let c = fault_plan_token(&FaultPlan::new(1).with(FaultKind::BitFlip, Trigger::Nth(0)));
        assert_ne!(a, c);
        let d = fault_plan_token(&FaultPlan::new(1).with(
            FaultKind::BitFlip,
            Trigger::Rate {
                num: 1,
                denom: 1000,
            },
        ));
        assert_ne!(c, d);
        assert_eq!(a, fault_plan_token(&FaultPlan::new(1)), "pure function");
        assert_ne!(a, 0, "0 is reserved for no-plan");
    }
}
