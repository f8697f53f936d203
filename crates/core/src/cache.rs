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
//! The one implementation is `corpus::Corpus` (the `corpus` crate): a
//! log-structured, crash-safe on-disk store with corruption quarantine
//! behind a lock-free in-memory memo arena — the persistent
//! cross-process corpus. Tests that only need a warm cache open one in
//! a temp directory.
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

use std::fmt;
use std::sync::Arc;

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
/// kind's trigger as a tagged word. Equal plans (same seed, same
/// triggers) produce equal tokens; `None` plans are conventionally
/// token `0`.
pub fn fault_plan_token(plan: &FaultPlan) -> u64 {
    let mut h = mix_u64(0xfa17_07a9_0000_0001, plan.seed);
    for kind in FAULT_KINDS {
        let t = trigger_word(plan.trigger(kind));
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

/// One trigger as a word whose top two bits are its tag. `never` is
/// `0`; `nth:n` (tag 1) and `rate:num/denom` (tag 2) pack their fields
/// bit for bit whenever they fit (`n < 2^62`; `num, denom < 2^31`),
/// which is the form every stored key was made with. Fields that do
/// not fit would overlap the tag or each other (`rate:1/1` and
/// `rate:0/2147483649` packed alike), so they are mixed instead, under
/// tag 3, which no packed trigger uses.
fn trigger_word(trigger: tsim::Trigger) -> u64 {
    const MIXED: u64 = 3 << 62;
    match trigger {
        tsim::Trigger::Never => 0,
        tsim::Trigger::Nth(n) if n < 1 << 62 => 1 << 62 | n,
        tsim::Trigger::Rate { num, denom } if num < 1 << 31 && denom < 1 << 31 => {
            2 << 62 | num << 31 | denom
        }
        tsim::Trigger::Nth(n) => MIXED | mix_u64(0x0d7a_11e5_0000_0001, n) >> 2,
        tsim::Trigger::Rate { num, denom } => {
            MIXED | mix_u64(mix_u64(0x7a7e_11e5_0000_0002, num), denom) >> 2
        }
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

/// A fixed-capacity stack string for one rendered key token, written
/// by a hand-rolled formatter instead of `core::fmt` (a hit renders
/// every token, so the formatting machinery would dominate the lookup).
/// Writes past the capacity are dropped instead of allocating;
/// capacities are sized to each field's maximum rendering.
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
        self.push_bytes(s.as_bytes());
    }

    fn push_bytes(&mut self, b: &[u8]) {
        let end = self.len + b.len();
        if end <= N {
            self.bytes[self.len..end].copy_from_slice(b);
            self.len = end;
        }
    }

    /// `v` in decimal, as `{}` renders it.
    fn push_u64(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.push_bytes(&digits[i..]);
    }

    /// `v` as 16 lowercase hex digits, as `{:016x}` renders it.
    fn push_hex16(&mut self, v: u64) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut digits = [0u8; 16];
        for (i, d) in digits.iter_mut().enumerate() {
            *d = HEX[(v >> (60 - 4 * i)) as usize & 0xf];
        }
        self.push_bytes(&digits);
    }

    fn as_str(&self) -> &str {
        // Only whole `str`s and ASCII digits are ever copied in, so the
        // prefix is valid UTF-8 by construction.
        std::str::from_utf8(&self.bytes[..self.len]).unwrap_or_default()
    }
}

impl RunKey {
    /// The labels of [`with_tokens`](RunKey::with_tokens), in their
    /// order. The corpus precomputes each label's fingerprint state from
    /// this list.
    pub const LABELS: [&'static str; 12] = [
        "version",
        "workload",
        "scheme",
        "seed",
        "lib_seed",
        "switch",
        "max_steps",
        "rounding",
        "ignore",
        "faults",
        "cache_model",
        "alloc_seed",
    ];

    /// Calls `f` with the key as canonical `(label, value)` fields,
    /// borrowed on the stack: [`LABELS`](RunKey::LABELS) in order, no
    /// allocation and no `core::fmt` (the corpus renders every key it
    /// probes).
    ///
    /// This is the serialization contract for fingerprinting: every
    /// field is rendered to a stable string, labels are unique, and a
    /// fingerprint built from these fields must not depend on their
    /// order (see the corpus crate's order-independent fingerprint).
    /// The encoding version rides along as its own field, so bumping
    /// [`RUN_KEY_VERSION`] invalidates old entries by key mismatch.
    pub fn with_tokens<R>(&self, f: impl FnOnce(&[(&'static str, &str)]) -> R) -> R {
        let mut version = TokenBuf::<10>::new();
        version.push_u64(u64::from(RUN_KEY_VERSION));
        let mut seed = TokenBuf::<20>::new();
        seed.push_u64(self.seed);
        let mut lib_seed = TokenBuf::<20>::new();
        lib_seed.push_u64(self.lib_seed);
        let mut switch = TokenBuf::<32>::new();
        match self.switch {
            SwitchPolicy::SyncOnly => switch.push("sync-only"),
            SwitchPolicy::EveryAccess => switch.push("every-access"),
            SwitchPolicy::EveryNth(n) => {
                switch.push("every-nth:");
                switch.push_u64(u64::from(n));
            }
        }
        let mut max_steps = TokenBuf::<20>::new();
        max_steps.push_u64(self.max_steps);
        let mut rounding = TokenBuf::<32>::new();
        match self.rounding {
            None => rounding.push("none"),
            Some(FpRound::BitExact) => rounding.push("bit-exact"),
            Some(FpRound::MaskMantissa { bits }) => {
                rounding.push("mask-mantissa:");
                rounding.push_u64(u64::from(bits));
            }
            Some(FpRound::FloorDecimal { digits }) => {
                rounding.push("floor-decimal:");
                rounding.push_u64(u64::from(digits));
            }
            Some(FpRound::NearestDecimal { digits }) => {
                rounding.push("nearest-decimal:");
                rounding.push_u64(u64::from(digits));
            }
        }
        let mut ignore = TokenBuf::<16>::new();
        ignore.push_hex16(self.ignore_token);
        let mut faults = TokenBuf::<16>::new();
        faults.push_hex16(self.fault_token);
        let mut alloc_seed = TokenBuf::<20>::new();
        match self.alloc_seed {
            None => alloc_seed.push("log"),
            Some(s) => alloc_seed.push_u64(s),
        }
        let values = [
            version.as_str(),
            self.workload.as_str(),
            self.scheme.name(),
            seed.as_str(),
            lib_seed.as_str(),
            switch.as_str(),
            max_steps.as_str(),
            rounding.as_str(),
            ignore.as_str(),
            faults.as_str(),
            if self.cache_model { "1" } else { "0" },
            alloc_seed.as_str(),
        ];
        let fields: [(&'static str, &str); 12] =
            std::array::from_fn(|i| (Self::LABELS[i], values[i]));
        f(&fields)
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

/// What a cache told an attempt to do.
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
/// surfaces as a miss, never as a trusted-but-wrong hit.
///
/// Outcomes travel as `Arc<CachedRun>` so publication is a pointer
/// swap: a hit never deep-copies the hash sequence or a recorded event
/// trace, and a concurrent cache can publish an entry to other workers
/// with a single atomic store.
///
/// [`begin`](RunCache::begin) is the one find-or-claim operation: when
/// two workers race a key, one is told to compute and the other waits
/// for the published result. Every claim it grants is resolved by
/// [`store`](RunCache::store) or [`abandon`](RunCache::abandon).
pub trait RunCache: fmt::Debug + Send + Sync {
    /// Returns the published outcome for `key`, or tells the caller to
    /// compute it — registering the attempt as in-flight
    /// (`claimed: true`) when the cache can, so concurrent attempts on
    /// `key` wait instead of duplicating the work.
    fn begin(&self, key: &RunKey) -> CacheLease;

    /// Records the outcome of a completed run under `key`, releasing
    /// the caller's claim on the key if it held one.
    fn store(&self, key: &RunKey, run: &Arc<CachedRun>);

    /// Releases a claim issued by [`begin`](RunCache::begin) without
    /// publishing an outcome (the attempt failed or was abandoned), so
    /// waiting attempts wake up and compute the run themselves. A no-op
    /// for keys the caller holds no claim on.
    fn abandon(&self, key: &RunKey);

    /// Returns the recorded outcome for `key`, if one is stored and
    /// trustworthy: a [`begin`](RunCache::begin) whose claimed miss is
    /// abandoned at once. It is therefore not a side-effect-free read:
    ///
    /// * A miss claims the key and leaves it abandoned, so in a cache
    ///   whose slots are never freed (the corpus memo arena) every
    ///   missing key looked up occupies a slot for good and counts
    ///   against the arena's insertion cap.
    /// * Like `begin`, it waits out any in-flight claim on `key`, so it
    ///   must not be called while the caller itself holds that claim:
    ///   the call would wait on itself.
    fn lookup(&self, key: &RunKey) -> Option<Arc<CachedRun>> {
        match self.begin(key) {
            CacheLease::Hit(run) => Some(run),
            CacheLease::Compute { claimed } => {
                if claimed {
                    self.abandon(key);
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use minicheck::Gen;

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

    #[test]
    fn with_tokens_renders_exactly_like_the_token_helpers() {
        // The stack rendering duplicates switch_token/rounding_token's
        // formats; this pins them together so the fingerprint can
        // never drift from the spec tokens (the rendering itself is
        // pinned by `with_tokens_matches_the_fmt_rendering`).
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
            key.with_tokens(|fields| {
                assert_eq!(
                    fields[5].1,
                    crate::spec::switch_token(key.switch),
                    "switch rendering drifted"
                );
                assert_eq!(
                    fields[7].1,
                    crate::spec::rounding_token(key.rounding),
                    "rounding rendering drifted"
                );
            });
        }
    }

    /// The `write!`-based rendering `with_tokens` used before its
    /// hand-rolled formatter, kept as an independent reference.
    fn fmt_tokens(key: &RunKey) -> Vec<(&'static str, String)> {
        let switch = match key.switch {
            SwitchPolicy::SyncOnly => "sync-only".to_owned(),
            SwitchPolicy::EveryAccess => "every-access".to_owned(),
            SwitchPolicy::EveryNth(n) => format!("every-nth:{n}"),
        };
        let rounding = match key.rounding {
            None => "none".to_owned(),
            Some(FpRound::BitExact) => "bit-exact".to_owned(),
            Some(FpRound::MaskMantissa { bits }) => format!("mask-mantissa:{bits}"),
            Some(FpRound::FloorDecimal { digits }) => format!("floor-decimal:{digits}"),
            Some(FpRound::NearestDecimal { digits }) => format!("nearest-decimal:{digits}"),
        };
        vec![
            ("version", format!("{RUN_KEY_VERSION}")),
            ("workload", key.workload.clone()),
            ("scheme", key.scheme.name().to_owned()),
            ("seed", format!("{}", key.seed)),
            ("lib_seed", format!("{}", key.lib_seed)),
            ("switch", switch),
            ("max_steps", format!("{}", key.max_steps)),
            ("rounding", rounding),
            ("ignore", format!("{:016x}", key.ignore_token)),
            ("faults", format!("{:016x}", key.fault_token)),
            (
                "cache_model",
                if key.cache_model { "1" } else { "0" }.to_owned(),
            ),
            (
                "alloc_seed",
                match key.alloc_seed {
                    None => "log".to_owned(),
                    Some(s) => format!("{s}"),
                },
            ),
        ]
    }

    /// A `u64` biased to the rendering's edges: zero, one- and
    /// many-digit boundaries, the extremes, and uniform values.
    fn edge_u64(g: &mut Gen) -> u64 {
        match g.usize_in(0, 6) {
            0 => 0,
            1 => u64::MAX,
            2 => *g.pick(&[1, 9, 10, 99, 100, 0xf, 0x10, u64::MAX - 1, 1 << 63]),
            3 => g.u64_in(0, 1000),
            4 => u64::from(g.u32()),
            _ => g.u64(),
        }
    }

    fn edge_u32(g: &mut Gen) -> u32 {
        match g.usize_in(0, 3) {
            0 => *g.pick(&[0, 1, 9, 10, 52, u32::MAX]),
            1 => g.u64_in(0, 100) as u32,
            _ => g.u32(),
        }
    }

    #[test]
    fn with_tokens_matches_the_fmt_rendering() {
        minicheck::check(
            "with_tokens_matches_the_fmt_rendering",
            2000,
            |g: &mut Gen| {
                let key = RunKey {
                    workload: g.pick(&["", "canneal:scaled", "fft:full=x;y"]).to_string(),
                    scheme: *g.pick(&[Scheme::Native, Scheme::HwInc, Scheme::SwInc, Scheme::SwTr]),
                    seed: edge_u64(g),
                    lib_seed: edge_u64(g),
                    switch: match g.usize_in(0, 3) {
                        0 => SwitchPolicy::SyncOnly,
                        1 => SwitchPolicy::EveryAccess,
                        _ => SwitchPolicy::EveryNth(edge_u32(g)),
                    },
                    max_steps: edge_u64(g),
                    rounding: match g.usize_in(0, 5) {
                        0 => None,
                        1 => Some(FpRound::BitExact),
                        2 => Some(FpRound::MaskMantissa { bits: edge_u32(g) }),
                        3 => Some(FpRound::FloorDecimal {
                            digits: edge_u32(g),
                        }),
                        _ => Some(FpRound::NearestDecimal {
                            digits: edge_u32(g),
                        }),
                    },
                    ignore_token: edge_u64(g),
                    fault_token: edge_u64(g),
                    cache_model: g.bool(),
                    alloc_seed: g.bool().then(|| edge_u64(g)),
                };
                let want = fmt_tokens(&key);
                key.with_tokens(|got| {
                    assert_eq!(got.len(), want.len());
                    for ((gl, gv), (wl, wv)) in got.iter().zip(&want) {
                        assert_eq!((gl, gv), (wl, &wv.as_str()), "{key:?}");
                    }
                });
                let labels: Vec<&str> = want.iter().map(|(l, _)| *l).collect();
                assert_eq!(labels, RunKey::LABELS);
            },
        );
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
        let rendered: Vec<Vec<String>> = variants
            .iter()
            .map(|k| k.with_tokens(|fields| fields.iter().map(|(_, v)| (*v).to_owned()).collect()))
            .collect();
        for i in 0..rendered.len() {
            for j in (i + 1)..rendered.len() {
                assert_ne!(rendered[i], rendered[j], "fields {i} and {j} collide");
            }
        }
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

    /// The packing every stored key was made with, kept as an
    /// independent reference for the triggers that fit it.
    fn packed_word(trigger: tsim::Trigger) -> u64 {
        match trigger {
            tsim::Trigger::Never => 0,
            tsim::Trigger::Nth(n) => 1 << 62 | n,
            tsim::Trigger::Rate { num, denom } => 2 << 62 | num << 31 | denom,
        }
    }

    #[test]
    fn triggers_that_fit_the_packing_keep_their_word() {
        use tsim::Trigger;
        minicheck::check(
            "triggers_that_fit_the_packing_keep_their_word",
            2000,
            |g: &mut Gen| {
                let trigger = match g.usize_in(0, 3) {
                    0 => Trigger::Never,
                    1 => Trigger::Nth(g.u64_in(0, 1 << 62)),
                    _ => Trigger::Rate {
                        num: g.u64_in(0, 1 << 31),
                        denom: g.u64_in(1, 1 << 31),
                    },
                };
                assert_eq!(trigger_word(trigger), packed_word(trigger), "{trigger:?}");
            },
        );
        for edge in [
            Trigger::Nth((1 << 62) - 1),
            Trigger::Rate {
                num: (1 << 31) - 1,
                denom: (1 << 31) - 1,
            },
        ] {
            assert_eq!(trigger_word(edge), packed_word(edge), "{edge:?}");
        }
    }
}
