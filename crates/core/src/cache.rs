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
use crate::spec::{rounding_token, switch_token};

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

/// Byte offsets of the key block's fields ([`RunKey::with_bytes`]).
mod block {
    /// `u32` [`RUN_KEY_VERSION`](super::RUN_KEY_VERSION).
    pub const VERSION: usize = 0;
    /// `u8` tags: scheme, switch, rounding, cache model, alloc seed
    /// present.
    pub const TAGS: usize = VERSION + 4;
    /// `u32` parameter of the switch tag (`every-nth`'s n, else 0).
    pub const SWITCH_ARG: usize = TAGS + 5;
    /// `u32` parameter of the rounding tag (bits or digits, else 0).
    pub const ROUNDING_ARG: usize = SWITCH_ARG + 4;
    /// Six `u64` words: seed, lib seed, max steps, ignore token, fault
    /// token, alloc seed (0 when absent).
    pub const WORDS: usize = ROUNDING_ARG + 4;
    /// `u32` byte length of the workload id, which follows.
    pub const WORKLOAD_LEN: usize = WORDS + 6 * 8;
    /// The fixed part: everything before the workload id (69 bytes).
    pub const FIXED: usize = WORKLOAD_LEN + 4;
    /// Blocks up to this length are encoded on the stack.
    pub const INLINE: usize = 128;
}

/// Why a byte string is not the key block of any [`RunKey`]
/// ([`RunKey::from_bytes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyBlockError {
    /// Fewer bytes than the fixed part or the declared workload id.
    Truncated {
        /// Bytes declared.
        expected: usize,
        /// Bytes present.
        found: usize,
    },
    /// A block written under another [`RUN_KEY_VERSION`].
    Version(u32),
    /// A tag byte outside its field's table.
    UnknownTag {
        /// The field the tag selects a variant of.
        field: &'static str,
        /// The tag found.
        tag: u8,
    },
    /// The workload id is not UTF-8.
    WorkloadNotUtf8,
    /// The block decodes, but its key encodes to other bytes: a
    /// parameter or word set where its tag has none, or bytes after
    /// the workload id.
    NonCanonical,
}

impl fmt::Display for KeyBlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyBlockError::Truncated { expected, found } => {
                write!(f, "{found} key bytes present, {expected} declared")
            }
            KeyBlockError::Version(v) => write!(f, "key version {v}, expected {RUN_KEY_VERSION}"),
            KeyBlockError::UnknownTag { field, tag } => write!(f, "unknown {field} tag {tag}"),
            KeyBlockError::WorkloadNotUtf8 => write!(f, "workload id is not utf-8"),
            KeyBlockError::NonCanonical => write!(f, "key block is not canonical"),
        }
    }
}

impl std::error::Error for KeyBlockError {}

impl RunKey {
    /// The labels of [`tokens`](RunKey::tokens), in their order.
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

    /// Byte length of a key block before its workload id
    /// ([`with_bytes`](RunKey::with_bytes)): the block of a key with
    /// an empty id.
    pub const BLOCK_FIXED_LEN: usize = block::FIXED;

    /// Calls `f` with the key's canonical binary block: the form the
    /// corpus fingerprints, stores and compares. Little-endian, one
    /// encoding per key:
    ///
    /// ```text
    ///  0  u32      RUN_KEY_VERSION
    ///  4  5 × u8   tags: scheme (0 Native | 1 HwInc | 2 SwInc | 3 SwTr),
    ///              switch (0 sync-only | 1 every-access | 2 every-nth),
    ///              rounding (0 none | 1 bit-exact | 2 mask-mantissa
    ///              | 3 floor-decimal | 4 nearest-decimal),
    ///              cache_model (0 | 1), alloc_seed present (0 | 1)
    ///  9  u32      switch parameter (every-nth's n, else 0)
    /// 13  u32      rounding parameter (bits or digits, else 0)
    /// 17  6 × u64  seed, lib_seed, max_steps, ignore, faults,
    ///              alloc_seed (0 when absent)
    /// 65  u32      workload id length, then the id's UTF-8 bytes
    /// ```
    ///
    /// The version rides in the block, so bumping [`RUN_KEY_VERSION`]
    /// invalidates old entries by key mismatch. A block of up to 128
    /// bytes (a workload id of up to 59) is encoded on the stack, so
    /// the corpus probes such keys without allocating.
    ///
    /// # Panics
    ///
    /// When the workload id is 4 GiB or longer.
    pub fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let len = block::FIXED + self.workload.len();
        if len <= block::INLINE {
            let mut buf = [0u8; block::INLINE];
            self.write_block(&mut buf[..len]);
            f(&buf[..len])
        } else {
            let mut buf = vec![0u8; len];
            self.write_block(&mut buf);
            f(&buf)
        }
    }

    /// Encodes the block into `out`, which is exactly its length.
    fn write_block(&self, out: &mut [u8]) {
        let scheme = match self.scheme {
            Scheme::Native => 0,
            Scheme::HwInc => 1,
            Scheme::SwInc => 2,
            Scheme::SwTr => 3,
        };
        let (switch, switch_arg) = match self.switch {
            SwitchPolicy::SyncOnly => (0, 0),
            SwitchPolicy::EveryAccess => (1, 0),
            SwitchPolicy::EveryNth(n) => (2, n),
        };
        let (rounding, rounding_arg) = match self.rounding {
            None => (0, 0),
            Some(FpRound::BitExact) => (1, 0),
            Some(FpRound::MaskMantissa { bits }) => (2, bits),
            Some(FpRound::FloorDecimal { digits }) => (3, digits),
            Some(FpRound::NearestDecimal { digits }) => (4, digits),
        };
        let workload_len = u32::try_from(self.workload.len()).expect("workload id under 4 GiB");
        let mut at = 0;
        let mut put = |bytes: &[u8]| {
            out[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        };
        put(&RUN_KEY_VERSION.to_le_bytes());
        put(&[
            scheme,
            switch,
            rounding,
            u8::from(self.cache_model),
            u8::from(self.alloc_seed.is_some()),
        ]);
        put(&switch_arg.to_le_bytes());
        put(&rounding_arg.to_le_bytes());
        for word in [
            self.seed,
            self.lib_seed,
            self.max_steps,
            self.ignore_token,
            self.fault_token,
            self.alloc_seed.unwrap_or(0),
        ] {
            put(&word.to_le_bytes());
        }
        put(&workload_len.to_le_bytes());
        put(self.workload.as_bytes());
    }

    /// The key whose [`with_bytes`](RunKey::with_bytes) block is
    /// exactly `bytes` — for tooling that reads stored keys back.
    ///
    /// # Errors
    ///
    /// A [`KeyBlockError`] when `bytes` is cut short, carries another
    /// version or an unknown tag, holds a workload id that is not
    /// UTF-8, or is not the canonical block of the key it decodes to.
    pub fn from_bytes(bytes: &[u8]) -> Result<RunKey, KeyBlockError> {
        let fixed = bytes.get(..block::FIXED).ok_or(KeyBlockError::Truncated {
            expected: block::FIXED,
            found: bytes.len(),
        })?;
        let u32_at = |at: usize| u32::from_le_bytes(fixed[at..at + 4].try_into().expect("4 bytes"));
        let word = |i: usize| {
            let at = block::WORDS + 8 * i;
            u64::from_le_bytes(fixed[at..at + 8].try_into().expect("8 bytes"))
        };
        let version = u32_at(block::VERSION);
        if version != RUN_KEY_VERSION {
            return Err(KeyBlockError::Version(version));
        }
        let tags = &fixed[block::TAGS..block::TAGS + 5];
        let unknown = |field, tag| KeyBlockError::UnknownTag { field, tag };
        let scheme = match tags[0] {
            0 => Scheme::Native,
            1 => Scheme::HwInc,
            2 => Scheme::SwInc,
            3 => Scheme::SwTr,
            tag => return Err(unknown("scheme", tag)),
        };
        let switch = match (tags[1], u32_at(block::SWITCH_ARG)) {
            (0, _) => SwitchPolicy::SyncOnly,
            (1, _) => SwitchPolicy::EveryAccess,
            (2, n) => SwitchPolicy::EveryNth(n),
            (tag, _) => return Err(unknown("switch", tag)),
        };
        let rounding = match (tags[2], u32_at(block::ROUNDING_ARG)) {
            (0, _) => None,
            (1, _) => Some(FpRound::BitExact),
            (2, bits) => Some(FpRound::MaskMantissa { bits }),
            (3, digits) => Some(FpRound::FloorDecimal { digits }),
            (4, digits) => Some(FpRound::NearestDecimal { digits }),
            (tag, _) => return Err(unknown("rounding", tag)),
        };
        let flag = |field, tag| match tag {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(unknown(field, tag)),
        };
        let cache_model = flag("cache_model", tags[3])?;
        let alloc_seed = flag("alloc_seed", tags[4])?.then(|| word(5));
        let declared = block::FIXED.saturating_add(u32_at(block::WORKLOAD_LEN) as usize);
        let id = bytes
            .get(block::FIXED..declared)
            .ok_or(KeyBlockError::Truncated {
                expected: declared,
                found: bytes.len(),
            })?;
        let workload = std::str::from_utf8(id)
            .map_err(|_| KeyBlockError::WorkloadNotUtf8)?
            .to_owned();
        let key = RunKey {
            workload,
            scheme,
            seed: word(0),
            lib_seed: word(1),
            switch,
            max_steps: word(2),
            rounding,
            ignore_token: word(3),
            fault_token: word(4),
            cache_model,
            alloc_seed,
        };
        // Re-encoding is the canonical check: it refuses a parameter or
        // word set where its tag has none, and trailing bytes.
        if key.with_bytes(|canonical| canonical != bytes) {
            return Err(KeyBlockError::NonCanonical);
        }
        Ok(key)
    }

    /// The key as `(label, value)` text fields, [`LABELS`](RunKey::LABELS)
    /// in order: the human form `corpus dump` prints. Switch and
    /// rounding values are [`switch_token`] and [`rounding_token`];
    /// ignore and fault tokens are 16 hex digits; an absent alloc seed
    /// reads `log`.
    pub fn tokens(&self) -> Vec<(&'static str, String)> {
        let values = [
            RUN_KEY_VERSION.to_string(),
            self.workload.clone(),
            self.scheme.name().to_owned(),
            self.seed.to_string(),
            self.lib_seed.to_string(),
            switch_token(self.switch),
            self.max_steps.to_string(),
            rounding_token(self.rounding),
            format!("{:016x}", self.ignore_token),
            format!("{:016x}", self.fault_token),
            u8::from(self.cache_model).to_string(),
            self.alloc_seed
                .map_or_else(|| "log".to_owned(), |s| s.to_string()),
        ];
        Self::LABELS.into_iter().zip(values).collect()
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

    /// A `u64` biased to the block's edges: zero, byte boundaries, the
    /// extremes, and uniform values.
    fn edge_u64(g: &mut Gen) -> u64 {
        match g.usize_in(0, 6) {
            0 => 0,
            1 => u64::MAX,
            2 => *g.pick(&[1, 0xff, 0x100, u64::from(u32::MAX), u64::MAX - 1, 1 << 63]),
            3 => g.u64_in(0, 1000),
            4 => u64::from(g.u32()),
            _ => g.u64(),
        }
    }

    fn edge_u32(g: &mut Gen) -> u32 {
        match g.usize_in(0, 3) {
            0 => *g.pick(&[0, 1, 52, 0xff, 0x100, u32::MAX]),
            1 => g.u64_in(0, 100) as u32,
            _ => g.u32(),
        }
    }

    /// Workload ids from empty to past the inline buffer, with
    /// multi-byte UTF-8.
    fn gen_workload(g: &mut Gen) -> String {
        let parts = [
            "",
            "canneal:scaled",
            "fft:full=x;y",
            "é",
            "∑ ",
            "🦀",
            "a b%",
        ];
        g.vec_of(0, 40, |g| *g.pick(&parts)).concat()
    }

    fn gen_key(g: &mut Gen) -> RunKey {
        RunKey {
            workload: gen_workload(g),
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
        }
    }

    fn block(key: &RunKey) -> Vec<u8> {
        key.with_bytes(<[u8]>::to_vec)
    }

    #[test]
    fn key_blocks_round_trip() {
        minicheck::check("key_blocks_round_trip", 2000, |g: &mut Gen| {
            let key = gen_key(g);
            let bytes = block(&key);
            assert_eq!(bytes.len(), 69 + key.workload.len());
            assert_eq!(RunKey::from_bytes(&bytes).as_ref(), Ok(&key));
        });
        let mut key = sample_key();
        key.seed = u64::MAX;
        key.lib_seed = u64::MAX;
        key.max_steps = u64::MAX;
        key.ignore_token = u64::MAX;
        key.fault_token = u64::MAX;
        key.alloc_seed = Some(u64::MAX);
        key.switch = SwitchPolicy::EveryNth(u32::MAX);
        key.rounding = Some(FpRound::NearestDecimal { digits: u32::MAX });
        for workload in [String::new(), "é".repeat(30), "🦀".repeat(200)] {
            key.workload = workload;
            assert_eq!(RunKey::from_bytes(&block(&key)), Ok(key.clone()));
        }
    }

    #[test]
    fn near_miss_keys_encode_apart() {
        let base = sample_key();
        let step = |f: &dyn Fn(&mut RunKey)| {
            let mut k = base.clone();
            f(&mut k);
            k
        };
        let mut pairs: Vec<(RunKey, RunKey)> = vec![
            (base.clone(), step(&|k| k.workload.push('!'))),
            (base.clone(), step(&|k| k.workload.pop().map(drop).unwrap())),
            (base.clone(), step(&|k| k.scheme = Scheme::SwInc)),
            (base.clone(), step(&|k| k.seed += 1)),
            (base.clone(), step(&|k| k.lib_seed += 1)),
            (base.clone(), step(&|k| k.max_steps += 1)),
            (base.clone(), step(&|k| k.ignore_token += 1)),
            (base.clone(), step(&|k| k.fault_token += 1)),
            (base.clone(), step(&|k| k.cache_model = true)),
            (base.clone(), step(&|k| k.alloc_seed = Some(0))),
            (
                step(&|k| k.alloc_seed = Some(6)),
                step(&|k| k.alloc_seed = Some(7)),
            ),
            (
                step(&|k| k.switch = SwitchPolicy::EveryNth(0)),
                step(&|k| k.switch = SwitchPolicy::EveryAccess),
            ),
            (
                step(&|k| k.switch = SwitchPolicy::EveryNth(3)),
                step(&|k| k.switch = SwitchPolicy::EveryNth(4)),
            ),
            (
                base.clone(),
                step(&|k| k.rounding = Some(FpRound::BitExact)),
            ),
            (
                step(&|k| k.rounding = Some(FpRound::MaskMantissa { bits: 0 })),
                step(&|k| k.rounding = Some(FpRound::BitExact)),
            ),
            (
                step(&|k| k.rounding = Some(FpRound::FloorDecimal { digits: 3 })),
                step(&|k| k.rounding = Some(FpRound::NearestDecimal { digits: 3 })),
            ),
            (
                step(&|k| k.rounding = Some(FpRound::FloorDecimal { digits: 3 })),
                step(&|k| k.rounding = Some(FpRound::FloorDecimal { digits: 4 })),
            ),
        ];
        // A workload id that is a prefix of the other, with the tail
        // spelling what a shifted field would.
        pairs.push((
            step(&|k| k.workload = "fft".into()),
            step(&|k| k.workload = "fft\0\0\0\0".into()),
        ));
        for (i, (a, b)) in pairs.iter().enumerate() {
            assert_ne!(a, b, "pair {i} is a near miss, not a repeat");
            assert_ne!(block(a), block(b), "pair {i}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn malformed_blocks_are_refused_with_a_typed_error() {
        let mut key = sample_key();
        key.alloc_seed = Some(3);
        let good = block(&key);
        let with = |at: usize, byte: u8| {
            let mut b = good.clone();
            b[at] = byte;
            RunKey::from_bytes(&b)
        };
        for cut in 0..good.len() {
            assert!(
                matches!(
                    RunKey::from_bytes(&good[..cut]),
                    Err(KeyBlockError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
        assert_eq!(with(0, 2), Err(KeyBlockError::Version(2)));
        for (at, field) in [
            (4, "scheme"),
            (5, "switch"),
            (6, "rounding"),
            (7, "cache_model"),
            (8, "alloc_seed"),
        ] {
            assert_eq!(
                with(at, 9),
                Err(KeyBlockError::UnknownTag { field, tag: 9 }),
                "{field}"
            );
        }
        // A parameter where the tag takes none, an alloc seed word
        // under an absent tag, a trailing byte.
        assert_eq!(with(9, 1), Err(KeyBlockError::NonCanonical));
        assert_eq!(with(13, 1), Err(KeyBlockError::NonCanonical));
        let mut absent = good.clone();
        absent[8] = 0;
        assert_eq!(
            RunKey::from_bytes(&absent),
            Err(KeyBlockError::NonCanonical)
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            RunKey::from_bytes(&trailing),
            Err(KeyBlockError::NonCanonical)
        );
        assert_eq!(with(69, 0xff), Err(KeyBlockError::WorkloadNotUtf8));
    }

    #[test]
    fn garbled_blocks_never_panic_and_only_canonical_ones_decode() {
        minicheck::check("garbled_key_blocks", 2000, |g: &mut Gen| {
            let mut bytes = block(&gen_key(g));
            for _ in 0..g.usize_in(1, 4) {
                match g.usize_in(0, 3) {
                    0 if !bytes.is_empty() => {
                        let at = g.usize_in(0, bytes.len());
                        bytes[at] = g.u32() as u8;
                    }
                    1 => bytes.truncate(g.usize_in(0, bytes.len() + 1)),
                    _ => bytes.push(g.u32() as u8),
                }
            }
            if let Ok(key) = RunKey::from_bytes(&bytes) {
                assert_eq!(block(&key), bytes);
            }
        });
    }

    #[test]
    fn tokens_render_the_dump_form() {
        let mut key = sample_key();
        key.seed = u64::MAX;
        key.switch = SwitchPolicy::EveryNth(12345);
        key.rounding = Some(FpRound::NearestDecimal { digits: 6 });
        key.ignore_token = 0xdead_beef;
        key.cache_model = true;
        key.alloc_seed = Some(4);
        let rendered: Vec<String> = key
            .tokens()
            .iter()
            .map(|(label, value)| format!("{label}={value}"))
            .collect();
        assert_eq!(
            rendered.join(" "),
            "version=1 workload=w:scaled scheme=HwInc seed=18446744073709551615 \
             lib_seed=65261 switch=every-nth:12345 max_steps=1000 \
             rounding=nearest-decimal:6 ignore=00000000deadbeef \
             faults=0000000000000000 cache_model=1 alloc_seed=4"
        );
        assert_eq!(sample_key().tokens()[11].1, "log");
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
