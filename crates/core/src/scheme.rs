//! The three checking schemes and the monitor that implements them.

use std::ops::Range;

use adhash::{hash_full_state, FpRound, HashSum, LocationHasher, Mix64Hasher};
use mhm::{CacheStats, L1Cache, MhmCore};
use tsim::{
    Addr, BlockInfo, CheckpointInfo, CheckpointKind, EngineHashes, FastPathSpec, Monitor,
    StateView, ThreadId, ValKind,
};

use crate::checker::RunHashes;
use crate::ignore::IgnoreSpec;
use crate::iohash::OutputHasher;

/// Software hashing cost: 5 instructions per hashed byte (the paper's
/// Jenkins-derived figure), and one location hash covers 16 bytes
/// (8-byte address + 8-byte value).
const SW_INSTR_PER_BYTE: u64 = 5;
const SW_INSTR_PER_LOCATION_HASH: u64 = 16 * SW_INSTR_PER_BYTE;
/// SW incremental instrumentation hashes (addr, old) and (addr, new) per
/// store.
const SW_INC_INSTR_PER_STORE: u64 = 2 * SW_INSTR_PER_LOCATION_HASH;
/// SW traversal hashes each live 8-byte word.
const SW_TR_INSTR_PER_WORD: u64 = 8 * SW_INSTR_PER_BYTE;
/// HW exclusion loop: load the word and issue `minus_hash`/`plus_hash`.
const HW_INSTR_PER_EXCLUDED_WORD: u64 = 3;
/// SW exclusion loop: load the word and hash two locations.
const SW_INSTR_PER_EXCLUDED_WORD: u64 = 1 + 2 * SW_INSTR_PER_LOCATION_HASH;

/// Modeled per-thread L1 geometry (32 KiB: 64 sets × 8 ways × 64 B),
/// used when the optional cache model is enabled to check §3.1's
/// write-allocate claim on real campaign store streams.
const L1_SETS: usize = 64;
const L1_ASSOC: usize = 8;
const L1_LINE_BYTES: u64 = 64;

/// Which InstantCheck scheme computes the state hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No checking at all (the paper's *Native* baseline).
    Native,
    /// `HW-InstantCheck_Inc`: per-core MHM hardware maintains the
    /// per-thread hashes on the fly; software sums them at checkpoints.
    HwInc,
    /// `SW-InstantCheck_Inc`: the same incremental hash maintained by
    /// software instrumentation of every store.
    ///
    /// Our implementation — like the paper's own prototype — obtains the
    /// old/new value pair atomically because the test driver serializes
    /// execution; a non-serialized implementation would either pay for
    /// atomicity or risk hashing a stale old value under write-write
    /// races (see `stale_old_value_corrupts_the_hash` in this module's
    /// tests for the failure mode).
    SwInc,
    /// `SW-InstantCheck_Tr`: traverse the entire live state (static data
    /// + allocation table) at every checkpoint.
    SwTr,
}

impl Scheme {
    /// Returns `true` if the scheme computes hashes incrementally as the
    /// program writes.
    pub fn is_incremental(self) -> bool {
        matches!(self, Scheme::HwInc | Scheme::SwInc)
    }

    /// Returns `true` if the scheme performs any checking.
    pub fn is_checking(self) -> bool {
        !matches!(self, Scheme::Native)
    }

    /// Stable name used in trace events and reports.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Native => "Native",
            Scheme::HwInc => "HwInc",
            Scheme::SwInc => "SwInc",
            Scheme::SwTr => "SwTr",
        }
    }

    /// The inverse of [`name`](Scheme::name), for deserializing persisted
    /// records.
    pub fn from_name(name: &str) -> Option<Scheme> {
        match name {
            "Native" => Some(Scheme::Native),
            "HwInc" => Some(Scheme::HwInc),
            "SwInc" => Some(Scheme::SwInc),
            "SwTr" => Some(Scheme::SwTr),
            _ => None,
        }
    }

    /// Lenient variant of [`from_name`](Scheme::from_name) for
    /// command-line flags: case-insensitive, accepting separators
    /// (`hw-inc`, `sw_tr`). Persisted records should use the strict
    /// [`from_name`](Scheme::from_name).
    pub fn parse(text: &str) -> Option<Scheme> {
        let folded: String = text
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect();
        match folded.as_str() {
            "native" => Some(Scheme::Native),
            "hwinc" => Some(Scheme::HwInc),
            "swinc" => Some(Scheme::SwInc),
            "swtr" => Some(Scheme::SwTr),
            _ => None,
        }
    }
}

/// One checkpoint's recorded state hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// Why the checkpoint fired.
    pub kind: CheckpointKind,
    /// The state hash at the checkpoint.
    pub hash: HashSum,
}

/// The ignore set resolved against the live state, kept across
/// checkpoints while the allocator epoch it was resolved at holds.
#[derive(Debug, Default)]
struct ResolvedIgnore {
    /// The [`StateView::alloc_epoch`] `words` was resolved at; `None`
    /// before the first checkpoint.
    epoch: Option<u64>,
    /// [`IgnoreSpec::resolve`]'s output: sorted, deduplicated.
    words: Vec<(Addr, ValKind)>,
    /// `Σ h(a, 0)` over `words`: the ignored words' zero-baseline
    /// contribution the incremental schemes add back.
    zero_sum: HashSum,
}

impl ResolvedIgnore {
    /// Re-resolves `spec` if the view's block table may have changed
    /// since the last call.
    fn refresh(&mut self, spec: &IgnoreSpec, view: &StateView<'_>, hasher: &Mix64Hasher) {
        let epoch = view.alloc_epoch();
        if self.epoch == Some(epoch) {
            return;
        }
        self.epoch = Some(epoch);
        self.words = spec.resolve(view);
        self.zero_sum = self
            .words
            .iter()
            .map(|&(a, _)| hasher.hash_location(a.raw(), 0))
            .sum();
    }
}

/// The [`Monitor`] that implements the checking schemes.
///
/// One instance observes one run; [`CheckMonitor::into_hashes`] then
/// yields the run's checkpoint hash sequence for cross-run comparison.
/// The monitor also tracks the extra instructions its scheme would
/// execute on a real machine (the Figure 6 cost model).
#[derive(Debug)]
pub struct CheckMonitor {
    scheme: Scheme,
    rounding: Option<FpRound>,
    ignore: IgnoreSpec,
    /// `ignore` resolved at the latest checkpoint's allocation epoch.
    ignored: ResolvedIgnore,
    /// Per-thread MHM units (HwInc), or the software emulation of the
    /// same per-thread incremental hashes (SwInc).
    cores: Vec<MhmCore>,
    hasher: Mix64Hasher,
    output: OutputHasher,
    records: Vec<CheckpointRecord>,
    extra_instr: u64,
    stores_seen: u64,
    /// Location-hash operations performed (two per incremental store,
    /// one per traversed word, two per freed/ignored word).
    hash_updates: u64,
    /// Per-thread L1 models, when the cache model is enabled.
    caches: Option<Vec<L1Cache>>,
    /// Engine fast-path counters already folded into this monitor's
    /// accounting (see [`CheckMonitor::apply_engine_deltas`]).
    engine_stores_applied: u64,
    engine_freed_applied: u64,
}

impl CheckMonitor {
    /// Creates a monitor for `scheme`.
    ///
    /// `rounding` of `None` compares FP values bit by bit; `Some(r)`
    /// rounds FP stores (incremental schemes) or FP-typed words
    /// (traversal) with `r` before hashing.
    pub fn new(scheme: Scheme, rounding: Option<FpRound>, ignore: IgnoreSpec) -> Self {
        CheckMonitor {
            scheme,
            rounding,
            ignore,
            ignored: ResolvedIgnore::default(),
            cores: Vec::new(),
            hasher: Mix64Hasher::default(),
            output: OutputHasher::new(),
            records: Vec::new(),
            extra_instr: 0,
            stores_seen: 0,
            hash_updates: 0,
            caches: None,
            engine_stores_applied: 0,
            engine_freed_applied: 0,
        }
    }

    /// Enables the per-thread write-allocate L1 model, so the run's
    /// [`RunHashes`] carry demand and MHM old-value hit/miss counters
    /// (the §3.1 "old value is already in the cache" claim, measured on
    /// the campaign's own store stream).
    #[must_use]
    pub fn with_cache_model(mut self) -> Self {
        self.caches = Some(Vec::new());
        self
    }

    /// The scheme this monitor implements.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Number of stores observed so far.
    pub fn stores_seen(&self) -> u64 {
        self.stores_seen
    }

    /// The checkpoint records so far.
    pub fn records(&self) -> &[CheckpointRecord] {
        &self.records
    }

    /// The per-thread L1 model, if enabled (byte addressing: one
    /// simulated word is 8 bytes).
    fn l1(&mut self, tid: ThreadId) -> Option<&mut L1Cache> {
        let caches = self.caches.as_mut()?;
        if caches.len() <= tid {
            caches.resize(tid + 1, L1Cache::new(L1_SETS, L1_ASSOC, L1_LINE_BYTES));
        }
        Some(&mut caches[tid])
    }

    /// The merged cache counters across threads, if the model is on.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.caches.as_ref().map(|caches| {
            let mut total = CacheStats::default();
            for c in caches {
                total.merge(c.stats());
            }
            total
        })
    }

    fn core(&mut self, tid: ThreadId) -> &mut MhmCore {
        if self.cores.len() <= tid {
            let mut fresh = MhmCore::new();
            if let Some(r) = self.rounding {
                fresh.set_rounding(r);
                fresh.start_fp_rounding();
            }
            self.cores.resize(tid + 1, fresh);
        }
        &mut self.cores[tid]
    }

    fn round(&self, value: u64, kind: ValKind) -> u64 {
        match (kind, self.rounding) {
            (ValKind::F64, Some(r)) => r.apply_bits(value),
            _ => value,
        }
    }

    /// Folds the engine fast path's cumulative counters into this
    /// monitor's per-store accounting, by differencing against what was
    /// already applied at the previous checkpoint.
    ///
    /// When the engine handles the store datapath (see
    /// [`Monitor::fast_path`]), `on_store`/`on_free` never fire for
    /// simulated-thread accesses; this reconstructs exactly what those
    /// callbacks would have accumulated — store counts, hash-update
    /// counts, and the Figure 6 instruction charges — so the run's
    /// [`RunHashes`] are byte-identical either way.
    fn apply_engine_deltas(&mut self, eh: &EngineHashes<'_>) {
        let d_stores = eh.stores - self.engine_stores_applied;
        let d_freed = eh.freed_words - self.engine_freed_applied;
        self.engine_stores_applied = eh.stores;
        self.engine_freed_applied = eh.freed_words;
        self.stores_seen += d_stores;
        if self.scheme.is_incremental() {
            self.hash_updates += 2 * d_stores + 2 * d_freed;
            if self.scheme == Scheme::SwInc {
                self.extra_instr += SW_INC_INSTR_PER_STORE * d_stores;
            }
            let per_word = match self.scheme {
                Scheme::HwInc => HW_INSTR_PER_EXCLUDED_WORD,
                _ => SW_INSTR_PER_EXCLUDED_WORD,
            };
            self.extra_instr += per_word * d_freed;
        }
    }

    /// The incremental schemes' checkpoint hash: the modular sum of the
    /// per-thread hashes, with the ignore-set's current contributions
    /// cancelled (computed fresh per checkpoint, without mutating the
    /// thread hashes).
    ///
    /// Under the engine fast path every store, the setup phase's
    /// included, lands in the engine's per-thread sums and `cores` stays
    /// empty; without it, `cores` holds them all. Commutativity makes
    /// the sum the same state hash either way.
    fn incremental_hash(&mut self, view: &StateView<'_>) -> HashSum {
        let mut sum: HashSum = self.cores.iter().map(MhmCore::th).sum();
        // Combining the THs is a rare software loop; one "unit" per
        // per-thread hash register, matching the dyn path's lazily grown
        // core set.
        let mut units = self.cores.len() as u64;
        if let Some(eh) = view.engine_hashes() {
            sum = sum.combine(eh.sums.iter().copied().sum());
            units = units.max(eh.sums.len() as u64);
        }
        self.extra_instr += units;
        if !self.ignore.is_empty() {
            self.ignored.refresh(&self.ignore, view, &self.hasher);
            let n = self.ignored.words.len() as u64;
            let per_word = match self.scheme {
                Scheme::HwInc => HW_INSTR_PER_EXCLUDED_WORD,
                _ => SW_INSTR_PER_EXCLUDED_WORD,
            };
            self.extra_instr += per_word * n;
            self.hash_updates += 2 * n;
            // SH ⊕ Σ h(a, initial) ⊖ Σ h(a, current); allocations are
            // zero-filled, so the initial value is always 0.
            sum = sum.combine(self.ignored.zero_sum);
            for &(addr, kind) in &self.ignored.words {
                let cur = self.round(view.read(addr).unwrap_or(0), kind);
                sum = sum.cancel(self.hasher.hash_location(addr.raw(), cur));
            }
        }
        sum
    }

    /// The traversal scheme's checkpoint hash: hash every live word
    /// (globals + allocation table), rounding FP-typed words, skipping
    /// the ignore set.
    ///
    /// The live state streams region by region. A cursor into the sorted
    /// ignore list cuts each region into runs of kept words, and each
    /// run folds straight from the region's slice (the group is
    /// commutative, so summing per-run folds is the whole-state fold).
    fn traversal_hash(&mut self, view: &StateView<'_>) -> HashSum {
        self.ignored.refresh(&self.ignore, view, &self.hasher);
        let ignored = self.ignored.words.as_slice();
        let rounding = self.rounding.filter(|r| !r.is_bit_exact());
        let mut hash = HashSum::ZERO;
        let mut words = 0u64;
        for (base, values, kinds) in view.live_regions() {
            let end = base.raw() + values.len() as u64;
            let mut cursor = ignored.partition_point(|&(a, _)| a < base);
            let mut start = 0;
            loop {
                let stop = match ignored.get(cursor) {
                    Some(&(a, _)) if a.raw() < end => (a.raw() - base.raw()) as usize,
                    _ => values.len(),
                };
                let run = hash_run(&self.hasher, base, values, kinds, start..stop, rounding);
                hash = hash.combine(run);
                words += (stop - start) as u64;
                if stop == values.len() {
                    break;
                }
                cursor += 1;
                start = stop + 1;
            }
        }
        self.extra_instr += words * SW_TR_INSTR_PER_WORD;
        self.hash_updates += words;
        hash
    }

    /// Consumes the monitor, yielding the run's hash sequence.
    pub fn into_hashes(self) -> RunHashes {
        let cache = self.cache_stats();
        RunHashes {
            checkpoints: self.records,
            output_digest: self.output.digest(),
            extra_instr: self.extra_instr,
            stores: self.stores_seen,
            hash_updates: self.hash_updates,
            cache,
        }
    }
}

/// `Σ h(a, v)` over words `range` of the region at `base`, rounding the
/// words whose kind (`kinds` cycled from the region's start) is FP.
fn hash_run(
    hasher: &Mix64Hasher,
    base: Addr,
    values: &[u64],
    kinds: &[ValKind],
    range: Range<usize>,
    rounding: Option<FpRound>,
) -> HashSum {
    let addrs = base.raw() + range.start as u64..;
    let skip = range.start % kinds.len();
    let values = &values[range];
    match (rounding, kinds) {
        (Some(r), [ValKind::F64]) => {
            hash_full_state(hasher, addrs.zip(values.iter().map(|&v| r.apply_bits(v))))
        }
        (Some(r), [_, _, ..]) => {
            let kinds = kinds.iter().cycle().skip(skip);
            let rounded = values.iter().zip(kinds).map(|(&v, &kind)| match kind {
                ValKind::F64 => r.apply_bits(v),
                ValKind::U64 => v,
            });
            hash_full_state(hasher, addrs.zip(rounded))
        }
        // No rounding, or a region of integer words.
        _ => hash_full_state(hasher, addrs.zip(values.iter().copied())),
    }
}

impl Monitor for CheckMonitor {
    fn on_store(&mut self, tid: ThreadId, addr: Addr, old: u64, new: u64, kind: ValKind) {
        let scheme = self.scheme;
        if let Some(l1) = self.l1(tid) {
            // Word addresses are byte-scaled (8 B/word) for line mapping.
            l1.store(addr.raw() * 8);
            if scheme == Scheme::HwInc {
                l1.mhm_read_old(addr.raw() * 8);
            }
        }
        match scheme {
            Scheme::Native | Scheme::SwTr => {}
            Scheme::HwInc | Scheme::SwInc => {
                if scheme == Scheme::SwInc {
                    self.extra_instr += SW_INC_INSTR_PER_STORE;
                }
                self.hash_updates += 2; // minus old, plus new
                self.core(tid)
                    .on_store(addr.raw(), old, new, kind == ValKind::F64);
            }
        }
        self.stores_seen += 1;
    }

    fn on_load(&mut self, tid: ThreadId, addr: Addr, _value: u64, _kind: ValKind) {
        if let Some(l1) = self.l1(tid) {
            l1.load(addr.raw() * 8);
        }
    }

    fn on_free(&mut self, tid: ThreadId, block: &BlockInfo, contents: &[u64]) {
        // Freed memory leaves the program state: cancel each word's
        // contribution back to the zero baseline so the incremental hash
        // matches the live state. (The traversal scheme simply stops
        // seeing the block.)
        if !self.scheme.is_incremental() {
            return;
        }
        let per_word = match self.scheme {
            Scheme::HwInc => HW_INSTR_PER_EXCLUDED_WORD,
            _ => SW_INSTR_PER_EXCLUDED_WORD,
        };
        self.extra_instr += per_word * contents.len() as u64;
        self.hash_updates += 2 * contents.len() as u64;
        let rounding = self.rounding;
        let core = self.core(tid);
        for (i, &value) in contents.iter().enumerate() {
            let kind = block.kind_at(i);
            let is_fp = kind == ValKind::F64 && rounding.is_some();
            let addr = block.base.offset(i as u64).raw();
            core.free_word(addr, value, is_fp);
        }
    }

    fn on_output(&mut self, _tid: ThreadId, bytes: &[u8]) {
        if self.scheme.is_checking() {
            // Hashing the written bytes before `write()` returns (§4.3).
            self.extra_instr += bytes.len() as u64 * SW_INSTR_PER_BYTE;
            self.output.update(bytes);
        }
    }

    fn on_checkpoint(&mut self, info: &CheckpointInfo, view: &StateView<'_>) {
        if let Some(eh) = view.engine_hashes() {
            // Checkpoints (including the guaranteed final `End`) are the
            // reconciliation points for the engine fast path.
            self.apply_engine_deltas(&eh);
        }
        let hash = match self.scheme {
            Scheme::Native => HashSum::ZERO,
            Scheme::HwInc | Scheme::SwInc => self.incremental_hash(view),
            Scheme::SwTr => self.traversal_hash(view),
        };
        self.records.push(CheckpointRecord {
            kind: info.kind,
            hash,
        });
    }

    fn extra_instructions(&self) -> u64 {
        self.extra_instr
    }

    fn fast_path(&self) -> Option<FastPathSpec> {
        if self.caches.is_some() {
            // The L1/MHM cache model needs every access callback.
            return None;
        }
        Some(FastPathSpec {
            hashing: self.scheme.is_incremental(),
            rounding: self.rounding,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhash::IncHasher;

    #[test]
    fn scheme_predicates() {
        assert!(Scheme::HwInc.is_incremental());
        assert!(Scheme::SwInc.is_incremental());
        assert!(!Scheme::SwTr.is_incremental());
        assert!(!Scheme::Native.is_incremental());
        assert!(Scheme::SwTr.is_checking());
        assert!(!Scheme::Native.is_checking());
    }

    #[test]
    fn native_records_zero_hashes_and_no_extra_cost() {
        let mut m = CheckMonitor::new(Scheme::Native, None, IgnoreSpec::new());
        m.on_store(0, Addr(0x1000), 0, 5, ValKind::U64);
        assert_eq!(m.extra_instructions(), 0);
        assert_eq!(m.stores_seen(), 1);
    }

    #[test]
    fn sw_inc_charges_per_store_and_hw_does_not() {
        let mut hw = CheckMonitor::new(Scheme::HwInc, None, IgnoreSpec::new());
        let mut sw = CheckMonitor::new(Scheme::SwInc, None, IgnoreSpec::new());
        for i in 0..10 {
            hw.on_store(0, Addr(0x1000 + i), 0, i, ValKind::U64);
            sw.on_store(0, Addr(0x1000 + i), 0, i, ValKind::U64);
        }
        assert_eq!(hw.extra_instructions(), 0);
        assert_eq!(sw.extra_instructions(), 10 * SW_INC_INSTR_PER_STORE);
    }

    /// The Section 4.1 caveat, demonstrated at the hash level: if the
    /// instrumentation reads a stale old value (a write-write race slips
    /// a store between the instrumented read and the store), the
    /// telescoping breaks and the hash no longer matches the state.
    #[test]
    fn stale_old_value_corrupts_the_hash() {
        let a = 0x10u64;
        // True history: 0 → 5 (thread 1) → 9 (thread 2).
        let mut correct = IncHasher::new(Mix64Hasher::default());
        correct.on_write(a, 0, 5);
        correct.on_write(a, 5, 9);

        // Racy instrumentation: thread 2 read "0" as the old value
        // (before thread 1's store landed) but its store still wrote 9
        // over 5.
        let mut stale = IncHasher::new(Mix64Hasher::default());
        stale.on_write(a, 0, 5);
        stale.on_write(a, 0, 9); // stale old!

        assert_ne!(correct.sum(), stale.sum());
    }

    #[test]
    fn rounding_configures_cores_lazily() {
        let mut m = CheckMonitor::new(Scheme::HwInc, Some(FpRound::default()), IgnoreSpec::new());
        let noisy: f64 = 0.1 + 0.2 + 0.3;
        let clean: f64 = 0.6;
        m.on_store(3, Addr(0x8), 0, noisy.to_bits(), ValKind::F64);
        let mut n = CheckMonitor::new(Scheme::HwInc, Some(FpRound::default()), IgnoreSpec::new());
        n.on_store(3, Addr(0x8), 0, clean.to_bits(), ValKind::F64);
        assert_eq!(m.cores[3].th(), n.cores[3].th());
        // Cores 0..2 exist but are untouched.
        assert_eq!(m.cores.len(), 4);
    }

    #[test]
    fn records_accessor() {
        let m = CheckMonitor::new(Scheme::SwTr, None, IgnoreSpec::new());
        assert!(m.records().is_empty());
        assert_eq!(m.scheme(), Scheme::SwTr);
    }

    /// Delegates to a [`CheckMonitor`] on the per-access dispatch path
    /// and, at every checkpoint, compares the monitor's hash and the
    /// checkpoint's own counter increments with a from-scratch
    /// reference computed on the same view.
    struct Referee {
        inner: CheckMonitor,
        checked: usize,
    }

    /// Whether word `i` of the global named `global`, or of a block
    /// allocated at `site` with type stride `stride`, is excluded —
    /// decided word by word straight from the spec.
    fn excluded(
        spec: &IgnoreSpec,
        global: Option<&str>,
        site: Option<&str>,
        i: usize,
        stride: usize,
    ) -> bool {
        let in_global = spec.globals.iter().any(|(n, range)| {
            Some(n.as_str()) == global && range.is_none_or(|(s, e)| s <= i && i < e)
        });
        let in_site = spec.sites.iter().any(|(n, offs)| {
            Some(n.as_str()) == site
                && offs
                    .as_ref()
                    .is_none_or(|offs| offs.contains(&(i % stride)))
        });
        in_global || in_site
    }

    impl Monitor for Referee {
        fn on_store(&mut self, tid: ThreadId, addr: Addr, old: u64, new: u64, kind: ValKind) {
            self.inner.on_store(tid, addr, old, new, kind);
        }
        fn on_free(&mut self, tid: ThreadId, block: &BlockInfo, contents: &[u64]) {
            self.inner.on_free(tid, block, contents);
        }
        fn on_checkpoint(&mut self, info: &CheckpointInfo, view: &StateView<'_>) {
            let m = &self.inner;
            let (updates, instr) = (m.hash_updates, m.extra_instr);
            self.inner.on_checkpoint(info, view);
            let m = &self.inner;

            // Every live word, its declared kind, and whether excluded.
            let mut live = Vec::new();
            for g in view.globals() {
                for (i, a) in g.region.iter().enumerate() {
                    live.push((
                        a,
                        g.region.kind,
                        excluded(&m.ignore, Some(g.name), None, i, 1),
                    ));
                }
            }
            for b in view.blocks() {
                for (i, a) in b.iter().enumerate() {
                    let x = excluded(&m.ignore, None, Some(b.site), i, b.tag.stride());
                    live.push((a, b.kind_at(i), x));
                }
            }
            let h = Mix64Hasher::default();
            let rounded = |a: Addr, kind| {
                let v = view.read(a).unwrap();
                match (kind, m.rounding) {
                    (ValKind::F64, Some(r)) => r.apply_bits(v),
                    _ => v,
                }
            };
            let kept = live.iter().filter(|w| !w.2);
            let n_ignored = live.iter().filter(|w| w.2).count() as u64;
            let (want, d_updates, d_instr) = match m.scheme {
                Scheme::SwTr => {
                    let hash = kept
                        .clone()
                        .map(|&(a, k, _)| h.hash_location(a.raw(), rounded(a, k)))
                        .sum();
                    let words = kept.count() as u64;
                    (hash, words, words * SW_TR_INSTR_PER_WORD)
                }
                _ => {
                    // Every store's kind matches its word's declared
                    // kind, so the per-thread sums telescope to
                    // Σ h(a, current) − h(a, 0) over the live words.
                    let hash: HashSum = kept
                        .map(|&(a, k, _)| {
                            h.hash_location(a.raw(), rounded(a, k))
                                .cancel(h.hash_location(a.raw(), 0))
                        })
                        .sum();
                    let per_word = match m.scheme {
                        Scheme::HwInc => HW_INSTR_PER_EXCLUDED_WORD,
                        _ => SW_INSTR_PER_EXCLUDED_WORD,
                    };
                    let units = m.cores.len() as u64;
                    (hash, 2 * n_ignored, units + per_word * n_ignored)
                }
            };
            let what = format!("{:?} {:?} checkpoint {}", m.scheme, m.rounding, info.seq);
            assert_eq!(m.records().last().unwrap().hash, want, "{what}: hash");
            assert_eq!(m.hash_updates - updates, d_updates, "{what}: hash updates");
            assert_eq!(m.extra_instr - instr, d_instr, "{what}: extra instructions");
            self.checked += 1;
        }
    }

    /// A block freed at an ignored site and an exact-size block then
    /// allocated at a non-ignored site share a base address; only the
    /// allocation epoch tells the two block tables apart, so a stale
    /// resolved ignore set would keep excluding the new block.
    #[test]
    fn ignore_set_follows_the_allocation_epoch() {
        use tsim::{ProgramBuilder, RunConfig, TypeTag};

        let spec = IgnoreSpec::new()
            .ignore_global_range("noise", 1, 4)
            .ignore_site("junk")
            .ignore_site_offsets("rec", [0, 2]);
        let build = || {
            let mut b = ProgramBuilder::new(2);
            let noise = b.global("noise", ValKind::U64, 6);
            let data = b.global("data", ValKind::F64, 4);
            let bases = b.global("bases", ValKind::U64, 2);
            let bar = b.barrier();
            b.thread(async move |ctx| {
                let junk = ctx.malloc("junk", TypeTag::u64s(), 4).await;
                let rec_tag = TypeTag::of(vec![ValKind::U64, ValKind::F64, ValKind::U64]);
                let rec = ctx.malloc("rec", rec_tag, 6).await;
                for i in 0..6u64 {
                    ctx.store(noise.at(i as usize), 100 + i).await;
                    match i % 3 {
                        1 => ctx.store_f64(rec.offset(i), 0.1 * i as f64 + 1e-9).await,
                        _ => ctx.store(rec.offset(i), 7 * i + 1).await,
                    }
                }
                for i in 0..4 {
                    ctx.store(junk.offset(i), 0xdead + i).await;
                }
                ctx.barrier(bar).await;
                ctx.checkpoint("before").await;
                // Same epoch, new values: the cached list must still
                // read the ignored words' current contents.
                ctx.store(noise.at(2), 999).await;
                ctx.store(junk.offset(1), 5).await;
                ctx.checkpoint("values moved").await;
                ctx.free(junk).await;
                let keep = ctx.malloc("keep", TypeTag::u64s(), 4).await;
                ctx.store(bases.at(0), junk.raw()).await;
                ctx.store(bases.at(1), keep.raw()).await;
                for i in 0..4 {
                    ctx.store(keep.offset(i), 0xbeef + i).await;
                }
                ctx.checkpoint("reused").await;
                ctx.barrier(bar).await;
            });
            b.thread(async move |ctx| {
                for i in 0..4 {
                    ctx.store_f64(data.at(i), 1.0 / (i + 3) as f64).await;
                }
                ctx.barrier(bar).await;
                ctx.store_f64(data.at(0), 2.0 / 3.0).await;
                ctx.barrier(bar).await;
            });
            (b.build(), bases)
        };
        let roundings = [
            None,
            Some(FpRound::default()),
            Some(FpRound::FloorDecimal { digits: 2 }),
        ];
        for scheme in [Scheme::HwInc, Scheme::SwInc, Scheme::SwTr] {
            for rounding in roundings {
                for seed in [1, 2, 3] {
                    let (program, bases) = build();
                    let referee = Referee {
                        inner: CheckMonitor::new(scheme, rounding, spec.clone()),
                        checked: 0,
                    };
                    let out = program.run_with(&RunConfig::random(seed), referee).unwrap();
                    assert_eq!(
                        out.final_word(bases.at(0)),
                        out.final_word(bases.at(1)),
                        "the free list must hand the freed block back"
                    );
                    // Two barriers, three manual checkpoints, the end.
                    assert_eq!(out.monitor.checked, 6);
                }
            }
        }
    }
}
