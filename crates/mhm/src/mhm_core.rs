//! The per-core MHM unit: TH register, hash unit, FP round-off unit.

use adhash::{FpRound, HashSum, IncHasher, Mix64Hasher};

/// One core's Memory-State Hashing Module (Figure 3(a)).
///
/// The unit observes every store retired into the L1 (address, old value,
/// new value, FP flag) and maintains the 64-bit Thread Hash register with
/// core-local operations only. Software reads or restores the register
/// (for virtualization and context switching) and can surgically remove a
/// location's contribution (`minus_hash`/`plus_hash`) to exclude
/// nondeterministic structures.
///
/// # Example
///
/// ```
/// use mhm::MhmCore;
///
/// let mut m = MhmCore::new();
/// m.on_store(0x40, 0, 7, false);
/// let saved = m.save_hash(); // context switch out…
/// let mut other = MhmCore::new();
/// other.restore_hash(saved); // …and back in on a different core
/// assert_eq!(m.th(), other.th());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MhmCore {
    th: IncHasher<Mix64Hasher>,
    hashing_enabled: bool,
    fp_rounding_enabled: bool,
    rounding: FpRound,
}

impl Default for MhmCore {
    fn default() -> Self {
        MhmCore::new()
    }
}

impl MhmCore {
    /// Creates a unit with hashing enabled, FP rounding disabled, and the
    /// default rounding mode (nearest 0.001) configured.
    pub fn new() -> Self {
        MhmCore::with_rounding(FpRound::default())
    }

    /// Creates a unit with an explicit rounding mode (the `CNTR` inputs
    /// of Section 3.1 for expert numerical programmers).
    pub fn with_rounding(rounding: FpRound) -> Self {
        MhmCore {
            th: IncHasher::new(Mix64Hasher::default()),
            hashing_enabled: true,
            fp_rounding_enabled: false,
            rounding,
        }
    }

    /// The current Thread Hash register value.
    pub fn th(&self) -> HashSum {
        self.th.sum()
    }

    /// `start_hashing`: enable the store-observation datapath.
    pub fn start_hashing(&mut self) {
        self.hashing_enabled = true;
    }

    /// `stop_hashing`: disable the datapath (e.g. while an analysis tool
    /// runs in the checked thread's address space).
    pub fn stop_hashing(&mut self) {
        self.hashing_enabled = false;
    }

    /// `start_FP_rounding`: round FP store values before hashing.
    pub fn start_fp_rounding(&mut self) {
        self.fp_rounding_enabled = true;
    }

    /// `stop_FP_rounding`: hash FP values bit-exactly.
    ///
    /// Toggling rounding mid-run voids the telescoping property of the
    /// incremental hash for locations written both before and after the
    /// toggle; toggle only at points where the affected locations are
    /// excluded or quiescent.
    pub fn stop_fp_rounding(&mut self) {
        self.fp_rounding_enabled = false;
    }

    /// Returns `true` if FP rounding is enabled.
    pub fn fp_rounding_enabled(&self) -> bool {
        self.fp_rounding_enabled
    }

    /// The configured rounding mode.
    pub fn rounding(&self) -> FpRound {
        self.rounding
    }

    /// Reconfigures the rounding mode (see [`stop_fp_rounding`] for the
    /// mid-run caveat).
    ///
    /// [`stop_fp_rounding`]: MhmCore::stop_fp_rounding
    pub fn set_rounding(&mut self, rounding: FpRound) {
        self.rounding = rounding;
    }

    /// Runs a raw value through the FP round-off unit exactly as the
    /// store datapath would.
    pub fn round_off(&self, value: u64, is_fp: bool) -> u64 {
        if is_fp && self.fp_rounding_enabled {
            self.rounding.apply_bits(value)
        } else {
            value
        }
    }

    /// The store datapath: observes a retired store of `new` over `old`
    /// at virtual address `vaddr`. `is_fp` is the write-buffer flag set
    /// by the compiler for FP store instructions.
    pub fn on_store(&mut self, vaddr: u64, old: u64, new: u64, is_fp: bool) {
        if !self.hashing_enabled {
            return;
        }
        let old = self.round_off(old, is_fp);
        let new = self.round_off(new, is_fp);
        self.th.on_write(vaddr, old, new);
    }

    /// `save_hash`: read the TH register (for context switch / migration
    /// / virtualization — the OS saves it like any other register).
    pub fn save_hash(&self) -> HashSum {
        self.th.sum()
    }

    /// `restore_hash`: load the TH register.
    pub fn restore_hash(&mut self, value: HashSum) {
        self.th.set_sum(value);
    }

    /// `minus_hash`: subtract the hash of the (rounded, if FP) current
    /// value at `addr` from TH.
    pub fn minus_hash(&mut self, addr: u64, current: u64, is_fp: bool) {
        let v = self.round_off(current, is_fp);
        self.th.remove_location(addr, v);
    }

    /// `plus_hash`: add the hash of `value` at `addr` to TH, as if
    /// `value` were the current content of that location.
    pub fn plus_hash(&mut self, addr: u64, value: u64, is_fp: bool) {
        let v = self.round_off(value, is_fp);
        self.th.add_location(addr, v);
    }

    /// Drops a freed word's contribution back to the zero baseline:
    /// the fused equivalent of `minus_hash(addr, value)` followed by
    /// `plus_hash(addr, 0)`, applied as one write delta so the address
    /// mixing is shared between the two terms. Bit-identical to the pair
    /// by the commutative group laws.
    pub fn free_word(&mut self, addr: u64, value: u64, is_fp: bool) {
        let old = self.round_off(value, is_fp);
        let new = self.round_off(0, is_fp);
        self.th.on_write(addr, old, new);
    }

    /// Resets the TH register to zero (run start).
    pub fn reset(&mut self) {
        self.th.reset();
    }

    /// Combines per-core TH registers into the global State Hash — the
    /// rare, software-side operation performed at barriers.
    pub fn combine<'a, I>(cores: I) -> HashSum
    where
        I: IntoIterator<Item = &'a MhmCore>,
    {
        cores.into_iter().map(|c| c.th()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_state_hash_is_interleaving_independent() {
        let g = 0x1000;
        let mut a0 = MhmCore::new();
        let mut a1 = MhmCore::new();
        a0.on_store(g, 2, 9, false);
        a1.on_store(g, 9, 12, false);

        let mut b0 = MhmCore::new();
        let mut b1 = MhmCore::new();
        b1.on_store(g, 2, 5, false);
        b0.on_store(g, 5, 12, false);

        // Thread hashes differ (internal nondeterminism is visible)…
        assert_ne!(a0.th(), b0.th());
        // …but the combined State Hash is identical.
        assert_eq!(MhmCore::combine([&a0, &a1]), MhmCore::combine([&b0, &b1]));
    }

    #[test]
    fn stop_hashing_freezes_th() {
        let mut m = MhmCore::new();
        m.on_store(1, 0, 1, false);
        let before = m.th();
        m.stop_hashing();
        m.on_store(1, 1, 2, false);
        assert_eq!(m.th(), before);
        m.start_hashing();
        m.on_store(1, 2, 3, false);
        assert_ne!(m.th(), before);
    }

    #[test]
    fn save_restore_supports_migration() {
        let mut m = MhmCore::new();
        m.on_store(1, 0, 42, false);
        let saved = m.save_hash();
        // Thread migrates to another core; that core adopts the TH.
        let mut other = MhmCore::new();
        other.on_store(9, 0, 9, false); // residue from a previous tenant
        other.restore_hash(saved);
        other.on_store(1, 42, 43, false);
        // Equivalent to having stayed on one core.
        let mut reference = MhmCore::new();
        reference.on_store(1, 0, 42, false);
        reference.on_store(1, 42, 43, false);
        assert_eq!(other.th(), reference.th());
    }

    #[test]
    fn fp_rounding_absorbs_reduction_noise_in_th() {
        let sum_a: f64 = 0.1 + 0.2 + 0.3;
        let sum_b: f64 = 0.3 + 0.2 + 0.1;
        assert_ne!(sum_a.to_bits(), sum_b.to_bits());

        let run = |v: f64| {
            let mut m = MhmCore::new();
            m.start_fp_rounding();
            m.on_store(8, 0, v.to_bits(), true);
            m.th()
        };
        assert_eq!(run(sum_a), run(sum_b));

        // Without rounding the hashes differ.
        let run_exact = |v: f64| {
            let mut m = MhmCore::new();
            m.on_store(8, 0, v.to_bits(), true);
            m.th()
        };
        assert_ne!(run_exact(sum_a), run_exact(sum_b));
    }

    #[test]
    fn rounding_applies_only_to_fp_stores() {
        let mut m = MhmCore::new();
        m.start_fp_rounding();
        assert!(m.fp_rounding_enabled());
        // An integer store whose bit pattern happens to look like a tiny
        // double must NOT be rounded.
        let tricky = 0.0001f64.to_bits();
        let mut exact = MhmCore::new();
        exact.on_store(8, 0, tricky, false);
        m.on_store(8, 0, tricky, false);
        assert_eq!(m.th(), exact.th());
    }

    #[test]
    fn minus_plus_hash_excludes_a_location() {
        // Write two locations, then delete one; the TH must equal a run
        // that never wrote the deleted location.
        let mut m = MhmCore::new();
        m.on_store(0x10, 0, 5, false);
        m.on_store(0x18, 0, 6, false);
        m.minus_hash(0x18, 6, false); // remove current contribution
        m.plus_hash(0x18, 0, false); // restore initial (zero) contribution

        let mut reference = MhmCore::new();
        reference.on_store(0x10, 0, 5, false);
        assert_eq!(m.th(), reference.th());
    }

    #[test]
    fn reset_clears_register() {
        let mut m = MhmCore::new();
        m.on_store(1, 0, 1, false);
        m.reset();
        assert_eq!(m.th(), HashSum::ZERO);
    }

    #[test]
    fn custom_rounding_mode_is_used() {
        let mut m = MhmCore::with_rounding(FpRound::MaskMantissa { bits: 20 });
        assert_eq!(m.rounding(), FpRound::MaskMantissa { bits: 20 });
        m.set_rounding(FpRound::FloorDecimal { digits: 2 });
        m.start_fp_rounding();
        let a = m.round_off(1.239f64.to_bits(), true);
        assert_eq!(f64::from_bits(a), 1.23);
        m.stop_fp_rounding();
        assert!(!m.fp_rounding_enabled());
        assert_eq!(m.round_off(1.239f64.to_bits(), true), 1.239f64.to_bits());
    }

    #[test]
    fn combine_of_no_cores_is_zero() {
        assert_eq!(MhmCore::combine([]), HashSum::ZERO);
    }
}
