//! Incremental maintenance of state hashes.

use std::fmt;

use crate::group::HashSum;
use crate::hasher::{LocationHasher, Mix64Hasher};

/// The distilled 64-bit summary of a full memory state.
///
/// A `StateHash` is the modular sum of the per-location hashes of every
/// live memory word (plus, when enabled, the output-stream hash). Two runs
/// whose final `StateHash`es differ are certainly in different states; two
/// runs with equal hashes are in the same state except with probability
/// `2^-64` per comparison.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Debug)]
pub struct StateHash(pub HashSum);

impl StateHash {
    /// The hash of the empty state.
    pub const ZERO: StateHash = StateHash(HashSum::ZERO);

    /// Returns the underlying group element.
    pub const fn sum(self) -> HashSum {
        self.0
    }
}

impl fmt::Display for StateHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<HashSum> for StateHash {
    fn from(sum: HashSum) -> Self {
        StateHash(sum)
    }
}

impl std::iter::Sum for StateHash {
    fn sum<I: Iterator<Item = StateHash>>(iter: I) -> StateHash {
        StateHash(iter.map(|s| s.0).sum())
    }
}

/// An incrementally maintained partial state hash (a *Thread Hash*).
///
/// Each thread (or each simulated core's MHM) owns one `IncHasher` and
/// feeds it every store it performs; the running [`HashSum`] is kept
/// up to date with core-local operations only. When a state comparison is
/// needed, the per-thread sums are merged (modular addition) into the
/// global [`StateHash`].
///
/// # Example
///
/// ```
/// use adhash::{IncHasher, Mix64Hasher, hash_full_state};
///
/// let hasher = Mix64Hasher::default();
/// let mut inc = IncHasher::new(hasher);
///
/// // The state starts as {0x10 ↦ 0, 0x18 ↦ 0}; seed it into the hash.
/// inc.add_location(0x10, 0);
/// inc.add_location(0x18, 0);
///
/// // The program writes 7 to 0x10 (over 0) and 3 to 0x18 (over 0).
/// inc.on_write(0x10, 0, 7);
/// inc.on_write(0x18, 0, 3);
///
/// // The incremental hash equals the from-scratch traversal hash.
/// let traversal = hash_full_state(&hasher, [(0x10u64, 7u64), (0x18, 3)]);
/// assert_eq!(inc.sum(), traversal);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncHasher<H = Mix64Hasher> {
    sum: HashSum,
    hasher: H,
}

impl<H: LocationHasher> IncHasher<H> {
    /// Creates an incremental hasher with sum zero.
    pub fn new(hasher: H) -> Self {
        IncHasher {
            sum: HashSum::ZERO,
            hasher,
        }
    }

    /// Records a write of `new` over `old` at `addr`:
    /// `sum ⊖ h(addr, old) ⊕ h(addr, new)`.
    ///
    /// Applied as a single fused group delta
    /// ([`LocationHasher::hash_delta`]), which lets hashers share the
    /// address mixing between the two terms — the per-store hot path of
    /// both incremental schemes. The commutative group guarantees the
    /// fused form equals the two-operation form bit for bit.
    #[inline]
    pub fn on_write(&mut self, addr: u64, old: u64, new: u64) {
        self.sum = self.sum.combine(self.hasher.hash_delta(addr, old, new));
    }

    /// Adds the contribution of a location holding `value` (the paper's
    /// `plus_hash` instruction).
    #[inline]
    pub fn add_location(&mut self, addr: u64, value: u64) {
        self.sum = self.sum.combine(self.hasher.hash_location(addr, value));
    }

    /// Removes the contribution of a location holding `value` (the paper's
    /// `minus_hash` instruction).
    #[inline]
    pub fn remove_location(&mut self, addr: u64, value: u64) {
        self.sum = self.sum.cancel(self.hasher.hash_location(addr, value));
    }

    /// Returns the current running sum.
    #[inline]
    pub fn sum(&self) -> HashSum {
        self.sum
    }

    /// Overwrites the running sum (the paper's `restore_hash` instruction;
    /// `sum()` plays the role of `save_hash`).
    #[inline]
    pub fn set_sum(&mut self, sum: HashSum) {
        self.sum = sum;
    }

    /// Resets the running sum to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.sum = HashSum::ZERO;
    }

    /// Returns a reference to the underlying location hasher.
    pub fn hasher(&self) -> &H {
        &self.hasher
    }
}

/// Hashes a full state from scratch by traversal (the `SW-InstantCheck_Tr`
/// primitive): the modular sum of `h(addr, value)` over all live locations.
///
/// # Example
///
/// ```
/// use adhash::{hash_full_state, Mix64Hasher};
///
/// let h = Mix64Hasher::default();
/// let fwd = hash_full_state(&h, [(1u64, 10u64), (2, 20)]);
/// let rev = hash_full_state(&h, [(2u64, 20u64), (1, 10)]);
/// assert_eq!(fwd, rev); // traversal order is irrelevant
/// ```
/// Because the group is commutative, the traversal may be reassociated
/// freely; the implementation folds locations four at a time into
/// independent accumulators, so the per-location hash latencies overlap
/// instead of serializing through one running sum. This matters for the
/// `SW-InstantCheck_Tr` scheme, which pays this traversal at *every*
/// checkpoint over the whole live state.
pub fn hash_full_state<H, I>(hasher: &H, locations: I) -> HashSum
where
    H: LocationHasher,
    I: IntoIterator<Item = (u64, u64)>,
{
    let mut iter = locations.into_iter();
    let mut lanes = [HashSum::ZERO; 4];
    loop {
        // One chunk of four; partial trailing chunks fall out of the
        // loop with the lanes they filled.
        for lane in &mut lanes {
            match iter.next() {
                Some((addr, value)) => *lane = lane.combine(hasher.hash_location(addr, value)),
                None => {
                    return lanes.into_iter().sum();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Mix64Hasher {
        Mix64Hasher::default()
    }

    #[test]
    fn incremental_matches_traversal() {
        let mut inc = IncHasher::new(h());
        // initial state: three zeroed words
        for addr in [8u64, 16, 24] {
            inc.add_location(addr, 0);
        }
        inc.on_write(8, 0, 5);
        inc.on_write(16, 0, 6);
        inc.on_write(8, 5, 7); // overwrite
        let traversal = hash_full_state(&h(), [(8u64, 7u64), (16, 6), (24, 0)]);
        assert_eq!(inc.sum(), traversal);
    }

    #[test]
    fn thread_split_is_invisible() {
        // Figure 2: the split of writes across threads does not change the
        // merged sum.
        let g = 0x40u64;
        let mut a0 = IncHasher::new(h());
        let mut a1 = IncHasher::new(h());
        a0.on_write(g, 2, 9);
        a1.on_write(g, 9, 12);

        let mut b0 = IncHasher::new(h());
        let mut b1 = IncHasher::new(h());
        b1.on_write(g, 2, 5);
        b0.on_write(g, 5, 12);

        assert_ne!(a0.sum(), b0.sum()); // internal nondeterminism is visible…
        assert_eq!(a0.sum() + a1.sum(), b0.sum() + b1.sum()); // …but cancels
    }

    #[test]
    fn exclusion_deletes_a_location() {
        // Hash {a↦12, b↦3}; then delete a (initial value 2) as the paper
        // does: SH ⊕ h(a, initial) ⊖ h(a, current).
        let (a, b) = (0x100u64, 0x108u64);
        let mut inc = IncHasher::new(h());
        inc.add_location(a, 2);
        inc.add_location(b, 3);
        inc.on_write(a, 2, 12);

        inc.add_location(a, 2); // restore initial contribution
        inc.remove_location(a, 12); // drop current contribution

        // Equivalent to a state where `a` still holds its initial value.
        let expected = hash_full_state(&h(), [(a, 2u64), (b, 3)]);
        assert_eq!(inc.sum(), expected);
    }

    #[test]
    fn chunked_traversal_matches_serial_fold_at_every_length() {
        // The 4-lane chunking must be invisible: same sum as a strict
        // left fold, for lengths covering every partial-chunk shape.
        for len in 0..=17u64 {
            let locs: Vec<(u64, u64)> = (0..len).map(|i| (0x1000 + i * 8, i * 31 + 7)).collect();
            let serial = locs.iter().fold(HashSum::ZERO, |acc, &(a, v)| {
                acc.combine(h().hash_location(a, v))
            });
            assert_eq!(
                hash_full_state(&h(), locs.iter().copied()),
                serial,
                "len {len}"
            );
        }
    }

    #[test]
    fn save_restore_roundtrip() {
        let mut inc = IncHasher::new(h());
        inc.on_write(1, 0, 1);
        let saved = inc.sum();
        inc.reset();
        assert_eq!(inc.sum(), HashSum::ZERO);
        inc.set_sum(saved);
        assert_eq!(inc.sum(), saved);
    }

    #[test]
    fn state_hash_display_and_sum() {
        let s1 = StateHash::from(HashSum::from_raw(1));
        let s2 = StateHash::from(HashSum::from_raw(2));
        let total: StateHash = [s1, s2].into_iter().sum();
        assert_eq!(total.sum().as_raw(), 3);
        assert_eq!(format!("{}", StateHash::ZERO), "0000000000000000");
    }

    #[test]
    fn hasher_accessor() {
        let inc = IncHasher::new(Mix64Hasher::with_seed(77));
        assert_eq!(inc.hasher().seed(), 77);
    }
}
