//! Core value types: addresses, regions, ids, and type tags.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A word-granular simulated memory address.
///
/// The simulator models memory as an array of 64-bit words; one `Addr`
/// names one word (the paper's byte-addressed model maps onto this with an
/// 8-byte word size, which is what the instruction-cost model assumes).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Returns the address `words` words past this one.
    #[must_use]
    #[inline]
    pub const fn offset(self, words: u64) -> Addr {
        Addr(self.0 + words)
    }

    /// Returns the raw word index.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Identifier of a simulated thread (dense, starting at 0).
pub type ThreadId = usize;

/// Handle to a simulated mutex, created by
/// [`ProgramBuilder::mutex`](crate::ProgramBuilder::mutex).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct LockId(pub(crate) usize);

/// Handle to a simulated pthread-style barrier, created by
/// [`ProgramBuilder::barrier`](crate::ProgramBuilder::barrier).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct BarrierId(pub(crate) usize);

impl BarrierId {
    /// Returns the dense index of this barrier object.
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a barrier id from its dense [`index`](BarrierId::index) —
    /// for deserializing persisted checkpoint records; the index is only
    /// meaningful for the program it was recorded from.
    pub fn from_index(index: usize) -> Self {
        BarrierId(index)
    }
}

impl LockId {
    /// Returns the dense index of this lock object.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a simulated condition variable, created by
/// [`ProgramBuilder::condvar`](crate::ProgramBuilder::condvar).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CondId(pub(crate) usize);

impl CondId {
    /// Returns the dense index of this condition variable.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a simulated reader-writer lock, created by
/// [`ProgramBuilder::rwlock`](crate::ProgramBuilder::rwlock).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct RwLockId(pub(crate) usize);

impl RwLockId {
    /// Returns the dense index of this reader-writer lock.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a simulated counting semaphore, created by
/// [`ProgramBuilder::semaphore`](crate::ProgramBuilder::semaphore).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct SemId(pub(crate) usize);

impl SemId {
    /// Returns the dense index of this semaphore.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The declared interpretation of a memory word, used for floating-point
/// round-off (the paper's LLVM pass marks FP stores; its traversal scheme
/// learns types from annotated allocation sites).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ValKind {
    /// An integer/pointer word; hashed bit-exactly.
    U64,
    /// An `f64` stored as its bit pattern; subject to FP round-off.
    F64,
}

/// A contiguous range of simulated memory with a uniform [`ValKind`]
/// (a named global array, or a view of a heap block).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Region {
    /// First word of the region.
    pub base: Addr,
    /// Length in words.
    pub len: usize,
    /// Interpretation of every word in the region.
    pub kind: ValKind,
}

impl Region {
    /// Address of the `i`-th word.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len`.
    #[inline]
    pub fn at(&self, i: usize) -> Addr {
        assert!(
            i < self.len,
            "region index {i} out of bounds (len {})",
            self.len
        );
        self.base.offset(i as u64)
    }

    /// Iterates over all word addresses in the region.
    pub fn iter(&self) -> impl Iterator<Item = Addr> + '_ {
        (0..self.len as u64).map(move |i| self.base.offset(i))
    }

    /// Returns `true` if `addr` falls inside the region.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0 >= self.base.0 && addr.0 < self.base.0 + self.len as u64
    }
}

/// The per-word type layout of a heap block (the paper's allocation-site
/// annotation for `SW-InstantCheck_Tr`).
///
/// The pattern repeats over the block: a block of "structs" with layout
/// `[U64, F64, F64]` uses a 3-word pattern regardless of how many structs
/// the block holds.
///
/// # Example
///
/// ```
/// use tsim::{TypeTag, ValKind};
///
/// let tag = TypeTag::of(vec![ValKind::U64, ValKind::F64]);
/// assert_eq!(tag.kind_at(0), ValKind::U64);
/// assert_eq!(tag.kind_at(1), ValKind::F64);
/// assert_eq!(tag.kind_at(2), ValKind::U64); // pattern repeats
/// ```
#[derive(Clone)]
pub struct TypeTag {
    pattern: Pattern,
}

/// A [`TypeTag`]'s word pattern: the uniform built-in tags are static,
/// so making one (at every allocation site) allocates nothing.
#[derive(Clone)]
enum Pattern {
    Static(&'static [ValKind]),
    Shared(Arc<[ValKind]>),
}

impl TypeTag {
    /// A tag for blocks of plain integer/pointer words.
    pub fn u64s() -> Self {
        TypeTag {
            pattern: Pattern::Static(&[ValKind::U64]),
        }
    }

    /// A tag for blocks of `f64` words.
    pub fn f64s() -> Self {
        TypeTag {
            pattern: Pattern::Static(&[ValKind::F64]),
        }
    }

    /// A tag with an explicit repeating word pattern.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is empty.
    pub fn of(pattern: Vec<ValKind>) -> Self {
        assert!(!pattern.is_empty(), "type tag pattern must be non-empty");
        TypeTag {
            pattern: Pattern::Shared(Arc::from(pattern)),
        }
    }

    /// The declared kind of the word at `offset` within a block.
    pub fn kind_at(&self, offset: usize) -> ValKind {
        let pattern = self.pattern();
        pattern[offset % pattern.len()]
    }

    /// Length of the repeating pattern in words.
    pub fn stride(&self) -> usize {
        self.pattern().len()
    }

    /// The repeating pattern: word `i` has kind `pattern()[i % stride()]`.
    pub fn pattern(&self) -> &[ValKind] {
        match &self.pattern {
            Pattern::Static(p) => p,
            Pattern::Shared(p) => p,
        }
    }
}

// Tags are equal, hash and print by their pattern alone, however it is
// stored.
impl PartialEq for TypeTag {
    fn eq(&self, other: &Self) -> bool {
        self.pattern() == other.pattern()
    }
}

impl Eq for TypeTag {}

impl Hash for TypeTag {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.pattern().hash(state);
    }
}

impl fmt::Debug for TypeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypeTag")
            .field("pattern", &self.pattern())
            .finish()
    }
}

impl Default for TypeTag {
    fn default() -> Self {
        TypeTag::u64s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_offset_and_display() {
        let a = Addr(0x1000);
        assert_eq!(a.offset(3), Addr(0x1003));
        assert_eq!(a.raw(), 0x1000);
        assert_eq!(format!("{a}"), "0x1000");
        assert!(format!("{a:?}").contains("0x1000"));
    }

    #[test]
    fn region_indexing() {
        let r = Region {
            base: Addr(0x10),
            len: 4,
            kind: ValKind::U64,
        };
        assert_eq!(r.at(0), Addr(0x10));
        assert_eq!(r.at(3), Addr(0x13));
        assert!(r.contains(Addr(0x12)));
        assert!(!r.contains(Addr(0x14)));
        assert_eq!(r.iter().count(), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn region_at_panics_oob() {
        let r = Region {
            base: Addr(0x10),
            len: 4,
            kind: ValKind::U64,
        };
        let _ = r.at(4);
    }

    #[test]
    fn type_tag_patterns() {
        assert_eq!(TypeTag::u64s().kind_at(17), ValKind::U64);
        assert_eq!(TypeTag::f64s().kind_at(17), ValKind::F64);
        let mixed = TypeTag::of(vec![ValKind::U64, ValKind::F64, ValKind::F64]);
        assert_eq!(mixed.stride(), 3);
        assert_eq!(mixed.kind_at(3), ValKind::U64);
        assert_eq!(mixed.kind_at(5), ValKind::F64);
        assert_eq!(mixed.pattern(), [ValKind::U64, ValKind::F64, ValKind::F64]);
        assert_eq!(TypeTag::default(), TypeTag::u64s());
        // Equality, hashing and `Debug` see the pattern, not its storage.
        let built = TypeTag::of(vec![ValKind::F64]);
        assert_eq!(built, TypeTag::f64s());
        let hash = |t: &TypeTag| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&built), hash(&TypeTag::f64s()));
        assert_eq!(format!("{built:?}"), "TypeTag { pattern: [F64] }");
        assert_ne!(TypeTag::u64s(), TypeTag::f64s());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_tag_rejected() {
        let _ = TypeTag::of(vec![]);
    }
}
