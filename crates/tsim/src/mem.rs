//! The simulated flat memory: a globals segment and a heap segment.

use crate::types::Addr;

/// First word address of the globals (static data) segment.
pub const GLOBALS_BASE: u64 = 0x1000;

/// First word address of the heap segment.
pub const HEAP_BASE: u64 = 0x1000_0000;

/// The simulated word-addressed memory.
///
/// Two segments are mapped: static data (globals) starting at
/// [`GLOBALS_BASE`] and the heap starting at [`HEAP_BASE`]. Reads and
/// writes outside the mapped prefixes of either segment fail, which the
/// engine converts into [`SimError::BadAddress`](crate::SimError).
#[derive(Debug, Clone, Default)]
pub struct Memory {
    globals: Vec<u64>,
    heap: Vec<u64>,
}

impl Memory {
    /// Creates a memory with `global_words` mapped in the globals segment
    /// and an empty heap.
    pub fn new(global_words: usize) -> Self {
        Memory {
            globals: vec![0; global_words],
            heap: Vec::new(),
        }
    }

    /// Ensures the heap segment covers at least `words` words.
    pub(crate) fn grow_heap(&mut self, words: usize) {
        if self.heap.len() < words {
            self.heap.resize(words, 0);
        }
    }

    /// Maps the heap words `[base, base + len)`, growing the heap if
    /// needed, and zero-fills them: the memory of a fresh allocation.
    ///
    /// # Panics
    ///
    /// Panics if `base` is below [`HEAP_BASE`].
    pub(crate) fn zero_heap(&mut self, base: Addr, len: usize) {
        let start = (base.0 - HEAP_BASE) as usize;
        self.grow_heap(start + len);
        self.heap[start..start + len].fill(0);
    }

    /// Number of mapped global words.
    pub fn global_words(&self) -> usize {
        self.globals.len()
    }

    /// Resolves `addr` to its backing word in one segment branch.
    #[inline]
    fn slot(&self, addr: Addr) -> Option<&u64> {
        let a = addr.0;
        if a >= HEAP_BASE {
            self.heap.get((a - HEAP_BASE) as usize)
        } else if a >= GLOBALS_BASE {
            self.globals.get((a - GLOBALS_BASE) as usize)
        } else {
            None
        }
    }

    /// Mutable variant of [`slot`](Memory::slot): one segment branch,
    /// one bounds check, and the caller gets the word itself.
    #[inline]
    fn slot_mut(&mut self, addr: Addr) -> Option<&mut u64> {
        let a = addr.0;
        if a >= HEAP_BASE {
            self.heap.get_mut((a - HEAP_BASE) as usize)
        } else if a >= GLOBALS_BASE {
            self.globals.get_mut((a - GLOBALS_BASE) as usize)
        } else {
            None
        }
    }

    /// Reads the word at `addr`, or `None` if unmapped.
    #[inline]
    pub fn read(&self, addr: Addr) -> Option<u64> {
        self.slot(addr).copied()
    }

    /// The `len` words starting at `base`, or `None` unless all of them
    /// are mapped in one segment.
    #[inline]
    pub(crate) fn words(&self, base: Addr, len: usize) -> Option<&[u64]> {
        let a = base.0;
        let (segment, start) = if a >= HEAP_BASE {
            (&self.heap, a - HEAP_BASE)
        } else if a >= GLOBALS_BASE {
            (&self.globals, a - GLOBALS_BASE)
        } else {
            return None;
        };
        let start = usize::try_from(start).ok()?;
        segment.get(start..start.checked_add(len)?)
    }

    /// Writes `value` at `addr`, returning the previous value, or `None`
    /// if unmapped (in which case nothing is written).
    #[inline]
    pub fn write(&mut self, addr: Addr, value: u64) -> Option<u64> {
        Some(std::mem::replace(self.slot_mut(addr)?, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_globals() {
        let mut m = Memory::new(4);
        let a = Addr(GLOBALS_BASE + 2);
        assert_eq!(m.read(a), Some(0));
        assert_eq!(m.write(a, 7), Some(0));
        assert_eq!(m.read(a), Some(7));
        assert_eq!(m.write(a, 9), Some(7));
        assert_eq!(m.global_words(), 4);
    }

    #[test]
    fn unmapped_addresses_fail() {
        let mut m = Memory::new(4);
        assert_eq!(m.read(Addr(0)), None); // below globals
        assert_eq!(m.read(Addr(GLOBALS_BASE + 4)), None); // past globals
        assert_eq!(m.read(Addr(HEAP_BASE)), None); // heap not grown
        assert_eq!(m.write(Addr(0), 1), None);
    }

    #[test]
    fn heap_growth() {
        let mut m = Memory::new(0);
        m.grow_heap(8);
        assert_eq!(m.read(Addr(HEAP_BASE + 8)), None);
        let a = Addr(HEAP_BASE + 7);
        assert_eq!(m.write(a, 42), Some(0));
        assert_eq!(m.read(a), Some(42));
        // Growing never shrinks.
        m.grow_heap(2);
        assert_eq!(m.read(a), Some(42));
        assert_eq!(m.read(Addr(HEAP_BASE + 8)), None);
    }

    #[test]
    fn zero_heap_maps_and_clears_a_block() {
        let mut m = Memory::new(0);
        m.zero_heap(Addr(HEAP_BASE + 2), 3);
        assert_eq!(m.words(Addr(HEAP_BASE), 5), Some(&[0; 5][..]));
        assert_eq!(m.read(Addr(HEAP_BASE + 5)), None);
        m.write(Addr(HEAP_BASE + 1), 9);
        m.write(Addr(HEAP_BASE + 3), 9);
        // Reuse below the end clears only the block, and never shrinks.
        m.zero_heap(Addr(HEAP_BASE + 3), 1);
        assert_eq!(m.words(Addr(HEAP_BASE), 5), Some(&[0, 9, 0, 0, 0][..]));
    }

    #[test]
    fn word_slices_stay_inside_one_segment() {
        let mut m = Memory::new(3);
        m.grow_heap(2);
        m.write(Addr(GLOBALS_BASE + 1), 5);
        m.write(Addr(HEAP_BASE + 1), 6);
        assert_eq!(m.words(Addr(GLOBALS_BASE), 3), Some(&[0, 5, 0][..]));
        assert_eq!(m.words(Addr(HEAP_BASE + 1), 1), Some(&[6][..]));
        assert_eq!(m.words(Addr(HEAP_BASE), 0), Some(&[][..]));
        assert_eq!(m.words(Addr(GLOBALS_BASE + 1), 3), None); // past globals
        assert_eq!(m.words(Addr(HEAP_BASE), 3), None); // past the heap
        assert_eq!(m.words(Addr(0), 1), None); // below globals
        assert_eq!(m.words(Addr(HEAP_BASE + 1), usize::MAX), None);
    }

    #[test]
    fn segments_do_not_alias() {
        let mut m = Memory::new(1);
        m.grow_heap(1);
        m.write(Addr(GLOBALS_BASE), 1);
        m.write(Addr(HEAP_BASE), 2);
        assert_eq!(m.read(Addr(GLOBALS_BASE)), Some(1));
        assert_eq!(m.read(Addr(HEAP_BASE)), Some(2));
    }
}
