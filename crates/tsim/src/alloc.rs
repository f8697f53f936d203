//! The simulated heap allocator and its record/replay machinery.
//!
//! In "natural" mode the allocator behaves like a real `malloc`: a bump
//! pointer plus size-classed LIFO free lists, so the address returned for
//! an allocation depends on the global order in which *all* threads
//! allocate and free — i.e. on the schedule. This is precisely the
//! nondeterminism source the paper controls by logging the addresses
//! returned in one run and replaying them in subsequent runs (Section 5).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::mem::HEAP_BASE;
use crate::types::{Addr, ThreadId, TypeTag, ValKind};

/// Metadata of one live heap allocation (an entry in the paper's "table of
/// allocated blocks with their type information").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// First word of the block.
    pub base: Addr,
    /// Length in words.
    pub len: usize,
    /// The allocation site label (the paper maps addresses back to the
    /// source line of the allocation; sites are how ignore-specs select
    /// "small nondeterministic structures").
    pub site: &'static str,
    /// Per-word type layout, for FP round-off during traversal.
    pub tag: TypeTag,
    /// The thread that performed the allocation.
    pub tid: ThreadId,
    /// Per-thread allocation sequence number (the replay key is
    /// `(tid, seq)`).
    pub seq: u64,
}

impl BlockInfo {
    /// The declared kind of the `i`-th word of the block.
    pub fn kind_at(&self, i: usize) -> ValKind {
        self.tag.kind_at(i)
    }

    /// Iterates over all word addresses of the block.
    pub fn iter(&self) -> impl Iterator<Item = Addr> + '_ {
        (0..self.len as u64).map(move |i| self.base.offset(i))
    }

    /// Returns `true` if `addr` falls inside the block.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0 >= self.base.0 && addr.0 < self.base.0 + self.len as u64
    }
}

/// Thread ids below this keep a dense per-thread log; larger ones (a
/// run with that many threads, or a decoded record) go to the sparse
/// map, so a decoded key cannot make the log allocate in proportion to
/// its value.
const DENSE_THREADS: usize = 256;

/// A log of the addresses returned by the allocator, keyed by
/// `(thread, per-thread allocation index)`.
///
/// Produced by every run; feed it back through
/// [`RunConfig::alloc_replay`](crate::RunConfig) to make later runs
/// allocate at the same addresses (the paper treats allocator results as
/// program *input* that must be fixed across the compared runs).
///
/// A run numbers each thread's allocations `0, 1, 2, …`, so the log keeps
/// them as one dense `Vec` per thread, indexed by sequence number. A key
/// that does not extend its thread's dense prefix (a gap, which only a
/// decoded record can have, or a thread id of 256 or more) goes to a
/// sparse map, and moves into the dense part once the gap before it is
/// filled. The layout is therefore a function of the key set alone (so
/// equal logs compare equal field by field), and memory stays
/// proportional to the number of keys.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocLog {
    /// `dense[tid][seq]`: every thread's contiguous prefix `0..len`. It
    /// grows only to hold a thread's key `0`, so its last run is never
    /// empty.
    dense: Vec<Vec<u64>>,
    /// Every other key; never `(tid, dense[tid].len())`.
    sparse: BTreeMap<(ThreadId, u64), u64>,
}

impl AllocLog {
    /// Number of logged allocations.
    pub fn len(&self) -> usize {
        self.dense.iter().map(Vec::len).sum::<usize>() + self.sparse.len()
    }

    /// Returns `true` if nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the logged base address for `(tid, seq)`.
    pub fn lookup(&self, tid: ThreadId, seq: u64) -> Option<Addr> {
        let dense = self
            .dense
            .get(tid)
            .and_then(|run| run.get(usize::try_from(seq).ok()?));
        match dense {
            Some(&base) => Some(Addr(base)),
            None if self.sparse.is_empty() => None,
            None => self.sparse.get(&(tid, seq)).map(|&b| Addr(b)),
        }
    }

    /// The logged allocations as `((tid, seq), base)` triples, sorted by
    /// key — a canonical order, so two equal logs always enumerate
    /// identically (the corpus serializer relies on this).
    pub fn entries(&self) -> Vec<((ThreadId, u64), u64)> {
        let mut v = Vec::with_capacity(self.len());
        for (tid, run) in self.dense.iter().enumerate() {
            v.extend(
                run.iter()
                    .enumerate()
                    .map(|(seq, &base)| ((tid, seq as u64), base)),
            );
        }
        if !self.sparse.is_empty() {
            v.extend(self.sparse.iter().map(|(&k, &base)| (k, base)));
            v.sort_unstable();
        }
        v
    }

    /// Inserts one logged allocation — the inverse of
    /// [`entries`](AllocLog::entries), for deserializing a persisted log.
    pub fn insert(&mut self, tid: ThreadId, seq: u64, base: u64) {
        self.record(tid, seq, base);
    }

    fn record(&mut self, tid: ThreadId, seq: u64, base: u64) {
        if tid < DENSE_THREADS {
            let next = self.dense.get(tid).map_or(0, |run| run.len() as u64);
            if seq < next {
                self.dense[tid][seq as usize] = base;
                return;
            }
            if seq == next {
                if tid >= self.dense.len() {
                    self.dense.resize_with(tid + 1, Vec::new);
                }
                let run = &mut self.dense[tid];
                run.push(base);
                // Keys that arrived ahead of a gap now extend the prefix.
                if !self.sparse.is_empty() {
                    let mut seq = seq + 1;
                    while let Some(base) = self.sparse.remove(&(tid, seq)) {
                        run.push(base);
                        seq += 1;
                    }
                }
                return;
            }
        }
        self.sparse.insert((tid, seq), base);
    }
}

/// The heap allocator state for one run.
#[derive(Debug, Clone)]
pub(crate) struct Allocator {
    /// Next unused word offset from `HEAP_BASE`.
    next: u64,
    /// Size-classed LIFO free lists (exact-size reuse, like a fast-bin).
    free_lists: BTreeMap<usize, Vec<u64>>,
    /// Live blocks by base address.
    table: BTreeMap<u64, BlockInfo>,
    /// Per-thread allocation counters.
    counters: Vec<u64>,
    /// Log of this run's allocations.
    log: AllocLog,
    /// Addresses to replay, if any.
    replay: Option<Arc<AllocLog>>,
    /// How many replayed allocations had to fall back to fresh memory
    /// (missing key or overlap with a live block).
    replay_misses: u64,
    /// Bumped on every alloc and free: equal epochs mean an unchanged
    /// block table.
    epoch: u64,
}

impl Allocator {
    pub(crate) fn new(nthreads: usize, replay: Option<Arc<AllocLog>>) -> Self {
        Allocator {
            next: 0,
            free_lists: BTreeMap::new(),
            table: BTreeMap::new(),
            counters: vec![0; nthreads],
            log: AllocLog::default(),
            replay,
            replay_misses: 0,
            epoch: 0,
        }
    }

    pub(crate) fn table(&self) -> &BTreeMap<u64, BlockInfo> {
        &self.table
    }

    /// The number of allocs and frees so far (see
    /// [`StateView::alloc_epoch`](crate::StateView::alloc_epoch)).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The run's allocation log, final block table, replay misses and
    /// epoch.
    pub(crate) fn into_parts(self) -> (AllocLog, BTreeMap<u64, BlockInfo>, u64, u64) {
        (self.log, self.table, self.replay_misses, self.epoch)
    }

    /// How many replayed allocations fell back to fresh memory so far.
    pub(crate) fn replay_misses(&self) -> u64 {
        self.replay_misses
    }

    /// The `(base, len)` of each of `tid`'s allocations so far, in
    /// sequence order. Expects none of them freed.
    pub(crate) fn blocks_of(&self, tid: ThreadId) -> Vec<(u64, usize)> {
        (0..self.counters[tid])
            .map(|seq| {
                let base = self
                    .log
                    .lookup(tid, seq)
                    .expect("every allocation is logged");
                (base.0, self.table[&base.0].len)
            })
            .collect()
    }

    /// A copy of this allocator that goes on replaying from `replay`
    /// instead of its own log.
    pub(crate) fn resume(&self, replay: Option<Arc<AllocLog>>) -> Allocator {
        Allocator {
            replay,
            ..self.clone()
        }
    }

    /// Returns `true` if `[base, base+len)` overlaps any live block.
    fn overlaps_live(&self, base: u64, len: usize) -> bool {
        // Live blocks are disjoint, so if any block overlaps us, so does
        // the last one starting before our end.
        self.table
            .range(..base + len as u64)
            .next_back()
            .is_some_and(|(_, last)| last.base.0 + last.len as u64 > base)
    }

    /// Allocates `len` words for `tid` at `site`, returning the new
    /// block. Never fails (the heap grows on demand).
    pub(crate) fn alloc(
        &mut self,
        tid: ThreadId,
        site: &'static str,
        tag: TypeTag,
        len: usize,
    ) -> &BlockInfo {
        let len = len.max(1);
        self.epoch += 1;
        let seq = self.counters[tid];
        self.counters[tid] += 1;

        let base = self
            .replayed_base(tid, seq, len)
            .unwrap_or_else(|| self.natural_base(len));

        self.log.record(tid, seq, base);
        let block = BlockInfo {
            base: Addr(base),
            len,
            site,
            tag,
            tid,
            seq,
        };
        match self.table.entry(base) {
            Entry::Vacant(slot) => slot.insert(block),
            Entry::Occupied(mut slot) => {
                slot.insert(block);
                slot.into_mut()
            }
        }
    }

    fn replayed_base(&mut self, tid: ThreadId, seq: u64, len: usize) -> Option<u64> {
        let replay = self.replay.as_ref()?;
        match replay.lookup(tid, seq) {
            Some(addr) if !self.overlaps_live(addr.0, len) => {
                // Keep the bump pointer past every replayed block so a
                // later fallback allocation cannot collide with one.
                self.next = self.next.max(addr.0 - HEAP_BASE + len as u64);
                Some(addr.0)
            }
            _ => {
                // Key missing (the runs diverged structurally) or the
                // logged block overlaps a live one (lifetimes shifted
                // under this schedule): fall back to fresh memory.
                self.replay_misses += 1;
                None
            }
        }
    }

    fn natural_base(&mut self, len: usize) -> u64 {
        if self.replay.is_none() {
            if let Some(list) = self.free_lists.get_mut(&len) {
                if let Some(base) = list.pop() {
                    return base;
                }
            }
        }
        let base = HEAP_BASE + self.next;
        self.next += len as u64;
        base
    }

    /// Frees the block at `addr`, returning its metadata, or `None` if
    /// `addr` is not the base of a live block.
    pub(crate) fn free(&mut self, addr: Addr) -> Option<BlockInfo> {
        let block = self.table.remove(&addr.0)?;
        self.epoch += 1;
        if self.replay.is_none() {
            self.free_lists.entry(block.len).or_default().push(addr.0);
        }
        Some(block)
    }

    /// The log of this run's allocations so far.
    #[cfg(test)]
    pub(crate) fn log(&self) -> &AllocLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(alloc: &mut Allocator, tid: ThreadId, len: usize) -> Addr {
        alloc.alloc(tid, "test", TypeTag::u64s(), len).base
    }

    #[test]
    fn bump_allocation_is_contiguous() {
        let mut al = Allocator::new(2, None);
        let x = a(&mut al, 0, 4);
        let y = a(&mut al, 1, 2);
        assert_eq!(x, Addr(HEAP_BASE));
        assert_eq!(y, Addr(HEAP_BASE + 4));
        assert_eq!(al.table().len(), 2);
    }

    #[test]
    fn free_list_reuse_is_lifo_and_size_classed() {
        let mut al = Allocator::new(1, None);
        let x = a(&mut al, 0, 4);
        let y = a(&mut al, 0, 4);
        al.free(x).unwrap();
        al.free(y).unwrap();
        // Same-size allocation reuses the most recently freed block.
        assert_eq!(a(&mut al, 0, 4), y);
        assert_eq!(a(&mut al, 0, 4), x);
        // A different size does not reuse.
        let z = a(&mut al, 0, 2);
        assert_eq!(z, Addr(HEAP_BASE + 8));
    }

    #[test]
    fn alloc_order_changes_addresses() {
        // The schedule-dependence the paper controls: the same per-thread
        // allocation sequence gets different addresses if the interleaving
        // differs.
        let mut run1 = Allocator::new(2, None);
        let t0_first = run1.alloc(0, "s", TypeTag::u64s(), 3).base;
        let _ = run1.alloc(1, "s", TypeTag::u64s(), 3).base;

        let mut run2 = Allocator::new(2, None);
        let _ = run2.alloc(1, "s", TypeTag::u64s(), 3).base;
        let t0_second = run2.alloc(0, "s", TypeTag::u64s(), 3).base;

        assert_ne!(t0_first, t0_second);
    }

    #[test]
    fn replay_restores_addresses() {
        let mut run1 = Allocator::new(2, None);
        let x1 = run1.alloc(0, "s", TypeTag::u64s(), 3).base;
        let y1 = run1.alloc(1, "s", TypeTag::u64s(), 5).base;
        let (log, ..) = run1.into_parts();

        // Replay with the *opposite* interleaving: addresses still match.
        let mut run2 = Allocator::new(2, Some(Arc::new(log)));
        let y2 = run2.alloc(1, "s", TypeTag::u64s(), 5).base;
        let x2 = run2.alloc(0, "s", TypeTag::u64s(), 3).base;
        assert_eq!(x1, x2);
        assert_eq!(y1, y2);
        let (_, _, misses, _) = run2.into_parts();
        assert_eq!(misses, 0);
    }

    #[test]
    fn replay_overlap_falls_back() {
        // Run 1: t0 allocates A, frees it, t1 reuses the space for B.
        let mut run1 = Allocator::new(2, None);
        let a1 = run1.alloc(0, "s", TypeTag::u64s(), 4).base;
        run1.free(a1).unwrap();
        let b1 = run1.alloc(1, "s", TypeTag::u64s(), 4).base;
        assert_eq!(a1, b1); // reuse happened
        let (log, ..) = run1.into_parts();

        // Run 2 (different schedule): t1 allocates B *before* t0 frees A;
        // the replayed address would overlap the still-live A, so the
        // allocator must fall back rather than corrupt memory.
        let mut run2 = Allocator::new(2, Some(Arc::new(log)));
        let a2 = run2.alloc(0, "s", TypeTag::u64s(), 4).base;
        let b2 = run2.alloc(1, "s", TypeTag::u64s(), 4).base;
        assert_eq!(a2, a1);
        assert_ne!(b2, a2, "live blocks must never overlap");
        let (_, table, misses, _) = run2.into_parts();
        assert_eq!(misses, 1);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn overlap_check_sees_every_live_neighbour() {
        let mut al = Allocator::new(1, None);
        let x = a(&mut al, 0, 4);
        let y = a(&mut al, 0, 2);
        a(&mut al, 0, 3);
        al.free(y).unwrap();
        let brute = |al: &Allocator, base: u64, len: usize| {
            al.table()
                .values()
                .any(|b| b.base.0 < base + len as u64 && base < b.base.0 + b.len as u64)
        };
        for start in x.0 - 2..x.0 + 12 {
            for len in 1..12 {
                assert_eq!(
                    al.overlaps_live(start, len),
                    brute(&al, start, len),
                    "[{start:#x}, +{len})"
                );
            }
        }
        assert!(!al.overlaps_live(y.0, 2), "the freed gap is free");
    }

    #[test]
    fn replay_missing_key_falls_back() {
        let run1 = Allocator::new(1, None);
        let (log, ..) = run1.into_parts(); // empty log
        let mut run2 = Allocator::new(1, Some(Arc::new(log)));
        let x = a(&mut run2, 0, 2);
        assert_eq!(x, Addr(HEAP_BASE));
        let (_, _, misses, _) = run2.into_parts();
        assert_eq!(misses, 1);
    }

    #[test]
    fn free_of_unknown_address_is_none() {
        let mut al = Allocator::new(1, None);
        assert!(al.free(Addr(HEAP_BASE + 123)).is_none());
        let x = a(&mut al, 0, 2);
        // Freeing an interior pointer is also invalid.
        assert!(al.free(x.offset(1)).is_none());
        assert!(al.free(x).is_some());
        assert!(al.free(x).is_none(), "double free rejected");
    }

    #[test]
    fn block_info_helpers() {
        let mut al = Allocator::new(1, None);
        let block = al.alloc(0, "site", TypeTag::f64s(), 3).clone();
        let x = block.base;
        assert_eq!(&al.table()[&x.0], &block);
        assert_eq!(block.kind_at(2), ValKind::F64);
        assert_eq!(block.iter().count(), 3);
        assert!(block.contains(x.offset(2)));
        assert!(!block.contains(x.offset(3)));
        assert_eq!(block.site, "site");
        assert_eq!(block.seq, 0);
    }

    #[test]
    fn log_records_every_alloc() {
        let mut al = Allocator::new(2, None);
        a(&mut al, 0, 1);
        a(&mut al, 0, 1);
        a(&mut al, 1, 1);
        assert_eq!(al.log().len(), 3);
        assert!(al.log().lookup(0, 1).is_some());
        assert!(al.log().lookup(1, 1).is_none());
        assert!(!al.log().is_empty());
    }

    #[test]
    fn epoch_moves_on_every_alloc_and_free() {
        let mut al = Allocator::new(1, None);
        assert_eq!(al.epoch(), 0);
        let x = a(&mut al, 0, 2);
        assert_eq!(al.epoch(), 1);
        assert!(al.free(x.offset(1)).is_none());
        assert_eq!(al.epoch(), 1, "a rejected free changes nothing");
        al.free(x).unwrap();
        // The reuse lands at the same base: only the epoch tells the
        // two tables apart.
        assert_eq!(a(&mut al, 0, 2), x);
        assert_eq!(al.epoch(), 3);
    }

    #[test]
    fn alloc_log_matches_a_map_model_and_stays_bounded() {
        minicheck::check("alloc_log_matches_a_map_model", 512, |g| {
            // A few threads' sequences with gaps, plus keys no run makes:
            // a huge sequence number, thread ids at and past the dense
            // limit, and a huge thread id.
            let mut keys: Vec<(ThreadId, u64)> = Vec::new();
            for tid in 0..g.usize_in(1, 6) {
                for seq in 0..g.u64_in(0, 40) {
                    if !g.chance(1, 8) {
                        keys.push((tid, seq));
                    }
                }
            }
            keys.push((7, 1 << 40));
            if g.bool() {
                keys.extend([
                    (DENSE_THREADS - 1, 0),
                    (DENSE_THREADS, 0),
                    (usize::MAX, g.u64()),
                ]);
            }
            // Insert in random order, some keys twice.
            for i in (1..keys.len()).rev() {
                keys.swap(i, g.usize_in(0, i + 1));
            }
            for _ in 0..g.usize_in(0, 4) {
                let again = *g.pick(&keys);
                keys.push(again);
            }
            let mut log = AllocLog::default();
            let mut model = BTreeMap::new();
            for &(tid, seq) in &keys {
                let base = g.u64();
                log.insert(tid, seq, base);
                model.insert((tid, seq), base);
            }

            assert_eq!(log.len(), model.len());
            assert_eq!(log.is_empty(), model.is_empty());
            let want: Vec<_> = model.iter().map(|(&k, &b)| (k, b)).collect();
            assert_eq!(log.entries(), want);
            for (&(tid, seq), &base) in &model {
                assert_eq!(log.lookup(tid, seq), Some(Addr(base)));
                for (t, s) in [(tid, seq + 1), (tid + 1, seq), (tid, u64::MAX)] {
                    assert_eq!(log.lookup(t, s), model.get(&(t, s)).map(|&b| Addr(b)));
                }
            }
            // Built in key order, as a decoder does, the log is equal.
            let mut decoded = AllocLog::default();
            for (&(tid, seq), &base) in &model {
                decoded.insert(tid, seq, base);
            }
            assert_eq!(decoded, log);
            // Memory follows the key count, never a key's value.
            assert!(log.dense.len() <= DENSE_THREADS);
            let words: usize = log.dense.iter().map(Vec::capacity).sum();
            assert!(
                words <= 2 * log.len() + 8 * log.dense.len(),
                "{words} words"
            );
        });
    }

    #[test]
    fn alloc_log_fills_a_gap_from_the_sparse_part() {
        let mut log = AllocLog::default();
        log.insert(1, 2, 30);
        log.insert(1, 1, 20);
        assert_eq!(log.sparse.len(), 2);
        log.insert(1, 0, 10);
        assert_eq!(log.dense[1], [10, 20, 30]);
        assert!(log.sparse.is_empty());
        assert_eq!(log.entries(), [((1, 0), 10), ((1, 1), 20), ((1, 2), 30)]);
    }

    #[test]
    fn zero_len_alloc_rounds_up() {
        let mut al = Allocator::new(1, None);
        let x = a(&mut al, 0, 0);
        let y = a(&mut al, 0, 1);
        assert_ne!(x, y);
    }
}
