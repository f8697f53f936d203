//! The instrumentation surface: what a checker can observe during a run.

use std::collections::BTreeMap;

use adhash::{FpRound, HashSum};

use crate::alloc::BlockInfo;
use crate::mem::Memory;
use crate::program::GlobalDecl;
use crate::types::{Addr, BarrierId, ThreadId, ValKind};

/// What a monitor asks of the engine's store datapath (see
/// [`Monitor::hash_spec`]).
///
/// The engine sees every store: the simulated threads' stores, their
/// `fetch_add`/`compare_and_swap` writes and the setup phase's stores
/// ([`SetupCtx`](crate::SetupCtx)), which are attributed to thread 0. It
/// counts them and, when `hashing` is set, keeps one incremental hash sum
/// per thread with the default [`adhash::Mix64Hasher`], batched and
/// folded four lanes wide. A free cancels the block's words out of the
/// freeing thread's sum. The monitor reads the sums and counts at every
/// checkpoint through [`StateView::engine_hashes`].
///
/// The default spec (no hashing, no rounding, no accesses) is the
/// *Native* configuration: the engine only counts stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HashSpec {
    /// Keep per-thread incremental hash sums over the stores. When
    /// `false` the engine only counts.
    pub hashing: bool,
    /// Round off FP stores (both old and new value) with this mode before
    /// hashing, exactly as the `mhm` crate's `MhmCore` would. `None`
    /// hashes FP bits exactly.
    pub rounding: Option<FpRound>,
    /// Also deliver [`Monitor::on_store`] for every store the engine sees
    /// and [`Monitor::on_load`] for every simulated thread's load. These
    /// callbacks only drive observers (a cache model, a test recorder);
    /// the hashing stays the engine's. A run whose monitor sets this
    /// never starts from a [`SetupImage`](crate::SetupImage), so the
    /// monitor sees the setup phase's stores too.
    pub accesses: bool,
}

/// The engine's store datapath state handed to the monitor at each
/// checkpoint (via [`StateView::engine_hashes`]), maintained per the
/// monitor's [`HashSpec`].
///
/// All counters are cumulative over the run so far.
#[derive(Debug, Clone, Copy)]
pub struct EngineHashes<'a> {
    /// Per-thread incremental hash sums (index = thread id), grown
    /// lazily to the highest thread id that stored or freed. Empty when
    /// the spec has `hashing: false`.
    pub sums: &'a [HashSum],
    /// Total stores so far: the setup phase's and the simulated
    /// threads'.
    pub stores: u64,
    /// Total words of freed heap blocks whose contribution the engine
    /// cancelled out of the sums so far.
    pub freed_words: u64,
}

/// Why a determinism checkpoint fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckpointKind {
    /// A pthread-style barrier completed (all parties arrived).
    Barrier(BarrierId),
    /// A workload-inserted checkpoint (the paper's "additional program
    /// points where she expects her program to be in a deterministic
    /// state", e.g. the end of a loop iteration).
    Manual(&'static str),
    /// The program finished (all threads exited).
    End,
}

/// Identification of one dynamic checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Dense per-run sequence number (checkpoint alignment key across
    /// runs).
    pub seq: u64,
    /// What triggered the checkpoint.
    pub kind: CheckpointKind,
}

/// A read-only view of the machine state, passed to monitors at
/// checkpoints.
///
/// The *live state* is exactly what the paper hashes: the static data
/// (globals) plus the heap blocks currently allocated. Freed memory is
/// not part of the state.
#[derive(Debug)]
pub struct StateView<'a> {
    mem: &'a Memory,
    globals: &'a [GlobalDecl],
    blocks: &'a BTreeMap<u64, BlockInfo>,
    alloc_epoch: u64,
    engine: EngineHashes<'a>,
}

impl<'a> StateView<'a> {
    pub(crate) fn new(
        mem: &'a Memory,
        globals: &'a [GlobalDecl],
        blocks: &'a BTreeMap<u64, BlockInfo>,
        alloc_epoch: u64,
        engine: EngineHashes<'a>,
    ) -> Self {
        StateView {
            mem,
            globals,
            blocks,
            alloc_epoch,
            engine,
        }
    }

    /// The engine's per-thread hash sums and store counts at this point
    /// of the run (see [`HashSpec`]).
    pub fn engine_hashes(&self) -> EngineHashes<'a> {
        self.engine
    }

    /// Reads one word, or `None` if the address is unmapped.
    pub fn read(&self, addr: Addr) -> Option<u64> {
        self.mem.read(addr)
    }

    /// The declared global regions.
    pub fn globals(&self) -> &[GlobalDecl] {
        self.globals
    }

    /// Looks up a global region by name.
    pub fn global(&self, name: &str) -> Option<&GlobalDecl> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// The live heap blocks, in address order.
    pub fn blocks(&self) -> impl Iterator<Item = &BlockInfo> + '_ {
        self.blocks.values()
    }

    /// The live heap blocks allocated at `site`.
    pub fn blocks_at_site<'s>(&'s self, site: &'s str) -> impl Iterator<Item = &'a BlockInfo> + 's {
        self.blocks.values().filter(move |b| b.site == site)
    }

    /// The run's allocation epoch: the number of heap allocs and frees
    /// performed so far.
    ///
    /// Within one run, two views with equal epochs have the same live
    /// block table (same bases, lengths, sites and tags), so anything
    /// derived from the table alone — such as an ignore set resolved to
    /// addresses — stays valid until the epoch moves. The epoch says
    /// nothing about memory contents, and epochs of different runs are
    /// not comparable.
    pub fn alloc_epoch(&self) -> u64 {
        self.alloc_epoch
    }

    /// Iterates over the live state as contiguous regions — the
    /// traversal of the paper's `SW-InstantCheck_Tr`.
    ///
    /// Each item is `(base, words, kinds)`: the region's first address,
    /// its current contents (word `i` lives at `base + i`) and its type
    /// pattern, which repeats (word `i` has kind `kinds[i %
    /// kinds.len()]`; `kinds` is never empty). Every global region comes
    /// first, in declaration order, then every live heap block in
    /// address order; both are ascending and disjoint, so the regions
    /// cover the live state exactly once, in address order.
    pub fn live_regions(&self) -> impl Iterator<Item = (Addr, &'a [u64], &'a [ValKind])> + '_ {
        let mem = self.mem;
        let words = move |base: Addr, len: usize| {
            mem.words(base, len)
                .expect("the live state is mapped memory")
        };
        let globals = self.globals.iter().map(move |g| {
            let r = &g.region;
            (r.base, words(r.base, r.len), std::slice::from_ref(&r.kind))
        });
        let heap = self
            .blocks
            .values()
            .map(move |b| (b.base, words(b.base, b.len), b.tag.pattern()));
        globals.chain(heap)
    }

    /// Number of live words (the paper's state size; ×8 for bytes).
    pub fn live_word_count(&self) -> usize {
        self.globals.iter().map(|g| g.region.len).sum::<usize>()
            + self.blocks.values().map(|b| b.len).sum::<usize>()
    }
}

/// Observer of a simulated run — the instrumentation hook surface.
///
/// This is the role Pin instrumentation (and the modeled MHM hardware)
/// plays in the paper. The store-hashing itself is the engine's: a
/// monitor states what it needs in [`hash_spec`](Monitor::hash_spec)
/// and reads the per-thread sums at every checkpoint through
/// [`StateView::engine_hashes`]. The callbacks report every allocation,
/// every output byte and every checkpoint, and, when the spec asks for
/// accesses, every store with its old and new value and every load.
/// All methods default to no-ops, so a monitor implements only what it
/// needs.
///
/// Methods are invoked while the run's execution is serialized, so a
/// monitor needs no internal synchronization.
#[allow(unused_variables)]
pub trait Monitor: Send {
    /// A store of `new` over `old` at `addr` by `tid`, delivered only
    /// when [`hash_spec`](Monitor::hash_spec) sets `accesses`. Setup-phase
    /// stores come from thread 0.
    ///
    /// `kind` is [`ValKind::F64`] iff the program issued an FP store —
    /// the information the paper's LLVM pass provides to the MHM.
    fn on_store(&mut self, tid: ThreadId, addr: Addr, old: u64, new: u64, kind: ValKind) {}

    /// A load of `value` from `addr` by simulated thread `tid`, delivered
    /// only when [`hash_spec`](Monitor::hash_spec) sets `accesses`.
    fn on_load(&mut self, tid: ThreadId, addr: Addr, value: u64, kind: ValKind) {}

    /// A new heap block was allocated (already zero-filled).
    ///
    /// A run that starts from a [`SetupImage`](crate::SetupImage)
    /// delivers the setup phase's allocations (thread 0, in sequence
    /// order) at run start, before any thread runs, exactly as executing
    /// the setup phase would.
    fn on_alloc(&mut self, tid: ThreadId, block: &BlockInfo) {}

    /// Bytes appended to the program output stream.
    fn on_output(&mut self, tid: ThreadId, bytes: &[u8]) {}

    /// A determinism checkpoint: a completed barrier, a manual checkpoint,
    /// or the end of the run.
    fn on_checkpoint(&mut self, info: &CheckpointInfo, view: &StateView<'_>) {}

    /// What this monitor needs of the engine's store datapath: whether
    /// to hash, how to round FP stores, and whether to deliver the
    /// per-access callbacks. The default hashes nothing and delivers no
    /// accesses (the *Native* configuration).
    ///
    /// The spec is consulted once at run start; it must not change over
    /// the monitor's lifetime.
    fn hash_spec(&self) -> HashSpec {
        HashSpec::default()
    }
}

/// A monitor that observes nothing — the *Native* configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullMonitor;

impl Monitor for NullMonitor {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::GLOBALS_BASE;
    use crate::types::{Region, TypeTag};

    const NO_ENGINE: EngineHashes<'static> = EngineHashes {
        sums: &[],
        stores: 0,
        freed_words: 0,
    };

    fn fixture() -> (Memory, Vec<GlobalDecl>, BTreeMap<u64, BlockInfo>) {
        let mut mem = Memory::new(3);
        mem.write(Addr(GLOBALS_BASE), 10);
        mem.write(Addr(GLOBALS_BASE + 2), 30);
        let globals = vec![GlobalDecl {
            name: "g",
            region: Region {
                base: Addr(GLOBALS_BASE),
                len: 3,
                kind: ValKind::U64,
            },
        }];
        let mut blocks = BTreeMap::new();
        blocks.insert(
            crate::mem::HEAP_BASE,
            BlockInfo {
                base: Addr(crate::mem::HEAP_BASE),
                len: 2,
                site: "buf",
                tag: TypeTag::f64s(),
                tid: 0,
                seq: 0,
            },
        );
        mem.grow_heap(2);
        mem.write(Addr(crate::mem::HEAP_BASE + 1), 7);
        (mem, globals, blocks)
    }

    #[test]
    fn live_regions_cover_globals_and_heap() {
        let (mem, globals, blocks) = fixture();
        let view = StateView::new(&mem, &globals, &blocks, 4, NO_ENGINE);
        let regions: Vec<_> = view.live_regions().collect();
        assert_eq!(
            regions,
            [
                (Addr(GLOBALS_BASE), &[10, 0, 30][..], &[ValKind::U64][..]),
                (
                    Addr(crate::mem::HEAP_BASE),
                    &[0, 7][..],
                    &[ValKind::F64][..]
                ),
            ]
        );
        let words: usize = regions.iter().map(|(_, w, _)| w.len()).sum();
        assert_eq!(view.live_word_count(), words);
        assert_eq!(view.alloc_epoch(), 4);
    }

    #[test]
    fn lookup_helpers() {
        let (mem, globals, blocks) = fixture();
        let view = StateView::new(&mem, &globals, &blocks, 0, NO_ENGINE);
        assert!(view.global("g").is_some());
        assert!(view.global("nope").is_none());
        assert_eq!(view.blocks().count(), 1);
        assert_eq!(view.blocks_at_site("buf").count(), 1);
        assert_eq!(view.blocks_at_site("other").count(), 0);
        assert_eq!(view.read(Addr(GLOBALS_BASE + 2)), Some(30));
        assert_eq!(view.read(Addr(5)), None);
    }

    #[test]
    fn null_monitor_is_free() {
        let (mem, globals, blocks) = fixture();
        let view = StateView::new(&mem, &globals, &blocks, 0, NO_ENGINE);
        let mut m = NullMonitor;
        m.on_store(0, Addr(GLOBALS_BASE), 0, 1, ValKind::U64);
        m.on_checkpoint(
            &CheckpointInfo {
                seq: 0,
                kind: CheckpointKind::End,
            },
            &view,
        );
        assert_eq!(m.hash_spec(), HashSpec::default());
    }
}
