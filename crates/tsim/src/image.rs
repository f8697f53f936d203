//! Setup images: the machine state right after a program's setup phase,
//! captured once and copied into later runs of the same program instead
//! of executing the setup phase again.

use std::sync::Arc;

use adhash::HashSum;

use crate::alloc::{AllocLog, Allocator};
use crate::mem::{Memory, HEAP_BASE};
use crate::monitor::HashSpec;
use crate::program::{GlobalDecl, Program, RunConfig};
use crate::types::Addr;

/// The machine state right after a program's setup phase, built by
/// [`Program::setup_image`] and started from by [`Program::run_from`].
///
/// A campaign compares many runs of the same input, so every run's
/// setup phase computes the same state. An image holds that state once:
/// memory, the allocator (block table, log, per-thread counters, bump
/// pointer, epoch), thread 0's instruction count, the zero-fill charge,
/// and the engine's per-thread hash sums and store count. It is
/// read-only, so one image can start any number of runs on any number
/// of OS threads.
///
/// # The fit rule
///
/// An image *fits* a run iff executing the setup phase under that run's
/// config would produce it bit for bit. The check is exact and costs
/// O(setup allocations). An image fits when all of these hold:
///
/// - the run's monitor's [`Monitor::hash_spec`](crate::Monitor::hash_spec)
///   equals the [`HashSpec`] the image was built with (same hashing and
///   rounding). No image is built for a spec that asks for accesses:
///   an image holds no setup-phase `on_store`s, so a monitor that wants
///   them never uses one;
/// - the run's [`charge_zero_fill`](RunConfig::charge_zero_fill), thread
///   count and global layout equal the image's;
/// - every setup allocation would get the address it has in the image:
///   with a [`RunConfig::alloc_replay`] log, every `(0, seq)` of the
///   setup phase looks up to the image's base; without one, the image's
///   blocks are the natural bump sequence from the heap base.
///
/// The setup phase never consults the fault plan, the event sink, the
/// trace, the scheduler or the library calls, so none of them is part
/// of the image or of the rule. A run whose config does not fit executes
/// its own setup phase, so [`Program::run_from`] always returns what
/// [`Program::run_with`] would.
///
/// The rule cannot see which program built the image: an image must
/// only start runs of programs built by the same source as the one it
/// was taken from.
pub struct SetupImage {
    pub(crate) spec: HashSpec,
    pub(crate) charge_zero_fill: bool,
    pub(crate) nthreads: usize,
    pub(crate) globals: Vec<GlobalDecl>,
    pub(crate) mem: Memory,
    /// The allocator after setup, detached from the replay log it ran
    /// under.
    pub(crate) alloc: Allocator,
    /// Each setup allocation's `(base, len)`, in sequence order.
    pub(crate) blocks: Vec<(u64, usize)>,
    /// Thread 0's instruction count after setup.
    pub(crate) setup_instr: u64,
    pub(crate) zero_fill_instr: u64,
    /// The engine's flushed per-thread sums and store count.
    pub(crate) sums: Vec<HashSum>,
    pub(crate) stores: u64,
}

impl std::fmt::Debug for SetupImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetupImage")
            .field("spec", &self.spec)
            .field("charge_zero_fill", &self.charge_zero_fill)
            .field("nthreads", &self.nthreads)
            .field("blocks", &self.blocks.len())
            .field("stores", &self.stores)
            .finish_non_exhaustive()
    }
}

impl SetupImage {
    /// The fit rule (see the type's docs) for a run of `prog` under
    /// `config` whose monitor's spec is `spec`.
    pub(crate) fn fits(&self, prog: &Program, config: &RunConfig, spec: HashSpec) -> bool {
        spec == self.spec
            && config.charge_zero_fill == self.charge_zero_fill
            && prog.nthreads == self.nthreads
            && prog.globals == self.globals
            && self.addresses_fit(config.alloc_replay.as_deref())
    }

    /// Whether every setup allocation would land where it did in the
    /// image: the replayed address, or the next bump address.
    fn addresses_fit(&self, replay: Option<&AllocLog>) -> bool {
        match replay {
            Some(log) => self
                .blocks
                .iter()
                .zip(0..)
                .all(|(&(base, _), seq)| log.lookup(0, seq) == Some(Addr(base))),
            None => {
                let mut next = HEAP_BASE;
                self.blocks.iter().all(|&(base, len)| {
                    let bumped = base == next;
                    next += len as u64;
                    bumped
                })
            }
        }
    }

    /// Whether this image, kept by a program whose setup phase had a
    /// replay miss, was built under `config` for a monitor whose spec
    /// is `spec` (the replay log compared by identity).
    pub(crate) fn built_under(
        &self,
        config: &RunConfig,
        spec: HashSpec,
        replay: Option<&Arc<AllocLog>>,
    ) -> bool {
        let same_log = match (replay, &config.alloc_replay) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        spec == self.spec && config.charge_zero_fill == self.charge_zero_fill && same_log
    }
}
