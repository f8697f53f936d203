//! The execution engine: serialized cooperative scheduling of simulated
//! threads over the shared machine state.
//!
//! Every simulated thread is a future, and a run polls them all on the
//! thread that called [`Program::run_with`](crate::Program::run_with).
//! Exactly one of them is *active* (`Central::active`) at any time, so
//! execution is serialized and fully determined by the scheduler's
//! decisions. Threads hand the turn over at scheduling points
//! (synchronization operations, and data accesses when the
//! [`SwitchPolicy`](crate::SwitchPolicy) says so).
//!
//! # The executor loop
//!
//! The run owns the machine state ([`Central`]) in an `Rc<RefCell<_>>`,
//! and each [`ThreadCtx`] holds a handle to it. The loop polls the active
//! thread's future with a no-op waker until the future either hands off
//! (`Pending`: a scheduling point picked another thread) or finishes
//! (`Ready`: the epilogue marks the thread finished and picks the next).
//! It then polls the pick. A scheduling point whose pick lands back on
//! the caller completes without yielding. The loop ends when no thread
//! is runnable or the run has an error. No OS thread, lock or wakeup is
//! involved, so all simulated threads of a run share one OS thread: a
//! thread-local is shared between them.
//!
//! # Failures and the step budget
//!
//! Machine misuse and the step limit record the run's error and unwind
//! the active thread with a silent [`SimAbort`] panic; the loop catches
//! every poll's unwind and ends the run. Every bound is deterministic:
//! a run reads no clock. The step limit is checked at every scheduling
//! point, and a spin of plain accesses reaches one every
//! [`FORCED_PREEMPT_EVERY`] accesses. Calls that are not scheduling
//! points (`work`, `rand_u64`, `gettimeofday`) count against the same
//! budget: a thread that makes more than `max_steps` of them without a
//! scheduling point (`loop { ctx.work(1) }`) ends the run in
//! [`SimError::StepLimit`].

use std::any::Any;
use std::cell::{RefCell, RefMut};
use std::collections::BTreeMap;
use std::future::{poll_fn, Future};
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Waker};

use adhash::{hash_delta_run, DeltaBatch, FpRound, HashSum, Mix64Hasher};

use crate::alloc::{AllocLog, Allocator, BlockInfo};
use crate::error::SimError;
use crate::faults::{FaultKind, FaultPlan, FaultRecord, FaultState};
use crate::image::SetupImage;
use crate::libcalls::{LibCalls, LibLog};
use crate::mem::Memory;
use crate::monitor::{
    CheckpointInfo, CheckpointKind, EngineHashes, HashSpec, Monitor, NullMonitor, StateView,
};
use crate::program::{GlobalDecl, Program, RunConfig, Setup, ThreadBody};
use crate::sched::{Scheduler, SwitchPolicy};
use crate::trace::{Trace, TraceOp};
use crate::types::{Addr, BarrierId, CondId, LockId, RwLockId, SemId, ThreadId, TypeTag, ValKind};

/// Instruction-cost model (in simulated instructions).
const COST_ACCESS: u64 = 1;
const COST_SYNC: u64 = 1;
const COST_MALLOC: u64 = 10;
const COST_FREE: u64 = 10;
const COST_LIB: u64 = 5;

/// Even under `SwitchPolicy::SyncOnly`, force a scheduling point every
/// this many consecutive data accesses by one thread, so spin loops over
/// plain loads cannot monopolize the turn forever; and check the step
/// budget every this many calls that are not scheduling points.
const FORCED_PREEMPT_EVERY: u64 = 4096;

/// Panic payload used to silently unwind simulated threads when the run
/// aborts (deadlock, step limit, machine misuse).
struct SimAbort;

/// Installs (once per process) a panic hook that suppresses the default
/// message for [`SimAbort`] unwinds while delegating everything else.
fn install_quiet_abort_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<SimAbort>() {
                return;
            }
            prev(info);
        }));
    });
}

/// Object-safe wrapper that lets the engine hold any monitor type and
/// still return the concrete value to the caller.
trait AnyMonitor: Monitor {
    fn as_monitor(&mut self) -> &mut dyn Monitor;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<M: Monitor + 'static> AnyMonitor for M {
    fn as_monitor(&mut self) -> &mut dyn Monitor {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Ready,
    BlockedLock(LockId),
    BlockedBarrier(BarrierId),
    BlockedCond(CondId),
    BlockedRwRead(RwLockId),
    BlockedRwWrite(RwLockId),
    BlockedSem(SemId),
    Finished,
}

#[derive(Debug, Default)]
struct LockState {
    held_by: Option<ThreadId>,
}

#[derive(Debug)]
struct BarrierState {
    parties: usize,
    arrived: Vec<ThreadId>,
}

#[derive(Debug, Default)]
struct RwState {
    writer: Option<ThreadId>,
    readers: Vec<ThreadId>,
}

#[derive(Debug)]
struct SemState {
    count: u64,
}

/// Per-thread run state, kept in one contiguous arena (`Central::threads`)
/// instead of parallel `Vec`s so a scheduling point touches one cache line
/// per thread and run construction performs one allocation for all of it.
#[derive(Debug, Clone)]
struct ThreadSlot {
    state: TState,
    instr: u64,
    access_count: u64,
}

/// The engine's store datapath, run per the monitor's [`HashSpec`]:
/// counts every store and, when hashing, keeps per-thread incremental
/// sums through monomorphic batched hashing (folded four lanes wide at
/// flush, see [`DeltaBatch`]).
struct HotState {
    hashing: bool,
    rounding: Option<FpRound>,
    /// Deliver `on_store`/`on_load` to the monitor too.
    accesses: bool,
    hasher: Mix64Hasher,
    /// Deltas buffered since the last flush; all belong to `batch_tid`.
    batch: DeltaBatch,
    batch_tid: ThreadId,
    /// Per-thread incremental sums, grown lazily to the highest thread
    /// id that stored or freed (the checker's cost model charges one
    /// unit per sum).
    sums: Vec<HashSum>,
    stores: u64,
    freed_words: u64,
    /// Reusable `(old, new)` buffer for whole-block frees.
    free_scratch: Vec<(u64, u64)>,
}

impl HotState {
    fn new(spec: HashSpec) -> Self {
        HotState {
            hashing: spec.hashing,
            rounding: spec.rounding,
            accesses: spec.accesses,
            hasher: Mix64Hasher::default(),
            // Only a hashing run buffers deltas; the others skip the
            // buffer's allocation.
            batch: if spec.hashing {
                DeltaBatch::new()
            } else {
                DeltaBatch::default()
            },
            batch_tid: 0,
            sums: Vec::new(),
            stores: 0,
            freed_words: 0,
            free_scratch: Vec::new(),
        }
    }

    /// Rounds a word iff it is an FP store and rounding is configured —
    /// exactly `MhmCore::round_off` semantics, so the engine hashes
    /// bit-identically to the paper's hardware model.
    #[inline]
    fn round(&self, bits: u64, kind: ValKind) -> u64 {
        match (kind, self.rounding) {
            (ValKind::F64, Some(r)) => r.apply_bits(bits),
            _ => bits,
        }
    }

    /// `tid`'s sum, grown to it if needed.
    fn sum_mut(&mut self, tid: ThreadId) -> &mut HashSum {
        if self.sums.len() <= tid {
            self.sums.resize(tid + 1, HashSum::ZERO);
        }
        &mut self.sums[tid]
    }

    /// Folds the buffered deltas into `batch_tid`'s sum.
    fn flush_batch(&mut self) {
        if !self.batch.is_empty() {
            let sum = self.batch.flush(&self.hasher);
            let total = self.sum_mut(self.batch_tid);
            *total = total.combine(sum);
        }
    }

    /// The datapath's counters and flushed sums, for a checkpoint.
    fn hashes(&self) -> EngineHashes<'_> {
        EngineHashes {
            sums: &self.sums,
            stores: self.stores,
            freed_words: self.freed_words,
        }
    }

    /// The per-store hot path: count, round, and buffer one delta.
    #[inline]
    fn on_store(&mut self, tid: ThreadId, addr: Addr, old: u64, new: u64, kind: ValKind) {
        self.stores += 1;
        if !self.hashing {
            return;
        }
        if self.batch_tid != tid || self.batch.is_full() {
            self.flush_batch();
            self.batch_tid = tid;
        }
        self.batch
            .push(addr.raw(), self.round(old, kind), self.round(new, kind));
    }

    /// `tid` freed `block`, whose words `mem` still holds: the block
    /// leaves the live state, so cancel every word's contribution (delta
    /// current → 0, rounded as a store of its kind would be) via one
    /// fused run over the block's contiguous words.
    fn on_free(&mut self, tid: ThreadId, block: &BlockInfo, mem: &Memory) {
        self.freed_words += block.len as u64;
        if !self.hashing {
            return;
        }
        self.flush_batch();
        let mut pairs = std::mem::take(&mut self.free_scratch);
        pairs.clear();
        for i in 0..block.len {
            let cur = mem.read(block.base.offset(i as u64)).unwrap_or(0);
            let kind = block.kind_at(i);
            pairs.push((self.round(cur, kind), self.round(0, kind)));
        }
        let delta = hash_delta_run(&self.hasher, block.base.raw(), &pairs);
        let sum = self.sum_mut(tid);
        *sum = sum.combine(delta);
        self.free_scratch = pairs;
    }
}

/// All mutable machine state, owned by the run and shared with its
/// threads' contexts.
struct Central {
    mem: Memory,
    globals: Vec<GlobalDecl>,
    alloc: Allocator,
    locks: Vec<LockState>,
    rwlocks: Vec<RwState>,
    sems: Vec<SemState>,
    barriers: Vec<BarrierState>,
    threads: Vec<ThreadSlot>,
    active: Option<ThreadId>,
    scheduler: Box<dyn Scheduler + Send>,
    switch: SwitchPolicy,
    monitor: Box<dyn AnyMonitor + Send>,
    hot: HotState,
    zero_fill_instr: u64,
    charge_zero_fill: bool,
    lib: LibCalls,
    output: Vec<u8>,
    trace: Option<Trace>,
    decisions: Vec<u32>,
    decision_options: Option<Vec<Vec<u32>>>,
    step: u64,
    max_steps: u64,
    faults: Option<FaultState>,
    cp_seq: u64,
    cp_decision_index: Vec<usize>,
    error: Option<SimError>,
    finished: usize,
    nthreads: usize,
    sink: Option<Arc<dyn obs::EventSink>>,
    /// The runnable set of a scheduling point, in its first entries
    /// (`nthreads` long, so a point allocates nothing).
    sched_scratch: Vec<ThreadId>,
}

impl Central {
    /// Records `err` as the run's error (unless one is already recorded);
    /// the calling thread must then unwind.
    #[cold]
    fn abort(&mut self, err: SimError) -> Turn {
        if self.error.is_none() {
            self.error = Some(err);
        }
        Turn::Abort
    }

    /// A scheduling point for `tid`: counts the step, checks the step
    /// limit, records the caller's new state and lets the scheduler pick.
    fn point(&mut self, tid: ThreadId, new_state: TState, avoid_self: bool) -> Turn {
        self.step += 1;
        if self.step > self.max_steps {
            return self.abort(SimError::StepLimit {
                limit: self.max_steps,
            });
        }
        self.threads[tid].state = new_state;
        self.active = None;
        if schedule_next_core(self, avoid_self.then_some(tid)) == Some(tid) {
            Turn::Keep
        } else {
            Turn::Yield
        }
    }

    /// Counts a data access by `tid` and, if the switch policy or the
    /// forced-preemption backstop asks for one, takes the scheduling
    /// point after it (see [`Central::point`]).
    #[inline]
    fn after_access(&mut self, tid: ThreadId) -> Turn {
        let slot = &mut self.threads[tid];
        slot.access_count += 1;
        let count = slot.access_count;
        let forced = count.is_multiple_of(FORCED_PREEMPT_EVERY);
        if forced || self.switch.preempt_on_access(count) {
            self.point(tid, TState::Ready, forced)
        } else {
            Turn::Keep
        }
    }

    /// Hands a store to the engine datapath, and to the monitor's
    /// `on_store` when its spec asks for accesses.
    #[inline]
    fn observe_store(&mut self, tid: ThreadId, addr: Addr, old: u64, new: u64, kind: ValKind) {
        self.hot.on_store(tid, addr, old, new, kind);
        if self.hot.accesses {
            self.monitor
                .as_monitor()
                .on_store(tid, addr, old, new, kind);
        }
    }

    /// The allocation shared by [`ThreadCtx::malloc`] and
    /// [`SetupCtx::malloc`]: places the block, maps and zero-fills its
    /// words, charges the zero fill and tells the monitor. Returns the
    /// block's base and length.
    fn alloc_block(
        &mut self,
        tid: ThreadId,
        site: &'static str,
        tag: TypeTag,
        len: usize,
    ) -> (Addr, usize) {
        let block = self.alloc.alloc(tid, site, tag, len);
        self.mem.zero_heap(block.base, block.len);
        if self.charge_zero_fill {
            self.zero_fill_instr += block.len as u64;
        }
        self.monitor.as_monitor().on_alloc(tid, block);
        (block.base, block.len)
    }

    fn trace_push(&mut self, tid: ThreadId, op: TraceOp) {
        if let Some(t) = &mut self.trace {
            t.push(tid, op);
        }
    }

    /// Emits one observability event, building it lazily so a run
    /// without a sink pays only this `Option` check.
    fn obs_emit(&self, make: impl FnOnce(u64) -> obs::Event) {
        if let Some(sink) = &self.sink {
            sink.record(make(self.step));
        }
    }

    /// Emits a fault-injection event.
    fn obs_fault(&self, tid: ThreadId, kind: FaultKind) {
        self.obs_emit(|step| {
            obs::Event::instant(step, tid as u32, "fault")
                .with_arg("tid", tid as u32)
                .with_arg("kind", kind.label())
        });
    }

    fn fire_checkpoint(&mut self, tid: ThreadId, kind: CheckpointKind) {
        let seq = self.cp_seq;
        self.cp_seq += 1;
        self.cp_decision_index.push(self.decisions.len());
        self.trace_push(tid, TraceOp::Checkpoint { seq });
        self.obs_emit(|step| {
            let (kind_str, label) = match kind {
                CheckpointKind::Barrier(_) => ("barrier", None),
                CheckpointKind::Manual(l) => ("manual", Some(l)),
                CheckpointKind::End => ("end", None),
            };
            let ev = obs::Event::instant(step, tid as u32, "checkpoint")
                .with_arg("seq", seq)
                .with_arg("kind", kind_str);
            match label {
                Some(l) => ev.with_arg("label", l),
                None => ev,
            }
        });
        let Central {
            mem,
            globals,
            alloc,
            monitor,
            hot,
            ..
        } = self;
        // Checkpoints are flush boundaries: drain the delta batch so the
        // per-thread sums are exact, then expose them.
        hot.flush_batch();
        let view = StateView::new(mem, globals, alloc.table(), alloc.epoch(), hot.hashes());
        monitor
            .as_monitor()
            .on_checkpoint(&CheckpointInfo { seq, kind }, &view);
    }

    fn deadlock_detail(&self) -> String {
        let mut parts = Vec::new();
        for (t, slot) in self.threads.iter().enumerate() {
            let what = match &slot.state {
                TState::Ready => continue,
                TState::BlockedLock(l) => format!("thread {t} waits on lock {}", l.index()),
                TState::BlockedBarrier(b) => {
                    format!("thread {t} waits at barrier {}", b.index())
                }
                TState::BlockedCond(c) => {
                    format!("thread {t} waits on condvar {}", c.0)
                }
                TState::BlockedRwRead(l) => {
                    format!("thread {t} waits to read-lock rwlock {}", l.index())
                }
                TState::BlockedRwWrite(l) => {
                    format!("thread {t} waits to write-lock rwlock {}", l.index())
                }
                TState::BlockedSem(sem) => {
                    format!("thread {t} waits on semaphore {}", sem.index())
                }
                TState::Finished => continue,
            };
            parts.push(what);
        }
        if parts.is_empty() {
            "no runnable threads".to_owned()
        } else {
            parts.join("; ")
        }
    }
}

/// How a thread goes on once an operation has released the machine
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Turn {
    /// The thread still holds the turn.
    Keep,
    /// The scheduler picked another thread (or none): yield.
    Yield,
    /// The run's error is recorded: unwind.
    Abort,
}

impl Turn {
    /// Whether the caller must yield; unwinds the thread on
    /// [`Turn::Abort`].
    #[inline]
    fn must_yield(self) -> bool {
        match self {
            Turn::Keep => false,
            Turn::Yield => true,
            Turn::Abort => panic::panic_any(SimAbort),
        }
    }
}

/// Picks the next thread to run (or detects completion/deadlock) and
/// returns the pick. Expects `c.active == None`.
///
/// `avoid` excludes a thread from consideration when at least one other
/// thread is runnable — used by the forced-preemption backstop so that a
/// thread spinning on plain loads cannot be handed the turn straight
/// back regardless of the scheduler policy.
///
/// A `None` return means no thread is runnable: either every thread
/// finished, or the run deadlocked (recorded in `c.error`).
fn schedule_next_core(c: &mut Central, avoid: Option<ThreadId>) -> Option<ThreadId> {
    // Compact the ready thread ids to the front of the scratch buffer
    // (`nthreads` long) without a branch per thread.
    let mut n = 0;
    for (t, slot) in c.threads.iter().enumerate() {
        c.sched_scratch[n] = t;
        n += usize::from(matches!(slot.state, TState::Ready));
    }
    if let Some(avoid) = avoid {
        if n > 1 {
            if let Some(i) = c.sched_scratch[..n].iter().position(|&t| t == avoid) {
                c.sched_scratch.copy_within(i + 1..n, i);
                n -= 1;
            }
        }
    }
    if n == 0 {
        if c.finished < c.nthreads && c.error.is_none() {
            c.error = Some(SimError::Deadlock {
                detail: c.deadlock_detail(),
            });
        }
        return None;
    }
    let runnable = &c.sched_scratch[..n];
    let idx = c.scheduler.pick(runnable, c.step).min(n - 1);
    let next = runnable[idx];
    c.decisions.push(next as u32);
    if let Some(opts) = &mut c.decision_options {
        opts.push(runnable.iter().map(|&t| t as u32).collect());
    }
    c.active = Some(next);
    c.obs_emit(|step| {
        obs::Event::instant(step, next as u32, "sched")
            .with_arg("tid", next as u32)
            .with_arg("runnable", n)
    });
    Some(next)
}

/// Registers a wake operation with the fault plan; `true` means an
/// injected [`FaultKind::WakeDrop`] swallows this wake (the classic
/// lost-wakeup bug — the woken state change simply does not happen).
fn wake_dropped(c: &mut Central, tid: ThreadId) -> bool {
    let dropped = match &mut c.faults {
        Some(f) => f.fire(FaultKind::WakeDrop, tid).is_some(),
        None => false,
    };
    if dropped {
        c.obs_fault(tid, FaultKind::WakeDrop);
    }
    dropped
}

/// Suspends the calling thread's future once: the executor polls it
/// again only when the scheduler picks it.
fn handoff() -> impl Future<Output = ()> {
    let mut yielded = false;
    poll_fn(move |_| {
        if std::mem::replace(&mut yielded, true) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    })
}

/// The per-thread instrumented API that workload bodies are written
/// against — the simulator's equivalent of the instruction stream Pin
/// instruments in the paper.
///
/// All shared-memory traffic, synchronization, allocation, library calls
/// and output of the program under test must go through this context; the
/// run's [`Monitor`] observes it and the scheduler interleaves it. Every
/// operation that can be a scheduling point is an `async fn`: awaiting it
/// hands the turn to the scheduler's pick, and completes at once when the
/// pick is the caller. `tid`, `nthreads`, `work`, `rand_u64` and
/// `gettimeofday` never reschedule and stay synchronous.
///
/// Methods abort the whole run (by unwinding this thread) on machine
/// misuse; the run then returns the corresponding [`SimError`].
pub struct ThreadCtx {
    tid: ThreadId,
    nthreads: usize,
    central: Rc<RefCell<Central>>,
    /// Calls that were not scheduling points since `quiet_step` was
    /// last seen to move, for the quiet-call budget.
    quiet_calls: u64,
    /// `Central::step` at the last budget check.
    quiet_step: u64,
}

impl std::fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx").field("tid", &self.tid).finish()
    }
}

impl ThreadCtx {
    /// This thread's id (0-based, dense).
    #[inline]
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// Number of threads in the program.
    #[inline]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// The machine state. Only the active thread runs, and no borrow is
    /// held across an `.await`, so this never finds the state borrowed.
    #[inline]
    fn central(&mut self) -> RefMut<'_, Central> {
        self.central.borrow_mut()
    }

    /// Records `err` as the run's error (unless one is already recorded)
    /// and unwinds this thread.
    #[cold]
    fn fail(&mut self, err: SimError) -> ! {
        self.central().abort(err);
        panic::panic_any(SimAbort)
    }

    /// Counts a call that is not a scheduling point; every
    /// [`FORCED_PREEMPT_EVERY`]th one checks the budget. Only the active
    /// thread moves `Central::step`, so a step equal to the last check's
    /// means every call counted since then was made without a
    /// scheduling point: more than `max_steps` of them end the run in
    /// [`SimError::StepLimit`]. The check only reads the machine state.
    #[inline]
    fn quiet_call(&mut self) {
        self.quiet_calls += 1;
        if self.quiet_calls.is_multiple_of(FORCED_PREEMPT_EVERY) {
            let (step, max_steps) = {
                let c = self.central();
                (c.step, c.max_steps)
            };
            if step != self.quiet_step {
                self.quiet_step = step;
                self.quiet_calls = 0;
            } else if self.quiet_calls > max_steps {
                self.fail(SimError::StepLimit { limit: max_steps });
            }
        }
    }

    /// A scheduling point (see [`Central::point`]); unwinds this thread
    /// if the run has hit its step limit. Returns whether the caller
    /// must yield.
    fn point(&mut self, new_state: TState, avoid_self: bool) -> bool {
        let tid = self.tid;
        let turn = self.central().point(tid, new_state, avoid_self);
        turn.must_yield()
    }

    /// A scheduling point that waits for this thread's next turn.
    async fn reschedule(&mut self, new_state: TState) {
        if self.point(new_state, false) {
            handoff().await;
        }
    }

    // ---- data accesses -------------------------------------------------

    /// One borrow of the machine state covers the whole access: the
    /// read, the monitor, the trace, the access count and the scheduling
    /// point after it.
    async fn load_kind(&mut self, addr: Addr, kind: ValKind) -> u64 {
        let tid = self.tid;
        let (value, turn) = {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += COST_ACCESS;
            match c.mem.read(addr) {
                Some(value) => {
                    if c.hot.accesses {
                        c.monitor.as_monitor().on_load(tid, addr, value, kind);
                    }
                    c.trace_push(tid, TraceOp::Load(addr));
                    (value, c.after_access(tid))
                }
                None => (0, c.abort(SimError::BadAddress { tid, addr })),
            }
        };
        if turn.must_yield() {
            handoff().await;
        }
        value
    }

    /// Like [`load_kind`](ThreadCtx::load_kind), one borrow per store.
    async fn store_kind(&mut self, addr: Addr, mut value: u64, kind: ValKind) {
        let tid = self.tid;
        let turn = {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += COST_ACCESS;
            if let Some(f) = &mut c.faults {
                // Data corruption: the value actually written (and seen by
                // both memory and the monitor) has one bit flipped.
                if let Some(e) = f.fire(FaultKind::BitFlip, tid) {
                    value ^= 1 << (e % 64);
                    c.obs_fault(tid, FaultKind::BitFlip);
                }
            }
            match c.mem.write(addr, value) {
                Some(mut old) => {
                    if let Some(f) = &mut c.faults {
                        // The §4.1 SW-Inc hazard: the monitor's read of the
                        // old value races the store and observes a wrong
                        // (stale) word, so it subtracts the wrong term from
                        // the hash. Memory itself is untouched — only the
                        // monitor is lied to.
                        if let Some(e) = f.fire(FaultKind::StaleRead, tid) {
                            old ^= 1 << (e % 64);
                            c.obs_fault(tid, FaultKind::StaleRead);
                        }
                    }
                    c.observe_store(tid, addr, old, value, kind);
                    c.trace_push(tid, TraceOp::Store(addr));
                    c.after_access(tid)
                }
                None => c.abort(SimError::BadAddress { tid, addr }),
            }
        };
        if turn.must_yield() {
            handoff().await;
        }
    }

    /// Loads an integer/pointer word.
    #[inline]
    pub async fn load(&mut self, addr: Addr) -> u64 {
        self.load_kind(addr, ValKind::U64).await
    }

    /// Stores an integer/pointer word.
    #[inline]
    pub async fn store(&mut self, addr: Addr, value: u64) {
        self.store_kind(addr, value, ValKind::U64).await
    }

    /// Loads an `f64` (stored as its bit pattern).
    #[inline]
    pub async fn load_f64(&mut self, addr: Addr) -> f64 {
        f64::from_bits(self.load_kind(addr, ValKind::F64).await)
    }

    /// Stores an `f64` — an *FP store*, which the checker may round off
    /// before hashing.
    #[inline]
    pub async fn store_f64(&mut self, addr: Addr, value: f64) {
        self.store_kind(addr, value.to_bits(), ValKind::F64).await
    }

    /// Atomic fetch-add on an integer word; returns the previous value.
    /// A synchronization (scheduling) point.
    pub async fn fetch_add(&mut self, addr: Addr, delta: u64) -> u64 {
        let tid = self.tid;
        let old = {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += 2 * COST_ACCESS;
            match c.mem.read(addr) {
                Some(old) => {
                    let new = old.wrapping_add(delta);
                    c.mem.write(addr, new);
                    c.observe_store(tid, addr, old, new, ValKind::U64);
                    c.trace_push(tid, TraceOp::Rmw(addr));
                    Some(old)
                }
                None => None,
            }
        };
        let Some(old) = old else {
            self.fail(SimError::BadAddress { tid, addr });
        };
        self.reschedule(TState::Ready).await;
        old
    }

    /// Atomic compare-and-swap; returns the previous value (the swap
    /// happened iff it equals `expected`). A scheduling point.
    pub async fn compare_and_swap(&mut self, addr: Addr, expected: u64, new: u64) -> u64 {
        let tid = self.tid;
        let old = {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += 2 * COST_ACCESS;
            match c.mem.read(addr) {
                Some(old) => {
                    if old == expected {
                        c.mem.write(addr, new);
                        c.observe_store(tid, addr, old, new, ValKind::U64);
                    }
                    c.trace_push(tid, TraceOp::Rmw(addr));
                    Some(old)
                }
                None => None,
            }
        };
        let Some(old) = old else {
            self.fail(SimError::BadAddress { tid, addr });
        };
        self.reschedule(TState::Ready).await;
        old
    }

    // ---- synchronization -----------------------------------------------

    /// Acquires a mutex, blocking while it is held by another thread.
    ///
    /// The simulated mutexes are non-reentrant; re-acquiring aborts the
    /// run with [`SimError::RelockHeld`].
    pub async fn lock(&mut self, l: LockId) {
        enum LockOutcome {
            Acquired,
            Blocked,
            Relock,
        }
        loop {
            let tid = self.tid;
            let outcome = {
                let mut guard = self.central();
                let c = &mut *guard;
                c.threads[tid].instr += COST_SYNC;
                match c.locks[l.0].held_by {
                    None => {
                        c.locks[l.0].held_by = Some(tid);
                        c.trace_push(tid, TraceOp::Lock(l));
                        LockOutcome::Acquired
                    }
                    Some(holder) if holder == tid => LockOutcome::Relock,
                    Some(_) => LockOutcome::Blocked,
                }
            };
            match outcome {
                LockOutcome::Acquired => {
                    self.reschedule(TState::Ready).await;
                    return;
                }
                LockOutcome::Blocked => self.reschedule(TState::BlockedLock(l)).await,
                LockOutcome::Relock => self.fail(SimError::RelockHeld { tid, lock: l }),
            }
        }
    }

    /// Releases a mutex this thread holds.
    pub async fn unlock(&mut self, l: LockId) {
        let tid = self.tid;
        let ok = {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += COST_SYNC;
            if c.locks[l.0].held_by == Some(tid) {
                c.locks[l.0].held_by = None;
                if !wake_dropped(c, tid) {
                    for t in 0..c.nthreads {
                        if c.threads[t].state == TState::BlockedLock(l) {
                            c.threads[t].state = TState::Ready;
                        }
                    }
                }
                c.trace_push(tid, TraceOp::Unlock(l));
                true
            } else {
                false
            }
        };
        if !ok {
            self.fail(SimError::UnlockNotHeld { tid, lock: l });
        }
        self.reschedule(TState::Ready).await;
    }

    /// Arrives at a pthread-style barrier; blocks until all parties have
    /// arrived. The last arrival fires a determinism checkpoint — the
    /// paper checks at every dynamic `pthread_barrier_wait`.
    pub async fn barrier(&mut self, b: BarrierId) {
        let tid = self.tid;
        let state = {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += COST_SYNC;
            c.trace_push(tid, TraceOp::BarrierArrive(b));
            c.barriers[b.0].arrived.push(tid);
            if c.barriers[b.0].arrived.len() == c.barriers[b.0].parties {
                let arrived = std::mem::take(&mut c.barriers[b.0].arrived);
                for &t in &arrived {
                    c.threads[t].state = TState::Ready;
                }
                c.trace_push(tid, TraceOp::BarrierRelease(b));
                c.fire_checkpoint(tid, CheckpointKind::Barrier(b));
                TState::Ready
            } else {
                TState::BlockedBarrier(b)
            }
        };
        self.reschedule(state).await;
    }

    /// Waits on a condition variable, releasing `l` while waiting and
    /// re-acquiring it before returning.
    ///
    /// Spurious wakeups are possible (as with pthreads): always call in a
    /// predicate loop.
    pub async fn cond_wait(&mut self, cond: CondId, l: LockId) {
        let tid = self.tid;
        let ok = {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += COST_SYNC;
            if c.locks[l.0].held_by == Some(tid) {
                c.locks[l.0].held_by = None;
                for t in 0..c.nthreads {
                    if c.threads[t].state == TState::BlockedLock(l) {
                        c.threads[t].state = TState::Ready;
                    }
                }
                c.trace_push(tid, TraceOp::CondWait(cond, l));
                true
            } else {
                false
            }
        };
        if !ok {
            self.fail(SimError::UnlockNotHeld { tid, lock: l });
        }
        self.reschedule(TState::BlockedCond(cond)).await;
        self.lock(l).await;
    }

    /// Wakes one thread waiting on `cond` (the lowest-id waiter).
    pub async fn cond_signal(&mut self, cond: CondId) {
        let tid = self.tid;
        {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += COST_SYNC;
            if !wake_dropped(c, tid) {
                if let Some(t) =
                    (0..c.nthreads).find(|&t| c.threads[t].state == TState::BlockedCond(cond))
                {
                    c.threads[t].state = TState::Ready;
                }
            }
            c.trace_push(tid, TraceOp::CondSignal(cond));
        }
        self.reschedule(TState::Ready).await;
    }

    /// Wakes every thread waiting on `cond`.
    pub async fn cond_broadcast(&mut self, cond: CondId) {
        let tid = self.tid;
        {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += COST_SYNC;
            if !wake_dropped(c, tid) {
                for t in 0..c.nthreads {
                    if c.threads[t].state == TState::BlockedCond(cond) {
                        c.threads[t].state = TState::Ready;
                    }
                }
            }
            c.trace_push(tid, TraceOp::CondBroadcast(cond));
        }
        self.reschedule(TState::Ready).await;
    }

    /// Voluntarily yields the turn (a scheduling point with no effect).
    pub async fn sched_yield(&mut self) {
        self.reschedule(TState::Ready).await;
    }

    // ---- reader-writer locks and semaphores ------------------------------

    /// Acquires a reader-writer lock in shared (read) mode; blocks while
    /// a writer holds it.
    pub async fn read_lock(&mut self, l: RwLockId) {
        loop {
            let tid = self.tid;
            let acquired = {
                let mut guard = self.central();
                let c = &mut *guard;
                c.threads[tid].instr += COST_SYNC;
                if c.rwlocks[l.0].writer.is_none() {
                    c.rwlocks[l.0].readers.push(tid);
                    c.trace_push(tid, TraceOp::RwReadLock(l));
                    true
                } else {
                    false
                }
            };
            if acquired {
                self.reschedule(TState::Ready).await;
                return;
            }
            self.reschedule(TState::BlockedRwRead(l)).await;
        }
    }

    /// Releases a shared (read) hold.
    pub async fn read_unlock(&mut self, l: RwLockId) {
        let tid = self.tid;
        let ok = {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += COST_SYNC;
            match c.rwlocks[l.0].readers.iter().position(|&t| t == tid) {
                Some(pos) => {
                    c.rwlocks[l.0].readers.swap_remove(pos);
                    if c.rwlocks[l.0].readers.is_empty() {
                        // A waiting writer may proceed.
                        for t in 0..c.nthreads {
                            if c.threads[t].state == TState::BlockedRwWrite(l) {
                                c.threads[t].state = TState::Ready;
                            }
                        }
                    }
                    c.trace_push(tid, TraceOp::RwReadUnlock(l));
                    true
                }
                None => false,
            }
        };
        if !ok {
            self.fail(SimError::RwUnlockNotHeld {
                tid,
                rwlock: l.0,
                write: false,
            });
        }
        self.reschedule(TState::Ready).await;
    }

    /// Acquires a reader-writer lock in exclusive (write) mode; blocks
    /// while any reader or another writer holds it.
    pub async fn write_lock(&mut self, l: RwLockId) {
        loop {
            let tid = self.tid;
            let acquired = {
                let mut guard = self.central();
                let c = &mut *guard;
                c.threads[tid].instr += COST_SYNC;
                let st = &mut c.rwlocks[l.0];
                if st.writer.is_none() && st.readers.is_empty() {
                    st.writer = Some(tid);
                    c.trace_push(tid, TraceOp::RwWriteLock(l));
                    true
                } else {
                    false
                }
            };
            if acquired {
                self.reschedule(TState::Ready).await;
                return;
            }
            self.reschedule(TState::BlockedRwWrite(l)).await;
        }
    }

    /// Releases an exclusive (write) hold.
    pub async fn write_unlock(&mut self, l: RwLockId) {
        let tid = self.tid;
        let ok = {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += COST_SYNC;
            if c.rwlocks[l.0].writer == Some(tid) {
                c.rwlocks[l.0].writer = None;
                for t in 0..c.nthreads {
                    if c.threads[t].state == TState::BlockedRwRead(l)
                        || c.threads[t].state == TState::BlockedRwWrite(l)
                    {
                        c.threads[t].state = TState::Ready;
                    }
                }
                c.trace_push(tid, TraceOp::RwWriteUnlock(l));
                true
            } else {
                false
            }
        };
        if !ok {
            self.fail(SimError::RwUnlockNotHeld {
                tid,
                rwlock: l.0,
                write: true,
            });
        }
        self.reschedule(TState::Ready).await;
    }

    /// Semaphore wait (P): blocks until the count is positive, then
    /// decrements it.
    pub async fn sem_wait(&mut self, sem: SemId) {
        loop {
            let tid = self.tid;
            let acquired = {
                let mut guard = self.central();
                let c = &mut *guard;
                c.threads[tid].instr += COST_SYNC;
                if c.sems[sem.0].count > 0 {
                    c.sems[sem.0].count -= 1;
                    c.trace_push(tid, TraceOp::SemWait(sem));
                    true
                } else {
                    false
                }
            };
            if acquired {
                self.reschedule(TState::Ready).await;
                return;
            }
            self.reschedule(TState::BlockedSem(sem)).await;
        }
    }

    /// Semaphore post (V): increments the count and wakes waiters.
    pub async fn sem_post(&mut self, sem: SemId) {
        let tid = self.tid;
        {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += COST_SYNC;
            c.sems[sem.0].count += 1;
            if !wake_dropped(c, tid) {
                for t in 0..c.nthreads {
                    if c.threads[t].state == TState::BlockedSem(sem) {
                        c.threads[t].state = TState::Ready;
                    }
                }
            }
            c.trace_push(tid, TraceOp::SemPost(sem));
        }
        self.reschedule(TState::Ready).await;
    }

    // ---- heap ------------------------------------------------------------

    /// Allocates `len` zero-filled words at allocation site `site` with
    /// per-word type layout `tag`. A scheduling point (the allocator is
    /// shared state).
    pub async fn malloc(&mut self, site: &'static str, tag: TypeTag, len: usize) -> Addr {
        let tid = self.tid;
        let base = {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += COST_MALLOC;
            let failed = match &mut c.faults {
                Some(f) => f.fire(FaultKind::AllocFail, tid).is_some(),
                None => false,
            };
            if failed {
                c.obs_fault(tid, FaultKind::AllocFail);
                None
            } else {
                let (base, len) = c.alloc_block(tid, site, tag, len);
                c.trace_push(tid, TraceOp::Alloc { base, len });
                c.obs_emit(|step| {
                    obs::Event::instant(step, tid as u32, "alloc")
                        .with_arg("base", base.0)
                        .with_arg("words", len)
                });
                Some(base)
            }
        };
        let Some(base) = base else {
            self.fail(SimError::AllocFailed { tid, site });
        };
        self.reschedule(TState::Ready).await;
        base
    }

    /// Frees the block at `addr`. Aborts the run with
    /// [`SimError::BadFree`] if `addr` is not the base of a live block.
    /// A scheduling point.
    pub async fn free(&mut self, addr: Addr) {
        let tid = self.tid;
        let block = {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += COST_FREE;
            c.alloc.free(addr)
        };
        let Some(block) = block else {
            self.fail(SimError::BadFree { tid, addr });
        };
        {
            let mut guard = self.central();
            let central = &mut *guard;
            central.hot.on_free(tid, &block, &central.mem);
            central.trace_push(tid, TraceOp::Free { base: addr });
            central.obs_emit(|step| {
                obs::Event::instant(step, tid as u32, "free").with_arg("base", addr.0)
            });
        }
        self.reschedule(TState::Ready).await;
    }

    // ---- library calls, output, accounting -------------------------------

    /// Simulated nondeterministic `rand()` (controlled by the run's
    /// library seed / replay log).
    pub fn rand_u64(&mut self) -> u64 {
        let tid = self.tid;
        self.quiet_call();
        let mut guard = self.central();
        let c = &mut *guard;
        c.threads[tid].instr += COST_LIB;
        let v = c.lib.rand_u64(tid);
        lib_perturb(c, tid, v)
    }

    /// Simulated `gettimeofday()` (controlled like [`rand_u64`]).
    ///
    /// [`rand_u64`]: ThreadCtx::rand_u64
    pub fn gettimeofday(&mut self) -> u64 {
        let tid = self.tid;
        self.quiet_call();
        let mut guard = self.central();
        let c = &mut *guard;
        c.threads[tid].instr += COST_LIB;
        let v = c.lib.gettimeofday(tid);
        lib_perturb(c, tid, v)
    }

    /// Appends bytes to the program's output stream (the simulated
    /// `write()`); a scheduling point.
    pub async fn write_output(&mut self, bytes: &[u8]) {
        let tid = self.tid;
        {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += COST_SYNC + bytes.len() as u64 / 8;
            c.output.extend_from_slice(bytes);
            c.monitor.as_monitor().on_output(tid, bytes);
            c.trace_push(tid, TraceOp::Output { len: bytes.len() });
        }
        self.reschedule(TState::Ready).await;
    }

    /// Accounts `n` instructions of thread-local computation (work that
    /// does not touch shared memory).
    #[inline]
    pub fn work(&mut self, n: u64) {
        let tid = self.tid;
        self.quiet_call();
        self.central().threads[tid].instr += n;
    }

    /// Fires a manual determinism checkpoint (the paper's
    /// programmer-specified checking points). A scheduling point.
    pub async fn checkpoint(&mut self, label: &'static str) {
        let tid = self.tid;
        {
            let mut guard = self.central();
            let c = &mut *guard;
            c.threads[tid].instr += COST_SYNC;
            c.fire_checkpoint(tid, CheckpointKind::Manual(label));
        }
        self.reschedule(TState::Ready).await;
    }
}

/// Applies an injected [`FaultKind::LibPerturb`] fault to a library
/// call's result (environment nondeterminism beyond the seeded
/// stream, e.g. an NTP step under `gettimeofday`).
fn lib_perturb(c: &mut Central, tid: ThreadId, v: u64) -> u64 {
    let perturbed = match &mut c.faults {
        Some(f) => f.fire(FaultKind::LibPerturb, tid),
        None => None,
    };
    match perturbed {
        Some(e) => {
            c.obs_fault(tid, FaultKind::LibPerturb);
            v ^ e
        }
        None => v,
    }
}

/// Single-threaded setup context: establishes the program's fixed input
/// state before the threads start. No scheduling is involved; effects are
/// still observed, attributed to thread 0, so that the identical input
/// contributes identically to every run.
///
/// Stores take the engine's datapath exactly like thread stores and
/// land in thread 0's engine sum; the monitor's `on_store` sees them
/// only when its [`HashSpec`] asks for accesses. Loads reach no
/// callback. Allocations always reach `on_alloc`.
///
/// The context reaches memory, the allocator, thread 0's instruction
/// count, the zero-fill charge and the store datapath, and nothing
/// else: no fault plan, event sink, trace, scheduler or library call.
/// That is what lets a [`SetupImage`] of those parts stand in for the
/// setup phase.
pub struct SetupCtx<'a> {
    c: &'a mut Central,
}

impl std::fmt::Debug for SetupCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetupCtx").finish_non_exhaustive()
    }
}

impl SetupCtx<'_> {
    #[inline]
    fn store_word(&mut self, addr: Addr, value: u64, kind: ValKind) {
        let c = &mut *self.c;
        c.threads[0].instr += COST_ACCESS;
        let old = c
            .mem
            .write(addr, value)
            .expect("setup store to unmapped address");
        c.observe_store(0, addr, old, value, kind);
    }

    /// Stores an integer word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unmapped (setup bugs are programming errors).
    #[inline]
    pub fn store(&mut self, addr: Addr, value: u64) {
        self.store_word(addr, value, ValKind::U64);
    }

    /// Stores an `f64` word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unmapped.
    #[inline]
    pub fn store_f64(&mut self, addr: Addr, value: f64) {
        self.store_word(addr, value.to_bits(), ValKind::F64);
    }

    /// Loads a word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unmapped.
    pub fn load(&mut self, addr: Addr) -> u64 {
        self.c
            .mem
            .read(addr)
            .expect("setup load from unmapped address")
    }

    /// Allocates `len` zero-filled words (setup allocations model the
    /// input data of the program).
    pub fn malloc(&mut self, site: &'static str, tag: TypeTag, len: usize) -> Addr {
        self.c.threads[0].instr += COST_MALLOC;
        self.c.alloc_block(0, site, tag, len).0
    }

    /// A deterministic pseudo-random stream for building input data
    /// (fixed across runs; not a simulated nondeterministic library call).
    #[inline]
    pub fn input_rand(&mut self, key: u64) -> u64 {
        let mut x = key ^ 0x5bf0_3635_16f5_0e5b;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

/// The result of one simulated run.
///
/// Carries the monitor back to the caller together with the run's
/// accounting, logs, optional trace, and a view of the final state.
pub struct RunOutcome<M> {
    /// The monitor that observed the run.
    pub monitor: M,
    /// Native instructions executed, per thread (the Figure 6 baseline).
    pub instr: Vec<u64>,
    /// Instructions spent zero-filling allocations, charged only when
    /// [`RunConfig::charge_zero_fill`](crate::RunConfig) is set — the
    /// paper's HW-InstantCheck overhead.
    pub zero_fill_instr: u64,
    /// The program's output stream.
    pub output: Vec<u8>,
    /// The scheduler decisions taken (thread id per scheduling point);
    /// feed into a [`ScriptedScheduler`](crate::ScriptedScheduler) to
    /// replay the interleaving.
    pub decisions: Vec<u32>,
    /// The runnable set at every decision (recorded only when
    /// [`RunConfig::record_options`](crate::RunConfig) is set; empty
    /// otherwise).
    pub decision_options: Vec<Vec<u32>>,
    /// Total scheduling steps.
    pub steps: u64,
    /// Number of checkpoints fired (including the final `End`).
    pub checkpoints: u64,
    /// For each checkpoint (in firing order), how many scheduler
    /// decisions had been taken when it fired — lets systematic
    /// exploration align decision prefixes with checkpoint boundaries.
    pub checkpoint_decision_index: Vec<usize>,
    /// Allocator address log (for cross-run replay).
    pub alloc_log: Arc<AllocLog>,
    /// Library-call log (for cross-run replay).
    pub lib_log: Arc<LibLog>,
    /// Replayed allocations that fell back to fresh memory.
    pub replay_misses: u64,
    /// Every fault the run's [`FaultPlan`](crate::FaultPlan) injected,
    /// in firing order. Empty when no plan was configured. Part of the
    /// reproducibility contract: equal (fault seed, run config) pairs
    /// produce equal logs.
    pub faults: Vec<FaultRecord>,
    /// The recorded trace, if requested.
    pub trace: Option<Trace>,
    /// The store datapath at the end of the run.
    hot: HotState,
    mem: Memory,
    globals: Vec<GlobalDecl>,
    blocks: BTreeMap<u64, BlockInfo>,
    alloc_epoch: u64,
}

impl<M> std::fmt::Debug for RunOutcome<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOutcome")
            .field("steps", &self.steps)
            .field("checkpoints", &self.checkpoints)
            .field("instructions", &self.total_instructions())
            .finish_non_exhaustive()
    }
}

impl<M> RunOutcome<M> {
    /// Reads one word of the final memory, or `None` if unmapped.
    pub fn final_word(&self, addr: Addr) -> Option<u64> {
        self.mem.read(addr)
    }

    /// Reads one `f64` of the final memory.
    pub fn final_f64(&self, addr: Addr) -> Option<f64> {
        self.mem.read(addr).map(f64::from_bits)
    }

    /// A view of the final live state (globals + live heap blocks).
    pub fn final_state(&self) -> StateView<'_> {
        StateView::new(
            &self.mem,
            &self.globals,
            &self.blocks,
            self.alloc_epoch,
            self.hot.hashes(),
        )
    }

    /// Total native instructions across all threads (excluding monitor
    /// overhead and zero-fill).
    pub fn total_instructions(&self) -> u64 {
        self.instr.iter().sum()
    }
}

fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A simulated thread's epilogue: records a workload panic as the run's
/// error, marks the thread finished and, unless the run has failed,
/// picks the next thread.
fn finish_thread(c: &mut Central, tid: ThreadId, panicked: Option<Box<dyn Any + Send>>) {
    if let Some(payload) = panicked {
        if !payload.is::<SimAbort>() && c.error.is_none() {
            c.error = Some(SimError::ThreadPanic {
                tid,
                message: payload_message(payload.as_ref()),
            });
        }
    }
    c.threads[tid].state = TState::Finished;
    c.finished += 1;
    c.active = None;
    if c.error.is_none() {
        schedule_next_core(c, None);
    }
}

/// The executor loop: polls the active thread's future until it hands
/// off or finishes, then polls the scheduler's pick, until no thread is
/// runnable or the run has an error.
fn drive(central: &Rc<RefCell<Central>>, bodies: Vec<ThreadBody>) {
    let nthreads = bodies.len();
    let mut ctxs: Vec<ThreadCtx> = (0..nthreads)
        .map(|tid| ThreadCtx {
            tid,
            nthreads,
            central: Rc::clone(central),
            quiet_calls: 0,
            quiet_step: u64::MAX,
        })
        .collect();
    let mut threads: Vec<_> = bodies
        .into_iter()
        .zip(&mut ctxs)
        .map(|(body, ctx)| body(ctx))
        .collect();
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        let tid = {
            let c = central.borrow();
            match (c.active, &c.error) {
                (Some(tid), None) => tid,
                _ => return,
            }
        };
        let panicked =
            match panic::catch_unwind(AssertUnwindSafe(|| threads[tid].as_mut().poll(&mut cx))) {
                Ok(Poll::Pending) => continue,
                Ok(Poll::Ready(())) => None,
                Err(payload) => Some(payload),
            };
        let epilogue = panic::catch_unwind(AssertUnwindSafe(|| {
            finish_thread(&mut central.borrow_mut(), tid, panicked)
        }));
        if let Err(payload) = epilogue {
            // The epilogue panicked (in an event sink, say): fail the run.
            let mut c = central.borrow_mut();
            if c.error.is_none() {
                c.error = Some(SimError::ThreadPanic {
                    tid,
                    message: payload_message(payload.as_ref()),
                });
            }
        }
    }
}

impl Central {
    /// The machine state at the start of a run of `prog` under `config`,
    /// before its setup phase, or right after it when `image` is given.
    fn new(
        prog: &Program,
        globals: Vec<GlobalDecl>,
        config: &RunConfig,
        monitor: Box<dyn AnyMonitor + Send>,
        spec: HashSpec,
        image: Option<&SetupImage>,
    ) -> Central {
        let nthreads = prog.nthreads;
        let mut scheduler = config.scheduler.build();
        scheduler.init(nthreads);
        let replay = config.alloc_replay.clone();
        let (mem, alloc) = match image {
            Some(img) => (img.mem.clone(), img.alloc.resume(replay)),
            None => (
                Memory::new(prog.global_words),
                Allocator::new(nthreads, replay),
            ),
        };
        let mut central = Central {
            mem,
            globals,
            alloc,
            locks: (0..prog.locks).map(|_| LockState::default()).collect(),
            rwlocks: (0..prog.rwlocks).map(|_| RwState::default()).collect(),
            sems: prog.sems.iter().map(|&count| SemState { count }).collect(),
            barriers: prog
                .barriers
                .iter()
                .map(|&parties| BarrierState {
                    parties,
                    arrived: Vec::new(),
                })
                .collect(),
            threads: vec![
                ThreadSlot {
                    state: TState::Ready,
                    instr: 0,
                    access_count: 0,
                };
                nthreads
            ],
            active: None,
            scheduler,
            switch: config.switch,
            monitor,
            hot: HotState::new(spec),
            zero_fill_instr: 0,
            charge_zero_fill: config.charge_zero_fill,
            lib: LibCalls::new(nthreads, config.lib_seed, config.lib_replay.clone()),
            output: Vec::new(),
            trace: config.record_trace.then(Trace::default),
            decisions: Vec::new(),
            decision_options: config.record_options.then(Vec::new),
            step: 0,
            max_steps: config.max_steps,
            faults: config
                .faults
                .clone()
                .filter(FaultPlan::is_active)
                .map(FaultState::new),
            cp_seq: 0,
            cp_decision_index: Vec::new(),
            error: None,
            finished: 0,
            nthreads,
            // Drop disabled sinks up front so every emission site reduces
            // to a `None` check.
            sink: config.sink.clone().filter(|s| s.enabled()),
            sched_scratch: vec![0; nthreads],
        };
        if let Some(img) = image {
            central.threads[0].instr = img.setup_instr;
            central.zero_fill_instr = img.zero_fill_instr;
            central.hot.sums.clone_from(&img.sums);
            central.hot.stores = img.stores;
            // The setup phase's callbacks: a monitor that starts from an
            // image asks for no accesses, so it saw only the allocations.
            let table = central.alloc.table();
            for (base, _) in &img.blocks {
                central.monitor.as_monitor().on_alloc(0, &table[base]);
            }
        }
        central
    }
}

/// Executes `prog`'s setup phase alone, as a run under `config` whose
/// monitor's spec is `spec` would, and captures the state after it (see
/// [`Program::setup_image`]).
pub(crate) fn setup_image(
    prog: &mut Program,
    config: &RunConfig,
    spec: HashSpec,
) -> Option<SetupImage> {
    assert!(
        !spec.accesses,
        "an image cannot replay the setup phase's access callbacks"
    );
    let Setup::Pending(body) = std::mem::replace(&mut prog.setup, Setup::Taken) else {
        panic!("the program's setup phase was already taken by setup_image");
    };
    let globals = prog.globals.clone();
    let mut central = Central::new(prog, globals, config, Box::new(NullMonitor), spec, None);
    if let Some(body) = body {
        body(&mut SetupCtx { c: &mut central });
    }
    let mut hot = central.hot;
    hot.flush_batch();
    let image = SetupImage {
        spec,
        charge_zero_fill: config.charge_zero_fill,
        nthreads: prog.nthreads,
        globals: central.globals,
        blocks: central.alloc.blocks_of(0),
        alloc: central.alloc.resume(None),
        mem: central.mem,
        setup_instr: central.threads[0].instr,
        zero_fill_instr: central.zero_fill_instr,
        sums: hot.sums,
        stores: hot.stores,
    };
    if image.alloc.replay_misses() == 0 {
        Some(image)
    } else {
        prog.setup = Setup::Kept(Box::new(image), config.alloc_replay.clone());
        None
    }
}

/// Runs `prog` under `config` with `monitor` observing, starting from
/// `image` when it fits the run and executing the setup phase otherwise.
pub(crate) fn run<M: Monitor + 'static>(
    mut prog: Program,
    config: &RunConfig,
    monitor: M,
    image: Option<&SetupImage>,
) -> Result<RunOutcome<M>, SimError> {
    install_quiet_abort_hook();

    // Consult the monitor's spec once, before it is boxed.
    let spec = monitor.hash_spec();
    let setup = std::mem::replace(&mut prog.setup, Setup::Taken);
    let image = match (image.filter(|img| img.fits(&prog, config, spec)), &setup) {
        (Some(img), _) => Some(img),
        (None, Setup::Pending(_)) => None,
        (None, Setup::Kept(img, replay)) => {
            assert!(
                img.built_under(config, spec, replay.as_ref()),
                "setup_image kept this program's setup phase under a different run config"
            );
            Some(&**img)
        }
        (None, Setup::Taken) => panic!(
            "setup_image took this program's setup phase; run it from that image under the same config"
        ),
    };
    let globals = std::mem::take(&mut prog.globals);
    let mut central = Central::new(&prog, globals, config, Box::new(monitor), spec, image);
    if image.is_none() {
        if let Setup::Pending(Some(body)) = setup {
            body(&mut SetupCtx { c: &mut central });
        }
    }

    schedule_next_core(&mut central, None);
    let central = Rc::new(RefCell::new(central));
    drive(&central, prog.threads);
    let mut central = Rc::into_inner(central)
        .expect("every thread handle dropped after the run")
        .into_inner();

    if let Some(err) = central.error.take() {
        return Err(err);
    }

    // End-of-run determinism checkpoint (the paper always checks at the
    // end of the program).
    central.fire_checkpoint(0, CheckpointKind::End);

    let (alloc_log, blocks, replay_misses, alloc_epoch) = central.alloc.into_parts();
    let monitor = central
        .monitor
        .into_any()
        .downcast::<M>()
        .unwrap_or_else(|_| unreachable!("monitor type preserved"));

    Ok(RunOutcome {
        monitor: *monitor,
        instr: central.threads.iter().map(|s| s.instr).collect(),
        zero_fill_instr: central.zero_fill_instr,
        output: central.output,
        decisions: central.decisions,
        decision_options: central.decision_options.unwrap_or_default(),
        steps: central.step,
        checkpoints: central.cp_seq,
        checkpoint_decision_index: central.cp_decision_index,
        alloc_log: Arc::new(alloc_log),
        lib_log: Arc::new(central.lib.into_log()),
        replay_misses,
        faults: central.faults.map_or_else(Vec::new, FaultState::into_log),
        trace: central.trace,
        hot: central.hot,
        mem: central.mem,
        globals: central.globals,
        blocks,
        alloc_epoch,
    })
}
