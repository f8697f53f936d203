//! Program construction and run configuration.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::time::Duration;

use crate::alloc::AllocLog;
use crate::engine::{self, RunOutcome, SetupCtx, ThreadCtx};
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::image::SetupImage;
use crate::libcalls::LibLog;
use crate::mem::GLOBALS_BASE;
use crate::monitor::{HashSpec, Monitor, NullMonitor};
use crate::sched::{SchedulerKind, SwitchPolicy};
use crate::types::{Addr, BarrierId, CondId, LockId, Region, RwLockId, SemId, ValKind};

/// A declared global (static-data) region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalDecl {
    /// The region's name (used by ignore-specs and reports).
    pub name: &'static str,
    /// Where the region lives.
    pub region: Region,
}

/// A thread body: called once with the thread's context, it returns the
/// future the executor polls. The future itself need not be `Send`.
pub(crate) type ThreadBody =
    Box<dyn for<'a> FnOnce(&'a mut ThreadCtx) -> Pin<Box<dyn Future<Output = ()> + 'a>> + Send>;
pub(crate) type SetupBody = Box<dyn FnOnce(&mut SetupCtx<'_>) + Send + 'static>;

/// Where a program's setup phase stands.
pub(crate) enum Setup {
    /// Not executed yet; `None` if the program declared no setup phase.
    Pending(Option<SetupBody>),
    /// Executed by [`Program::setup_image`], which handed the image to
    /// the caller: the program can only start from a fitting image.
    Taken,
    /// Executed by [`Program::setup_image`] with a replay miss: the
    /// program starts from this state, under the config it was built
    /// with (the replay log is kept to check that).
    Kept(Box<SetupImage>, Option<Arc<AllocLog>>),
}

/// Builder for a simulated parallel [`Program`].
///
/// Workloads declare their globals, synchronization objects, an optional
/// single-threaded setup phase (the fixed *input state*), and one async
/// body closure per thread.
///
/// # Example
///
/// ```
/// use tsim::{ProgramBuilder, RunConfig, ValKind};
///
/// let mut b = ProgramBuilder::new(2);
/// let g = b.global("G", ValKind::U64, 1);
/// let lock = b.mutex();
/// b.setup(move |s| s.store(g.at(0), 2)); // initial G == 2
/// for tid in 0..2 {
///     let l = [7u64, 3u64][tid];
///     b.thread(async move |ctx| {
///         ctx.lock(lock).await;
///         let v = ctx.load(g.at(0)).await;
///         ctx.store(g.at(0), v + l).await;
///         ctx.unlock(lock).await;
///     });
/// }
/// let out = b.build().run(&RunConfig::random(1)).unwrap();
/// assert_eq!(out.final_word(g.at(0)), Some(12)); // Figure 1: G == 12
/// ```
pub struct ProgramBuilder {
    nthreads: usize,
    globals: Vec<GlobalDecl>,
    next_global: u64,
    locks: usize,
    conds: usize,
    rwlocks: usize,
    sems: Vec<u64>,
    barriers: Vec<usize>,
    setup: Option<SetupBody>,
    threads: Vec<ThreadBody>,
}

impl std::fmt::Debug for ProgramBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramBuilder")
            .field("nthreads", &self.nthreads)
            .field("globals", &self.globals.len())
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl ProgramBuilder {
    /// Starts building a program with `nthreads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` is zero.
    pub fn new(nthreads: usize) -> Self {
        assert!(nthreads > 0, "a program needs at least one thread");
        ProgramBuilder {
            nthreads,
            globals: Vec::new(),
            next_global: 0,
            locks: 0,
            conds: 0,
            rwlocks: 0,
            sems: Vec::new(),
            barriers: Vec::new(),
            setup: None,
            threads: Vec::new(),
        }
    }

    /// Number of threads the program will run.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Declares a named global array of `len` words of `kind`, returning
    /// its region. Layout is deterministic: regions are assigned
    /// consecutive addresses in declaration order.
    pub fn global(&mut self, name: &'static str, kind: ValKind, len: usize) -> Region {
        let region = Region {
            base: Addr(GLOBALS_BASE + self.next_global),
            len,
            kind,
        };
        self.next_global += len as u64;
        self.globals.push(GlobalDecl { name, region });
        region
    }

    /// Creates a mutex.
    pub fn mutex(&mut self) -> LockId {
        self.locks += 1;
        LockId(self.locks - 1)
    }

    /// Creates a condition variable.
    pub fn condvar(&mut self) -> CondId {
        self.conds += 1;
        CondId(self.conds - 1)
    }

    /// Creates a reader-writer lock.
    pub fn rwlock(&mut self) -> RwLockId {
        self.rwlocks += 1;
        RwLockId(self.rwlocks - 1)
    }

    /// Creates a counting semaphore with an initial count.
    pub fn semaphore(&mut self, initial: u64) -> SemId {
        self.sems.push(initial);
        SemId(self.sems.len() - 1)
    }

    /// Creates a barrier over all threads of the program.
    pub fn barrier(&mut self) -> BarrierId {
        self.barrier_with(self.nthreads)
    }

    /// Creates a barrier over `parties` threads.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero or exceeds the thread count.
    pub fn barrier_with(&mut self, parties: usize) -> BarrierId {
        assert!(
            parties >= 1 && parties <= self.nthreads,
            "barrier parties {parties} out of range 1..={}",
            self.nthreads
        );
        self.barriers.push(parties);
        BarrierId(self.barriers.len() - 1)
    }

    /// Sets the single-threaded setup phase that establishes the fixed
    /// input state before the threads start.
    pub fn setup(&mut self, f: impl FnOnce(&mut SetupCtx<'_>) + Send + 'static) -> &mut Self {
        self.setup = Some(Box::new(f));
        self
    }

    /// Adds the body of the next thread (thread ids are assigned in call
    /// order, starting at 0). The body is an async closure that awaits
    /// the [`ThreadCtx`] operations that can be scheduling points.
    ///
    /// # Panics
    ///
    /// Panics if more bodies are added than the declared thread count.
    pub fn thread(&mut self, f: impl AsyncFnOnce(&mut ThreadCtx) + Send + 'static) -> &mut Self {
        assert!(
            self.threads.len() < self.nthreads,
            "more thread bodies than the declared {} threads",
            self.nthreads
        );
        self.threads.push(Box::new(move |ctx| Box::pin(f(ctx))));
        self
    }

    /// Finishes the program.
    ///
    /// # Panics
    ///
    /// Panics if fewer thread bodies were added than declared.
    pub fn build(self) -> Program {
        assert_eq!(
            self.threads.len(),
            self.nthreads,
            "expected {} thread bodies, got {}",
            self.nthreads,
            self.threads.len()
        );
        Program {
            nthreads: self.nthreads,
            globals: self.globals,
            global_words: self.next_global as usize,
            locks: self.locks,
            conds: self.conds,
            rwlocks: self.rwlocks,
            sems: self.sems,
            barriers: self.barriers,
            setup: Setup::Pending(self.setup),
            threads: self.threads,
        }
    }
}

/// A runnable simulated parallel program. Built by [`ProgramBuilder`];
/// consumed by one run.
pub struct Program {
    pub(crate) nthreads: usize,
    pub(crate) globals: Vec<GlobalDecl>,
    pub(crate) global_words: usize,
    pub(crate) locks: usize,
    pub(crate) conds: usize,
    pub(crate) rwlocks: usize,
    pub(crate) sems: Vec<u64>,
    pub(crate) barriers: Vec<usize>,
    pub(crate) setup: Setup,
    pub(crate) threads: Vec<ThreadBody>,
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("nthreads", &self.nthreads)
            .field("global_words", &self.global_words)
            .field("locks", &self.locks)
            .field("condvars", &self.conds)
            .field("barriers", &self.barriers.len())
            .finish()
    }
}

impl Program {
    /// Runs the program unmonitored (the *Native* configuration).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the run deadlocks, exceeds the step
    /// limit, misuses the machine, or a thread panics.
    pub fn run(self, config: &RunConfig) -> Result<RunOutcome<NullMonitor>, SimError> {
        self.run_with(config, NullMonitor)
    }

    /// Runs the program with `monitor` observing every event; the monitor
    /// is returned inside the [`RunOutcome`].
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the run deadlocks, exceeds the step
    /// limit, misuses the machine, or a thread panics.
    ///
    /// # Panics
    ///
    /// Panics if [`setup_image`](Program::setup_image) took this
    /// program's setup phase (run it with
    /// [`run_from`](Program::run_from) instead), or kept it under a
    /// different config.
    pub fn run_with<M: Monitor + 'static>(
        self,
        config: &RunConfig,
        monitor: M,
    ) -> Result<RunOutcome<M>, SimError> {
        engine::run(self, config, monitor, None)
    }

    /// Executes the setup phase once, as a run under `config` whose
    /// monitor's [`Monitor::hash_spec`] is `spec` would, and returns the
    /// resulting [`SetupImage`].
    ///
    /// The setup phase is taken out of this program, so the program
    /// that is about to run builds the image and no extra copy of it is
    /// needed: run it next with [`run_from`](Program::run_from) this
    /// image under the same `config` (which always fits). Returns
    /// `None` if a setup allocation missed its replayed address; the
    /// program then keeps the state itself, and must run under the same
    /// `config` and `spec`, through [`run_with`](Program::run_with) or
    /// `run_from` with any image.
    ///
    /// # Panics
    ///
    /// Panics if `spec` asks for accesses (an image cannot replay the
    /// setup phase's `on_store`s), if the setup phase was already taken
    /// by an earlier call, or if the setup phase itself panics.
    pub fn setup_image(&mut self, config: &RunConfig, spec: HashSpec) -> Option<SetupImage> {
        engine::setup_image(self, config, spec)
    }

    /// Runs the program like [`run_with`](Program::run_with), starting
    /// from `image` instead of executing the setup phase when the image
    /// fits this run (see [`SetupImage`] for the fit rule). The monitor
    /// then receives each setup block's `on_alloc`, in allocation order,
    /// before any thread runs. A run the image does not fit executes
    /// its own setup phase. Either way the outcome equals `run_with`'s.
    ///
    /// # Errors
    ///
    /// As for [`run_with`](Program::run_with).
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit and
    /// [`setup_image`](Program::setup_image) took this program's setup
    /// phase, or kept it under a different config.
    pub fn run_from<M: Monitor + 'static>(
        self,
        image: &SetupImage,
        config: &RunConfig,
        monitor: M,
    ) -> Result<RunOutcome<M>, SimError> {
        engine::run(self, config, monitor, Some(image))
    }
}

/// Configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which scheduler drives the interleaving.
    pub scheduler: SchedulerKind,
    /// Where scheduling points are inserted besides synchronization ops.
    pub switch: SwitchPolicy,
    /// Abort the run after this many scheduling steps (livelock guard).
    pub max_steps: u64,
    /// Charge the zero-fill of allocations to the run's instruction
    /// counts (the paper's HW-InstantCheck overhead source). The fill
    /// itself always happens; only the *accounting* is conditional.
    pub charge_zero_fill: bool,
    /// Replay allocator addresses from a previous run's log.
    pub alloc_replay: Option<Arc<AllocLog>>,
    /// Seed for nondeterministic library calls (`rand`, `gettimeofday`).
    pub lib_seed: u64,
    /// Replay library-call results from a previous run's log.
    pub lib_replay: Option<Arc<LibLog>>,
    /// Record a full [`Trace`](crate::Trace) of the run.
    pub record_trace: bool,
    /// Record the runnable set offered to the scheduler at every
    /// decision (needed by systematic exploration; costly on long runs).
    pub record_options: bool,
    /// Deterministic fault-injection plan (see [`FaultPlan`]); `None`
    /// runs fault-free.
    pub faults: Option<FaultPlan>,
    /// Wall-clock watchdog: abort the run with
    /// [`SimError::Deadline`] if it is still going after this long.
    /// Unlike [`max_steps`](RunConfig::max_steps) this also catches
    /// runs that stop taking scheduling steps entirely.
    pub deadline: Option<Duration>,
    /// Observability sink for structured events (scheduler decisions,
    /// checkpoints, faults, allocations), keyed by simulated step.
    /// `None` (the default) emits nothing; a disabled sink (e.g.
    /// [`obs::NoopSink`]) is dropped at run start so the hot path only
    /// pays an `Option` check.
    pub sink: Option<Arc<dyn obs::EventSink>>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::random(0)
    }
}

impl RunConfig {
    /// A run driven by the seeded random scheduler — the paper's testing
    /// setup.
    pub fn random(seed: u64) -> Self {
        RunConfig {
            scheduler: SchedulerKind::Random { seed },
            switch: SwitchPolicy::SyncOnly,
            max_steps: 20_000_000,
            charge_zero_fill: false,
            alloc_replay: None,
            lib_seed: 0,
            lib_replay: None,
            record_trace: false,
            record_options: false,
            faults: None,
            deadline: None,
            sink: None,
        }
    }

    /// Sets the preemption policy.
    #[must_use]
    pub fn with_switch(mut self, switch: SwitchPolicy) -> Self {
        self.switch = switch;
        self
    }

    /// Sets the scheduler.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Enables trace recording.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Enables recording of the runnable set at every scheduling
    /// decision (for systematic exploration).
    #[must_use]
    pub fn with_options_recorded(mut self) -> Self {
        self.record_options = true;
        self
    }

    /// Replays allocator addresses from `log`.
    #[must_use]
    pub fn with_alloc_replay(mut self, log: Arc<AllocLog>) -> Self {
        self.alloc_replay = Some(log);
        self
    }

    /// Replays library-call results from `log`.
    #[must_use]
    pub fn with_lib_replay(mut self, log: Arc<LibLog>) -> Self {
        self.lib_replay = Some(log);
        self
    }

    /// Sets the library-call seed (run-to-run input variation).
    #[must_use]
    pub fn with_lib_seed(mut self, seed: u64) -> Self {
        self.lib_seed = seed;
        self
    }

    /// Charges allocation zero-fill to the instruction counts.
    #[must_use]
    pub fn with_zero_fill_charged(mut self) -> Self {
        self.charge_zero_fill = true;
        self
    }

    /// Sets the step limit.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Injects faults according to `plan`.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the wall-clock watchdog deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Streams structured run events into `sink`.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn obs::EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_disjoint_globals() {
        let mut b = ProgramBuilder::new(1);
        let x = b.global("x", ValKind::U64, 4);
        let y = b.global("y", ValKind::F64, 2);
        assert_eq!(x.base, Addr(GLOBALS_BASE));
        assert_eq!(y.base, Addr(GLOBALS_BASE + 4));
        assert_eq!(y.kind, ValKind::F64);
        b.thread(async |_| {});
        let p = b.build();
        assert_eq!(p.global_words, 6);
        assert_eq!(p.globals.len(), 2);
    }

    #[test]
    fn builder_ids_are_dense() {
        let mut b = ProgramBuilder::new(3);
        assert_eq!(b.mutex(), LockId(0));
        assert_eq!(b.mutex(), LockId(1));
        assert_eq!(b.condvar(), CondId(0));
        assert_eq!(b.barrier(), BarrierId(0));
        assert_eq!(b.barrier_with(2), BarrierId(1));
        assert_eq!(b.nthreads(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = ProgramBuilder::new(0);
    }

    #[test]
    #[should_panic(expected = "expected 2 thread bodies")]
    fn missing_bodies_rejected() {
        let mut b = ProgramBuilder::new(2);
        b.thread(async |_| {});
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "more thread bodies")]
    fn extra_bodies_rejected() {
        let mut b = ProgramBuilder::new(1);
        b.thread(async |_| {});
        b.thread(async |_| {});
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_barrier_rejected() {
        let mut b = ProgramBuilder::new(2);
        let _ = b.barrier_with(3);
    }

    #[test]
    fn config_builders_chain() {
        let cfg = RunConfig::random(9)
            .with_switch(SwitchPolicy::EveryAccess)
            .with_trace()
            .with_lib_seed(5)
            .with_zero_fill_charged()
            .with_max_steps(100)
            .with_faults(FaultPlan::new(3))
            .with_deadline(Duration::from_millis(50));
        assert_eq!(cfg.switch, SwitchPolicy::EveryAccess);
        assert!(cfg.record_trace);
        assert_eq!(cfg.lib_seed, 5);
        assert!(cfg.charge_zero_fill);
        assert_eq!(cfg.max_steps, 100);
        assert_eq!(cfg.faults, Some(FaultPlan::new(3)));
        assert_eq!(cfg.deadline, Some(Duration::from_millis(50)));
        let d = RunConfig::default();
        assert_eq!(d.lib_seed, 0);
        assert_eq!(d.faults, None);
        assert_eq!(d.deadline, None);
    }
}
