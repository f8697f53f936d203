//! The multi-run determinism-checking harness.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

use adhash::FpRound;
use mhm::CacheStats;
use obs::{
    BufferSink, Counter, Event, EventSink, Histogram, MemorySink, Registry, Telemetry,
    CONTROL_TRACK,
};
use tsim::{AllocLog, FaultPlan, Monitor, Program, RunConfig, SetupImage, SimError, SwitchPolicy};

use crate::cache::{CacheLease, CachedRun, RunCache, RunKey};
use crate::ignore::IgnoreSpec;
use crate::policy::{retry_seed, FailurePolicy, RunFailure, RunOutcome};
use crate::report::CheckReport;
use crate::scheme::{CheckMonitor, CheckpointRecord, Scheme};
use crate::spec::{CampaignSpec, RunKeyTemplate};

/// A configuration the checker refuses to run.
///
/// Raised by [`Checker::new`] so misconfiguration surfaces at
/// construction, as a typed error, instead of as a panic deep inside
/// `check()`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `runs == 0`: a campaign must compare at least one run.
    ZeroRuns,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroRuns => {
                write!(f, "campaign must have at least one run (runs == 0)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The hash sequence one run produced: one state hash per checkpoint,
/// plus the output-stream digest.
#[derive(Debug, Clone)]
pub struct RunHashes {
    /// Per-checkpoint records, in firing order.
    pub checkpoints: Vec<CheckpointRecord>,
    /// Digest of the program's output stream.
    pub output_digest: u64,
    /// Extra instructions the scheme would execute (cost model).
    pub extra_instr: u64,
    /// Stores observed during the run.
    pub stores: u64,
    /// Location-hash operations the scheme performed.
    pub hash_updates: u64,
    /// L1/MHM cache counters, when the cache model was enabled.
    pub cache: Option<CacheStats>,
}

impl RunHashes {
    /// `true` if this run's observable behavior (output digest plus the
    /// checkpoint sequence) differs from `other`'s.
    pub(crate) fn differs_from(&self, other: &RunHashes) -> bool {
        self.output_digest != other.output_digest
            || self.checkpoints.len() != other.checkpoints.len()
            || self
                .checkpoints
                .iter()
                .zip(&other.checkpoints)
                .any(|(x, y)| x.kind != y.kind || x.hash != y.hash)
    }

    /// The sequence number of the first checkpoint at which this run
    /// diverges from `other` (differing kind or hash, or one sequence
    /// ending before the other). `None` when the checkpoint sequences
    /// agree — the runs may still differ in their output digests.
    pub fn first_divergent_checkpoint(&self, other: &RunHashes) -> Option<u64> {
        let n = self.checkpoints.len().min(other.checkpoints.len());
        for i in 0..n {
            let (x, y) = (&self.checkpoints[i], &other.checkpoints[i]);
            if x.kind != y.kind || x.hash != y.hash {
                return Some(i as u64);
            }
        }
        if self.checkpoints.len() != other.checkpoints.len() {
            Some(n as u64)
        } else {
            None
        }
    }
}

/// Configuration of a determinism-checking campaign: the
/// [`CampaignSpec`] that pins what the campaign computes, plus the
/// runtime attachments (trace sink, metrics registry, telemetry, run
/// cache) that only observe or memoize it.
///
/// The `with_*` campaign setters write straight into
/// [`spec`](CheckerConfig::spec); there is no second copy of a
/// campaign field.
#[derive(Debug, Clone)]
pub struct CheckerConfig {
    /// Everything the campaign does. Its
    /// [`workload`](CampaignSpec::workload) is the identity the run
    /// cache keys under (see [`with_run_cache`](Self::with_run_cache)).
    pub spec: CampaignSpec,
    /// Event-trace sink for the campaign. The checker wraps each run in
    /// a span on the control track and forwards the sink to the
    /// simulator for scheduler/checkpoint/fault events. `None` (the
    /// default) records nothing and costs nothing.
    pub sink: Option<Arc<dyn EventSink>>,
    /// Metrics registry the campaign accumulates counters into
    /// (`checker.*`, `mhm.l1.*`). `None` records nothing.
    pub registry: Option<Arc<Registry>>,
    /// Wall-clock telemetry side-channel: per-worker busy/idle span
    /// attribution for the parallel executor. Strictly observational —
    /// it never alters slot dispatch, events, outcomes, or anything
    /// else on the deterministic artifact path. `None` records nothing.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Optional run-result cache: completed runs are looked up in, and
    /// stored to, the cache keyed by everything that determines their
    /// hashes ([`CampaignSpec::run_key`]). A warm campaign replays
    /// cached outcomes through the same reduction path a cold one
    /// takes, so its report, trace, and metrics are byte-identical to
    /// the cold campaign's.
    pub cache: Option<Arc<dyn RunCache>>,
}

impl CheckerConfig {
    /// The canonical entry point: a config running exactly `spec`.
    /// Runtime attachments (sink, registry, telemetry, cache) are not
    /// part of a spec — attach them afterwards with the usual builders.
    pub fn from_spec(spec: &CampaignSpec) -> Self {
        CheckerConfig {
            spec: spec.clone(),
            sink: None,
            registry: None,
            telemetry: None,
            cache: None,
        }
    }

    /// A default campaign with no workload identity: 30 runs,
    /// sync-only switching, bit-exact hashing, nothing ignored, abort
    /// on the first failed run ([`CampaignSpec::new`]'s defaults).
    pub fn new(scheme: Scheme) -> Self {
        CheckerConfig::from_spec(&CampaignSpec::new("", scheme))
    }

    /// Sets the number of runs.
    #[must_use]
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.spec.runs = runs;
        self
    }

    /// Sets the first run's scheduler seed.
    #[must_use]
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.spec.base_seed = seed;
        self
    }

    /// Enables FP round-off before hashing.
    #[must_use]
    pub fn with_rounding(mut self, rounding: FpRound) -> Self {
        self.spec.rounding = Some(rounding);
        self
    }

    /// Sets the ignore spec.
    #[must_use]
    pub fn with_ignore(mut self, ignore: IgnoreSpec) -> Self {
        self.spec.ignore = ignore;
        self
    }

    /// Sets the preemption policy.
    #[must_use]
    pub fn with_switch(mut self, switch: SwitchPolicy) -> Self {
        self.spec.switch = switch;
        self
    }

    /// Sets the library-call input seed.
    #[must_use]
    pub fn with_lib_seed(mut self, seed: u64) -> Self {
        self.spec.lib_seed = seed;
        self
    }

    /// Sets the failure policy.
    #[must_use]
    pub fn with_policy(mut self, policy: FailurePolicy) -> Self {
        self.spec.policy = policy;
        self
    }

    /// Injects a fault plan into one run slot of the campaign.
    #[must_use]
    pub fn with_fault_in_run(mut self, run_index: usize, plan: FaultPlan) -> Self {
        self.spec.fault_plans.push((run_index, plan));
        self
    }

    /// Attaches an event-trace sink to the campaign.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a metrics registry to the campaign.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Attaches a wall-clock telemetry plane. Parallel campaign workers
    /// record per-slot busy spans (lane `chk.w<i>`, detail = slot
    /// index) and busy/idle histograms (`checker.slot.busy`,
    /// `checker.slot.idle`) into it; nothing recorded here reaches the
    /// deterministic report, trace, or metrics.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Enables the per-thread L1 cache model for all runs.
    #[must_use]
    pub fn with_cache_model(mut self) -> Self {
        self.spec.cache_model = true;
        self
    }

    /// Sets the campaign's worker-thread count. `0` is accepted and
    /// runs the serial executor, so scripted sweeps (`--jobs $N` with
    /// `N=0`) degrade instead of erroring.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.spec.jobs = Some(jobs);
        self
    }

    /// Attaches a run-result cache and sets the spec's
    /// [`workload`](CampaignSpec::workload) identity its keys carry.
    /// The contract: equal workload strings must mean the `source`
    /// closure builds equal programs (same structure *and*
    /// parameters); the checker trusts the caller on this.
    #[must_use]
    pub fn with_run_cache(mut self, cache: Arc<dyn RunCache>, workload: impl Into<String>) -> Self {
        self.cache = Some(cache);
        self.spec.workload = workload.into();
        self
    }
}

/// The worker count a campaign uses: the spec's `jobs`, defaulting to
/// the machine's available parallelism, and never less than one.
fn worker_count(jobs: Option<usize>) -> usize {
    jobs.unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

/// One attempt's outcome plus the simulator counters the metrics
/// registry folds in per completed run (zero for failed attempts).
struct SlotAttempt {
    outcome: RunOutcome,
    steps: u64,
    native_instr: u64,
}

/// Everything one run slot produced, in attempt order.
struct SlotRun {
    attempts: Vec<SlotAttempt>,
    /// Allocator log of the completed attempt, if one completed.
    alloc_log: Option<Arc<AllocLog>>,
    /// Whether the completed attempt's hashes differ from the
    /// reference run the slot was compared against.
    diverged: bool,
    /// `true` if the slot gave up between retry attempts because a
    /// lower slot had already decided the campaign (parallel path
    /// only). An abandoned slot is never part of the reduced result.
    abandoned: bool,
    /// `true` if the slot's completed attempt was answered by the run
    /// cache, so the slot simulated nothing.
    from_cache: bool,
}

impl SlotRun {
    /// Scheduler seed of the slot's completed attempt, if one completed
    /// — the provenance recorded in cache keys for runs that replay
    /// this slot's allocator log.
    fn completed_seed(&self) -> Option<u64> {
        self.attempts.iter().find_map(|a| match &a.outcome {
            RunOutcome::Completed { seed, .. } => Some(*seed),
            RunOutcome::Failed(_) => None,
        })
    }

    fn terminal_failure(&self) -> bool {
        matches!(
            self.attempts.last(),
            Some(SlotAttempt {
                outcome: RunOutcome::Failed(_),
                ..
            })
        )
    }
}

/// RAII resolution of an in-flight cache claim ([`RunCache::begin`]
/// returned `Compute { claimed: true }`): unless released after a
/// successful publish, dropping the guard abandons the claim. Because
/// the drop runs on *every* exit from the attempt — failure, retry
/// with a fresh key, early break, or panic unwind — a worker can never
/// leave other workers waiting on a claim nobody will resolve.
struct ClaimGuard<'a> {
    held: Option<(&'a dyn RunCache, &'a RunKey)>,
}

impl<'a> ClaimGuard<'a> {
    /// No claim to resolve.
    fn none() -> Self {
        ClaimGuard { held: None }
    }

    /// Guards a claim on `key` issued by `cache`.
    fn held(cache: &'a dyn RunCache, key: &'a RunKey) -> Self {
        ClaimGuard {
            held: Some((cache, key)),
        }
    }

    /// Disarms the guard after the claim was resolved by a `store`.
    fn release(&mut self) {
        self.held = None;
    }
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if let Some((cache, key)) = self.held.take() {
            cache.abandon(key);
        }
    }
}

/// Cross-worker cancellation: a flag plus the lowest slot index whose
/// result decides the campaign (a divergence under `stop_early`, or a
/// failure the policy gives up on). Workers stop taking new slots once
/// the flag is set, and abandon mid-slot retries only for slots
/// *above* the decisive one — every slot at or below it always runs to
/// completion, which is what lets the slot-order reduction reproduce
/// the serial campaign exactly.
struct CancelCtl {
    cancelled: AtomicBool,
    decisive: AtomicUsize,
}

impl CancelCtl {
    fn new() -> Self {
        CancelCtl {
            cancelled: AtomicBool::new(false),
            decisive: AtomicUsize::new(usize::MAX),
        }
    }

    fn cancel_at(&self, slot: usize) {
        self.decisive.fetch_min(slot, Ordering::SeqCst);
        self.cancelled.store(true, Ordering::SeqCst);
    }

    fn cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Whether `slot` may stop retrying: only once it cannot be part
    /// of the result because a lower slot already decided the campaign.
    fn abandons(&self, slot: usize) -> bool {
        slot > self.decisive.load(Ordering::SeqCst)
    }
}

/// What absorbing one slot's results did to the campaign.
enum SlotVerdict {
    /// Keep going.
    Continue,
    /// A completed run diverged under `stop_early`.
    Stop,
    /// The failure policy gave up with this error.
    Fail(SimError),
}

/// The registry handles every completed run adds to, resolved once
/// per campaign instead of looked up by name per run.
struct RunCounters {
    runs_completed: Arc<Counter>,
    steps: Arc<Counter>,
    native_instr: Arc<Counter>,
    hash_instr: Arc<Counter>,
    stores: Arc<Counter>,
    hash_updates: Arc<Counter>,
    checkpoints: Arc<Counter>,
    run_steps: Arc<Histogram>,
}

impl RunCounters {
    fn resolve(reg: &Registry) -> Self {
        RunCounters {
            runs_completed: reg.counter("checker.runs_completed"),
            steps: reg.counter("checker.steps"),
            native_instr: reg.counter("checker.native_instr"),
            hash_instr: reg.counter("checker.hash_instr"),
            stores: reg.counter("checker.stores"),
            hash_updates: reg.counter("checker.hash_updates"),
            checkpoints: reg.counter("checker.checkpoints"),
            run_steps: reg.histogram("checker.run_steps"),
        }
    }

    fn record(&self, steps: u64, native_instr: u64, hashes: &RunHashes) {
        self.runs_completed.inc();
        self.steps.add(steps);
        self.native_instr.add(native_instr);
        self.hash_instr.add(hashes.extra_instr);
        self.stores.add(hashes.stores);
        self.hash_updates.add(hashes.hash_updates);
        self.checkpoints.add(hashes.checkpoints.len() as u64);
        self.run_steps.record(steps);
    }
}

/// The serial view of a campaign: outcomes in slot order plus the
/// accounting the failure policy and the metrics registry need. Both
/// executors funnel every slot through [`CampaignState::absorb`] — the
/// serial one as it runs them, the parallel one during the slot-order
/// reduction — so they produce identical reports by construction.
struct CampaignState<'a> {
    policy: FailurePolicy,
    registry: Option<&'a Registry>,
    /// Resolved at the first completed run, so a campaign without one
    /// registers none of these metrics.
    counters: Option<RunCounters>,
    stop_early: bool,
    outcomes: Vec<RunOutcome>,
    first_hashes: Option<RunHashes>,
    failed_slots: usize,
}

impl CampaignState<'_> {
    fn absorb(&mut self, slot_run: SlotRun) -> SlotVerdict {
        debug_assert!(!slot_run.abandoned, "abandoned slots are never absorbed");
        for attempt in slot_run.attempts {
            match attempt.outcome {
                RunOutcome::Failed(f) => {
                    if let Some(reg) = self.registry {
                        reg.add("checker.runs_failed", 1);
                    }
                    let error = f.error.clone();
                    let attempt_no = f.attempt;
                    self.outcomes.push(RunOutcome::Failed(f));
                    match self.policy {
                        FailurePolicy::Abort => return SlotVerdict::Fail(error),
                        FailurePolicy::Skip { max_failures } => {
                            self.failed_slots += 1;
                            if self.failed_slots > max_failures {
                                return SlotVerdict::Fail(error);
                            }
                        }
                        FailurePolicy::Retry { max_retries, .. } => {
                            if attempt_no >= max_retries {
                                return SlotVerdict::Fail(error);
                            }
                        }
                    }
                }
                RunOutcome::Completed {
                    seed,
                    run_index,
                    hashes,
                } => {
                    if let Some(reg) = self.registry {
                        self.counters
                            .get_or_insert_with(|| RunCounters::resolve(reg))
                            .record(attempt.steps, attempt.native_instr, &hashes);
                        if let Some(c) = hashes.cache {
                            c.export(reg, "mhm.l1");
                        }
                    }
                    let differs = self
                        .first_hashes
                        .as_ref()
                        .is_some_and(|first| hashes.differs_from(first));
                    if differs {
                        if let Some(reg) = self.registry {
                            reg.add("checker.divergences", 1);
                        }
                    }
                    if self.first_hashes.is_none() {
                        self.first_hashes = Some(hashes.clone());
                    }
                    self.outcomes.push(RunOutcome::Completed {
                        seed,
                        run_index,
                        hashes,
                    });
                    if self.stop_early && differs {
                        return SlotVerdict::Stop;
                    }
                }
            }
        }
        SlotVerdict::Continue
    }
}

/// A fanned-out slot's result cell: the slot run plus the events it
/// buffered, filled in by whichever worker drew the slot.
type SlotCell = Mutex<Option<(SlotRun, Option<Arc<BufferSink>>)>>;

/// The determinism checker: runs a program many times under different
/// schedules (controlling the other nondeterminism sources) and compares
/// the per-checkpoint state hashes.
///
/// ```
/// use instantcheck::{Checker, CheckerConfig, Scheme};
/// use tsim::{ProgramBuilder, ValKind};
///
/// // Two threads add disjoint amounts under a lock: the sum commutes,
/// // so every schedule reaches the same final state.
/// let source = || {
///     let mut b = ProgramBuilder::new(2);
///     let g = b.global("sum", ValKind::U64, 1);
///     let lock = b.mutex();
///     for t in 0..2u64 {
///         b.thread(async move |ctx| {
///             ctx.lock(lock).await;
///             let v = ctx.load(g.at(0)).await;
///             ctx.store(g.at(0), v + t + 1).await;
///             ctx.unlock(lock).await;
///         });
///     }
///     b.build()
/// };
/// let cfg = CheckerConfig::new(Scheme::HwInc).with_runs(4);
/// let report = Checker::new(cfg).unwrap().check(source).unwrap();
/// assert!(report.is_deterministic());
/// assert_eq!(report.runs, 4);
/// ```
#[derive(Debug, Clone)]
pub struct Checker {
    config: CheckerConfig,
}

impl Checker {
    /// Creates a checker, validating the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroRuns`] when `config.runs == 0` — rejected
    /// here, with a typed error, instead of panicking deep in
    /// [`check`](Checker::check).
    pub fn new(config: CheckerConfig) -> Result<Self, ConfigError> {
        if config.spec.runs == 0 {
            return Err(ConfigError::ZeroRuns);
        }
        Ok(Checker { config })
    }

    /// The canonical spec entry point: a checker configured exactly as
    /// the [`CampaignSpec`] describes
    /// (via [`CheckerConfig::from_spec`]).
    ///
    /// # Errors
    ///
    /// As for [`new`](Checker::new).
    pub fn from_spec(spec: &CampaignSpec) -> Result<Self, ConfigError> {
        Checker::new(CheckerConfig::from_spec(spec))
    }

    /// The configuration in use.
    pub fn config(&self) -> &CheckerConfig {
        &self.config
    }

    /// The [`RunConfig`] for one attempt: the given scheduler seed, the
    /// campaign-wide nondeterminism controls, and the slot's fault plan
    /// if one is configured.
    fn run_config(
        &self,
        seed: u64,
        run_index: usize,
        alloc_log: Option<&Arc<AllocLog>>,
        sink: Option<&Arc<dyn EventSink>>,
    ) -> RunConfig {
        let cfg = &self.config.spec;
        let mut rc = RunConfig::random(seed)
            .with_switch(cfg.switch)
            .with_lib_seed(cfg.lib_seed)
            .with_max_steps(cfg.max_steps);
        if cfg.scheme.is_checking() {
            rc = rc.with_zero_fill_charged();
        }
        // Allocator addresses are input: log them on the first
        // successful run, replay them afterwards (§5).
        if let Some(log) = alloc_log {
            rc = rc.with_alloc_replay(Arc::clone(log));
        }
        if let Some((_, plan)) = cfg.fault_plans.iter().find(|(slot, _)| *slot == run_index) {
            rc = rc.with_faults(plan.clone());
        }
        if let Some(sink) = sink {
            rc = rc.with_sink(Arc::clone(sink));
        }
        rc
    }

    /// The campaign's run-key template, when a
    /// [`cache`](CheckerConfig::cache) is attached: the same template
    /// [`CampaignSpec::run_key`] fills, so the checker and a serialized
    /// spec provably address the same corpus entries. Built once per
    /// campaign; each attempt only fills in its seeds.
    fn key_template(&self) -> Option<RunKeyTemplate> {
        self.config.cache.as_ref()?;
        Some(self.config.spec.key_template())
    }

    /// Shared tail of a completed attempt, live or cache-satisfied:
    /// emits the run-end event (and the divergence instant when the
    /// hashes differ from `reference`), marks the slot's earlier failed
    /// attempts as recovered transients, and records the attempt. Both
    /// paths funnel through here, which is what makes a warm campaign's
    /// control events and outcomes identical to a cold one's.
    #[allow(clippy::too_many_arguments)]
    fn complete_attempt(
        &self,
        slot: usize,
        seed: u64,
        hashes: RunHashes,
        steps: u64,
        native_instr: u64,
        zero_fill_instr: u64,
        reference: Option<&RunHashes>,
        sink: Option<&Arc<dyn EventSink>>,
        attempts: &mut Vec<SlotAttempt>,
        diverged: &mut bool,
    ) {
        if let Some(sink) = sink {
            let mut ev = Event::end(steps, CONTROL_TRACK, "run")
                .with_arg("ok", true)
                .with_arg("steps", steps)
                .with_arg("native_instr", native_instr)
                .with_arg("hash_instr", hashes.extra_instr)
                .with_arg("zero_fill_instr", zero_fill_instr)
                .with_arg("stores", hashes.stores)
                .with_arg("hash_updates", hashes.hash_updates)
                .with_arg("checkpoints", hashes.checkpoints.len());
            if let Some(c) = hashes.cache {
                ev = ev
                    .with_arg("l1_hits", c.hits)
                    .with_arg("l1_misses", c.misses)
                    .with_arg("mhm_reads", c.mhm_reads)
                    .with_arg("mhm_read_misses", c.mhm_read_misses);
            }
            sink.record(ev);
        }
        // Every earlier failed attempt of this slot was a transient the
        // slot recovered from. Bucketing the attempts per slot makes it
        // impossible for this fixup to touch another slot's failures.
        for a in attempts.iter_mut() {
            if let RunOutcome::Failed(f) = &mut a.outcome {
                f.recovered = true;
            }
        }
        if let Some(first) = reference {
            if hashes.differs_from(first) {
                *diverged = true;
                if let Some(sink) = sink {
                    let mut ev =
                        Event::instant(0, CONTROL_TRACK, "divergence").with_arg("run", slot);
                    match hashes.first_divergent_checkpoint(first) {
                        Some(cp) => ev = ev.with_arg("checkpoint", cp),
                        None => ev = ev.with_arg("output", true),
                    }
                    sink.record(ev);
                }
            }
        }
        attempts.push(SlotAttempt {
            outcome: RunOutcome::Completed {
                seed,
                run_index: slot,
                hashes,
            },
            steps,
            native_instr,
        });
    }

    /// Runs one campaign slot to its conclusion: the first attempt plus
    /// however many retries the [`FailurePolicy`] allows, recording
    /// every attempt. Control-track events (run spans, the divergence
    /// instant against `reference`) and simulator events go to `sink` —
    /// the campaign's own sink on the serial path, a per-slot
    /// [`BufferSink`] on the parallel one. The campaign's first computed
    /// attempt fills `image` with its program's setup image, and every
    /// computed attempt starts from it when it fits.
    #[allow(clippy::too_many_arguments)]
    fn run_slot<F: Fn() -> Program>(
        &self,
        source: &F,
        image: &OnceLock<Option<SetupImage>>,
        keys: Option<&RunKeyTemplate>,
        slot: usize,
        alloc: Option<(&Arc<AllocLog>, u64)>,
        reference: Option<&RunHashes>,
        sink: Option<&Arc<dyn EventSink>>,
        cancel: Option<&CancelCtl>,
    ) -> SlotRun {
        let cfg = &self.config;
        let (alloc_log, alloc_seed) = match alloc {
            Some((log, seed)) => (Some(log), Some(seed)),
            None => (None, None),
        };
        let mut attempts: Vec<SlotAttempt> = Vec::new();
        let mut slot_alloc_log: Option<Arc<AllocLog>> = None;
        let mut diverged = false;
        let mut abandoned = false;
        let mut from_cache = false;
        let mut attempt = 0usize;
        loop {
            // Only `Retry` takes a second attempt, always reseeded.
            let seed = match attempt {
                0 => cfg.spec.base_seed + slot as u64,
                a => retry_seed(cfg.spec.base_seed, slot, a),
            };
            let key = keys.map(|t| t.key(slot, seed, alloc_seed));
            // Claim-aware lookup: a hit replays; a claimed miss makes
            // this attempt the key's single computer (concurrent
            // attempts on the same key wait for the publication instead
            // of re-simulating). The guard abandons the claim on every
            // non-publishing exit — failure, retry, or unwind — so
            // waiters can never deadlock on a vanished claimant.
            let mut claim = ClaimGuard::none();
            if let (Some(k), Some(cache)) = (&key, cfg.cache.as_deref()) {
                match cache.begin(k) {
                    // A tracing campaign can only use an entry that
                    // recorded its simulator events — replaying a
                    // traceless entry would drop part of the trace, so
                    // such an entry counts as a miss and the attempt
                    // recomputes (and re-stores, now with its trace).
                    CacheLease::Hit(hit) if sink.is_none() || hit.sim_trace.is_some() => {
                        if let Some(sink) = sink {
                            sink.record(
                                Event::begin(0, CONTROL_TRACK, "run")
                                    .with_arg("run", slot)
                                    .with_arg("seed", seed)
                                    .with_arg("attempt", attempt)
                                    .with_arg("scheme", cfg.spec.scheme.name()),
                            );
                            for ev in hit.sim_trace.iter().flatten() {
                                sink.record(ev.clone());
                            }
                        }
                        slot_alloc_log = hit.alloc_log.clone();
                        self.complete_attempt(
                            slot,
                            seed,
                            hit.hashes.clone(),
                            hit.steps,
                            hit.native_instr,
                            hit.zero_fill_instr,
                            reference,
                            sink,
                            &mut attempts,
                            &mut diverged,
                        );
                        from_cache = true;
                        break;
                    }
                    CacheLease::Hit(_) => {}
                    CacheLease::Compute { claimed } => {
                        if claimed {
                            claim = ClaimGuard::held(cache, k);
                        }
                    }
                }
            }
            // Cold attempt. When both a cache and a sink are active,
            // the simulator's events are captured so the stored entry
            // can replay them later; they are forwarded to the real
            // sink after the run, which preserves the live ordering
            // (the run span brackets them either way).
            let capture = match (&key, sink) {
                (Some(_), Some(_)) => Some(Arc::new(MemorySink::new())),
                _ => None,
            };
            let sim_sink: Option<Arc<dyn EventSink>> = match &capture {
                Some(c) => Some(Arc::clone(c) as Arc<dyn EventSink>),
                None => sink.cloned(),
            };
            let rc = self.run_config(seed, slot, alloc_log, sim_sink.as_ref());
            let mut monitor =
                CheckMonitor::new(cfg.spec.scheme, cfg.spec.rounding, cfg.spec.ignore.clone());
            if cfg.spec.cache_model {
                monitor = monitor.with_cache_model();
            }
            if let Some(sink) = sink {
                sink.record(
                    Event::begin(0, CONTROL_TRACK, "run")
                        .with_arg("run", slot)
                        .with_arg("seed", seed)
                        .with_arg("attempt", attempt)
                        .with_arg("scheme", cfg.spec.scheme.name()),
                );
            }
            // The L1 model observes every setup store, so a monitor that
            // asks for accesses executes the setup phase itself; any
            // other starts from the campaign's image.
            let mut prog = source();
            let spec = monitor.hash_spec();
            let image = if spec.accesses {
                None
            } else {
                image.get_or_init(|| prog.setup_image(&rc, spec)).as_ref()
            };
            let result = match image {
                Some(img) => prog.run_from(img, &rc, monitor),
                None => prog.run_with(&rc, monitor),
            };
            match result {
                Ok(out) => {
                    let steps = out.steps;
                    let native_instr = out.total_instructions();
                    let zero_fill_instr = out.zero_fill_instr;
                    slot_alloc_log = Some(out.alloc_log.clone());
                    let hashes = out.monitor.into_hashes();
                    let sim_trace = capture.map(|c| {
                        let events = c.events();
                        if let Some(sink) = sink {
                            for ev in &events {
                                sink.record(ev.clone());
                            }
                        }
                        events
                    });
                    if let (Some(k), Some(cache)) = (&key, cfg.cache.as_deref()) {
                        cache.store(
                            k,
                            &Arc::new(CachedRun {
                                hashes: hashes.clone(),
                                steps,
                                native_instr,
                                zero_fill_instr,
                                // Only the run that logged its own
                                // allocator addresses carries the log;
                                // replay runs are reproducible from the
                                // producer's entry.
                                alloc_log: if k.alloc_seed.is_none() {
                                    Some(out.alloc_log.clone())
                                } else {
                                    None
                                },
                                sim_trace,
                            }),
                        );
                        // The store published the claim; the guard's
                        // abandon would now be a no-op, but release it
                        // anyway so the invariant (exactly one of
                        // store/abandon resolves a claim) holds by
                        // construction, not by state-machine accident.
                        claim.release();
                    }
                    self.complete_attempt(
                        slot,
                        seed,
                        hashes,
                        steps,
                        native_instr,
                        zero_fill_instr,
                        reference,
                        sink,
                        &mut attempts,
                        &mut diverged,
                    );
                    break;
                }
                Err(error) => {
                    if let (Some(c), Some(sink)) = (&capture, sink) {
                        for ev in c.events() {
                            sink.record(ev);
                        }
                    }
                    if let Some(sink) = sink {
                        sink.record(
                            Event::end(0, CONTROL_TRACK, "run")
                                .with_arg("ok", false)
                                .with_arg("error", format!("{:?}", error.kind())),
                        );
                    }
                    attempts.push(SlotAttempt {
                        outcome: RunOutcome::Failed(RunFailure {
                            run_index: slot,
                            seed,
                            error,
                            attempt,
                            recovered: false,
                        }),
                        steps: 0,
                        native_instr: 0,
                    });
                    let give_up = match cfg.spec.policy {
                        FailurePolicy::Abort | FailurePolicy::Skip { .. } => true,
                        FailurePolicy::Retry { max_retries, .. } => attempt >= max_retries,
                    };
                    if give_up {
                        break;
                    }
                    attempt += 1;
                    if let Some(ctl) = cancel {
                        if ctl.abandons(slot) {
                            abandoned = true;
                            break;
                        }
                    }
                }
            }
        }
        SlotRun {
            attempts,
            alloc_log: slot_alloc_log,
            diverged,
            abandoned,
            from_cache,
        }
    }

    /// Worker-side check of whether `slot`'s result decides the
    /// campaign under the serial semantics — if so, higher slots are
    /// wasted work and the pool is cancelled. Purely a shutdown signal:
    /// the reduction re-derives the authoritative stop point in slot
    /// order.
    fn flag_decisive(
        &self,
        ctl: &CancelCtl,
        failed_slots: &AtomicUsize,
        slot: usize,
        slot_run: &SlotRun,
        stop_early: bool,
    ) {
        if slot_run.abandoned {
            return;
        }
        if slot_run.terminal_failure() {
            match self.config.spec.policy {
                // Abort gives up on any failure; a terminal Retry
                // failure means the slot exhausted its attempts.
                FailurePolicy::Abort | FailurePolicy::Retry { .. } => ctl.cancel_at(slot),
                FailurePolicy::Skip { max_failures } => {
                    if failed_slots.fetch_add(1, Ordering::SeqCst) + 1 > max_failures {
                        ctl.cancel_at(slot);
                    }
                }
            }
        } else if stop_early && slot_run.diverged {
            ctl.cancel_at(slot);
        }
    }

    /// The campaign supervisor: executes the run slots, applying the
    /// configured [`FailurePolicy`] to failed attempts.
    ///
    /// With one worker ([`CampaignSpec::jobs`], at least one) the slots
    /// run in order on the calling thread. With more, a sequential
    /// prefix runs until the first completed run has pinned the
    /// allocator log and the reference hashes, and keeps going while
    /// the previous slot was answered by the run cache: a hit costs a
    /// lookup, far less than a thread spawn. The slots after the first
    /// one that had to be simulated fan out across a scoped worker
    /// pool (so an all-hit campaign spawns no thread), and the
    /// per-slot results are reduced back in slot order — outcomes,
    /// registry counters, trace events, and the early-stop/abort point
    /// are identical to the serial campaign's regardless of worker
    /// count.
    ///
    /// With `stop_early`, the campaign halts as soon as a completed
    /// run's hashes differ from the first completed run's.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when the policy gives up: immediately
    /// under [`FailurePolicy::Abort`], after more than `max_failures`
    /// failed slots under [`FailurePolicy::Skip`], and after a slot
    /// exhausts `max_retries` under [`FailurePolicy::Retry`].
    fn run_campaign<F: Fn() -> Program + Sync>(
        &self,
        source: &F,
        stop_early: bool,
    ) -> Result<Vec<RunOutcome>, SimError> {
        let cfg = &self.config;
        let runs = cfg.spec.runs;
        let jobs = worker_count(cfg.spec.jobs);
        let sink = cfg.sink.as_ref().filter(|s| s.enabled());
        if let Some(sink) = sink {
            sink.record(
                Event::instant(0, CONTROL_TRACK, "campaign")
                    .with_arg("scheme", cfg.spec.scheme.name())
                    .with_arg("runs", cfg.spec.runs)
                    .with_arg("base_seed", cfg.spec.base_seed),
            );
        }
        let mut state = CampaignState {
            policy: cfg.spec.policy,
            registry: cfg.registry.as_deref(),
            counters: None,
            stop_early,
            outcomes: Vec::with_capacity(runs),
            first_hashes: None,
            failed_slots: 0,
        };
        // The pinned allocator log plus its provenance: the scheduler
        // seed of the completed run that recorded it (part of the cache
        // key of every run that replays the log).
        let mut alloc: Option<(Arc<AllocLog>, u64)> = None;

        // Sequential prefix: every slot when there is one worker; with
        // more, up to the first completed run (which pins the allocator
        // log and the reference hashes the fanned-out slots compare
        // against), then on while the cache answers the previous slot.
        // Events stream straight to the sink here.
        let keys = self.key_template();
        let keys = keys.as_ref();
        // One setup image per campaign, shared read-only by the workers;
        // dropped with the campaign.
        let image = OnceLock::new();
        let mut next_slot = 0usize;
        let mut last_hit = false;
        while next_slot < runs && (jobs == 1 || state.first_hashes.is_none() || last_hit) {
            let slot_run = self.run_slot(
                source,
                &image,
                keys,
                next_slot,
                alloc.as_ref().map(|(log, seed)| (log, *seed)),
                state.first_hashes.as_ref(),
                sink,
                None,
            );
            if alloc.is_none() {
                if let (Some(log), Some(seed)) =
                    (slot_run.alloc_log.clone(), slot_run.completed_seed())
                {
                    alloc = Some((log, seed));
                }
            }
            next_slot += 1;
            last_hit = slot_run.from_cache;
            match state.absorb(slot_run) {
                SlotVerdict::Continue => {}
                SlotVerdict::Stop => return Ok(state.outcomes),
                SlotVerdict::Fail(error) => return Err(error),
            }
        }
        if next_slot >= runs {
            return Ok(state.outcomes);
        }

        // Fan the remaining slots out across a scoped worker pool. The
        // pool hands slot indices out in increasing order and every
        // worker finishes the slot it holds (abandoning retries only
        // above the decisive slot), so by join time every slot up to
        // any decisive one has a result. The calling thread is worker
        // 0, so a pool of `n` costs `n - 1` spawns.
        let reference = state
            .first_hashes
            .clone()
            .expect("sequential prefix passes a completed run");
        let (alloc_log, alloc_seed) = alloc
            .as_ref()
            .map(|(log, seed)| (log, *seed))
            .expect("a completed run recorded its alloc log");
        let next = AtomicUsize::new(next_slot);
        let failed = AtomicUsize::new(state.failed_slots);
        let ctl = CancelCtl::new();
        let results: Vec<SlotCell> = (0..runs).map(|_| Mutex::new(None)).collect();
        // Wall-clock side-channel only: spans and busy/idle histograms
        // are recorded *after* each slot completes, so dispatch order
        // and slot results cannot depend on whether telemetry is
        // attached.
        let telemetry = cfg.telemetry.as_deref();
        let work = |w: usize| {
            let mut idle_from = telemetry.map(|t| t.now_ns());
            loop {
                if ctl.cancelled() {
                    break;
                }
                let slot = next.fetch_add(1, Ordering::SeqCst);
                if slot >= runs {
                    break;
                }
                let start = telemetry.map(|t| t.now_ns());
                let buffer = sink.map(|_| Arc::new(BufferSink::new()));
                let slot_sink = buffer.clone().map(|b| b as Arc<dyn EventSink>);
                let slot_run = self.run_slot(
                    source,
                    &image,
                    keys,
                    slot,
                    Some((alloc_log, alloc_seed)),
                    Some(&reference),
                    slot_sink.as_ref(),
                    Some(&ctl),
                );
                self.flag_decisive(&ctl, &failed, slot, &slot_run, stop_early);
                *results[slot].lock().unwrap() = Some((slot_run, buffer));
                if let (Some(t), Some(start)) = (telemetry, start) {
                    let end = t.now_ns();
                    t.histogram("checker.slot.busy")
                        .record(end.saturating_sub(start));
                    if let Some(since) = idle_from {
                        t.histogram("checker.slot.idle")
                            .record(start.saturating_sub(since));
                    }
                    t.lane_span(format!("chk.w{w}"), "slot", start, end, slot as u64);
                    idle_from = Some(end);
                }
            }
        };
        thread::scope(|scope| {
            let work = &work;
            for w in 1..jobs.min(runs - next_slot) {
                scope.spawn(move || work(w));
            }
            work(0);
        });

        // Deterministic reduction: re-absorb the slot results in slot
        // order, replaying exactly the control flow the serial
        // campaign would have taken — each kept slot's buffered events
        // are flushed to the real sink as it is absorbed, and slots
        // past the serial stop point are discarded.
        for cell in results.iter().skip(next_slot) {
            let Some((slot_run, buffer)) = cell.lock().unwrap().take() else {
                break;
            };
            if slot_run.abandoned {
                break;
            }
            if let (Some(buffer), Some(sink)) = (&buffer, sink) {
                buffer.flush_into(&**sink);
            }
            match state.absorb(slot_run) {
                SlotVerdict::Continue => {}
                SlotVerdict::Stop => break,
                SlotVerdict::Fail(error) => return Err(error),
            }
        }
        Ok(state.outcomes)
    }

    /// Runs the campaign: `source` must build a fresh copy of the same
    /// program for each run (same input — the checker controls allocator
    /// addresses and library calls so that only the interleaving varies).
    /// The contract also lets the campaign execute the setup phase once:
    /// its first computed run captures a [`SetupImage`] and every later
    /// computed run starts from a copy of it when the image fits (see
    /// [`SetupImage`]), so a `source` whose builds differ in their setup
    /// phase would be checked against the first build's input.
    ///
    /// Run slots execute on [`CampaignSpec::jobs`] worker threads (the
    /// machine's parallelism when unset, at least one); the report is
    /// identical regardless of the worker count.
    ///
    /// # Errors
    ///
    /// Under the default [`FailurePolicy::Abort`], returns the first
    /// [`SimError`] any run produces (deadlock, step limit, machine
    /// misuse, workload panic). Under [`FailurePolicy::Skip`] /
    /// [`FailurePolicy::Retry`], failed runs are recorded in the
    /// report's [`failures`](CheckReport::failures) section instead, and
    /// an error is returned only once the policy's budget is exhausted.
    pub fn check<F: Fn() -> Program + Sync>(&self, source: F) -> Result<CheckReport, SimError> {
        let outcomes = self.run_campaign(&source, false)?;
        Ok(Self::report(&outcomes))
    }

    /// Like [`check`], but stops as soon as a run's hashes differ from
    /// the first run's — the paper's point that "in real usage of
    /// InstantCheck, the programmer can stop as soon as nondeterminism
    /// is detected". Returns the report over the runs actually performed
    /// and how many that was.
    ///
    /// # Errors
    ///
    /// As for [`check`].
    ///
    /// [`check`]: Checker::check
    pub fn check_stopping_early<F: Fn() -> Program + Sync>(
        &self,
        source: F,
    ) -> Result<(CheckReport, usize), SimError> {
        let outcomes = self.run_campaign(&source, true)?;
        let n = outcomes.iter().filter(|o| o.hashes().is_some()).count();
        Ok((Self::report(&outcomes), n))
    }

    /// Like [`check`], but returns the raw per-run hash sequences of
    /// the completed runs (useful for custom analyses).
    ///
    /// # Errors
    ///
    /// As for [`check`].
    ///
    /// [`check`]: Checker::check
    pub fn collect_runs<F: Fn() -> Program + Sync>(
        &self,
        source: &F,
    ) -> Result<Vec<RunHashes>, SimError> {
        Ok(self
            .collect_outcomes(source)?
            .into_iter()
            .filter_map(|o| match o {
                RunOutcome::Completed { hashes, .. } => Some(hashes),
                RunOutcome::Failed(_) => None,
            })
            .collect())
    }

    /// Runs the campaign and returns every attempt's [`RunOutcome`] in
    /// execution order — completed hash sequences interleaved with the
    /// structured failures the policy absorbed.
    ///
    /// # Errors
    ///
    /// As for [`check`].
    ///
    /// [`check`]: Checker::check
    pub fn collect_outcomes<F: Fn() -> Program + Sync>(
        &self,
        source: &F,
    ) -> Result<Vec<RunOutcome>, SimError> {
        self.run_campaign(source, false)
    }

    fn report(outcomes: &[RunOutcome]) -> CheckReport {
        let hashes: Vec<RunHashes> = outcomes
            .iter()
            .filter_map(|o| o.hashes().cloned())
            .collect();
        let failures: Vec<RunFailure> = outcomes
            .iter()
            .filter_map(|o| o.failure().cloned())
            .collect();
        CheckReport::from_outcomes(&hashes, failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::{FaultKind, ProgramBuilder, Trigger, ValKind};

    fn racy_unordered_sum() -> Program {
        // Deterministic: commutative sum under a lock.
        let mut b = ProgramBuilder::new(4);
        let g = b.global("G", ValKind::U64, 1);
        let lock = b.mutex();
        for t in 0..4u64 {
            b.thread(async move |ctx| {
                ctx.lock(lock).await;
                let v = ctx.load(g.at(0)).await;
                ctx.store(g.at(0), v + (t + 1) * 10).await;
                ctx.unlock(lock).await;
            });
        }
        b.build()
    }

    fn order_dependent() -> Program {
        // Nondeterministic: last writer wins.
        let mut b = ProgramBuilder::new(3);
        let g = b.global("G", ValKind::U64, 1);
        let lock = b.mutex();
        for t in 0..3u64 {
            b.thread(async move |ctx| {
                ctx.lock(lock).await;
                ctx.store(g.at(0), t + 1).await;
                ctx.unlock(lock).await;
            });
        }
        b.build()
    }

    #[test]
    fn commutative_sum_is_deterministic_under_all_schemes() {
        for scheme in [Scheme::HwInc, Scheme::SwInc, Scheme::SwTr] {
            let report = Checker::new(CheckerConfig::new(scheme).with_runs(10))
                .expect("valid config")
                .check(racy_unordered_sum)
                .unwrap();
            assert!(report.is_deterministic(), "{scheme:?}");
            assert!(report.det_at_end);
            assert_eq!(report.ndet_points, 0);
        }
    }

    #[test]
    fn last_writer_wins_is_nondeterministic_under_all_schemes() {
        for scheme in [Scheme::HwInc, Scheme::SwInc, Scheme::SwTr] {
            let report = Checker::new(CheckerConfig::new(scheme).with_runs(10))
                .expect("valid config")
                .check(order_dependent)
                .unwrap();
            assert!(!report.is_deterministic(), "{scheme:?}");
            assert!(!report.det_at_end);
            // Detected quickly, as in the paper (run 2 or 3).
            assert!(report.first_ndet_run.unwrap() <= 5, "{scheme:?}");
        }
    }

    #[test]
    fn schemes_agree_on_the_verdict_per_checkpoint() {
        let verdicts = |scheme| {
            let report = Checker::new(CheckerConfig::new(scheme).with_runs(8))
                .expect("valid config")
                .check(order_dependent)
                .unwrap();
            (0..report.aligned_checkpoints)
                .map(|i| report.distributions[i].counts().to_vec())
                .collect::<Vec<_>>()
        };
        let hw = verdicts(Scheme::HwInc);
        let sw = verdicts(Scheme::SwInc);
        let tr = verdicts(Scheme::SwTr);
        assert_eq!(hw, sw);
        assert_eq!(hw, tr);
    }

    #[test]
    fn early_stop_halts_at_first_difference() {
        let checker =
            Checker::new(CheckerConfig::new(Scheme::HwInc).with_runs(30)).expect("valid config");
        let (report, used) = checker.check_stopping_early(order_dependent).unwrap();
        assert!(!report.is_deterministic());
        assert!(used < 30, "should stop well before 30 runs (used {used})");
        assert_eq!(report.first_ndet_run, Some(used));
    }

    #[test]
    fn early_stop_runs_everything_when_deterministic() {
        let checker =
            Checker::new(CheckerConfig::new(Scheme::HwInc).with_runs(6)).expect("valid config");
        let (report, used) = checker.check_stopping_early(racy_unordered_sum).unwrap();
        assert!(report.is_deterministic());
        assert_eq!(used, 6);
    }

    #[test]
    fn config_builder_chains() {
        let cfg = CheckerConfig::new(Scheme::SwTr)
            .with_runs(5)
            .with_base_seed(9)
            .with_lib_seed(3)
            .with_switch(SwitchPolicy::EveryAccess)
            .with_rounding(FpRound::default())
            .with_ignore(IgnoreSpec::new().ignore_global("x"))
            .with_policy(FailurePolicy::Skip { max_failures: 2 })
            .with_fault_in_run(1, FaultPlan::new(7))
            .with_jobs(3);
        assert_eq!(cfg.spec.runs, 5);
        assert_eq!(cfg.spec.base_seed, 9);
        assert_eq!(cfg.spec.lib_seed, 3);
        assert!(cfg.spec.rounding.is_some());
        assert!(!cfg.spec.ignore.is_empty());
        assert_eq!(cfg.spec.policy, FailurePolicy::Skip { max_failures: 2 });
        assert_eq!(cfg.spec.fault_plans.len(), 1);
        assert_eq!(worker_count(cfg.spec.jobs), 3);
        let checker = Checker::new(cfg).expect("valid config");
        assert_eq!(checker.config().spec.runs, 5);
    }

    #[test]
    fn zero_jobs_is_clamped_to_one() {
        let cfg = CheckerConfig::new(Scheme::HwInc).with_jobs(0);
        assert_eq!(worker_count(cfg.spec.jobs), 1);
        // And the campaign still runs (on the serial path).
        let report = Checker::new(cfg.with_runs(3))
            .expect("valid config")
            .check(racy_unordered_sum)
            .unwrap();
        assert!(report.is_deterministic());
    }

    #[test]
    fn zero_runs_is_rejected_at_construction() {
        let err = Checker::new(CheckerConfig::new(Scheme::HwInc).with_runs(0))
            .expect_err("runs == 0 must not construct");
        assert_eq!(err, ConfigError::ZeroRuns);
        assert!(err.to_string().contains("at least one run"), "{err}");
    }

    #[test]
    fn checker_from_spec_checks_like_a_hand_built_config() {
        let spec = CampaignSpec::new("racy-sum", Scheme::HwInc).with_runs(4);
        let via_spec = Checker::from_spec(&spec)
            .expect("valid spec")
            .check(racy_unordered_sum)
            .unwrap();
        let by_hand = Checker::new(CheckerConfig::new(Scheme::HwInc).with_runs(4))
            .expect("valid config")
            .check(racy_unordered_sum)
            .unwrap();
        assert_eq!(via_spec, by_hand);
        assert!(Checker::from_spec(&spec.with_runs(0)).is_err());
    }

    #[test]
    fn parallel_report_equals_serial_report() {
        for source in [racy_unordered_sum as fn() -> Program, order_dependent] {
            let report_at = |jobs: usize| {
                let cfg = CheckerConfig::new(Scheme::HwInc)
                    .with_runs(8)
                    .with_jobs(jobs);
                Checker::new(cfg)
                    .expect("valid config")
                    .check(source)
                    .unwrap()
            };
            let serial = report_at(1);
            assert_eq!(serial, report_at(4));
        }
    }

    #[test]
    fn parallel_early_stop_matches_serial() {
        let at = |jobs: usize| {
            let cfg = CheckerConfig::new(Scheme::HwInc)
                .with_runs(30)
                .with_jobs(jobs);
            Checker::new(cfg)
                .expect("valid config")
                .check_stopping_early(order_dependent)
                .unwrap()
        };
        let (serial_report, serial_used) = at(1);
        let (parallel_report, parallel_used) = at(6);
        assert_eq!(serial_used, parallel_used);
        assert_eq!(serial_report, parallel_report);
    }

    #[test]
    fn telemetry_side_channel_leaves_artifacts_untouched() {
        let at = |telemetry: Option<Arc<Telemetry>>| {
            let sink = Arc::new(obs::MemorySink::new());
            let reg = Arc::new(Registry::new());
            let mut cfg = CheckerConfig::new(Scheme::HwInc)
                .with_runs(8)
                .with_jobs(4)
                .with_sink(sink.clone())
                .with_registry(reg.clone());
            if let Some(t) = telemetry {
                cfg = cfg.with_telemetry(t);
            }
            let report = Checker::new(cfg)
                .expect("valid config")
                .check(racy_unordered_sum)
                .unwrap();
            (report, sink.to_jsonl(), reg.snapshot())
        };
        let telemetry = Arc::new(Telemetry::new());
        let instrumented = at(Some(telemetry.clone()));
        let bare = at(None);
        assert_eq!(instrumented.0, bare.0, "report unchanged by telemetry");
        assert_eq!(instrumented.1, bare.1, "trace bytes unchanged by telemetry");
        assert_eq!(instrumented.2, bare.2, "metrics unchanged by telemetry");

        let snap = telemetry.snapshot();
        assert!(
            snap.histograms["checker.slot.busy"].count >= 1,
            "fanned-out slots recorded busy time"
        );
        assert!(
            snap.lanes.iter().any(|s| s.lane.starts_with("chk.w")),
            "worker lanes attributed their slots"
        );
        assert!(snap.lanes.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn parallel_abort_matches_serial_error() {
        let plan = FaultPlan::new(3).with(FaultKind::AllocFail, Trigger::Nth(0));
        let at = |jobs: usize| {
            let cfg = CheckerConfig::new(Scheme::HwInc)
                .with_runs(6)
                .with_jobs(jobs)
                .with_fault_in_run(2, plan.clone());
            Checker::new(cfg)
                .expect("valid config")
                .check(alloc_heavy)
                .unwrap_err()
        };
        assert_eq!(at(1).kind(), at(4).kind());
    }

    #[test]
    fn campaign_trace_and_metrics() {
        let sink = Arc::new(obs::MemorySink::new());
        let reg = Arc::new(Registry::new());
        let cfg = CheckerConfig::new(Scheme::HwInc)
            .with_runs(3)
            .with_sink(sink.clone())
            .with_registry(reg.clone())
            .with_cache_model();
        let report = Checker::new(cfg)
            .expect("valid config")
            .check(racy_unordered_sum)
            .unwrap();
        let cache = report.cache.expect("cache model was on");
        assert_eq!(cache.mhm_read_misses, 0, "write-allocate claim (§3.1)");
        assert!(cache.hits + cache.misses > 0);

        let events = sink.events();
        assert_eq!(events.iter().filter(|e| e.name == "campaign").count(), 1);
        let begins: Vec<_> = events
            .iter()
            .filter(|e| e.name == "run" && e.phase == obs::Phase::Begin)
            .collect();
        let ends: Vec<_> = events
            .iter()
            .filter(|e| e.name == "run" && e.phase == obs::Phase::End)
            .collect();
        assert_eq!(begins.len(), 3);
        assert_eq!(ends.len(), 3);
        assert!(ends.iter().all(|e| e.arg_u64("ok") == Some(1)));
        assert!(ends[0].arg_u64("l1_hits").is_some());
        assert!(ends[0].arg_u64("steps").is_some());
        // The simulator's own events interleave with the run spans.
        assert!(events.iter().any(|e| e.name == "sched"));
        assert!(events.iter().any(|e| e.name == "checkpoint"));

        let snap = reg.snapshot();
        assert_eq!(snap.counters["checker.runs_completed"], 3);
        assert_eq!(snap.counters["mhm.l1.mhm_read_misses"], 0);
        assert!(snap.counters["checker.stores"] > 0);
        assert!(snap.counters["checker.hash_updates"] > 0);
    }

    #[test]
    fn divergence_event_records_first_divergent_checkpoint() {
        let sink = Arc::new(obs::MemorySink::new());
        let cfg = CheckerConfig::new(Scheme::HwInc)
            .with_runs(10)
            .with_sink(sink.clone());
        let report = Checker::new(cfg)
            .expect("valid config")
            .check(order_dependent)
            .unwrap();
        assert!(!report.is_deterministic());
        let divs: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.name == "divergence")
            .collect();
        assert!(!divs.is_empty());
        // `order_dependent` has exactly one checkpoint (End), so the
        // first divergent checkpoint is always seq 0.
        assert_eq!(divs[0].arg_u64("checkpoint"), Some(0));
    }

    #[test]
    fn first_divergent_checkpoint_helper() {
        let rec = |h: u64| CheckpointRecord {
            kind: tsim::CheckpointKind::End,
            hash: adhash::HashSum::from_raw(h),
        };
        let mk = |hs: &[u64]| RunHashes {
            checkpoints: hs.iter().map(|&h| rec(h)).collect(),
            output_digest: 0,
            extra_instr: 0,
            stores: 0,
            hash_updates: 0,
            cache: None,
        };
        let a = mk(&[1, 2, 3]);
        assert_eq!(a.first_divergent_checkpoint(&mk(&[1, 9, 3])), Some(1));
        assert_eq!(a.first_divergent_checkpoint(&mk(&[1, 2])), Some(2));
        assert_eq!(a.first_divergent_checkpoint(&mk(&[1, 2, 3])), None);
        let mut out = mk(&[1, 2, 3]);
        out.output_digest = 7;
        assert!(a.differs_from(&out));
        assert_eq!(a.first_divergent_checkpoint(&out), None);
    }

    #[test]
    fn abort_policy_keeps_the_historical_semantics() {
        let plan = FaultPlan::new(3).with(FaultKind::AllocFail, Trigger::Nth(0));
        let cfg = CheckerConfig::new(Scheme::HwInc)
            .with_runs(6)
            .with_fault_in_run(2, plan);
        let err = Checker::new(cfg)
            .expect("valid config")
            .check(alloc_heavy)
            .unwrap_err();
        assert_eq!(err.kind(), tsim::SimErrorKind::AllocFailed);
    }

    fn alloc_heavy() -> Program {
        let mut b = ProgramBuilder::new(2);
        let g = b.global("G", ValKind::U64, 1);
        let lock = b.mutex();
        for t in 0..2u64 {
            b.thread(async move |ctx| {
                let p = ctx.malloc("scratch", tsim::TypeTag::u64s(), 2).await;
                ctx.store(p, t).await;
                ctx.lock(lock).await;
                let v = ctx.load(g.at(0)).await;
                ctx.store(g.at(0), v + t + 1).await;
                ctx.unlock(lock).await;
                ctx.free(p).await;
            });
        }
        b.build()
    }

    #[test]
    fn run_metrics_are_registered_only_once_a_run_completes() {
        // Slot 0 fails under Abort: no run completes, so none of the
        // per-run metrics exist, not even at zero.
        let plan = FaultPlan::new(3).with(FaultKind::AllocFail, Trigger::Nth(0));
        let reg = Arc::new(Registry::new());
        let cfg = CheckerConfig::new(Scheme::HwInc)
            .with_runs(3)
            .with_registry(reg.clone())
            .with_fault_in_run(0, plan);
        Checker::new(cfg)
            .expect("valid config")
            .check(alloc_heavy)
            .unwrap_err();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        assert_eq!(names, ["checker.runs_failed"]);
        assert!(snap.histograms.is_empty());

        // One completed run registers all of them, zeros included.
        let reg = Arc::new(Registry::new());
        let cfg = CheckerConfig::new(Scheme::Native)
            .with_runs(1)
            .with_registry(reg.clone());
        Checker::new(cfg)
            .expect("valid config")
            .check(alloc_heavy)
            .unwrap();
        let snap = reg.snapshot();
        for name in [
            "checker.runs_completed",
            "checker.steps",
            "checker.native_instr",
            "checker.hash_instr",
            "checker.stores",
            "checker.hash_updates",
            "checker.checkpoints",
        ] {
            assert!(snap.counters.contains_key(name), "{name}");
        }
        assert_eq!(snap.counters["checker.runs_completed"], 1);
        assert_eq!(snap.histograms["checker.run_steps"].count, 1);
    }

    #[test]
    fn skip_policy_completes_with_the_failure_recorded() {
        let plan = FaultPlan::new(3).with(FaultKind::AllocFail, Trigger::Nth(0));
        let cfg = CheckerConfig::new(Scheme::HwInc)
            .with_runs(6)
            .with_policy(FailurePolicy::Skip { max_failures: 3 })
            .with_fault_in_run(2, plan);
        let report = Checker::new(cfg)
            .expect("valid config")
            .check(alloc_heavy)
            .unwrap();
        assert_eq!(report.runs, 5, "five of six runs completed");
        assert_eq!(report.failures.len(), 1);
        let f = &report.failures[0];
        assert_eq!(f.run_index, 2);
        assert_eq!(f.error.kind(), tsim::SimErrorKind::AllocFailed);
        assert!(!f.recovered);
        assert!(
            report.is_deterministic(),
            "alloc failure is not a det signal"
        );
    }

    #[test]
    fn skip_policy_aborts_past_its_failure_budget() {
        let plan = |s| FaultPlan::new(s).with(FaultKind::AllocFail, Trigger::Nth(0));
        let cfg = CheckerConfig::new(Scheme::HwInc)
            .with_runs(6)
            .with_policy(FailurePolicy::Skip { max_failures: 1 })
            .with_fault_in_run(1, plan(1))
            .with_fault_in_run(3, plan(2));
        let err = Checker::new(cfg)
            .expect("valid config")
            .check(alloc_heavy)
            .unwrap_err();
        assert_eq!(err.kind(), tsim::SimErrorKind::AllocFailed);
    }
}
