//! The campaign orchestrator: accepts [`Submission`]s, runs them on a
//! bounded worker pool, and returns per-campaign results whose bytes do
//! not depend on the pool width.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use corpus::{CampaignBaseline, Corpus};
use instantcheck::{CheckReport, Checker, CheckerConfig, RunCache};
use obs::json::{self, Layout};
use obs::{Event, MemorySink, Registry, Telemetry, CONTROL_TRACK};
use tsim::Program;

use crate::queue::{PushError, QueueEntry, WorkQueue};
use crate::{CampaignSpec, Priority};

/// A closure that builds one fresh copy of a workload's program.
pub type ProgramSource = Arc<dyn Fn() -> Program + Send + Sync>;

/// Maps a [`CampaignSpec::workload`] id to its program source. Returns
/// `None` for unknown workloads — the campaign fails with
/// [`CampaignStatus::Invalid`] instead of panicking a worker.
pub type Resolver = Arc<dyn Fn(&str) -> Option<ProgramSource> + Send + Sync>;

/// The tenant label used for submissions that do not name one.
pub const DEFAULT_TENANT: &str = "anon";

/// One campaign submission: a spec plus scheduling identity.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Caller-chosen campaign id — names the result and its artifacts.
    /// An empty id is replaced with `c<seq>` at submit time, so callers
    /// that cannot know the sequence up front (concurrent daemon
    /// clients) still get stable, collision-free defaults.
    pub id: String,
    /// Queue priority: higher pops first; ties run in submission order.
    pub priority: Priority,
    /// The submitting tenant, for quota accounting and per-tenant
    /// metrics; `None` is accounted under [`DEFAULT_TENANT`].
    pub tenant: Option<String>,
    /// What to run.
    pub spec: CampaignSpec,
}

impl Submission {
    /// A default-priority submission.
    pub fn new(id: impl Into<String>, spec: CampaignSpec) -> Self {
        Submission {
            id: id.into(),
            priority: 0,
            tenant: None,
            spec,
        }
    }

    /// Sets the priority.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the tenant label.
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }
}

/// Why a submission was refused instead of enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded queue was at capacity — the graceful-degradation
    /// outcome under overload.
    QueueFull,
    /// The orchestrator was already draining.
    Draining,
    /// The submitting tenant exhausted its submission quota.
    QuotaExceeded,
}

impl ShedReason {
    /// Stable label used in result JSON and metrics.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::Draining => "draining",
            ShedReason::QuotaExceeded => "quota-exceeded",
        }
    }
}

/// What [`Orchestrator::submit`] did with a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Accepted; a worker will run it and `drain` will report it.
    Enqueued,
    /// Refused; `drain` reports it as [`CampaignStatus::Shed`].
    Shed(ShedReason),
}

/// Terminal state of one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStatus {
    /// The campaign ran to completion and produced a report artifact.
    Completed,
    /// The campaign ran but its failure policy gave up (or it produced
    /// no completed runs to report on).
    Failed,
    /// The submission could not be run at all: unknown workload or a
    /// spec the checker rejects (e.g. zero runs).
    Invalid,
    /// The submission was refused at the queue.
    Shed,
}

impl CampaignStatus {
    /// Stable label used in result JSON and metrics.
    pub fn label(self) -> &'static str {
        match self {
            CampaignStatus::Completed => "completed",
            CampaignStatus::Failed => "failed",
            CampaignStatus::Invalid => "invalid",
            CampaignStatus::Shed => "shed",
        }
    }
}

/// The terminal record of one submission.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The submission's id.
    pub id: String,
    /// The tenant the submission was accounted under.
    pub tenant: String,
    /// Submission order (0-based) — the deterministic result ordering.
    pub seq: usize,
    /// Terminal state.
    pub status: CampaignStatus,
    /// The campaign's report artifact — a
    /// [`CampaignBaseline`](corpus::CampaignBaseline) rendered as
    /// deterministic JSON — present exactly for completed campaigns.
    /// Byte-identical to the same spec run alone, at any width.
    pub report_json: Option<String>,
    /// The campaign's simulator event trace as JSONL, when the
    /// orchestrator traces. Step-keyed, so also width-independent.
    pub trace_jsonl: Option<String>,
    /// Why the campaign failed or was invalid.
    pub error: Option<String>,
    /// Why the campaign was shed, when it was.
    pub shed: Option<ShedReason>,
}

impl CampaignResult {
    /// Campaign-level attempts taken: 1 for a campaign that ran to
    /// [`Completed`](CampaignStatus::Completed) or
    /// [`Failed`](CampaignStatus::Failed), 0 for one that never ran.
    pub fn attempts(&self) -> u32 {
        u32::from(matches!(
            self.status,
            CampaignStatus::Completed | CampaignStatus::Failed
        ))
    }

    /// One line of deterministic JSON summarizing the result (without
    /// the artifact bodies) — the orchestrator batch summary format.
    pub fn summary_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, Layout::Compact, |o| {
            o.field("id", &self.id)
                .field("tenant", &self.tenant)
                .field("seq", &self.seq)
                .field("status", self.status.label())
                .field("attempts", &self.attempts())
                .field("shed", &self.shed.map(ShedReason::label))
                .field("error", &self.error);
        });
        out
    }

    fn shed(id: String, tenant: String, seq: usize, reason: ShedReason) -> Self {
        CampaignResult {
            id,
            tenant,
            seq,
            status: CampaignStatus::Shed,
            report_json: None,
            trace_jsonl: None,
            error: None,
            shed: Some(reason),
        }
    }
}

/// Per-tenant submission accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Submissions enqueued for this tenant.
    pub accepted: u64,
    /// Submissions refused for this tenant (any [`ShedReason`]).
    pub shed: u64,
}

/// Orchestrator tuning.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Concurrent campaigns (worker threads). The determinism contract:
    /// per-campaign artifact bytes are identical at any width.
    pub width: usize,
    /// Bound of the submission queue; submissions past it shed.
    pub queue_capacity: usize,
    /// Per-campaign job budget: a campaign's effective `jobs` is
    /// `min(spec.jobs (or the budget), budget)`, clamped to ≥ 1, so a
    /// single greedy spec cannot monopolize the box.
    pub job_budget: usize,
    /// Record per-campaign simulator event traces.
    pub trace: bool,
    /// Per-tenant submission budget: once a tenant has had this many
    /// submissions *accepted*, further ones shed with
    /// [`ShedReason::QuotaExceeded`]. `None` disables quotas. The
    /// budget counts accepted submissions only, so a tenant cannot be
    /// starved by its own shed/invalid lines.
    pub tenant_quota: Option<u64>,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            width: 2,
            queue_capacity: 64,
            job_budget: 2,
            trace: false,
            tenant_quota: None,
        }
    }
}

/// Telemetry histogram fed with enqueue→dequeue queue dwell times.
pub const QUEUE_DWELL_HISTOGRAM: &str = "icd.queue.dwell";

/// State shared between the submit side and the workers.
struct Shared {
    queue: WorkQueue<Job>,
    results: Mutex<BTreeMap<usize, CampaignResult>>,
    registry: Arc<Registry>,
    /// Wall-clock side-channel (queue dwell, worker lanes, cache
    /// acquire/wait times). Strictly observational: nothing recorded
    /// here reaches the deterministic results, registry, or traces.
    telemetry: Arc<Telemetry>,
    resolver: Resolver,
    corpus: Option<Arc<Corpus>>,
    config: OrchestratorConfig,
    draining: AtomicBool,
    in_flight: AtomicUsize,
}

/// One accepted submission riding the queue.
struct Job {
    id: String,
    tenant: String,
    spec: CampaignSpec,
    enqueued_at: Instant,
}

/// The multi-campaign orchestrator.
///
/// Lifecycle: [`new`](Orchestrator::new) →
/// [`submit`](Orchestrator::submit) any number of times (workers start
/// lazily on [`start`](Orchestrator::start), or at drain) →
/// [`drain`](Orchestrator::drain), which closes intake, finishes every
/// accepted campaign, and returns one [`CampaignResult`] per submission
/// in submission order — shed submissions included, so the batch output
/// always covers the batch input.
pub struct Orchestrator {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    submitted: usize,
    tenants: BTreeMap<String, TenantStats>,
}

impl Orchestrator {
    /// Creates an orchestrator. Workers do not start until
    /// [`start`](Orchestrator::start) (or [`drain`](Orchestrator::drain))
    /// — submissions before that just queue, which is also how the
    /// overload path is tested deterministically.
    ///
    /// `corpus` is the shared run store, built by the caller through
    /// [`Corpus::open`](corpus::Corpus::open). The orchestrator binds
    /// its own metrics registry and telemetry plane to it, so the
    /// corpus's memo-cache contention and compaction waits surface on
    /// the daemon's `/metrics` alongside the queue series. Concurrent
    /// campaigns share discovered runs through the corpus's lock-free
    /// front cache and never compute the same run twice.
    pub fn new(
        config: OrchestratorConfig,
        resolver: Resolver,
        corpus: Option<Arc<Corpus>>,
    ) -> Self {
        let registry = Arc::new(Registry::new());
        let telemetry = Arc::new(Telemetry::new());
        // Pre-register the always-exported wait series so `/metrics`
        // shows them (at zero) from the first scrape.
        telemetry.histogram(QUEUE_DWELL_HISTOGRAM);
        telemetry.histogram(corpus::CACHE_ACQUIRE_HISTOGRAM);
        telemetry.histogram(corpus::CACHE_WAIT_HISTOGRAM);
        if let Some(corpus) = &corpus {
            corpus.bind_observers(&registry, &telemetry);
        }
        Orchestrator {
            shared: Arc::new(Shared {
                queue: WorkQueue::new(config.queue_capacity),
                results: Mutex::new(BTreeMap::new()),
                registry,
                telemetry,
                resolver,
                corpus,
                config,
                draining: AtomicBool::new(false),
                in_flight: AtomicUsize::new(0),
            }),
            workers: Vec::new(),
            submitted: 0,
            tenants: BTreeMap::new(),
        }
    }

    /// The orchestrator's metrics registry (`icd.*`, `checker.*`,
    /// `corpus.cache.*`).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// The orchestrator's wall-clock telemetry plane: queue dwell
    /// ([`QUEUE_DWELL_HISTOGRAM`]), cache acquisitions and in-flight
    /// waits ([`corpus::CACHE_ACQUIRE_HISTOGRAM`],
    /// [`corpus::CACHE_WAIT_HISTOGRAM`]), worker busy/idle, lanes.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    /// The attached corpus itself, when one is — lets a daemon front
    /// end keep reading contention tallies and log-structure gauges
    /// after `drain` has consumed the orchestrator.
    pub fn corpus(&self) -> Option<&Arc<Corpus>> {
        self.shared.corpus.as_ref()
    }

    /// Submissions seen so far (enqueued + shed).
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// Campaigns queued but not yet claimed by a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Campaigns currently being run by a worker.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Per-tenant accepted/shed counts so far, keyed by tenant label.
    pub fn tenant_stats(&self) -> &BTreeMap<String, TenantStats> {
        &self.tenants
    }

    /// Offers one submission. Never blocks: the queue either accepts it
    /// or the submission is shed with an explicit reason, recorded in
    /// both the metrics and the eventual drain output. An empty
    /// submission id is replaced with `c<seq>`.
    pub fn submit(&mut self, submission: Submission) -> Disposition {
        let seq = self.submitted;
        self.submitted += 1;
        let tenant = submission
            .tenant
            .clone()
            .unwrap_or_else(|| DEFAULT_TENANT.to_owned());
        let id = if submission.id.is_empty() {
            format!("c{seq}")
        } else {
            submission.id.clone()
        };
        let reg = &self.shared.registry;
        reg.add("icd.submitted", 1);
        if self.shared.draining.load(Ordering::SeqCst) {
            return self.shed(id, tenant, seq, ShedReason::Draining);
        }
        if let Some(quota) = self.shared.config.tenant_quota {
            let accepted = self.tenants.get(&tenant).map_or(0, |t| t.accepted);
            if accepted >= quota {
                return self.shed(id, tenant, seq, ShedReason::QuotaExceeded);
            }
        }
        let entry = QueueEntry {
            priority: submission.priority,
            seq,
            payload: Job {
                id: id.clone(),
                tenant: tenant.clone(),
                spec: submission.spec,
                enqueued_at: Instant::now(),
            },
        };
        match self.shared.queue.push(entry) {
            Ok(depth) => {
                reg.add("icd.enqueued", 1);
                reg.add(&format!("icd.tenant.{tenant}.accepted"), 1);
                // Depth is wall-clock state (it depends on worker
                // timing), so it lives on the telemetry plane.
                let t = &self.shared.telemetry;
                t.gauge("icd.queue.depth").set(depth as u64);
                t.histogram("icd.queue.depth.at-enqueue")
                    .record(depth as u64);
                self.tenants.entry(tenant).or_default().accepted += 1;
                Disposition::Enqueued
            }
            Err(PushError::Full) => self.shed(id, tenant, seq, ShedReason::QueueFull),
            Err(PushError::Closed) => self.shed(id, tenant, seq, ShedReason::Draining),
        }
    }

    fn shed(&mut self, id: String, tenant: String, seq: usize, reason: ShedReason) -> Disposition {
        self.shared.registry.add("icd.shed", 1);
        self.shared
            .registry
            .add(&format!("icd.shed.{}", reason.label()), 1);
        self.shared
            .registry
            .add(&format!("icd.tenant.{tenant}.shed"), 1);
        self.tenants.entry(tenant.clone()).or_default().shed += 1;
        self.shared
            .results
            .lock()
            .unwrap()
            .insert(seq, CampaignResult::shed(id, tenant, seq, reason));
        Disposition::Shed(reason)
    }

    /// Starts the worker pool (idempotent).
    pub fn start(&mut self) {
        if !self.workers.is_empty() {
            return;
        }
        for w in 0..self.shared.config.width.max(1) {
            let shared = Arc::clone(&self.shared);
            self.workers.push(std::thread::spawn(move || {
                let lane = format!("icd.w{w}");
                let mut idle_from = shared.telemetry.now_ns();
                while let Some(entry) = shared.queue.pop() {
                    let t = &shared.telemetry;
                    let start = t.now_ns();
                    t.histogram("icd.worker.idle")
                        .record(start.saturating_sub(idle_from));
                    t.gauge("icd.queue.depth").set(shared.queue.depth() as u64);
                    shared.in_flight.fetch_add(1, Ordering::SeqCst);
                    t.gauge("icd.in_flight")
                        .set(shared.in_flight.load(Ordering::SeqCst) as u64);
                    let result = run_campaign(&shared, entry.seq, entry.payload);
                    shared.results.lock().unwrap().insert(entry.seq, result);
                    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                    let t = &shared.telemetry;
                    t.gauge("icd.in_flight")
                        .set(shared.in_flight.load(Ordering::SeqCst) as u64);
                    let end = t.now_ns();
                    t.histogram("icd.worker.busy")
                        .record(end.saturating_sub(start));
                    t.lane_span(lane.clone(), "campaign", start, end, entry.seq as u64);
                    idle_from = end;
                }
            }));
        }
    }

    /// Closes intake, finishes every accepted campaign, joins the
    /// workers, and returns all results in submission order. Late
    /// `submit` calls on a draining orchestrator shed with
    /// [`ShedReason::Draining`].
    pub fn drain(mut self) -> Vec<CampaignResult> {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.start();
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            // A worker that panicked already poisoned nothing we read
            // (results are inserted whole); surface the panic.
            worker.join().expect("orchestrator worker panicked");
        }
        let results = std::mem::take(&mut *self.shared.results.lock().unwrap());
        results.into_values().collect()
    }

    /// The deterministic orchestrator trace for a finished batch: one
    /// span per result on the control track, keyed by submission seq
    /// (not wall clock), so equal batches produce byte-equal traces at
    /// any width.
    pub fn batch_trace(results: &[CampaignResult]) -> Vec<Event> {
        let mut events = Vec::with_capacity(results.len() * 2);
        for r in results {
            let seq = r.seq as u64;
            events.push(
                Event::begin(seq, CONTROL_TRACK, "icd.campaign")
                    .with_arg("id", r.id.clone())
                    .with_arg("seq", seq),
            );
            let mut end = Event::end(seq, CONTROL_TRACK, "icd.campaign")
                .with_arg("status", r.status.label())
                .with_arg("attempts", u64::from(r.attempts()));
            if let Some(reason) = r.shed {
                end = end.with_arg("shed", reason.label());
            }
            events.push(end);
        }
        events
    }
}

/// Runs one campaign to its terminal result. Never panics on bad input:
/// unknown workloads and rejected specs become `Invalid` results.
fn run_campaign(shared: &Shared, seq: usize, job: Job) -> CampaignResult {
    let reg = &shared.registry;
    // Enqueue→dequeue dwell is pure wall clock: telemetry, never the
    // deterministic registry.
    shared
        .telemetry
        .record_wait(QUEUE_DWELL_HISTOGRAM, job.enqueued_at.elapsed());

    let invalid = |error: String| {
        reg.add("icd.invalid", 1);
        CampaignResult {
            id: job.id.clone(),
            tenant: job.tenant.clone(),
            seq,
            status: CampaignStatus::Invalid,
            report_json: None,
            trace_jsonl: None,
            error: Some(error),
            shed: None,
        }
    };

    let Some(source) = (shared.resolver)(&job.spec.workload) else {
        return invalid(format!("unknown workload {:?}", job.spec.workload));
    };

    let mut spec = job.spec.clone();
    // Per-campaign job budget on top of the campaign's own executor:
    // the spec may ask for fewer jobs than the budget, never more.
    let budget = shared.config.job_budget.max(1);
    spec.jobs = Some(spec.jobs.unwrap_or(budget).min(budget).max(1));

    let mut cfg = CheckerConfig::from_spec(&spec)
        .with_registry(Arc::clone(reg))
        .with_telemetry(Arc::clone(&shared.telemetry));
    if let Some(corpus) = &shared.corpus {
        cfg = cfg.with_run_cache(Arc::clone(corpus) as Arc<dyn RunCache>, &*spec.workload);
    }
    let sink = shared.config.trace.then(|| Arc::new(MemorySink::new()));
    if let Some(sink) = &sink {
        cfg = cfg.with_sink(Arc::clone(sink) as _);
    }
    let checker = match Checker::new(cfg) {
        Ok(c) => c,
        Err(e) => return invalid(format!("invalid spec: {e}")),
    };

    let trace = || sink.as_ref().map(|s| s.to_jsonl());
    let (status, report_json, trace_jsonl, error) = match checker.collect_runs(&move || source()) {
        Ok(runs) if runs.is_empty() => (
            CampaignStatus::Failed,
            None,
            trace(),
            Some("no run completed".to_owned()),
        ),
        Ok(runs) => {
            let report = CheckReport::from_runs(&runs);
            let artifact = CampaignBaseline::capture(
                &job.id,
                &spec.workload,
                spec.scheme,
                spec.base_seed,
                &runs[0],
                &report,
            );
            (
                CampaignStatus::Completed,
                Some(artifact.to_json()),
                trace(),
                None,
            )
        }
        Err(e) => (CampaignStatus::Failed, None, None, Some(e.to_string())),
    };
    reg.add(
        match status {
            CampaignStatus::Completed => "icd.completed",
            _ => "icd.failed",
        },
        1,
    );
    CampaignResult {
        id: job.id,
        tenant: job.tenant,
        seq,
        status,
        report_json,
        trace_jsonl,
        error,
        shed: None,
    }
}
