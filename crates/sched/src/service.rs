//! A share-safe front end for the orchestrator: the daemon-facing
//! [`Service`].
//!
//! [`Orchestrator`] is deliberately single-owner (`submit` takes `&mut
//! self`, `drain` consumes `self`) so its accounting needs no internal
//! locks. A daemon serving many concurrent client connections needs the
//! opposite shape: one shared handle that any handler thread can submit
//! through, poll for status, and ask to drain — exactly once — while
//! late arrivals get an explicit answer instead of a hang or a panic.
//! [`Service`] is that adapter: a mutex around `Option<Orchestrator>`
//! plus a drain latch.
//!
//! Concurrency contract: the mutex serializes *intake* (submission
//! sequence assignment and quota accounting), never campaign
//! *execution* — workers run on the orchestrator's own pool and only
//! touch the lock-free results map and registry. `drain` takes the
//! orchestrator out of the mutex and blocks outside it, so `status_json`
//! and `submit` stay responsive (answering "draining") for the whole
//! drain.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use corpus::{Corpus, LogStats, SharedCacheStats};
use obs::json::{self, Layout};
use obs::{Registry, Telemetry};

use crate::orchestrator::TenantStats;
use crate::{CampaignResult, Disposition, Orchestrator, ShedReason, Submission};

/// The intake-side numbers a status reply reports, frozen at drain
/// time so `status` keeps answering while the drain runs.
#[derive(Debug, Clone, Default)]
struct StatusCore {
    submitted: usize,
    queue_depth: usize,
    in_flight: usize,
    tenants: BTreeMap<String, TenantStats>,
}

struct Inner {
    orch: Option<Orchestrator>,
    /// Last observed intake state; authoritative once `orch` is taken.
    frozen: StatusCore,
}

/// A thread-safe, drain-once wrapper around one [`Orchestrator`].
///
/// Handler threads share a `Arc<Service>`; each call locks intake just
/// long enough to assign a sequence number. After
/// [`begin_drain`](Service::begin_drain) (or the first
/// [`drain`](Service::drain)), further submissions shed with
/// [`ShedReason::Draining`] and [`status_json`](Service::status_json)
/// reports `"draining":true`.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use instantcheck::{CampaignSpec, Scheme};
/// use sched::{Orchestrator, OrchestratorConfig, ProgramSource, Service, Submission};
/// use tsim::{ProgramBuilder, ValKind};
///
/// let resolver = Arc::new(|workload: &str| {
///     (workload == "counter").then(|| -> ProgramSource {
///         Arc::new(|| {
///             let mut b = ProgramBuilder::new(1);
///             let g = b.global("G", ValKind::U64, 1);
///             b.thread(async move |ctx| ctx.store(g.at(0), 7).await);
///             b.build()
///         })
///     })
/// });
/// let orch = Orchestrator::new(OrchestratorConfig::default(), resolver, None);
/// let svc = Arc::new(Service::new(orch));
/// let spec = CampaignSpec::new("counter", Scheme::HwInc).with_runs(2);
/// let (id, _) = svc.submit(Submission::new("demo", spec));
/// assert_eq!(id, "demo");
/// let results = svc.drain();
/// assert_eq!(results.len(), 1);
/// assert!(results[0].report_json.is_some());
/// ```
pub struct Service {
    inner: Mutex<Inner>,
    draining: AtomicBool,
    registry: Arc<Registry>,
    telemetry: Arc<Telemetry>,
    /// Kept outside the intake mutex (and past drain) so `/metrics`
    /// and `/profile` can read cache tallies and log-structure gauges
    /// without blocking intake.
    corpus: Option<Arc<Corpus>>,
}

impl Service {
    /// Wraps an orchestrator, starting its worker pool.
    pub fn new(mut orch: Orchestrator) -> Self {
        orch.start();
        let registry = Arc::clone(orch.registry());
        let telemetry = Arc::clone(orch.telemetry());
        let corpus = orch.corpus().cloned();
        Service {
            inner: Mutex::new(Inner {
                orch: Some(orch),
                frozen: StatusCore::default(),
            }),
            draining: AtomicBool::new(false),
            registry,
            telemetry,
            corpus,
        }
    }

    /// The orchestrator's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The orchestrator's wall-clock telemetry plane.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Contention and occupancy tallies of the corpus's memo cache;
    /// `None` without a corpus. Usable during and after drain.
    pub fn cache_stats(&self) -> Option<SharedCacheStats> {
        self.corpus.as_ref().map(|c| c.cache_stats())
    }

    /// Log-structure tallies of the corpus (segments, live/garbage
    /// bytes, compactions); `None` without a corpus or when the corpus
    /// is ephemeral. Usable during and after drain.
    pub fn log_stats(&self) -> Option<LogStats> {
        self.corpus.as_ref().and_then(|c| c.log_stats())
    }

    /// Offers one submission on behalf of a connection handler,
    /// returning the (possibly defaulted) campaign id alongside the
    /// disposition so the caller can echo it back to the client. Never
    /// blocks on campaign execution — only on intake serialization.
    /// After drain has begun the submission sheds with
    /// [`ShedReason::Draining`] (and, once the orchestrator is taken,
    /// is no longer part of the batch result set — the client's
    /// disposition reply is its only record).
    pub fn submit(&self, mut submission: Submission) -> (String, Disposition) {
        let mut inner = self.inner.lock().unwrap();
        match inner.orch.as_mut() {
            Some(orch) => {
                if submission.id.is_empty() {
                    submission.id = format!("c{}", orch.submitted());
                }
                let id = submission.id.clone();
                (id, orch.submit(submission))
            }
            None => (submission.id, Disposition::Shed(ShedReason::Draining)),
        }
    }

    /// Submissions seen so far (enqueued + shed).
    pub fn submitted(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        match &inner.orch {
            Some(orch) => orch.submitted(),
            None => inner.frozen.submitted,
        }
    }

    /// Whether drain has been requested (or completed).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Requests drain; returns `true` for the first caller. Intake
    /// stays nominally open until [`drain`](Service::drain) runs, but
    /// callers are expected to stop submitting once this flips.
    pub fn begin_drain(&self) -> bool {
        !self.draining.swap(true, Ordering::SeqCst)
    }

    /// Campaigns queued but not yet claimed by a worker.
    pub fn queue_depth(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        match &inner.orch {
            Some(orch) => orch.queue_depth(),
            None => inner.frozen.queue_depth,
        }
    }

    /// Closes intake, finishes every accepted campaign, and returns
    /// all results in submission order. Idempotent: the first caller
    /// gets the batch, later callers get an empty vec. The blocking
    /// wait happens *outside* the intake lock, so `submit` and
    /// `status_json` keep answering (as draining) throughout.
    pub fn drain(&self) -> Vec<CampaignResult> {
        self.draining.store(true, Ordering::SeqCst);
        let orch = {
            let mut inner = self.inner.lock().unwrap();
            if let Some(orch) = &inner.orch {
                inner.frozen = StatusCore {
                    submitted: orch.submitted(),
                    queue_depth: orch.queue_depth(),
                    in_flight: orch.in_flight(),
                    tenants: orch.tenant_stats().clone(),
                };
            }
            inner.orch.take()
        };
        match orch {
            Some(orch) => orch.drain(),
            None => Vec::new(),
        }
    }

    /// A deterministic-schema status snapshot as one line of JSON:
    /// sorted keys, stable field set —
    /// `{"draining":…,"submitted":…,"queue_depth":…,"in_flight":…,
    /// "tenants":{…},"corpus":{…}|null,"counters":{…}}`. The *values*
    /// are live (queue depth, counters, cache tallies) and therefore
    /// wall-clock-dependent; status is an operator endpoint, never an
    /// artifact.
    pub fn status_json(&self) -> String {
        let core = {
            let inner = self.inner.lock().unwrap();
            match &inner.orch {
                Some(orch) => StatusCore {
                    submitted: orch.submitted(),
                    queue_depth: orch.queue_depth(),
                    in_flight: orch.in_flight(),
                    tenants: orch.tenant_stats().clone(),
                },
                None => inner.frozen.clone(),
            }
        };
        let mut out = String::new();
        json::object(&mut out, Layout::Compact, |o| {
            o.field("draining", &self.is_draining())
                .field("submitted", &core.submitted)
                .field("queue_depth", &core.queue_depth)
                .field("in_flight", &core.in_flight)
                .object("tenants", |tenants| {
                    for (name, stats) in &core.tenants {
                        tenants.object(name, |o| {
                            o.field("accepted", &stats.accepted)
                                .field("shed", &stats.shed);
                        });
                    }
                });
            match self.cache_stats() {
                Some(s) => o.object("corpus", |o| {
                    o.field("cache_capacity", &s.capacity)
                        .field("published", &s.published)
                        .field("in_flight", &s.in_flight)
                        .field("cas_retries", &s.cas_retries)
                        .field("waits", &s.waits)
                        .field("wait_ns", &s.wait_ns);
                    match self.log_stats() {
                        Some(l) => o.object("log", |o| {
                            o.field("segments", &l.segments)
                                .field("live_records", &l.live_records)
                                .field("live_bytes", &l.live_bytes)
                                .field("garbage_bytes", &l.garbage_bytes)
                                .field("total_bytes", &l.total_bytes)
                                .field("compactions", &l.compactions);
                        }),
                        None => o.field("log", &()),
                    };
                }),
                None => o.field("corpus", &()),
            };
            o.field("counters", &self.registry.snapshot().counters);
        });
        out
    }

    /// Prometheus text exposition (v0.0.4) of the telemetry plane plus
    /// the deterministic registry — the `/metrics` body. Shared-cache
    /// contention tallies export as `icd_cache_*_total` counters
    /// (probes, probe steps, CAS retries, in-flight waits, arena-full
    /// fallbacks) and `icd_cache_*` occupancy gauges; a log-structured
    /// corpus additionally exports `icd_corpus_*` series (segments,
    /// live/garbage bytes, compaction and eviction totals).
    pub fn metrics_text(&self) -> String {
        let mut out =
            obs::prometheus_text(Some(&self.registry.snapshot()), &self.telemetry.snapshot());
        if let Some(s) = self.cache_stats() {
            for (name, value) in [
                ("icd_cache_probes_total", s.probes),
                ("icd_cache_probe_steps_total", s.probe_steps),
                ("icd_cache_cas_retries_total", s.cas_retries),
                ("icd_cache_waits_total", s.waits),
                ("icd_cache_wait_ns_total", s.wait_ns),
                ("icd_cache_arena_full_total", s.arena_full),
            ] {
                let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
            }
            for (name, value) in [
                ("icd_cache_capacity_slots", s.capacity as u64),
                ("icd_cache_published_slots", s.published),
                ("icd_cache_in_flight_slots", s.in_flight),
                ("icd_cache_abandoned_slots", s.abandoned),
            ] {
                let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
            }
        }
        if let Some(s) = self.log_stats() {
            for (name, value) in [
                ("icd_corpus_compactions_total", s.compactions),
                ("icd_corpus_compacted_records_total", s.compacted_records),
                ("icd_corpus_evicted_records_total", s.evicted_records),
            ] {
                let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
            }
            for (name, value) in [
                ("icd_corpus_segments", s.segments),
                ("icd_corpus_live_records", s.live_records),
                ("icd_corpus_live_bytes", s.live_bytes),
                ("icd_corpus_garbage_bytes", s.garbage_bytes),
                ("icd_corpus_total_bytes", s.total_bytes),
                ("icd_corpus_open_ns", s.open_ns),
            ] {
                let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
            }
        }
        out
    }

    /// The `/profile` body: the full telemetry snapshot (histograms
    /// with p50/p95/p99, worker lanes) plus the shared-cache contention
    /// table, as one JSON object —
    /// `{"telemetry":{…},"cache":{"capacity":…,"published":…,
    /// "in_flight":…,"abandoned":…,"probes":…,"probe_steps":…,
    /// "cas_retries":…,"waits":…,"wait_ns":…,"arena_full":…}|null}`.
    /// Wall-clock throughout; never an artifact.
    pub fn profile_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, Layout::Compact, |o| {
            o.field("telemetry", &self.telemetry.snapshot());
            match self.cache_stats() {
                Some(s) => o.object("cache", |o| {
                    o.field("capacity", &s.capacity)
                        .field("published", &s.published)
                        .field("in_flight", &s.in_flight)
                        .field("abandoned", &s.abandoned)
                        .field("probes", &s.probes)
                        .field("probe_steps", &s.probe_steps)
                        .field("cas_retries", &s.cas_retries)
                        .field("waits", &s.waits)
                        .field("wait_ns", &s.wait_ns)
                        .field("arena_full", &s.arena_full);
                }),
                None => o.field("cache", &()),
            };
        });
        out
    }
}
