//! `sched` — the InstantCheck multi-campaign orchestrator.
//!
//! The paper's workflow is "run many checking campaigns and compare
//! hashes"; everything below this crate runs exactly one campaign per
//! call. `sched` turns that into a *service*: an [`Orchestrator`]
//! accepts batches of [`Submission`]s (each one a serializable
//! [`CampaignSpec`]), runs them on a bounded worker pool with
//! per-campaign job budgets, and multiplexes one shared
//! [`corpus::Corpus`] — a log-structured run store behind a lock-free
//! memo cache — so concurrent campaigns never serialize on storage and
//! never compute the same run twice.
//!
//! Two contracts, both enforced by tests:
//!
//! * **Determinism under orchestration.** A campaign's report and
//!   trace bytes are identical whether it runs alone or under the
//!   orchestrator at any width. Everything wall-clock-dependent (queue
//!   waits, cache contention) lives in metrics, never in artifacts;
//!   results are keyed and ordered by submission sequence, not
//!   completion order. A campaign runs once: its runs are bounded by
//!   the spec's deterministic step budget, never by a clock, so a
//!   failed campaign would fail the same way again and is not retried.
//! * **Graceful degradation.** The queue is bounded: submissions past
//!   the bound are *shed* with an explicit
//!   [`Disposition::Shed`] outcome (never a hang, never a panic) and
//!   appear in both the metrics snapshot (`icd.shed`) and the drain
//!   output.
//!
//! A [`Service`] is served by two fault-isolating servers that share
//! one connection core (accept loop, bounded frame reader, close
//! reasons): the JSONL submission intake on a unix socket
//! ([`serve_socket`], with [`read_submissions`] for batch files and
//! stdin) and the read-only HTTP telemetry listener ([`HttpServer`]).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use instantcheck::{CampaignSpec, Scheme};
//! use sched::{Orchestrator, OrchestratorConfig, ProgramSource, Submission};
//! use tsim::{ProgramBuilder, ValKind};
//!
//! // A resolver maps workload ids to program builders.
//! let resolver = Arc::new(|workload: &str| {
//!     (workload == "g-plus-t").then(|| -> ProgramSource {
//!         Arc::new(|| {
//!             let mut b = ProgramBuilder::new(2);
//!             let g = b.global("G", ValKind::U64, 1);
//!             let lock = b.mutex();
//!             for t in 0..2u64 {
//!                 b.thread(async move |ctx| {
//!                     ctx.lock(lock).await;
//!                     let v = ctx.load(g.at(0)).await;
//!                     ctx.store(g.at(0), v + t + 1).await;
//!                     ctx.unlock(lock).await;
//!                 });
//!             }
//!             b.build()
//!         })
//!     })
//! });
//!
//! let mut icd = Orchestrator::new(OrchestratorConfig::default(), resolver, None);
//! let spec = CampaignSpec::new("g-plus-t", Scheme::HwInc).with_runs(4);
//! icd.submit(Submission::new("demo", spec));
//! let results = icd.drain();
//! assert_eq!(results.len(), 1);
//! assert!(results[0].report_json.is_some());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod conn;
mod http;
mod intake;
mod orchestrator;
mod queue;
mod service;

pub use http::{HttpOptions, HttpServer, METRICS_CONTENT_TYPE};
pub use instantcheck::CampaignSpec;
pub use intake::{parse_submission, read_submissions, serve_socket, SocketOptions, MAX_LINE_BYTES};
pub use orchestrator::{
    CampaignResult, CampaignStatus, Disposition, Orchestrator, OrchestratorConfig, ProgramSource,
    Resolver, ShedReason, Submission, TenantStats, DEFAULT_TENANT, QUEUE_DWELL_HISTOGRAM,
};
pub use service::Service;

/// Queue priority: higher pops first; ties run in submission order.
pub type Priority = i64;

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use corpus::{Corpus, CorpusOptions};
    use instantcheck::Scheme;
    use tsim::{ProgramBuilder, ValKind};

    use super::*;

    /// A corpus opened in a fresh temp dir, removed on drop.
    pub(crate) struct TempCorpus {
        dir: PathBuf,
        pub(crate) corpus: Arc<Corpus>,
    }

    impl TempCorpus {
        pub(crate) fn new() -> TempCorpus {
            static SERIAL: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "sched-corpus-{}-{}",
                std::process::id(),
                SERIAL.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let corpus = Arc::new(Corpus::open(CorpusOptions::at(&dir)).unwrap());
            TempCorpus { dir, corpus }
        }
    }

    impl Drop for TempCorpus {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn resolver() -> Resolver {
        Arc::new(|workload: &str| {
            (workload == "racy-sum").then(|| -> ProgramSource {
                Arc::new(|| {
                    let mut b = ProgramBuilder::new(2);
                    let g = b.global("G", ValKind::U64, 1);
                    let lock = b.mutex();
                    for t in 0..2u64 {
                        b.thread(async move |ctx| {
                            ctx.lock(lock).await;
                            let v = ctx.load(g.at(0)).await;
                            ctx.store(g.at(0), v + t + 1).await;
                            ctx.unlock(lock).await;
                        });
                    }
                    b.build()
                })
            })
        })
    }

    fn spec() -> CampaignSpec {
        CampaignSpec::new("racy-sum", Scheme::HwInc).with_runs(3)
    }

    #[test]
    fn overload_sheds_explicitly_and_counts_it() {
        let config = OrchestratorConfig {
            queue_capacity: 2,
            ..OrchestratorConfig::default()
        };
        // Workers not started: submissions stay queued, so the shed
        // boundary is exact and deterministic.
        let mut icd = Orchestrator::new(config, resolver(), None);
        let mut dispositions = Vec::new();
        for i in 0..5 {
            dispositions.push(icd.submit(Submission::new(format!("c{i}"), spec())));
        }
        assert_eq!(
            dispositions[..2],
            [Disposition::Enqueued, Disposition::Enqueued]
        );
        for d in &dispositions[2..] {
            assert_eq!(*d, Disposition::Shed(ShedReason::QueueFull));
        }
        assert_eq!(icd.queue_depth(), 2);
        let snap = icd.registry().snapshot();
        assert_eq!(snap.counters.get("icd.submitted"), Some(&5));
        assert_eq!(snap.counters.get("icd.shed"), Some(&3));
        assert_eq!(snap.counters.get("icd.shed.queue-full"), Some(&3));

        // Drain still runs the two accepted campaigns and reports all
        // five submissions, in order.
        let results = icd.drain();
        assert_eq!(results.len(), 5);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.seq, i);
            assert_eq!(r.id, format!("c{i}"));
        }
        assert!(results[..2]
            .iter()
            .all(|r| r.status == CampaignStatus::Completed));
        assert!(results[2..].iter().all(|r| {
            r.status == CampaignStatus::Shed && r.shed == Some(ShedReason::QueueFull)
        }));
    }

    #[test]
    fn unknown_workload_is_invalid_not_a_panic() {
        let mut icd = Orchestrator::new(OrchestratorConfig::default(), resolver(), None);
        let mut bad = spec();
        bad.workload = "no-such-app".into();
        icd.submit(Submission::new("bad", bad));
        icd.submit(Submission::new("zero", spec().with_runs(0)));
        let results = icd.drain();
        assert_eq!(results[0].status, CampaignStatus::Invalid);
        assert!(results[0].error.as_deref().unwrap().contains("no-such-app"));
        assert_eq!(results[1].status, CampaignStatus::Invalid);
        assert!(results[1]
            .error
            .as_deref()
            .unwrap()
            .contains("at least one run"));
    }

    #[test]
    fn report_bytes_match_a_solo_campaign_at_any_width() {
        // The solo path: same spec, run directly through the checker.
        let solo = {
            let spec = spec();
            let runs = instantcheck::Checker::from_spec(&spec)
                .unwrap()
                .collect_runs(&|| {
                    let source = resolver()("racy-sum").unwrap();
                    source()
                })
                .unwrap();
            let report = instantcheck::CheckReport::from_runs(&runs);
            corpus::CampaignBaseline::capture(
                "c3",
                &spec.workload,
                spec.scheme,
                spec.base_seed,
                &runs[0],
                &report,
            )
            .to_json()
        };
        for width in [1, 2, 4] {
            let config = OrchestratorConfig {
                width,
                trace: true,
                ..OrchestratorConfig::default()
            };
            let corpus = TempCorpus::new();
            let mut icd = Orchestrator::new(config, resolver(), Some(Arc::clone(&corpus.corpus)));
            for i in 0..6 {
                icd.submit(Submission::new(format!("c{i}"), spec()));
            }
            icd.start();
            let results = icd.drain();
            assert_eq!(results.len(), 6);
            for r in &results {
                assert_eq!(r.status, CampaignStatus::Completed, "{:?}", r.error);
            }
            assert_eq!(
                results[3].report_json.as_deref().unwrap(),
                solo,
                "width {width}: orchestrated bytes == solo bytes"
            );
        }
    }

    #[test]
    fn priorities_run_first_but_results_stay_in_submission_order() {
        let mut icd = Orchestrator::new(
            OrchestratorConfig {
                width: 1,
                ..OrchestratorConfig::default()
            },
            resolver(),
            None,
        );
        icd.submit(Submission::new("low", spec()));
        icd.submit(Submission::new("high", spec()).with_priority(10));
        let results = icd.drain();
        assert_eq!(results[0].id, "low");
        assert_eq!(results[1].id, "high");
        assert!(results
            .iter()
            .all(|r| r.status == CampaignStatus::Completed));
    }

    #[test]
    fn tenant_quota_sheds_explicitly_per_tenant() {
        let config = OrchestratorConfig {
            tenant_quota: Some(2),
            ..OrchestratorConfig::default()
        };
        let mut icd = Orchestrator::new(config, resolver(), None);
        for i in 0..4 {
            let d = icd.submit(Submission::new(format!("a{i}"), spec()).with_tenant("alice"));
            if i < 2 {
                assert_eq!(d, Disposition::Enqueued);
            } else {
                assert_eq!(d, Disposition::Shed(ShedReason::QuotaExceeded));
            }
        }
        // One tenant's exhaustion never affects another's budget.
        assert_eq!(
            icd.submit(Submission::new("b0", spec()).with_tenant("bob")),
            Disposition::Enqueued
        );
        assert_eq!(
            icd.tenant_stats()["alice"],
            TenantStats {
                accepted: 2,
                shed: 2
            }
        );
        assert_eq!(icd.tenant_stats()["bob"].accepted, 1);
        let snap = icd.registry().snapshot();
        assert_eq!(snap.counters.get("icd.tenant.alice.accepted"), Some(&2));
        assert_eq!(snap.counters.get("icd.tenant.alice.shed"), Some(&2));
        assert_eq!(snap.counters.get("icd.shed.quota-exceeded"), Some(&2));
        let results = icd.drain();
        assert_eq!(results.len(), 5);
        assert_eq!(results[2].status, CampaignStatus::Shed);
        assert_eq!(results[2].shed, Some(ShedReason::QuotaExceeded));
        assert_eq!(results[2].tenant, "alice");
        assert!(results[..2]
            .iter()
            .all(|r| r.status == CampaignStatus::Completed));
    }

    #[test]
    fn empty_submission_id_defaults_to_seq() {
        let mut icd = Orchestrator::new(OrchestratorConfig::default(), resolver(), None);
        icd.submit(Submission::new("", spec()));
        icd.submit(Submission::new("named", spec()));
        icd.submit(Submission::new("", spec()));
        let results = icd.drain();
        let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["c0", "named", "c2"]);
    }

    #[test]
    fn service_is_share_safe_and_drains_once() {
        let svc = Arc::new(Service::new(Orchestrator::new(
            OrchestratorConfig::default(),
            resolver(),
            None,
        )));
        let mut handles = Vec::new();
        for t in 0..4 {
            let svc = Arc::clone(&svc);
            handles.push(std::thread::spawn(move || {
                for i in 0..3 {
                    let sub =
                        Submission::new(format!("t{t}-{i}"), spec()).with_tenant(format!("t{t}"));
                    assert_eq!(svc.submit(sub).1, Disposition::Enqueued);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let status = obs::json::parse(&svc.status_json()).unwrap();
        assert_eq!(status.get("draining"), Some(&obs::json::Value::Bool(false)));
        assert_eq!(status.get("submitted").unwrap().as_u64(), Some(12));
        assert_eq!(
            status
                .get("tenants")
                .unwrap()
                .get("t0")
                .unwrap()
                .get("accepted")
                .unwrap()
                .as_u64(),
            Some(3)
        );

        let results = svc.drain();
        assert_eq!(results.len(), 12);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.seq, i, "results stay in submission order");
            assert_eq!(r.status, CampaignStatus::Completed, "{:?}", r.error);
        }
        let mut ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12, "every submission reported exactly once");

        assert!(svc.is_draining());
        assert!(svc.drain().is_empty(), "second drain is empty");
        assert_eq!(
            svc.submit(Submission::new("late", spec())).1,
            Disposition::Shed(ShedReason::Draining)
        );
        let status = obs::json::parse(&svc.status_json()).unwrap();
        assert_eq!(status.get("draining"), Some(&obs::json::Value::Bool(true)));
    }

    #[test]
    fn batch_trace_is_a_pure_function_of_the_results() {
        let mut icd = Orchestrator::new(OrchestratorConfig::default(), resolver(), None);
        icd.submit(Submission::new("a", spec()));
        icd.submit(Submission::new("b", spec().with_runs(0)));
        let results = icd.drain();
        let trace = obs::events_to_jsonl(&Orchestrator::batch_trace(&results));
        let again = obs::events_to_jsonl(&Orchestrator::batch_trace(&results));
        assert_eq!(trace, again);
        assert!(trace.contains("icd.campaign"));
        assert!(trace.contains("invalid"));
    }

    #[test]
    fn summary_json_is_deterministic_and_labeled() {
        let mut icd = Orchestrator::new(
            OrchestratorConfig {
                queue_capacity: 1,
                ..OrchestratorConfig::default()
            },
            resolver(),
            None,
        );
        icd.submit(Submission::new("kept", spec()));
        icd.submit(Submission::new("dropped", spec()));
        let results = icd.drain();
        assert_eq!(
            results[1].summary_json(),
            "{\"id\":\"dropped\",\"tenant\":\"anon\",\"seq\":1,\"status\":\"shed\",\
             \"attempts\":0,\"shed\":\"queue-full\",\"error\":null}"
        );
        assert!(results[0]
            .summary_json()
            .contains("\"status\":\"completed\""));
    }
}
