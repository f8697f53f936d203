//! The orchestrator's two contracts, end to end over real workloads:
//!
//! * **Determinism under orchestration** — a 10-campaign batch produces
//!   byte-identical per-campaign report and trace artifacts whether
//!   each spec runs alone through the checker or under `icd` at widths
//!   1, 2, and 4, against both a cold and a warm shared corpus — cold
//!   with two workers racing one spec's run keys.
//! * **Graceful degradation** — submitting more campaigns than the
//!   queue bound yields explicit shed outcomes (never a hang or a
//!   panic), the shed submissions still appear in the drain output in
//!   submission order, and the shed counts land in the metrics
//!   snapshot.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use corpus::{Corpus, CorpusOptions};
use instantcheck::{CampaignSpec, CheckReport, Checker, CheckerConfig, Scheme};
use obs::MemorySink;
use sched::{
    CampaignStatus, Disposition, HttpOptions, HttpServer, Orchestrator, OrchestratorConfig,
    ProgramSource, Resolver, Service, ShedReason, Submission,
};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("icd-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The same workload-id resolver the `icd` binary uses.
fn resolver() -> Resolver {
    Arc::new(|workload: &str| -> Option<ProgramSource> {
        let (app, scale) = workload.split_once(':')?;
        let scaled = match scale {
            "scaled" => true,
            "full" => false,
            _ => return None,
        };
        instantcheck_workloads::by_name(app, scaled).map(|a| a.build)
    })
}

/// Ten campaigns: five scaled apps at two seeds each.
fn batch() -> Vec<Submission> {
    let apps = ["fft", "lu", "radix", "canneal", "blackscholes"];
    let mut subs = Vec::new();
    for seed in [1u64, 2] {
        for app in apps {
            let spec = CampaignSpec::new(format!("{app}:scaled"), Scheme::HwInc)
                .with_runs(3)
                .with_base_seed(seed);
            subs.push(Submission::new(format!("{app}-s{seed}"), spec));
        }
    }
    subs
}

/// The solo reference: the spec run directly through the checker, no
/// orchestrator, no corpus — `(report_json, trace_jsonl)`.
fn solo_artifacts(sub: &Submission) -> (String, String) {
    let sink = Arc::new(MemorySink::new());
    let cfg = CheckerConfig::from_spec(&sub.spec).with_sink(Arc::clone(&sink) as _);
    let source = resolver()(&sub.spec.workload).expect("registered workload");
    let runs = Checker::new(cfg)
        .expect("valid spec")
        .collect_runs(&move || source())
        .expect("campaign completes");
    let report = CheckReport::from_runs(&runs);
    let baseline = corpus::CampaignBaseline::capture(
        &sub.id,
        &sub.spec.workload,
        sub.spec.scheme,
        sub.spec.base_seed,
        &runs[0],
        &report,
    );
    (baseline.to_json(), sink.to_jsonl())
}

#[test]
fn batch_artifacts_are_byte_identical_at_widths_1_2_4_cold_and_warm() {
    // The batch plus a twin of its first spec under a second id, queued
    // right behind it: at widths 2 and 4 two workers run the same run
    // keys at once, so on a cold corpus they race to claim them.
    let mut subs = batch();
    subs.insert(1, Submission::new("fft-s1-twin", subs[0].spec.clone()));
    let reference: Vec<(String, String)> = subs.iter().map(solo_artifacts).collect();

    let warm = tempdir("det");
    let cold2 = tempdir("det-cold-w2");
    let cold4 = tempdir("det-cold-w4");
    // Width 1 runs against a cold corpus; widths 2 and 4 (and the
    // final width-1 pass) replay warm from the same store. Widths 2
    // and 4 then each run once more against a fresh corpus.
    let mut distinct_runs = None;
    for (pass, width, dir, cold) in [
        (0usize, 1usize, &warm, true),
        (1, 2, &warm, false),
        (2, 4, &warm, false),
        (3, 1, &warm, false),
        (4, 2, &cold2, true),
        (5, 4, &cold4, true),
    ] {
        let store = Arc::new(Corpus::open(CorpusOptions::at(dir)).expect("corpus opens"));
        let config = OrchestratorConfig {
            width,
            trace: true,
            ..OrchestratorConfig::default()
        };
        let mut icd = Orchestrator::new(config, resolver(), Some(Arc::clone(&store)));
        icd.start();
        for sub in subs.clone() {
            assert_eq!(icd.submit(sub), Disposition::Enqueued);
        }
        let results = icd.drain();
        assert_eq!(results.len(), subs.len());
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.seq, i, "results in submission order");
            assert_eq!(r.id, subs[i].id);
            assert_eq!(
                r.status,
                CampaignStatus::Completed,
                "pass {pass} width {width} {}: {:?}",
                r.id,
                r.error
            );
            assert_eq!(
                r.report_json.as_deref(),
                Some(reference[i].0.as_str()),
                "pass {pass} width {width} {}: report bytes == solo bytes",
                r.id
            );
            assert_eq!(
                r.trace_jsonl.as_deref(),
                Some(reference[i].1.as_str()),
                "pass {pass} width {width} {}: trace bytes == solo bytes",
                r.id
            );
        }
        // Every cold pass appends each distinct run exactly once, however
        // many workers raced for it.
        if cold {
            let stores = *distinct_runs.get_or_insert(store.stores());
            assert_eq!(store.stores(), stores, "pass {pass} width {width}: stores");
        }
    }
    for dir in [warm, cold2, cold4] {
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The daemon-shaped contract at the library level: N concurrent
/// "clients" (threads) interleaving submissions through one shared
/// [`Service`] must produce per-campaign artifacts byte-identical to
/// solo runs — arrival order across connections is allowed to vary
/// (submission `seq` is arrival-ordered), but artifact bytes, keyed by
/// campaign id, are not.
#[test]
fn concurrent_clients_produce_solo_identical_artifacts() {
    let subs = batch();
    let reference: BTreeMap<String, (String, String)> = subs
        .iter()
        .map(|s| (s.id.clone(), solo_artifacts(s)))
        .collect();

    let config = OrchestratorConfig {
        width: 2,
        trace: true,
        ..OrchestratorConfig::default()
    };
    let svc = Arc::new(Service::new(Orchestrator::new(config, resolver(), None)));
    let mut clients = Vec::new();
    for (client, chunk) in subs.chunks(3).enumerate() {
        let svc = Arc::clone(&svc);
        let chunk = chunk.to_vec();
        clients.push(std::thread::spawn(move || {
            for sub in chunk {
                let sub = sub.with_tenant(format!("client{client}"));
                assert_eq!(svc.submit(sub).1, Disposition::Enqueued);
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }
    let results = svc.drain();
    assert_eq!(results.len(), subs.len());
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.seq, i, "results stay in submission order");
        assert_eq!(
            r.status,
            CampaignStatus::Completed,
            "{}: {:?}",
            r.id,
            r.error
        );
        let (report, trace) = &reference[&r.id];
        assert_eq!(
            r.report_json.as_deref(),
            Some(report.as_str()),
            "{}: report bytes == solo bytes under interleaved clients",
            r.id
        );
        assert_eq!(
            r.trace_jsonl.as_deref(),
            Some(trace.as_str()),
            "{}: trace bytes == solo bytes under interleaved clients",
            r.id
        );
    }
}

/// The telemetry plane is strictly observational: with the HTTP
/// listener bound and a client scraping `/status`, `/metrics`, and
/// `/profile` the whole time the batch runs, per-campaign artifacts
/// stay byte-identical to solo runs at widths 1, 2, and 4 (cold then
/// warm corpus). The test also pins that the wait histograms really
/// observed samples — queue dwell and cache acquisitions — so the
/// "telemetry changed nothing" result is not vacuous.
#[test]
fn live_scraping_telemetry_leaves_artifacts_byte_identical() {
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connects");
        let _ = stream.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes());
        let mut reply = Vec::new();
        let _ = stream.read_to_end(&mut reply);
        String::from_utf8_lossy(&reply).into_owned()
    }

    let subs = batch();
    let reference: Vec<(String, String)> = subs.iter().map(solo_artifacts).collect();

    let dir = tempdir("telemetry");
    for width in [1usize, 2, 4] {
        let store = Arc::new(Corpus::open(CorpusOptions::at(&dir)).expect("corpus opens"));
        let config = OrchestratorConfig {
            width,
            trace: true,
            ..OrchestratorConfig::default()
        };
        let svc = Arc::new(Service::new(Orchestrator::new(
            config,
            resolver(),
            Some(store),
        )));
        let mut server = HttpServer::bind("127.0.0.1:0", Arc::clone(&svc), HttpOptions::default())
            .expect("binds an ephemeral port");
        let addr = server.local_addr();

        // The scraper hammers every endpoint until the drain is done.
        // It signals after its first full round, and the batch is only
        // submitted then, so it scrapes however fast the drain is.
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready) = std::sync::mpsc::channel();
        let scraper = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scrapes = 0usize;
                loop {
                    for path in ["/status", "/metrics", "/profile"] {
                        let reply = get(addr, path);
                        assert!(
                            reply.starts_with("HTTP/1.1 200 "),
                            "{path} under load: {}",
                            reply.lines().next().unwrap_or("")
                        );
                        scrapes += 1;
                    }
                    let _ = ready_tx.send(());
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                scrapes
            })
        };
        ready.recv().expect("the scraper finishes its first round");

        for sub in subs.clone() {
            assert_eq!(svc.submit(sub).1, Disposition::Enqueued);
        }
        let results = svc.drain();
        stop.store(true, Ordering::SeqCst);
        let scrapes = scraper.join().unwrap();
        assert!(scrapes > 0, "the scraper actually ran");

        assert_eq!(results.len(), subs.len());
        for (i, r) in results.iter().enumerate() {
            assert_eq!(
                r.status,
                CampaignStatus::Completed,
                "{}: {:?}",
                r.id,
                r.error
            );
            assert_eq!(
                r.report_json.as_deref(),
                Some(reference[i].0.as_str()),
                "width {width} {}: report bytes == solo bytes while scraped",
                r.id
            );
            assert_eq!(
                r.trace_jsonl.as_deref(),
                Some(reference[i].1.as_str()),
                "width {width} {}: trace bytes == solo bytes while scraped",
                r.id
            );
        }

        // The side channel really recorded: dwell once per campaign,
        // a cache acquisition timing on every corpus acquisition.
        let snap = svc.telemetry().snapshot();
        let dwell = &snap.histograms[sched::QUEUE_DWELL_HISTOGRAM];
        assert_eq!(dwell.count, subs.len() as u64, "one dwell per campaign");
        let acquires = &snap.histograms[corpus::CACHE_ACQUIRE_HISTOGRAM];
        assert!(acquires.count > 0, "cache acquisitions were timed");

        // And /metrics — served past drain — exposes both series with
        // their observed sample counts.
        let metrics = get(addr, "/metrics");
        assert!(metrics.contains("icd_queue_dwell_seconds_count 10"));
        assert!(metrics.contains("icd_cache_acquire_seconds_count"));
        assert!(metrics.contains("icd_cache_probes_total"));
        server.shutdown();
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Quota-exceeded submissions get an explicit disposition, and the
/// accepted subset's artifacts still match solo bytes — one tenant
/// exhausting its budget cannot perturb anyone's results.
#[test]
fn quota_exceeded_sheds_but_accepted_subset_matches_solo_bytes() {
    let subs = batch();
    let config = OrchestratorConfig {
        tenant_quota: Some(2),
        ..OrchestratorConfig::default()
    };
    let svc = Service::new(Orchestrator::new(config, resolver(), None));
    // The first five submissions come from a greedy tenant with a
    // budget of two; the rest are spread over well-behaved tenants.
    for (i, sub) in subs.iter().cloned().enumerate() {
        let tenant = if i < 5 {
            "greedy".to_owned()
        } else {
            format!("t{i}")
        };
        let (_, d) = svc.submit(sub.with_tenant(tenant));
        if (2..5).contains(&i) {
            assert_eq!(d, Disposition::Shed(ShedReason::QuotaExceeded), "sub {i}");
        } else {
            assert_eq!(d, Disposition::Enqueued, "sub {i}");
        }
    }
    let results = svc.drain();
    assert_eq!(results.len(), subs.len());
    for (i, r) in results.iter().enumerate() {
        if (2..5).contains(&i) {
            assert_eq!(r.status, CampaignStatus::Shed);
            assert_eq!(r.shed, Some(ShedReason::QuotaExceeded));
            assert_eq!(r.tenant, "greedy");
        } else {
            assert_eq!(r.status, CampaignStatus::Completed, "{:?}", r.error);
            let (report, _) = solo_artifacts(&subs[i]);
            assert_eq!(
                r.report_json.as_deref(),
                Some(report.as_str()),
                "{}: accepted subset bytes == solo bytes",
                r.id
            );
        }
    }
}

#[test]
fn overload_sheds_explicitly_and_surfaces_in_metrics() {
    let subs = batch();
    let config = OrchestratorConfig {
        width: 2,
        queue_capacity: 4,
        ..OrchestratorConfig::default()
    };
    // Workers deliberately not started: every submission past the
    // queue bound must shed, deterministically.
    let mut icd = Orchestrator::new(config, resolver(), None);
    let dispositions: Vec<Disposition> = subs.into_iter().map(|s| icd.submit(s)).collect();
    assert!(dispositions[..4]
        .iter()
        .all(|d| *d == Disposition::Enqueued));
    assert!(dispositions[4..]
        .iter()
        .all(|d| *d == Disposition::Shed(ShedReason::QueueFull)));

    let snap = icd.registry().snapshot();
    assert_eq!(snap.counters.get("icd.submitted"), Some(&10));
    assert_eq!(snap.counters.get("icd.enqueued"), Some(&4));
    assert_eq!(snap.counters.get("icd.shed"), Some(&6));
    assert_eq!(snap.counters.get("icd.shed.queue-full"), Some(&6));

    // Drain still finishes the accepted four and reports all ten, in
    // order, with explicit terminal states.
    let results = icd.drain();
    assert_eq!(results.len(), 10);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.seq, i);
        if i < 4 {
            assert_eq!(r.status, CampaignStatus::Completed, "{:?}", r.error);
        } else {
            assert_eq!(r.status, CampaignStatus::Shed);
            assert_eq!(r.shed, Some(ShedReason::QueueFull));
        }
    }
}
