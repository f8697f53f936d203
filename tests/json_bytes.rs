//! The exact bytes of every JSON writer whose output is an artifact,
//! a wire reply or an operator body: specs, corpus baselines, registry
//! and telemetry snapshots, trace lines, the Chrome export, batch
//! summaries and the daemon's status body. Artifacts are compared
//! byte for byte across runs, widths and commits, so a writer may
//! change how it is built but never one byte of what it emits. Each
//! value below reaches every branch of its writer.

use std::collections::BTreeMap;
use std::sync::Arc;

use adhash::FpRound;
use corpus::CampaignBaseline;
use instantcheck::{CampaignSpec, FailurePolicy, IgnoreSpec, Scheme};
use obs::json::{self, Value};
use obs::{
    chrome_lanes, chrome_trace, events_to_jsonl, Event, LaneSpan, Registry, TelemetrySnapshot,
    CONTROL_TRACK,
};
use sched::{
    CampaignResult, CampaignStatus, Orchestrator, OrchestratorConfig, Service, ShedReason,
};
use tsim::{FaultKind, FaultPlan, SwitchPolicy, Trigger};

/// A spec with every optional field set: ignore globals with and
/// without a range, sites with and without offsets, two fault plans
/// (one with two triggers, one empty), `jobs` and every corpus field.
fn full_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new("fft:scaled \"q\"", Scheme::SwTr)
        .with_runs(30)
        .with_base_seed(u64::MAX)
        .with_policy(FailurePolicy::Retry { max_retries: 2 })
        .with_jobs(4);
    spec.lib_seed = 7;
    spec.switch = SwitchPolicy::EveryNth(3);
    spec.rounding = Some(FpRound::MaskMantissa { bits: 8 });
    spec.max_steps = 123_456;
    spec.cache_model = true;
    spec.ignore = IgnoreSpec::new()
        .ignore_global("G")
        .ignore_global_range("H", 2, 5)
        .ignore_site("s1")
        .ignore_site_offsets("s2", [0, 3]);
    spec.fault_plans = vec![
        (
            1,
            FaultPlan::new(9)
                .with(
                    FaultKind::BitFlip,
                    Trigger::Rate {
                        num: 1,
                        denom: 1000,
                    },
                )
                .with(FaultKind::AllocFail, Trigger::Nth(2)),
        ),
        (4, FaultPlan::new(10)),
    ];
    spec
}

#[test]
fn spec_bytes() {
    assert_eq!(
        full_spec().to_json(),
        r#"{"version":1,"workload":"fft:scaled \"q\"","scheme":"SwTr","runs":30,"base_seed":18446744073709551615,"lib_seed":7,"switch":"every-nth:3","rounding":"mask-mantissa:8","policy":"retry:2:reseed","max_steps":123456,"jobs":4,"cache_model":true,"ignore":{"globals":[["G",null],["H",[2,5]]],"sites":[["s1",null],["s2",[0,3]]]},"faults":[{"slot":1,"seed":9,"triggers":[["bit-flip","rate:1/1000"],["alloc-fail","nth:2"]]},{"slot":4,"seed":10,"triggers":[]}]}"#
    );
    let bare = CampaignSpec::new("sum", Scheme::HwInc);
    assert_eq!(
        bare.to_json(),
        r#"{"version":1,"workload":"sum","scheme":"HwInc","runs":30,"base_seed":1,"lib_seed":65261,"switch":"sync-only","rounding":"none","policy":"abort","max_steps":20000000,"jobs":null,"cache_model":false,"ignore":{"globals":[],"sites":[]},"faults":[]}"#
    );
}

#[test]
fn baseline_bytes() {
    let full = CampaignBaseline {
        name: "canneal \"scaled\"".to_owned(),
        workload: "canneal:scaled".to_owned(),
        scheme: "hw-inc".to_owned(),
        runs: 8,
        base_seed: 1,
        reference: vec![("checkpoint".to_owned(), 42), ("end".to_owned(), u64::MAX)],
        output_digest: 99,
        det_at_end: true,
        ndet_points: 0,
        structural_divergence: false,
        failed_runs: 1,
        groups: vec![("1".to_owned(), 7), ("1-2".to_owned(), 1)],
    };
    assert_eq!(
        full.to_json(),
        r#"{
  "name": "canneal \"scaled\"",
  "workload": "canneal:scaled",
  "scheme": "hw-inc",
  "runs": 8,
  "base_seed": 1,
  "output_digest": 99,
  "det_at_end": true,
  "ndet_points": 0,
  "structural_divergence": false,
  "failed_runs": 1,
  "reference": [
    ["checkpoint", 42],
    ["end", 18446744073709551615]
  ],
  "groups": [
    ["1", 7],
    ["1-2", 1]
  ]
}
"#
    );
    let empty = CampaignBaseline {
        reference: Vec::new(),
        groups: Vec::new(),
        ..full
    };
    assert_eq!(
        empty.to_json(),
        r#"{
  "name": "canneal \"scaled\"",
  "workload": "canneal:scaled",
  "scheme": "hw-inc",
  "runs": 8,
  "base_seed": 1,
  "output_digest": 99,
  "det_at_end": true,
  "ndet_points": 0,
  "structural_divergence": false,
  "failed_runs": 1,
  "reference": [
  ],
  "groups": [
  ]
}
"#
    );
}

#[test]
fn registry_snapshot_bytes() {
    let registry = Registry::new();
    assert_eq!(
        registry.snapshot().to_json(),
        r#"{"counters":{},"histograms":{}}"#
    );
    registry.add("runs", 3);
    registry.add("a\"b", 1);
    let h = registry.histogram("lat");
    for v in [0, 1, 5, 1000] {
        h.record(v);
    }
    registry.histogram("idle");
    assert_eq!(
        registry.snapshot().to_json(),
        r#"{"counters":{"a\"b":1,"runs":3},"histograms":{"idle":{"count":0,"sum":0,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},"lat":{"count":4,"sum":1006,"buckets":[1,1,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}}"#
    );
}

fn histogram(values: &[u64]) -> obs::HistogramSnapshot {
    let registry = Registry::new();
    let h = registry.histogram("h");
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

#[test]
fn telemetry_snapshot_bytes() {
    assert_eq!(
        TelemetrySnapshot::default().to_json(),
        r#"{"uptime_ns":0,"counters":{},"gauges":{},"histograms":{},"dropped_lanes":0,"lanes":[]}"#
    );
    let snap = TelemetrySnapshot {
        uptime_ns: 5_000,
        counters: BTreeMap::from([("c1".to_owned(), 1), ("c\n2".to_owned(), 2)]),
        gauges: BTreeMap::from([("depth".to_owned(), 3)]),
        histograms: BTreeMap::from([
            ("wait".to_owned(), histogram(&[10, 2_000, 70_000])),
            ("empty".to_owned(), histogram(&[])),
        ]),
        lanes: vec![
            LaneSpan {
                lane: "icd.w0".to_owned(),
                name: "campaign".to_owned(),
                start_ns: 1_000,
                end_ns: 9_000,
                detail: 2,
            },
            LaneSpan {
                lane: "icd.\"w1\"".to_owned(),
                name: "idle".to_owned(),
                start_ns: 0,
                end_ns: 0,
                detail: 0,
            },
        ],
        dropped_lanes: 4,
    };
    assert_eq!(
        snap.to_json(),
        r#"{"uptime_ns":5000,"counters":{"c\n2":2,"c1":1},"gauges":{"depth":3},"histograms":{"empty":{"count":0,"sum":0,"p50":0,"p95":0,"p99":0,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},"wait":{"count":3,"sum":72010,"p50":2047,"p95":131071,"p99":131071,"buckets":[0,0,0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}},"dropped_lanes":4,"lanes":[{"lane":"icd.w0","name":"campaign","start_ns":1000,"end_ns":9000,"detail":2},{"lane":"icd.\"w1\"","name":"idle","start_ns":0,"end_ns":0,"detail":0}]}"#
    );
}

fn events() -> Vec<Event> {
    vec![
        Event::begin(0, CONTROL_TRACK, "run")
            .with_arg("run", 2u64)
            .with_arg("seed", u64::MAX),
        Event::begin(1, 0, "sched"),
        Event::instant(3, 0, "checkpoint")
            .with_arg("note", String::from("a\"b\\c\nd\te\u{1}"))
            .with_arg("n", 4u64),
        Event::instant(7, 1, "fault").with_arg("kind", "bit-flip"),
        Event::end(5, 0, "sched"),
        Event::end(0, CONTROL_TRACK, "run"),
        Event::instant(9, CONTROL_TRACK, "bare").with_arg("x", 0u64),
        Event::end(8, 1, "fault"),
    ]
}

#[test]
fn trace_line_bytes() {
    assert_eq!(
        events_to_jsonl(&events()),
        r#"{"step":0,"track":4294967295,"ph":"B","name":"run","args":{"run":2,"seed":18446744073709551615}}
{"step":1,"track":0,"ph":"B","name":"sched","args":{}}
{"step":3,"track":0,"ph":"I","name":"checkpoint","args":{"note":"a\"b\\c\nd\te\u0001","n":4}}
{"step":7,"track":1,"ph":"I","name":"fault","args":{"kind":"bit-flip"}}
{"step":5,"track":0,"ph":"E","name":"sched","args":{}}
{"step":0,"track":4294967295,"ph":"E","name":"run","args":{}}
{"step":9,"track":4294967295,"ph":"I","name":"bare","args":{"x":0}}
{"step":8,"track":1,"ph":"E","name":"fault","args":{}}
"#
    );
}

#[test]
fn chrome_bytes() {
    assert_eq!(
        chrome_trace(&events()),
        r#"{"traceEvents":[{"name":"run","ph":"B","ts":0,"pid":2,"tid":0,"args":{"run":2,"seed":18446744073709551615}},{"name":"sched","ph":"B","ts":1,"pid":2,"tid":1,"args":{}},{"name":"checkpoint","ph":"i","ts":3,"pid":2,"tid":1,"s":"t","args":{"note":"a\"b\\c\nd\te\u0001","n":4}},{"name":"fault","ph":"i","ts":7,"pid":2,"tid":2,"s":"t","args":{"kind":"bit-flip"}},{"name":"sched","ph":"E","ts":7,"pid":2,"tid":1,"args":{}},{"name":"run","ph":"E","ts":7,"pid":2,"tid":0,"args":{}},{"name":"bare","ph":"i","ts":9,"pid":2,"tid":0,"s":"t","args":{"x":0}},{"name":"fault","ph":"E","ts":9,"pid":2,"tid":2,"args":{}}],"displayTimeUnit":"ms"}"#
    );
    assert_eq!(
        chrome_trace(&[]),
        r#"{"traceEvents":[],"displayTimeUnit":"ms"}"#
    );
    let lanes = vec![
        LaneSpan {
            lane: "w1".to_owned(),
            name: "slot".to_owned(),
            start_ns: 2_500,
            end_ns: 2_600,
            detail: 7,
        },
        LaneSpan {
            lane: "w\"0".to_owned(),
            name: "campaign".to_owned(),
            start_ns: 1_000,
            end_ns: 9_000,
            detail: 1,
        },
        LaneSpan {
            lane: "w1".to_owned(),
            name: "idle".to_owned(),
            start_ns: 10_000,
            end_ns: 20_000,
            detail: 0,
        },
    ];
    assert_eq!(
        chrome_lanes(&events(), &lanes),
        r#"{"traceEvents":[{"name":"run","ph":"B","ts":0,"pid":2,"tid":0,"args":{"run":2,"seed":18446744073709551615}},{"name":"sched","ph":"B","ts":1,"pid":2,"tid":1,"args":{}},{"name":"checkpoint","ph":"i","ts":3,"pid":2,"tid":1,"s":"t","args":{"note":"a\"b\\c\nd\te\u0001","n":4}},{"name":"fault","ph":"i","ts":7,"pid":2,"tid":2,"s":"t","args":{"kind":"bit-flip"}},{"name":"sched","ph":"E","ts":7,"pid":2,"tid":1,"args":{}},{"name":"run","ph":"E","ts":7,"pid":2,"tid":0,"args":{}},{"name":"bare","ph":"i","ts":9,"pid":2,"tid":0,"s":"t","args":{"x":0}},{"name":"fault","ph":"E","ts":9,"pid":2,"tid":2,"args":{}},{"name":"thread_name","ph":"M","pid":1000000,"tid":1,"args":{"name":"w\"0"}},{"name":"thread_name","ph":"M","pid":1000000,"tid":0,"args":{"name":"w1"}},{"name":"slot","ph":"X","ts":2,"dur":1,"pid":1000000,"tid":0,"args":{"detail":7}},{"name":"campaign","ph":"X","ts":1,"dur":8,"pid":1000000,"tid":1,"args":{"detail":1}},{"name":"idle","ph":"X","ts":10,"dur":10,"pid":1000000,"tid":0,"args":{"detail":0}}],"displayTimeUnit":"ms"}"#
    );
    assert_eq!(
        chrome_lanes(&[], &lanes),
        r#"{"traceEvents":[{"name":"thread_name","ph":"M","pid":1000000,"tid":1,"args":{"name":"w\"0"}},{"name":"thread_name","ph":"M","pid":1000000,"tid":0,"args":{"name":"w1"}},{"name":"slot","ph":"X","ts":2,"dur":1,"pid":1000000,"tid":0,"args":{"detail":7}},{"name":"campaign","ph":"X","ts":1,"dur":8,"pid":1000000,"tid":1,"args":{"detail":1}},{"name":"idle","ph":"X","ts":10,"dur":10,"pid":1000000,"tid":0,"args":{"detail":0}}],"displayTimeUnit":"ms"}"#
    );
    assert_eq!(chrome_lanes(&events(), &[]), chrome_trace(&events()));
}

#[test]
fn summary_bytes() {
    let shed = CampaignResult {
        id: "dropped".to_owned(),
        tenant: "t\"1".to_owned(),
        seq: 3,
        status: CampaignStatus::Shed,
        report_json: None,
        trace_jsonl: None,
        error: None,
        shed: Some(ShedReason::QuotaExceeded),
    };
    assert_eq!(
        shed.summary_json(),
        r#"{"id":"dropped","tenant":"t\"1","seq":3,"status":"shed","attempts":0,"shed":"quota-exceeded","error":null}"#
    );
    let failed = CampaignResult {
        id: "f".to_owned(),
        tenant: "anon".to_owned(),
        seq: 0,
        status: CampaignStatus::Failed,
        report_json: None,
        trace_jsonl: None,
        error: Some("run 3: deadlock \"x\"".to_owned()),
        shed: None,
    };
    assert_eq!(
        failed.summary_json(),
        r#"{"id":"f","tenant":"anon","seq":0,"status":"failed","attempts":1,"shed":null,"error":"run 3: deadlock \"x\""}"#
    );
}

fn fresh_service() -> Service {
    Service::new(Orchestrator::new(
        OrchestratorConfig::default(),
        Arc::new(|_: &str| None),
        None,
    ))
}

#[test]
fn status_bytes() {
    assert_eq!(
        fresh_service().status_json(),
        r#"{"draining":false,"submitted":0,"queue_depth":0,"in_flight":0,"tenants":{},"corpus":null,"counters":{}}"#
    );
}

/// The keys of an object, in order.
fn keys(v: &Value) -> Vec<&str> {
    v.fields()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn profile_key_order() {
    let body = fresh_service().profile_json();
    let v = json::parse(&body).expect("profile body parses");
    assert_eq!(keys(&v), ["telemetry", "cache"]);
    assert_eq!(v.get("cache"), Some(&Value::Null));
    assert_eq!(
        keys(v.get("telemetry").unwrap()),
        [
            "uptime_ns",
            "counters",
            "gauges",
            "histograms",
            "dropped_lanes",
            "lanes"
        ]
    );
}
