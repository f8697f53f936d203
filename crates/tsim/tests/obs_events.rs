//! Engine → observability-sink integration: the simulator emits
//! scheduler, checkpoint, alloc/free, and fault events keyed by
//! simulated step, and identical seeded runs emit identical traces.

use std::sync::Arc;

use obs::{events_to_jsonl, Event, EventSink, MemorySink};
use tsim::{FaultKind, FaultPlan, ProgramBuilder, RunConfig, Trigger, TypeTag, ValKind};

fn traced_run(seed: u64) -> Vec<Event> {
    let sink = Arc::new(MemorySink::new());
    let mut b = ProgramBuilder::new(2);
    let g = b.global("G", ValKind::U64, 1);
    let bar = b.barrier();
    for _ in 0..2 {
        b.thread(async move |ctx| {
            let buf = ctx.malloc("buf", TypeTag::u64s(), 4).await;
            ctx.store(buf, ctx.tid() as u64 + 1).await;
            ctx.barrier(bar).await;
            let v = ctx.load(buf).await;
            ctx.fetch_add(g.at(0), v).await;
            ctx.free(buf).await;
        });
    }
    let cfg = RunConfig::random(seed).with_sink(sink.clone());
    b.build().run(&cfg).unwrap();
    sink.events()
}

#[test]
fn engine_emits_expected_event_kinds() {
    let events = traced_run(1);
    let names: Vec<&str> = events.iter().map(|e| e.name.as_ref()).collect();
    assert!(names.contains(&"sched"));
    assert!(names.contains(&"alloc"));
    assert!(names.contains(&"free"));
    assert!(names.contains(&"checkpoint"));
    // One barrier checkpoint + the end-of-run checkpoint.
    let cps: Vec<&Event> = events.iter().filter(|e| e.name == "checkpoint").collect();
    assert_eq!(cps.len(), 2);
    assert_eq!(cps[0].arg_u64("seq"), Some(0));
    assert_eq!(cps[0].arg_str("kind"), Some("barrier"));
    assert_eq!(cps[1].arg_str("kind"), Some("end"));
    // Allocations report their size.
    let alloc = events.iter().find(|e| e.name == "alloc").unwrap();
    assert_eq!(alloc.arg_u64("words"), Some(4));
    // Steps never decrease (events are recorded in serialized order).
    assert!(events.windows(2).all(|w| w[0].step <= w[1].step));
}

#[test]
fn same_seed_emits_byte_identical_trace() {
    let a = traced_run(7);
    let b = traced_run(7);
    assert_eq!(events_to_jsonl(&a), events_to_jsonl(&b));
}

#[test]
fn fault_injection_shows_up_in_trace() {
    let sink = Arc::new(MemorySink::new());
    let mut b = ProgramBuilder::new(1);
    let g = b.global("G", ValKind::U64, 1);
    b.thread(async move |ctx| {
        ctx.store(g.at(0), 1).await;
        ctx.store(g.at(0), 2).await;
    });
    let plan = FaultPlan::new(11).with(FaultKind::BitFlip, Trigger::Nth(1));
    let cfg = RunConfig::random(0)
        .with_faults(plan)
        .with_sink(sink.clone());
    b.build().run(&cfg).unwrap();
    let faults: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| e.name == "fault")
        .collect();
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].arg_str("kind"), Some("bit-flip"));
    assert_eq!(faults[0].arg_u64("tid"), Some(0));
}

#[test]
fn disabled_sink_is_dropped_at_run_start() {
    // A NoopSink reports enabled() == false; the run must not record
    // anything through it (and must not pay for event construction).
    #[derive(Debug)]
    struct PanicSink;
    impl EventSink for PanicSink {
        fn record(&self, _: Event) {
            panic!("disabled sink must never receive events");
        }
        fn enabled(&self) -> bool {
            false
        }
    }
    let mut b = ProgramBuilder::new(1);
    let g = b.global("G", ValKind::U64, 1);
    b.thread(async move |ctx| ctx.store(g.at(0), 1).await);
    let cfg = RunConfig::random(0).with_sink(Arc::new(PanicSink));
    b.build().run(&cfg).unwrap();
}
