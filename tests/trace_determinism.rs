//! The observability determinism contract, checked end to end: a traced
//! campaign is a pure function of (workload, configuration, seed), so
//! running it twice yields byte-identical serialized traces, and traces
//! from different seeds differ exactly where the recorded events say
//! they do.

use std::sync::Arc;

use instantcheck::{Checker, CheckerConfig, Scheme};
use obs::{events_to_jsonl, Event, MemorySink};
use tsim::{Program, ProgramBuilder, ValKind};

fn last_writer() -> Program {
    // Nondeterministic: last writer wins, detected at the End checkpoint.
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

fn commuting_sum() -> Program {
    let mut b = ProgramBuilder::new(4);
    let g = b.global("G", ValKind::U64, 1);
    let bar = b.barrier();
    let lock = b.mutex();
    for t in 0..4u64 {
        b.thread(async move |ctx| {
            let p = ctx.malloc("scratch", tsim::TypeTag::u64s(), 2).await;
            ctx.store(p, t).await;
            ctx.barrier(bar).await;
            ctx.lock(lock).await;
            let v = ctx.load(g.at(0)).await;
            ctx.store(g.at(0), v + (t + 1) * 10).await;
            ctx.unlock(lock).await;
            ctx.free(p).await;
        });
    }
    b.build()
}

fn traced_campaign_jobs(source: fn() -> Program, base_seed: u64, jobs: usize) -> Vec<Event> {
    let sink = Arc::new(MemorySink::new());
    let cfg = CheckerConfig::new(Scheme::HwInc)
        .with_runs(6)
        .with_base_seed(base_seed)
        .with_cache_model()
        .with_jobs(jobs)
        .with_sink(sink.clone());
    Checker::new(cfg)
        .expect("valid config")
        .check(source)
        .expect("campaign completes");
    sink.events()
}

fn traced_campaign(source: fn() -> Program, base_seed: u64) -> Vec<Event> {
    traced_campaign_jobs(source, base_seed, 1)
}

#[test]
fn parallel_campaign_trace_is_byte_identical_to_serial() {
    // The parallel executor buffers each fanned-out slot's events and
    // flushes them in slot order, so the worker count must be invisible
    // in the serialized trace.
    for source in [commuting_sum as fn() -> Program, last_writer] {
        let serial = events_to_jsonl(&traced_campaign_jobs(source, 7, 1));
        for jobs in [2, 8] {
            let parallel = events_to_jsonl(&traced_campaign_jobs(source, 7, jobs));
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }
}

#[test]
fn same_seed_campaign_traces_are_byte_identical() {
    let a = traced_campaign(commuting_sum, 7);
    let b = traced_campaign(commuting_sum, 7);
    assert!(!a.is_empty());
    assert_eq!(events_to_jsonl(&a), events_to_jsonl(&b));

    // The JSONL round-trips losslessly, so re-serializing the parsed
    // trace is also byte-identical.
    let text = events_to_jsonl(&a);
    let reparsed = obs::parse_jsonl(&text).expect("trace parses");
    assert_eq!(events_to_jsonl(&reparsed), text);
}

#[test]
fn nondeterministic_campaign_traces_are_byte_identical_too() {
    // Determinism of the *trace* is about the checker being replayable,
    // not about the workload being deterministic.
    let a = traced_campaign(last_writer, 1);
    let b = traced_campaign(last_writer, 1);
    assert_eq!(events_to_jsonl(&a), events_to_jsonl(&b));
}

#[test]
fn differing_seeds_differ_at_the_recorded_divergent_checkpoint() {
    let a = traced_campaign(last_writer, 1);
    let b = traced_campaign(last_writer, 100);
    assert_ne!(
        events_to_jsonl(&a),
        events_to_jsonl(&b),
        "different base seeds schedule differently"
    );

    // Each trace records where the campaign first diverged from its own
    // first run; `last_writer` has a single End checkpoint, so the
    // divergence events must point at checkpoint 0, and the profile of
    // each trace agrees with the events.
    for trace in [&a, &b] {
        let divs: Vec<&Event> = trace.iter().filter(|e| e.name == "divergence").collect();
        assert!(!divs.is_empty(), "last-writer campaigns diverge");
        for d in &divs {
            assert_eq!(d.arg_u64("checkpoint"), Some(0));
        }
        let profile = obs::CampaignProfile::from_events(trace);
        assert_eq!(profile.divergences.len(), divs.len());
        assert_eq!(profile.divergences[0].checkpoint, Some(0));
    }
}
