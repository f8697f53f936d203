//! Deterministic observability for the InstantCheck reproduction.
//!
//! Two facilities, both dependency-free:
//!
//! * **Metrics** ([`Registry`]): named monotonic [`Counter`]s and
//!   log2-bucket [`Histogram`]s with a [`Snapshot`]/delta API. Handles
//!   are atomics behind `Arc`s, so incrementing is lock-free.
//! * **Event traces** ([`EventSink`]): spans and instant events keyed
//!   by *simulated step count*, not wall clock, so a trace is a pure
//!   function of (workload, scheduler seed) and two identical campaigns
//!   serialize to byte-identical files. An [`Event`] has no wall-clock
//!   field.
//!
//! On top of the trace format sit [`profile::CampaignProfile`] (the
//! analysis behind `icprof`) and [`chrome::chrome_trace`]
//! (`chrome://tracing` export).
//!
//! A third facility, [`telemetry`], is the deliberate opposite of the
//! first two: a **wall-clock side-channel** (lock-wait histograms,
//! gauges, worker lane spans) that never enters the deterministic
//! artifacts. A [`TelemetrySnapshot`] is pulled (`icd`'s `GET /profile`
//! and `/metrics`, and `profile.json` at drain), never pushed.
//!
//! The default sink is [`NoopSink`]; emitters check
//! [`EventSink::enabled`] before building events, so observability off
//! means near-zero overhead.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod telemetry;
pub mod trace;

pub use chrome::{chrome_lanes, chrome_trace};
pub use metrics::{Counter, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use profile::{CacheCounters, CampaignProfile, Divergence, RunProfile};
pub use telemetry::{prometheus_text, Gauge, LaneSpan, Telemetry, TelemetrySnapshot};
pub use trace::{
    events_to_jsonl, parse_jsonl, ArgValue, Event, EventSink, MemorySink, Name, NoopSink, Phase,
    CONTROL_TRACK,
};
