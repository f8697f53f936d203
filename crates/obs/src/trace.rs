//! Structured event traces keyed by *simulated* step count.
//!
//! Determinism contract: an [`Event`]'s `step`, `track`, `phase`,
//! `name`, and `args` are all functions of the simulated execution, so
//! for a fixed workload + scheduler seed the serialized trace is
//! byte-identical across host machines and reruns. An event has no
//! wall-clock field: time is measured on the telemetry plane
//! ([`Telemetry`](crate::Telemetry)), which never enters a trace.

use std::borrow::Cow;
use std::fmt;
use std::sync::Mutex;

use crate::json::{self, Layout, ToJson, Value};

/// An event or argument name: usually a static string, occasionally
/// computed.
pub type Name = Cow<'static, str>;

/// Track used for campaign-level control events (run begin/end,
/// divergence verdicts) that are not attributable to a simulated
/// thread.
pub const CONTROL_TRACK: u32 = u32::MAX;

/// Span phase of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span start.
    Begin,
    /// Span end.
    End,
    /// A point event with no duration.
    Instant,
}

impl Phase {
    /// One-letter code used in the serialized form (`B`, `E`, `I`).
    pub fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "I",
        }
    }

    fn from_code(code: &str) -> Option<Phase> {
        match code {
            "B" => Some(Phase::Begin),
            "E" => Some(Phase::End),
            "I" => Some(Phase::Instant),
            _ => None,
        }
    }
}

/// An event argument value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// An unsigned integer (counters, seeds, sequence numbers).
    U64(u64),
    /// A short string (scheme names, fault kinds, error classes).
    Str(Name),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::U64(u64::from(v))
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(Cow::Owned(v))
    }
}

/// An integer or a string: the same bytes in trace lines and in the
/// Chrome export.
impl ToJson for ArgValue {
    fn write_json(&self, out: &mut String, layout: Layout) {
        match self {
            ArgValue::U64(n) => n.write_json(out, layout),
            ArgValue::Str(s) => s.write_json(out, layout),
        }
    }
}

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated scheduler step at which the event occurred.
    pub step: u64,
    /// Simulated thread id, or [`CONTROL_TRACK`] for campaign-level
    /// events.
    pub track: u32,
    /// Span phase.
    pub phase: Phase,
    /// Event name (`run`, `sched`, `checkpoint`, `fault`, ...).
    pub name: Name,
    /// Deterministic key/value payload.
    pub args: Vec<(Name, ArgValue)>,
}

impl Event {
    /// A span-begin event.
    pub fn begin(step: u64, track: u32, name: impl Into<Name>) -> Event {
        Event::new(step, track, Phase::Begin, name)
    }

    /// A span-end event.
    pub fn end(step: u64, track: u32, name: impl Into<Name>) -> Event {
        Event::new(step, track, Phase::End, name)
    }

    /// A point event.
    pub fn instant(step: u64, track: u32, name: impl Into<Name>) -> Event {
        Event::new(step, track, Phase::Instant, name)
    }

    fn new(step: u64, track: u32, phase: Phase, name: impl Into<Name>) -> Event {
        Event {
            step,
            track,
            phase,
            name: name.into(),
            args: Vec::new(),
        }
    }

    /// Adds one argument (builder style).
    #[must_use]
    pub fn with_arg(mut self, key: impl Into<Name>, value: impl Into<ArgValue>) -> Event {
        self.args.push((key.into(), value.into()));
        self
    }

    /// Looks up an integer argument.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgValue::U64(n) if k == key => Some(*n),
            _ => None,
        })
    }

    /// Looks up a string argument.
    pub fn arg_str(&self, key: &str) -> Option<&str> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgValue::Str(s) if k == key => Some(s.as_ref()),
            _ => None,
        })
    }

    /// Serializes the event as one JSON line (no trailing newline).
    ///
    /// Field order is fixed (`step`, `track`, `ph`, `name`, `args`) so
    /// that equal events serialize to identical bytes.
    pub fn write_json_line(&self, out: &mut String) {
        json::object(out, Layout::Compact, |o| {
            o.field("step", &self.step)
                .field("track", &self.track)
                .field("ph", self.phase.code())
                .field("name", &*self.name)
                .object("args", |args| {
                    for (k, v) in &self.args {
                        args.field(k, v);
                    }
                });
        });
    }

    /// Reconstructs an event from a parsed JSON object.
    pub fn from_json(v: &Value) -> Result<Event, String> {
        let step = v
            .get("step")
            .and_then(Value::as_u64)
            .ok_or("missing step")?;
        let track = v
            .get("track")
            .and_then(Value::as_u64)
            .ok_or("missing track")?;
        let track = u32::try_from(track).map_err(|_| "track out of range".to_string())?;
        let phase = v
            .get("ph")
            .and_then(Value::as_str)
            .and_then(Phase::from_code)
            .ok_or("missing/invalid ph")?;
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing name")?
            .to_string();
        let mut args = Vec::new();
        if let Some(fields) = v.get("args").and_then(Value::fields) {
            for (k, av) in fields {
                let value = match av {
                    Value::Num(_) => {
                        ArgValue::U64(av.as_u64().ok_or_else(|| format!("bad arg {k}"))?)
                    }
                    Value::Str(s) => ArgValue::Str(Cow::Owned(s.clone())),
                    other => return Err(format!("unsupported arg value {other:?}")),
                };
                args.push((Cow::Owned(k.clone()), value));
            }
        }
        Ok(Event {
            step,
            track,
            phase,
            name: Cow::Owned(name),
            args,
        })
    }
}

/// Destination for trace events.
///
/// Implementations must be cheap when disabled: the default
/// [`NoopSink`] reports `enabled() == false`, and every emission site in
/// the engine/checker skips argument construction entirely in that
/// case.
pub trait EventSink: fmt::Debug + Send + Sync {
    /// Records one event.
    fn record(&self, event: Event);

    /// Whether this sink actually stores events. Emitters may (and do)
    /// skip building events when this returns `false`.
    fn enabled(&self) -> bool {
        true
    }
}

/// A sink that drops everything — the default, near-zero overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl EventSink for NoopSink {
    fn record(&self, _event: Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// An in-memory sink collecting events in arrival order.
///
/// It is also the building block of deterministic trace *merging*: a
/// parallel campaign hands each run slot its own `MemorySink`, lets the
/// slots execute concurrently (their events land in per-slot sinks,
/// never interleaving), and afterwards [`take`](MemorySink::take)s each
/// slot's events in slot order into the campaign's real sink. The merged
/// stream is then byte-identical to what a serial execution of the same
/// slots would have recorded, regardless of how many workers ran them.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the recorded events.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Takes the recorded events out, in recorded order, leaving the
    /// sink empty.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }

    /// Serializes all recorded events as JSON lines.
    pub fn to_jsonl(&self) -> String {
        events_to_jsonl(&self.events.lock().unwrap())
    }
}

impl EventSink for MemorySink {
    fn record(&self, event: Event) {
        self.events.lock().unwrap().push(event);
    }
}

/// Serializes events as JSON lines (one event per line, trailing
/// newline after each).
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        ev.write_json_line(&mut out);
        out.push('\n');
    }
    out
}

/// Parses a JSONL trace produced by [`events_to_jsonl`].
pub fn parse_jsonl(input: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push(Event::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Event> {
        vec![
            Event::begin(0, CONTROL_TRACK, "run")
                .with_arg("run", 0u64)
                .with_arg("seed", u64::MAX),
            Event::instant(3, 1, "sched").with_arg("tid", 1u32),
            Event::instant(7, 0, "checkpoint")
                .with_arg("seq", 0u64)
                .with_arg("kind", "barrier"),
            Event::end(12, CONTROL_TRACK, "run")
                .with_arg("ok", true)
                .with_arg("error", "none".to_string()),
        ]
    }

    #[test]
    fn jsonl_round_trip_is_lossless() {
        let events = sample();
        let text = events_to_jsonl(&events);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(events, back);
        // Re-serialization is byte-identical.
        assert_eq!(events_to_jsonl(&back), text);
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = events_to_jsonl(&sample());
        let b = events_to_jsonl(&sample());
        assert_eq!(a, b);
    }

    #[test]
    fn memory_sink_records_in_order() {
        let sink = MemorySink::new();
        for ev in sample() {
            sink.record(ev);
        }
        assert_eq!(sink.len(), 4);
        assert!(!sink.is_empty());
        assert_eq!(sink.events(), sample());
    }

    #[test]
    fn buffer_sink_flushes_in_recorded_order() {
        // A per-slot buffer is a MemorySink drained with take().
        let buffer = MemorySink::new();
        assert!(buffer.is_empty());
        for ev in sample() {
            buffer.record(ev);
        }
        assert_eq!(buffer.len(), 4);
        let dest = MemorySink::new();
        for ev in buffer.take() {
            dest.record(ev);
        }
        assert!(buffer.is_empty(), "take drains the buffer");
        assert_eq!(dest.events(), sample());
    }

    #[test]
    fn buffer_sink_discard_drops_everything() {
        // Discarding a slot's buffer is dropping what take() returns.
        let buffer = MemorySink::new();
        buffer.record(Event::instant(0, 0, "x"));
        drop(buffer.take());
        assert!(buffer.is_empty());
        assert!(buffer.take().is_empty());
    }

    #[test]
    fn noop_sink_is_disabled() {
        let sink = NoopSink;
        assert!(!sink.enabled());
        sink.record(Event::instant(0, 0, "dropped"));
        let mem = MemorySink::new();
        assert!(EventSink::enabled(&mem));
    }

    #[test]
    fn per_slot_buffers_merge_to_the_serial_order() {
        // Two "slots" record concurrently into separate sinks; the
        // coordinator takes them in slot order, reproducing exactly the
        // stream a serial execution would have produced.
        let serial = MemorySink::new();
        let merged = MemorySink::new();
        let slots: Vec<Vec<Event>> = vec![
            vec![
                Event::begin(0, CONTROL_TRACK, "run").with_arg("run", 0u64),
                Event::instant(5, 0, "sched"),
                Event::end(9, CONTROL_TRACK, "run"),
            ],
            vec![
                Event::begin(0, CONTROL_TRACK, "run").with_arg("run", 1u64),
                Event::end(4, CONTROL_TRACK, "run"),
            ],
        ];
        for events in &slots {
            for ev in events {
                serial.record(ev.clone());
            }
        }
        let buffers: Vec<MemorySink> = slots
            .iter()
            .map(|events| {
                let b = MemorySink::new();
                // Reverse-order slot completion must not matter.
                for ev in events {
                    b.record(ev.clone());
                }
                b
            })
            .collect();
        for b in &buffers {
            for ev in b.take() {
                merged.record(ev);
            }
        }
        assert_eq!(events_to_jsonl(&merged.events()), serial.to_jsonl());
    }

    #[test]
    fn arg_lookup() {
        let ev = Event::instant(0, 0, "x")
            .with_arg("n", 9u64)
            .with_arg("s", "txt");
        assert_eq!(ev.arg_u64("n"), Some(9));
        assert_eq!(ev.arg_str("s"), Some("txt"));
        assert_eq!(ev.arg_u64("s"), None);
        assert_eq!(ev.arg_str("missing"), None);
    }
}
