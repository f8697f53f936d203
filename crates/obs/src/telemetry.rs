//! The wall-clock telemetry side-channel.
//!
//! Everything in this module is **strictly off the deterministic
//! artifact path**: where [`Registry`](crate::Registry) counts
//! simulated work (and therefore must snapshot to byte-identical JSON
//! for byte-identical campaigns), [`Telemetry`] measures *time* — lock
//! waits, queue dwell, worker utilization, request latency — which is
//! allowed (expected!) to differ run to run. The two planes never mix:
//! nothing recorded here reaches a report, trace, or metrics artifact
//! that is byte-compared, and nothing here feeds back into scheduling
//! decisions.
//!
//! Facilities:
//!
//! * [`Telemetry`] — a registry of wall-clock [`Histogram`]s (recorded
//!   in nanoseconds, log2 buckets, p50/p95/p99 extraction), [`Gauge`]s,
//!   monotonic [`Counter`]s, and a bounded [`LaneSpan`] log attributing
//!   busy/idle time to named worker lanes.
//! * [`TelemetrySnapshot`] — a frozen copy with deterministic-schema
//!   JSON (the `/profile` endpoint body and the `profile.json`
//!   artifact).
//! * [`prometheus_text`] — Prometheus text exposition (v0.0.4) of a
//!   telemetry snapshot plus, optionally, the deterministic registry's
//!   counters and histograms.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::json::{self, Layout, ToJson, Value};
use crate::metrics::{Counter, Histogram, HistogramSnapshot, Snapshot};

/// A set-or-add instantaneous value (queue depth, in-flight count,
/// connected clients). Unlike a [`Counter`] it can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrements by `n` (saturating at zero).
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One wall-clock attribution span on a named lane: "worker `w2` was
/// busy with slot 7 from 1.2ms to 4.8ms after telemetry start".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSpan {
    /// The lane (e.g. `icd.w0`, `chk.w1`).
    pub lane: String,
    /// What the lane was doing (`campaign`, `slot`, `idle`).
    pub name: String,
    /// Span start, nanoseconds since telemetry start.
    pub start_ns: u64,
    /// Span end, nanoseconds since telemetry start.
    pub end_ns: u64,
    /// Free-form numeric detail (slot index, submission seq).
    pub detail: u64,
}

/// One deterministic-schema JSON object.
impl ToJson for LaneSpan {
    fn write_json(&self, out: &mut String, layout: Layout) {
        json::object(out, layout, |o| {
            o.field("lane", &self.lane)
                .field("name", &self.name)
                .field("start_ns", &self.start_ns)
                .field("end_ns", &self.end_ns)
                .field("detail", &self.detail);
        });
    }
}

impl LaneSpan {
    /// Parses a span from its JSON object form.
    pub fn from_json(v: &Value) -> Result<LaneSpan, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("lane span missing {k:?}"));
        Ok(LaneSpan {
            lane: field("lane")?
                .as_str()
                .ok_or("lane must be a string")?
                .to_owned(),
            name: field("name")?
                .as_str()
                .ok_or("name must be a string")?
                .to_owned(),
            start_ns: field("start_ns")?
                .as_u64()
                .ok_or("start_ns must be a u64")?,
            end_ns: field("end_ns")?.as_u64().ok_or("end_ns must be a u64")?,
            detail: v.get("detail").and_then(Value::as_u64).unwrap_or(0),
        })
    }
}

/// Default bound on the retained lane-span log.
const DEFAULT_LANE_CAP: usize = 16_384;

/// The wall-clock telemetry registry. Cheap to share (`Arc`) and cheap
/// to record into: histogram/gauge/counter handles are atomics, the
/// lane log takes a short mutex per span.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use obs::Telemetry;
///
/// let t = Telemetry::new();
/// t.counter("icd.http.requests").inc();
/// t.gauge("icd.queue.depth").set(3);
/// t.record_wait("icd.cache.wait", Duration::from_micros(120));
/// let snap = t.snapshot();
/// assert_eq!(snap.counters["icd.http.requests"], 1);
/// assert_eq!(snap.histograms["icd.cache.wait"].count, 1);
/// // The snapshot renders as the `/profile` JSON body and as
/// // Prometheus text exposition for `/metrics`.
/// let text = obs::prometheus_text(None, &snap);
/// assert!(text.contains("icd_cache_wait_seconds_count 1"));
/// ```
#[derive(Debug)]
pub struct Telemetry {
    epoch: Instant,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    lanes: Mutex<Vec<LaneSpan>>,
    lane_cap: usize,
    dropped_lanes: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh telemetry plane; `now_ns` starts counting here.
    pub fn new() -> Telemetry {
        Telemetry::with_lane_cap(DEFAULT_LANE_CAP)
    }

    /// A telemetry plane retaining at most `lane_cap` lane spans
    /// (further spans are dropped and counted, never blocking).
    fn with_lane_cap(lane_cap: usize) -> Telemetry {
        Telemetry {
            epoch: Instant::now(),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            lanes: Mutex::new(Vec::new()),
            lane_cap,
            dropped_lanes: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since this telemetry plane was created (the lane
    /// span time base).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The monotonic counter named `name`, created at zero if absent.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .unwrap()
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// The gauge named `name`, created at zero if absent.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().unwrap().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            self.gauges
                .write()
                .unwrap()
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// The (nanosecond-valued) histogram named `name`, created empty if
    /// absent. Creating without recording is how always-exported series
    /// (e.g. `icd.cache.wait`) are pre-registered so `/metrics` shows
    /// them even before the first contended acquisition.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().unwrap().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .unwrap()
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// Records a wall-clock duration into the histogram named `name`,
    /// in nanoseconds.
    pub fn record_wait(&self, name: &str, wait: Duration) {
        self.histogram(name).record(wait.as_nanos() as u64);
    }

    /// Appends one lane span; beyond the cap the span is dropped and
    /// counted in `dropped_lanes` — telemetry never blocks on its own
    /// buffer.
    pub fn lane_span(
        &self,
        lane: impl Into<String>,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        detail: u64,
    ) {
        let mut lanes = self.lanes.lock().unwrap();
        if lanes.len() >= self.lane_cap {
            drop(lanes);
            self.dropped_lanes.fetch_add(1, Ordering::Relaxed);
            return;
        }
        lanes.push(LaneSpan {
            lane: lane.into(),
            name: name.into(),
            start_ns,
            end_ns,
            detail,
        });
    }

    /// A frozen copy of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut lanes = self.lanes.lock().unwrap().clone();
        // Span order depends on thread interleaving; sort so equal
        // contents serialize equally regardless of arrival order.
        lanes.sort_by(|a, b| {
            (&a.lane, a.start_ns, a.end_ns, &a.name).cmp(&(&b.lane, b.start_ns, b.end_ns, &b.name))
        });
        TelemetrySnapshot {
            uptime_ns: self.now_ns(),
            counters: self
                .counters
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            lanes,
            dropped_lanes: self.dropped_lanes.load(Ordering::Relaxed),
        }
    }
}

/// Frozen telemetry state; keys are sorted, so serialization of equal
/// contents is deterministic (the *values* are wall-clock and are not).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Nanoseconds the telemetry plane had been alive at snapshot time.
    pub uptime_ns: u64,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, u64>,
    /// Nanosecond histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Retained lane spans, sorted by (lane, start, end, name).
    pub lanes: Vec<LaneSpan>,
    /// Lane spans dropped past the cap.
    pub dropped_lanes: u64,
}

/// Uptime, counters, gauges and histograms, then the lane log.
impl ToJson for TelemetrySnapshot {
    fn write_json(&self, out: &mut String, layout: Layout) {
        json::object(out, layout, |o| {
            o.field("uptime_ns", &self.uptime_ns)
                .field("counters", &self.counters)
                .field("gauges", &self.gauges)
                .object("histograms", |hs| {
                    for (k, h) in &self.histograms {
                        hs.object(k, |o| {
                            o.field("count", &h.count)
                                .field("sum", &h.sum)
                                .field("p50", &h.p50())
                                .field("p95", &h.p95())
                                .field("p99", &h.p99())
                                .field("buckets", &h.buckets);
                        });
                    }
                })
                .field("dropped_lanes", &self.dropped_lanes)
                .field("lanes", &self.lanes);
        });
    }
}

impl TelemetrySnapshot {
    /// Serializes the full snapshot as deterministic-schema JSON (the
    /// `/profile` body shape's telemetry section).
    pub fn to_json(&self) -> String {
        json::to_string(self, Layout::Compact)
    }

    /// Parses a snapshot back from [`to_json`](Self::to_json) output —
    /// the `icprof --profile` reader.
    pub fn from_json(v: &Value) -> Result<TelemetrySnapshot, String> {
        let mut snap = TelemetrySnapshot {
            uptime_ns: v.get("uptime_ns").and_then(Value::as_u64).unwrap_or(0),
            dropped_lanes: v.get("dropped_lanes").and_then(Value::as_u64).unwrap_or(0),
            ..TelemetrySnapshot::default()
        };
        for (section, into) in [("counters", 0usize), ("gauges", 1)] {
            if let Some(fields) = v.get(section).and_then(Value::fields) {
                for (k, val) in fields {
                    let n = val
                        .as_u64()
                        .ok_or_else(|| format!("{section}.{k} must be a u64"))?;
                    if into == 0 {
                        snap.counters.insert(k.clone(), n);
                    } else {
                        snap.gauges.insert(k.clone(), n);
                    }
                }
            }
        }
        if let Some(fields) = v.get("histograms").and_then(Value::fields) {
            for (k, val) in fields {
                let buckets = match val.get("buckets") {
                    Some(Value::Arr(items)) => items
                        .iter()
                        .map(|b| b.as_u64().ok_or("bucket counts must be u64"))
                        .collect::<Result<Vec<u64>, _>>()?,
                    _ => return Err(format!("histogram {k} missing buckets")),
                };
                snap.histograms.insert(
                    k.clone(),
                    HistogramSnapshot {
                        count: val.get("count").and_then(Value::as_u64).unwrap_or(0),
                        sum: val.get("sum").and_then(Value::as_u64).unwrap_or(0),
                        buckets,
                    },
                );
            }
        }
        if let Some(Value::Arr(items)) = v.get("lanes") {
            for item in items {
                snap.lanes.push(LaneSpan::from_json(item)?);
            }
        }
        Ok(snap)
    }
}

/// Sanitizes a dotted metric name into the Prometheus charset.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Formats nanoseconds as seconds for exposition values.
fn prom_seconds(ns: u64) -> String {
    format!("{:.9}", ns as f64 / 1e9)
}

fn write_prom_histogram(
    out: &mut String,
    name: &str,
    h: &HistogramSnapshot,
    le_of_bucket: impl Fn(usize) -> String,
    sum: String,
) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    let last = h
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .map_or(0, |i| i + 1)
        .min(h.buckets.len());
    for (i, &c) in h.buckets.iter().take(last.max(1)).enumerate() {
        cumulative += c;
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"{}\"}} {cumulative}",
            le_of_bucket(i)
        );
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum {sum}");
    let _ = writeln!(out, "{name}_count {}", h.count);
}

/// Renders Prometheus text exposition (v0.0.4) of a telemetry snapshot
/// plus, when given, the deterministic registry's counters and
/// histograms.
///
/// Conventions: telemetry histograms record nanoseconds and are
/// exported as `<name>_seconds` histograms with `le` bounds in seconds;
/// telemetry and registry counters get the `_total` suffix; registry
/// histograms (unitless simulated quantities) keep raw-value bounds;
/// gauges export as-is. Dotted names flatten to underscores
/// (`icd.cache.wait` → `icd_cache_wait_seconds`).
pub fn prometheus_text(registry: Option<&Snapshot>, telemetry: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP icd_telemetry_uptime_seconds Wall-clock seconds since the telemetry plane started."
    );
    let _ = writeln!(out, "# TYPE icd_telemetry_uptime_seconds gauge");
    let _ = writeln!(
        out,
        "icd_telemetry_uptime_seconds {}",
        prom_seconds(telemetry.uptime_ns)
    );
    for (name, value) in &telemetry.counters {
        let name = prom_name(name);
        let _ = writeln!(out, "# TYPE {name}_total counter");
        let _ = writeln!(out, "{name}_total {value}");
    }
    for (name, value) in &telemetry.gauges {
        let name = prom_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, h) in &telemetry.histograms {
        let name = format!("{}_seconds", prom_name(name));
        // Bucket i holds durations of bit length i: upper bound
        // 2^i - 1 nanoseconds (bucket 0 holds exactly 0).
        let le = |i: usize| {
            if i == 0 {
                "0.000000000".to_owned()
            } else {
                prom_seconds((1u64 << i.min(63)).wrapping_sub(1).max(1))
            }
        };
        write_prom_histogram(&mut out, &name, h, le, prom_seconds(h.sum));
    }
    if let Some(reg) = registry {
        for (name, value) in &reg.counters {
            let name = prom_name(name);
            let _ = writeln!(out, "# TYPE {name}_total counter");
            let _ = writeln!(out, "{name}_total {value}");
        }
        for (name, h) in &reg.histograms {
            let name = prom_name(name);
            let le = |i: usize| {
                if i == 0 {
                    "0".to_owned()
                } else {
                    format!("{}", (1u64 << i.min(63)).wrapping_sub(1).max(1))
                }
            };
            write_prom_histogram(&mut out, &name, h, le, format!("{}", h.sum));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_move_both_ways_and_saturate() {
        let g = Gauge::default();
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.sub(10);
        assert_eq!(g.get(), 0, "sub saturates at zero");
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn snapshot_sorts_lanes_and_respects_the_cap() {
        let t = Telemetry::with_lane_cap(2);
        t.lane_span("w1", "slot", 100, 200, 1);
        t.lane_span("w0", "slot", 50, 80, 0);
        t.lane_span("w2", "slot", 10, 20, 2); // past the cap
        let snap = t.snapshot();
        assert_eq!(snap.lanes.len(), 2);
        assert_eq!(snap.lanes[0].lane, "w0", "lanes sorted, not arrival order");
        assert_eq!(snap.dropped_lanes, 1);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let t = Telemetry::new();
        t.counter("icd.http.requests").add(3);
        t.gauge("icd.queue.depth").set(4);
        t.record_wait("icd.cache.wait", Duration::from_nanos(1500));
        t.lane_span("icd.w0", "campaign", 10, 90, 7);
        let snap = t.snapshot();
        let text = snap.to_json();
        let parsed = TelemetrySnapshot::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.counters, snap.counters);
        assert_eq!(parsed.gauges, snap.gauges);
        assert_eq!(parsed.histograms, snap.histograms);
        assert_eq!(parsed.lanes, snap.lanes);
        // Serialization is deterministic for a frozen snapshot.
        assert_eq!(text, snap.to_json());
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let t = Telemetry::new();
        t.histogram("icd.cache.wait"); // pre-registered, zero samples
        t.record_wait("icd.queue.dwell", Duration::from_nanos(3));
        t.record_wait("icd.queue.dwell", Duration::from_micros(100));
        t.gauge("icd.queue.depth").set(2);
        t.counter("icd.http.requests").inc();
        let reg = crate::Registry::new();
        reg.add("icd.completed", 5);
        reg.histogram("checker.run_steps").record(1000);
        let text = prometheus_text(Some(&reg.snapshot()), &t.snapshot());

        assert!(text.contains("# TYPE icd_queue_dwell_seconds histogram"));
        assert!(text.contains("icd_queue_dwell_seconds_count 2"));
        assert!(text.contains("icd_queue_dwell_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(
            text.contains("# TYPE icd_cache_wait_seconds histogram")
                && text.contains("icd_cache_wait_seconds_count 0"),
            "pre-registered histograms export with zero samples"
        );
        assert!(text.contains("# TYPE icd_queue_depth gauge\nicd_queue_depth 2"));
        assert!(text.contains("icd_http_requests_total 1"));
        assert!(text.contains("icd_completed_total 5"));
        assert!(text.contains("# TYPE checker_run_steps histogram"));

        // Every line is either a comment or `name{labels} value` /
        // `name value`, and histogram buckets are cumulative.
        let mut cumulative = 0u64;
        for line in text.lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!name.is_empty());
            let _: f64 = value.parse().expect("sample value parses as a float");
            if name.starts_with("icd_queue_dwell_seconds_bucket") {
                let v: f64 = value.parse().unwrap();
                assert!(v as u64 >= cumulative, "buckets are cumulative");
                cumulative = v as u64;
            }
        }
    }

    #[test]
    fn prom_names_flatten_dots() {
        assert_eq!(prom_name("icd.cache.wait"), "icd_cache_wait");
        assert_eq!(prom_name("icd.tenant.a-b.shed"), "icd_tenant_a_b_shed");
    }
}
