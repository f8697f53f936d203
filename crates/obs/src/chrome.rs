//! Chrome trace-event export (`chrome://tracing` / Perfetto loadable).
//!
//! Mapping: `pid` is the campaign run index (taken from the enclosing
//! `run` span), `tid` is the simulated thread (track), and `ts` is the
//! simulated step count interpreted as microseconds. The output is
//! deterministic for a deterministic input trace.

use std::collections::BTreeMap;

use crate::json::{self, Array, Layout};
use crate::telemetry::LaneSpan;
use crate::trace::{Event, Phase, CONTROL_TRACK};

/// `tid` used for campaign-level control events in the Chrome output
/// (Chrome renders `u32::MAX` poorly, so control events get their own
/// small lane).
const CONTROL_TID: u32 = 0;

/// Converts a trace to Chrome trace-event JSON (object form with a
/// `traceEvents` array).
pub fn chrome_trace(events: &[Event]) -> String {
    chrome_lanes(events, &[])
}

/// `pid` used for wall-clock worker lanes, far above any run index so
/// the lanes group separately from simulated-step tracks.
const LANES_PID: u64 = 1_000_000;

/// Converts a trace plus wall-clock worker [`LaneSpan`]s to Chrome
/// trace-event JSON.
///
/// The deterministic events render exactly as [`chrome_trace`]; the
/// lanes are appended as `ph:"X"` complete events under their own
/// process (`pid` 1000000), one `tid` per distinct lane name in
/// sorted order, with `ts`/`dur` in microseconds of wall clock. The
/// two time bases (simulated steps vs wall clock) are deliberately not
/// aligned — the lanes answer "who was busy when", not "at which step".
pub fn chrome_lanes(events: &[Event], lanes: &[LaneSpan]) -> String {
    let mut tids: BTreeMap<&str, u64> = BTreeMap::new();
    for span in lanes {
        let next = tids.len() as u64;
        tids.entry(span.lane.as_str()).or_insert(next);
    }
    let mut out = String::new();
    json::object(&mut out, Layout::Compact, |o| {
        o.array("traceEvents", |items| {
            write_events(items, events);
            for (lane, tid) in &tids {
                items.object(|o| {
                    o.field("name", "thread_name")
                        .field("ph", "M")
                        .field("pid", &LANES_PID)
                        .field("tid", tid)
                        .object("args", |args| {
                            args.field("name", *lane);
                        });
                });
            }
            for span in lanes {
                let dur = span.end_ns.saturating_sub(span.start_ns).max(1_000) / 1_000;
                items.object(|o| {
                    o.field("name", &span.name)
                        .field("ph", "X")
                        .field("ts", &(span.start_ns / 1_000))
                        .field("dur", &dur)
                        .field("pid", &LANES_PID)
                        .field("tid", &tids[span.lane.as_str()])
                        .object("args", |args| {
                            args.field("detail", &span.detail);
                        });
                });
            }
        })
        .field("displayTimeUnit", "ms");
    });
    out
}

/// Writes the deterministic events, one Chrome event each.
fn write_events(items: &mut Array<'_>, events: &[Event]) {
    let mut pid: u64 = 0;
    let mut max_ts: u64 = 0;
    for ev in events {
        // Track the current run index so in-run events inherit it.
        if ev.name == "run" && ev.phase == Phase::Begin {
            if let Some(run) = ev.arg_u64("run") {
                pid = run;
                max_ts = 0;
            }
        }
        max_ts = max_ts.max(ev.step);
        // A failed run's `run`-End is emitted without a final step
        // count; clamp so the span still closes after its children.
        let ts = if ev.phase == Phase::End {
            ev.step.max(max_ts)
        } else {
            ev.step
        };
        let ph = match ev.phase {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        };
        let tid = if ev.track == CONTROL_TRACK {
            CONTROL_TID
        } else {
            // Simulated threads start at lane 1; lane 0 is control.
            ev.track + 1
        };
        items.object(|o| {
            o.field("name", &*ev.name)
                .field("ph", ph)
                .field("ts", &ts)
                .field("pid", &pid)
                .field("tid", &tid);
            if ev.phase == Phase::Instant {
                o.field("s", "t");
            }
            o.object("args", |args| {
                for (k, v) in &ev.args {
                    args.field(k, v);
                }
                if let Some(ns) = ev.wall_ns {
                    args.field("wall_ns", &ns);
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exports_valid_json() {
        let events = vec![
            Event::begin(0, CONTROL_TRACK, "run").with_arg("run", 2u64),
            Event::instant(5, 1, "sched").with_arg("tid", 1u32),
            Event::end(9, CONTROL_TRACK, "run").with_arg("ok", true),
        ];
        let text = chrome_trace(&events);
        let v = json::parse(&text).unwrap();
        let arr = match v.get("traceEvents").unwrap() {
            json::Value::Arr(a) => a,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr.len(), 3);
        // All events inherit the run's pid.
        for e in arr {
            assert_eq!(e.get("pid").unwrap().as_u64(), Some(2));
        }
        assert_eq!(arr[1].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(arr[1].get("tid").unwrap().as_u64(), Some(2));
        assert_eq!(arr[1].get("ts").unwrap().as_u64(), Some(5));
    }

    #[test]
    fn failed_run_end_is_clamped_to_last_step() {
        let events = vec![
            Event::begin(0, CONTROL_TRACK, "run").with_arg("run", 0u64),
            Event::instant(42, 0, "fault").with_arg("kind", "alloc-fail"),
            // Failure: checker does not know the final step, emits 0.
            Event::end(0, CONTROL_TRACK, "run").with_arg("ok", false),
        ];
        let text = chrome_trace(&events);
        let v = json::parse(&text).unwrap();
        let arr = match v.get("traceEvents").unwrap() {
            json::Value::Arr(a) => a,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[2].get("ts").unwrap().as_u64(), Some(42));
    }

    #[test]
    fn deterministic_output() {
        let events = vec![Event::instant(1, 0, "checkpoint").with_arg("seq", 0u64)];
        assert_eq!(chrome_trace(&events), chrome_trace(&events));
    }

    #[test]
    fn lanes_append_complete_events_in_their_own_process() {
        let events = vec![Event::instant(1, 0, "checkpoint").with_arg("seq", 0u64)];
        let lanes = vec![
            LaneSpan {
                lane: "icd.w0".into(),
                name: "campaign".into(),
                start_ns: 2_000_000,
                end_ns: 5_000_000,
                detail: 3,
            },
            LaneSpan {
                lane: "icd.w1".into(),
                name: "idle".into(),
                start_ns: 0,
                end_ns: 1_000_000,
                detail: 0,
            },
        ];
        let text = chrome_lanes(&events, &lanes);
        let v = json::parse(&text).unwrap();
        let arr = match v.get("traceEvents").unwrap() {
            json::Value::Arr(a) => a,
            other => panic!("expected array, got {other:?}"),
        };
        // 1 trace event + 2 thread_name metadata + 2 lane spans.
        assert_eq!(arr.len(), 5);
        let span = arr
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .expect("a complete event");
        assert_eq!(span.get("pid").unwrap().as_u64(), Some(LANES_PID));
        let names: Vec<_> = arr
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_owned()
            })
            .collect();
        assert_eq!(names, ["icd.w0", "icd.w1"], "one tid per lane, sorted");
        // Without lanes the output is plain chrome_trace.
        assert_eq!(chrome_lanes(&events, &[]), chrome_trace(&events));
    }

    #[test]
    fn lanes_without_events_parse() {
        // A profile-only export has lanes but no deterministic trace;
        // the array must not open with a stray comma.
        let lanes = vec![LaneSpan {
            lane: "icd.w0".into(),
            name: "campaign".into(),
            start_ns: 0,
            end_ns: 2_000_000,
            detail: 1,
        }];
        let text = chrome_lanes(&[], &lanes);
        let v = json::parse(&text).unwrap();
        let arr = match v.get("traceEvents").unwrap() {
            json::Value::Arr(a) => a,
            other => panic!("expected array, got {other:?}"),
        };
        // 1 thread_name metadata + 1 lane span.
        assert_eq!(arr.len(), 2);
    }
}
