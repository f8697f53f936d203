//! Campaign profiling: folds a trace into per-run totals, hashing
//! attribution, MHM hit rates, and a fault/failure timeline.
//!
//! This is the analysis behind the `icprof` binary. It consumes the
//! event vocabulary emitted by the checker/engine:
//!
//! | event        | phase   | args |
//! |--------------|---------|------|
//! | `campaign`   | Instant | `scheme`, `runs`, `base_seed` |
//! | `run`        | Begin   | `run`, `seed`, `attempt`, `scheme` |
//! | `run`        | End     | `ok`, `steps`, `native_instr`, `hash_instr`, `zero_fill_instr`, `stores`, `hash_updates`, `checkpoints`, optionally `error` and `l1_hits`, `l1_misses`, `mhm_reads`, `mhm_read_misses` |
//! | `sched`      | Instant | `tid` |
//! | `checkpoint` | Instant | `seq`, `kind` |
//! | `fault`      | Instant | `kind` |
//! | `alloc`      | Instant | `base`, `words` |
//! | `free`       | Instant | `base` |
//! | `divergence` | Instant | `run`, `checkpoint` (or `output` when only the output digests differ) |

use std::fmt::Write as _;

use crate::trace::{Event, Phase};

/// Modeled L1/MHM cache counters recovered from a run's end-span args.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Demand (program load/store) hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// MHM old-value reads (HW-InstantCheck datapath).
    pub mhm_reads: u64,
    /// MHM old-value reads that missed L1.
    pub mhm_read_misses: u64,
}

impl CacheCounters {
    /// Demand hit rate in percent (100 if no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            100.0
        } else {
            100.0 * self.hits as f64 / total as f64
        }
    }

    /// MHM old-value read hit rate in percent (100 if no reads).
    pub fn mhm_hit_rate(&self) -> f64 {
        if self.mhm_reads == 0 {
            100.0
        } else {
            100.0 * (self.mhm_reads - self.mhm_read_misses) as f64 / self.mhm_reads as f64
        }
    }
}

/// Per-run totals recovered from the trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunProfile {
    /// Campaign run index (0-based slot).
    pub run: u64,
    /// Scheduler seed.
    pub seed: u64,
    /// Retry attempt (0 = first).
    pub attempt: u64,
    /// Checking scheme name.
    pub scheme: String,
    /// Whether the run completed.
    pub ok: bool,
    /// Error class if the run failed.
    pub error: Option<String>,
    /// Scheduler steps executed.
    pub steps: u64,
    /// Workload (native) instructions.
    pub native_instr: u64,
    /// Checking-overhead instructions (the Fig. 6 cost model).
    pub hash_instr: u64,
    /// Allocation zero-fill instructions.
    pub zero_fill_instr: u64,
    /// Stores observed.
    pub stores: u64,
    /// Incremental hash updates performed.
    pub hash_updates: u64,
    /// Checkpoints hit (from the end-span arg).
    pub checkpoints: u64,
    /// Scheduler decisions seen in the trace body.
    pub sched_events: u64,
    /// Allocations seen in the trace body.
    pub allocs: u64,
    /// Frees seen in the trace body.
    pub frees: u64,
    /// `(step, kind)` of each injected fault.
    pub faults: Vec<(u64, String)>,
    /// Modeled cache counters, when the cache model was enabled.
    pub cache: Option<CacheCounters>,
    /// Wall-clock duration (ns), when the sink stamped wall time.
    pub wall_ns: Option<u64>,
}

impl RunProfile {
    /// Fraction of modeled instructions spent on checking, in percent.
    pub(crate) fn hash_share(&self) -> f64 {
        let total = self.native_instr + self.hash_instr;
        if total == 0 {
            0.0
        } else {
            100.0 * self.hash_instr as f64 / total as f64
        }
    }
}

/// A recorded divergence verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Run index that differs from run 0.
    pub run: u64,
    /// First checkpoint sequence number at which it differs; `None`
    /// when only the output digests differ.
    pub checkpoint: Option<u64>,
}

/// The folded campaign profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignProfile {
    /// Campaign scheme name, if a `campaign` event was present.
    pub scheme: Option<String>,
    /// Configured number of runs, if recorded.
    pub configured_runs: Option<u64>,
    /// Base seed, if recorded.
    pub base_seed: Option<u64>,
    /// Per-run profiles in trace order (includes failed attempts).
    pub runs: Vec<RunProfile>,
    /// Recorded divergence verdicts.
    pub divergences: Vec<Divergence>,
}

impl CampaignProfile {
    /// Folds a trace into a profile.
    pub fn from_events(events: &[Event]) -> CampaignProfile {
        let mut profile = CampaignProfile::default();
        let mut current: Option<RunProfile> = None;
        for ev in events {
            match (ev.name.as_ref(), ev.phase) {
                ("campaign", _) => {
                    profile.scheme = ev.arg_str("scheme").map(str::to_string);
                    profile.configured_runs = ev.arg_u64("runs");
                    profile.base_seed = ev.arg_u64("base_seed");
                }
                ("run", Phase::Begin) => {
                    if let Some(run) = current.take() {
                        profile.runs.push(run);
                    }
                    current = Some(RunProfile {
                        run: ev.arg_u64("run").unwrap_or(0),
                        seed: ev.arg_u64("seed").unwrap_or(0),
                        attempt: ev.arg_u64("attempt").unwrap_or(0),
                        scheme: ev.arg_str("scheme").unwrap_or("?").to_string(),
                        wall_ns: ev.wall_ns,
                        ..RunProfile::default()
                    });
                }
                ("run", Phase::End) => {
                    if let Some(mut run) = current.take() {
                        run.ok = ev.arg_u64("ok") == Some(1);
                        run.error = ev.arg_str("error").map(str::to_string);
                        run.steps = ev.arg_u64("steps").unwrap_or(0);
                        run.native_instr = ev.arg_u64("native_instr").unwrap_or(0);
                        run.hash_instr = ev.arg_u64("hash_instr").unwrap_or(0);
                        run.zero_fill_instr = ev.arg_u64("zero_fill_instr").unwrap_or(0);
                        run.stores = ev.arg_u64("stores").unwrap_or(0);
                        run.hash_updates = ev.arg_u64("hash_updates").unwrap_or(0);
                        run.checkpoints = ev.arg_u64("checkpoints").unwrap_or(0);
                        if let Some(reads) = ev.arg_u64("mhm_reads") {
                            run.cache = Some(CacheCounters {
                                hits: ev.arg_u64("l1_hits").unwrap_or(0),
                                misses: ev.arg_u64("l1_misses").unwrap_or(0),
                                mhm_reads: reads,
                                mhm_read_misses: ev.arg_u64("mhm_read_misses").unwrap_or(0),
                            });
                        }
                        if let (Some(end), Some(begin)) = (ev.wall_ns, run.wall_ns) {
                            run.wall_ns = Some(end.saturating_sub(begin));
                        } else {
                            run.wall_ns = None;
                        }
                        profile.runs.push(run);
                    }
                }
                ("sched", _) => {
                    if let Some(run) = current.as_mut() {
                        run.sched_events += 1;
                    }
                }
                ("alloc", _) => {
                    if let Some(run) = current.as_mut() {
                        run.allocs += 1;
                    }
                }
                ("free", _) => {
                    if let Some(run) = current.as_mut() {
                        run.frees += 1;
                    }
                }
                ("fault", _) => {
                    if let Some(run) = current.as_mut() {
                        run.faults
                            .push((ev.step, ev.arg_str("kind").unwrap_or("?").to_string()));
                    }
                }
                ("divergence", _) => {
                    if let Some(run) = ev.arg_u64("run") {
                        profile.divergences.push(Divergence {
                            run,
                            checkpoint: ev.arg_u64("checkpoint"),
                        });
                    }
                }
                _ => {}
            }
        }
        if let Some(run) = current.take() {
            profile.runs.push(run);
        }
        profile
    }

    /// Renders the human-readable profile table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let completed = self.runs.iter().filter(|r| r.ok).count();
        let failed = self.runs.len() - completed;
        let scheme = self
            .scheme
            .clone()
            .or_else(|| self.runs.first().map(|r| r.scheme.clone()))
            .unwrap_or_else(|| "?".to_string());
        let _ = writeln!(
            out,
            "Campaign profile — scheme {scheme}, {} run(s) ({completed} completed, {failed} failed)",
            self.runs.len()
        );
        if let (Some(runs), Some(seed)) = (self.configured_runs, self.base_seed) {
            let _ = writeln!(out, "Configured: {runs} runs, base seed {seed}");
        }
        out.push('\n');
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>4} {:>10} {:>6} {:>9} {:>12} {:>12} {:>7} {:>7}  outcome",
            "run",
            "seed",
            "att",
            "steps",
            "ckpts",
            "stores",
            "native-in",
            "hash-in",
            "hash%",
            "mhm%",
        );
        for r in &self.runs {
            let mhm = r
                .cache
                .map(|c| format!("{:.2}", c.mhm_hit_rate()))
                .unwrap_or_else(|| "-".to_string());
            let outcome = if r.ok {
                "ok".to_string()
            } else {
                format!("FAILED({})", r.error.as_deref().unwrap_or("?"))
            };
            let _ = writeln!(
                out,
                "{:>4} {:>6} {:>4} {:>10} {:>6} {:>9} {:>12} {:>12} {:>7.2} {:>7}  {}",
                r.run,
                r.seed,
                r.attempt,
                r.steps,
                r.checkpoints,
                r.stores,
                r.native_instr,
                r.hash_instr,
                r.hash_share(),
                mhm,
                outcome
            );
        }
        // Attribution per scheme (hash-time vs workload-time in the
        // instruction cost model).
        out.push('\n');
        let mut schemes: Vec<&str> = self.runs.iter().map(|r| r.scheme.as_str()).collect();
        schemes.sort_unstable();
        schemes.dedup();
        for scheme in schemes {
            let (mut native, mut hash, mut zero) = (0u64, 0u64, 0u64);
            for r in self.runs.iter().filter(|r| r.scheme == scheme) {
                native += r.native_instr;
                hash += r.hash_instr;
                zero += r.zero_fill_instr;
            }
            let total = native + hash;
            let (wl, hs) = if total == 0 {
                (100.0, 0.0)
            } else {
                (
                    100.0 * native as f64 / total as f64,
                    100.0 * hash as f64 / total as f64,
                )
            };
            let _ = writeln!(
                out,
                "Attribution [{scheme}]: workload {wl:.2}%, hashing {hs:.2}% \
                 (native {native}, hash {hash}, zero-fill {zero})"
            );
        }
        // MHM / L1 totals.
        let mut cache = CacheCounters::default();
        let mut have_cache = false;
        for r in &self.runs {
            if let Some(c) = r.cache {
                have_cache = true;
                cache.hits += c.hits;
                cache.misses += c.misses;
                cache.mhm_reads += c.mhm_reads;
                cache.mhm_read_misses += c.mhm_read_misses;
            }
        }
        if have_cache {
            let _ = writeln!(
                out,
                "L1 model: {} demand accesses, hit rate {:.2}%; MHM old-value reads {}, \
                 misses {} (hit rate {:.2}%)",
                cache.hits + cache.misses,
                cache.hit_rate(),
                cache.mhm_reads,
                cache.mhm_read_misses,
                cache.mhm_hit_rate()
            );
        }
        // Fault / failure timeline.
        let mut timeline: Vec<String> = Vec::new();
        for r in &self.runs {
            for (step, kind) in &r.faults {
                timeline.push(format!(
                    "  run {} attempt {} step {step}: fault {kind}",
                    r.run, r.attempt
                ));
            }
            if !r.ok {
                timeline.push(format!(
                    "  run {} attempt {}: FAILED ({})",
                    r.run,
                    r.attempt,
                    r.error.as_deref().unwrap_or("?")
                ));
            }
        }
        if !timeline.is_empty() {
            out.push_str("\nFault/failure timeline:\n");
            for line in timeline {
                out.push_str(&line);
                out.push('\n');
            }
        }
        if !self.divergences.is_empty() {
            out.push_str("\nDivergences (vs run 0):\n");
            for d in &self.divergences {
                let _ = match d.checkpoint {
                    Some(cp) => {
                        writeln!(out, "  run {} first differs at checkpoint seq {cp}", d.run)
                    }
                    None => writeln!(out, "  run {} differs in output only", d.run),
                };
            }
        }
        if let Some(total) = self
            .runs
            .iter()
            .map(|r| r.wall_ns)
            .try_fold(0u64, |acc, w| w.map(|w| acc + w))
        {
            if !self.runs.is_empty() {
                let _ = writeln!(
                    out,
                    "\nWall clock (opt-in, non-deterministic): {:.3} ms total across runs",
                    total as f64 / 1e6
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CONTROL_TRACK;

    fn campaign_events() -> Vec<Event> {
        vec![
            Event::instant(0, CONTROL_TRACK, "campaign")
                .with_arg("scheme", "HwInc")
                .with_arg("runs", 2u64)
                .with_arg("base_seed", 1u64),
            Event::begin(0, CONTROL_TRACK, "run")
                .with_arg("run", 0u64)
                .with_arg("seed", 1u64)
                .with_arg("attempt", 0u64)
                .with_arg("scheme", "HwInc"),
            Event::instant(1, 0, "sched").with_arg("tid", 0u32),
            Event::instant(2, 0, "alloc")
                .with_arg("base", 4096u64)
                .with_arg("words", 8u64),
            Event::instant(3, 0, "fault").with_arg("kind", "bit-flip"),
            Event::instant(4, 0, "checkpoint")
                .with_arg("seq", 0u64)
                .with_arg("kind", "end"),
            Event::end(4, CONTROL_TRACK, "run")
                .with_arg("ok", true)
                .with_arg("steps", 4u64)
                .with_arg("native_instr", 900u64)
                .with_arg("hash_instr", 100u64)
                .with_arg("zero_fill_instr", 8u64)
                .with_arg("stores", 20u64)
                .with_arg("hash_updates", 40u64)
                .with_arg("checkpoints", 1u64)
                .with_arg("l1_hits", 30u64)
                .with_arg("l1_misses", 10u64)
                .with_arg("mhm_reads", 20u64)
                .with_arg("mhm_read_misses", 2u64),
            Event::begin(0, CONTROL_TRACK, "run")
                .with_arg("run", 1u64)
                .with_arg("seed", 2u64)
                .with_arg("attempt", 0u64)
                .with_arg("scheme", "HwInc"),
            Event::end(0, CONTROL_TRACK, "run")
                .with_arg("ok", false)
                .with_arg("error", "deadlock"),
            Event::instant(0, CONTROL_TRACK, "divergence")
                .with_arg("run", 1u64)
                .with_arg("checkpoint", 3u64),
        ]
    }

    #[test]
    fn folds_runs_and_counters() {
        let p = CampaignProfile::from_events(&campaign_events());
        assert_eq!(p.scheme.as_deref(), Some("HwInc"));
        assert_eq!(p.configured_runs, Some(2));
        assert_eq!(p.runs.len(), 2);
        let r0 = &p.runs[0];
        assert!(r0.ok);
        assert_eq!(r0.steps, 4);
        assert_eq!(r0.sched_events, 1);
        assert_eq!(r0.allocs, 1);
        assert_eq!(r0.faults, vec![(3, "bit-flip".to_string())]);
        let cache = r0.cache.unwrap();
        assert_eq!(cache.mhm_reads, 20);
        assert!((cache.mhm_hit_rate() - 90.0).abs() < 1e-9);
        assert!((cache.hit_rate() - 75.0).abs() < 1e-9);
        assert!((r0.hash_share() - 10.0).abs() < 1e-9);
        let r1 = &p.runs[1];
        assert!(!r1.ok);
        assert_eq!(r1.error.as_deref(), Some("deadlock"));
        assert_eq!(
            p.divergences,
            vec![Divergence {
                run: 1,
                checkpoint: Some(3)
            }]
        );
    }

    #[test]
    fn render_mentions_key_facts() {
        let p = CampaignProfile::from_events(&campaign_events());
        let text = p.render();
        assert!(text.contains("scheme HwInc"));
        assert!(text.contains("1 completed, 1 failed"));
        assert!(text.contains("fault bit-flip"));
        assert!(text.contains("FAILED (deadlock)"));
        assert!(text.contains("checkpoint seq 3"));
        assert!(text.contains("Attribution [HwInc]"));
        assert!(text.contains("hit rate"));
    }

    #[test]
    fn empty_trace_renders() {
        let p = CampaignProfile::from_events(&[]);
        assert!(p.runs.is_empty());
        assert!(p.render().contains("0 run(s)"));
    }

    #[test]
    fn wall_clock_duration_is_span_delta() {
        let mut begin = Event::begin(0, CONTROL_TRACK, "run").with_arg("run", 0u64);
        begin.wall_ns = Some(1_000);
        let mut end = Event::end(9, CONTROL_TRACK, "run").with_arg("ok", true);
        end.wall_ns = Some(5_000);
        let p = CampaignProfile::from_events(&[begin, end]);
        assert_eq!(p.runs[0].wall_ns, Some(4_000));
    }
}
