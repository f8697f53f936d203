//! Filtering out benign data races by state comparison (§6.1).
//!
//! Most detected races are benign: both orders of the racing accesses
//! lead to the same program state (the volrend hand-coded barrier is the
//! paper's example). Narayanasamy et al. classify races by re-executing
//! with the race "flipped" and comparing the resulting memory states —
//! an expensive comparison that InstantCheck's state hash makes cheap.
//!
//! This module runs a program under many schedules, detects races on the
//! recorded traces, determines for each race which access order each run
//! exhibited, and compares the final state hashes of the two order
//! classes: if all runs agree on the final hash regardless of the order,
//! the race is benign; if the two orders produce different hashes, it is
//! harmful.

use std::collections::BTreeMap;

use adhash::HashSum;
use instantcheck::{CheckMonitor, IgnoreSpec, Scheme};
use tsim::{Addr, Program, RunConfig, SimError, ThreadId};

use crate::hb;

/// The verdict for one racing address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceVerdict {
    /// Both observed orders reach the same final state.
    Benign,
    /// Different orders reach different final states.
    Harmful,
    /// Only one order was observed within the run budget.
    OrderNotFlipped,
}

/// Classification of one racy address across many runs.
#[derive(Debug, Clone)]
pub struct ClassifiedRace {
    /// The racing address.
    pub addr: Addr,
    /// The pair of racing threads (lowest observed pair).
    pub threads: (ThreadId, ThreadId),
    /// Verdict.
    pub verdict: RaceVerdict,
    /// How many runs exhibited each order (first-thread-first count,
    /// second-thread-first count).
    pub order_counts: (usize, usize),
}

/// The full §6.1 report.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// Races classified per address.
    pub races: Vec<ClassifiedRace>,
    /// Runs performed.
    pub runs: usize,
}

impl RaceReport {
    /// The benign races.
    pub fn benign(&self) -> impl Iterator<Item = &ClassifiedRace> {
        self.races
            .iter()
            .filter(|r| r.verdict == RaceVerdict::Benign)
    }

    /// The harmful races.
    pub fn harmful(&self) -> impl Iterator<Item = &ClassifiedRace> {
        self.races
            .iter()
            .filter(|r| r.verdict == RaceVerdict::Harmful)
    }
}

/// Runs `source` under `runs` random schedules, detects races, and
/// classifies each racy address as benign or harmful by comparing the
/// final state hashes of runs exhibiting each access order.
///
/// # Errors
///
/// Propagates any [`SimError`].
pub fn classify_races<F: Fn() -> Program>(
    source: F,
    runs: usize,
    base_seed: u64,
) -> Result<RaceReport, SimError> {
    struct RunInfo {
        final_hash: HashSum,
        // For each racy address: which thread accessed first.
        first_access: BTreeMap<u64, ThreadId>,
    }

    let mut alloc_log = None;
    let mut infos = Vec::with_capacity(runs);
    let mut race_threads: BTreeMap<u64, (ThreadId, ThreadId)> = BTreeMap::new();

    for i in 0..runs {
        let mut rc = RunConfig::random(base_seed + i as u64)
            .with_trace()
            .with_zero_fill_charged();
        if let Some(log) = &alloc_log {
            rc = rc.with_alloc_replay(std::sync::Arc::clone(log));
        }
        let monitor = CheckMonitor::new(Scheme::HwInc, None, IgnoreSpec::new());
        let out = source().run_with(&rc, monitor)?;
        if alloc_log.is_none() {
            alloc_log = Some(out.alloc_log.clone());
        }
        let trace = out.trace.as_ref().expect("trace requested");
        let nthreads = out.instr.len();
        let analysis = hb::analyze(trace, nthreads);

        let mut first_access = BTreeMap::new();
        for race in &analysis.races {
            let pair = if race.first_tid < race.second_tid {
                (race.first_tid, race.second_tid)
            } else {
                (race.second_tid, race.first_tid)
            };
            race_threads.entry(race.addr.raw()).or_insert(pair);
            // In this serialization, `first_index` executed first.
            first_access
                .entry(race.addr.raw())
                .or_insert(race.first_tid);
        }

        let hashes = out.monitor.into_hashes();
        let final_hash = hashes
            .checkpoints
            .last()
            .map(|c| c.hash)
            .unwrap_or(HashSum::ZERO);
        infos.push(RunInfo {
            final_hash,
            first_access,
        });
    }

    let mut races = Vec::new();
    for (&addr, &threads) in &race_threads {
        let mut order_a = Vec::new(); // runs where threads.0 went first
        let mut order_b = Vec::new();
        for info in &infos {
            match info.first_access.get(&addr) {
                Some(&t) if t == threads.0 => order_a.push(info.final_hash),
                Some(_) => order_b.push(info.final_hash),
                // The race did not manifest in this run (e.g. the
                // accesses were ordered by other sync): it still tells
                // us the reachable state for *some* order, but we cannot
                // attribute it, so skip.
                None => {}
            }
        }
        let verdict = if order_a.is_empty() || order_b.is_empty() {
            RaceVerdict::OrderNotFlipped
        } else {
            let all: Vec<HashSum> = order_a.iter().chain(order_b.iter()).copied().collect();
            if all.iter().all(|&h| h == all[0]) {
                RaceVerdict::Benign
            } else {
                RaceVerdict::Harmful
            }
        };
        races.push(ClassifiedRace {
            addr: Addr(addr),
            threads,
            verdict,
            order_counts: (order_a.len(), order_b.len()),
        });
    }

    Ok(RaceReport { races, runs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::{ProgramBuilder, ValKind};

    /// Benign race: both threads store the same constant to a flag.
    fn benign_program() -> Program {
        let mut b = ProgramBuilder::new(2);
        let flag = b.global("flag", ValKind::U64, 1);
        for _ in 0..2 {
            b.thread(async move |ctx| {
                ctx.store(flag.at(0), 1).await;
            });
        }
        b.build()
    }

    /// Harmful race: last writer wins with different values.
    fn harmful_program() -> Program {
        let mut b = ProgramBuilder::new(2);
        let g = b.global("g", ValKind::U64, 1);
        for t in 0..2u64 {
            b.thread(async move |ctx| {
                ctx.store(g.at(0), t + 1).await;
            });
        }
        b.build()
    }

    #[test]
    fn benign_race_is_filtered_out() {
        let report = classify_races(benign_program, 20, 1).unwrap();
        assert_eq!(report.races.len(), 1);
        assert_eq!(report.races[0].verdict, RaceVerdict::Benign);
        assert_eq!(report.benign().count(), 1);
        assert_eq!(report.harmful().count(), 0);
        let (a, b) = report.races[0].order_counts;
        assert!(a > 0 && b > 0, "both orders observed: {a}/{b}");
    }

    #[test]
    fn harmful_race_is_kept() {
        let report = classify_races(harmful_program, 20, 1).unwrap();
        assert_eq!(report.races.len(), 1);
        assert_eq!(report.races[0].verdict, RaceVerdict::Harmful);
        assert_eq!(report.harmful().count(), 1);
    }

    #[test]
    fn race_free_program_reports_nothing() {
        let locked = || {
            let mut b = ProgramBuilder::new(2);
            let g = b.global("g", ValKind::U64, 1);
            let l = b.mutex();
            for t in 0..2u64 {
                b.thread(async move |ctx| {
                    ctx.lock(l).await;
                    let v = ctx.load(g.at(0)).await;
                    ctx.store(g.at(0), v + t).await;
                    ctx.unlock(l).await;
                });
            }
            b.build()
        };
        let report = classify_races(locked, 10, 1).unwrap();
        assert!(report.races.is_empty());
    }
}
