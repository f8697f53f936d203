//! Assisting deterministic replay with state hashes (§6.3).
//!
//! Recent replay systems save only a *partial* log of the original
//! execution and, at replay time, search the executions consistent with
//! the log for one that reproduces the bug. InstantCheck's contribution:
//! with a cheap state hash recorded alongside the partial log, the
//! search can detect when a candidate reproduces the *entire original
//! state* (letting the programmer inspect every variable), and can
//! abort a divergent candidate early by comparing hashes at intermediate
//! checkpoints.

use std::sync::Arc;

use adhash::HashSum;
use instantcheck::{CheckMonitor, IgnoreSpec, Scheme};
use tsim::{Program, RunConfig, SchedulerKind, SimError};

/// The partial log a replay system would save: a prefix of the scheduler
/// decisions, plus the original run's per-checkpoint state hashes.
#[derive(Debug, Clone)]
pub struct PartialLog {
    /// The logged decision prefix.
    pub prefix: Vec<u32>,
    /// Scheduler decisions beyond the prefix are *not* logged; this is
    /// the total decision count of the original run (for reporting).
    pub original_decisions: usize,
    /// The original run's checkpoint hash sequence (ending with the
    /// final state hash).
    pub checkpoint_hashes: Vec<HashSum>,
    /// Seed of the original run.
    pub original_seed: u64,
}

/// Records an original execution and keeps only `fraction` (0..=1) of
/// its decisions as the partial log.
///
/// # Errors
///
/// Propagates any [`SimError`] from the recording run.
pub fn record_partial_log<F: Fn() -> Program>(
    source: &F,
    seed: u64,
    fraction: f64,
) -> Result<PartialLog, SimError> {
    let rc = RunConfig::random(seed);
    let monitor = CheckMonitor::new(Scheme::HwInc, None, IgnoreSpec::new());
    let out = source().run_with(&rc, monitor)?;
    let keep = ((out.decisions.len() as f64) * fraction.clamp(0.0, 1.0)) as usize;
    let hashes = out.monitor.into_hashes();
    Ok(PartialLog {
        prefix: out.decisions[..keep].to_vec(),
        original_decisions: out.decisions.len(),
        checkpoint_hashes: hashes.checkpoints.iter().map(|c| c.hash).collect(),
        original_seed: seed,
    })
}

/// The outcome of a replay search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayResult {
    /// Candidate executions tried before full-state reproduction.
    pub attempts: usize,
    /// The completion seed that reproduced the original state, if any.
    pub reproducing_seed: Option<u64>,
    /// Candidates rejected *early* — at an intermediate checkpoint —
    /// thanks to the logged hashes (without running them to the end
    /// a comparison-capable system would stop here; we count them).
    pub early_rejects: usize,
}

/// Searches executions that obey `log.prefix` for one whose checkpoint
/// hash sequence matches the original's — i.e. a replay that reproduces
/// the entire state, not just the final symptom.
///
/// # Errors
///
/// Propagates any [`SimError`] from candidate runs.
pub fn search_replay<F: Fn() -> Program>(
    source: &F,
    log: &PartialLog,
    max_attempts: usize,
) -> Result<ReplayResult, SimError> {
    let prefix = Arc::new(log.prefix.clone());
    let mut early_rejects = 0;
    for attempt in 0..max_attempts {
        let completion_seed = 0x5eed_0000 + attempt as u64;
        let rc = RunConfig::random(0).with_scheduler(SchedulerKind::ScriptedThenRandom {
            script: Arc::clone(&prefix),
            seed: completion_seed,
        });
        let monitor = CheckMonitor::new(Scheme::HwInc, None, IgnoreSpec::new());
        let out = source().run_with(&rc, monitor)?;
        let hashes = out.monitor.into_hashes();
        let got: Vec<HashSum> = hashes.checkpoints.iter().map(|c| c.hash).collect();
        if got == log.checkpoint_hashes {
            return Ok(ReplayResult {
                attempts: attempt + 1,
                reproducing_seed: Some(completion_seed),
                early_rejects,
            });
        }
        // Count candidates that already diverged before the final
        // checkpoint: the logged hashes would have let the replayer
        // abandon them early.
        let diverged_early = got
            .iter()
            .zip(&log.checkpoint_hashes)
            .take(got.len().saturating_sub(1))
            .any(|(a, b)| a != b);
        if diverged_early {
            early_rejects += 1;
        }
    }
    Ok(ReplayResult {
        attempts: max_attempts,
        reproducing_seed: None,
        early_rejects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::{ProgramBuilder, ValKind};

    /// A program whose final state depends on the lock order in *two*
    /// places, so a short prefix does not determine the outcome.
    fn order_sensitive() -> Program {
        let mut b = ProgramBuilder::new(3);
        let g = b.global("g", ValKind::U64, 2);
        let bar = b.barrier();
        let lock = b.mutex();
        for t in 0..3u64 {
            b.thread(async move |ctx| {
                ctx.lock(lock).await;
                let v = ctx.load(g.at(0)).await;
                ctx.store(g.at(0), v * 3 + t).await;
                ctx.unlock(lock).await;
                ctx.barrier(bar).await;
                ctx.lock(lock).await;
                let v = ctx.load(g.at(1)).await;
                ctx.store(g.at(1), v * 5 + t).await;
                ctx.unlock(lock).await;
            });
        }
        b.build()
    }

    #[test]
    fn full_log_replays_first_try() {
        let log = record_partial_log(&order_sensitive, 42, 1.0).unwrap();
        let result = search_replay(&order_sensitive, &log, 10).unwrap();
        assert_eq!(result.attempts, 1);
        assert!(result.reproducing_seed.is_some());
    }

    #[test]
    fn partial_log_needs_a_search_and_hash_confirms_reproduction() {
        let log = record_partial_log(&order_sensitive, 42, 0.5).unwrap();
        assert!(log.prefix.len() < log.original_decisions);
        let result = search_replay(&order_sensitive, &log, 500).unwrap();
        assert!(
            result.reproducing_seed.is_some(),
            "some completion must reproduce the state"
        );
        // Confirm reproduction is genuine: re-run with the reported seed
        // and compare the checkpoint hashes again.
        let prefix = Arc::new(log.prefix.clone());
        let rc = RunConfig::random(0).with_scheduler(SchedulerKind::ScriptedThenRandom {
            script: prefix,
            seed: result.reproducing_seed.unwrap(),
        });
        let monitor = CheckMonitor::new(Scheme::HwInc, None, IgnoreSpec::new());
        let out = order_sensitive().run_with(&rc, monitor).unwrap();
        let got: Vec<HashSum> = out
            .monitor
            .into_hashes()
            .checkpoints
            .iter()
            .map(|c| c.hash)
            .collect();
        assert_eq!(got, log.checkpoint_hashes);
    }

    #[test]
    fn intermediate_hashes_reject_divergent_candidates_early() {
        let log = record_partial_log(&order_sensitive, 7, 0.25).unwrap();
        let result = search_replay(&order_sensitive, &log, 200).unwrap();
        if result.reproducing_seed.is_none() {
            // Even if nothing reproduced within budget, early rejection
            // must have pruned candidates.
            assert!(result.early_rejects > 0);
        }
    }
}
