//! Failure policies and per-run outcomes for checking campaigns.
//!
//! A 30-run campaign is long enough that *something* can go wrong in the
//! middle: a scheduler seed that happens to deadlock the program, a
//! workload assertion that fires under one interleaving, an injected
//! fault from the [`tsim::FaultPlan`] harness. Historically the checker
//! aborted on the first such error and threw away the other 29 runs.
//! [`FailurePolicy`] makes that behavior configurable:
//!
//! * [`FailurePolicy::Abort`] — the default, and exactly the historical
//!   semantics: the first [`SimError`] aborts the campaign.
//! * [`FailurePolicy::Skip`] — a failed run is recorded as a
//!   [`RunFailure`] and its slot is skipped; the campaign completes with
//!   a partial (but still multi-run) [`CheckReport`](crate::CheckReport)
//!   unless more than `max_failures` runs fail.
//! * [`FailurePolicy::Retry`] — a failed run is retried in place, up to
//!   `max_retries` extra attempts, each under a fresh scheduler seed
//!   ([`retry_seed`]). Every failed attempt is still recorded.
//!
//! Crucially, a failure that is *schedule-dependent* (deadlock or
//! livelock — see [`SimError::is_schedule_dependent`]) is not mere
//! infrastructure trouble: deadlocking under one seed while
//! completing under another is itself a determinism finding, and the
//! report classifies it as one (see
//! [`CheckReport::schedule_divergence`](crate::CheckReport::schedule_divergence)).

use std::fmt;

use detrand::splitmix64;
use tsim::SimError;

use crate::checker::RunHashes;

/// What a checking campaign does when one of its runs fails.
///
/// ```
/// use instantcheck::{Checker, CheckerConfig, FailurePolicy, Scheme};
/// use tsim::{FaultKind, FaultPlan, ProgramBuilder, TypeTag, Trigger, ValKind};
///
/// let source = || {
///     let mut b = ProgramBuilder::new(2);
///     let g = b.global("sum", ValKind::U64, 1);
///     let lock = b.mutex();
///     for t in 0..2u64 {
///         b.thread(async move |ctx| {
///             let p = ctx.malloc("scratch", TypeTag::u64s(), 1).await;
///             ctx.store(p, t).await;
///             ctx.lock(lock).await;
///             let v = ctx.load(g.at(0)).await;
///             ctx.store(g.at(0), v + t + 1).await;
///             ctx.unlock(lock).await;
///             ctx.free(p).await;
///         });
///     }
///     b.build()
/// };
/// // Inject an allocation failure into run slot 2; under `Skip` the
/// // campaign still completes, with the failure on the record.
/// let plan = FaultPlan::new(7).with(FaultKind::AllocFail, Trigger::Nth(0));
/// let cfg = CheckerConfig::new(Scheme::HwInc)
///     .with_runs(6)
///     .with_policy(FailurePolicy::Skip { max_failures: 2 })
///     .with_fault_in_run(2, plan);
/// let report = Checker::new(cfg).expect("valid config").check(source).unwrap();
/// assert_eq!(report.runs, 5, "five of six runs completed");
/// assert_eq!(report.failures.len(), 1);
/// assert!(report.is_deterministic(), "an alloc fault is not a determinism bug");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Abort the whole campaign on the first failed run (the historical
    /// behavior, and the default).
    #[default]
    Abort,
    /// Record the failure and move on to the next run slot.
    Skip {
        /// Abort anyway once more than this many runs have failed — a
        /// backstop so a systematically broken campaign does not
        /// silently degrade into a one-run "comparison".
        max_failures: usize,
    },
    /// Re-attempt the failed run slot in place, each retry under a
    /// fresh scheduler seed (see [`retry_seed`]): a run is a
    /// deterministic function of its seed, so replaying the same seed
    /// would only fail again.
    Retry {
        /// Extra attempts per run slot beyond the first, after which
        /// the campaign aborts with the last error.
        max_retries: usize,
    },
}

/// The deterministic seed for retry attempt `attempt` (1-based; attempt
/// 0 is the original run) of run slot `run_index` in a campaign whose
/// first-attempt seed stream starts at `base_seed`.
///
/// The derivation is a pure function of the three inputs, so a retried
/// campaign is as reproducible as an untouched one. The salt keeps the
/// retry stream disjoint from the `base_seed + i` first-attempt stream.
#[must_use]
pub fn retry_seed(base_seed: u64, run_index: usize, attempt: usize) -> u64 {
    const RESEED_SALT: u64 = 0x5eed_a6a1_4e77_2a1b;
    splitmix64(splitmix64(base_seed ^ RESEED_SALT) ^ ((run_index as u64) << 32) ^ attempt as u64)
}

/// One failed run attempt, as recorded in a
/// [`CheckReport`](crate::CheckReport)'s failure section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFailure {
    /// The campaign run slot (0-based) the attempt belonged to.
    pub run_index: usize,
    /// The scheduler seed of the failing attempt.
    pub seed: u64,
    /// The error that ended the attempt.
    pub error: SimError,
    /// Which attempt of the slot this was: 0 for the first try, `n` for
    /// the `n`th retry.
    pub attempt: usize,
    /// `true` if a later attempt of the same slot completed (only
    /// possible under [`FailurePolicy::Retry`]).
    pub recovered: bool,
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run {} (seed {}, attempt {}): {}{}",
            self.run_index + 1,
            self.seed,
            self.attempt,
            self.error,
            if self.recovered { " [recovered]" } else { "" }
        )
    }
}

/// The outcome of one run attempt of a campaign: the hashes it
/// produced, or a structured failure.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The attempt completed and produced a hash sequence.
    Completed {
        /// The scheduler seed the attempt ran under.
        seed: u64,
        /// The campaign run slot (0-based) the attempt filled.
        run_index: usize,
        /// The hashes the run produced.
        hashes: RunHashes,
    },
    /// The attempt failed.
    Failed(RunFailure),
}

impl RunOutcome {
    /// The completed hashes, if the attempt completed.
    #[must_use]
    pub fn hashes(&self) -> Option<&RunHashes> {
        match self {
            RunOutcome::Completed { hashes, .. } => Some(hashes),
            RunOutcome::Failed(_) => None,
        }
    }

    /// The failure record, if the attempt failed.
    #[must_use]
    pub fn failure(&self) -> Option<&RunFailure> {
        match self {
            RunOutcome::Completed { .. } => None,
            RunOutcome::Failed(f) => Some(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_abort() {
        assert_eq!(FailurePolicy::default(), FailurePolicy::Abort);
    }

    #[test]
    fn retry_seeds_are_deterministic_and_spread_out() {
        let a = retry_seed(1, 3, 1);
        assert_eq!(a, retry_seed(1, 3, 1), "pure function of its inputs");
        assert_ne!(a, retry_seed(1, 3, 2), "attempts differ");
        assert_ne!(a, retry_seed(1, 4, 1), "slots differ");
        assert_ne!(a, retry_seed(2, 3, 1), "campaigns differ");
        // The retry stream must not collide with the base_seed + i
        // first-attempt stream for small campaigns.
        for i in 0..64u64 {
            assert_ne!(a, 1 + i);
        }
    }

    #[test]
    fn failure_display_names_the_run_and_seed() {
        let f = RunFailure {
            run_index: 4,
            seed: 77,
            error: SimError::StepLimit { limit: 10 },
            attempt: 2,
            recovered: true,
        };
        let s = f.to_string();
        assert!(s.contains("run 5"), "{s}");
        assert!(s.contains("seed 77"), "{s}");
        assert!(s.contains("attempt 2"), "{s}");
        assert!(s.contains("[recovered]"), "{s}");
    }
}
