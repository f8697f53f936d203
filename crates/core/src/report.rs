//! Cross-run comparison reports: per-checkpoint verdicts, nondeterminism
//! distributions (Figures 5 and 8), and the summary counters of Tables 1
//! and 2.

use std::collections::BTreeMap;
use std::fmt;

use mhm::CacheStats;
use tsim::{CheckpointKind, SimErrorKind};

use crate::checker::RunHashes;
use crate::policy::RunFailure;

/// How many of the compared runs produced each distinct state at one
/// checkpoint, sorted descending — the paper's "distribution of
/// nondeterminism points" (e.g. `16-11-3` in Figure 5(c)).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Distribution(Vec<usize>);

impl Distribution {
    /// Builds a distribution from the hash each run produced.
    pub(crate) fn from_hashes<I: IntoIterator<Item = u64>>(hashes: I) -> Self {
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for h in hashes {
            *counts.entry(h).or_insert(0) += 1;
        }
        let mut v: Vec<usize> = counts.into_values().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        Distribution(v)
    }

    /// The per-state run counts, largest first.
    pub fn counts(&self) -> &[usize] {
        &self.0
    }

    /// `true` if every run produced the same state.
    pub fn is_deterministic(&self) -> bool {
        self.0.len() <= 1
    }
}

impl fmt::Display for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "-");
        }
        let parts: Vec<String> = self.0.iter().map(|c| c.to_string()).collect();
        write!(f, "{}", parts.join("-"))
    }
}

/// The verdict for one dynamic checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointVerdict {
    /// All runs produced the same state hash here.
    Deterministic,
    /// At least two runs produced different state hashes here.
    Nondeterministic,
}

/// The outcome of comparing `runs` executions of one program.
///
/// Reports compare equal field for field — two campaigns that differ
/// only in how their runs were scheduled across worker threads (see
/// [`CampaignSpec::jobs`](crate::CampaignSpec::jobs)) produce equal
/// reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// How many runs were compared.
    pub runs: usize,
    /// Checkpoints compared (the minimum checkpoint count over runs).
    pub aligned_checkpoints: usize,
    /// `true` if the runs disagreed on the *number or kind* of
    /// checkpoints — control-flow-level nondeterminism.
    pub structural_divergence: bool,
    /// Dynamic checking points at which all runs agreed.
    pub det_points: usize,
    /// Dynamic checking points at which some runs disagreed.
    pub ndet_points: usize,
    /// The first run (1-based) whose hashes differ from run 1's, i.e.
    /// how quickly a tester learns the program is nondeterministic
    /// (column 6 / 8 of Table 1). `None` if never.
    pub first_ndet_run: Option<usize>,
    /// Whether the final (end-of-program) states agree across runs.
    pub det_at_end: bool,
    /// Whether the output streams agree across runs (§4.3).
    pub output_deterministic: bool,
    /// Per-checkpoint distributions, aligned by checkpoint index.
    pub distributions: Vec<Distribution>,
    /// Kind of each aligned checkpoint (from run 1).
    pub kinds: Vec<CheckpointKind>,
    /// Failed run attempts the campaign's
    /// [`FailurePolicy`](crate::FailurePolicy) absorbed (empty under
    /// the default abort policy, which surfaces the error instead).
    pub failures: Vec<RunFailure>,
    /// Campaign-wide L1/MHM cache counters (merged over the completed
    /// runs), when the cache model was enabled.
    pub cache: Option<CacheStats>,
}

impl CheckReport {
    /// Builds a report by aligning and comparing the runs' hash
    /// sequences.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    pub fn from_runs(runs: &[RunHashes]) -> Self {
        assert!(!runs.is_empty(), "need at least one run to report on");
        Self::from_outcomes(runs, Vec::new())
    }

    /// Builds a report from the completed runs of a campaign plus the
    /// failures its policy absorbed. Unlike [`from_runs`], tolerates an
    /// empty `runs` slice (a campaign whose every run failed under a
    /// generous skip budget): the comparison counters are all zero and
    /// only the failure section carries information.
    ///
    /// [`from_runs`]: CheckReport::from_runs
    pub fn from_outcomes(runs: &[RunHashes], failures: Vec<RunFailure>) -> Self {
        let n = runs.len();
        let min_cp = runs.iter().map(|r| r.checkpoints.len()).min().unwrap_or(0);
        let structural_divergence = runs.iter().any(|r| {
            r.checkpoints.len() != runs[0].checkpoints.len()
                || r.checkpoints
                    .iter()
                    .zip(&runs[0].checkpoints)
                    .any(|(a, b)| a.kind != b.kind)
        });

        let mut det_points = 0;
        let mut ndet_points = 0;
        let mut distributions = Vec::with_capacity(min_cp);
        let mut kinds = Vec::with_capacity(min_cp);
        for cp in 0..min_cp {
            let dist =
                Distribution::from_hashes(runs.iter().map(|r| r.checkpoints[cp].hash.as_raw()));
            if dist.is_deterministic() {
                det_points += 1;
            } else {
                ndet_points += 1;
            }
            kinds.push(runs[0].checkpoints[cp].kind);
            distributions.push(dist);
        }
        // Checkpoints beyond the shortest run exist in some runs only —
        // control-flow-level nondeterminism, reported through
        // `structural_divergence` rather than the point counters.

        let det_at_end = !structural_divergence
            && min_cp > 0
            && distributions
                .last()
                .is_some_and(Distribution::is_deterministic);

        let output_deterministic = runs
            .iter()
            .all(|r| r.output_digest == runs[0].output_digest);

        let first_ndet_run = (1..n)
            .find(|&r| runs[r].differs_from(&runs[0]))
            .map(|r| r + 1); // 1-based run number

        let mut cache: Option<CacheStats> = None;
        for r in runs {
            if let Some(c) = r.cache {
                cache.get_or_insert_with(CacheStats::default).merge(c);
            }
        }

        CheckReport {
            runs: n,
            aligned_checkpoints: min_cp,
            structural_divergence,
            det_points,
            ndet_points,
            first_ndet_run,
            det_at_end,
            output_deterministic,
            distributions,
            kinds,
            failures,
            cache,
        }
    }

    /// `true` if the program is externally deterministic within this
    /// test's coverage: every checkpoint, the end state, and the output
    /// agree across all runs, and no run's very *completion* depended on
    /// the schedule (see [`schedule_divergence`]).
    ///
    /// [`schedule_divergence`]: CheckReport::schedule_divergence
    pub fn is_deterministic(&self) -> bool {
        self.ndet_points == 0
            && !self.structural_divergence
            && self.output_deterministic
            && !self.schedule_divergence()
    }

    /// `true` if some runs completed while others failed in a
    /// schedule-dependent way (deadlock or livelock — see
    /// [`SimError::is_schedule_dependent`](tsim::SimError)). Whether
    /// the program *finishes* then depends on the interleaving, which is
    /// an external-determinism finding in its own right, not
    /// infrastructure noise.
    pub fn schedule_divergence(&self) -> bool {
        self.runs > 0
            && self
                .failures
                .iter()
                .any(|f| f.error.is_schedule_dependent())
    }

    /// The absorbed failures bucketed by [`SimErrorKind`], most common
    /// kind first — the report's per-run failure section.
    pub fn failure_buckets(&self) -> Vec<(SimErrorKind, usize)> {
        let mut buckets: BTreeMap<SimErrorKind, usize> = BTreeMap::new();
        for f in &self.failures {
            *buckets.entry(f.error.kind()).or_insert(0) += 1;
        }
        let mut v: Vec<(SimErrorKind, usize)> = buckets.into_iter().collect();
        v.sort_by_key(|&(kind, count)| (std::cmp::Reverse(count), kind));
        v
    }

    /// The absorbed failures grouped by run slot, in slot order; each
    /// bucket holds the slot's failed attempts in attempt order. A
    /// slot recovering under [`FailurePolicy::Retry`](crate::FailurePolicy)
    /// marks only its *own* bucket recovered — failures never move
    /// between buckets, whatever order the campaign ran the slots in.
    pub fn failures_by_slot(&self) -> Vec<(usize, Vec<&RunFailure>)> {
        let mut buckets: BTreeMap<usize, Vec<&RunFailure>> = BTreeMap::new();
        for f in &self.failures {
            buckets.entry(f.run_index).or_default().push(f);
        }
        buckets.into_iter().collect()
    }

    /// The failures whose slots never completed (under
    /// [`FailurePolicy::Retry`](crate::FailurePolicy) a slot can fail
    /// and then recover; those attempts are excluded here).
    pub fn unrecovered_failures(&self) -> impl Iterator<Item = &RunFailure> {
        self.failures.iter().filter(|f| !f.recovered)
    }

    /// The verdict at one aligned checkpoint.
    pub fn verdict(&self, checkpoint: usize) -> CheckpointVerdict {
        if self.distributions[checkpoint].is_deterministic() {
            CheckpointVerdict::Deterministic
        } else {
            CheckpointVerdict::Nondeterministic
        }
    }

    /// Groups the checkpoints by their distribution, most common first —
    /// the Figure 5/8 presentation ("156 checking points behaved
    /// 16-11-3").
    pub fn grouped_distributions(&self) -> Vec<(Distribution, usize)> {
        let mut groups: BTreeMap<Distribution, usize> = BTreeMap::new();
        for d in &self.distributions {
            *groups.entry(d.clone()).or_insert(0) += 1;
        }
        let mut v: Vec<(Distribution, usize)> = groups.into_iter().collect();
        v.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        v
    }

    /// The distributions of only the nondeterministic checkpoints.
    pub fn ndet_distributions(&self) -> Vec<(Distribution, usize)> {
        self.grouped_distributions()
            .into_iter()
            .filter(|(d, _)| !d.is_deterministic())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::CheckpointRecord;
    use adhash::HashSum;
    use tsim::CheckpointKind;

    fn hashes(seq: &[u64]) -> RunHashes {
        RunHashes {
            checkpoints: seq
                .iter()
                .map(|&h| CheckpointRecord {
                    kind: CheckpointKind::End,
                    hash: HashSum::from_raw(h),
                })
                .collect(),
            output_digest: 0,
            extra_instr: 0,
            stores: 0,
            hash_updates: 0,
            cache: None,
        }
    }

    #[test]
    fn distribution_sorting_and_display() {
        let d = Distribution::from_hashes([1, 2, 1, 1, 3, 2]);
        assert_eq!(d.counts(), &[3, 2, 1]);
        assert!(!d.is_deterministic());
        assert_eq!(d.to_string(), "3-2-1");
        let det = Distribution::from_hashes([7, 7, 7]);
        assert!(det.is_deterministic());
        assert_eq!(det.to_string(), "3");
        assert_eq!(Distribution::from_hashes([]).to_string(), "-");
    }

    #[test]
    fn deterministic_report() {
        let runs = vec![hashes(&[1, 2, 3]); 5];
        let r = CheckReport::from_runs(&runs);
        assert!(r.is_deterministic());
        assert_eq!(r.det_points, 3);
        assert_eq!(r.ndet_points, 0);
        assert_eq!(r.first_ndet_run, None);
        assert!(r.det_at_end);
        assert!(!r.structural_divergence);
        assert_eq!(r.verdict(0), CheckpointVerdict::Deterministic);
    }

    #[test]
    fn nondeterminism_at_one_point() {
        let runs = vec![hashes(&[1, 2, 3]), hashes(&[1, 9, 3]), hashes(&[1, 2, 3])];
        let r = CheckReport::from_runs(&runs);
        assert!(!r.is_deterministic());
        assert_eq!(r.det_points, 2);
        assert_eq!(r.ndet_points, 1);
        assert_eq!(r.first_ndet_run, Some(2));
        assert!(r.det_at_end, "masked by the end of the run");
        assert_eq!(r.verdict(1), CheckpointVerdict::Nondeterministic);
        let ndet = r.ndet_distributions();
        assert_eq!(ndet.len(), 1);
        assert_eq!(ndet[0].0.counts(), &[2, 1]);
    }

    #[test]
    fn first_ndet_run_counts_runs_not_indices() {
        let runs = vec![hashes(&[1]), hashes(&[1]), hashes(&[2])];
        let r = CheckReport::from_runs(&runs);
        assert_eq!(r.first_ndet_run, Some(3));
        assert!(!r.det_at_end);
    }

    #[test]
    fn structural_divergence_detected() {
        let runs = vec![hashes(&[1, 2]), hashes(&[1])];
        let r = CheckReport::from_runs(&runs);
        assert!(r.structural_divergence);
        assert!(!r.is_deterministic());
        assert!(!r.det_at_end);
        assert_eq!(r.aligned_checkpoints, 1);
        assert_eq!(r.first_ndet_run, Some(2));
    }

    #[test]
    fn output_divergence_detected() {
        let mut a = hashes(&[1]);
        let mut b = hashes(&[1]);
        a.output_digest = 10;
        b.output_digest = 20;
        let r = CheckReport::from_runs(&[a, b]);
        assert!(!r.output_deterministic);
        assert!(!r.is_deterministic());
        assert_eq!(r.first_ndet_run, Some(2));
        assert_eq!(r.ndet_points, 0, "memory states agreed");
    }

    #[test]
    fn grouped_distributions_count_checkpoints() {
        let runs = vec![hashes(&[1, 2, 3, 4]), hashes(&[1, 9, 3, 4])];
        let r = CheckReport::from_runs(&runs);
        let groups = r.grouped_distributions();
        // Three checkpoints behaved "2", one behaved "1-1".
        assert_eq!(groups[0].1, 3);
        assert_eq!(groups[1].1, 1);
        assert_eq!(groups[1].0.counts(), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_runs_rejected() {
        let _ = CheckReport::from_runs(&[]);
    }

    fn failure(error: SimError, recovered: bool) -> RunFailure {
        RunFailure {
            run_index: 0,
            seed: 1,
            error,
            attempt: 0,
            recovered,
        }
    }

    use tsim::SimError;

    #[test]
    fn all_failed_campaign_reports_without_panicking() {
        let r =
            CheckReport::from_outcomes(&[], vec![failure(SimError::StepLimit { limit: 9 }, false)]);
        assert_eq!(r.runs, 0);
        assert_eq!(r.aligned_checkpoints, 0);
        assert!(!r.det_at_end);
        assert!(!r.schedule_divergence(), "no completed run to diverge from");
        assert_eq!(r.failure_buckets(), vec![(SimErrorKind::StepLimit, 1)]);
    }

    #[test]
    fn schedule_dependent_failure_is_a_determinism_signal() {
        let runs = vec![hashes(&[1, 2]); 4];
        let clean = CheckReport::from_outcomes(&runs, Vec::new());
        assert!(clean.is_deterministic());
        let with_deadlock = CheckReport::from_outcomes(
            &runs,
            vec![failure(
                SimError::Deadlock {
                    detail: "t0<->t1".into(),
                },
                false,
            )],
        );
        assert!(with_deadlock.schedule_divergence());
        assert!(!with_deadlock.is_deterministic());
        // A non-schedule failure (resource exhaustion) is noise, not a
        // verdict: determinism of the surviving runs stands.
        let with_alloc = CheckReport::from_outcomes(
            &runs,
            vec![failure(SimError::AllocFailed { tid: 0, site: "s" }, false)],
        );
        assert!(!with_alloc.schedule_divergence());
        assert!(with_alloc.is_deterministic());
    }

    #[test]
    fn failure_buckets_sort_by_count_then_kind() {
        let runs = vec![hashes(&[1]); 2];
        let r = CheckReport::from_outcomes(
            &runs,
            vec![
                failure(SimError::StepLimit { limit: 1 }, false),
                failure(
                    SimError::Deadlock {
                        detail: String::new(),
                    },
                    true,
                ),
                failure(
                    SimError::Deadlock {
                        detail: String::new(),
                    },
                    false,
                ),
            ],
        );
        assert_eq!(
            r.failure_buckets(),
            vec![(SimErrorKind::Deadlock, 2), (SimErrorKind::StepLimit, 1)]
        );
        assert_eq!(r.unrecovered_failures().count(), 2);
    }
}
