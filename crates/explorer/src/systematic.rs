//! Systematic testing with state pruning (§6.2).
//!
//! A CHESS-style stateless explorer: it enumerates every scheduling of a
//! program by depth-first search over the scheduler's decision tree
//! (forcing a decision prefix with a scripted scheduler and letting a
//! deterministic fallback complete the run). For each complete execution
//! it records the happens-before equivalence class (what CHESS prunes
//! on) and the final state hash (what InstantCheck lets a tool prune
//! on). Because different synchronization orders can reach identical
//! states — the paper's Figure 1 — the state-hash partition is always
//! coarser, i.e. hash pruning explores at most as many (usually far
//! fewer) executions than HB pruning.

use std::collections::HashSet;
use std::sync::Arc;

use instantcheck::{CheckMonitor, IgnoreSpec, Scheme};
use tsim::{Program, RunConfig, SchedulerKind, SimError};

use crate::hb;

/// Statistics from an exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplorationStats {
    /// Complete executions enumerated (schedules explored without any
    /// pruning).
    pub executions: usize,
    /// Distinct happens-before classes among them — the number of
    /// executions a CHESS-style HB prune must still explore.
    pub distinct_hb_classes: usize,
    /// Distinct final states (by hash) — the number an InstantCheck
    /// state prune must still explore.
    pub distinct_final_states: usize,
    /// Distinct per-checkpoint state-hash *sequences* — state pruning at
    /// every checkpoint rather than only at the end.
    pub distinct_state_sequences: usize,
    /// `true` if the exploration hit the execution budget before
    /// exhausting the tree.
    pub truncated: bool,
}

/// Exhaustively explores every schedule of `source` (up to `limit`
/// executions), classifying executions by HB signature and by state
/// hash.
///
/// The program must be small: the schedule tree grows exponentially.
///
/// # Errors
///
/// Propagates any [`SimError`].
pub fn explore<F: Fn() -> Program>(source: F, limit: usize) -> Result<ExplorationStats, SimError> {
    let mut pending: Vec<Vec<u32>> = vec![Vec::new()];
    let mut executions = 0usize;
    let mut hb_classes: HashSet<u64> = HashSet::new();
    let mut final_states: HashSet<u64> = HashSet::new();
    let mut state_sequences: HashSet<Vec<u64>> = HashSet::new();
    let mut truncated = false;

    while let Some(prefix) = pending.pop() {
        if executions >= limit {
            truncated = true;
            break;
        }
        let forced = prefix.len();
        let rc = RunConfig::random(0)
            .with_trace()
            .with_options_recorded()
            .with_scheduler(SchedulerKind::Scripted {
                script: Arc::new(prefix),
            });
        let monitor = CheckMonitor::new(Scheme::HwInc, None, IgnoreSpec::new());
        let out = source().run_with(&rc, monitor)?;
        executions += 1;

        let nthreads = out.instr.len();
        let trace = out.trace.as_ref().expect("trace requested");
        hb_classes.insert(hb::hb_signature(trace, nthreads));
        let hashes = out.monitor.into_hashes();
        let seq: Vec<u64> = hashes.checkpoints.iter().map(|c| c.hash.as_raw()).collect();
        final_states.insert(seq.last().copied().unwrap_or(0));
        state_sequences.insert(seq);

        // Branch: for every decision point past the forced prefix, try
        // each untried alternative. Alternatives are pushed deepest-last
        // so the DFS visits each complete schedule exactly once.
        for k in (forced..out.decisions.len()).rev() {
            let chosen = out.decisions[k];
            for &alt in &out.decision_options[k] {
                if alt != chosen {
                    let mut next = out.decisions[..k].to_vec();
                    next.push(alt);
                    pending.push(next);
                }
            }
        }
    }

    Ok(ExplorationStats {
        executions,
        distinct_hb_classes: hb_classes.len(),
        distinct_final_states: final_states.len(),
        distinct_state_sequences: state_sequences.len(),
        truncated,
    })
}

/// Statistics from a *state-pruned* segmented exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrunedExplorationStats {
    /// Runs actually executed (the cost of the pruned search).
    pub executions: usize,
    /// Representatives kept at each checkpoint frontier (distinct state
    /// hashes).
    pub frontier_sizes: Vec<usize>,
    /// Distinct final states found.
    pub distinct_final_states: usize,
    /// `true` if some segment hit the execution budget.
    pub truncated: bool,
}

/// Explores a *barrier-structured* program segment by segment, keeping
/// only one representative schedule per distinct state hash at each
/// checkpoint — the InstantCheck-enabled pruning of §6.2.
///
/// Between checkpoints, all schedules of a segment are enumerated from
/// each surviving representative; schedules reaching an
/// already-seen state at the next checkpoint are pruned (their subtrees
/// coincide in reachable states, because at a completed barrier every
/// thread is at a known program point, so the memory state determines
/// the rest of the execution tree). For programs whose phases commute
/// internally this collapses the multiplicative schedule tree into an
/// additive one; the `pruning` harness binary prints the comparison.
///
/// The same soundness caveat as CHESS-style state caching applies: the
/// checkpoint must be a full barrier (all threads quiescent), which the
/// simulator's pthread-barrier checkpoints guarantee. A `2^-64`
/// hash-collision risk is inherited from InstantCheck itself.
///
/// # Errors
///
/// Propagates any [`SimError`].
pub fn explore_with_state_pruning<F: Fn() -> Program>(
    source: F,
    limit: usize,
) -> Result<PrunedExplorationStats, SimError> {
    let mut executions = 0usize;
    let mut truncated = false;
    let mut frontier: Vec<Vec<u32>> = vec![Vec::new()];
    let mut frontier_sizes = Vec::new();
    let mut final_states: HashSet<u64> = HashSet::new();
    let mut segment = 0usize;

    loop {
        // Enumerate all schedules of segment `segment` from every
        // representative; collect (hash at this segment's checkpoint →
        // prefix up to that checkpoint) and any finished runs.
        let mut next: std::collections::HashMap<u64, Vec<u32>> = std::collections::HashMap::new();
        let mut any_continues = false;

        let mut pending: Vec<Vec<u32>> = frontier.clone();

        while let Some(prefix) = pending.pop() {
            if executions >= limit {
                truncated = true;
                break;
            }
            let forced = prefix.len();
            let rc = RunConfig::random(0).with_options_recorded().with_scheduler(
                SchedulerKind::Scripted {
                    script: Arc::new(prefix),
                },
            );
            let monitor = CheckMonitor::new(Scheme::HwInc, None, IgnoreSpec::new());
            let out = source().run_with(&rc, monitor)?;
            executions += 1;

            let hashes = out.monitor.into_hashes();
            let cdi = &out.checkpoint_decision_index;
            // The segment boundary: the decision index at which this
            // run fired its `segment`-th checkpoint.
            let boundary = cdi.get(segment).copied().unwrap_or(out.decisions.len());
            let is_last_checkpoint = segment + 1 >= cdi.len();

            // Record this run's state at the segment checkpoint.
            if let Some(rec) = hashes.checkpoints.get(segment) {
                next.entry(rec.hash.as_raw())
                    .or_insert_with(|| out.decisions[..boundary].to_vec());
            }
            if is_last_checkpoint {
                if let Some(last) = hashes.checkpoints.last() {
                    final_states.insert(last.hash.as_raw());
                }
            } else {
                any_continues = true;
            }

            // Branch only on decisions inside this segment.
            for k in (forced..boundary.min(out.decisions.len())).rev() {
                let chosen = out.decisions[k];
                for &alt in &out.decision_options[k] {
                    if alt != chosen {
                        let mut p = out.decisions[..k].to_vec();
                        p.push(alt);
                        pending.push(p);
                    }
                }
            }
        }

        frontier_sizes.push(next.len());
        if truncated || !any_continues || next.is_empty() {
            // Last segment's checkpoint was the End checkpoint (or we
            // ran out): its distinct hashes are the final states.
            if !next.is_empty() && !any_continues {
                for h in next.keys() {
                    final_states.insert(*h);
                }
            }
            break;
        }
        frontier = next.into_values().collect();
        frontier.sort();
        segment += 1;
    }

    Ok(PrunedExplorationStats {
        executions,
        frontier_sizes,
        distinct_final_states: final_states.len(),
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::{ProgramBuilder, ValKind};

    /// The paper's Figure 1: commutative `G += L` under a lock. Two lock
    /// orders (two HB classes), one final state.
    fn figure1() -> Program {
        let mut b = ProgramBuilder::new(2);
        let g = b.global("G", ValKind::U64, 1);
        let lock = b.mutex();
        b.setup(move |s| s.store(g.at(0), 2));
        for local in [7u64, 3u64] {
            b.thread(async move |ctx| {
                ctx.lock(lock).await;
                let v = ctx.load(g.at(0)).await;
                ctx.store(g.at(0), v + local).await;
                ctx.unlock(lock).await;
            });
        }
        b.build()
    }

    /// Order-dependent: last writer wins. Two HB classes, two states.
    fn last_writer() -> Program {
        let mut b = ProgramBuilder::new(2);
        let g = b.global("G", ValKind::U64, 1);
        let lock = b.mutex();
        for t in 0..2u64 {
            b.thread(async move |ctx| {
                ctx.lock(lock).await;
                ctx.store(g.at(0), t + 1).await;
                ctx.unlock(lock).await;
            });
        }
        b.build()
    }

    #[test]
    fn figure1_hash_prunes_more_than_hb() {
        let stats = explore(figure1, 10_000).unwrap();
        assert!(!stats.truncated);
        assert!(stats.executions >= 2);
        assert_eq!(stats.distinct_hb_classes, 2, "two lock orders");
        assert_eq!(stats.distinct_final_states, 1, "one final state");
        // Ordering: states ≤ HB classes ≤ executions.
        assert!(stats.distinct_final_states <= stats.distinct_hb_classes);
        assert!(stats.distinct_hb_classes <= stats.executions);
    }

    #[test]
    fn last_writer_keeps_both_classes() {
        let stats = explore(last_writer, 10_000).unwrap();
        assert_eq!(stats.distinct_hb_classes, 2);
        assert_eq!(stats.distinct_final_states, 2, "truly different outcomes");
    }

    #[test]
    fn three_commuting_threads_collapse_to_one_state() {
        let build = || {
            let mut b = ProgramBuilder::new(3);
            let g = b.global("G", ValKind::U64, 1);
            let lock = b.mutex();
            for t in 0..3u64 {
                b.thread(async move |ctx| {
                    ctx.lock(lock).await;
                    let v = ctx.load(g.at(0)).await;
                    ctx.store(g.at(0), v + 10 * (t + 1)).await;
                    ctx.unlock(lock).await;
                });
            }
            b.build()
        };
        let stats = explore(build, 100_000).unwrap();
        assert!(!stats.truncated);
        assert_eq!(stats.distinct_final_states, 1);
        assert_eq!(stats.distinct_hb_classes, 6, "3! lock orders");
        assert!(stats.executions >= 6);
    }

    #[test]
    fn truncation_is_reported() {
        let stats = explore(last_writer, 1).unwrap();
        assert!(stats.truncated);
        assert_eq!(stats.executions, 1);
    }

    /// A two-phase barrier program whose phases commute internally: the
    /// full schedule tree is (phase1 × phase2) but state pruning visits
    /// roughly (phase1 + phase2).
    fn two_phase_commuting() -> Program {
        let mut b = ProgramBuilder::new(2);
        let g = b.global("G", ValKind::U64, 2);
        let bar = b.barrier();
        let lock = b.mutex();
        for t in 0..2u64 {
            b.thread(async move |ctx| {
                ctx.lock(lock).await;
                let v = ctx.load(g.at(0)).await;
                ctx.store(g.at(0), v + 10 * (t + 1)).await;
                ctx.unlock(lock).await;
                ctx.barrier(bar).await;
                ctx.lock(lock).await;
                let v = ctx.load(g.at(1)).await;
                ctx.store(g.at(1), v + 100 * (t + 1)).await;
                ctx.unlock(lock).await;
            });
        }
        b.build()
    }

    #[test]
    fn segmented_pruning_collapses_commuting_phases() {
        let full = explore(two_phase_commuting, 2_000_000).unwrap();
        let pruned = explore_with_state_pruning(two_phase_commuting, 2_000_000).unwrap();
        assert!(!full.truncated && !pruned.truncated);
        // Both agree on the reachable final states.
        assert_eq!(pruned.distinct_final_states, full.distinct_final_states);
        assert_eq!(pruned.distinct_final_states, 1);
        // The pruned search does strictly less work.
        assert!(
            pruned.executions < full.executions / 2,
            "pruned {} vs full {}",
            pruned.executions,
            full.executions
        );
        // One representative survives each barrier frontier.
        assert!(pruned.frontier_sizes.iter().all(|&n| n == 1));
    }

    #[test]
    fn segmented_pruning_preserves_genuinely_different_states() {
        // Last-writer phases: states multiply; pruning must keep them.
        fn two_phase_last_writer() -> Program {
            let mut b = ProgramBuilder::new(2);
            let g = b.global("G", ValKind::U64, 2);
            let bar = b.barrier();
            let lock = b.mutex();
            for t in 0..2u64 {
                b.thread(async move |ctx| {
                    ctx.lock(lock).await;
                    ctx.store(g.at(0), t + 1).await;
                    ctx.unlock(lock).await;
                    ctx.barrier(bar).await;
                    ctx.lock(lock).await;
                    ctx.store(g.at(1), (t + 1) * 10).await;
                    ctx.unlock(lock).await;
                });
            }
            b.build()
        }
        let full = explore(two_phase_last_writer, 2_000_000).unwrap();
        let pruned = explore_with_state_pruning(two_phase_last_writer, 2_000_000).unwrap();
        assert_eq!(pruned.distinct_final_states, full.distinct_final_states);
        assert_eq!(pruned.distinct_final_states, 4, "2 × 2 outcomes");
    }
}
