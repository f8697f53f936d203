//! The bug-localization helper of Section 2.3.
//!
//! When InstantCheck reports nondeterminism at a checkpoint, this tool
//! re-executes the two differing runs, stores the *entire* memory state
//! at that checkpoint (not just the hash), diffs the two states, and maps
//! each differing address back to its allocation site (or global region)
//! and its offset within the allocation — the information the programmer
//! uses to decide where to put breakpoints or watchpoints.

use std::collections::BTreeMap;

use adhash::FpRound;
use tsim::{Addr, CheckpointInfo, Monitor, Program, RunConfig, SimError, StateView, ValKind};

/// Where a differing address came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffOrigin {
    /// A word of a named global region.
    Global {
        /// The region name.
        name: &'static str,
        /// Word offset inside the region.
        offset: usize,
    },
    /// A word of a heap block.
    Heap {
        /// The allocation-site label (the paper's "source code line that
        /// allocated the address").
        site: &'static str,
        /// Word offset from the start of the block (the paper's "array
        /// index or struct field").
        offset: usize,
        /// Which thread allocated the block.
        alloc_tid: usize,
        /// The thread-local allocation sequence number.
        alloc_seq: u64,
    },
    /// The address is live in only one of the two runs (structural
    /// allocation difference).
    OneSided,
}

impl std::fmt::Display for DiffOrigin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffOrigin::Global { name, offset } => write!(f, "global {name}[{offset}]"),
            DiffOrigin::Heap {
                site,
                offset,
                alloc_tid,
                alloc_seq,
            } => {
                write!(
                    f,
                    "heap {site}+{offset} (alloc #{alloc_seq} by t{alloc_tid})"
                )
            }
            DiffOrigin::OneSided => write!(f, "live in one run only"),
        }
    }
}

/// One address at which the two runs' states differ.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffSite {
    /// The differing address.
    pub addr: Addr,
    /// The value in run A (`None` if not live there).
    pub value_a: Option<u64>,
    /// The value in run B (`None` if not live there).
    pub value_b: Option<u64>,
    /// The declared kind of the word.
    pub kind: ValKind,
    /// Mapping back to source-level structure.
    pub origin: DiffOrigin,
}

/// The localization result: every address at which the two runs differ
/// at the chosen checkpoint.
#[derive(Debug, Clone)]
pub struct Localization {
    /// The checkpoint (sequence number) that was compared.
    pub checkpoint_seq: u64,
    /// The differing addresses, in address order.
    pub diffs: Vec<DiffSite>,
}

impl Localization {
    /// Returns `true` if the states were identical.
    pub fn is_empty(&self) -> bool {
        self.diffs.is_empty()
    }

    /// Groups the diffs by origin description — the report the tool
    /// finally shows the programmer.
    pub fn summary(&self) -> Vec<(String, usize)> {
        let mut groups: BTreeMap<String, usize> = BTreeMap::new();
        for d in &self.diffs {
            let key = match &d.origin {
                DiffOrigin::Global { name, .. } => format!("global {name}"),
                DiffOrigin::Heap { site, offset, .. } => {
                    format!("heap site {site} offset {offset}")
                }
                DiffOrigin::OneSided => "one-sided allocation".to_owned(),
            };
            *groups.entry(key).or_insert(0) += 1;
        }
        let mut v: Vec<(String, usize)> = groups.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

#[derive(Debug, Clone)]
struct CapturedWord {
    value: u64,
    kind: ValKind,
    origin: DiffOrigin,
}

/// A monitor that snapshots the full live state at one checkpoint.
#[derive(Debug, Default)]
struct StateCapture {
    target_seq: u64,
    snapshot: Option<BTreeMap<u64, CapturedWord>>,
}

impl Monitor for StateCapture {
    fn on_checkpoint(&mut self, info: &CheckpointInfo, view: &StateView<'_>) {
        if info.seq != self.target_seq || self.snapshot.is_some() {
            return;
        }
        let mut snap = BTreeMap::new();
        for g in view.globals() {
            for i in 0..g.region.len {
                let a = g.region.at(i);
                snap.insert(
                    a.raw(),
                    CapturedWord {
                        value: view.read(a).unwrap_or(0),
                        kind: g.region.kind,
                        origin: DiffOrigin::Global {
                            name: g.name,
                            offset: i,
                        },
                    },
                );
            }
        }
        for b in view.blocks() {
            for i in 0..b.len {
                let a = b.base.offset(i as u64);
                snap.insert(
                    a.raw(),
                    CapturedWord {
                        value: view.read(a).unwrap_or(0),
                        kind: b.kind_at(i),
                        origin: DiffOrigin::Heap {
                            site: b.site,
                            offset: i,
                            alloc_tid: b.tid,
                            alloc_seq: b.seq,
                        },
                    },
                );
            }
        }
        self.snapshot = Some(snap);
    }
}

/// Re-executes the two differing runs (`seed_a` logged its allocations;
/// `seed_b` replays them so addresses align), snapshots the full state at
/// `checkpoint_seq` in each, and returns the diff mapped back to
/// allocation sites.
///
/// `rounding`, when set, suppresses FP-noise-only differences, so the
/// report shows only the differences the checker would have reported
/// under the same rounding.
///
/// # Errors
///
/// Propagates any [`SimError`] from the two runs.
pub fn localize<F: Fn() -> Program>(
    source: F,
    seed_a: u64,
    seed_b: u64,
    checkpoint_seq: u64,
    lib_seed: u64,
    rounding: Option<FpRound>,
) -> Result<Localization, SimError> {
    let cfg_a = RunConfig::random(seed_a).with_lib_seed(lib_seed);
    let out_a = source().run_with(
        &cfg_a,
        StateCapture {
            target_seq: checkpoint_seq,
            snapshot: None,
        },
    )?;
    let cfg_b = RunConfig::random(seed_b)
        .with_lib_seed(lib_seed)
        .with_alloc_replay(out_a.alloc_log.clone());
    let out_b = source().run_with(
        &cfg_b,
        StateCapture {
            target_seq: checkpoint_seq,
            snapshot: None,
        },
    )?;

    let a = out_a.monitor.snapshot.unwrap_or_default();
    let b = out_b.monitor.snapshot.unwrap_or_default();

    let round = |w: &CapturedWord| match (w.kind, rounding) {
        (ValKind::F64, Some(r)) => r.apply_bits(w.value),
        _ => w.value,
    };

    let mut diffs = Vec::new();
    let addrs: std::collections::BTreeSet<u64> = a.keys().chain(b.keys()).copied().collect();
    for addr in addrs {
        match (a.get(&addr), b.get(&addr)) {
            (Some(wa), Some(wb)) => {
                if round(wa) != round(wb) {
                    diffs.push(DiffSite {
                        addr: Addr(addr),
                        value_a: Some(wa.value),
                        value_b: Some(wb.value),
                        kind: wa.kind,
                        origin: wa.origin.clone(),
                    });
                }
            }
            (Some(wa), None) => diffs.push(DiffSite {
                addr: Addr(addr),
                value_a: Some(wa.value),
                value_b: None,
                kind: wa.kind,
                origin: DiffOrigin::OneSided,
            }),
            (None, Some(wb)) => diffs.push(DiffSite {
                addr: Addr(addr),
                value_a: None,
                value_b: Some(wb.value),
                kind: wb.kind,
                origin: DiffOrigin::OneSided,
            }),
            (None, None) => unreachable!("address came from one of the maps"),
        }
    }
    Ok(Localization {
        checkpoint_seq,
        diffs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsim::{ProgramBuilder, TypeTag};

    /// A program whose `winner` global records the last thread to grab
    /// the lock, and whose heap record's word 1 does the same.
    fn racy() -> Program {
        let mut b = ProgramBuilder::new(2);
        let winner = b.global("winner", ValKind::U64, 1);
        let sum = b.global("sum", ValKind::U64, 1);
        let rec = b.global("rec_ptr", ValKind::U64, 1);
        let lock = b.mutex();
        b.setup(move |s| {
            let p = s.malloc("record", TypeTag::u64s(), 2);
            s.store(rec.at(0), p.raw());
        });
        for t in 0..2u64 {
            b.thread(async move |ctx| {
                ctx.lock(lock).await;
                ctx.store(winner.at(0), t + 1).await;
                let v = ctx.load(sum.at(0)).await;
                ctx.store(sum.at(0), v + 10).await;
                let p = Addr(ctx.load(rec.at(0)).await);
                ctx.store(p.offset(1), t + 100).await;
                ctx.unlock(lock).await;
            });
        }
        b.build()
    }

    fn seeds_that_differ() -> (u64, u64) {
        // Find two seeds whose lock orders differ.
        for s in 1..50 {
            let a = racy().run(&RunConfig::random(0)).unwrap();
            let b = racy().run(&RunConfig::random(s)).unwrap();
            let w = |o: &tsim::RunOutcome<tsim::NullMonitor>| {
                o.final_word(Addr(tsim::GLOBALS_BASE)).unwrap()
            };
            if w(&a) != w(&b) {
                return (0, s);
            }
        }
        panic!("no differing seeds found");
    }

    #[test]
    fn localizes_differing_words_to_their_sites() {
        let (sa, sb) = seeds_that_differ();
        // Checkpoint 0 is the End checkpoint (no barriers in this
        // program).
        let loc = localize(racy, sa, sb, 0, 7, None).unwrap();
        assert!(!loc.is_empty());
        // The differing words: global `winner` and heap record offset 1.
        // `sum` must NOT be reported (commutative).
        let origins: Vec<String> = loc.diffs.iter().map(|d| d.origin.to_string()).collect();
        assert!(origins.iter().any(|o| o.contains("winner")), "{origins:?}");
        assert!(
            origins.iter().any(|o| o.contains("record+1")),
            "{origins:?}"
        );
        assert!(!origins.iter().any(|o| o.contains("sum")), "{origins:?}");
        let summary = loc.summary();
        assert_eq!(summary.len(), 2);
    }

    #[test]
    fn identical_runs_produce_empty_diff() {
        let loc = localize(racy, 3, 3, 0, 7, None).unwrap();
        assert!(loc.is_empty());
        assert!(loc.summary().is_empty());
    }

    #[test]
    fn fp_rounding_suppresses_noise_only_diffs() {
        let fp_noise = || {
            let mut b = ProgramBuilder::new(2);
            let g = b.global("acc", ValKind::F64, 1);
            let lock = b.mutex();
            for term in [0.1f64, 0.2] {
                b.thread(async move |ctx| {
                    ctx.lock(lock).await;
                    let v = ctx.load_f64(g.at(0)).await;
                    ctx.store_f64(g.at(0), (v + term) * 1.0000001).await;
                    ctx.unlock(lock).await;
                });
            }
            b.build()
        };
        // Find seeds with different orders.
        let mut pair = None;
        for s in 1..50 {
            let a = localize(fp_noise, 0, s, 0, 7, None).unwrap();
            if !a.is_empty() {
                pair = Some(s);
                break;
            }
        }
        let s = pair.expect("some seed must flip the FP order");
        let rounded = localize(fp_noise, 0, s, 0, 7, Some(FpRound::default())).unwrap();
        assert!(rounded.is_empty(), "rounding should absorb the ulp noise");
    }
}
