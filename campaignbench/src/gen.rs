//! Seeded campaign generation.
//!
//! Every workload's inputs are a pure function of `(workload, seed)`.
//! The seed chooses scheduler and library seeds and, on the direct
//! paths, the submission order. It never changes the composition: how
//! many campaigns of each kernel, scale and scheme a pass holds is fixed
//! per workload, so the latency distribution has the same shape under
//! every seed and only the interleavings differ.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use adhash::FpRound;
use instantcheck::{CampaignSpec, DetClass, IgnoreSpec, Scheme};

/// The 13 deterministic Table-1 kernels (the four nondeterministic or
/// buggy ones are left out: their verdicts are not what a campaign
/// benchmark should be sensitive to).
pub const KERNELS: [&str; 13] = [
    "blackscholes",
    "fft",
    "lu",
    "radix",
    "swaptions",
    "volrend",
    "fluidanimate",
    "ocean",
    "waterNS",
    "waterSP",
    "cholesky",
    "pbzip2",
    "sphinx3",
];

/// Paper-scale kernels cheap enough (a few ms per run) to sit in a
/// cold pass.
pub const COLD_PAPER_KERNELS: [&str; 6] = [
    "fft",
    "radix",
    "volrend",
    "cholesky",
    "pbzip2",
    "fluidanimate",
];

/// Paper-scale kernels recorded into the warm corpus: `ocean` gives the
/// tens-of-KB records, the other two the few-KB ones.
pub const WARM_PAPER_KERNELS: [&str; 3] = ["ocean", "blackscholes", "lu"];

/// Scheduler-seed space. Seeds are drawn from a range far from the
/// small seeds tests and committed corpora use.
const SEED_SPACE: u64 = 1 << 40;

/// splitmix64: the generator behind every seeded choice.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One checking campaign, as the benchmark submits it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Campaign {
    /// Unique within a pass; also the report name.
    pub id: String,
    pub kernel: &'static str,
    pub scaled: bool,
    pub scheme: Scheme,
    pub runs: usize,
    pub base_seed: u64,
    pub lib_seed: u64,
}

impl Campaign {
    /// The workload identity cache keys carry.
    pub fn workload_id(&self) -> String {
        workload_id(self.kernel, self.scaled)
    }

    /// The campaign as a spec: FP rounding and ignore spec as the
    /// kernel's Table-1 class calls for, `jobs` as given.
    pub fn spec(
        &self,
        class: DetClass,
        uses_fp: bool,
        ignore: &IgnoreSpec,
        jobs: usize,
    ) -> CampaignSpec {
        let mut spec = CampaignSpec::new(self.workload_id(), self.scheme)
            .with_runs(self.runs)
            .with_base_seed(self.base_seed)
            .with_jobs(jobs);
        spec.lib_seed = self.lib_seed;
        match class {
            DetClass::FpRounded => spec.rounding = Some(FpRound::default()),
            DetClass::IgnoringStructs => {
                if uses_fp {
                    spec.rounding = Some(FpRound::default());
                }
                spec.ignore = ignore.clone();
            }
            DetClass::BitExact | DetClass::Nondeterministic => {}
        }
        spec
    }

    fn render(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "{} {} {} {} runs={} seed={} lib={}",
            self.id,
            self.kernel,
            if self.scaled { "scaled" } else { "full" },
            self.scheme.name(),
            self.runs,
            self.base_seed,
            self.lib_seed
        );
    }
}

pub fn workload_id(kernel: &str, scaled: bool) -> String {
    format!("{kernel}:{}", if scaled { "scaled" } else { "full" })
}

/// Draws base seeds that are distinct across the whole plan, so no two
/// campaigns share a run key unless the plan says so.
struct Seeds {
    rng: Rng,
    used: BTreeSet<u64>,
}

impl Seeds {
    fn new(seed: u64) -> Seeds {
        Seeds {
            rng: Rng::new(seed, 1),
            used: BTreeSet::new(),
        }
    }

    /// A fresh base seed whose whole run range `base..base + 64` is
    /// disjoint from every earlier one.
    fn fresh(&mut self) -> u64 {
        loop {
            let base = 1 + (self.rng.below(SEED_SPACE) & !63);
            if self.used.insert(base) {
                return base;
            }
        }
    }

    fn lib(&mut self) -> u64 {
        self.rng.next()
    }
}

/// The campaigns of one cold pass (or one warm recording), in seeded
/// submission order.
pub fn campaign_list(
    specs: &[(&'static str, bool, Scheme, usize, usize)],
    seed: u64,
) -> Vec<Campaign> {
    let mut seeds = Seeds::new(seed);
    let mut list = Vec::new();
    for &(kernel, scaled, scheme, count, runs) in specs {
        for _ in 0..count {
            list.push(Campaign {
                id: String::new(),
                kernel,
                scaled,
                scheme,
                runs,
                base_seed: seeds.fresh(),
                lib_seed: seeds.lib(),
            });
        }
    }
    Rng::new(seed, 2).shuffle(&mut list);
    for (i, c) in list.iter_mut().enumerate() {
        c.id = format!("c{i}");
    }
    list
}

/// cold-check: per kernel eight scaled `HwInc` and two scaled `SwTr`
/// campaigns, plus one paper-scale `HwInc` campaign of each cheap
/// paper-scale kernel; 30 runs each (the paper's campaign length).
pub fn cold_plan(seed: u64) -> Vec<Campaign> {
    let mut specs = Vec::new();
    for k in KERNELS {
        specs.push((k, true, Scheme::HwInc, 8, 30));
        specs.push((k, true, Scheme::SwTr, 2, 30));
    }
    for k in COLD_PAPER_KERNELS {
        specs.push((k, false, Scheme::HwInc, 1, 30));
    }
    campaign_list(&specs, seed)
}

/// warm-replay: 26 scaled campaigns per kernel (22 `HwInc`, 4 `SwTr`)
/// of 30 runs, plus two 8-run paper-scale campaigns of each
/// [`WARM_PAPER_KERNELS`] entry — 10,188 distinct runs.
pub fn warm_plan(seed: u64) -> Vec<Campaign> {
    let mut specs = Vec::new();
    for k in KERNELS {
        specs.push((k, true, Scheme::HwInc, 22, 30));
        specs.push((k, true, Scheme::SwTr, 4, 30));
    }
    for k in WARM_PAPER_KERNELS {
        specs.push((k, false, Scheme::HwInc, 2, 8));
    }
    campaign_list(&specs, seed)
}

/// Tenants of the daemon mix.
pub const TENANTS: [&str; 3] = ["t0", "t1", "t2"];
/// Batches per daemon pass.
pub const BATCHES: usize = 8;
/// Runs of a first submission of a family, and how many more an
/// extending submission asks for.
const FAMILY_RUNS: usize = 20;
const EXTEND_RUNS: usize = 10;

/// One daemon submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submitted {
    pub tenant: &'static str,
    pub campaign: Campaign,
}

/// daemon-mix: [`BATCHES`] batches of 12 scaled `HwInc` campaigns from
/// three tenants. Each batch (after the first) holds four fresh
/// families (all runs new), four extensions of a family an earlier batch
/// submitted (its runs hit the memo, ten more are appended), and two
/// racing pairs (one family submitted back to back by two tenants, so
/// the second waits on the first's in-flight claims). The first batch
/// has eight fresh families in place of the extensions. 52 families in
/// all: four of each kernel.
///
/// A batch's makespan on two workers is what every campaign in it waits
/// for, so kernels take their roles and places in a fixed order: the
/// seed draws scheduler and library seeds only, and every seed gives
/// batches of the same shape.
pub fn daemon_plan(seed: u64) -> Vec<Vec<Submitted>> {
    let mut seeds = Seeds::new(seed);
    let mut kernels = KERNELS.iter().copied().cycle();
    let mut family = |seeds: &mut Seeds| Campaign {
        id: String::new(),
        kernel: kernels.next().expect("cycle never ends"),
        scaled: true,
        scheme: Scheme::HwInc,
        runs: FAMILY_RUNS,
        base_seed: seeds.fresh(),
        lib_seed: seeds.lib(),
    };
    // Families submitted once and not yet extended, oldest first.
    let mut extendable: std::collections::VecDeque<Campaign> = Default::default();
    let mut batches = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let mut order: Vec<Campaign> = Vec::new();
        let mut born = Vec::new();
        for slot in 0..4 {
            let f = family(&mut seeds);
            born.push(f.clone());
            order.push(f);
            // The first batch has nothing to extend: a fresh family
            // takes the extension's place.
            let next = match extendable.pop_front() {
                Some(mut f) => {
                    f.runs += EXTEND_RUNS;
                    f
                }
                None => {
                    let f = family(&mut seeds);
                    born.push(f.clone());
                    f
                }
            };
            order.push(next);
            if slot % 2 == 0 {
                let f = family(&mut seeds);
                born.push(f.clone());
                order.push(f.clone());
                order.push(f);
            }
        }
        extendable.extend(born);
        let batch: Vec<Submitted> = order
            .into_iter()
            .enumerate()
            .map(|(i, mut c)| {
                let tenant = TENANTS[i % TENANTS.len()];
                c.id = format!("b{b}.{tenant}.{i}");
                Submitted {
                    tenant,
                    campaign: c,
                }
            })
            .collect();
        batches.push(batch);
    }
    batches
}

/// The plan of `workload` under `seed`, as canonical text: the unit the
/// determinism tests compare.
pub fn render_plan(workload: &str, seed: u64) -> Option<String> {
    let mut out = String::new();
    match workload {
        "cold-check" => cold_plan(seed).iter().for_each(|c| c.render(&mut out)),
        "warm-replay" => warm_plan(seed).iter().for_each(|c| c.render(&mut out)),
        "daemon-mix" => {
            for batch in daemon_plan(seed) {
                for s in batch {
                    out.push_str(s.tenant);
                    out.push(' ');
                    s.campaign.render(&mut out);
                }
            }
        }
        _ => return None,
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOADS: [&str; 3] = ["cold-check", "warm-replay", "daemon-mix"];

    #[test]
    fn same_seed_same_campaign_list_byte_for_byte() {
        for w in WORKLOADS {
            let a = render_plan(w, 42).expect("known workload");
            let b = render_plan(w, 42).expect("known workload");
            assert_eq!(a.as_bytes(), b.as_bytes(), "{w}");
        }
    }

    #[test]
    fn different_seed_different_campaign_list() {
        for w in WORKLOADS {
            assert_ne!(render_plan(w, 1), render_plan(w, 2), "{w}");
        }
    }

    #[test]
    fn composition_does_not_depend_on_the_seed() {
        let shape = |plan: Vec<Campaign>| {
            let mut v: Vec<_> = plan
                .into_iter()
                .map(|c| (c.kernel, c.scaled, c.scheme.name(), c.runs))
                .collect();
            v.sort();
            v
        };
        assert_eq!(shape(cold_plan(1)), shape(cold_plan(99)));
        assert_eq!(shape(warm_plan(1)), shape(warm_plan(99)));
        let daemon = |seed| -> Vec<_> {
            daemon_plan(seed)
                .into_iter()
                .flatten()
                .map(|s| (s.tenant, s.campaign.id, s.campaign.kernel, s.campaign.runs))
                .collect()
        };
        assert_eq!(daemon(1), daemon(99), "daemon batches keep their shape");
    }

    #[test]
    fn plans_meet_their_size_contracts() {
        assert_eq!(cold_plan(3).len(), 13 * 10 + COLD_PAPER_KERNELS.len());
        let warm = warm_plan(3);
        let runs: usize = warm.iter().map(|c| c.runs).sum();
        assert!(runs >= 10_000, "warm corpus holds {runs} runs");
        let keys: BTreeSet<_> = warm
            .iter()
            .map(|c| (c.workload_id(), c.scheme.name(), c.base_seed))
            .collect();
        assert_eq!(keys.len(), warm.len(), "warm campaigns share no run");
    }

    #[test]
    fn daemon_batches_mix_fresh_extended_and_racing_runs() {
        let plan = daemon_plan(7);
        assert_eq!(plan.len(), BATCHES);
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut per_kernel = std::collections::BTreeMap::new();
        for (b, batch) in plan.iter().enumerate() {
            assert_eq!(batch.len(), 12);
            let ids: BTreeSet<_> = batch.iter().map(|s| &s.campaign.id).collect();
            assert_eq!(ids.len(), batch.len(), "ids are unique");
            let extended = batch
                .iter()
                .filter(|s| seen.contains(&s.campaign.base_seed))
                .count();
            assert_eq!(extended, if b == 0 { 0 } else { 4 });
            let racing = batch
                .windows(2)
                .filter(|w| {
                    w[0].campaign.base_seed == w[1].campaign.base_seed && w[0].tenant != w[1].tenant
                })
                .count();
            assert_eq!(racing, 2);
            for s in batch {
                if seen.insert(s.campaign.base_seed) {
                    *per_kernel.entry(s.campaign.kernel).or_insert(0) += 1;
                }
            }
        }
        assert_eq!(per_kernel.len(), 13);
        assert!(per_kernel.values().all(|&n| n == 4), "{per_kernel:?}");
    }
}
