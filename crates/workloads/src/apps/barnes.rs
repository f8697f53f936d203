//! `barnes` (SPLASH-2) — Barnes-Hut n-body simulation.
//!
//! **Nondeterministic**: the oct-tree is built by all threads inserting
//! bodies concurrently, drawing tree nodes from a shared pool with an
//! atomic bump counter — so which body lands in which node (and the
//! node link structure) depends on the schedule, and the force values
//! computed *from* the tree inherit the difference. Only the two initial
//! setup barriers (before tree construction) are deterministic: Table 1
//! reports 2 deterministic / 16 nondeterministic points, and the program
//! does not end deterministically.

use std::sync::Arc;

use instantcheck::DetClass;
use tsim::{Program, ProgramBuilder, ValKind};

use crate::util::unit_f64;
use crate::{AppSpec, THREADS};

/// Scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads.
    pub threads: usize,
    /// Bodies per thread.
    pub bodies_per_thread: usize,
    /// Force/update rounds after tree construction. Total checking
    /// points = 2 (init) + 1 (tree) + 2×rounds (force+update barriers)
    /// + 1 (end).
    pub rounds: usize,
}

impl Default for Params {
    fn default() -> Self {
        // 2 + 1 + 2*7 = 17 barriers + end = 18 points (2 det / 16 ndet).
        Params {
            threads: THREADS,
            bodies_per_thread: 16,
            rounds: 7,
        }
    }
}

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let threads = p.threads;
    let chunk = p.bodies_per_thread;
    let n = threads * chunk;
    let rounds = p.rounds;

    let mut b = ProgramBuilder::new(threads);
    let pos = b.global("pos", ValKind::F64, n);
    let mass = b.global("mass", ValKind::F64, n);
    let acc = b.global("acc", ValKind::F64, n);
    let potential = b.global("potential", ValKind::F64, n);
    // Tree: a node pool; nodes[i] holds the body id stored there, and
    // body_node[bid] holds the node index assigned to the body.
    let pool_next = b.global("pool_next", ValKind::U64, 1);
    let nodes = b.global("tree_nodes", ValKind::U64, n);
    let body_node = b.global("body_node", ValKind::U64, n);
    let bar = b.barrier();

    b.setup(move |s| {
        for i in 0..n {
            s.store_f64(pos.at(i), unit_f64(i as u64) * 100.0);
            s.store_f64(mass.at(i), 1.0 + unit_f64(i as u64 + 123));
        }
    });

    for tid in 0..threads {
        b.thread(async move |ctx| {
            let lo = tid * chunk;
            let hi = lo + chunk;

            // Two deterministic init phases (disjoint writes).
            for i in lo..hi {
                ctx.store_f64(acc.at(i), 0.0).await;
                ctx.work(14);
            }
            ctx.barrier(bar).await; // det point 1
            for i in lo..hi {
                let m = ctx.load_f64(mass.at(i)).await;
                ctx.store_f64(mass.at(i), m * 1.0).await; // normalization pass
                ctx.work(14);
            }
            ctx.barrier(bar).await; // det point 2

            // Tree construction: schedule-dependent node assignment.
            for i in lo..hi {
                let node = ctx.fetch_add(pool_next.at(0), 1).await as usize;
                ctx.store(nodes.at(node), i as u64).await;
                ctx.store(body_node.at(i), node as u64).await;
                ctx.work(84);
            }
            ctx.barrier(bar).await; // first ndet point

            // Force/update rounds: forces read the (nondeterministic)
            // tree, so every subsequent state is nondeterministic.
            for round in 0..rounds {
                for i in lo..hi {
                    let my_node = ctx.load(body_node.at(i)).await as usize;
                    // "Traverse" the tree: interact with the bodies in
                    // the neighbouring pool slots.
                    let left = ctx.load(nodes.at(my_node.saturating_sub(1))).await as usize;
                    let right = ctx.load(nodes.at((my_node + 1).min(n - 1))).await as usize;
                    let xi = ctx.load_f64(pos.at(i)).await;
                    let f = ctx.load_f64(pos.at(left)).await - 2.0 * xi
                        + ctx.load_f64(pos.at(right)).await;
                    ctx.store_f64(acc.at(i), f * 0.01).await;
                    ctx.store_f64(potential.at(i), f * f).await;
                    ctx.work(105);
                }
                ctx.barrier(bar).await;
                for i in lo..hi {
                    let a = ctx.load_f64(acc.at(i)).await;
                    let x = ctx.load_f64(pos.at(i)).await;
                    ctx.store_f64(pos.at(i), x + a).await;
                    ctx.work(35);
                }
                let _ = round;
                ctx.barrier(bar).await;
            }
        });
    }
    b.build()
}

fn make_spec(p: Params) -> AppSpec {
    AppSpec {
        name: "barnes",
        suite: "splash2",
        uses_fp: true,
        expected_class: DetClass::Nondeterministic,
        expected_points: 2 + 1 + 2 * p.rounds + 1,
        ignore: instantcheck::IgnoreSpec::new(),
        build: Arc::new(move || build(&p)),
    }
}

/// Paper scale: 18 checking points (2 det / 16 ndet).
pub fn spec() -> AppSpec {
    make_spec(Params::default())
}

/// Miniature for tests.
pub fn spec_scaled() -> AppSpec {
    make_spec(Params {
        threads: 4,
        bodies_per_thread: 4,
        rounds: 2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhash::FpRound;
    use instantcheck::{Checker, CheckerConfig, Scheme};

    #[test]
    fn only_the_pre_tree_barriers_are_deterministic() {
        let spec = spec_scaled();
        let build = Arc::clone(&spec.build);
        let report = Checker::new(
            CheckerConfig::new(Scheme::HwInc)
                .with_runs(10)
                .with_rounding(FpRound::default()),
        )
        .expect("valid config")
        .check(move || build())
        .unwrap();
        assert!(!report.is_deterministic());
        assert!(!report.det_at_end);
        assert!(report.distributions[0].is_deterministic());
        assert!(report.distributions[1].is_deterministic());
        assert!(!report.distributions[2].is_deterministic(), "tree barrier");
        assert_eq!(report.det_points, 2);
    }
}
