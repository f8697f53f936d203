//! `waterNS` and `waterSP` (SPLASH-2) — molecular dynamics.
//!
//! Both kernels are **deterministic modulo FP precision**: per-molecule
//! force and position updates are partitioned disjointly, but the global
//! potential/kinetic energy accumulators are updated by all threads
//! under a lock, so their last ulps depend on the accumulation order.
//! With InstantCheck's FP round-off the kernels are deterministic;
//! bit-by-bit they are not. 10 timesteps × 2 barriers = 20 barriers +
//! end = the 21 checking points of Table 1.
//!
//! Two of the paper's Figure 7 seeded bugs live here:
//!
//! * **waterNS semantic bug** (Fig 7(a)): thread 3, in one timestep's
//!   force phase, *overwrites* a shared boundary-force cell instead of
//!   accumulating into it — losing its neighbor's contribution or its
//!   own depending on the schedule. The corrupted force feeds the
//!   integrator, so positions stay nondeterministic to the end.
//! * **waterSP atomicity violation** (Fig 7(b)): thread 3, in one
//!   timestep's update phase, updates the (cumulative) kinetic-energy
//!   accumulator with an unlocked read-modify-write whose window spans
//!   its other synchronized work, so concurrent locked updates can be
//!   lost.

use std::sync::Arc;

use instantcheck::DetClass;
use tsim::{Program, ProgramBuilder, ValKind};

use crate::util::unit_f64;
use crate::{AppSpec, THREADS};

/// Which water variant to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// n-squared neighbor interactions.
    Nsquared,
    /// spatial (cell-based) interactions — structurally identical here,
    /// with a different force kernel.
    Spatial,
}

/// Which Figure 7 bug (if any) to seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededBug {
    /// No bug.
    None,
    /// Fig 7(a): semantic bug in the force phase of timestep
    /// `bug_timestep` (thread 3 only).
    Semantic,
    /// Fig 7(b): atomicity violation in the update phase of timestep
    /// `bug_timestep` (thread 3 only).
    Atomicity,
}

/// Scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads.
    pub threads: usize,
    /// Molecules per thread.
    pub mols_per_thread: usize,
    /// Timesteps (2 barriers each).
    pub timesteps: usize,
    /// Variant.
    pub variant: Variant,
    /// Seeded bug.
    pub bug: SeededBug,
    /// Timestep (0-based) in which the bug strikes.
    pub bug_timestep: usize,
}

impl Params {
    fn paper(variant: Variant) -> Self {
        Params {
            threads: THREADS,
            mols_per_thread: 24,
            timesteps: 10,
            variant,
            bug: SeededBug::None,
            // NS semantic bug in ts 6 → first corrupt barrier is #13
            // (12 det / 9 ndet, Table 2); SP atomicity bug in ts 4 →
            // first corrupt barrier is #10 (9 det / 12 ndet).
            bug_timestep: 0,
        }
    }
}

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let threads = p.threads;
    let chunk = p.mols_per_thread;
    let n = threads * chunk;
    let timesteps = p.timesteps;
    let variant = p.variant;
    let bug = p.bug;
    let bug_ts = p.bug_timestep;

    let mut b = ProgramBuilder::new(threads);
    let pos = b.global("pos", ValKind::F64, n);
    let vel = b.global("vel", ValKind::F64, n);
    let force = b.global("force", ValKind::F64, n);
    let epot = b.global("epot", ValKind::F64, 1);
    let ekin = b.global("ekin", ValKind::F64, 1);
    // Read-mostly model data: part of the state the traversal scheme
    // must hash at every checkpoint, but touched only rarely natively.
    let potential_table = b.global("potential_table", ValKind::F64, 384);
    let energy_lock = b.mutex();
    let boundary_lock = b.mutex();
    let mid = crate::util::HandBarrier::new(&mut b, "force_mid_barrier", threads);
    let bar = b.barrier();

    b.setup(move |s| {
        for i in 0..n {
            s.store_f64(pos.at(i), i as f64 + 0.3 * unit_f64(i as u64));
            s.store_f64(vel.at(i), 0.1 * (unit_f64(i as u64 + 555) - 0.5));
        }
        for i in 0..384 {
            s.store_f64(potential_table.at(i), unit_f64(i as u64 + 31_415));
        }
    });

    for tid in 0..threads {
        b.thread(async move |ctx| {
            let lo = tid * chunk;
            let hi = lo + chunk;
            for ts in 0..timesteps {
                // ---- force phase A: disjoint base forces -------------
                // (positions are stable during the whole force phase, so
                // reading neighbors across slice boundaries is safe).
                let mut local_epot = 0.0;
                for i in lo..hi {
                    let x = ctx.load_f64(pos.at(i)).await;
                    let left = ctx.load_f64(pos.at((i + n - 1) % n)).await;
                    let right = ctx.load_f64(pos.at((i + 1) % n)).await;
                    let f = match variant {
                        Variant::Nsquared => (left - x) + (right - x),
                        Variant::Spatial => 0.9 * (left - x) + 1.1 * (right - x),
                    };
                    ctx.store_f64(force.at(i), f).await;
                    local_epot += 0.5 * ((x - left).abs() + (right - x).abs());
                    ctx.work(98);
                }
                let _lj = ctx.load_f64(potential_table.at((ts * 7 + tid) % 384)).await;
                // All base forces must be written before anyone
                // accumulates boundary corrections into them.
                mid.wait(ctx).await;

                // ---- force phase B: boundary corrections -------------
                // Each boundary molecule (the first of every slice, with
                // periodic wraparound) receives locked contributions
                // from *two* threads, so its last ulps depend on the
                // accumulation order.
                let target = hi % n; // the next slice's first molecule
                let x = ctx.load_f64(pos.at(hi - 1)).await;
                let y = ctx.load_f64(pos.at(target)).await;
                let contrib = 0.25 * (x - y);
                ctx.lock(boundary_lock).await;
                let cur = ctx.load_f64(force.at(target)).await;
                if bug == SeededBug::Semantic && tid == 3 && ts == bug_ts {
                    // SEMANTIC BUG (Fig 7(a)): `=` instead of `+=`:
                    // whether the other thread's contribution survives
                    // depends on the accumulation order — a large,
                    // schedule-dependent error.
                    ctx.store_f64(force.at(target), contrib).await;
                } else {
                    ctx.store_f64(force.at(target), cur + contrib).await;
                }
                ctx.unlock(boundary_lock).await;
                // Own-edge correction on this slice's first molecule
                // (the same cell another thread targets above).
                let self_edge = ctx.load_f64(pos.at(lo)).await;
                let prev = ctx.load_f64(pos.at((lo + n - 1) % n)).await;
                ctx.lock(boundary_lock).await;
                let cur = ctx.load_f64(force.at(lo)).await;
                // A substantial term: when the seeded semantic bug
                // discards it, the error in the integrated velocities
                // stays far above the FP round-off grid, so the
                // corruption persists to the end of the run.
                ctx.store_f64(force.at(lo), cur + 1.5 * (self_edge - prev))
                    .await;
                ctx.unlock(boundary_lock).await;

                // Global potential energy: locked, but the accumulation
                // order across threads varies → last-ulp noise.
                ctx.lock(energy_lock).await;
                let e = ctx.load_f64(epot.at(0)).await;
                ctx.store_f64(epot.at(0), e + local_epot).await;
                ctx.unlock(energy_lock).await;
                ctx.barrier(bar).await;

                // ---- update phase ------------------------------------
                let mut local_ekin = 0.0;
                for i in lo..hi {
                    let f = ctx.load_f64(force.at(i)).await;
                    let v = ctx.load_f64(vel.at(i)).await + 0.01 * f;
                    ctx.store_f64(vel.at(i), v).await;
                    let x = ctx.load_f64(pos.at(i)).await + 0.01 * v;
                    ctx.store_f64(pos.at(i), x).await;
                    local_ekin += 0.5 * v * v;
                    ctx.work(70);
                }
                if bug == SeededBug::Atomicity && tid == 3 && ts == bug_ts {
                    // ATOMICITY VIOLATION (Fig 7(b)): the read and the
                    // write of the cumulative kinetic energy span other
                    // synchronized work, so locked updates by other
                    // threads in between are lost.
                    let stale = ctx.load_f64(ekin.at(0)).await;
                    ctx.lock(boundary_lock).await; // unrelated critical section
                    ctx.work(140);
                    ctx.unlock(boundary_lock).await;
                    ctx.store_f64(ekin.at(0), stale + local_ekin).await;
                } else {
                    ctx.lock(energy_lock).await;
                    let e = ctx.load_f64(ekin.at(0)).await;
                    ctx.store_f64(ekin.at(0), e + local_ekin).await;
                    ctx.unlock(energy_lock).await;
                }
                ctx.barrier(bar).await;
            }
        });
    }
    b.build()
}

fn make_spec(p: Params, name: &'static str, class: DetClass, suite: &'static str) -> AppSpec {
    AppSpec {
        name,
        suite,
        uses_fp: true,
        expected_class: class,
        expected_points: p.timesteps * 2 + 1,
        ignore: instantcheck::IgnoreSpec::new(),
        build: Arc::new(move || build(&p)),
    }
}

/// waterNS at paper scale: 21 points, deterministic after FP rounding.
pub fn spec_ns() -> AppSpec {
    make_spec(
        Params::paper(Variant::Nsquared),
        "waterNS",
        DetClass::FpRounded,
        "splash2",
    )
}

/// waterSP at paper scale.
pub fn spec_sp() -> AppSpec {
    make_spec(
        Params::paper(Variant::Spatial),
        "waterSP",
        DetClass::FpRounded,
        "splash2",
    )
}

/// Miniature waterNS.
pub fn spec_ns_scaled() -> AppSpec {
    let p = Params {
        threads: 4,
        mols_per_thread: 6,
        timesteps: 4,
        ..Params::paper(Variant::Nsquared)
    };
    make_spec(p, "waterNS", DetClass::FpRounded, "splash2")
}

/// Miniature waterSP.
pub fn spec_sp_scaled() -> AppSpec {
    let p = Params {
        threads: 4,
        mols_per_thread: 6,
        timesteps: 4,
        ..Params::paper(Variant::Spatial)
    };
    make_spec(p, "waterSP", DetClass::FpRounded, "splash2")
}

/// waterNS with the Figure 7(a) semantic bug (Table 2 row 1): strikes in
/// timestep 6, so the first corrupted checkpoint is barrier 13 → 12
/// deterministic / 9 nondeterministic points.
pub fn spec_ns_semantic_bug() -> AppSpec {
    let p = Params {
        bug: SeededBug::Semantic,
        bug_timestep: 6,
        ..Params::paper(Variant::Nsquared)
    };
    make_spec(p, "waterNS+semantic", DetClass::Nondeterministic, "splash2")
}

/// waterSP with the Figure 7(b) atomicity violation (Table 2 row 2):
/// strikes in timestep 4, so the first corrupted checkpoint is barrier
/// 10 → 9 deterministic / 12 nondeterministic points.
pub fn spec_sp_atomicity_bug() -> AppSpec {
    let p = Params {
        bug: SeededBug::Atomicity,
        bug_timestep: 4,
        ..Params::paper(Variant::Spatial)
    };
    make_spec(
        p,
        "waterSP+atomicity",
        DetClass::Nondeterministic,
        "splash2",
    )
}

/// Miniature seeded-semantic waterNS (bug in timestep 1 of 4).
pub fn spec_ns_semantic_bug_scaled() -> AppSpec {
    let p = Params {
        threads: 4,
        mols_per_thread: 6,
        timesteps: 4,
        bug: SeededBug::Semantic,
        bug_timestep: 1,
        ..Params::paper(Variant::Nsquared)
    };
    make_spec(p, "waterNS+semantic", DetClass::Nondeterministic, "splash2")
}

/// Miniature seeded-atomicity waterSP (bug in timestep 1 of 4).
pub fn spec_sp_atomicity_bug_scaled() -> AppSpec {
    let p = Params {
        threads: 4,
        mols_per_thread: 6,
        timesteps: 4,
        bug: SeededBug::Atomicity,
        bug_timestep: 1,
        ..Params::paper(Variant::Spatial)
    };
    make_spec(
        p,
        "waterSP+atomicity",
        DetClass::Nondeterministic,
        "splash2",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhash::FpRound;
    use instantcheck::{Checker, CheckerConfig, Scheme};

    fn campaign(spec: &AppSpec, runs: usize, round: bool) -> instantcheck::CheckReport {
        let build = Arc::clone(&spec.build);
        let mut cfg = CheckerConfig::new(Scheme::HwInc).with_runs(runs);
        if round {
            cfg = cfg.with_rounding(FpRound::default());
        }
        Checker::new(cfg)
            .expect("valid config")
            .check(move || build())
            .unwrap()
    }

    #[test]
    fn water_is_fp_prec_deterministic() {
        for spec in [spec_ns_scaled(), spec_sp_scaled()] {
            let exact = campaign(&spec, 8, false);
            assert!(
                !exact.is_deterministic(),
                "{}: ulp noise expected",
                spec.name
            );
            let rounded = campaign(&spec, 8, true);
            assert!(rounded.is_deterministic(), "{}", spec.name);
        }
    }

    #[test]
    fn seeded_bugs_survive_fp_rounding() {
        for spec in [
            spec_ns_semantic_bug_scaled(),
            spec_sp_atomicity_bug_scaled(),
        ] {
            let rounded = campaign(&spec, 10, true);
            assert!(
                !rounded.is_deterministic(),
                "{}: the seeded bug must not be absorbed by rounding",
                spec.name
            );
            assert!(
                rounded.first_ndet_run.unwrap() <= 8,
                "{}: detected within a few runs",
                spec.name
            );
        }
    }

    #[test]
    fn bug_timing_controls_the_det_ndet_split() {
        // Miniature: bug in ts 1 of 4 (9 points total). NS semantic bug
        // corrupts the force phase → first bad checkpoint is barrier 3
        // (force barrier of ts 1): 2 det + 7 ndet.
        let ns = campaign(&spec_ns_semantic_bug_scaled(), 10, true);
        assert!(!ns.is_deterministic());
        let first_bad = (0..ns.aligned_checkpoints)
            .find(|&i| !ns.distributions[i].is_deterministic())
            .unwrap();
        assert_eq!(first_bad, 2, "force barrier of ts 1 is checkpoint index 2");

        // SP atomicity bug corrupts the update phase → first bad
        // checkpoint is barrier 4 (update barrier of ts 1): 3 det.
        let sp = campaign(&spec_sp_atomicity_bug_scaled(), 10, true);
        let first_bad = (0..sp.aligned_checkpoints)
            .find(|&i| !sp.distributions[i].is_deterministic())
            .unwrap();
        assert_eq!(first_bad, 3, "update barrier of ts 1 is checkpoint index 3");
    }
}
