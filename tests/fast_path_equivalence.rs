//! Fast-path ≡ dyn-path equivalence.
//!
//! `CheckMonitor` claims the engine's monomorphic store datapath
//! ([`tsim::Monitor::fast_path`]), which skips per-access virtual
//! dispatch and folds stores through the batched engine hasher. These
//! tests drive the *same* monitor through the dynamic dispatch path by
//! wrapping it in a shim whose `fast_path()` stays `None`, and assert
//! that every observable of the run — checkpoint hash sequence, output
//! digest, store/hash-update/extra-instruction accounting, and the
//! scheduler decision log — is bit-identical between the two paths, on a
//! synthetic workload and on every deterministic Table-1 kernel.

use adhash::FpRound;
use instantcheck::{CheckMonitor, IgnoreSpec, Scheme};
use tsim::{Program, ProgramBuilder, RunConfig, TypeTag, ValKind};

mod common;
use common::DynShim;

/// A workload that exercises everything the fast path touches: setup
/// stores, integer and FP store sweeps, `fetch_add`, locks, barriers
/// (checkpoints), heap alloc/write/free (hash cancellation), output,
/// and a manual checkpoint per thread.
fn program() -> Program {
    const NTHREADS: usize = 3;
    let mut b = ProgramBuilder::new(NTHREADS);
    let grid = b.global("grid", ValKind::U64, 32);
    let field = b.global("field", ValKind::F64, 8);
    let counter = b.global("counter", ValKind::U64, 1);
    let bar = b.barrier();
    let lock = b.mutex();
    b.setup(move |s| {
        for i in 0..32 {
            s.store(grid.at(i), (i as u64) * 3 + 1);
        }
        for i in 0..8 {
            s.store_f64(field.at(i), 0.5 * i as f64);
        }
    });
    for t in 0..NTHREADS {
        b.thread(async move |ctx| {
            let tid = t as u64;
            // Integer store sweep over a striped range, with a shared
            // atomic bump and a barrier per step.
            for step in 0..4u64 {
                for i in 0..32 {
                    if i % NTHREADS == t {
                        let v = ctx.load(grid.at(i)).await;
                        let v = v.wrapping_mul(6364136223846793005).wrapping_add(tid + step);
                        ctx.store(grid.at(i), v).await;
                    }
                }
                ctx.fetch_add(counter.at(0), 1).await;
                ctx.barrier(bar).await;
            }
            // FP stores with sub-rounding noise: both paths must agree
            // whether or not rounding is configured.
            for i in 0..8 {
                if i % NTHREADS == t {
                    let v = ctx.load_f64(field.at(i)).await;
                    ctx.store_f64(field.at(i), v + 0.1 + tid as f64 * 1e-12)
                        .await;
                }
            }
            ctx.barrier(bar).await;
            // Heap churn: the freed block's contribution must cancel
            // out of the running hash identically on both paths.
            let buf = ctx.malloc("scratch", TypeTag::u64s(), 6 + t).await;
            for i in 0..(6 + t) as u64 {
                ctx.store(buf.offset(i), tid * 100 + i).await;
            }
            ctx.work(5);
            ctx.free(buf).await;
            // Locked update plus output bytes.
            ctx.lock(lock).await;
            let v = ctx.load(counter.at(0)).await;
            ctx.store(counter.at(0), v + 1).await;
            ctx.unlock(lock).await;
            ctx.write_output(&[b'0' + t as u8]).await;
            ctx.barrier(bar).await;
            ctx.checkpoint("done").await;
        });
    }
    b.build()
}

/// The 13 deterministic kernels the campaign benchmark draws from.
const KERNELS: [&str; 13] = [
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

/// Runs the synthetic workload through [`assert_program_paths_agree`].
fn assert_paths_agree(scheme: Scheme, rounding: Option<FpRound>, ignore: IgnoreSpec, seed: u64) {
    assert_program_paths_agree(program, scheme, rounding, ignore, seed);
}

/// Runs a program twice with the same seed — once with the monitor's
/// fast-path claim honored, once through the `DynShim` — and asserts
/// every observable matches.
fn assert_program_paths_agree(
    program: impl Fn() -> Program,
    scheme: Scheme,
    rounding: Option<FpRound>,
    ignore: IgnoreSpec,
    seed: u64,
) {
    let config = RunConfig::random(seed);

    let fast = program()
        .run_with(&config, CheckMonitor::new(scheme, rounding, ignore.clone()))
        .expect("fast-path run failed");
    let slow = program()
        .run_with(
            &config,
            DynShim(CheckMonitor::new(scheme, rounding, ignore)),
        )
        .expect("dyn-path run failed");

    // The fast-path claim must not perturb scheduling.
    assert_eq!(
        fast.decisions, slow.decisions,
        "{scheme:?}: decisions diverged"
    );
    assert_eq!(fast.steps, slow.steps, "{scheme:?}: step counts diverged");
    assert_eq!(fast.output, slow.output, "{scheme:?}: output diverged");
    assert_eq!(
        fast.checkpoints, slow.checkpoints,
        "{scheme:?}: checkpoint counts diverged"
    );

    let f = fast.monitor.into_hashes();
    let s = slow.monitor.0.into_hashes();
    assert_eq!(
        f.checkpoints, s.checkpoints,
        "{scheme:?}: checkpoint hashes diverged"
    );
    assert_eq!(
        f.output_digest, s.output_digest,
        "{scheme:?}: output digest diverged"
    );
    assert_eq!(f.stores, s.stores, "{scheme:?}: store counts diverged");
    assert_eq!(
        f.hash_updates, s.hash_updates,
        "{scheme:?}: hash-update counts diverged"
    );
    assert_eq!(
        f.extra_instr, s.extra_instr,
        "{scheme:?}: extra-instruction model diverged"
    );
}

#[test]
fn all_schemes_agree_bit_exact() {
    for scheme in [Scheme::Native, Scheme::HwInc, Scheme::SwInc, Scheme::SwTr] {
        for seed in [7, 1234] {
            assert_paths_agree(scheme, None, IgnoreSpec::new(), seed);
        }
    }
}

#[test]
fn incremental_schemes_agree_with_fp_rounding() {
    for scheme in [Scheme::HwInc, Scheme::SwInc] {
        assert_paths_agree(scheme, Some(FpRound::default()), IgnoreSpec::new(), 99);
        assert_paths_agree(
            scheme,
            Some(FpRound::MaskMantissa { bits: 20 }),
            IgnoreSpec::new(),
            99,
        );
    }
}

#[test]
fn ignore_set_resolves_identically_on_both_paths() {
    let ignore = IgnoreSpec::new().ignore_global("counter");
    assert_paths_agree(Scheme::SwInc, None, ignore.clone(), 31);
    assert_paths_agree(Scheme::SwTr, None, ignore, 31);
}

#[test]
fn every_deterministic_kernel_agrees_on_both_paths() {
    for kernel in KERNELS {
        let app = instantcheck_workloads::by_name(kernel, true).expect("kernel is registered");
        assert_program_paths_agree(|| app.build(), Scheme::HwInc, None, IgnoreSpec::new(), 3);
    }
}
