//! `pbzip2` (open source) — producer/consumer parallel compression.
//!
//! Very high *internal* nondeterminism (consumers race for jobs created
//! by the producer) but externally deterministic — except for a single
//! dangling-pointer field: each consumer compresses through a scratch
//! buffer it allocates itself, records the buffer's address in the job's
//! result record, and frees the buffer. The freed memory leaves the
//! program state, but the **dangling pointer value remains** and is
//! schedule-dependent (which consumer allocated it, and when). Ignoring
//! that one word per record makes pbzip2 externally deterministic —
//! Table 1's "small-struct" class. The compressed output stream, hashed
//! at the `write()` boundary (§4.3), is deterministic.
//!
//! No barriers: the only checking point is the end of the program
//! (Table 1: 1 point).

use std::sync::Arc;

use instantcheck::{DetClass, IgnoreSpec};
use tsim::{Program, ProgramBuilder, TypeTag, ValKind};

use crate::util::mix64;
use crate::{AppSpec, THREADS};

/// Scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Threads (thread 0 is the producer/writer, the rest consume).
    pub threads: usize,
    /// Number of compression jobs.
    pub jobs: usize,
    /// Input words per job.
    pub chunk: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            threads: THREADS,
            jobs: 24,
            chunk: 16,
        }
    }
}

/// Result record layout: `[digest, dangling scratch pointer]`.
const REC_WORDS: usize = 2;

/// Builds the program.
pub fn build(p: &Params) -> Program {
    let threads = p.threads;
    let jobs = p.jobs;
    let chunk = p.chunk;
    let n = jobs * chunk;

    let mut b = ProgramBuilder::new(threads);
    let input = b.global("input", ValKind::U64, n);
    let recs = b.global("rec_ptrs", ValKind::U64, jobs);
    let produced = b.global("produced", ValKind::U64, 1);
    let claimed = b.global("claimed", ValKind::U64, 1);
    let completed = b.global("completed", ValKind::U64, 1);
    let qlock = b.mutex();
    let qcond = b.condvar();
    let dlock = b.mutex();
    let dcond = b.condvar();

    b.setup(move |s| {
        for i in 0..n {
            s.store(input.at(i), mix64(i as u64));
        }
        // Result records are pre-allocated at fixed addresses so that
        // only the scratch-pointer *field* is nondeterministic (the
        // paper's pbzip2 analysis isolates exactly that field).
        for j in 0..jobs {
            // The record is a 2-word struct (digest, scratch pointer);
            // the explicit 2-word tag lets the ignore-spec address the
            // pointer *field*.
            let r = s.malloc(
                "result_rec",
                TypeTag::of(vec![ValKind::U64; REC_WORDS]),
                REC_WORDS,
            );
            s.store(recs.at(j), r.raw());
        }
    });

    // Producer (thread 0): publishes jobs, then writes the output stream
    // in job order once all jobs completed.
    b.thread(async move |ctx| {
        for _ in 0..jobs {
            ctx.lock(qlock).await;
            let np = ctx.load(produced.at(0)).await;
            ctx.store(produced.at(0), np + 1).await;
            ctx.cond_broadcast(qcond).await;
            ctx.unlock(qlock).await;
            ctx.work(140); // reading the next file chunk
        }
        // Wait for the consumers.
        ctx.lock(dlock).await;
        while ctx.load(completed.at(0)).await < jobs as u64 {
            ctx.cond_wait(dcond, dlock).await;
        }
        ctx.unlock(dlock).await;
        // Ordered output: deterministic stream regardless of which
        // consumer compressed which job.
        for j in 0..jobs {
            let rec = tsim::Addr(ctx.load(recs.at(j)).await);
            let digest = ctx.load(rec).await;
            ctx.write_output(&digest.to_le_bytes()).await;
        }
    });

    // Consumers.
    for _tid in 1..threads {
        b.thread(async move |ctx| {
            loop {
                ctx.lock(qlock).await;
                loop {
                    let c = ctx.load(claimed.at(0)).await;
                    if c >= jobs as u64 {
                        ctx.unlock(qlock).await;
                        return;
                    }
                    if c < ctx.load(produced.at(0)).await {
                        ctx.store(claimed.at(0), c + 1).await;
                        if c + 1 == jobs as u64 {
                            // Wake consumers still waiting for work so
                            // they can observe that the queue is done.
                            ctx.cond_broadcast(qcond).await;
                        }
                        ctx.unlock(qlock).await;
                        // Compress job `c`.
                        let j = c as usize;
                        let scratch = ctx.malloc("scratch_buf", TypeTag::u64s(), chunk).await;
                        let mut digest = 0u64;
                        for i in 0..chunk {
                            let w = ctx.load(input.at(j * chunk + i)).await;
                            let z = mix64(w ^ (i as u64)); // "compression"
                            ctx.store(scratch.offset(i as u64), z).await;
                            digest = mix64(digest ^ z);
                            ctx.work(175);
                        }
                        let rec = tsim::Addr(ctx.load(recs.at(j)).await);
                        ctx.store(rec, digest).await;
                        // The dangling pointer of the paper: recorded,
                        // then the buffer is freed.
                        ctx.store(rec.offset(1), scratch.raw()).await;
                        ctx.free(scratch).await;
                        // Signal completion.
                        ctx.lock(dlock).await;
                        let done = ctx.load(completed.at(0)).await + 1;
                        ctx.store(completed.at(0), done).await;
                        if done == jobs as u64 {
                            ctx.cond_broadcast(dcond).await;
                        }
                        ctx.unlock(dlock).await;
                        break;
                    }
                    ctx.cond_wait(qcond, qlock).await;
                }
            }
        });
    }
    b.build()
}

fn ignore_spec() -> IgnoreSpec {
    IgnoreSpec::new().ignore_site_offsets("result_rec", [1])
}

fn make_spec(p: Params) -> AppSpec {
    AppSpec {
        name: "pbzip2",
        suite: "openSrc",
        uses_fp: false,
        expected_class: DetClass::IgnoringStructs,
        expected_points: 1,
        ignore: ignore_spec(),
        build: Arc::new(move || build(&p)),
    }
}

/// Paper scale: 1 checking point (end of program).
pub fn spec() -> AppSpec {
    make_spec(Params::default())
}

/// Miniature for tests.
pub fn spec_scaled() -> AppSpec {
    make_spec(Params {
        threads: 4,
        jobs: 8,
        chunk: 4,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use instantcheck::{Checker, CheckerConfig, Scheme};

    fn campaign(runs: usize, ignore: bool) -> instantcheck::CheckReport {
        let spec = spec_scaled();
        let build = Arc::clone(&spec.build);
        let mut cfg = CheckerConfig::new(Scheme::HwInc).with_runs(runs);
        if ignore {
            cfg = cfg.with_ignore(spec.ignore.clone());
        }
        Checker::new(cfg)
            .expect("valid config")
            .check(move || build())
            .unwrap()
    }

    #[test]
    fn dangling_pointers_are_the_only_nondeterminism() {
        let raw = campaign(10, false);
        assert!(!raw.is_deterministic(), "dangling pointers expected");
        assert!(raw.output_deterministic, "the compressed stream is stable");
        let isolated = campaign(10, true);
        assert!(isolated.is_deterministic());
    }

    #[test]
    fn output_is_the_compression_of_the_input_in_order() {
        let p = Params {
            threads: 3,
            jobs: 4,
            chunk: 4,
        };
        let out = build(&p).run(&tsim::RunConfig::random(5)).unwrap();
        assert_eq!(out.output.len(), 4 * 8);
        // Recompute the expected digests.
        for j in 0..4usize {
            let mut digest = 0u64;
            for i in 0..4usize {
                let w = mix64((j * 4 + i) as u64);
                digest = mix64(digest ^ mix64(w ^ i as u64));
            }
            let got = u64::from_le_bytes(out.output[j * 8..(j + 1) * 8].try_into().unwrap());
            assert_eq!(got, digest, "job {j}");
        }
    }

    #[test]
    fn scratch_buffers_are_freed() {
        let p = Params {
            threads: 3,
            jobs: 4,
            chunk: 4,
        };
        let out = build(&p).run(&tsim::RunConfig::random(1)).unwrap();
        let view = out.final_state();
        assert_eq!(view.blocks_at_site("scratch_buf").count(), 0);
        assert_eq!(view.blocks_at_site("result_rec").count(), 4);
    }
}
