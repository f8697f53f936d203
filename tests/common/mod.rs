//! Programs shared by the root integration tests. Each test crate uses
//! a subset of them.
#![allow(dead_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A program exercising what no Table-1 kernel does: each thread frees a
/// block at an ignored site and reallocates the same base (an exact-size
/// free-list reuse, or the replayed address) at a kept site, and FP words
/// live in a `[U64, F64, F64]`-tagged block written both during setup
/// and by the threads.
pub fn reuse_program() -> tsim::Program {
    reuse_program_counting(None)
}

/// [`reuse_program`] whose setup phase also counts its executions in
/// `setups` (outside the simulated machine, so the runs are unchanged).
pub fn reuse_program_counting(setups: Option<Arc<AtomicUsize>>) -> tsim::Program {
    use tsim::{ProgramBuilder, TypeTag, ValKind};

    let mut b = ProgramBuilder::new(3);
    let noise = b.global("noise", ValKind::U64, 5);
    let sums = b.global("sums", ValKind::F64, 3);
    let recs = b.global("recs", ValKind::U64, 1);
    let bar = b.barrier();
    b.setup(move |s| {
        if let Some(n) = &setups {
            n.fetch_add(1, Ordering::Relaxed);
        }
        let tag = TypeTag::of(vec![ValKind::U64, ValKind::F64, ValKind::F64]);
        let rec = s.malloc("rec", tag, 9);
        for i in 0..9u64 {
            match i % 3 {
                0 => s.store(rec.offset(i), 10 + i),
                _ => s.store_f64(rec.offset(i), 0.1 * i as f64 + 1e-7),
            }
        }
        s.store(recs.at(0), rec.raw());
        for i in 0..3 {
            s.store_f64(sums.at(i), 1.0 / (i + 7) as f64);
        }
    });
    for t in 0..3u64 {
        b.thread(async move |ctx| {
            // A distinct size per thread, so the reuse below is always
            // this thread's own freed block.
            let len = 4 + t as usize;
            let junk = ctx.malloc("junk", TypeTag::u64s(), len).await;
            for i in 0..len as u64 {
                ctx.store(junk.offset(i), 0xdead + 16 * t + i).await;
            }
            ctx.store(noise.at(t as usize), 100 + t).await;
            let rec = ctx.load(recs.at(0)).await;
            for k in 0..3u64 {
                let w = tsim::Addr(rec).offset(3 * t + k);
                match k {
                    0 => ctx.store(w, 1000 * t + 1).await,
                    _ => {
                        let v = ctx.load_f64(w).await;
                        ctx.store_f64(w, v * 3.0 + 1.0 / (t + 3) as f64).await;
                    }
                }
            }
            ctx.barrier(bar).await;
            ctx.free(junk).await;
            let keep = ctx.malloc("keep", TypeTag::u64s(), len).await;
            assert_eq!(keep, junk, "the freed base must be handed back");
            for i in 0..len as u64 {
                ctx.store(keep.offset(i), 0xbeef + i).await;
            }
            let s = ctx.load_f64(sums.at(t as usize)).await;
            ctx.store_f64(sums.at(t as usize), s + 0.25 / (t + 1) as f64)
                .await;
            ctx.checkpoint("reused").await;
            ctx.barrier(bar).await;
            // Free the kept block too: its words leave the state.
            if t == 1 {
                ctx.free(keep).await;
            }
        });
    }
    b.build()
}
