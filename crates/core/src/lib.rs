//! `instantcheck` — checking external determinism of parallel programs
//! with on-the-fly incremental memory-state hashing.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Nistor, Marinov, Torrellas, *InstantCheck*, MICRO 2010). A parallel
//! program is **externally deterministic** if, for a fixed input, every
//! run ends in the same memory state — regardless of how the runs behave
//! *internally* (different interleavings, different intermediate values,
//! even benign races). InstantCheck checks this property during ordinary
//! multi-run testing by distilling the memory state into a 64-bit hash
//! and comparing the hashes of different runs at every barrier, at
//! programmer-chosen points, and at the end of the program.
//!
//! Three checking schemes are implemented (all producing identical
//! verdicts, at very different costs):
//!
//! * [`Scheme::HwInc`] — the hardware scheme: per-core MHM units
//!   (modeled by the [`mhm`] crate) maintain per-thread hashes on the
//!   fly; software merely sums them at checkpoints. Overhead ≈ the
//!   zero-filling of allocations.
//! * [`Scheme::SwInc`] — the same incremental hash maintained by
//!   software instrumentation of every store (≈ 5 instructions per
//!   hashed byte).
//! * [`Scheme::SwTr`] — non-incremental: traverse the entire live state
//!   (globals + allocation table) at every checkpoint.
//!
//! Sources of input nondeterminism are controlled as in the paper
//! (Section 5): allocator addresses are logged on the first run and
//! replayed afterwards (with allocations zero-filled), nondeterministic
//! library calls are record/replayed, FP values may be rounded before
//! hashing, and known-nondeterministic structures can be excluded from
//! the hash with an [`IgnoreSpec`].
//!
//! # Quickstart
//!
//! ```
//! use instantcheck::{Checker, CheckerConfig, Scheme};
//! use tsim::{ProgramBuilder, ValKind};
//!
//! // The paper's Figure 1: two threads do `G += L` under a lock. The
//! // interleaving varies, the final state does not.
//! let source = || {
//!     let mut b = ProgramBuilder::new(2);
//!     let g = b.global("G", ValKind::U64, 1);
//!     let lock = b.mutex();
//!     b.setup(move |s| s.store(g.at(0), 2));
//!     for local in [7u64, 3u64] {
//!         b.thread(async move |ctx| {
//!             ctx.lock(lock).await;
//!             let v = ctx.load(g.at(0)).await;
//!             ctx.store(g.at(0), v + local).await;
//!             ctx.unlock(lock).await;
//!         });
//!     }
//!     b.build()
//! };
//!
//! let report = Checker::new(CheckerConfig::new(Scheme::HwInc).with_runs(10))
//!     .expect("valid config")
//!     .check(source)
//!     .expect("runs complete");
//! assert!(report.is_deterministic());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod characterize;
mod checker;
mod ignore;
mod iohash;
mod localize;
mod overhead;
mod policy;
mod report;
mod scheme;
mod spec;

pub use cache::{fault_plan_token, CacheLease, CachedRun, RunCache, RunKey, RUN_KEY_VERSION};
pub use characterize::{characterize, Characterization, DetClass, Subject};
pub use checker::{Checker, CheckerConfig, ConfigError, RunHashes};
pub use ignore::IgnoreSpec;
pub use iohash::OutputHasher;
pub use localize::{localize, DiffOrigin, DiffSite, Localization};
pub use overhead::{geometric_mean, measure_overhead, OverheadReport};
pub use policy::{retry_seed, FailurePolicy, RunFailure, RunOutcome};
pub use report::{CheckReport, CheckpointVerdict, Distribution};
pub use scheme::{CheckMonitor, CheckpointRecord, Scheme};
pub use spec::{
    parse_rounding, parse_switch, rounding_token, switch_token, CampaignSpec, SPEC_VERSION,
};
