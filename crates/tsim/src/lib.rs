//! `tsim` — a deterministic simulator for multithreaded shared-memory
//! programs.
//!
//! This crate is the substrate that plays the role Pin played in the
//! InstantCheck paper: it executes parallel *workloads* written against an
//! instrumented API ([`ThreadCtx`]) and exposes every store, load,
//! synchronization operation, allocation, and output byte to a pluggable
//! [`Monitor`]. The determinism checker (the `instantcheck` crate) and the
//! hardware model (the `mhm` crate) are built on top of these hooks.
//!
//! # Execution model
//!
//! * Execution is **serialized**: exactly one simulated thread runs at a
//!   time, and the [`Scheduler`] picks which runnable thread goes next at
//!   each *scheduling point*. This mirrors the paper's evaluation setup
//!   ("a thread scheduler runs one thread at a time and switches between
//!   threads at synchronizations; the thread to run is chosen randomly"),
//!   which is also how PCT and CHESS drive programs.
//! * Scheduling points always include synchronization operations
//!   (locks, barriers, condition variables, atomic RMWs); the
//!   [`SwitchPolicy`] optionally adds every (or every k-th) data access,
//!   which is needed to expose plain data races.
//! * Each thread body is an async closure, and every [`ThreadCtx`]
//!   operation that can be a scheduling point is awaited. A run polls
//!   its threads' futures in turn on the thread that called
//!   [`Program::run_with`], so it costs no OS thread, lock or context
//!   switch. All simulated threads of a run therefore share one OS
//!   thread: a thread-local is shared between them.
//! * Given a program, a scheduler policy, a seed, and the replay logs, a
//!   run is **bit-reproducible**.
//!
//! # Quick example
//!
//! Two threads increment a shared counter under a lock; the simulator
//! runs them in a random serialized order and a trivial monitor observes
//! every store:
//!
//! ```
//! use tsim::{ProgramBuilder, RunConfig, ValKind};
//!
//! let mut b = ProgramBuilder::new(2);
//! let g = b.global("counter", ValKind::U64, 1);
//! let lock = b.mutex();
//! for _ in 0..2 {
//!     b.thread(async move |ctx| {
//!         ctx.lock(lock).await;
//!         let v = ctx.load(g.at(0)).await;
//!         ctx.store(g.at(0), v + 1).await;
//!         ctx.unlock(lock).await;
//!     });
//! }
//! let outcome = b.build().run(&RunConfig::random(42)).unwrap();
//! assert_eq!(outcome.final_word(g.at(0)), Some(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod engine;
mod error;
mod faults;
mod image;
mod libcalls;
mod mem;
mod monitor;
mod program;
mod sched;
mod trace;
mod types;

pub use alloc::{AllocLog, BlockInfo};
pub use engine::{RunOutcome, SetupCtx, ThreadCtx};
pub use error::{SimError, SimErrorKind};
pub use faults::{FaultKind, FaultPlan, FaultRecord, Trigger, FAULT_KINDS};
pub use image::SetupImage;
pub use libcalls::LibLog;
pub use mem::{Memory, GLOBALS_BASE, HEAP_BASE};
pub use monitor::{
    CheckpointInfo, CheckpointKind, EngineHashes, HashSpec, Monitor, NullMonitor, StateView,
};
pub use program::{GlobalDecl, Program, ProgramBuilder, RunConfig};
pub use sched::{
    PctScheduler, RandomScheduler, RoundRobinScheduler, Scheduler, SchedulerKind,
    ScriptedScheduler, ScriptedThenRandomScheduler, SwitchPolicy,
};
pub use trace::{Trace, TraceEvent, TraceOp};
pub use types::{
    Addr, BarrierId, CondId, LockId, Region, RwLockId, SemId, ThreadId, TypeTag, ValKind,
};
