//! Incremental (additive) hashing of memory states.
//!
//! This crate implements the hashing substrate of *InstantCheck* (Nistor,
//! Marinov, Torrellas — MICRO 2010): a Bellare–Micciancio style
//! incrementally-computable hash over a program's memory state.
//!
//! If a memory state `S` holds values `v_1 … v_m` at addresses `a_1 … a_m`,
//! its *State Hash* is
//!
//! ```text
//! SH(S) = h(a_1, v_1) ⊕ h(a_2, v_2) ⊕ … ⊕ h(a_m, v_m)
//! ```
//!
//! where `h` is an ordinary 64-bit hash of one `(address, value)` pair and
//! `⊕` is 64-bit modular addition. Because modular addition is commutative
//! and associative, and has an inverse (`⊖`), the hash can be maintained
//! *incrementally*: a write of `new` over `old` at `a` updates the hash as
//! `SH ⊖ h(a, old) ⊕ h(a, new)` — no state traversal required. The same
//! algebra lets each thread accumulate its own partial sum (a *Thread
//! Hash*) that is merged into the State Hash only when a comparison is
//! needed, and lets individual locations be *excluded* from an existing
//! hash after the fact.
//!
//! # Example
//!
//! The running example from the paper (Figure 1/2): two threads perform
//! `G += L` under a lock in either order; the per-thread hashes differ but
//! their modular sum — the state hash — is identical.
//!
//! ```
//! use adhash::{IncHasher, Mix64Hasher};
//!
//! let g = 0x1000; // address of the global G, initially 2
//!
//! // Run (b): thread 0 writes 9, then thread 1 writes 12.
//! let mut th0 = IncHasher::new(Mix64Hasher::default());
//! let mut th1 = IncHasher::new(Mix64Hasher::default());
//! th0.on_write(g, 2, 9);
//! th1.on_write(g, 9, 12);
//! let sh_b = th0.sum() + th1.sum();
//!
//! // Run (c): thread 1 writes 5, then thread 0 writes 12.
//! let mut th0 = IncHasher::new(Mix64Hasher::default());
//! let mut th1 = IncHasher::new(Mix64Hasher::default());
//! th1.on_write(g, 2, 5);
//! th0.on_write(g, 5, 12);
//! let sh_c = th0.sum() + th1.sum();
//!
//! assert_eq!(sh_b, sh_c); // externally deterministic
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod batch;
mod fp;
mod group;
mod hasher;
mod incremental;

pub use batch::{hash_delta_run, DeltaBatch, DELTA_BATCH_CAPACITY};
pub use fp::FpRound;
pub use group::HashSum;
pub use hasher::{LocationHasher, Mix64Hasher};
pub use incremental::{hash_full_state, IncHasher, StateHash};
