//! # dxh-sync — the synchronization seam
//!
//! Every lock, condvar and thread spawn on the commit path (`dxh-core`'s
//! `service.rs`) goes through this crate instead of `std::sync`
//! directly. There are two backends:
//!
//! * **Passthrough** (default): thin wrappers over `std::sync` that
//!   additionally swallow lock poisoning — a panicking thread must not
//!   take the whole service down; poisoning is handled at the protocol
//!   layer by wedging (see `docs/COMMIT_PATH.md`).
//!
//! * **Model** (`--features model`): a loom-style cooperative scheduler.
//!   All "threads" still run on real OS threads, but a token-passing
//!   protocol serializes them onto explicit yield points (every lock
//!   acquire/release, condvar wait/notify, spawn, join), so the
//!   scheduler controls the exact interleaving. A `model::Checker` then
//!   explores schedules — bounded-preemption DFS for exhaustive sweeps,
//!   or a seeded random walk for CI budgets — injecting spurious condvar
//!   wakeups and detecting deadlocks, lost wakeups, livelocks, and stray
//!   panics. Violations print an fnv1a64-fingerprinted, replayable
//!   schedule trace (same style as the `IoEvent` traces in `dxh-extmem`).
//!
//! The two backends expose an identical API, so code written against
//! `dxh_sync::{Mutex, Condvar, thread}` compiles unchanged under both.
//! Under the model backend, primitives used *outside* a running
//! `model::Checker` execution fall back to plain `std` behavior, so
//! enabling the feature never breaks ordinary code sharing the build
//! graph (cargo feature unification makes this a real concern).
//!
//! Every [`Mutex`] carries a [`Rank`], and in debug and `model` builds
//! both backends check the commit path's two lock rules ([`rank`]): no
//! lock is acquired while another is held — so a condvar wait parks
//! holding nothing else — and only a `Store` guard may span a physical
//! sync. See `docs/CONCURRENCY.md` for the ranks, and for how to run and
//! replay the model checks of the real service (`cargo test -p dxh-core
//! --features model`).
//!
//! ## Everything is safe code
//!
//! The workspace denies `unsafe_code`, so unlike loom there is no
//! `UnsafeCell`/generator machinery here: the model backend keeps each
//! protected value inside a real `std::sync::Mutex` that the scheduler
//! guarantees is uncontended whenever it is touched, and blocking is
//! simulated entirely at the scheduler level (model-mode condvars never
//! wait on an OS condvar other than the scheduler's own).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod rank;

#[cfg(not(feature = "model"))]
mod passthrough;

#[cfg(feature = "model")]
pub mod model;

pub use rank::{assert_sync_allowed, Rank};

#[cfg(not(feature = "model"))]
pub use passthrough::{thread, Condvar, Mutex, MutexGuard, WaitTimeoutResult};

#[cfg(feature = "model")]
pub use model::shim::{thread, Condvar, Mutex, MutexGuard, WaitTimeoutResult};
