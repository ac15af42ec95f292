//! # dxh-sync — the synchronization seam
//!
//! Every lock, condvar and thread spawn on the commit path (`dxh-core`'s
//! `service.rs`) goes through this crate instead of `std::sync`
//! directly. There is one set of primitives, and it is the one the
//! model checker drives:
//!
//! * **Outside a checker run** every primitive is plain `std` with lock
//!   poisoning swallowed — a panicking thread must not take the whole
//!   service down; poisoning is handled at the protocol layer by
//!   wedging (see `docs/COMMIT_PATH.md`).
//!
//! * **Inside a [`model::Checker`] run** the same primitives report to a
//!   loom-style cooperative scheduler. All "threads" still run on real
//!   OS threads, but a token-passing protocol serializes them onto
//!   explicit yield points (every lock acquire/release, condvar
//!   wait/notify, spawn, join), so the scheduler controls the exact
//!   interleaving. The checker explores schedules — bounded-preemption
//!   DFS for exhaustive sweeps, or a seeded random walk for CI budgets —
//!   injecting spurious condvar wakeups and detecting deadlocks, lost
//!   wakeups, livelocks, and stray panics. Violations print an
//!   fnv1a64-fingerprinted, replayable schedule trace (same style as the
//!   `IoEvent` traces in `dxh-extmem`).
//!
//! Every [`Mutex`] carries a [`Rank`], and every build checks the commit
//! path's two lock rules ([`rank`]): no lock is acquired while another
//! is held — so a condvar wait parks holding nothing else — and only a
//! `Store` guard may span a physical sync. See `docs/CONCURRENCY.md` for
//! the ranks, and for how to run and replay the model checks of the
//! real service (`service::model_tests` in `dxh-core`).
//!
//! ## Everything is safe code
//!
//! The workspace denies `unsafe_code`, so unlike loom there is no
//! `UnsafeCell`/generator machinery here: each protected value lives
//! inside a real `std::sync::Mutex` that the scheduler guarantees is
//! uncontended whenever it is touched under a checker run, and blocking
//! there is simulated entirely at the scheduler level (a condvar never
//! waits on an OS condvar other than the scheduler's own).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod model;
pub mod rank;

pub use model::shim::{thread, Condvar, Mutex, MutexGuard, WaitTimeoutResult};
pub use rank::{assert_sync_allowed, Rank};
