//! # dxh-workloads — workload generation and experiment running
//!
//! * [`trace`] — operation traces (insert/lookup/delete) with CSV
//!   round-tripping, so experiments are replayable.
//! * [`generator`] — the workload families used by the experiments:
//!   uniform random insertions (the paper's model), insert/lookup mixes,
//!   insert/delete/lookup churn (for the store's deletion and compaction
//!   paths), the intro's motivating *archival stream* (insert-heavy,
//!   occasional point queries), and Zipf-skewed query workloads.
//!   Unsatisfiable requests are typed [`WorkloadError`]s, not panics.
//! * [`zipf`] — a Zipf(θ) rank sampler.
//! * [`runner`] — drives any [`dxh_tables::ExternalDictionary`] through
//!   a trace with per-operation-class I/O attribution, measures the
//!   paper's `tu` and `tq`, and fans independent trials out across
//!   threads (crossbeam scoped threads, one seed per trial).
//! * [`torture`] — the crash-recovery torture harness: churn a
//!   persistent store, raw or in payload mode, on the crash-simulation
//!   environment, crash it at a chosen (or exhaustively swept) I/O
//!   index, reopen, and check the recovered state byte for byte against
//!   a shadow model — all deterministic in one seed.
//! * [`service`] — the concurrent twin: drive a sharded group-commit
//!   service ([`dxh_core::ShardedKvStore`]) from real writer threads on
//!   one simulated machine, crash it mid group commit, and check that
//!   every shard recovers to a batch boundary (all-in or all-out).
//!
//! Both harnesses run on one crash-run skeleton (`crash`): the seeded
//! crash plan, crashed-or-violation sorting, the power cycle and the
//! durability-trace check.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod crash;
pub mod generator;
pub mod runner;
pub mod service;
pub mod torture;
pub mod trace;
pub mod zipf;

pub use generator::{
    ArchivalStream, ChurnMix, ConcurrentChurn, InsertLookupMix, UniformInserts, Workload,
    WorkloadError, ZipfQueries, ZipfWrites,
};
pub use runner::{measure_tq, measure_tq_unsuccessful, parallel_trials, run_trace, RunReport};
pub use service::{
    service_torture_run, service_torture_run_on, sweep_service_crashes, sweep_service_crashes_on,
    ServiceTortureReport, ServiceTortureSpec,
};
pub use torture::{
    sweep_crash_indices, torture_run, torture_run_on, PhaseMarkers, TortureReport, TortureSpec,
};
pub use trace::{Op, Trace};
pub use zipf::ZipfSampler;
