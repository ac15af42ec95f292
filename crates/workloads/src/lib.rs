//! # dxh-workloads — workload generation and experiment running
//!
//! * [`trace`] — operation traces (insert/lookup/delete), replayable
//!   against any dictionary.
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
//!   a shadow model and the run's I/O trace against the durability
//!   rules — all deterministic in one seed.
//!
//! The sharded group-commit service ([`dxh_core::ShardedKvStore`]) has
//! no harness here: `dxh-core`'s model tests crash it at every I/O of a
//! lifecycle under the schedules they explore, each run replayable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod generator;
pub mod runner;
pub mod torture;
pub mod trace;
pub mod zipf;

pub use generator::{
    ArchivalStream, ChurnMix, ConcurrentChurn, InsertLookupMix, UniformInserts, Workload,
    WorkloadError, ZipfQueries, ZipfWrites,
};
pub use runner::{measure_tq, measure_tq_unsuccessful, parallel_trials, run_trace, RunReport};
pub use torture::{
    sweep_crash_indices, torture_run, torture_run_on, PhaseMarkers, SweepReport, TortureReport,
    TortureSpec, RERUN_STRIDE,
};
pub use trace::{Op, Trace};
pub use zipf::ZipfSampler;
