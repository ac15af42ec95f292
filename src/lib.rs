//! # dyn-ext-hash
//!
//! A Rust reproduction of **"Dynamic External Hashing: The Limit of
//! Buffering"** (Zhewei Wei, Ke Yi, Qin Zhang — SPAA 2009,
//! arXiv:0811.3062): dynamic hash tables in the external memory model,
//! the logarithmic-method and bootstrapped constructions that trade query
//! cost for insertion cost, and the zones/bin-ball machinery behind the
//! matching lower bounds.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`extmem`] — the external memory model: blocks, disks, I/O
//!   accounting, memory budgets, and an LRU page cache as a backend
//!   (`Cached`) for the generic-buffering ablation.
//! * [`hashfn`] — hash function families (ideal PRF, universal,
//!   multiply-shift, tabulation, k-independent polynomials).
//! * [`tables`] — classic external hash tables: chaining, blocked linear
//!   probing, extendible hashing, linear hashing.
//! * [`core`] — the paper's constructions: [`core::LogMethodTable`]
//!   (Lemma 5) and [`core::BootstrappedTable`] (Theorem 2).
//! * [`lowerbound`] — Theorem 1 machinery: zones, bin-ball games, the
//!   adversary harness.
//! * [`analysis`] — closed-form bounds, Knuth-style formulas, tail
//!   bounds, statistics.
//! * [`workloads`] — generators, traces, sequential and parallel
//!   runners, and the crash-recovery torture harness.
//! * [`sync`] — the concurrency seam under the sharded service: std
//!   primitives in release builds, a loom-style cooperative model
//!   checker under `--features model`, which runs the real service's
//!   commit path (`cargo test -p dxh-core --features model`; see
//!   `docs/CONCURRENCY.md`).
//!
//! ## Quickstart
//!
//! ```
//! use dyn_ext_hash::core::{BootstrappedTable, CoreConfig};
//! use dyn_ext_hash::tables::ExternalDictionary;
//!
//! // b = 64-item blocks, m = 4096 items of internal memory, β = b^(1/2):
//! // Theorem 2 promises amortized O(b^(-1/2)) I/Os per insertion with
//! // queries at 1 + O(1/b^(1/2)) I/Os.
//! let cfg = CoreConfig::theorem2(64, 4096, 0.5).unwrap();
//! let mut table = BootstrappedTable::new(cfg, 0xC0FFEE).unwrap();
//! for key in 0..50_000u64 {
//!     table.insert(key, key * 2).unwrap();
//! }
//! assert_eq!(table.lookup(12_345).unwrap(), Some(24_690));
//! // Footnote 2's accounting, the only one: a read-modify-write is one
//! // I/O (`transfers()` would count it as two block transfers).
//! let tu = table.disk_stats().total() as f64 / 50_000.0;
//! assert!(tu < 1.0, "buffering beats one I/O per insert: {tu}");
//! ```

pub use dxh_analysis as analysis;
pub use dxh_btree as btree;
pub use dxh_core as core;
pub use dxh_extmem as extmem;
pub use dxh_hashfn as hashfn;
pub use dxh_lowerbound as lowerbound;
pub use dxh_sync as sync;
pub use dxh_tables as tables;
pub use dxh_workloads as workloads;
