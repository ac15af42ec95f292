//! # dxh-core — buffered dynamic external hash tables
//!
//! The upper-bound constructions of *Dynamic External Hashing: The Limit
//! of Buffering* (Wei, Yi, Zhang — SPAA 2009):
//!
//! * [`LogMethodTable`] — **Lemma 5**: the logarithmic method applied to
//!   external hashing. A memory-resident table `H0` (≤ m/2 items) plus
//!   disk tables `H_k` of at most `γ^k · m/2` items in at most
//!   `γ^k · m/b` buckets — each a static table, never written into:
//!   `⌈x/λ(b)⌉` buckets for its `x` items, packed to the sealed fill
//!   ([`CoreConfig::fresh_level_buckets`], [`CoreConfig::sealed_fill`]:
//!   48 of 64 items a block); overflowing levels migrate downward by a
//!   sequential bucket-ordered scan into a freshly built level. Insertions cost `O((γ/b)·log(n/m))` amortized; lookups cost
//!   `O(log_γ(n/m))` at worst — the first levels own Bloom filter shares
//!   in the part of `m` the construction leaves idle ([`FilterPlan`]),
//!   lent to a deeper level while their own is empty by one rule of
//!   which levels exist (whether a flush, a reopen or compaction builds
//!   the level), so a probe reads only the levels that can hold its key.
//! * [`BootstrappedTable`] — **Theorem 2**: the paper's contribution. A
//!   big on-disk table `Ĥ` always holding at least a `1 − 1/β` fraction
//!   of the items, with a logarithmic-method side structure absorbing
//!   recent insertions, merged into `Ĥ` every `≈ |Ĥ|/β` insertions.
//!   With `β = b^c` (`0 < c < 1`, `γ = 2`) this gives amortized
//!   `O(b^(c−1)) = o(1)` I/Os per insertion with successful lookups at
//!   `1 + O(1/b^c)` expected I/Os — matching the paper's lower bound
//!   (Theorem 1, case 3). With `β = Θ(εb)` it gives `tu = ε` and
//!   `tq = 1 + O(1/b)`.
//!
//! Above the constructions sits the persistence stack: [`KvStore`] (one
//! durable store — manifest, crash recovery, GC, compaction, generic
//! over the [`StoreMedia`] seam) and [`ShardedKvStore`] (N shards
//! behind a thread-safe handle with per-shard **group-commit**
//! batching, so concurrent writers share manifest fsyncs). See
//! `docs/ARCHITECTURE.md` for the layer map and `docs/GUARANTEES.md`
//! for the crash-consistency contract.
//!
//! The merge machinery (internal `stream` module) exploits the hierarchy
//! of [`dxh_hashfn::prefix_bucket`]: every table's sequential bucket
//! order is also hash-prefix order, so merging any set of tables into a
//! target with any bucket count is a single synchronized linear scan —
//! the "scanning the two tables in parallel" of the paper, generalized
//! to k-way.
//!
//! ## Scope
//!
//! The paper studies the query–**insertion** tradeoff; deletions are out
//! of scope (§1: "there tend to be a lot more insertions than deletions
//! in many practical situations like managing archival data"). The
//! constructions take two different positions on that:
//!
//! * [`BootstrappedTable`] rejects `delete` — Theorem 2's `Ĥ`-fraction
//!   invariant is an insertion-counting argument, and the table keeps it
//!   exactly as analyzed.
//! * [`LogMethodTable`] (and [`KvStore`] on top of it) supports
//!   `delete` via deletion markers: a marker upserted into `H0` shadows
//!   deeper copies under the shallow-first lookup, and merges into the
//!   deepest level purge markers together with the copies they shadow —
//!   the standard way external dictionaries bolt deletion onto the
//!   logarithmic method (cf. Conway et al. 2018). Deletion costs the
//!   marker's amortized insertion plus one probe; the paper's insertion
//!   and lookup bounds are unchanged for insert-only workloads.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// Outside tests a discarded `Result` (a swallowed sync error above all)
// is a lint error; a deliberate discard says why at its site.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]

mod bootstrap;
mod commitlog;
mod config;
mod facade;
mod filter;
mod log_method;
mod media;
mod mem_table;
mod service;
mod store;
mod stream;

pub use bootstrap::BootstrappedTable;
pub use config::CoreConfig;
pub use facade::{DynamicHashTable, TradeoffTarget};
pub use filter::{FilterPlan, FilterStats, HeldFilter};
pub use log_method::LogMethodTable;
pub use media::{DirMedia, SimMedia, StoreMedia};
pub use mem_table::MemTable;
pub use service::{ServiceStats, ShardedKvStore, WriteOp};
pub use store::{CompactionStats, Footprint, KvStore, LevelFiles, LevelFootprint, ManifestIoStats};

// Re-exported so downstream code can name the dictionary trait without
// depending on dxh-tables directly.
pub use dxh_tables::{ExternalDictionary, LayoutInspect, LayoutSnapshot};
