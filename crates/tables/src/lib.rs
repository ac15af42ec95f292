//! # dxh-tables — classic external hash tables
//!
//! The baseline structures the paper builds on and compares against:
//!
//! * [`ChainingTable`] — the standard external hash table with per-bucket
//!   overflow chains, Knuth's reference point: successful lookups and
//!   inserts cost `1 + 1/2^Ω(b)` I/Os at constant load factor. This is
//!   the paper's `tq ≈ 1` upper bound (the `c > 1` regime of Figure 1).
//! * [`LinearProbingTable`] — blocked linear probing (Knuth §6.4's other
//!   classic), fixed capacity, tombstone deletion.
//! * [`ExtendibleTable`] — Fagin–Nievergelt–Pippenger–Strong extendible
//!   hashing: directory doubling, O(1)-I/O lookups at any size.
//! * [`LinearHashTable`] — Litwin's linear hashing: incremental bucket
//!   splitting, no directory.
//!
//! All tables implement [`ExternalDictionary`] and charge their internal
//! memory to a [`dxh_extmem::MemoryBudget`]. Tables whose layout the
//! lower-bound harness can inspect also implement
//! [`LayoutInspect`], exposing the zones abstraction of §2 of the paper
//! (memory zone / fast zone / slow zone with respect to the in-memory
//! address function `f`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chain;
mod chaining;
mod dictionary;
mod extendible;
mod layout;
mod linear_hashing;
mod linear_probing;

pub use chain::{
    chain_collect, chain_delete, chain_lookup, chain_upsert, chain_walk, write_bucket, Region,
    UpsertOutcome,
};
pub use chaining::{ChainingConfig, ChainingTable};
pub use dictionary::ExternalDictionary;
pub use extendible::{ExtendibleConfig, ExtendibleTable};
pub use layout::{LayoutInspect, LayoutSnapshot};
pub use linear_hashing::{LinearHashConfig, LinearHashTable};
pub use linear_probing::{LinearProbingConfig, LinearProbingTable};
