//! The dictionary interface shared by every external hash table.

use dxh_extmem::{IoSnapshot, Key, Result, Value};

/// A dynamic dictionary in the external memory model.
///
/// All six tables in this workspace (four classics here, two buffered
/// constructions in `dxh-core`) implement this trait, so workloads,
/// experiments, and the measurement harness are structure-agnostic.
///
/// ## Semantics
///
/// * `insert` is an **upsert**: inserting an existing key updates its
///   value. For the buffered (LSM-style) tables the old pair may remain
///   physically present in a deeper level, but `lookup` always returns
///   the newest value.
/// * `lookup` of an absent key returns `Ok(None)`.
/// * `delete` returns whether the key was present. Buffered (LSM-style)
///   implementations delete via per-key markers: the key is immediately
///   absent to `lookup`, while its physical space is reclaimed by the
///   next deepest-level merge or compaction.
/// * Keys must be `< u64::MAX` ([`dxh_extmem::KEY_TOMBSTONE`] is
///   reserved). Implementations that delete via markers also reserve the
///   value `u64::MAX` ([`dxh_extmem::VALUE_TOMBSTONE`]) and reject it on
///   insert; flat tables accept any value.
///
/// ## Measurement
///
/// The I/O counters exposed by [`ExternalDictionary::disk_stats`] are the
/// paper's complexity measure. `tu` is the total insert-phase I/Os over
/// the number of insertions; `tq` is estimated by sampling lookups of
/// uniformly chosen *inserted* keys (the paper's expected average
/// successful query cost).
pub trait ExternalDictionary {
    /// Inserts or updates `key ↦ value`.
    fn insert(&mut self, key: Key, value: Value) -> Result<()>;

    /// Returns the value stored under `key`, if any.
    fn lookup(&mut self, key: Key) -> Result<Option<Value>>;

    /// Removes `key`; returns whether it was present.
    fn delete(&mut self, key: Key) -> Result<bool>;

    /// Number of live keys.
    fn len(&self) -> usize;

    /// Whether the dictionary is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the I/O counters of the table's disk.
    fn disk_stats(&self) -> IoSnapshot;

    /// Internal memory currently charged by the structure, in items
    /// (to be compared against the model's `m`).
    fn memory_used(&self) -> usize;

    /// Block capacity `b` of the underlying disk.
    fn block_capacity(&self) -> usize;

    /// Total I/Os so far, a read-modify-write as one (footnote 2).
    fn total_ios(&self) -> u64 {
        self.disk_stats().total()
    }
}
