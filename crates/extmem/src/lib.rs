//! # dxh-extmem — the external memory model substrate
//!
//! This crate implements the standard external memory (EM) model of
//! Aggarwal and Vitter that the paper *Dynamic External Hashing: The Limit
//! of Buffering* (Wei, Yi, Zhang — SPAA 2009) states all of its bounds in:
//!
//! * the **disk** is an unbounded array of blocks, each holding up to `b`
//!   items ([`Block`], [`Disk`]);
//! * the **internal memory** holds up to `m` items ([`MemoryBudget`]);
//! * computation is free; the complexity measure is the number of block
//!   transfers (**I/Os**) performed ([`IoStats`]).
//!
//! There is one block store, [`BlockFile`]: blocks encoded in the slots
//! of a byte file ([`BlobFile`]), with one slot allocator. Three byte
//! files hold it: a vector in memory ([`MemDisk`], the experiments'
//! disk: exact, fast, deterministic), a real file ([`FileDisk`]) that
//! runs the same code paths against a filesystem, and a file of the
//! crash simulator ([`SimDisk`], on a [`SimEnv`]) whose unsynced writes
//! are volatile and whose seeded [`FaultPlan`] can crash or fault any
//! I/O by index — the engine of the recovery torture harness. The same
//! workload gets the same block ids and the same I/O counts on all
//! three. [`Cached`] puts an LRU page cache in front of an accounting
//! disk over any of them (see *Buffering*).
//!
//! ## I/O accounting convention
//!
//! Footnote 2 of the paper counts a read of a block immediately followed by
//! writing it back as **one** I/O, because seek time dominates. That is
//! the one accounting here ([`IoCostModel::SeekDominated`] names it):
//! [`IoSnapshot::total`] and every bound, gate and metric use it, and
//! [`IoSnapshot::transfers`] gives the literal count, a read-modify-write
//! as two transfers.
//!
//! ## Buffering
//!
//! The entire point of the paper is what a small internal-memory buffer can
//! and cannot do. The substrate therefore makes buffering *explicit*:
//!
//! * structures must charge every word of internal state to a
//!   [`MemoryBudget`] of capacity `m`;
//! * generic page caching is a backend, not a mode of [`Disk`]: a table
//!   runs on `Disk<Cached<B>>`, where [`Cached`] serves an inner
//!   accounting disk through an LRU [`BufferPool`] and that inner disk's
//!   counters are the transfers; the pool's frames are charged against
//!   the same budget by whoever builds it.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// Outside tests a discarded `Result` (a swallowed sync error above all)
// is a lint error; a deliberate discard says why at its site.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]

mod backend;
mod blob;
mod block;
mod block_file;
mod budget;
mod disk;
mod error;
pub mod frame;
mod item;
mod pool;
mod sim_disk;
mod stats;

pub use backend::StorageBackend;
pub use blob::{BlobFile, BlobLog, FileBlob, MemBlob};
pub use block::{Block, BlockId};
pub use block_file::{BlockFile, FileDisk, MemDisk, SimDisk};
pub use budget::MemoryBudget;
pub use disk::Disk;
pub use error::{ExtMemError, Result};
pub use frame::fnv1a64;
pub use item::{
    check_key, check_value, Item, Key, Value, BLOB_TAG, KEY_TOMBSTONE, MAX_BLOB_OFFSET,
    VALUE_TOMBSTONE,
};
pub use pool::{BufferPool, Cached, PoolStats};
pub use sim_disk::{FaultPlan, IoEvent, SimBlob, SimEnv};
pub use stats::{IoCostModel, IoSnapshot, IoStats};

/// Convenience constructor: an accounting [`Disk`] over an in-memory
/// backend with block capacity `b` items.
pub fn mem_disk(b: usize) -> Disk<MemDisk> {
    Disk::new(MemDisk::new(b), b, IoCostModel::SeekDominated)
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn mem_disk_constructor_wires_block_capacity() {
        let mut d = mem_disk(8);
        let id = d.allocate().unwrap();
        let blk = d.read(id).unwrap();
        assert_eq!(blk.capacity(), 8);
        assert_eq!(d.stats().reads(), 1);
    }
}
