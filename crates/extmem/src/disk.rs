//! The accounting disk: every bound in the paper is a statement about the
//! number of operations this type performs.

use crate::backend::StorageBackend;
use crate::block::{Block, BlockId};
use crate::error::Result;
use crate::stats::{IoCostModel, IoSnapshot, IoStats};

/// A disk with exact I/O accounting: I/O counters around a
/// [`StorageBackend`], one path per primitive.
///
/// Every [`Disk::read`] costs one read I/O, every [`Disk::write`] one
/// write I/O, and [`Disk::read_modify_write`] one combined I/O (the
/// paper's footnote 2; [`IoSnapshot::transfers`] counts it as two).
///
/// Generic buffering — the A1 ablation's LRU page cache — is a backend,
/// not a mode of this type: over a [`crate::Cached`] backend these
/// counters are the table's logical block accesses, and the transfers
/// are the counters of the disk inside the cache.
pub struct Disk<B> {
    backend: B,
    b: usize,
    stats: IoStats,
}

impl<B: StorageBackend> Disk<B> {
    /// Wraps `backend`; `b` must equal the backend's block capacity.
    /// [`IoCostModel`] has one value, footnote 2's; it is named here and
    /// nothing is kept of it.
    pub fn new(backend: B, b: usize, _: IoCostModel) -> Self {
        assert_eq!(backend.block_capacity(), b, "block capacity mismatch");
        Disk { backend, b, stats: IoStats::new() }
    }

    /// Block capacity `b` in items.
    #[inline]
    pub fn b(&self) -> usize {
        self.b
    }

    /// The I/O counters.
    #[inline]
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Total I/Os so far, a read-modify-write as one.
    #[inline]
    pub fn total_ios(&self) -> u64 {
        self.stats.total()
    }

    /// Convenience: a snapshot for phase measurement.
    #[inline]
    pub fn epoch(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    /// Convenience: counters accumulated since `epoch`.
    #[inline]
    pub fn since(&self, epoch: &IoSnapshot) -> IoSnapshot {
        self.stats.snapshot().since(epoch)
    }

    /// Number of live blocks on the backend.
    pub fn live_blocks(&self) -> u64 {
        self.backend.live_blocks()
    }

    /// Reads block `id` (1 read I/O).
    pub fn read(&mut self, id: BlockId) -> Result<Block> {
        let blk = self.backend.read(id)?;
        self.stats.record_read();
        Ok(blk)
    }

    /// Writes block `id` (1 write I/O).
    pub fn write(&mut self, id: BlockId, block: &Block) -> Result<()> {
        debug_assert!(block.capacity() == self.b);
        self.backend.write(id, block)?;
        self.stats.record_write();
        Ok(())
    }

    /// Reads block `id`, applies `edit`, writes it back: the paper's
    /// single-seek read-modify-write, charged as **one** combined I/O.
    pub fn read_modify_write<R>(
        &mut self,
        id: BlockId,
        edit: impl FnOnce(&mut Block) -> R,
    ) -> Result<R> {
        self.update(id, |b| (true, edit(b)))
    }

    /// Reads block `id`, applies `edit`, and writes the block back **only
    /// if `edit` reports a modification** (its first return component).
    ///
    /// Accounting: modified → one combined read-modify-write; unmodified
    /// → one plain read. This is the right primitive for probe loops
    /// (blocked linear probing, chain walks) where most visited blocks are
    /// merely inspected.
    pub fn update<R>(
        &mut self,
        id: BlockId,
        edit: impl FnOnce(&mut Block) -> (bool, R),
    ) -> Result<R> {
        let mut blk = self.backend.read(id)?;
        let (modified, out) = edit(&mut blk);
        if modified {
            self.backend.write(id, &blk)?;
            self.stats.record_rmw();
        } else {
            self.stats.record_read();
        }
        Ok(out)
    }

    /// Allocates a fresh empty block (metadata operation, no I/O charged;
    /// the first write to the block pays its I/O).
    pub fn allocate(&mut self) -> Result<BlockId> {
        self.backend.allocate()
    }

    /// Allocates `n` blocks with consecutive ids, returning the base id.
    /// See [`StorageBackend::allocate_contiguous`] for why contiguity
    /// matters to the model.
    pub fn allocate_contiguous(&mut self, n: usize) -> Result<BlockId> {
        self.backend.allocate_contiguous(n)
    }

    /// Frees block `id` (metadata, no I/O charged).
    pub fn free(&mut self, id: BlockId) -> Result<()> {
        self.backend.free(id)
    }

    /// Syncs the backend (a [`crate::Cached`] backend first writes back
    /// its dirty frames).
    pub fn flush(&mut self) -> Result<()> {
        self.backend.sync()
    }

    /// Read-only backend access (allocator state, diagnostics, the
    /// transfers behind a [`crate::Cached`] backend).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Direct backend access for tests and verification (bypasses the
    /// accounting — never use on a measurement path).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::MemDisk;

    fn disk(b: usize) -> Disk<MemDisk> {
        Disk::new(MemDisk::new(b), b, IoCostModel::SeekDominated)
    }

    #[test]
    fn each_primitive_is_counted_once() {
        let mut d = disk(4);
        let id = d.allocate().unwrap();
        let _ = d.read(id).unwrap();
        let mut blk = Block::new(4);
        blk.push(Item::key_only(1)).unwrap();
        d.write(id, &blk).unwrap();
        d.read_modify_write(id, |b| b.push(Item::key_only(2)).unwrap()).unwrap();
        assert_eq!(d.stats().reads(), 1);
        assert_eq!(d.stats().writes(), 1);
        assert_eq!(d.stats().rmws(), 1);
        assert_eq!(d.total_ios(), 3); // seek-dominated: rmw = 1
    }

    #[test]
    fn a_rmw_is_one_io_and_two_transfers() {
        let mut d = disk(4);
        let id = d.allocate().unwrap();
        d.read_modify_write(id, |_| ()).unwrap();
        assert_eq!(d.total_ios(), 1);
        assert_eq!(d.epoch().transfers(), 2);
    }

    #[test]
    fn rmw_returns_edit_result() {
        let mut d = disk(4);
        let id = d.allocate().unwrap();
        let n = d.read_modify_write(id, |b| b.len()).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn update_counts_read_when_unmodified_rmw_when_modified() {
        let mut d = disk(4);
        let id = d.allocate().unwrap();
        let len = d.update(id, |b| (false, b.len())).unwrap();
        assert_eq!(len, 0);
        assert_eq!(d.stats().reads(), 1);
        assert_eq!(d.stats().rmws(), 0);
        d.update(id, |b| {
            b.push(Item::key_only(1)).unwrap();
            (true, ())
        })
        .unwrap();
        assert_eq!(d.stats().rmws(), 1);
        assert_eq!(d.read(id).unwrap().len(), 1);
    }

    #[test]
    fn allocate_contiguous_ids_are_consecutive() {
        let mut d = disk(4);
        let _ = d.allocate().unwrap();
        let base = d.allocate_contiguous(5).unwrap();
        for i in 0..5 {
            let id = BlockId(base.raw() + i);
            assert!(d.read(id).unwrap().is_empty());
        }
        assert_eq!(d.live_blocks(), 6);
    }

    #[test]
    fn contiguous_allocation_ignores_scattered_frees() {
        let mut d = disk(4);
        let a = d.allocate().unwrap();
        let _b = d.allocate().unwrap();
        d.free(a).unwrap();
        let base = d.allocate_contiguous(3).unwrap();
        assert!(base.raw() >= 2, "contiguous range must not recycle holes");
    }

    #[test]
    fn epoch_delta_measures_a_phase() {
        let mut d = disk(4);
        let id = d.allocate().unwrap();
        let _ = d.read(id).unwrap();
        let e = d.epoch();
        let _ = d.read(id).unwrap();
        let _ = d.read(id).unwrap();
        assert_eq!(d.since(&e).reads, 2);
    }

    #[test]
    fn file_backend_behaves_identically() {
        use crate::FileDisk;
        let mut mem = disk(4);
        let mut file = Disk::new(FileDisk::temp(4).unwrap(), 4, IoCostModel::SeekDominated);
        for d in [&mut mem as &mut dyn AnyDisk, &mut file as &mut dyn AnyDisk] {
            d.run_scenario();
        }
        assert_eq!(mem.total_ios(), file.total_ios());

        // Small helper trait so the same scenario drives both backends.
        trait AnyDisk {
            fn run_scenario(&mut self);
        }
        impl<B: StorageBackend> AnyDisk for Disk<B> {
            fn run_scenario(&mut self) {
                let id = self.allocate().unwrap();
                self.read_modify_write(id, |b| b.push(Item::new(1, 2)).unwrap()).unwrap();
                assert_eq!(self.read(id).unwrap().find(1), Some(2));
            }
        }
    }
}
