//! The accounting disk: every bound in the paper is a statement about the
//! number of operations this type performs.

use crate::backend::StorageBackend;
use crate::block::{Block, BlockId};
use crate::error::Result;
use crate::pool::{BufferPool, PoolStats};
use crate::stats::{IoCostModel, IoSnapshot, IoStats};

/// A disk with exact I/O accounting and an optional write-back buffer pool.
///
/// Without a pool, every [`Disk::read`] costs one read I/O, every
/// [`Disk::write`] one write I/O, and [`Disk::read_modify_write`] one
/// combined I/O (priced by the [`IoCostModel`], matching the paper's
/// footnote 2).
///
/// With a pool attached, the cache absorbs hits for free and I/Os are
/// charged at the backend boundary: misses cost a read, dirty evictions
/// and flushes cost a write. This is the "generic buffering" configuration
/// used by the A1 ablation.
pub struct Disk<B> {
    backend: B,
    b: usize,
    cost: IoCostModel,
    stats: IoStats,
    pool: Option<BufferPool>,
}

impl<B: StorageBackend> Disk<B> {
    /// Wraps `backend`; `b` must equal the backend's block capacity.
    pub fn new(backend: B, b: usize, cost: IoCostModel) -> Self {
        assert_eq!(backend.block_capacity(), b, "block capacity mismatch");
        Disk { backend, b, cost, stats: IoStats::new(), pool: None }
    }

    /// Attaches a write-back LRU buffer pool of `frames` blocks.
    ///
    /// The *caller* is responsible for charging `frames × b` items to its
    /// [`crate::MemoryBudget`] — the pool is internal memory.
    pub fn attach_pool(&mut self, frames: usize) {
        self.pool = Some(BufferPool::new(frames));
    }

    /// Detaches the pool, writing dirty frames back (each costs one write).
    pub fn detach_pool(&mut self) -> Result<()> {
        self.flush()?;
        self.pool = None;
        Ok(())
    }

    /// Block capacity `b` in items.
    #[inline]
    pub fn b(&self) -> usize {
        self.b
    }

    /// The configured I/O cost model.
    #[inline]
    pub fn cost_model(&self) -> IoCostModel {
        self.cost
    }

    /// The I/O counters.
    #[inline]
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Total I/Os so far, priced by the configured model.
    #[inline]
    pub fn total_ios(&self) -> u64 {
        self.stats.total(self.cost)
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

    /// Pool statistics, when a pool is attached.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool.as_ref().map(|p| p.stats())
    }

    /// Whether a pool is attached.
    pub fn has_pool(&self) -> bool {
        self.pool.is_some()
    }

    /// Number of live blocks on the backend.
    pub fn live_blocks(&self) -> u64 {
        self.backend.live_blocks()
    }

    /// Reads block `id` (1 read I/O, or free on a pool hit).
    pub fn read(&mut self, id: BlockId) -> Result<Block> {
        if let Some(pool) = self.pool.as_mut() {
            if let Some(blk) = pool.get(id) {
                return Ok(blk.clone());
            }
            // Miss: fetch, cache clean, pay for the read and any writeback.
            let blk = self.backend.read(id)?;
            self.stats.record_read();
            if let Some((wid, wblk)) = pool.insert(id, blk.clone(), false) {
                self.backend.write(wid, &wblk)?;
                self.stats.record_write();
            }
            Ok(blk)
        } else {
            let blk = self.backend.read(id)?;
            self.stats.record_read();
            Ok(blk)
        }
    }

    /// Writes block `id` (1 write I/O, or deferred into the pool).
    pub fn write(&mut self, id: BlockId, block: &Block) -> Result<()> {
        debug_assert!(block.capacity() == self.b);
        if let Some(pool) = self.pool.as_mut() {
            if let Some((wid, wblk)) = pool.insert(id, block.clone(), true) {
                self.backend.write(wid, &wblk)?;
                self.stats.record_write();
            }
            Ok(())
        } else {
            self.backend.write(id, block)?;
            self.stats.record_write();
            Ok(())
        }
    }

    /// Reads block `id`, applies `edit`, writes it back.
    ///
    /// Unpooled this is the paper's single-seek read-modify-write: it is
    /// charged as **one** combined I/O under [`IoCostModel::SeekDominated`]
    /// (two under [`IoCostModel::Strict`]). Pooled, a hit is free and a
    /// miss costs the read (plus eventual writeback on eviction).
    pub fn read_modify_write<R>(
        &mut self,
        id: BlockId,
        edit: impl FnOnce(&mut Block) -> R,
    ) -> Result<R> {
        if let Some(pool) = self.pool.as_mut() {
            if let Some(blk) = pool.get_mut(id) {
                return Ok(edit(blk));
            }
            // get_mut already counted the miss.
            let mut blk = self.backend.read(id)?;
            self.stats.record_read();
            let out = edit(&mut blk);
            if let Some((wid, wblk)) = pool.insert(id, blk, true) {
                self.backend.write(wid, &wblk)?;
                self.stats.record_write();
            }
            Ok(out)
        } else {
            let mut blk = self.backend.read(id)?;
            let out = edit(&mut blk);
            self.backend.write(id, &blk)?;
            self.stats.record_rmw();
            Ok(out)
        }
    }

    /// Reads block `id`, applies `edit`, and writes the block back **only
    /// if `edit` reports a modification** (its first return component).
    ///
    /// Accounting: modified → one combined read-modify-write (priced by
    /// the cost model); unmodified → one plain read. This is the right
    /// primitive for probe loops (blocked linear probing, chain walks)
    /// where most visited blocks are merely inspected.
    pub fn update<R>(
        &mut self,
        id: BlockId,
        edit: impl FnOnce(&mut Block) -> (bool, R),
    ) -> Result<R> {
        if let Some(pool) = self.pool.as_mut() {
            // Pool hit: mutation is free either way (get_mut marks dirty
            // conservatively; an unmodified hit stays clean via get).
            if pool.contains(id) {
                let blk = pool.get_mut(id).expect("contains() implies hit");
                let (_modified, out) = edit(blk);
                return Ok(out);
            }
            pool.record_miss();
            let mut blk = self.backend.read(id)?;
            self.stats.record_read();
            let (modified, out) = edit(&mut blk);
            if let Some((wid, wblk)) = pool.insert(id, blk, modified) {
                self.backend.write(wid, &wblk)?;
                self.stats.record_write();
            }
            Ok(out)
        } else {
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
    }

    /// Allocates a fresh empty block (metadata operation, no I/O charged;
    /// the first write to the block pays its I/O).
    pub fn allocate(&mut self) -> Result<BlockId> {
        let id = self.backend.allocate()?;
        self.stats.record_alloc();
        Ok(id)
    }

    /// Allocates `n` consecutive calls' worth of blocks, returning their ids.
    pub fn allocate_many(&mut self, n: usize) -> Result<Vec<BlockId>> {
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(self.allocate()?);
        }
        Ok(ids)
    }

    /// Allocates `n` blocks with consecutive ids, returning the base id.
    /// See [`StorageBackend::allocate_contiguous`] for why contiguity
    /// matters to the model.
    pub fn allocate_contiguous(&mut self, n: usize) -> Result<BlockId> {
        let base = self.backend.allocate_contiguous(n)?;
        for _ in 0..n {
            self.stats.record_alloc();
        }
        Ok(base)
    }

    /// Frees block `id`; a pooled copy is discarded without writeback.
    pub fn free(&mut self, id: BlockId) -> Result<()> {
        if let Some(pool) = self.pool.as_mut() {
            pool.discard(id);
        }
        self.backend.free(id)?;
        self.stats.record_free();
        Ok(())
    }

    /// Writes back all dirty pool frames (one write I/O each) and syncs
    /// the backend.
    pub fn flush(&mut self) -> Result<()> {
        if let Some(pool) = self.pool.as_mut() {
            for (id, blk) in pool.take_dirty() {
                self.backend.write(id, &blk)?;
                self.stats.record_write();
            }
        }
        self.backend.sync()
    }

    /// Read-only backend access (allocator state, diagnostics).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Direct backend access for tests and verification (bypasses both the
    /// pool and the accounting — never use on a measurement path).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::mem_disk::MemDisk;

    fn disk(b: usize) -> Disk<MemDisk> {
        Disk::new(MemDisk::new(b), b, IoCostModel::SeekDominated)
    }

    #[test]
    fn unpooled_accounting() {
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
    fn strict_model_prices_rmw_at_two() {
        let mut d = Disk::new(MemDisk::new(4), 4, IoCostModel::Strict);
        let id = d.allocate().unwrap();
        d.read_modify_write(id, |_| ()).unwrap();
        assert_eq!(d.total_ios(), 2);
    }

    #[test]
    fn rmw_returns_edit_result() {
        let mut d = disk(4);
        let id = d.allocate().unwrap();
        let n = d.read_modify_write(id, |b| b.len()).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn pooled_hits_are_free() {
        let mut d = disk(4);
        let id = d.allocate().unwrap();
        d.attach_pool(2);
        let _ = d.read(id).unwrap(); // miss: 1 read
        let _ = d.read(id).unwrap(); // hit: free
        let _ = d.read(id).unwrap(); // hit: free
        assert_eq!(d.total_ios(), 1);
        assert_eq!(d.pool_stats().unwrap().hits, 2);
    }

    #[test]
    fn pooled_writes_are_deferred_until_eviction_or_flush() {
        let mut d = disk(4);
        let ids = d.allocate_many(3).unwrap();
        d.attach_pool(2);
        let mut blk = Block::new(4);
        blk.push(Item::key_only(7)).unwrap();
        d.write(ids[0], &blk).unwrap(); // cached dirty, 0 I/O
        assert_eq!(d.total_ios(), 0);
        d.write(ids[1], &blk).unwrap(); // cached dirty, 0 I/O
        d.write(ids[2], &blk).unwrap(); // evicts ids[0] dirty: 1 write
        assert_eq!(d.stats().writes(), 1);
        d.flush().unwrap(); // two dirty frames remain
        assert_eq!(d.stats().writes(), 3);
        // After flush the data is durable on the backend.
        assert_eq!(d.backend_mut().read(ids[0]).unwrap().find(7), Some(0));
    }

    #[test]
    fn pooled_rmw_hit_is_free_and_visible() {
        let mut d = disk(4);
        let id = d.allocate().unwrap();
        d.attach_pool(1);
        let _ = d.read(id).unwrap(); // load into pool: 1 read
        d.read_modify_write(id, |b| b.push(Item::key_only(5)).unwrap()).unwrap(); // hit
        assert_eq!(d.total_ios(), 1);
        assert_eq!(d.read(id).unwrap().find(5), Some(0)); // hit, sees the edit
        assert_eq!(d.total_ios(), 1);
    }

    #[test]
    fn free_discards_pooled_copy_without_writeback() {
        let mut d = disk(4);
        let id = d.allocate().unwrap();
        d.attach_pool(1);
        d.read_modify_write(id, |b| b.push(Item::key_only(5)).unwrap()).unwrap();
        d.free(id).unwrap();
        d.flush().unwrap();
        // read + no writes: the dirty frame died with the block.
        assert_eq!(d.stats().reads(), 1);
        assert_eq!(d.stats().writes(), 0);
    }

    #[test]
    fn detach_pool_flushes() {
        let mut d = disk(4);
        let id = d.allocate().unwrap();
        d.attach_pool(1);
        let mut blk = Block::new(4);
        blk.push(Item::key_only(3)).unwrap();
        d.write(id, &blk).unwrap();
        d.detach_pool().unwrap();
        assert!(!d.has_pool());
        assert_eq!(d.stats().writes(), 1);
        // Subsequent ops are unpooled again.
        let _ = d.read(id).unwrap();
        assert_eq!(d.stats().reads(), 1);
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
    fn update_through_pool_is_free_on_hit() {
        let mut d = disk(4);
        let id = d.allocate().unwrap();
        d.attach_pool(1);
        let _ = d.read(id).unwrap(); // 1 read, now cached
        d.update(id, |b| {
            b.push(Item::key_only(2)).unwrap();
            (true, ())
        })
        .unwrap();
        assert_eq!(d.total_ios(), 1, "pooled update hit is free");
        d.flush().unwrap();
        assert_eq!(d.stats().writes(), 1, "dirty frame written at flush");
    }

    #[test]
    fn pooled_update_misses_are_counted() {
        let mut d = disk(4);
        let a = d.allocate().unwrap();
        let b2 = d.allocate().unwrap();
        d.attach_pool(1);
        d.update(a, |_| (false, ())).unwrap(); // miss
        d.update(a, |_| (false, ())).unwrap(); // hit
        d.update(b2, |_| (false, ())).unwrap(); // miss (evicts a)
        let p = d.pool_stats().unwrap();
        assert_eq!(p.misses, 2);
        assert_eq!(p.hits, 1);
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
        assert_eq!(d.stats().allocs(), 6);
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
