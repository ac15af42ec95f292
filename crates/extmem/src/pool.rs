//! Generic buffering: an LRU page cache as a storage backend.
//!
//! The paper asks whether internal memory used as a buffer can reduce the
//! amortized insertion cost of a hash table. [`Cached`] is the *generic*
//! form of such buffering — a write-back LRU cache of blocks in front of
//! an accounting [`Disk`] — and the A1 ablation uses it to show that
//! generic caching cannot beat Theorem 1, while the paper's *structural*
//! buffering (H0 of the logarithmic method) can, at the price the theorem
//! demands.

use std::collections::HashMap;

use crate::backend::StorageBackend;
use crate::block::{Block, BlockId};
use crate::disk::Disk;
use crate::error::Result;

/// Hit/miss/eviction counters of a [`Cached`] backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Lookups satisfied from the pool.
    pub hits: u64,
    /// Lookups that had to go to the backend.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Evicted frames that were dirty and had to be written back.
    pub writebacks: u64,
}

impl PoolStats {
    /// Hit ratio in `[0, 1]`; zero when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A cached block: its contents, whether the disk behind lacks them, and
/// the stamp of its last use.
struct Frame {
    block: Block,
    dirty: bool,
    used: u64,
}

/// A [`StorageBackend`] that serves an accounting [`Disk`] through a
/// write-back cache of `frames` blocks that evicts the least recently
/// used one: generic buffering, the A1 ablation's configuration.
///
/// A table runs on `Disk<Cached<B>>`. The outer disk counts the table's
/// block accesses; the inner disk ([`Cached::disk`]) counts the
/// transfers: a hit costs nothing, a miss one read, a dirty eviction or
/// a [`StorageBackend::sync`] one write per dirty frame, and `free`
/// drops the cached copy without writing it.
///
/// The *caller* charges `frames × b` items to its
/// [`crate::MemoryBudget`] — the cache is internal memory.
pub struct Cached<B> {
    disk: Disk<B>,
    capacity: usize,
    resident: HashMap<BlockId, Frame>,
    /// Stamps uses: the victim is the frame with the smallest `used`.
    clock: u64,
    stats: PoolStats,
}

impl<B: StorageBackend> Cached<B> {
    /// `disk` behind a cache of `frames` blocks (must be ≥ 1).
    pub fn new(disk: Disk<B>, frames: usize) -> Self {
        assert!(frames >= 1, "a cache needs at least one frame");
        let resident = HashMap::with_capacity(frames);
        Cached { disk, capacity: frames, resident, clock: 0, stats: PoolStats::default() }
    }

    /// The disk behind the cache: its counters are the transfers.
    pub fn disk(&self) -> &Disk<B> {
        &self.disk
    }

    /// The disk behind the cache, for tests and verification (bypasses
    /// the cache — never use on a measurement path).
    pub fn disk_mut(&mut self) -> &mut Disk<B> {
        &mut self.disk
    }

    /// The cache's hit/miss/eviction counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.stats
    }

    /// The next use's stamp.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Caches `block` as `id`, used now (and dirty if `dirty` or already
    /// so), writing back the dirty frame it evicts.
    fn insert(&mut self, id: BlockId, block: Block, dirty: bool) -> Result<()> {
        let used = self.tick();
        if let Some(f) = self.resident.get_mut(&id) {
            *f = Frame { block, dirty: f.dirty || dirty, used };
            return Ok(());
        }
        let mut writeback = None;
        if self.resident.len() >= self.capacity {
            let lru = self.resident.iter().min_by_key(|(_, f)| f.used).map(|(&id, _)| id);
            let victim = lru.expect("a full cache holds a frame");
            let frame = self.resident.remove(&victim).expect("the victim is resident");
            self.stats.evictions += 1;
            if frame.dirty {
                self.stats.writebacks += 1;
                writeback = Some((victim, frame.block));
            }
        }
        self.resident.insert(id, Frame { block, dirty, used });
        match writeback {
            Some((victim, blk)) => self.disk.write(victim, &blk),
            None => Ok(()),
        }
    }
}

impl<B: StorageBackend> StorageBackend for Cached<B> {
    fn block_capacity(&self) -> usize {
        self.disk.b()
    }

    fn read(&mut self, id: BlockId) -> Result<Block> {
        let used = self.tick();
        if let Some(f) = self.resident.get_mut(&id) {
            self.stats.hits += 1;
            f.used = used;
            return Ok(f.block.clone());
        }
        self.stats.misses += 1;
        let blk = self.disk.read(id)?;
        self.insert(id, blk.clone(), false)?;
        Ok(blk)
    }

    fn write(&mut self, id: BlockId, block: &Block) -> Result<()> {
        self.insert(id, block.clone(), true)
    }

    fn allocate(&mut self) -> Result<BlockId> {
        self.disk.allocate()
    }

    fn allocate_contiguous(&mut self, n: usize) -> Result<BlockId> {
        self.disk.allocate_contiguous(n)
    }

    fn free(&mut self, id: BlockId) -> Result<()> {
        self.resident.remove(&id);
        self.disk.free(id)
    }

    fn live_blocks(&self) -> u64 {
        self.disk.live_blocks()
    }

    /// Writes every dirty frame back in block order; the frames stay
    /// resident, clean.
    fn sync(&mut self) -> Result<()> {
        let dirty = self.resident.iter_mut().filter(|(_, f)| f.dirty);
        let mut dirty: Vec<_> = dirty
            .map(|(&id, f)| {
                f.dirty = false;
                (id, f.block.clone())
            })
            .collect();
        dirty.sort_by_key(|&(id, _)| id);
        for (id, blk) in dirty {
            self.disk.write(id, &blk)?;
        }
        self.disk.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::IoCostModel;
    use crate::MemDisk;

    fn blk(cap: usize, key: u64) -> Block {
        let mut b = Block::new(cap);
        b.push(crate::item::Item::key_only(key)).unwrap();
        b
    }

    /// A table's disk over a pool of `frames` blocks in front of a
    /// four-item `MemDisk`, with `n` blocks allocated.
    fn cached(frames: usize, n: usize) -> (Disk<Cached<MemDisk>>, Vec<BlockId>) {
        let inner = Disk::new(MemDisk::new(4), 4, IoCostModel::SeekDominated);
        let mut d = Disk::new(Cached::new(inner, frames), 4, IoCostModel::SeekDominated);
        let ids = (0..n).map(|_| d.allocate().unwrap()).collect();
        (d, ids)
    }

    /// The transfers: the counters of the disk behind the cache.
    fn transfers(d: &Disk<Cached<MemDisk>>) -> &Disk<MemDisk> {
        d.backend().disk()
    }

    /// The disk behind the cache, behind its accounting.
    fn behind(d: &mut Disk<Cached<MemDisk>>) -> &mut MemDisk {
        d.backend_mut().disk_mut().backend_mut()
    }

    #[test]
    fn hit_and_miss_counting() {
        let (mut d, ids) = cached(2, 1);
        let _ = d.read(ids[0]).unwrap();
        let _ = d.read(ids[0]).unwrap();
        assert_eq!(d.backend().pool_stats().hits, 1);
        assert_eq!(d.backend().pool_stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (mut d, ids) = cached(2, 3);
        d.write(ids[0], &blk(4, 1)).unwrap();
        d.write(ids[1], &blk(4, 2)).unwrap();
        let _ = d.read(ids[0]).unwrap(); // ids[1] is now LRU
        d.write(ids[2], &blk(4, 3)).unwrap();
        assert_eq!(transfers(&d).stats().writes(), 1);
        assert!(behind(&mut d).read(ids[1]).unwrap().contains(2), "the LRU frame is the victim");
        assert!(behind(&mut d).read(ids[0]).unwrap().is_empty());
        let _ = d.read(ids[0]).unwrap();
        let _ = d.read(ids[2]).unwrap();
        assert_eq!(d.backend().pool_stats().hits, 3);
        assert_eq!(transfers(&d).stats().reads(), 0);
    }

    #[test]
    fn dirty_eviction_is_written_back() {
        let (mut d, ids) = cached(1, 2);
        d.write(ids[0], &blk(4, 1)).unwrap();
        let _ = d.read(ids[1]).unwrap();
        assert!(behind(&mut d).read(ids[0]).unwrap().contains(1), "dirty block written back");
        assert_eq!(d.backend().pool_stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_needs_no_writeback() {
        let (mut d, ids) = cached(1, 2);
        let _ = d.read(ids[0]).unwrap();
        let _ = d.read(ids[1]).unwrap();
        assert_eq!(d.backend().pool_stats().evictions, 1);
        assert_eq!(d.backend().pool_stats().writebacks, 0);
        assert_eq!(transfers(&d).stats().writes(), 0);
    }

    #[test]
    fn a_dirty_overwrite_marks_a_clean_frame_dirty() {
        let (mut d, ids) = cached(1, 2);
        let mut edited = d.read(ids[0]).unwrap();
        edited.push(crate::item::Item::key_only(9)).unwrap();
        d.write(ids[0], &edited).unwrap();
        let _ = d.read(ids[1]).unwrap();
        assert!(behind(&mut d).read(ids[0]).unwrap().contains(9), "mutated frame written back");
    }

    #[test]
    fn sync_writes_dirty_frames_once_and_keeps_them() {
        let (mut d, ids) = cached(3, 3);
        d.write(ids[0], &blk(4, 1)).unwrap();
        let _ = d.read(ids[1]).unwrap();
        d.write(ids[2], &blk(4, 3)).unwrap();
        d.flush().unwrap();
        assert_eq!(transfers(&d).stats().writes(), 2, "the two dirty frames");
        d.flush().unwrap();
        assert_eq!(transfers(&d).stats().writes(), 2, "second sync finds nothing dirty");
        for &id in &ids {
            let _ = d.read(id).unwrap();
        }
        assert_eq!(transfers(&d).stats().reads(), 1, "sync keeps frames resident");
    }

    #[test]
    fn free_releases_the_frame() {
        let (mut d, ids) = cached(2, 3);
        d.write(ids[0], &blk(4, 1)).unwrap();
        d.free(ids[0]).unwrap();
        let _ = d.read(ids[1]).unwrap();
        let _ = d.read(ids[2]).unwrap();
        assert_eq!(d.backend().pool_stats().evictions, 0, "the freed frame is reusable");
        d.flush().unwrap();
        assert_eq!(transfers(&d).stats().writes(), 0);
    }

    #[test]
    fn a_rewritten_frame_is_written_back_once_with_the_newest_block() {
        let (mut d, ids) = cached(2, 1);
        d.write(ids[0], &blk(4, 1)).unwrap();
        d.write(ids[0], &blk(4, 10)).unwrap();
        d.flush().unwrap();
        assert_eq!(transfers(&d).stats().writes(), 1);
        assert!(behind(&mut d).read(ids[0]).unwrap().contains(10));
    }

    #[test]
    fn hit_ratio() {
        let (mut d, ids) = cached(2, 2);
        let _ = d.read(ids[0]).unwrap();
        let _ = d.read(ids[0]).unwrap();
        assert!((d.backend().pool_stats().hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(PoolStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn heavy_churn_is_consistent() {
        // Reads and writes over 50 blocks through 8 frames: every read
        // sees the last write, and after a sync so does the disk behind.
        let (mut d, ids) = cached(8, 50);
        let mut model: HashMap<BlockId, u64> = HashMap::new();
        for i in 0..1000u64 {
            let id = ids[(i % 50) as usize];
            if i % 3 == 0 {
                d.write(id, &blk(4, i)).unwrap();
                model.insert(id, i);
            } else if let Some(&k) = model.get(&id) {
                assert!(d.read(id).unwrap().contains(k));
            }
        }
        d.flush().unwrap();
        for (&id, &k) in &model {
            assert!(behind(&mut d).read(id).unwrap().contains(k));
        }
    }

    #[test]
    fn pooled_hits_are_free() {
        let (mut d, ids) = cached(2, 1);
        let _ = d.read(ids[0]).unwrap(); // miss: 1 read
        let _ = d.read(ids[0]).unwrap(); // hit: free
        let _ = d.read(ids[0]).unwrap(); // hit: free
        assert_eq!(transfers(&d).total_ios(), 1);
        assert_eq!(d.backend().pool_stats().hits, 2);
    }

    #[test]
    fn pooled_writes_are_deferred_until_eviction_or_sync() {
        let (mut d, ids) = cached(2, 3);
        let mut blk = Block::new(4);
        blk.push(crate::item::Item::key_only(7)).unwrap();
        d.write(ids[0], &blk).unwrap(); // cached dirty, 0 I/O
        assert_eq!(transfers(&d).total_ios(), 0);
        d.write(ids[1], &blk).unwrap(); // cached dirty, 0 I/O
        d.write(ids[2], &blk).unwrap(); // evicts ids[0] dirty: 1 write
        assert_eq!(transfers(&d).stats().writes(), 1);
        d.flush().unwrap(); // two dirty frames remain
        assert_eq!(transfers(&d).stats().writes(), 3);
        // After the sync the data is on the backend.
        let backend = d.backend_mut().disk_mut().backend_mut();
        assert_eq!(backend.read(ids[0]).unwrap().find(7), Some(0));
    }

    #[test]
    fn pooled_rmw_hit_is_free_and_visible() {
        let (mut d, ids) = cached(1, 1);
        let _ = d.read(ids[0]).unwrap(); // load into pool: 1 read
        d.read_modify_write(ids[0], |b| b.push(crate::item::Item::key_only(5)).unwrap()).unwrap();
        assert_eq!(transfers(&d).total_ios(), 1);
        assert_eq!(d.read(ids[0]).unwrap().find(5), Some(0)); // hit, sees the edit
        assert_eq!(transfers(&d).total_ios(), 1);
    }

    #[test]
    fn free_discards_pooled_copy_without_writeback() {
        let (mut d, ids) = cached(1, 1);
        d.read_modify_write(ids[0], |b| b.push(crate::item::Item::key_only(5)).unwrap()).unwrap();
        d.free(ids[0]).unwrap();
        d.flush().unwrap();
        // read + no writes: the dirty frame died with the block.
        assert_eq!(transfers(&d).stats().reads(), 1);
        assert_eq!(transfers(&d).stats().writes(), 0);
    }

    #[test]
    fn sync_writes_back_dirty_frames() {
        let (mut d, ids) = cached(1, 1);
        let mut blk = Block::new(4);
        blk.push(crate::item::Item::key_only(3)).unwrap();
        d.write(ids[0], &blk).unwrap();
        d.flush().unwrap();
        assert_eq!(transfers(&d).stats().writes(), 1);
        // The frame stays resident and clean: a second sync writes nothing,
        // and a read is a hit.
        d.flush().unwrap();
        let _ = d.read(ids[0]).unwrap();
        assert_eq!(transfers(&d).stats().writes(), 1);
        assert_eq!(transfers(&d).stats().reads(), 0);
    }

    #[test]
    fn update_through_pool_is_free_on_hit() {
        let (mut d, ids) = cached(1, 1);
        let _ = d.read(ids[0]).unwrap(); // 1 read, now cached
        d.update(ids[0], |b| {
            b.push(crate::item::Item::key_only(2)).unwrap();
            (true, ())
        })
        .unwrap();
        assert_eq!(transfers(&d).total_ios(), 1, "pooled update hit is free");
        d.flush().unwrap();
        assert_eq!(transfers(&d).stats().writes(), 1, "dirty frame written at sync");
    }

    #[test]
    fn pooled_update_misses_are_counted() {
        let (mut d, ids) = cached(1, 2);
        d.update(ids[0], |_| (false, ())).unwrap(); // miss
        d.update(ids[0], |_| (false, ())).unwrap(); // hit
        d.update(ids[1], |_| (false, ())).unwrap(); // miss (evicts ids[0])
        let p = d.backend().pool_stats();
        assert_eq!(p.misses, 2);
        assert_eq!(p.hits, 1);
    }

    #[test]
    fn an_unmodified_update_hit_costs_no_writeback() {
        let (mut d, ids) = cached(1, 1);
        let _ = d.read(ids[0]).unwrap(); // miss: 1 read, cached clean
        d.update(ids[0], |_| (false, ())).unwrap(); // hit, unmodified
        d.flush().unwrap();
        assert_eq!(transfers(&d).stats().reads(), 1);
        assert_eq!(transfers(&d).stats().writes(), 0, "a clean frame owes no writeback");
    }
}
