//! Generic buffering: an LRU page cache as a storage backend.
//!
//! The paper asks whether internal memory used as a buffer can reduce the
//! amortized insertion cost of a hash table. [`Cached`] is the *generic*
//! form of such buffering — a write-back LRU [`BufferPool`] in front of
//! an accounting [`Disk`] — and the A1 ablation uses it to show that
//! generic caching cannot beat Theorem 1, while the paper's *structural*
//! buffering (H0 of the logarithmic method) can, at the price the theorem
//! demands.

use std::collections::HashMap;

use crate::backend::StorageBackend;
use crate::block::{Block, BlockId};
use crate::disk::Disk;
use crate::error::Result;

/// Hit/miss/eviction counters of a [`BufferPool`].
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

const NIL: usize = usize::MAX;

/// An intrusive doubly-linked list over slab indices (no per-node
/// allocation; O(1) link/unlink). Front = most recent.
struct LinkedOrder {
    prev: Vec<usize>,
    next: Vec<usize>,
    head: usize,
    tail: usize,
}

impl LinkedOrder {
    fn new(capacity: usize) -> Self {
        LinkedOrder { prev: vec![NIL; capacity], next: vec![NIL; capacity], head: NIL, tail: NIL }
    }

    fn push_front(&mut self, i: usize) {
        self.prev[i] = NIL;
        self.next[i] = self.head;
        if self.head != NIL {
            self.prev[self.head] = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn unlink(&mut self, i: usize) {
        let (p, n) = (self.prev[i], self.next[i]);
        if p != NIL {
            self.next[p] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n] = p;
        } else {
            self.tail = p;
        }
        self.prev[i] = NIL;
        self.next[i] = NIL;
    }

    fn move_to_front(&mut self, i: usize) {
        if self.head == i {
            return;
        }
        self.unlink(i);
        self.push_front(i);
    }

    fn back(&self) -> Option<usize> {
        if self.tail == NIL {
            None
        } else {
            Some(self.tail)
        }
    }
}

struct Frame {
    id: BlockId,
    block: Block,
    dirty: bool,
}

/// A fixed-capacity write-back cache of disk blocks that evicts the least
/// recently used frame.
///
/// The pool itself performs no I/O: [`Cached`] drives it and charges the
/// I/Os (misses → reads, dirty evictions and syncs → writes).
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Frame>,
    free: Vec<usize>,
    map: HashMap<BlockId, usize>,
    order: LinkedOrder,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool holding up to `capacity` frames (must be ≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            frames: Vec::with_capacity(capacity),
            free: Vec::new(),
            map: HashMap::with_capacity(capacity),
            order: LinkedOrder::new(capacity),
            stats: PoolStats::default(),
        }
    }

    /// Frame capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames currently resident.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no frames are resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    #[inline]
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Looks up `id`, counting a hit or miss; on hit returns the cached
    /// block and updates recency state.
    pub fn get(&mut self, id: BlockId) -> Option<&Block> {
        match self.map.get(&id).copied() {
            Some(idx) => {
                self.stats.hits += 1;
                self.order.move_to_front(idx);
                Some(&self.frames[idx].block)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or overwrites) `id`. Returns an evicted dirty block that
    /// the caller must write back, if any.
    ///
    /// Does not count a hit/miss: a miss was already counted by the
    /// [`BufferPool::get`] that preceded the backend read.
    pub fn insert(&mut self, id: BlockId, block: Block, dirty: bool) -> Option<(BlockId, Block)> {
        if let Some(&idx) = self.map.get(&id) {
            let f = &mut self.frames[idx];
            f.block = block;
            f.dirty = f.dirty || dirty;
            self.order.move_to_front(idx);
            return None;
        }
        let mut writeback = None;
        if self.map.len() >= self.capacity {
            writeback = self.evict_one();
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.frames[i] = Frame { id, block, dirty };
                i
            }
            None => {
                self.frames.push(Frame { id, block, dirty });
                self.frames.len() - 1
            }
        };
        self.map.insert(id, idx);
        self.order.push_front(idx);
        writeback
    }

    fn evict_one(&mut self) -> Option<(BlockId, Block)> {
        let victim = self.order.back().expect("pool full implies nonempty order");
        self.order.unlink(victim);
        self.stats.evictions += 1;
        let frame = &mut self.frames[victim];
        let id = frame.id;
        self.map.remove(&id);
        self.free.push(victim);
        let dirty = frame.dirty;
        let block = core::mem::replace(&mut frame.block, Block::new(0));
        if dirty {
            self.stats.writebacks += 1;
            Some((id, block))
        } else {
            None
        }
    }

    /// Removes `id` without writeback (e.g. the block was freed).
    pub fn discard(&mut self, id: BlockId) {
        if let Some(idx) = self.map.remove(&id) {
            self.order.unlink(idx);
            self.frames[idx].block = Block::new(0);
            self.frames[idx].dirty = false;
            self.free.push(idx);
        }
    }

    /// Takes every dirty frame's contents for writeback, marking them clean
    /// (they stay resident).
    fn take_dirty(&mut self) -> Vec<(BlockId, Block)> {
        let mut out = Vec::new();
        for f in &mut self.frames {
            if f.dirty && self.map.contains_key(&f.id) {
                f.dirty = false;
                out.push((f.id, f.block.clone()));
            }
        }
        out.sort_by_key(|(id, _)| *id);
        out
    }
}

/// A [`StorageBackend`] that serves an accounting [`Disk`] through a
/// write-back LRU [`BufferPool`] of `frames` blocks: generic buffering,
/// the A1 ablation's configuration.
///
/// A table runs on `Disk<Cached<B>>`. The outer disk counts the table's
/// block accesses; the inner disk ([`Cached::disk`]) counts the
/// transfers: a hit costs nothing, a miss one read, a dirty eviction or
/// a [`StorageBackend::sync`] one write per dirty frame, and `free`
/// drops the pooled copy without writing it.
///
/// The *caller* charges `frames × b` items to its
/// [`crate::MemoryBudget`] — the pool is internal memory.
pub struct Cached<B> {
    disk: Disk<B>,
    pool: BufferPool,
}

impl<B: StorageBackend> Cached<B> {
    /// `disk` behind a pool of `frames` blocks (must be ≥ 1).
    pub fn new(disk: Disk<B>, frames: usize) -> Self {
        Cached { disk, pool: BufferPool::new(frames) }
    }

    /// The disk behind the cache: its counters are the transfers.
    pub fn disk(&self) -> &Disk<B> {
        &self.disk
    }

    /// The disk behind the cache, for tests and verification (bypasses
    /// the pool — never use on a measurement path).
    pub fn disk_mut(&mut self) -> &mut Disk<B> {
        &mut self.disk
    }

    /// The pool's hit/miss/eviction counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Caches `block` as `id`, writing back the dirty frame it evicts.
    fn insert(&mut self, id: BlockId, block: Block, dirty: bool) -> Result<()> {
        match self.pool.insert(id, block, dirty) {
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
        if let Some(blk) = self.pool.get(id) {
            return Ok(blk.clone());
        }
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
        self.pool.discard(id);
        self.disk.free(id)
    }

    fn live_blocks(&self) -> u64 {
        self.disk.live_blocks()
    }

    fn sync(&mut self) -> Result<()> {
        for (id, blk) in self.pool.take_dirty() {
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

    #[test]
    fn hit_and_miss_counting() {
        let mut p = BufferPool::new(2);
        assert!(p.get(BlockId(1)).is_none());
        p.insert(BlockId(1), blk(4, 1), false);
        assert!(p.get(BlockId(1)).is_some());
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = BufferPool::new(2);
        p.insert(BlockId(1), blk(4, 1), true);
        p.insert(BlockId(2), blk(4, 2), true);
        let _ = p.get(BlockId(1)); // 2 is now LRU
        let wb = p.insert(BlockId(3), blk(4, 3), false);
        assert_eq!(wb.map(|(id, _)| id), Some(BlockId(2)), "the LRU frame is the victim");
        assert!(p.get(BlockId(1)).is_some());
        assert!(p.get(BlockId(3)).is_some());
    }

    #[test]
    fn dirty_eviction_returns_writeback() {
        let mut p = BufferPool::new(1);
        p.insert(BlockId(1), blk(4, 1), true);
        let wb = p.insert(BlockId(2), blk(4, 2), false);
        let (id, b) = wb.expect("dirty block must be written back");
        assert_eq!(id, BlockId(1));
        assert!(b.contains(1));
        assert_eq!(p.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_needs_no_writeback() {
        let mut p = BufferPool::new(1);
        p.insert(BlockId(1), blk(4, 1), false);
        assert!(p.insert(BlockId(2), blk(4, 2), false).is_none());
        assert_eq!(p.stats().evictions, 1);
        assert_eq!(p.stats().writebacks, 0);
    }

    #[test]
    fn a_dirty_overwrite_marks_a_clean_frame_dirty() {
        let mut p = BufferPool::new(1);
        p.insert(BlockId(1), blk(4, 1), false);
        let mut edited = p.get(BlockId(1)).unwrap().clone();
        edited.push(crate::item::Item::key_only(9)).unwrap();
        p.insert(BlockId(1), edited, true);
        let wb = p.insert(BlockId(2), blk(4, 2), false);
        assert!(wb.is_some_and(|(_, b)| b.contains(9)), "mutated frame must be written back");
    }

    #[test]
    fn take_dirty_flushes_and_cleans() {
        let mut p = BufferPool::new(3);
        p.insert(BlockId(1), blk(4, 1), true);
        p.insert(BlockId(2), blk(4, 2), false);
        p.insert(BlockId(3), blk(4, 3), true);
        let d = p.take_dirty();
        assert_eq!(d.iter().map(|(id, _)| id.raw()).collect::<Vec<_>>(), vec![1, 3]);
        assert!(p.take_dirty().is_empty(), "second flush finds nothing dirty");
        assert_eq!(p.len(), 3, "flush keeps frames resident");
    }

    #[test]
    fn discard_drops_without_writeback() {
        let mut p = BufferPool::new(2);
        p.insert(BlockId(1), blk(4, 1), true);
        p.discard(BlockId(1));
        assert!(p.is_empty());
        assert!(p.take_dirty().is_empty());
        // Slot is reusable.
        p.insert(BlockId(2), blk(4, 2), false);
        p.insert(BlockId(3), blk(4, 3), false);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn overwrite_insert_keeps_dirty_sticky() {
        let mut p = BufferPool::new(2);
        p.insert(BlockId(1), blk(4, 1), true);
        p.insert(BlockId(1), blk(4, 10), false); // overwrite with clean data
        let d = p.take_dirty();
        assert_eq!(d.len(), 1, "dirtiness is sticky until flushed");
        assert!(d[0].1.contains(10));
    }

    #[test]
    fn hit_ratio() {
        let mut p = BufferPool::new(2);
        p.insert(BlockId(1), blk(4, 1), false);
        let _ = p.get(BlockId(1));
        let _ = p.get(BlockId(2));
        assert!((p.stats().hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(PoolStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn heavy_churn_is_consistent() {
        // Many inserts/gets; pool size must never exceed capacity.
        let mut p = BufferPool::new(8);
        for i in 0..1000u64 {
            let id = BlockId(i % 50);
            if p.get(id).is_none() {
                p.insert(id, blk(4, i), i % 3 == 0);
            }
            assert!(p.len() <= 8);
        }
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
