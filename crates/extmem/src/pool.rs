//! A block buffer pool: the generic face of "buffering".
//!
//! The paper asks whether internal memory used as a buffer can reduce the
//! amortized insertion cost of a hash table. This pool is the *generic*
//! form of such buffering — an LRU page cache — and the A1 ablation uses it to show that generic caching cannot beat
//! Theorem 1, while the paper's *structural* buffering (H0 of the
//! logarithmic method) can, at the price the theorem demands.

use std::collections::HashMap;

use crate::block::{Block, BlockId};

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
/// The pool itself performs no I/O: [`crate::Disk`] drives it and charges
/// the I/Os (misses → reads, dirty evictions/flushes → writes).
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

    /// Whether `id` is resident (does not count as an access).
    #[inline]
    pub fn contains(&self, id: BlockId) -> bool {
        self.map.contains_key(&id)
    }

    /// Records a miss discovered by the caller through another path
    /// (e.g. a `contains` probe followed by a backend read), keeping the
    /// hit/miss statistics honest.
    #[inline]
    pub fn record_miss(&mut self) {
        self.stats.misses += 1;
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

    /// Like [`BufferPool::get`] but allows in-place mutation; the frame is
    /// marked dirty.
    pub fn get_mut(&mut self, id: BlockId) -> Option<&mut Block> {
        match self.map.get(&id).copied() {
            Some(idx) => {
                self.stats.hits += 1;
                self.order.move_to_front(idx);
                self.frames[idx].dirty = true;
                Some(&mut self.frames[idx].block)
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
    /// Does not count a hit/miss: callers decide whether the insert came
    /// from a backend read (miss already counted via `get`).
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
    pub fn take_dirty(&mut self) -> Vec<(BlockId, Block)> {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        p.insert(BlockId(1), blk(4, 1), false);
        p.insert(BlockId(2), blk(4, 2), false);
        let _ = p.get(BlockId(1)); // 2 is now LRU
        p.insert(BlockId(3), blk(4, 3), false);
        assert!(p.contains(BlockId(1)));
        assert!(!p.contains(BlockId(2)));
        assert!(p.contains(BlockId(3)));
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
    fn get_mut_marks_dirty() {
        let mut p = BufferPool::new(1);
        p.insert(BlockId(1), blk(4, 1), false);
        p.get_mut(BlockId(1)).unwrap().push(crate::item::Item::key_only(9)).unwrap();
        let wb = p.insert(BlockId(2), blk(4, 2), false);
        assert!(wb.is_some(), "mutated frame must be written back");
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
        assert!(!p.contains(BlockId(1)));
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
}
