//! In-memory storage backend: the exact, deterministic simulator disk.

use crate::backend::{SlotAllocator, StorageBackend};
use crate::block::{Block, BlockId};
use crate::error::{ExtMemError, Result};

/// An in-RAM "disk": a growable array of blocks whose ids come from the
/// one slot allocator [`crate::BlockFile`] runs, so block ids stay
/// identical across backends for identical workloads.
///
/// This is the backend used by all experiments — it makes I/O *counting*
/// exact while keeping simulated runs fast and deterministic. Use
/// [`crate::FileDisk`] to exercise the identical code paths against a
/// real file.
pub struct MemDisk {
    block_capacity: usize,
    /// Block data by id; `None` for a freed id.
    slots: Vec<Option<Block>>,
    alloc: SlotAllocator,
}

impl MemDisk {
    /// A new empty disk with block capacity `b` items.
    pub fn new(block_capacity: usize) -> Self {
        assert!(block_capacity > 0, "block capacity must be positive");
        MemDisk { block_capacity, slots: Vec::new(), alloc: SlotAllocator::default() }
    }

    fn slot(&self, id: BlockId) -> Result<&Block> {
        self.slots
            .get(id.raw() as usize)
            .and_then(|s| s.as_ref())
            .ok_or(ExtMemError::BadBlockId(id))
    }

    /// Puts an empty block in each of the `n` slots from `base`, which
    /// the allocator just handed out.
    fn fill(&mut self, base: u64, n: usize) -> BlockId {
        let (base, end) = (base as usize, base as usize + n);
        if self.slots.len() < end {
            self.slots.resize_with(end, || None);
        }
        for slot in &mut self.slots[base..end] {
            *slot = Some(Block::new(self.block_capacity));
        }
        BlockId(base as u64)
    }
}

impl StorageBackend for MemDisk {
    fn block_capacity(&self) -> usize {
        self.block_capacity
    }

    fn read(&mut self, id: BlockId) -> Result<Block> {
        Ok(self.slot(id)?.clone())
    }

    fn write(&mut self, id: BlockId, block: &Block) -> Result<()> {
        let slot = self
            .slots
            .get_mut(id.raw() as usize)
            .and_then(|s| s.as_mut())
            .ok_or(ExtMemError::BadBlockId(id))?;
        debug_assert_eq!(block.capacity(), self.block_capacity);
        *slot = block.clone();
        Ok(())
    }

    fn allocate(&mut self) -> Result<BlockId> {
        let idx = match self.alloc.peek_recycle() {
            Some(idx) => {
                self.alloc.commit_recycle(idx);
                idx
            }
            None => self.alloc.commit_grow(1),
        };
        Ok(self.fill(idx, 1))
    }

    fn allocate_contiguous(&mut self, n: usize) -> Result<BlockId> {
        let base = match self.alloc.peek_run(n) {
            Some(base) => {
                self.alloc.commit_run(base, n);
                base
            }
            None => self.alloc.commit_grow(n as u64),
        };
        Ok(self.fill(base, n))
    }

    fn free(&mut self, id: BlockId) -> Result<()> {
        self.slots
            .get_mut(id.raw() as usize)
            .and_then(Option::take)
            .ok_or(ExtMemError::BadBlockId(id))?;
        self.alloc.release(id.raw());
        Ok(())
    }

    fn live_blocks(&self) -> u64 {
        self.alloc.live()
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;

    #[test]
    fn allocate_read_write_round_trip() {
        let mut d = MemDisk::new(4);
        let id = d.allocate().unwrap();
        let mut blk = d.read(id).unwrap();
        assert!(blk.is_empty());
        blk.push(Item::new(1, 2)).unwrap();
        d.write(id, &blk).unwrap();
        assert_eq!(d.read(id).unwrap().find(1), Some(2));
    }

    #[test]
    fn read_of_unallocated_or_freed_id_fails() {
        let mut d = MemDisk::new(4);
        assert!(d.read(BlockId(0)).is_err());
        let id = d.allocate().unwrap();
        d.free(id).unwrap();
        assert!(d.read(id).is_err());
        assert!(d.free(id).is_err(), "double free is rejected");
    }

    #[test]
    fn freed_ids_are_recycled() {
        let mut d = MemDisk::new(4);
        let a = d.allocate().unwrap();
        let _b = d.allocate().unwrap();
        d.free(a).unwrap();
        let c = d.allocate().unwrap();
        assert_eq!(c, a, "free list recycles ids");
        assert_eq!(d.live_blocks(), 2);
    }

    #[test]
    fn recycled_block_is_empty() {
        let mut d = MemDisk::new(4);
        let a = d.allocate().unwrap();
        let mut blk = d.read(a).unwrap();
        blk.push(Item::key_only(9)).unwrap();
        d.write(a, &blk).unwrap();
        d.free(a).unwrap();
        let a2 = d.allocate().unwrap();
        assert_eq!(a2, a);
        assert!(d.read(a2).unwrap().is_empty());
    }

    #[test]
    fn live_blocks_counts() {
        let mut d = MemDisk::new(2);
        assert_eq!(d.live_blocks(), 0);
        let ids: Vec<_> = (0..5).map(|_| d.allocate().unwrap()).collect();
        assert_eq!(d.live_blocks(), 5);
        d.free(ids[2]).unwrap();
        assert_eq!(d.live_blocks(), 4);
    }
}
