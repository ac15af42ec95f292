//! The one block store: [`BlockFile`] encodes blocks into fixed-size
//! slots of a [`BlobFile`] — a byte vector ([`MemDisk`], the
//! experiments' disk), a real file ([`FileDisk`]), a file of the crash
//! simulator ([`SimDisk`]), or any file a `dxh-core` store media hands
//! out for a level.

use std::path::Path;

use crate::backend::{SlotAllocator, StorageBackend};
use crate::blob::{BlobFile, FileBlob, MemBlob};
use crate::block::{Block, BlockId};
use crate::error::{ExtMemError, Result};
use crate::sim_disk::{SimBlob, SimEnv};

/// A disk of fixed-size block slots in one byte file.
///
/// Layout: block `i` occupies bytes `[i · S, (i+1) · S)` where
/// `S = Block::encoded_len(b)`. An all-zero slot decodes as an empty
/// block (see [`Block::decode_from`]), so allocation past the high-water
/// mark is a pure `set_len` — the file zero-fills the extension and no
/// initialization bytes are written. A recycled slot is reset by zeroing
/// its 24-byte header alone: decode reads `len` items, so stale item
/// bytes behind a zero header are inert, and whoever fills the block
/// next overwrites them anyway.
///
/// Every block I/O is one positional read or write of one slot. Every
/// allocation takes the lowest run of free slots that fits — a single
/// block is a run of one — and grows the file when none does, so block
/// ids depend on the workload alone, not on the file.
///
/// The allocator state (its free set) lives in memory and dies with the
/// handle: [`BlockFile::from_file`] finds every slot of the file live. A
/// store that must outlive its process keeps no free list at all —
/// `dxh_core` gives every level a file of its own and unlinks the file
/// instead. Data durability is the caller's via
/// [`StorageBackend::sync`]; the paper's bounds do not depend on
/// durability.
pub struct BlockFile<F> {
    file: F,
    block_capacity: usize,
    block_bytes: usize,
    /// Which slots are live: a high-water mark and one free set.
    alloc: SlotAllocator,
    /// Scratch buffer reused across reads/writes to avoid per-op allocation.
    scratch: Vec<u8>,
}

/// A [`BlockFile`] in memory: the exact, deterministic disk every
/// experiment runs on. Use [`FileDisk`] for the same blocks in a real
/// file.
pub type MemDisk = BlockFile<MemBlob>;

/// A [`BlockFile`] over a real file.
pub type FileDisk = BlockFile<FileBlob>;

/// A [`BlockFile`] over a file of the crash simulator: unsynced writes
/// are volatile, and the environment's [`crate::FaultPlan`] can crash or
/// fault any I/O by index.
pub type SimDisk = BlockFile<SimBlob>;

impl<F: BlobFile> BlockFile<F> {
    /// The block disk `file` holds: every slot of it live (the
    /// high-water mark is the file length over the slot size), none for
    /// an empty file. A length that is not a whole number of slots is
    /// [`ExtMemError::Corrupt`].
    pub fn from_file(file: F, block_capacity: usize) -> Result<Self> {
        assert!(block_capacity > 0, "block capacity must be positive");
        let block_bytes = Block::encoded_len(block_capacity);
        let len = file.len();
        if !len.is_multiple_of(block_bytes as u64) {
            return Err(ExtMemError::Corrupt(format!(
                "file length {len} is not a multiple of the {block_bytes}-byte slot size"
            )));
        }
        Ok(BlockFile {
            file,
            block_capacity,
            block_bytes,
            alloc: SlotAllocator::with_all_live(len / block_bytes as u64),
            scratch: vec![0u8; block_bytes],
        })
    }

    /// High-water mark: total slots ever allocated (free ones included).
    pub fn slots(&self) -> u64 {
        self.alloc.slots()
    }

    fn offset(&self, slot: u64) -> u64 {
        slot * self.block_bytes as u64
    }

    /// Resets recycled `slot`'s stale image to an empty block. Callers
    /// reset *before* changing the allocator state, so a failed write
    /// leaves the slot safely free instead of in limbo (neither free nor
    /// live).
    fn reset_slot(&mut self, slot: u64) -> Result<()> {
        self.file.write_at(self.offset(slot), &[0u8; Block::HEADER_BYTES])
    }

    /// Extends the file by `n` zero slots — `n` empty blocks, one
    /// `set_len`, no byte written — and returns the first.
    fn grow(&mut self, n: u64) -> Result<u64> {
        self.file.set_len(self.offset(self.alloc.slots() + n))?;
        Ok(self.alloc.commit_grow(n))
    }

    fn check_live(&self, id: BlockId) -> Result<()> {
        if self.alloc.is_dead(id.raw()) {
            return Err(ExtMemError::BadBlockId(id));
        }
        Ok(())
    }
}

impl MemDisk {
    /// An empty in-memory disk with block capacity `b` items.
    pub fn new(block_capacity: usize) -> Self {
        Self::from_file(MemBlob::default(), block_capacity).expect("an empty file holds no slot")
    }
}

impl FileDisk {
    /// Creates (truncating) a file-backed disk at `path` with block
    /// capacity `b` items.
    pub fn create(path: &Path, block_capacity: usize) -> Result<Self> {
        Self::from_file(FileBlob::create(path)?, block_capacity)
    }

    /// Opens an existing disk file **without truncating**; every slot in
    /// the file is live.
    pub fn open(path: &Path, block_capacity: usize) -> Result<Self> {
        Self::from_file(FileBlob::open(path)?, block_capacity)
    }

    /// Creates a disk in a fresh temporary file under `std::env::temp_dir()`.
    ///
    /// The file is removed from the namespace immediately (unix semantics:
    /// it lives until the handle drops), so tests cannot leak files.
    pub fn temp(block_capacity: usize) -> Result<Self> {
        let dir = std::env::temp_dir();
        // Unique-enough name: pid + monotonic counter.
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("dxh-filedisk-{}-{}.blk", std::process::id(), n));
        let disk = Self::create(&path, block_capacity)?;
        #[allow(
            clippy::let_underscore_must_use,
            reason = "best-effort unlink; where it fails the file stays behind in the temp dir"
        )]
        let _ = std::fs::remove_file(&path);
        Ok(disk)
    }
}

impl SimDisk {
    /// A standalone disk on a fresh private [`SimEnv`] — the drop-in
    /// replacement for an in-memory test backend when the test wants a
    /// fault schedule (configure it via [`SimDisk::env`]).
    pub fn new(block_capacity: usize) -> Self {
        let file = SimEnv::new().create_file("sim.blk").expect("fresh env cannot fault");
        Self::from_file(file, block_capacity).expect("an empty file holds no slot")
    }

    /// The environment this disk lives in (fault plan, clock, trace).
    pub fn env(&self) -> SimEnv {
        self.file.env()
    }
}

impl<F: BlobFile> StorageBackend for BlockFile<F> {
    fn block_capacity(&self) -> usize {
        self.block_capacity
    }

    fn read(&mut self, id: BlockId) -> Result<Block> {
        self.check_live(id)?;
        self.file.read_at(self.offset(id.raw()), &mut self.scratch)?;
        Block::decode_from(self.block_capacity, &self.scratch)
    }

    fn write(&mut self, id: BlockId, block: &Block) -> Result<()> {
        self.check_live(id)?;
        debug_assert_eq!(block.capacity(), self.block_capacity);
        block.encode_into(&mut self.scratch);
        self.file.write_at(self.offset(id.raw()), &self.scratch)
    }

    fn allocate(&mut self) -> Result<BlockId> {
        self.allocate_contiguous(1)
    }

    fn allocate_contiguous(&mut self, n: usize) -> Result<BlockId> {
        // Recycle the lowest run of free slots that fits, when one
        // exists. Only each slot's header is reset: the merge that asked
        // for the run is about to write these blocks, so zero-filling
        // their bodies would write every byte of the run twice.
        if let Some(base) = self.alloc.peek_run(n) {
            for slot in base..base + n as u64 {
                self.reset_slot(slot)?;
            }
            self.alloc.commit_run(base, n);
            return Ok(BlockId(base));
        }
        Ok(BlockId(self.grow(n as u64)?))
    }

    fn free(&mut self, id: BlockId) -> Result<()> {
        self.check_live(id)?;
        self.alloc.release(id.raw());
        Ok(())
    }

    fn live_blocks(&self) -> u64 {
        self.alloc.live()
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync()
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

    /// A file holds whole slots: each of them is live once opened, and a
    /// length that ends inside a slot is corruption, not a short block.
    #[test]
    fn from_file_finds_whole_slots_live_and_rejects_a_partial_one() {
        let slot = Block::encoded_len(2);
        let mut image = vec![0u8; 2 * slot];
        let mut blk = Block::new(2);
        blk.push(Item::new(5, 50)).unwrap();
        blk.encode_into(&mut image[slot..]);
        let mut d = MemDisk::from_file(MemBlob { bytes: image.clone() }, 2).unwrap();
        assert_eq!((d.slots(), d.live_blocks()), (2, 2));
        assert_eq!(d.read(BlockId(1)).unwrap(), blk);
        image.push(0);
        let partial = MemDisk::from_file(MemBlob { bytes: image }, 2);
        assert!(matches!(partial, Err(ExtMemError::Corrupt(_))));
    }

    /// A freed slot refuses a write as it refuses a read, so a stale id
    /// cannot reach the block that later recycles its slot.
    #[test]
    fn a_freed_slot_refuses_writes() {
        let mut d = MemDisk::new(2);
        let a = d.allocate().unwrap();
        let _b = d.allocate().unwrap();
        d.free(a).unwrap();
        let mut blk = Block::new(2);
        blk.push(Item::new(1, 1)).unwrap();
        assert!(matches!(d.write(a, &blk), Err(ExtMemError::BadBlockId(_))));
        assert_eq!(d.allocate().unwrap(), a);
        assert!(d.read(a).unwrap().is_empty());
    }

    /// A recycle whose header reset faults takes nothing: the run stays
    /// free, and the retry hands out the same slots.
    #[test]
    fn a_faulted_reset_leaves_the_run_free() {
        let mut d = SimDisk::new(2);
        let base = d.allocate_contiguous(3).unwrap();
        for i in 0..3 {
            d.free(BlockId(base.raw() + i)).unwrap();
        }
        let env = d.env();
        // The second of the run's three header resets fails.
        env.set_plan(crate::FaultPlan { fail_at: vec![env.ops() + 1], ..Default::default() });
        assert!(d.allocate_contiguous(3).is_err());
        assert_eq!((d.slots(), d.live_blocks()), (3, 0));
        assert!(d.read(base).is_err(), "the run is still free");
        assert_eq!(d.allocate_contiguous(3).unwrap(), base);
        assert_eq!(d.live_blocks(), 3);
    }

    /// A single allocation is a run of one: it takes the lowest free
    /// slot, not the last one freed, in every byte file.
    #[test]
    fn a_single_allocation_takes_the_lowest_free_slot() {
        fn drive(d: &mut impl StorageBackend) -> BlockId {
            assert_eq!(d.allocate_contiguous(3).unwrap(), BlockId(0));
            d.free(BlockId(0)).unwrap();
            d.free(BlockId(2)).unwrap();
            d.allocate().unwrap()
        }
        assert_eq!(drive(&mut MemDisk::new(2)), BlockId(0), "MemDisk");
        assert_eq!(drive(&mut FileDisk::temp(2).unwrap()), BlockId(0), "FileDisk");
        assert_eq!(drive(&mut SimDisk::new(2)), BlockId(0), "SimDisk");
    }

    #[test]
    fn round_trip_on_real_file() {
        let mut d = FileDisk::temp(4).unwrap();
        let id = d.allocate().unwrap();
        let mut blk = d.read(id).unwrap();
        assert!(blk.is_empty());
        blk.push(Item::new(7, 8)).unwrap();
        blk.set_tag(3);
        blk.set_next(Some(BlockId(0)));
        d.write(id, &blk).unwrap();
        let back = d.read(id).unwrap();
        assert_eq!(back, blk);
    }

    #[test]
    fn many_blocks_keep_distinct_contents() {
        let mut d = FileDisk::temp(3).unwrap();
        let ids: Vec<_> = (0..20).map(|_| d.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let mut blk = Block::new(3);
            blk.push(Item::new(i as u64, 1000 + i as u64)).unwrap();
            d.write(id, &blk).unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(d.read(id).unwrap().find(i as u64), Some(1000 + i as u64));
        }
    }

    #[test]
    fn freed_id_rejected_then_recycled() {
        let mut d = FileDisk::temp(2).unwrap();
        let a = d.allocate().unwrap();
        d.free(a).unwrap();
        assert!(d.read(a).is_err());
        let b = d.allocate().unwrap();
        assert_eq!(a, b);
        assert!(d.read(b).unwrap().is_empty());
    }

    #[test]
    fn recycled_slot_resets_stale_contents() {
        let mut d = FileDisk::temp(2).unwrap();
        let a = d.allocate().unwrap();
        let mut blk = d.read(a).unwrap();
        blk.push(Item::new(9, 9)).unwrap();
        blk.set_next(Some(BlockId(0)));
        blk.set_tag(7);
        d.write(a, &blk).unwrap();
        d.free(a).unwrap();
        let b = d.allocate().unwrap();
        assert_eq!(a, b);
        let back = d.read(b).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.tag(), 0);
        assert_eq!(back.next(), None);
    }

    #[test]
    fn contiguous_range_reads_empty_without_writes() {
        let mut d = FileDisk::temp(3).unwrap();
        let base = d.allocate_contiguous(50).unwrap();
        for i in 0..50 {
            assert!(d.read(BlockId(base.raw() + i)).unwrap().is_empty());
        }
        assert_eq!(d.live_blocks(), 50);
    }

    #[test]
    fn out_of_range_id_rejected() {
        let mut d = FileDisk::temp(2).unwrap();
        assert!(d.read(BlockId(5)).is_err());
        assert!(d.write(BlockId(5), &Block::new(2)).is_err());
    }

    #[test]
    fn free_check_stays_fast_under_churn() {
        // Regression shape for the old O(|free|) scan: heavy free/alloc
        // churn with a large standing free list. With the interval set's
        // O(log runs) lookup this finishes instantly; with the linear
        // scan it was quadratic.
        let mut d = FileDisk::temp(2).unwrap();
        let ids: Vec<_> = (0..2000).map(|_| d.allocate().unwrap()).collect();
        for &id in &ids[1000..] {
            d.free(id).unwrap();
        }
        for _ in 0..2000 {
            let id = d.allocate().unwrap();
            let _ = d.read(id).unwrap();
            d.free(id).unwrap();
        }
        assert_eq!(d.live_blocks(), 1000);
    }

    #[test]
    fn out_of_order_frees_coalesce_into_a_recyclable_run() {
        let mut d = FileDisk::temp(2).unwrap();
        let _anchor = d.allocate().unwrap(); // keep slot 0 live
        let ids: Vec<_> = (0..6).map(|_| d.allocate().unwrap()).collect();
        for &i in &[3usize, 1, 5, 2, 4] {
            d.free(ids[i]).unwrap();
        }
        let base = d.allocate_contiguous(5).unwrap();
        assert_eq!(base, ids[1], "the coalesced run is recycled, not the file grown");
        assert_eq!(d.slots(), 7, "no growth");
        for k in 0..5 {
            assert!(d.read(BlockId(base.raw() + k)).unwrap().is_empty());
        }
    }

    /// Fills `n` fresh contiguous slots with full, tagged blocks chained
    /// into a ring; every key is ≥ 1000.
    fn dirty_run(d: &mut FileDisk, n: u64) -> BlockId {
        let base = d.allocate_contiguous(n as usize).unwrap();
        for i in 0..n {
            let mut blk = Block::new(d.block_capacity());
            for j in 0..d.block_capacity() as u64 {
                blk.push(Item::new(1000 * (i + 1) + j, 7)).unwrap();
            }
            blk.set_tag(i + 1);
            blk.set_next(Some(BlockId(base.raw() + (i + 1) % n)));
            d.write(BlockId(base.raw() + i), &blk).unwrap();
        }
        base
    }

    /// Every slot of the run decodes as a pristine empty block, except
    /// `written`, which holds exactly `item`.
    fn assert_run_is_empty_but(d: &mut FileDisk, base: BlockId, n: u64, written: u64, item: Item) {
        for i in 0..n {
            let blk = d.read(BlockId(base.raw() + i)).unwrap();
            assert_eq!(blk.tag(), 0, "slot {i}");
            assert_eq!(blk.next(), None, "slot {i}");
            if i == written {
                assert_eq!(blk.items(), &[item], "slot {i}: no stale item behind the new one");
            } else {
                assert!(blk.is_empty(), "slot {i}");
            }
        }
    }

    #[test]
    fn recycled_run_reads_back_empty() {
        let mut d = FileDisk::temp(4).unwrap();
        let _anchor = d.allocate().unwrap(); // the run does not start the file
        let base = dirty_run(&mut d, 6);
        for i in 0..6 {
            d.free(BlockId(base.raw() + i)).unwrap();
        }
        assert_eq!(d.allocate_contiguous(6).unwrap(), base, "the freed run is recycled");
        assert_eq!(d.slots(), 7, "no growth");
        // A partial overwrite, shorter than the stale image under it.
        let item = Item::new(5, 50);
        let mut blk = Block::new(4);
        blk.push(item).unwrap();
        d.write(BlockId(base.raw() + 2), &blk).unwrap();
        assert_run_is_empty_but(&mut d, base, 6, 2, item);
    }

    #[test]
    fn recycled_run_is_reset_on_the_file_across_reopen() {
        let path =
            std::env::temp_dir().join(format!("dxh-filedisk-run-{}.blk", std::process::id()));
        let item = Item::new(6, 60);
        let base = {
            let mut d = FileDisk::create(&path, 4).unwrap();
            let _anchor = d.allocate().unwrap();
            let base = dirty_run(&mut d, 5);
            for i in 0..5 {
                d.free(BlockId(base.raw() + i)).unwrap();
            }
            assert_eq!(d.allocate_contiguous(5).unwrap(), base);
            let mut blk = Block::new(4);
            blk.push(item).unwrap();
            d.write(BlockId(base.raw() + 4), &blk).unwrap();
            assert_run_is_empty_but(&mut d, base, 5, 4, item);
            d.sync().unwrap();
            base
        };
        // All six slots are live after an open: what decodes now is what
        // the reset and the one write left in the file.
        let mut d = FileDisk::open(&path, 4).unwrap();
        assert_run_is_empty_but(&mut d, base, 5, 4, item);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn contiguous_search_stays_fast_with_fragmented_frees() {
        // Regression shape for the old per-call clone+sort: a large free
        // list fragmented into runs of 2 (so no run of 3 ever exists),
        // probed by many region rebuilds that all fall through to file
        // growth. The incremental interval set makes each probe O(runs)
        // with no allocation; re-sorting the flat list made every one of
        // these failures pay O(F log F).
        let mut d = FileDisk::temp(2).unwrap();
        let ids: Vec<_> = (0..20_000).map(|_| d.allocate().unwrap()).collect();
        for quad in ids.chunks(4) {
            d.free(quad[0]).unwrap();
            d.free(quad[1]).unwrap();
        }
        for _ in 0..2_000 {
            let base = d.allocate_contiguous(3).unwrap();
            assert!(base.raw() >= 20_000, "no run of 3 exists among the frees");
        }
    }

    #[test]
    fn open_finds_every_slot_of_a_created_file_live() {
        let path =
            std::env::temp_dir().join(format!("dxh-filedisk-open-{}.blk", std::process::id()));
        let (id_a, id_b) = {
            let mut d = FileDisk::create(&path, 4).unwrap();
            let a = d.allocate().unwrap();
            let b = d.allocate().unwrap();
            let c = d.allocate().unwrap();
            let mut blk = Block::new(4);
            blk.push(Item::new(1, 11)).unwrap();
            d.write(a, &blk).unwrap();
            let mut blk = Block::new(4);
            blk.push(Item::new(2, 22)).unwrap();
            d.write(b, &blk).unwrap();
            d.free(c).unwrap();
            d.sync().unwrap();
            (a, b)
        };
        let mut d = FileDisk::open(&path, 4).unwrap();
        assert_eq!((d.slots(), d.live_blocks()), (3, 3), "the free list died with the handle");
        assert_eq!(d.read(id_a).unwrap().find(1), Some(11));
        assert_eq!(d.read(id_b).unwrap().find(2), Some(22));
        assert!(d.read(BlockId(2)).unwrap().is_empty());
        assert_eq!(d.allocate().unwrap(), BlockId(3), "allocation grows the file");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_succeeds() {
        let mut d = FileDisk::temp(2).unwrap();
        let _ = d.allocate().unwrap();
        d.sync().unwrap();
    }
}
