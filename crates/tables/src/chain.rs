//! Bucket chains, and the one walk every chain goes through.
//!
//! A *bucket* is a primary block plus a singly linked list of overflow
//! blocks (via the block `next` pointer). Every table the paper prices
//! — chaining, linear hashing, each level of the logarithmic method and
//! `Ĥ` — is a run of such buckets, most of them a [`Region`], and the
//! B+-tree's leaves link the same way. [`chain_walk`] is the only loop
//! that follows `next`: it owns the hop bound (the disk's live blocks)
//! and the one [`ExtMemError::Corrupt`] a pointer rotted into a cycle
//! gives, while each caller says what to do at a block and when to stop.
//!
//! Invariants the chain operations maintain:
//!
//! * no duplicate keys within a chain (upsert replaces in place);
//! * new items go to the **tail** (extending it when full), so a
//!   successful fresh insert into an unchained bucket costs exactly one
//!   combined I/O — the paper's `1 + 1/2^Ω(b)` insert;
//! * deletion unlinks and frees overflow blocks that become empty.

use std::ops::{ControlFlow, Range};

use dxh_extmem::{Block, BlockId, Disk, ExtMemError, Item, Key, Result, StorageBackend, Value};

use ControlFlow::{Break, Continue};

/// Follows the chain from `head`: hands each block id to `at`, which
/// does that block's I/O and answers `Continue(next)` to go on or
/// `Break(t)` to stop with `t`. `hops` is how many blocks the walk may
/// still meet — the disk's live blocks, shared by the walks of one pass:
/// a `next` rotted into a cycle is [`ExtMemError::Corrupt`] after that
/// many, never a spin.
pub fn chain_walk<T>(
    head: BlockId,
    hops: &mut u64,
    mut at: impl FnMut(BlockId) -> Result<ControlFlow<T, BlockId>>,
) -> Result<T> {
    let mut cur = head;
    loop {
        *hops = hops.checked_sub(1).ok_or_else(|| {
            ExtMemError::Corrupt(format!(
                "the chain of {head:?} is longer than its disk has live blocks"
            ))
        })?;
        match at(cur)? {
            Continue(next) => cur = next,
            Break(t) => return Ok(t),
        }
    }
}

/// Where a walk goes after `blk`: on to its `next`, or, at the tail,
/// stop with `end`.
pub(crate) fn onward<T>(blk: &Block, end: T) -> ControlFlow<T, BlockId> {
    blk.next().map_or(Break(end), Continue)
}

/// A disk-resident hash-table region: `buckets` consecutive primary
/// blocks starting at `base` (overflow chains hang off them), holding
/// `items` items.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// First primary block.
    pub base: BlockId,
    /// Number of buckets (= primary blocks).
    pub buckets: u64,
    /// Items stored.
    pub items: usize,
}

impl Region {
    /// The primary block of bucket `q`.
    #[inline]
    pub fn block_of(&self, q: u64) -> BlockId {
        debug_assert!(q < self.buckets);
        BlockId(self.base.raw() + q)
    }

    /// Shows `visit` every block of `buckets` — each bucket's primary,
    /// then its overflow chain — as `(bucket, id, block)`, fetching
    /// through `read` so that accounted (`Disk::read`), unaccounted
    /// (`backend_mut`) and pre-`Disk` (a bare backend) callers share
    /// [`chain_walk`]. `hops` is how many blocks the walk may meet — the
    /// disk's live blocks.
    pub fn walk(
        &self,
        buckets: Range<u64>,
        mut hops: u64,
        mut read: impl FnMut(BlockId) -> Result<Block>,
        mut visit: impl FnMut(u64, BlockId, &Block) -> Result<()>,
    ) -> Result<()> {
        for q in buckets {
            chain_walk(self.block_of(q), &mut hops, |id| {
                let blk = read(id)?;
                visit(q, id, &blk)?;
                Ok(onward(&blk, ()))
            })?;
        }
        Ok(())
    }

    /// [`Region::walk`] over the whole region behind `disk`'s I/O
    /// accounting: layout snapshots and diagnostics.
    pub fn inspect<B: StorageBackend>(
        &self,
        disk: &mut Disk<B>,
        mut visit: impl FnMut(u64, BlockId, &Block),
    ) -> Result<()> {
        let hops = disk.live_blocks();
        let read = |id| disk.backend_mut().read(id);
        self.walk(0..self.buckets, hops, read, |q, id, blk| {
            visit(q, id, blk);
            Ok(())
        })
    }
}

/// What an upsert did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpsertOutcome {
    /// The key was new; the chain gained one item.
    Inserted,
    /// The key existed; its value was replaced.
    Replaced,
}

/// Inserts or updates `item` in the chain rooted at `head`.
///
/// Cost: one combined I/O when the chain is a single block with room (the
/// common case at bounded load); `k` I/Os to reach the `k`-th chain block;
/// chain extension adds an allocation, one block write, and one link
/// update.
pub fn chain_upsert<B: StorageBackend>(
    disk: &mut Disk<B>,
    head: BlockId,
    item: Item,
) -> Result<UpsertOutcome> {
    let mut hops = disk.live_blocks();
    // `Err(tail)`: the key is new and the chain ends in the full `tail`.
    let placed = chain_walk(head, &mut hops, |id| {
        disk.update(id, |blk| {
            if blk.replace(item.key, item.value).is_some() {
                (true, Break(Ok(UpsertOutcome::Replaced)))
            } else if blk.next().is_some() || blk.is_full() {
                (false, onward(blk, Err(id)))
            } else {
                blk.push(item).expect("checked not full");
                (true, Break(Ok(UpsertOutcome::Inserted)))
            }
        })
    })?;
    let full = match placed {
        Ok(outcome) => return Ok(outcome),
        Err(full) => full,
    };
    let tail = disk.allocate()?;
    let mut blk = Block::new(disk.b());
    blk.push(item).expect("fresh block");
    disk.write(tail, &blk)?;
    disk.read_modify_write(full, |b| b.set_next(Some(tail)))?;
    Ok(UpsertOutcome::Inserted)
}

/// Looks `key` up in the chain rooted at `head`.
///
/// Cost: one read per visited block; a successful lookup of an item in
/// the primary block costs exactly one I/O.
pub fn chain_lookup<B: StorageBackend>(
    disk: &mut Disk<B>,
    head: BlockId,
    key: Key,
) -> Result<Option<Value>> {
    let mut hops = disk.live_blocks();
    chain_walk(head, &mut hops, |id| {
        let blk = disk.read(id)?;
        Ok(match blk.find(key) {
            Some(v) => Break(Some(v)),
            None => onward(&blk, None),
        })
    })
}

/// Deletes `key` from the chain rooted at `head`; returns whether it was
/// present. Overflow blocks left empty are unlinked and freed (the head
/// block always stays).
pub fn chain_delete<B: StorageBackend>(
    disk: &mut Disk<B>,
    head: BlockId,
    key: Key,
) -> Result<bool> {
    let (mut hops, mut prev) = (disk.live_blocks(), None);
    // `Some((id, emptied, next))`: the block the key left.
    let found = chain_walk(head, &mut hops, |id| {
        let step = disk.update(id, |blk| match blk.remove(key) {
            Some(_) => (true, Break(Some((id, blk.is_empty(), blk.next())))),
            None => (false, onward(blk, None)),
        })?;
        if step.is_continue() {
            prev = Some(id);
        }
        Ok(step)
    })?;
    let Some((id, emptied, next)) = found else { return Ok(false) };
    if let (true, Some(prev)) = (emptied, prev) {
        disk.read_modify_write(prev, |b| b.set_next(next))?;
        disk.free(id)?;
    }
    Ok(true)
}

/// Collects every item of the chain rooted at `head` into `out`,
/// frees all overflow blocks, and resets the head block **in memory
/// terms only if `free_head` is false** (the head is emptied and
/// rewritten); with `free_head = true` the head block is freed as well.
///
/// Used by bucket redistribution (table growth, linear-hash splits, level
/// merges): cost is one read per chain block plus one write for the kept
/// head.
pub fn chain_collect<B: StorageBackend>(
    disk: &mut Disk<B>,
    head: BlockId,
    free_head: bool,
    out: &mut Vec<Item>,
) -> Result<()> {
    let mut hops = disk.live_blocks();
    chain_walk(head, &mut hops, |id| {
        let blk = disk.read(id)?;
        out.extend_from_slice(blk.items());
        if id == head && !free_head {
            disk.write(head, &Block::new(disk.b()))?;
        } else {
            disk.free(id)?;
        }
        Ok(onward(&blk, ()))
    })
}

/// Writes `items` into the bucket whose primary block is `primary`
/// (assumed empty/fresh), chaining overflow blocks as needed.
///
/// Cost: one write per block used — `⌈items/b⌉` writes, plus link
/// updates folded into the writes (blocks are written once, fully
/// formed, in reverse chain order).
pub fn write_bucket<B: StorageBackend>(
    disk: &mut Disk<B>,
    primary: BlockId,
    items: &[Item],
) -> Result<()> {
    let b = disk.b();
    let mut next = None;
    for i in (0..items.len().div_ceil(b).max(1)).rev() {
        let id = if i == 0 { primary } else { disk.allocate()? };
        let mut blk = Block::new(b);
        for &it in &items[i * b..items.len().min((i + 1) * b)] {
            blk.push(it).expect("a chunk fits a block");
        }
        blk.set_next(next);
        disk.write(id, &blk)?;
        next = Some(id);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxh_extmem::{mem_disk, MemDisk};

    fn setup() -> (Disk<MemDisk>, BlockId) {
        let mut d = mem_disk(3);
        let head = d.allocate().unwrap();
        (d, head)
    }

    #[test]
    fn upsert_into_empty_costs_one_io() {
        let (mut d, head) = setup();
        let e = d.epoch();
        let out = chain_upsert(&mut d, head, Item::new(1, 10)).unwrap();
        assert_eq!(out, UpsertOutcome::Inserted);
        assert_eq!(d.since(&e).total(), 1);
    }

    #[test]
    fn upsert_replaces_in_place() {
        let (mut d, head) = setup();
        chain_upsert(&mut d, head, Item::new(1, 10)).unwrap();
        let out = chain_upsert(&mut d, head, Item::new(1, 20)).unwrap();
        assert_eq!(out, UpsertOutcome::Replaced);
        assert_eq!(chain_lookup(&mut d, head, 1).unwrap(), Some(20));
    }

    #[test]
    fn chain_extends_past_capacity() {
        let (mut d, head) = setup();
        for k in 0..10u64 {
            chain_upsert(&mut d, head, Item::new(k, k)).unwrap();
        }
        for k in 0..10u64 {
            assert_eq!(chain_lookup(&mut d, head, k).unwrap(), Some(k));
        }
        assert_eq!(chain_lookup(&mut d, head, 99).unwrap(), None);
        // 10 items at b = 3 → 4 blocks.
        assert_eq!(d.live_blocks(), 4);
    }

    #[test]
    fn replace_works_in_overflow_blocks() {
        let (mut d, head) = setup();
        for k in 0..7u64 {
            chain_upsert(&mut d, head, Item::new(k, k)).unwrap();
        }
        let out = chain_upsert(&mut d, head, Item::new(6, 66)).unwrap();
        assert_eq!(out, UpsertOutcome::Replaced);
        assert_eq!(chain_lookup(&mut d, head, 6).unwrap(), Some(66));
        // No duplicate: delete once, gone.
        assert!(chain_delete(&mut d, head, 6).unwrap());
        assert_eq!(chain_lookup(&mut d, head, 6).unwrap(), None);
    }

    #[test]
    fn delete_from_head_and_absent() {
        let (mut d, head) = setup();
        chain_upsert(&mut d, head, Item::new(5, 50)).unwrap();
        assert!(chain_delete(&mut d, head, 5).unwrap());
        assert!(!chain_delete(&mut d, head, 5).unwrap());
    }

    #[test]
    fn delete_frees_emptied_overflow_blocks() {
        let (mut d, head) = setup();
        for k in 0..4u64 {
            chain_upsert(&mut d, head, Item::new(k, k)).unwrap();
        }
        assert_eq!(d.live_blocks(), 2);
        assert!(chain_delete(&mut d, head, 3).unwrap());
        assert_eq!(d.live_blocks(), 1, "emptied tail freed");
        // Remaining keys intact.
        for k in 0..3u64 {
            assert_eq!(chain_lookup(&mut d, head, k).unwrap(), Some(k));
        }
    }

    #[test]
    fn delete_relinks_middle_block() {
        let (mut d, head) = setup();
        for k in 0..9u64 {
            chain_upsert(&mut d, head, Item::new(k, k)).unwrap();
        }
        // chain: head[0,1,2] -> [3,4,5] -> [6,7,8]
        for k in [3u64, 4, 5] {
            assert!(chain_delete(&mut d, head, k).unwrap());
        }
        // middle emptied and freed; 6..8 still reachable
        for k in [6u64, 7, 8] {
            assert_eq!(chain_lookup(&mut d, head, k).unwrap(), Some(k));
        }
        assert_eq!(d.live_blocks(), 2);
    }

    #[test]
    fn collect_gathers_everything_and_frees_overflow() {
        let (mut d, head) = setup();
        for k in 0..8u64 {
            chain_upsert(&mut d, head, Item::new(k, k * 2)).unwrap();
        }
        let mut items = Vec::new();
        chain_collect(&mut d, head, false, &mut items).unwrap();
        assert_eq!(items.len(), 8);
        assert_eq!(d.live_blocks(), 1, "only reset head remains");
        assert_eq!(chain_lookup(&mut d, head, 0).unwrap(), None);
    }

    #[test]
    fn collect_can_free_head_too() {
        let (mut d, head) = setup();
        chain_upsert(&mut d, head, Item::new(1, 1)).unwrap();
        let mut items = Vec::new();
        chain_collect(&mut d, head, true, &mut items).unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(d.live_blocks(), 0);
    }

    #[test]
    fn write_bucket_round_trips_with_overflow() {
        let (mut d, head) = setup();
        let items: Vec<Item> = (0..10).map(|k| Item::new(k, 100 + k)).collect();
        write_bucket(&mut d, head, &items).unwrap();
        for k in 0..10u64 {
            assert_eq!(chain_lookup(&mut d, head, k).unwrap(), Some(100 + k));
        }
        // Each block written exactly once: 4 writes for 10 items at b=3.
        assert_eq!(d.stats().writes(), 4);
    }

    #[test]
    fn write_bucket_exact_fit_has_no_chain() {
        let (mut d, head) = setup();
        let items: Vec<Item> = (0..3).map(|k| Item::new(k, k)).collect();
        write_bucket(&mut d, head, &items).unwrap();
        let blk = d.read(head).unwrap();
        assert!(blk.next().is_none());
        assert_eq!(blk.len(), 3);
    }
}
