//! Bucket-chain primitives shared by chaining and linear hashing.
//!
//! A *bucket* is a primary block plus a singly linked list of overflow
//! blocks (via the block `next` pointer). Invariants maintained here:
//!
//! * no duplicate keys within a chain (upsert replaces in place);
//! * new items go to the **tail** (extending it when full), so a
//!   successful fresh insert into an unchained bucket costs exactly one
//!   combined I/O — the paper's `1 + 1/2^Ω(b)` insert;
//! * deletion unlinks and frees overflow blocks that become empty.

use dxh_extmem::{Block, BlockId, Disk, ExtMemError, Item, Key, Result, StorageBackend, Value};

/// What an upsert did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpsertOutcome {
    /// The key was new; the chain gained one item.
    Inserted,
    /// The key existed; its value was replaced.
    Replaced,
}

enum Step {
    Done(UpsertOutcome),
    Continue(BlockId),
    NeedExtend,
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
    let mut cur = head;
    loop {
        let step = disk.update(cur, |blk| {
            if blk.replace(item.key, item.value).is_some() {
                return (true, Step::Done(UpsertOutcome::Replaced));
            }
            match blk.next() {
                Some(next) => (false, Step::Continue(next)),
                None => {
                    if blk.is_full() {
                        (false, Step::NeedExtend)
                    } else {
                        blk.push(item).expect("checked not full");
                        (true, Step::Done(UpsertOutcome::Inserted))
                    }
                }
            }
        })?;
        match step {
            Step::Done(outcome) => return Ok(outcome),
            Step::Continue(next) => cur = next,
            Step::NeedExtend => {
                let tail = disk.allocate()?;
                let mut blk = Block::new(disk.b());
                blk.push(item).expect("fresh block");
                disk.write(tail, &blk)?;
                disk.read_modify_write(cur, |b| b.set_next(Some(tail)))?;
                return Ok(UpsertOutcome::Inserted);
            }
        }
    }
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
    let mut cur = head;
    for _ in 0..disk.live_blocks() {
        let blk = disk.read(cur)?;
        if let Some(v) = blk.find(key) {
            return Ok(Some(v));
        }
        match blk.next() {
            Some(next) => cur = next,
            None => return Ok(None),
        }
    }
    Err(cyclic(head))
}

/// A chain that outruns its disk: some `next` pointer rotted into a cycle.
fn cyclic(head: BlockId) -> ExtMemError {
    ExtMemError::Corrupt(format!("the chain of {head:?} is longer than its disk has live blocks"))
}

/// Deletes `key` from the chain rooted at `head`; returns whether it was
/// present. Overflow blocks left empty are unlinked and freed (the head
/// block always stays).
pub fn chain_delete<B: StorageBackend>(
    disk: &mut Disk<B>,
    head: BlockId,
    key: Key,
) -> Result<bool> {
    enum Found {
        No(Option<BlockId>),
        Yes { emptied: bool, next: Option<BlockId> },
    }
    let mut prev: Option<BlockId> = None;
    let mut cur = head;
    loop {
        let found = disk.update(cur, |blk| {
            if blk.remove(key).is_some() {
                (true, Found::Yes { emptied: blk.is_empty(), next: blk.next() })
            } else {
                (false, Found::No(blk.next()))
            }
        })?;
        match found {
            Found::Yes { emptied, next } => {
                if emptied {
                    if let Some(p) = prev {
                        disk.read_modify_write(p, |b| b.set_next(next))?;
                        disk.free(cur)?;
                    }
                }
                return Ok(true);
            }
            Found::No(Some(next)) => {
                prev = Some(cur);
                cur = next;
            }
            Found::No(None) => return Ok(false),
        }
    }
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
    // Head block.
    let mut hops = disk.live_blocks();
    let head_blk = disk.read(head)?;
    out.extend_from_slice(head_blk.items());
    let mut cur = head_blk.next();
    if free_head {
        disk.free(head)?;
    } else {
        disk.write(head, &Block::new(disk.b()))?;
    }
    // Overflow blocks.
    while let Some(id) = cur {
        hops = hops.checked_sub(1).ok_or_else(|| cyclic(head))?;
        let blk = disk.read(id)?;
        out.extend_from_slice(blk.items());
        cur = blk.next();
        disk.free(id)?;
    }
    Ok(())
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
    if items.len() <= b {
        let mut blk = Block::new(b);
        for &it in items {
            blk.push(it).expect("fits");
        }
        disk.write(primary, &blk)?;
        return Ok(());
    }
    // Build the overflow chain back-to-front so every block is written
    // exactly once with its final next pointer.
    let chunks: Vec<&[Item]> = items.chunks(b).collect();
    let mut next: Option<BlockId> = None;
    for chunk in chunks.iter().skip(1).rev() {
        let id = disk.allocate()?;
        let mut blk = Block::new(b);
        for &it in *chunk {
            blk.push(it).expect("chunk fits");
        }
        blk.set_next(next);
        disk.write(id, &blk)?;
        next = Some(id);
    }
    let mut blk = Block::new(b);
    for &it in chunks[0] {
        blk.push(it).expect("chunk fits");
    }
    blk.set_next(next);
    disk.write(primary, &blk)?;
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
