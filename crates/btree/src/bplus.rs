//! An external B+-tree over the accounting disk.
//!
//! Node encoding on a [`Block`]:
//!
//! * **leaf** (`tag = 0`): sorted data items; `next` links the leaf to
//!   its right sibling for range scans.
//! * **internal** (`tag = 1`): sorted routing entries
//!   `(min_key_of_subtree, child_block_id)`. Routing picks the rightmost
//!   entry with `min_key ≤ target` (falling back to the first entry), so
//!   the leftmost entry acts as `-∞` and separators never need repair on
//!   deletion.
//!
//! Nodes split at capacity `b`; the root split grows the height. The
//! internal memory footprint is O(1) words (root id, height, counters) —
//! like the paper's hash tables, the structure itself lives on disk.

use std::ops::ControlFlow::{Break, Continue};

use dxh_extmem::{
    check_key, mem_disk, Block, BlockId, Disk, ExtMemError, IoSnapshot, Item, Key, MemDisk,
    MemoryBudget, Result, StorageBackend, Value,
};
use dxh_tables::{chain_walk, ExternalDictionary};

/// Configuration for [`BPlusTree`].
#[derive(Clone, Debug)]
pub struct BPlusTreeConfig {
    /// Block (node) capacity in items/entries.
    pub b: usize,
    /// Internal memory budget in items.
    pub m: usize,
}

impl BPlusTreeConfig {
    /// Defaults: the paper's seek-dominated accounting.
    pub fn new(b: usize, m: usize) -> Self {
        BPlusTreeConfig { b, m }
    }

    fn validate(&self) -> Result<()> {
        if self.b < 4 {
            return Err(ExtMemError::BadConfig("B+-tree needs b ≥ 4".into()));
        }
        if self.m < 2 * self.b + 8 {
            return Err(ExtMemError::BadConfig("B+-tree needs m ≥ 2b + 8".into()));
        }
        Ok(())
    }
}

const LEAF: u64 = 0;
const INTERNAL: u64 = 1;

/// What an insert into a subtree produced.
enum InsertUp {
    /// No structural change; `true` if a new key was added.
    Done(bool),
    /// The child split: route `(sep, right)` into the parent.
    Split { sep: Key, right: BlockId, inserted: bool },
}

/// An external-memory B+-tree dictionary.
///
/// ```
/// use dxh_btree::{BPlusTree, BPlusTreeConfig};
/// use dxh_tables::ExternalDictionary;
///
/// let mut t = BPlusTree::new(BPlusTreeConfig::new(16, 4096)).unwrap();
/// for k in 0..1000u64 {
///     t.insert(k, k * 7).unwrap();
/// }
/// assert_eq!(t.lookup(123).unwrap(), Some(861));
/// // Ordered scans — the thing hash tables cannot do:
/// let window = t.range(10, 14).unwrap();
/// let keys: Vec<u64> = window.iter().map(|it| it.key).collect();
/// assert_eq!(keys, vec![10, 11, 12, 13, 14]);
/// ```
pub struct BPlusTree<B: StorageBackend = MemDisk> {
    disk: Disk<B>,
    budget: MemoryBudget,
    root: BlockId,
    /// 0 = the root is a leaf.
    height: u32,
    len: usize,
    cfg: BPlusTreeConfig,
}

impl BPlusTree<MemDisk> {
    /// Builds a tree over a fresh in-memory disk.
    pub fn new(cfg: BPlusTreeConfig) -> Result<Self> {
        let disk = mem_disk(cfg.b);
        Self::with_disk(disk, cfg)
    }
}

impl<B: StorageBackend> BPlusTree<B> {
    /// Builds a tree over a caller-provided disk.
    pub fn with_disk(mut disk: Disk<B>, cfg: BPlusTreeConfig) -> Result<Self> {
        cfg.validate()?;
        if disk.b() != cfg.b {
            return Err(ExtMemError::BadConfig("disk block size ≠ cfg.b".into()));
        }
        let mut budget = MemoryBudget::new(cfg.m);
        budget.reserve(2 * cfg.b + 8)?;
        let root = disk.allocate()?; // starts as an empty leaf (tag 0)
        Ok(BPlusTree { disk, budget, root, height: 0, len: 0, cfg })
    }

    /// Tree height (0 = root is a leaf); lookups cost `height + 1` reads.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Disk<B> {
        &self.disk
    }

    /// Routing: index of the child to descend into for `key`.
    fn route(entries: &[Item], key: Key) -> usize {
        // Rightmost entry with min_key ≤ key; entries are sorted.
        match entries.binary_search_by(|e| e.key.cmp(&key)) {
            Ok(i) => i,
            Err(0) => 0, // key below the leftmost min: leftmost acts as -∞
            Err(i) => i - 1,
        }
    }

    /// Splits the (full) sorted `blk` into itself (left half) plus a new
    /// right sibling; returns `(separator, right_id)`.
    fn split_node(&mut self, id: BlockId, blk: &mut Block) -> Result<(Key, BlockId)> {
        let mid = blk.len() / 2;
        let right_id = self.disk.allocate()?;
        let mut right = Block::new(self.cfg.b);
        right.set_tag(blk.tag());
        let moved: Vec<Item> = blk.items()[mid..].to_vec();
        for it in &moved {
            right.push(*it).expect("half fits");
        }
        blk.retain({
            let sep = moved[0].key;
            move |it| it.key < sep
        });
        if blk.tag() == LEAF {
            right.set_next(blk.next());
            blk.set_next(Some(right_id));
        }
        let sep = moved[0].key;
        self.disk.write(right_id, &right)?;
        self.disk.write(id, blk)?;
        Ok((sep, right_id))
    }

    fn insert_rec(&mut self, node: BlockId, height: u32, item: Item) -> Result<InsertUp> {
        if height == 0 {
            // Leaf: upsert in place, splitting when full.
            let mut blk = self.disk.read(node)?;
            if blk.replace(item.key, item.value).is_some() {
                self.disk.write(node, &blk)?;
                return Ok(InsertUp::Done(false));
            }
            let pos = blk.items().partition_point(|it| it.key < item.key);
            if !blk.is_full() {
                // Insert sorted. (Block has no insert-at; rebuild items.)
                let mut items = blk.items().to_vec();
                items.insert(pos, item);
                let mut nb = Block::new(self.cfg.b);
                nb.set_tag(LEAF);
                nb.set_next(blk.next());
                for it in items {
                    nb.push(it).expect("fits");
                }
                self.disk.write(node, &nb)?;
                return Ok(InsertUp::Done(true));
            }
            // Full: split, then place the item in the correct half,
            // preserving that half's sibling pointer.
            let (sep, right) = self.split_node(node, &mut blk)?;
            let target = if item.key < sep { node } else { right };
            self.disk.read_modify_write(target, |b| {
                let next = b.next();
                let pos = b.items().partition_point(|it| it.key < item.key);
                let mut items = b.items().to_vec();
                items.insert(pos, item);
                b.reset();
                b.set_tag(LEAF);
                b.set_next(next);
                for it in items {
                    b.push(it).expect("post-split room");
                }
            })?;
            return Ok(InsertUp::Split { sep, right, inserted: true });
        }
        // Internal node.
        let blk = self.disk.read(node)?;
        let idx = Self::route(blk.items(), item.key);
        let child = BlockId(blk.items()[idx].value);
        match self.insert_rec(child, height - 1, item)? {
            InsertUp::Done(inserted) => Ok(InsertUp::Done(inserted)),
            InsertUp::Split { sep, right, inserted } => {
                let blk = self.disk.read(node)?;
                let entry = Item::new(sep, right.raw());
                let pos = blk.items().partition_point(|it| it.key < sep);
                let mut entries = blk.items().to_vec();
                entries.insert(pos, entry);
                if entries.len() <= self.cfg.b {
                    let mut nb = Block::new(self.cfg.b);
                    nb.set_tag(INTERNAL);
                    for e in entries {
                        nb.push(e).expect("fits");
                    }
                    self.disk.write(node, &nb)?;
                    return Ok(InsertUp::Done(inserted));
                }
                // Split the internal node: left half stays, right half moves.
                let mid = entries.len() / 2;
                let right_id = self.disk.allocate()?;
                let mut left = Block::new(self.cfg.b);
                left.set_tag(INTERNAL);
                for e in &entries[..mid] {
                    left.push(*e).expect("fits");
                }
                let mut rightb = Block::new(self.cfg.b);
                rightb.set_tag(INTERNAL);
                for e in &entries[mid..] {
                    rightb.push(*e).expect("fits");
                }
                let up_sep = entries[mid].key;
                self.disk.write(node, &left)?;
                self.disk.write(right_id, &rightb)?;
                Ok(InsertUp::Split { sep: up_sep, right: right_id, inserted })
            }
        }
    }

    /// Ordered scan: all items with keys in `[lo, hi]`, using the leaf
    /// chain. Costs `height + ⌈matching leaves⌉` reads — the operation
    /// hash tables fundamentally cannot do.
    pub fn range(&mut self, lo: Key, hi: Key) -> Result<Vec<Item>> {
        let mut out = Vec::new();
        if lo > hi {
            return Ok(out);
        }
        // Descend to the leaf that would hold `lo`.
        let mut node = self.root;
        for _ in 0..self.height {
            let blk = self.disk.read(node)?;
            let idx = Self::route(blk.items(), lo);
            node = BlockId(blk.items()[idx].value);
        }
        // Walk the leaf chain until a leaf ends past `hi`.
        let mut hops = self.disk.live_blocks();
        chain_walk(node, &mut hops, |id| {
            let blk = self.disk.read(id)?;
            out.extend(blk.items().iter().filter(|it| (lo..=hi).contains(&it.key)));
            Ok(match blk.next() {
                Some(next) if blk.items().last().is_none_or(|it| it.key <= hi) => Continue(next),
                _ => Break(()),
            })
        })?;
        Ok(out)
    }
}

impl<B: StorageBackend> ExternalDictionary for BPlusTree<B> {
    fn insert(&mut self, key: Key, value: Value) -> Result<()> {
        check_key(key)?;
        match self.insert_rec(self.root, self.height, Item::new(key, value))? {
            InsertUp::Done(inserted) => {
                self.len += inserted as usize;
            }
            InsertUp::Split { sep, right, inserted } => {
                // Grow: new root over (old_root, right).
                let old_root_min = 0u64; // leftmost entry acts as -∞
                let new_root = self.disk.allocate()?;
                let mut blk = Block::new(self.cfg.b);
                blk.set_tag(INTERNAL);
                blk.push(Item::new(old_root_min, self.root.raw())).expect("fresh");
                blk.push(Item::new(sep, right.raw())).expect("fresh");
                self.disk.write(new_root, &blk)?;
                self.root = new_root;
                self.height += 1;
                self.len += inserted as usize;
            }
        }
        Ok(())
    }

    fn lookup(&mut self, key: Key) -> Result<Option<Value>> {
        let mut node = self.root;
        for _ in 0..self.height {
            let blk = self.disk.read(node)?;
            let idx = Self::route(blk.items(), key);
            node = BlockId(blk.items()[idx].value);
        }
        Ok(self.disk.read(node)?.find(key))
    }

    /// Lazy deletion: the item is removed from its leaf; underflowing
    /// nodes are left in place (routing stays correct because separators
    /// are only ever lower bounds). Standard for read-mostly external
    /// trees; a rebalancing delete is future work.
    fn delete(&mut self, key: Key) -> Result<bool> {
        let mut node = self.root;
        for _ in 0..self.height {
            let blk = self.disk.read(node)?;
            let idx = Self::route(blk.items(), key);
            node = BlockId(blk.items()[idx].value);
        }
        let removed = self.disk.read_modify_write(node, |blk| blk.remove(key).is_some())?;
        if removed {
            self.len -= 1;
        }
        Ok(removed)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn disk_stats(&self) -> IoSnapshot {
        self.disk.epoch()
    }

    fn memory_used(&self) -> usize {
        self.budget.used()
    }

    fn block_capacity(&self) -> usize {
        self.cfg.b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(b: usize) -> BPlusTree {
        BPlusTree::new(BPlusTreeConfig::new(b, 4096)).unwrap()
    }

    #[test]
    fn round_trip_with_splits() {
        let mut t = tree(4);
        for k in 0..500u64 {
            t.insert(k, k * 2).unwrap();
        }
        assert!(t.height() >= 3, "tiny nodes force height: {}", t.height());
        for k in 0..500u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k * 2), "key {k}");
        }
        assert_eq!(t.lookup(999).unwrap(), None);
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn random_order_inserts() {
        let mut t = tree(8);
        let mut keys: Vec<u64> = (0..1000).map(|i| i * 7919 % 65536).collect();
        keys.sort_unstable();
        keys.dedup();
        // shuffle deterministically
        let mut shuffled = keys.clone();
        for i in (1..shuffled.len()).rev() {
            let j = (i * 2654435761) % (i + 1);
            shuffled.swap(i, j);
        }
        for &k in &shuffled {
            t.insert(k, k + 1).unwrap();
        }
        for &k in &keys {
            assert_eq!(t.lookup(k).unwrap(), Some(k + 1));
        }
        assert_eq!(t.len(), keys.len());
    }

    #[test]
    fn upsert_replaces() {
        let mut t = tree(4);
        for k in 0..100u64 {
            t.insert(k, 1).unwrap();
        }
        for k in 0..100u64 {
            t.insert(k, 2).unwrap();
        }
        assert_eq!(t.len(), 100);
        for k in 0..100u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(2));
        }
    }

    #[test]
    fn lookup_cost_is_height_plus_one() {
        let mut t = tree(8);
        for k in 0..2000u64 {
            t.insert(k, k).unwrap();
        }
        let h = t.height() as u64;
        let e = t.disk.epoch();
        for k in 0..100u64 {
            let _ = t.lookup(k * 17).unwrap();
        }
        let per = t.disk.since(&e).total() as f64 / 100.0;
        assert!((per - (h + 1) as f64).abs() < 1e-9, "lookup cost {per} = height+1 = {}", h + 1);
    }

    #[test]
    fn range_scan_returns_sorted_window() {
        let mut t = tree(4);
        for k in (0..400u64).step_by(2) {
            t.insert(k, k).unwrap();
        }
        let got = t.range(100, 120).unwrap();
        let keys: Vec<u64> = got.iter().map(|it| it.key).collect();
        assert_eq!(keys, vec![100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120]);
        assert!(t.range(1000, 2000).unwrap().is_empty());
        assert!(t.range(10, 5).unwrap().is_empty(), "inverted range");
    }

    #[test]
    fn full_scan_via_range_sees_everything_in_order() {
        let mut t = tree(4);
        let keys: Vec<u64> = (0..300).map(|i| (i * 2654435761u64) % 100_000).collect();
        let mut expect: Vec<u64> = keys.clone();
        expect.sort_unstable();
        expect.dedup();
        for &k in &keys {
            t.insert(k, k).unwrap();
        }
        let got: Vec<u64> = t.range(0, u64::MAX - 1).unwrap().iter().map(|it| it.key).collect();
        assert_eq!(got, expect, "leaf chain yields global sorted order");
    }

    #[test]
    fn delete_removes_and_reports() {
        let mut t = tree(4);
        for k in 0..200u64 {
            t.insert(k, k).unwrap();
        }
        for k in (0..200u64).step_by(2) {
            assert!(t.delete(k).unwrap());
        }
        assert!(!t.delete(0).unwrap());
        assert_eq!(t.len(), 100);
        for k in 0..200u64 {
            let expect = if k % 2 == 0 { None } else { Some(k) };
            assert_eq!(t.lookup(k).unwrap(), expect);
        }
    }

    #[test]
    fn insert_cost_scales_with_height() {
        let mut t = tree(64);
        let n = 20_000u64;
        for k in 0..n {
            t.insert(k, k).unwrap();
        }
        let tu = t.disk.epoch().total() as f64 / n as f64;
        let h = t.height() as f64;
        // descent reads + leaf write ≈ height + 1 per insert (+ splits).
        assert!(tu >= h, "tu {tu} ≥ height {h}");
        assert!(tu <= h + 2.5, "tu {tu} ≤ height + 2.5");
    }

    #[test]
    fn reserved_key_rejected() {
        let mut t = tree(4);
        assert!(t.insert(u64::MAX, 0).is_err());
    }

    #[test]
    fn config_validation() {
        assert!(BPlusTreeConfig::new(2, 4096).validate().is_err());
        assert!(BPlusTreeConfig::new(8, 4).validate().is_err());
        assert!(BPlusTreeConfig::new(8, 4096).validate().is_ok());
    }
}
