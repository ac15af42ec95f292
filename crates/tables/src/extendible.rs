//! Extendible hashing (Fagin, Nievergelt, Pippenger, Strong 1979).
//!
//! A directory of `2^g` block pointers lives in internal memory (charged
//! to the budget); bucket blocks carry a *local depth* `l ≤ g` in their
//! header tag. Lookups cost exactly one I/O; a full bucket splits into
//! two buddies (doubling the directory when `l = g`), and deletions merge
//! empty buckets with their buddies and halve the directory when
//! possible.
//!
//! This is one of the two schemes the paper's introduction cites for
//! maintaining the load factor at `O(1/b)` amortized extra cost.
//!
//! Addressing uses the **top** `g` bits of the hash
//! ([`dxh_hashfn::prefix_bucket`] with `2^g` buckets), so a bucket with
//! local depth `l` owns the contiguous directory range
//! `[p·2^(g−l), (p+1)·2^(g−l))` for its length-`l` prefix `p`.

use dxh_extmem::{
    check_key, mem_disk, Block, BlockId, Disk, ExtMemError, IoSnapshot, Item, Key, MemDisk,
    MemoryBudget, Result, StorageBackend, Value,
};
use dxh_hashfn::{prefix_bucket, HashFn};

use crate::dictionary::ExternalDictionary;
use crate::layout::{LayoutInspect, LayoutSnapshot};

/// Deepest local depth before we declare the hash function broken
/// (2^-60 collision probability per pair under an ideal hash).
const MAX_DEPTH: u32 = 60;

/// Configuration for [`ExtendibleTable`].
#[derive(Clone, Debug)]
pub struct ExtendibleConfig {
    /// Block capacity in items.
    pub b: usize,
    /// Internal memory budget in items (must cover the directory).
    pub m: usize,
    /// Initial (and minimum) global depth; the table starts with
    /// `2^initial_depth` buckets.
    pub initial_depth: u32,
}

impl ExtendibleConfig {
    /// Defaults: initial depth 2 (four buckets).
    pub fn new(b: usize, m: usize) -> Self {
        ExtendibleConfig { b, m, initial_depth: 2 }
    }

    fn validate(&self) -> Result<()> {
        if self.b == 0 || self.m == 0 {
            return Err(ExtMemError::BadConfig("b and m must be positive".into()));
        }
        if self.initial_depth > 28 {
            return Err(ExtMemError::BadConfig("initial depth too large".into()));
        }
        let dir = 1usize << self.initial_depth;
        if self.m < dir + 2 * self.b + 72 {
            return Err(ExtMemError::BadConfig(format!(
                "extendible hashing needs m ≥ {} for the directory and working set",
                dir + 2 * self.b + 72
            )));
        }
        Ok(())
    }
}

/// Extendible hashing over an accounting disk.
pub struct ExtendibleTable<F: HashFn, B: StorageBackend = MemDisk> {
    disk: Disk<B>,
    budget: MemoryBudget,
    hash: F,
    dir: Vec<BlockId>,
    g: u32,
    /// `depth_hist[l]` = number of buckets with local depth `l`.
    depth_hist: Vec<u64>,
    len: usize,
    cfg: ExtendibleConfig,
}

impl<F: HashFn> ExtendibleTable<F, MemDisk> {
    /// Builds a table over a fresh in-memory disk.
    pub fn new(cfg: ExtendibleConfig, hash: F) -> Result<Self> {
        let disk = mem_disk(cfg.b);
        Self::with_disk(disk, cfg, hash)
    }
}

impl<F: HashFn, B: StorageBackend> ExtendibleTable<F, B> {
    /// Builds a table over a caller-provided disk.
    pub fn with_disk(mut disk: Disk<B>, cfg: ExtendibleConfig, hash: F) -> Result<Self> {
        cfg.validate()?;
        if disk.b() != cfg.b {
            return Err(ExtMemError::BadConfig("disk block size ≠ cfg.b".into()));
        }
        let g = cfg.initial_depth;
        let nb = 1usize << g;
        let mut budget = MemoryBudget::new(cfg.m);
        // Directory entries + depth histogram + working blocks + metadata.
        budget.reserve(nb + 64 + 2 * cfg.b + 8)?;
        let mut dir = Vec::with_capacity(nb);
        for _ in 0..nb {
            let id = disk.allocate()?;
            disk.read_modify_write(id, |blk| blk.set_tag(g as u64))?;
            dir.push(id);
        }
        let mut depth_hist = vec![0u64; 65];
        depth_hist[g as usize] = nb as u64;
        Ok(ExtendibleTable { disk, budget, hash, dir, g, depth_hist, len: 0, cfg })
    }

    /// Current global depth.
    #[cfg(test)]
    fn global_depth(&self) -> u32 {
        self.g
    }

    /// Number of distinct buckets.
    pub fn bucket_count(&self) -> u64 {
        self.depth_hist.iter().sum()
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Disk<B> {
        &self.disk
    }

    #[inline]
    fn dir_index(&self, key: Key) -> usize {
        prefix_bucket(self.hash.hash64(key), 1u64 << self.g) as usize
    }

    fn double_directory(&mut self) -> Result<()> {
        let old_len = self.dir.len();
        self.budget.reserve(old_len)?; // directory doubles
        let mut new_dir = Vec::with_capacity(old_len * 2);
        for &id in &self.dir {
            new_dir.push(id);
            new_dir.push(id);
        }
        // Top-bit addressing: new index = (old index << 1) | extra bit, so
        // entry pairs (2i, 2i+1) both point at old bucket i.
        self.dir = new_dir;
        self.g += 1;
        Ok(())
    }

    fn try_halve_directory(&mut self) {
        while self.g > self.cfg.initial_depth && self.depth_hist[self.g as usize] == 0 {
            let half: Vec<BlockId> = self.dir.chunks_exact(2).map(|c| c[0]).collect();
            debug_assert!(self.dir.chunks_exact(2).all(|c| c[0] == c[1]));
            self.budget.release(half.len());
            self.dir = half;
            self.g -= 1;
        }
    }

    /// Splits the bucket at directory index `idx` (known full). One read
    /// and two writes, plus an in-memory directory update.
    fn split(&mut self, idx: usize) -> Result<()> {
        let bid = self.dir[idx];
        let blk = self.disk.read(bid)?;
        let l = blk.tag() as u32;
        if l >= MAX_DEPTH {
            return Err(ExtMemError::Corrupt(format!(
                "bucket at depth {l} cannot split: {} colliding hash prefixes",
                blk.len()
            )));
        }
        // The bucket's length-l prefix is invariant under directory
        // doubling; compute it from the current index before doubling.
        let p = (idx as u64) >> (self.g - l);
        if l == self.g {
            self.double_directory()?;
        }
        let g = self.g;
        let sibling = self.disk.allocate()?;
        let b = self.cfg.b;
        let mut keep = Block::new(b);
        let mut moved = Block::new(b);
        keep.set_tag((l + 1) as u64);
        moved.set_tag((l + 1) as u64);
        for &it in blk.items() {
            let child = prefix_bucket(self.hash.hash64(it.key), 1u64 << (l + 1));
            debug_assert_eq!(child >> 1, p);
            if child & 1 == 0 {
                keep.push(it).expect("split halves fit");
            } else {
                moved.push(it).expect("split halves fit");
            }
        }
        self.disk.write(bid, &keep)?;
        self.disk.write(sibling, &moved)?;
        // Redirect the high half of the bucket's directory range.
        let shift = g - (l + 1);
        let hi_start = ((2 * p + 1) << shift) as usize;
        let hi_end = ((2 * p + 2) << shift) as usize;
        for e in &mut self.dir[hi_start..hi_end] {
            *e = sibling;
        }
        self.depth_hist[l as usize] -= 1;
        self.depth_hist[(l + 1) as usize] += 2;
        Ok(())
    }

    /// Attempts to merge the emptied bucket at `idx` (local depth `l`)
    /// with its buddy; returns whether a merge happened.
    fn try_merge(&mut self, idx: usize, l: u32) -> Result<bool> {
        if l == 0 {
            return Ok(false);
        }
        let bid = self.dir[idx];
        let p = (idx as u64) >> (self.g - l);
        let buddy_p = p ^ 1;
        let buddy_idx = (buddy_p << (self.g - l)) as usize;
        let buddy_bid = self.dir[buddy_idx];
        if buddy_bid == bid {
            return Ok(false);
        }
        let buddy_depth = self.disk.update(buddy_bid, |blk| (false, blk.tag() as u32))?;
        if buddy_depth != l {
            return Ok(false); // buddy is split finer; cannot merge
        }
        // Keep the buddy's block (it holds the surviving items).
        self.disk.read_modify_write(buddy_bid, |blk| blk.set_tag((l - 1) as u64))?;
        let shift = self.g - l;
        let start = (p << shift) as usize;
        let end = ((p + 1) << shift) as usize;
        for e in &mut self.dir[start..end] {
            *e = buddy_bid;
        }
        self.disk.free(bid)?;
        self.depth_hist[l as usize] -= 2;
        self.depth_hist[(l - 1) as usize] += 1;
        self.try_halve_directory();
        Ok(true)
    }
}

enum Outcome {
    Inserted,
    Replaced,
    Full,
}

impl<F: HashFn, B: StorageBackend> ExternalDictionary for ExtendibleTable<F, B> {
    fn insert(&mut self, key: Key, value: Value) -> Result<()> {
        check_key(key)?;
        loop {
            let idx = self.dir_index(key);
            let bid = self.dir[idx];
            let out = self.disk.update(bid, |blk| {
                if blk.replace(key, value).is_some() {
                    (true, Outcome::Replaced)
                } else if !blk.is_full() {
                    blk.push(Item::new(key, value)).expect("checked");
                    (true, Outcome::Inserted)
                } else {
                    (false, Outcome::Full)
                }
            })?;
            match out {
                Outcome::Inserted => {
                    self.len += 1;
                    return Ok(());
                }
                Outcome::Replaced => return Ok(()),
                Outcome::Full => self.split(idx)?,
            }
        }
    }

    fn lookup(&mut self, key: Key) -> Result<Option<Value>> {
        let bid = self.dir[self.dir_index(key)];
        Ok(self.disk.read(bid)?.find(key))
    }

    fn delete(&mut self, key: Key) -> Result<bool> {
        let idx = self.dir_index(key);
        let bid = self.dir[idx];
        let (removed, emptied, l) = self.disk.update(bid, |blk| {
            let removed = blk.remove(key).is_some();
            (removed, (removed, blk.is_empty(), blk.tag() as u32))
        })?;
        if removed {
            self.len -= 1;
            if emptied {
                let _ = self.try_merge(idx, l)?;
            }
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

impl<F: HashFn, B: StorageBackend> LayoutInspect for ExtendibleTable<F, B> {
    fn layout_snapshot(&mut self) -> Result<LayoutSnapshot> {
        let mut snap = LayoutSnapshot::default();
        let mut seen = std::collections::HashSet::new();
        for &bid in &self.dir {
            if seen.insert(bid) {
                let blk = self.disk.backend_mut().read(bid)?;
                snap.blocks.push((bid, blk.items().iter().map(|it| it.key).collect()));
            }
        }
        Ok(snap)
    }

    fn address_of(&self, key: Key) -> Option<BlockId> {
        Some(self.dir[self.dir_index(key)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxh_hashfn::IdealFn;

    fn table(b: usize) -> ExtendibleTable<IdealFn> {
        ExtendibleTable::new(ExtendibleConfig::new(b, 1 << 20), IdealFn::from_seed(13)).unwrap()
    }

    #[test]
    fn round_trip_with_growth() {
        let mut t = table(4);
        for k in 0..2000u64 {
            t.insert(k, k * 2).unwrap();
        }
        assert!(t.global_depth() > 2, "directory grew: g = {}", t.global_depth());
        for k in 0..2000u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k * 2), "key {k}");
        }
        assert_eq!(t.lookup(99999).unwrap(), None);
    }

    #[test]
    fn lookup_is_exactly_one_io() {
        let mut t = table(8);
        for k in 0..1000u64 {
            t.insert(k, k).unwrap();
        }
        let e = t.disk.epoch();
        for k in 0..500u64 {
            let _ = t.lookup(k).unwrap();
        }
        assert_eq!(t.disk.since(&e).total(), 500, "1 I/O per lookup, always");
    }

    #[test]
    fn upsert_replaces() {
        let mut t = table(4);
        t.insert(5, 1).unwrap();
        t.insert(5, 9).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(5).unwrap(), Some(9));
    }

    #[test]
    fn directory_invariant_contiguous_ranges() {
        let mut t = table(2);
        for k in 0..300u64 {
            t.insert(k, k).unwrap();
        }
        // Every bucket's directory entries form one contiguous run whose
        // length is a power of two (2^(g-l)).
        let mut i = 0;
        let dir = &t.dir;
        while i < dir.len() {
            let bid = dir[i];
            let mut j = i;
            while j < dir.len() && dir[j] == bid {
                j += 1;
            }
            let run = j - i;
            assert!(run.is_power_of_two(), "run length {run} at {i}");
            assert_eq!(i % run, 0, "run aligned to its size");
            i = j;
        }
    }

    #[test]
    fn depth_histogram_matches_directory() {
        let mut t = table(2);
        for k in 0..500u64 {
            t.insert(k, k).unwrap();
        }
        let distinct: std::collections::HashSet<_> = t.dir.iter().copied().collect();
        assert_eq!(t.bucket_count(), distinct.len() as u64);
    }

    #[test]
    fn deletion_merges_and_halves_directory() {
        let mut t = table(4);
        for k in 0..800u64 {
            t.insert(k, k).unwrap();
        }
        let grown_g = t.global_depth();
        let grown_buckets = t.bucket_count();
        for k in 0..800u64 {
            assert!(t.delete(k).unwrap());
        }
        assert_eq!(t.len(), 0);
        assert!(t.bucket_count() < grown_buckets, "buckets merged");
        assert!(t.global_depth() <= grown_g, "directory not larger");
        // Table still works after heavy merging.
        for k in 0..100u64 {
            t.insert(k, k + 1).unwrap();
        }
        for k in 0..100u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k + 1));
        }
    }

    #[test]
    fn delete_absent_is_false() {
        let mut t = table(4);
        t.insert(1, 1).unwrap();
        assert!(!t.delete(2).unwrap());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn layout_lists_each_bucket_once() {
        let mut t = table(4);
        for k in 0..300u64 {
            t.insert(k, k).unwrap();
        }
        let snap = t.layout_snapshot().unwrap();
        assert_eq!(snap.total_items(), 300);
        let ids: std::collections::HashSet<_> = snap.blocks.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), snap.blocks.len(), "no duplicate blocks");
        assert_eq!(ids.len() as u64, t.bucket_count());
    }

    #[test]
    fn address_of_agrees_with_lookup_block() {
        let mut t = table(4);
        for k in 0..100u64 {
            t.insert(k, k).unwrap();
        }
        for k in 0..100u64 {
            let addr = t.address_of(k).unwrap();
            let blk = t.disk.backend_mut().read(addr).unwrap();
            assert!(blk.contains(k), "key {k} is at its address (1-I/O lookup)");
        }
    }

    #[test]
    fn budget_grows_with_directory() {
        let mut t = table(2);
        let before = t.memory_used();
        for k in 0..500u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.memory_used() > before, "directory growth charged to budget");
    }

    #[test]
    fn config_validation() {
        assert!(ExtendibleConfig::new(0, 100).validate().is_err());
        assert!(ExtendibleConfig::new(8, 10).validate().is_err(), "m too small");
        let deep = ExtendibleConfig { initial_depth: 29, ..ExtendibleConfig::new(8, 1 << 20) };
        assert!(deep.validate().is_err());
    }
}
