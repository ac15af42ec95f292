//! Linear hashing (Litwin 1980): directory-less incremental growth.
//!
//! Buckets are split one at a time in a fixed round-robin order driven by
//! a split pointer `sp`; addressing uses the low bits of the hash
//! ([`dxh_hashfn::mask_bucket`]) at two adjacent levels. Overflow within
//! a bucket is handled by chaining, so lookups cost one I/O plus the
//! (short) chain walk, and maintaining the load factor costs `O(1/b)`
//! amortized I/Os per insert — the other scheme the paper's introduction
//! cites for load-factor maintenance.
//!
//! Physical layout: buckets live in contiguous *segments* of
//! `initial_buckets` blocks each; the in-memory state is the segment base
//! table (charged to the budget) plus three words (`level`, `sp`, `len`).

use dxh_extmem::{
    check_key, mem_disk, BlockId, Disk, ExtMemError, IoSnapshot, Item, Key, MemDisk, MemoryBudget,
    Result, StorageBackend, Value,
};
use dxh_hashfn::{mask_bucket, HashFn};

use crate::chain::{
    chain_collect, chain_delete, chain_lookup, chain_upsert, write_bucket, UpsertOutcome,
};
use crate::dictionary::ExternalDictionary;
use crate::layout::{LayoutInspect, LayoutSnapshot};

/// Configuration for [`LinearHashTable`].
#[derive(Clone, Debug)]
pub struct LinearHashConfig {
    /// Block capacity in items.
    pub b: usize,
    /// Internal memory budget in items.
    pub m: usize,
    /// Buckets at level 0 — must be a power of two; also the segment size.
    pub initial_buckets: u64,
    /// Split one bucket whenever `len > max_load · buckets · b`.
    pub max_load: f64,
}

impl LinearHashConfig {
    /// Defaults: 8 initial buckets, split at load 0.8.
    pub fn new(b: usize, m: usize) -> Self {
        LinearHashConfig { b, m, initial_buckets: 8, max_load: 0.8 }
    }

    /// Builder: sets the split-trigger load factor.
    pub fn max_load(mut self, l: f64) -> Self {
        self.max_load = l;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.b == 0 || self.m == 0 {
            return Err(ExtMemError::BadConfig("b and m must be positive".into()));
        }
        if !self.initial_buckets.is_power_of_two() {
            return Err(ExtMemError::BadConfig("initial_buckets must be a power of two".into()));
        }
        if self.max_load.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ExtMemError::BadConfig("max_load must be positive".into()));
        }
        if self.m < 4 * self.b + 16 {
            return Err(ExtMemError::BadConfig(
                "linear hashing needs m ≥ 4b + 16 working items".into(),
            ));
        }
        Ok(())
    }
}

/// Litwin linear hashing over an accounting disk.
pub struct LinearHashTable<F: HashFn, B: StorageBackend = MemDisk> {
    disk: Disk<B>,
    budget: MemoryBudget,
    hash: F,
    /// Base block id of each segment of `seg_size` buckets.
    segments: Vec<BlockId>,
    seg_size: u64,
    /// Buckets at the current level (`initial_buckets · 2^level`).
    level_buckets: u64,
    /// Next bucket to split, in `[0, level_buckets)`.
    sp: u64,
    len: usize,
    cfg: LinearHashConfig,
}

impl<F: HashFn> LinearHashTable<F, MemDisk> {
    /// Builds a table over a fresh in-memory disk.
    pub fn new(cfg: LinearHashConfig, hash: F) -> Result<Self> {
        let disk = mem_disk(cfg.b);
        Self::with_disk(disk, cfg, hash)
    }
}

impl<F: HashFn, B: StorageBackend> LinearHashTable<F, B> {
    /// Builds a table over a caller-provided disk.
    pub fn with_disk(mut disk: Disk<B>, cfg: LinearHashConfig, hash: F) -> Result<Self> {
        cfg.validate()?;
        if disk.b() != cfg.b {
            return Err(ExtMemError::BadConfig("disk block size ≠ cfg.b".into()));
        }
        let mut budget = MemoryBudget::new(cfg.m);
        budget.reserve(4 * cfg.b + 16 + 1)?; // working set + metadata + first segment entry
        let base = disk.allocate_contiguous(cfg.initial_buckets as usize)?;
        Ok(LinearHashTable {
            disk,
            budget,
            hash,
            segments: vec![base],
            seg_size: cfg.initial_buckets,
            level_buckets: cfg.initial_buckets,
            sp: 0,
            len: 0,
            cfg,
        })
    }

    /// Total buckets currently addressable.
    pub fn bucket_count(&self) -> u64 {
        self.level_buckets + self.sp
    }

    /// Current load factor `len / (buckets · b)`.
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / (self.bucket_count() as f64 * self.cfg.b as f64)
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Disk<B> {
        &self.disk
    }

    /// The split pointer.
    #[cfg(test)]
    fn split_pointer(&self) -> u64 {
        self.sp
    }

    #[inline]
    fn bucket_of(&self, key: Key) -> u64 {
        let h = self.hash.hash64(key);
        let j = mask_bucket(h, self.level_buckets);
        if j < self.sp {
            mask_bucket(h, self.level_buckets * 2)
        } else {
            j
        }
    }

    #[inline]
    fn block_of(&self, bucket: u64) -> BlockId {
        let seg = (bucket / self.seg_size) as usize;
        BlockId(self.segments[seg].raw() + bucket % self.seg_size)
    }

    /// Splits bucket `sp` into `sp` and `sp + level_buckets`.
    fn split_one(&mut self) -> Result<()> {
        let new_bucket = self.level_buckets + self.sp;
        // Materialize the segment holding the new bucket if needed.
        let seg = (new_bucket / self.seg_size) as usize;
        if seg == self.segments.len() {
            self.budget.reserve(1)?;
            let base = self.disk.allocate_contiguous(self.seg_size as usize)?;
            self.segments.push(base);
        }
        let old_block = self.block_of(self.sp);
        let mut items: Vec<Item> = Vec::with_capacity(2 * self.cfg.b);
        chain_collect(&mut self.disk, old_block, false, &mut items)?;
        let mask2 = self.level_buckets * 2;
        let (stay, moved): (Vec<Item>, Vec<Item>) = items
            .into_iter()
            .partition(|it| mask_bucket(self.hash.hash64(it.key), mask2) == self.sp);
        if !stay.is_empty() {
            write_bucket(&mut self.disk, old_block, &stay)?;
        }
        if !moved.is_empty() {
            let new_block = self.block_of(new_bucket);
            write_bucket(&mut self.disk, new_block, &moved)?;
        }
        self.sp += 1;
        if self.sp == self.level_buckets {
            self.level_buckets *= 2;
            self.sp = 0;
        }
        Ok(())
    }
}

impl<F: HashFn, B: StorageBackend> ExternalDictionary for LinearHashTable<F, B> {
    fn insert(&mut self, key: Key, value: Value) -> Result<()> {
        check_key(key)?;
        let head = self.block_of(self.bucket_of(key));
        if chain_upsert(&mut self.disk, head, Item::new(key, value))? == UpsertOutcome::Inserted {
            self.len += 1;
            while self.load_factor() > self.cfg.max_load {
                self.split_one()?;
            }
        }
        Ok(())
    }

    fn lookup(&mut self, key: Key) -> Result<Option<Value>> {
        let head = self.block_of(self.bucket_of(key));
        chain_lookup(&mut self.disk, head, key)
    }

    fn delete(&mut self, key: Key) -> Result<bool> {
        let head = self.block_of(self.bucket_of(key));
        let removed = chain_delete(&mut self.disk, head, key)?;
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

impl<F: HashFn, B: StorageBackend> LayoutInspect for LinearHashTable<F, B> {
    fn layout_snapshot(&mut self) -> Result<LayoutSnapshot> {
        let mut snap = LayoutSnapshot::default();
        for q in 0..self.bucket_count() {
            let mut cur = Some(self.block_of(q));
            while let Some(id) = cur {
                let blk = self.disk.backend_mut().read(id)?;
                snap.blocks.push((id, blk.items().iter().map(|it| it.key).collect()));
                cur = blk.next();
            }
        }
        Ok(snap)
    }

    fn address_of(&self, key: Key) -> Option<BlockId> {
        Some(self.block_of(self.bucket_of(key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxh_hashfn::IdealFn;

    fn table(b: usize) -> LinearHashTable<IdealFn> {
        LinearHashTable::new(LinearHashConfig::new(b, 1 << 16), IdealFn::from_seed(21)).unwrap()
    }

    #[test]
    fn round_trip_with_growth() {
        let mut t = table(4);
        for k in 0..3000u64 {
            t.insert(k, k + 1).unwrap();
        }
        assert!(t.bucket_count() > 8, "table split: {} buckets", t.bucket_count());
        for k in 0..3000u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k + 1), "key {k}");
        }
        assert_eq!(t.lookup(12_345).unwrap(), None);
    }

    #[test]
    fn load_factor_is_controlled() {
        let mut t = table(8);
        for k in 0..5000u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.load_factor() <= 0.8 + 1e-9, "load {}", t.load_factor());
        // And not absurdly low either (splits are incremental).
        assert!(t.load_factor() > 0.3, "load {}", t.load_factor());
    }

    #[test]
    fn upsert_replaces() {
        let mut t = table(4);
        t.insert(3, 1).unwrap();
        t.insert(3, 2).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(3).unwrap(), Some(2));
    }

    #[test]
    fn delete_works_and_split_pointer_addressing_stays_consistent() {
        let mut t = table(4);
        for k in 0..1000u64 {
            t.insert(k, k).unwrap();
        }
        for k in (0..1000u64).step_by(2) {
            assert!(t.delete(k).unwrap(), "key {k} present");
        }
        for k in 0..1000u64 {
            let expect = if k % 2 == 0 { None } else { Some(k) };
            assert_eq!(t.lookup(k).unwrap(), expect, "key {k}");
        }
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn split_pointer_wraps_to_next_level() {
        let mut t = table(2);
        let level0 = t.level_buckets;
        let mut k = 0u64;
        while t.level_buckets == level0 {
            t.insert(k, k).unwrap();
            k += 1;
        }
        assert_eq!(t.split_pointer(), 0, "sp resets at level change");
        assert_eq!(t.level_buckets, level0 * 2);
        for j in 0..k {
            assert_eq!(t.lookup(j).unwrap(), Some(j));
        }
    }

    #[test]
    fn amortized_insert_cost_is_constant() {
        let b = 32;
        let mut t =
            LinearHashTable::new(LinearHashConfig::new(b, 1 << 16), IdealFn::from_seed(2)).unwrap();
        let n = 20_000u64;
        let e = t.disk.epoch();
        for k in 0..n {
            t.insert(k, k).unwrap();
        }
        let per = t.disk.since(&e).total() as f64 / n as f64;
        // 1 I/O for the upsert + O(1/b) split traffic + chain walks on the
        // not-yet-split buckets (classic LH runs them at up to 2× the mean
        // load, so chains are not rare there). Constant, comfortably < 2.
        assert!(per < 1.8, "amortized insert {per}");
    }

    #[test]
    fn segments_are_charged_to_budget() {
        let mut t = table(2);
        let before = t.memory_used();
        for k in 0..2000u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.memory_used() > before, "segment table growth charged");
    }

    #[test]
    fn layout_snapshot_counts_items() {
        let mut t = table(4);
        for k in 0..500u64 {
            t.insert(k, k).unwrap();
        }
        let snap = t.layout_snapshot().unwrap();
        assert_eq!(snap.total_items(), 500);
    }

    #[test]
    fn address_of_is_the_primary_bucket_block() {
        let mut t = table(4);
        for k in 0..200u64 {
            t.insert(k, k).unwrap();
        }
        // The key is reachable from its address by a chain walk.
        for k in 0..200u64 {
            let mut cur = Some(t.address_of(k).unwrap());
            let mut found = false;
            while let Some(id) = cur {
                let blk = t.disk.backend_mut().read(id).unwrap();
                if blk.contains(k) {
                    found = true;
                    break;
                }
                cur = blk.next();
            }
            assert!(found, "key {k} reachable from its address");
        }
    }

    #[test]
    fn config_validation() {
        assert!(LinearHashConfig::new(0, 100).validate().is_err());
        let mut c = LinearHashConfig::new(8, 1 << 16);
        c.initial_buckets = 6;
        assert!(c.validate().is_err(), "non power of two rejected");
        assert!(LinearHashConfig::new(8, 10).validate().is_err(), "m too small");
    }
}
