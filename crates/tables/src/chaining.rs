//! The standard external hash table: hashing with chaining.
//!
//! This is the structure behind the paper's baseline numbers: at constant
//! load factor `α < 1`, a successful lookup costs `1 + 1/2^Ω(b)` expected
//! I/Os and an insert costs `1 + 1/2^Ω(b)` I/Os (one combined
//! read-modify-write of the target block, chains being exponentially
//! rare). It occupies the `tq = 1 + 1/2^Ω(b)` endpoint of Figure 1, where
//! Theorem 1 says buffering cannot help insertion.
//!
//! Growth uses the hierarchy of [`dxh_hashfn::prefix_bucket`]: doubling
//! the bucket count maps bucket `q` onto exactly buckets `2q, 2q+1`, so a
//! rebuild is a single sequential sweep costing `O(n/b)` I/Os — the
//! "extensible/linear hashing adds only O(1/b) amortized" remark in the
//! paper's introduction.

use dxh_extmem::{
    check_key, mem_disk, BlockId, Disk, ExtMemError, IoSnapshot, Item, Key, MemDisk, MemoryBudget,
    Result, StorageBackend, Value,
};
use dxh_hashfn::{prefix_bucket, HashFn};

use crate::chain::{
    chain_collect, chain_delete, chain_lookup, chain_upsert, write_bucket, UpsertOutcome,
};
use crate::dictionary::ExternalDictionary;
use crate::layout::{LayoutInspect, LayoutSnapshot};

/// Configuration for [`ChainingTable`].
#[derive(Clone, Debug)]
pub struct ChainingConfig {
    /// Block capacity in items.
    pub b: usize,
    /// Internal memory budget in items.
    pub m: usize,
    /// Buckets at creation (also the shrink floor).
    pub initial_buckets: u64,
    /// Grow (double) when `len > max_load · nb · b`. Use `f64::INFINITY`
    /// for a fixed-size table (Knuth-style experiments).
    pub max_load: f64,
    /// Shrink (halve) when `len < min_load · nb · b` and `nb` is above the
    /// floor. `0.0` disables shrinking.
    pub min_load: f64,
}

impl ChainingConfig {
    /// Sensible defaults: 4 initial buckets, grow at load 0.8, shrink at
    /// load 0.05, seek-dominated accounting.
    pub fn new(b: usize, m: usize) -> Self {
        ChainingConfig { b, m, initial_buckets: 4, max_load: 0.8, min_load: 0.05 }
    }

    /// A fixed-size table with `buckets` buckets (no growth or shrink) —
    /// the configuration Knuth's §6.4 analysis describes.
    pub fn fixed(b: usize, m: usize, buckets: u64) -> Self {
        ChainingConfig { b, m, initial_buckets: buckets, max_load: f64::INFINITY, min_load: 0.0 }
    }

    /// Builder: sets the initial bucket count.
    pub fn initial_buckets(mut self, nb: u64) -> Self {
        self.initial_buckets = nb;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.b == 0 || self.m == 0 {
            return Err(ExtMemError::BadConfig("b and m must be positive".into()));
        }
        if self.initial_buckets == 0 {
            return Err(ExtMemError::BadConfig("need at least one bucket".into()));
        }
        if self.max_load.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ExtMemError::BadConfig("max_load must be positive".into()));
        }
        if self.min_load < 0.0 || self.min_load * 2.0 >= self.max_load.min(1e18) {
            return Err(ExtMemError::BadConfig(
                "min_load must be ≥ 0 and well below max_load".into(),
            ));
        }
        // Working memory: one bucket's worth of items during redistribution.
        if self.m < 4 * self.b + 8 {
            return Err(ExtMemError::BadConfig(format!(
                "chaining needs m ≥ 4b + 8 = {} items of working memory",
                4 * self.b + 8
            )));
        }
        Ok(())
    }
}

/// Hashing with chaining over an accounting disk.
pub struct ChainingTable<F: HashFn, B: StorageBackend = MemDisk> {
    disk: Disk<B>,
    budget: MemoryBudget,
    hash: F,
    base: BlockId,
    nb: u64,
    len: usize,
    cfg: ChainingConfig,
}

impl<F: HashFn> ChainingTable<F, MemDisk> {
    /// Builds a table over a fresh in-memory disk.
    pub fn new(cfg: ChainingConfig, hash: F) -> Result<Self> {
        let disk = mem_disk(cfg.b);
        Self::with_disk(disk, cfg, hash)
    }
}

impl<F: HashFn, B: StorageBackend> ChainingTable<F, B> {
    /// Builds a table over a caller-provided disk (e.g. a
    /// [`dxh_extmem::FileDisk`]).
    pub fn with_disk(mut disk: Disk<B>, cfg: ChainingConfig, hash: F) -> Result<Self> {
        cfg.validate()?;
        if disk.b() != cfg.b {
            return Err(ExtMemError::BadConfig("disk block size ≠ cfg.b".into()));
        }
        let mut budget = MemoryBudget::new(cfg.m);
        // Working buffers (redistribution scratch) + O(1) metadata words.
        budget.reserve(4 * cfg.b + 8)?;
        let base = disk.allocate_contiguous(cfg.initial_buckets as usize)?;
        Ok(ChainingTable { disk, budget, hash, base, nb: cfg.initial_buckets, len: 0, cfg })
    }

    /// Current number of buckets.
    pub fn buckets(&self) -> u64 {
        self.nb
    }

    /// Current load factor `len / (nb · b)`.
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / (self.nb as f64 * self.cfg.b as f64)
    }

    /// The underlying disk (for pool statistics etc.).
    pub fn disk(&self) -> &Disk<B> {
        &self.disk
    }

    /// Mutable disk access (the caching ablation syncs its cache through it).
    pub fn disk_mut(&mut self) -> &mut Disk<B> {
        &mut self.disk
    }

    #[inline]
    fn bucket_of(&self, key: Key) -> u64 {
        prefix_bucket(self.hash.hash64(key), self.nb)
    }

    #[inline]
    fn block_of_bucket(&self, q: u64) -> BlockId {
        BlockId(self.base.raw() + q)
    }

    fn maybe_resize(&mut self) -> Result<()> {
        let cap = self.nb as f64 * self.cfg.b as f64;
        if (self.len as f64) > self.cfg.max_load * cap {
            self.resize(self.nb * 2)
        } else if self.cfg.min_load > 0.0
            && self.nb > self.cfg.initial_buckets
            && (self.len as f64) < self.cfg.min_load * cap
        {
            self.resize(self.nb / 2)
        } else {
            Ok(())
        }
    }

    /// Rebuilds the table with `new_nb` buckets using the hierarchical
    /// sweep: `O(n/b + nb + new_nb)` I/Os total.
    fn resize(&mut self, new_nb: u64) -> Result<()> {
        debug_assert!(new_nb > 0);
        let new_base = self.disk.allocate_contiguous(new_nb as usize)?;
        let mut scratch: Vec<Item> = Vec::with_capacity(2 * self.cfg.b);
        if new_nb >= self.nb {
            // Growth: each old bucket q scatters into `factor` children.
            let factor = (new_nb / self.nb) as usize;
            debug_assert_eq!(new_nb % self.nb, 0);
            let mut children: Vec<Vec<Item>> = vec![Vec::new(); factor];
            for q in 0..self.nb {
                scratch.clear();
                let head = self.block_of_bucket(q);
                chain_collect(&mut self.disk, head, true, &mut scratch)?;
                for c in children.iter_mut() {
                    c.clear();
                }
                for &it in &scratch {
                    let child = prefix_bucket(self.hash.hash64(it.key), new_nb);
                    debug_assert!(child / factor as u64 == q);
                    children[(child - q * factor as u64) as usize].push(it);
                }
                for (j, c) in children.iter().enumerate() {
                    let id = BlockId(new_base.raw() + q * factor as u64 + j as u64);
                    if !c.is_empty() {
                        write_bucket(&mut self.disk, id, c)?;
                    }
                }
            }
        } else {
            // Shrink: `factor` old buckets gather into each new bucket.
            let factor = self.nb / new_nb;
            debug_assert_eq!(self.nb % new_nb, 0);
            for q in 0..new_nb {
                scratch.clear();
                for j in 0..factor {
                    let head = self.block_of_bucket(q * factor + j);
                    chain_collect(&mut self.disk, head, true, &mut scratch)?;
                }
                if !scratch.is_empty() {
                    write_bucket(&mut self.disk, BlockId(new_base.raw() + q), &scratch)?;
                }
            }
        }
        self.base = new_base;
        self.nb = new_nb;
        Ok(())
    }
}

impl<F: HashFn, B: StorageBackend> ExternalDictionary for ChainingTable<F, B> {
    fn insert(&mut self, key: Key, value: Value) -> Result<()> {
        check_key(key)?;
        let head = self.block_of_bucket(self.bucket_of(key));
        if chain_upsert(&mut self.disk, head, Item::new(key, value))? == UpsertOutcome::Inserted {
            self.len += 1;
            self.maybe_resize()?;
        }
        Ok(())
    }

    fn lookup(&mut self, key: Key) -> Result<Option<Value>> {
        let head = self.block_of_bucket(self.bucket_of(key));
        chain_lookup(&mut self.disk, head, key)
    }

    fn delete(&mut self, key: Key) -> Result<bool> {
        let head = self.block_of_bucket(self.bucket_of(key));
        let removed = chain_delete(&mut self.disk, head, key)?;
        if removed {
            self.len -= 1;
            self.maybe_resize()?;
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

impl<F: HashFn, B: StorageBackend> LayoutInspect for ChainingTable<F, B> {
    fn layout_snapshot(&mut self) -> Result<LayoutSnapshot> {
        let mut snap = LayoutSnapshot::default();
        for q in 0..self.nb {
            let mut cur = Some(self.block_of_bucket(q));
            while let Some(id) = cur {
                let blk = self.disk.backend_mut().read(id)?;
                let keys: Vec<Key> = blk.items().iter().map(|it| it.key).collect();
                cur = blk.next();
                snap.blocks.push((id, keys));
            }
        }
        Ok(snap)
    }

    fn address_of(&self, key: Key) -> Option<BlockId> {
        Some(self.block_of_bucket(self.bucket_of(key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxh_hashfn::IdealFn;

    fn table(b: usize, nb: u64) -> ChainingTable<IdealFn> {
        let cfg = ChainingConfig::new(b, 4096).initial_buckets(nb);
        ChainingTable::new(cfg, IdealFn::from_seed(42)).unwrap()
    }

    #[test]
    fn insert_lookup_delete_round_trip() {
        let mut t = table(8, 4);
        for k in 0..100u64 {
            t.insert(k, k * 3).unwrap();
        }
        assert_eq!(t.len(), 100);
        for k in 0..100u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k * 3));
        }
        assert_eq!(t.lookup(1000).unwrap(), None);
        for k in 0..50u64 {
            assert!(t.delete(k).unwrap());
        }
        assert_eq!(t.len(), 50);
        for k in 0..50u64 {
            assert_eq!(t.lookup(k).unwrap(), None);
        }
        for k in 50..100u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k * 3));
        }
    }

    #[test]
    fn upsert_replaces() {
        let mut t = table(8, 4);
        t.insert(7, 1).unwrap();
        t.insert(7, 2).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(7).unwrap(), Some(2));
    }

    #[test]
    fn tombstone_key_rejected() {
        let mut t = table(8, 4);
        assert!(t.insert(u64::MAX, 0).is_err());
    }

    #[test]
    fn growth_keeps_all_items_and_load_bounded() {
        let mut t = table(8, 2);
        for k in 0..2000u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.buckets() > 2, "table grew");
        assert!(t.load_factor() <= 0.81, "load bounded: {}", t.load_factor());
        for k in 0..2000u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k), "key {k} survived growth");
        }
    }

    #[test]
    fn shrink_reclaims_buckets() {
        let mut t = table(8, 2);
        for k in 0..2000u64 {
            t.insert(k, k).unwrap();
        }
        let grown = t.buckets();
        for k in 0..1995u64 {
            t.delete(k).unwrap();
        }
        assert!(t.buckets() < grown, "table shrank: {} -> {}", grown, t.buckets());
        for k in 1995..2000u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k));
        }
    }

    #[test]
    fn fixed_config_never_grows() {
        let cfg = ChainingConfig::fixed(4, 4096, 4);
        let mut t = ChainingTable::new(cfg, IdealFn::from_seed(1)).unwrap();
        for k in 0..500u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.buckets(), 4);
        assert!(t.load_factor() > 1.0, "overfull fixed table allowed via chains");
        for k in 0..500u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k));
        }
    }

    #[test]
    fn insert_cost_is_about_one_io_at_moderate_load() {
        // 4096 items into a fixed table at load 0.5 with b = 64:
        // chains are vanishingly rare, so cost/insert ≈ 1.
        let b = 64;
        let nb = 128; // capacity 8192
        let cfg = ChainingConfig::fixed(b, 4096, nb);
        let mut t = ChainingTable::new(cfg, IdealFn::from_seed(7)).unwrap();
        let e = t.disk.epoch();
        let n = 4096u64;
        for k in 0..n {
            t.insert(k, k).unwrap();
        }
        let ios = t.disk.since(&e).total();
        let per_insert = ios as f64 / n as f64;
        assert!(per_insert < 1.02, "amortized insert cost should be ≈ 1 I/O, got {per_insert}");
        assert!(per_insert >= 1.0, "cannot be below 1 without memory buffering");
    }

    #[test]
    fn successful_lookup_costs_about_one_io() {
        let b = 64;
        let cfg = ChainingConfig::fixed(b, 4096, 128);
        let mut t = ChainingTable::new(cfg, IdealFn::from_seed(9)).unwrap();
        for k in 0..4096u64 {
            t.insert(k, k).unwrap();
        }
        let e = t.disk.epoch();
        for k in 0..1024u64 {
            assert!(t.lookup(k * 4).unwrap().is_some());
        }
        let tq = t.disk.since(&e).total() as f64 / 1024.0;
        assert!(tq < 1.05, "tq ≈ 1 expected, got {tq}");
    }

    #[test]
    fn layout_snapshot_matches_len_and_addresses() {
        let mut t = table(4, 4);
        for k in 0..200u64 {
            t.insert(k, k).unwrap();
        }
        let snap = t.layout_snapshot().unwrap();
        assert_eq!(snap.total_items(), 200);
        assert!(snap.memory.is_empty(), "chaining keeps nothing in memory");
        // address_of points at a block that is the head of the key's chain;
        // the key is either there or in a chained block — check membership
        // across the bucket.
        for k in [0u64, 57, 199] {
            let addr = t.address_of(k).unwrap();
            // The key must exist somewhere in the snapshot.
            assert!(snap.blocks.iter().any(|(_, ks)| ks.contains(&k)));
            // And its address must be a live block.
            assert!(snap.blocks.iter().any(|(id, _)| *id == addr));
        }
    }

    #[test]
    fn memory_budget_is_charged_and_bounded() {
        let t = table(8, 4);
        assert!(t.memory_used() >= 8, "metadata charged");
        assert!(t.memory_used() <= 4096);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(ChainingConfig::new(0, 100).validate().is_err());
        assert!(ChainingConfig::new(8, 0).validate().is_err());
        let mut c = ChainingConfig::new(8, 4096);
        c.initial_buckets = 0;
        assert!(c.validate().is_err());
        let mut c = ChainingConfig::new(8, 4096);
        c.min_load = 0.5; // ≥ max_load / 2
        assert!(c.validate().is_err());
        assert!(ChainingConfig::new(64, 64).validate().is_err(), "m too small for working set");
    }

    #[test]
    fn works_on_file_disk() {
        use dxh_extmem::{FileDisk, IoCostModel};
        let cfg = ChainingConfig::new(8, 4096);
        let disk = Disk::new(FileDisk::temp(8).unwrap(), 8, IoCostModel::SeekDominated);
        let mut t = ChainingTable::with_disk(disk, cfg, IdealFn::from_seed(3)).unwrap();
        for k in 0..300u64 {
            t.insert(k, k + 1).unwrap();
        }
        for k in 0..300u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k + 1));
        }
    }

    #[test]
    fn resize_frees_old_region() {
        let mut t = table(8, 2);
        for k in 0..500u64 {
            t.insert(k, k).unwrap();
        }
        // Live blocks should be about nb (plus rare chains), not the sum of
        // all generations.
        let live = t.disk.live_blocks();
        assert!(live <= t.buckets() + 16, "old regions freed: live={live}, nb={}", t.buckets());
    }
}
