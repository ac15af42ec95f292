//! Blocked linear probing: Knuth's other classic external hash table.
//!
//! The table is a fixed contiguous region of `nb` blocks. An item with
//! hash bucket `q` is stored in the first non-full block of
//! `q, q+1, q+2, … (mod nb)`. Lookups scan the same sequence and stop at
//! the first non-full block — the "never-been-full" probe terminator —
//! so at load `α < 1` a successful lookup costs `1 + 2^{-Ω(b)}` I/Os.
//!
//! Deletion writes a tombstone (the reserved key [`dxh_extmem::KEY_TOMBSTONE`]) so
//! that probe sequences stay intact; tombstones are purged by a rebuild
//! when they accumulate. Capacity is fixed, as in Knuth's analysis — a
//! growable variant should use [`crate::ChainingTable`],
//! [`crate::ExtendibleTable`] or [`crate::LinearHashTable`].

use dxh_extmem::{
    check_key, mem_disk, BlockId, Disk, ExtMemError, IoSnapshot, Item, Key, MemDisk, MemoryBudget,
    Result, StorageBackend, Value,
};
use dxh_hashfn::{prefix_bucket, HashFn};

use crate::dictionary::ExternalDictionary;
use crate::layout::{LayoutInspect, LayoutSnapshot};

/// Configuration for [`LinearProbingTable`].
#[derive(Clone, Debug)]
pub struct LinearProbingConfig {
    /// Block capacity in items.
    pub b: usize,
    /// Internal memory budget in items.
    pub m: usize,
    /// Number of blocks in the probe region.
    pub buckets: u64,
    /// Rebuild (purging tombstones) when
    /// `tombstones > tombstone_rebuild_fraction · nb · b`.
    pub tombstone_rebuild_fraction: f64,
}

impl LinearProbingConfig {
    /// A region of `buckets` blocks of capacity `b`.
    pub fn new(b: usize, m: usize, buckets: u64) -> Self {
        LinearProbingConfig { b, m, buckets, tombstone_rebuild_fraction: 0.25 }
    }

    /// Sizes the region to hold `n` items at load factor `alpha`.
    #[cfg(test)]
    fn for_load(b: usize, m: usize, n: usize, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0);
        let buckets = ((n as f64 / (alpha * b as f64)).ceil() as u64).max(1);
        Self::new(b, m, buckets)
    }

    fn validate(&self) -> Result<()> {
        if self.b == 0 || self.m == 0 || self.buckets == 0 {
            return Err(ExtMemError::BadConfig("b, m, buckets must be positive".into()));
        }
        if self.m < 2 * self.b + 8 {
            return Err(ExtMemError::BadConfig(
                "linear probing needs m ≥ 2b + 8 working items".into(),
            ));
        }
        Ok(())
    }
}

/// Blocked linear probing over an accounting disk.
pub struct LinearProbingTable<F: HashFn, B: StorageBackend = MemDisk> {
    disk: Disk<B>,
    budget: MemoryBudget,
    hash: F,
    base: BlockId,
    nb: u64,
    live: usize,
    tombstones: usize,
    cfg: LinearProbingConfig,
}

enum ProbeStep<T> {
    Done(T),
    Continue,
}

impl<F: HashFn> LinearProbingTable<F, MemDisk> {
    /// Builds a table over a fresh in-memory disk.
    pub fn new(cfg: LinearProbingConfig, hash: F) -> Result<Self> {
        let disk = mem_disk(cfg.b);
        Self::with_disk(disk, cfg, hash)
    }
}

impl<F: HashFn, B: StorageBackend> LinearProbingTable<F, B> {
    /// Builds a table over a caller-provided disk.
    pub fn with_disk(mut disk: Disk<B>, cfg: LinearProbingConfig, hash: F) -> Result<Self> {
        cfg.validate()?;
        if disk.b() != cfg.b {
            return Err(ExtMemError::BadConfig("disk block size ≠ cfg.b".into()));
        }
        let mut budget = MemoryBudget::new(cfg.m);
        budget.reserve(2 * cfg.b + 8)?;
        let base = disk.allocate_contiguous(cfg.buckets as usize)?;
        Ok(LinearProbingTable {
            disk,
            budget,
            hash,
            base,
            nb: cfg.buckets,
            live: 0,
            tombstones: 0,
            cfg,
        })
    }

    /// Number of blocks in the probe region.
    pub fn buckets(&self) -> u64 {
        self.nb
    }

    /// Live-item load factor `live / (nb · b)`.
    pub fn load_factor(&self) -> f64 {
        self.live as f64 / (self.nb as f64 * self.cfg.b as f64)
    }

    /// Tombstones currently occupying slots.
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Disk<B> {
        &self.disk
    }

    /// Mutable disk access.
    pub fn disk_mut(&mut self) -> &mut Disk<B> {
        &mut self.disk
    }

    #[inline]
    fn start_bucket(&self, key: Key) -> u64 {
        prefix_bucket(self.hash.hash64(key), self.nb)
    }

    #[inline]
    fn block_at(&self, q: u64) -> BlockId {
        BlockId(self.base.raw() + q)
    }

    /// Rebuilds the region in place (fresh blocks, tombstones dropped).
    /// Costs `nb` reads + ~`n` combined I/Os for reinsertion; triggered
    /// only by heavy deletion (the fraction in the config).
    pub fn rebuild(&mut self) -> Result<()> {
        let old_base = self.base;
        let old_nb = self.nb;
        let new_base = self.disk.allocate_contiguous(old_nb as usize)?;
        self.base = new_base;
        self.live = 0;
        self.tombstones = 0;
        for q in 0..old_nb {
            let old_id = BlockId(old_base.raw() + q);
            let blk = self.disk.read(old_id)?;
            for &it in blk.items() {
                if !it.is_tombstone() {
                    self.probe_insert(it)?;
                }
            }
            self.disk.free(old_id)?;
        }
        Ok(())
    }

    fn probe_insert(&mut self, item: Item) -> Result<UpdateKind> {
        let start = self.start_bucket(item.key);
        for j in 0..self.nb {
            let id = self.block_at((start + j) % self.nb);
            let step = self.disk.update(id, |blk| {
                if blk.replace(item.key, item.value).is_some() {
                    return (true, ProbeStep::Done(UpdateKind::Replaced));
                }
                if !blk.is_full() {
                    blk.push(item).expect("checked not full");
                    return (true, ProbeStep::Done(UpdateKind::Inserted));
                }
                (false, ProbeStep::Continue)
            })?;
            if let ProbeStep::Done(kind) = step {
                if kind == UpdateKind::Inserted {
                    self.live += 1;
                }
                return Ok(kind);
            }
        }
        Err(ExtMemError::CapacityExhausted { len: self.live })
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum UpdateKind {
    Inserted,
    Replaced,
}

impl<F: HashFn, B: StorageBackend> ExternalDictionary for LinearProbingTable<F, B> {
    fn insert(&mut self, key: Key, value: Value) -> Result<()> {
        check_key(key)?;
        self.probe_insert(Item::new(key, value))?;
        Ok(())
    }

    fn lookup(&mut self, key: Key) -> Result<Option<Value>> {
        let start = self.start_bucket(key);
        for j in 0..self.nb {
            let id = self.block_at((start + j) % self.nb);
            let blk = self.disk.read(id)?;
            if let Some(v) = blk.find(key) {
                return Ok(Some(v));
            }
            if !blk.is_full() {
                return Ok(None); // never-full block terminates the probe
            }
        }
        Ok(None)
    }

    fn delete(&mut self, key: Key) -> Result<bool> {
        let start = self.start_bucket(key);
        for j in 0..self.nb {
            let id = self.block_at((start + j) % self.nb);
            let step = self.disk.update(id, |blk| {
                if let Some(pos) = blk.items().iter().position(|it| it.key == key) {
                    blk.items_mut()[pos] = Item::tombstone();
                    return (true, ProbeStep::Done(true));
                }
                if !blk.is_full() {
                    return (false, ProbeStep::Done(false));
                }
                (false, ProbeStep::Continue)
            })?;
            match step {
                ProbeStep::Done(true) => {
                    self.live -= 1;
                    self.tombstones += 1;
                    let cap = self.nb as f64 * self.cfg.b as f64;
                    if self.tombstones as f64 > self.cfg.tombstone_rebuild_fraction * cap {
                        self.rebuild()?;
                    }
                    return Ok(true);
                }
                ProbeStep::Done(false) => return Ok(false),
                ProbeStep::Continue => {}
            }
        }
        Ok(false)
    }

    fn len(&self) -> usize {
        self.live
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

impl<F: HashFn, B: StorageBackend> LayoutInspect for LinearProbingTable<F, B> {
    fn layout_snapshot(&mut self) -> Result<LayoutSnapshot> {
        let mut snap = LayoutSnapshot::default();
        for q in 0..self.nb {
            let id = self.block_at(q);
            let blk = self.disk.backend_mut().read(id)?;
            let keys: Vec<Key> =
                blk.items().iter().filter(|it| !it.is_tombstone()).map(|it| it.key).collect();
            snap.blocks.push((id, keys));
        }
        Ok(snap)
    }

    fn address_of(&self, key: Key) -> Option<BlockId> {
        Some(self.block_at(self.start_bucket(key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxh_hashfn::IdealFn;

    fn table(b: usize, nb: u64) -> LinearProbingTable<IdealFn> {
        LinearProbingTable::new(LinearProbingConfig::new(b, 4096, nb), IdealFn::from_seed(5))
            .unwrap()
    }

    #[test]
    fn round_trip() {
        let mut t = table(4, 64);
        for k in 0..150u64 {
            t.insert(k, k + 7).unwrap();
        }
        for k in 0..150u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k + 7));
        }
        assert_eq!(t.lookup(999).unwrap(), None);
    }

    #[test]
    fn upsert_replaces_without_growth() {
        let mut t = table(4, 8);
        t.insert(1, 1).unwrap();
        t.insert(1, 2).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(1).unwrap(), Some(2));
    }

    #[test]
    fn delete_uses_tombstones_and_keeps_probe_chains_intact() {
        // Force collisions with a tiny table: items overflow into later
        // blocks; deleting an early item must not cut lookups of later ones.
        let mut t = table(2, 4);
        for k in 0..6u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.delete(0).unwrap());
        assert_eq!(t.tombstones(), 1);
        for k in 1..6u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k), "key {k} reachable past tombstone");
        }
    }

    #[test]
    fn capacity_exhaustion_is_reported() {
        let mut t = table(2, 2);
        for k in 0..4u64 {
            t.insert(k, k).unwrap();
        }
        let err = t.insert(99, 99).unwrap_err();
        assert!(matches!(err, ExtMemError::CapacityExhausted { len: 4 }));
    }

    #[test]
    fn lookup_of_absent_key_in_full_table_terminates() {
        let mut t = table(2, 2);
        for k in 0..4u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.lookup(555).unwrap(), None);
    }

    #[test]
    fn rebuild_purges_tombstones() {
        let mut t = table(4, 16);
        for k in 0..40u64 {
            t.insert(k, k).unwrap();
        }
        for k in 0..20u64 {
            t.delete(k).unwrap();
        }
        // The 17th delete crosses the 25%-of-64 threshold and triggers a
        // rebuild; only the deletes after it leave fresh tombstones.
        assert!(t.tombstones() <= 3, "rebuild purged tombstones: {}", t.tombstones());
        for k in 20..40u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k));
        }
        assert_eq!(t.len(), 20);
    }

    #[test]
    fn insert_and_lookup_cost_about_one_io_at_half_load() {
        let b = 64;
        let cfg = LinearProbingConfig::for_load(b, 4096, 4096, 0.5);
        let mut t = LinearProbingTable::new(cfg, IdealFn::from_seed(11)).unwrap();
        let e = t.disk.epoch();
        for k in 0..4096u64 {
            t.insert(k, k).unwrap();
        }
        let tu = t.disk.since(&e).total() as f64 / 4096.0;
        assert!(tu < 1.1, "insert cost ≈ 1, got {tu}");
        let e = t.disk.epoch();
        for k in 0..1024u64 {
            assert!(t.lookup(k * 4).unwrap().is_some());
        }
        let tq = t.disk.since(&e).total() as f64 / 1024.0;
        assert!(tq < 1.1, "query cost ≈ 1, got {tq}");
    }

    #[test]
    fn wrap_around_probing_works() {
        // Keys that hash near the end of the region must wrap to block 0.
        let mut t = table(2, 3);
        // Fill everything; some inserts must wrap.
        for k in 0..6u64 {
            t.insert(k, k).unwrap();
        }
        for k in 0..6u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k));
        }
    }

    #[test]
    fn layout_snapshot_excludes_tombstones() {
        let mut t = table(4, 8);
        for k in 0..10u64 {
            t.insert(k, k).unwrap();
        }
        t.delete(3).unwrap();
        let snap = t.layout_snapshot().unwrap();
        assert_eq!(snap.total_items(), 9);
        assert!(!snap.blocks.iter().any(|(_, ks)| ks.contains(&3)));
    }

    #[test]
    fn for_load_sizes_correctly() {
        let cfg = LinearProbingConfig::for_load(64, 4096, 1000, 0.5);
        assert_eq!(cfg.buckets, (1000.0f64 / 32.0).ceil() as u64);
    }

    #[test]
    fn reserved_key_rejected() {
        let mut t = table(4, 4);
        assert!(t.insert(u64::MAX, 1).is_err());
    }
}
