//! Theorem 2: the bootstrapped hash table — the paper's main upper bound.
//!
//! The structure keeps a big on-disk hash table `Ĥ` holding at least a
//! `1 − 1/β` fraction of all items, plus a logarithmic-method side
//! structure for the most recent insertions. Every `≈ |Ĥ|/β` insertions
//! the side structure is merged into `Ĥ` by one synchronized scan —
//! in place (one combined I/O per receiving bucket) in the steady state,
//! with a rebuild into a 2×-slack region whenever the load factor would
//! exceed 1/2 (so it lives in `[1/4, 1/2]`). Queries go `H0` (free) →
//! `Ĥ` (1 I/O) → side levels, **largest first**, so the expected
//! successful cost is
//!
//! ```text
//! (1 + 1/2^Ω(b)) · ( 1·(1 − 1/β) + (1/β)·(2·1/2 + 3·1/4 + …) ) = 1 + O(1/β).
//! ```
//!
//! With `β = b^c` (Theorem 2) insertion costs `O(β/b + (γ/b)·log(n/m)) =
//! O(b^(c−1))` amortized and queries `1 + O(1/b^c)` — the upper curve of
//! Figure 1's `c < 1` regime.
//!
//! ## Deviation from the paper (documented)
//!
//! The paper fixes the batch size at `2^(i−1)·m/β` during round `i`; we
//! recompute `batch = max(1, |Ĥ|/β)` after every merge. The two agree
//! within a factor of 2 everywhere, and the invariant that matters for
//! the query bound — the side structure never holds more than a `1/β`
//! fraction of the items — holds exactly.

use dxh_extmem::{
    mem_disk, BlockId, Disk, ExtMemError, IoSnapshot, Key, MemDisk, Result, StorageBackend, Value,
};
use dxh_hashfn::{prefix_bucket, HashFn};
use dxh_tables::{chain_lookup, ExternalDictionary, LayoutInspect, LayoutSnapshot};

use crate::config::CoreConfig;
use crate::log_method::LogMethodTable;
use crate::stream::{build_fresh_region, merge_in_place, MergeCursor, Region, Source};

/// Theorem 2's dynamic hash table: a [`LogMethodTable`] — the side
/// structure, with `H0`, its levels, the one accounted disk and the
/// memory budget — plus the big table `Ĥ` on that disk.
///
/// ### Semantics
///
/// Keys are expected to be inserted **once** (the paper's model: `n`
/// distinct random items). Re-inserting a key is permitted — the merge
/// machinery deduplicates, newest copy winning — but until the next merge
/// a lookup may see the older copy in `Ĥ` before the newer one in a side
/// level (queries check `Ĥ` first to keep `tq ≈ 1`). Deletions are
/// rejected; see the crate docs.
pub struct BootstrappedTable<B: StorageBackend = MemDisk> {
    side: LogMethodTable<B>,
    hat: Option<Region>,
    /// Merge when the side structure reaches this many items.
    batch_size: usize,
    merges: u64,
}

impl BootstrappedTable {
    /// Builds a table over a fresh in-memory disk with an ideal hash
    /// function derived from `seed`.
    pub fn new(cfg: CoreConfig, seed: u64) -> Result<Self> {
        Self::new_on(mem_disk(cfg.b), cfg, seed)
    }
}

impl<B: StorageBackend> BootstrappedTable<B> {
    /// Builds a table over a caller-provided disk (any backend) with an
    /// ideal hash function derived from `seed` — the backend-generic twin
    /// of [`BootstrappedTable::new`].
    pub fn new_on(disk: Disk<B>, cfg: CoreConfig, seed: u64) -> Result<Self> {
        // The paper's "first m items" bootstrap.
        let batch_size = cfg.m.max(1);
        // `Ĥ`'s region, the batch size and the merge count: 8 words more
        // than the side structure's own metadata, reserved before its
        // level filters are sized from the idle rest.
        let side = LogMethodTable::reserving(disk, cfg, seed, 8)?;
        Ok(BootstrappedTable { side, hat: None, batch_size, merges: 0 })
    }

    /// Items in the big table `Ĥ`.
    pub fn hat_items(&self) -> usize {
        self.hat.as_ref().map_or(0, |r| r.items)
    }

    /// Items in the side (logarithmic-method) structure.
    pub fn side_items(&self) -> usize {
        self.side.len()
    }

    /// The fraction of items resident in `Ĥ` (the paper's `1 − 1/β`
    /// invariant target); 0 before the first merge.
    pub fn hat_fraction(&self) -> f64 {
        let total = self.len();
        if total == 0 {
            0.0
        } else {
            self.hat_items() as f64 / total as f64
        }
    }

    /// Completed merges into `Ĥ`.
    pub fn merge_count(&self) -> u64 {
        self.merges
    }

    /// Current merge trigger (≈ `|Ĥ|/β`).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Disk<B> {
        self.side.disk()
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        self.side.config()
    }

    /// Merges the entire side structure into `Ĥ`.
    ///
    /// Steady state: an **in-place** synchronized scan — one combined
    /// read-modify-write per receiving `Ĥ` bucket (footnote 2 makes that
    /// one I/O) plus the side-region reads. When the merged total would
    /// push `Ĥ` past load 1/2, `Ĥ` is instead rebuilt into a fresh region
    /// sized for load 1/4, so rebuild traffic amortizes to `O(1/b)` per
    /// insertion and the load factor lives in `[1/4, 1/2]`.
    fn merge_into_hat(&mut self) -> Result<()> {
        let total = self.len();
        if total == 0 {
            return Ok(());
        }
        let b = self.side.config().b;
        let needs_rebuild = self.hat.is_none_or(|hat| 2 * total > hat.buckets as usize * b);
        let mut sources = self.side.take_all_sources();
        let (hash, disk) = (&self.side.hash, &mut self.side.disk);
        if needs_rebuild {
            // Fresh region with slack: load 1/4 right after the rebuild.
            let nb_new = (4 * total).div_ceil(b).max(1) as u64;
            if let Some(r) = self.hat.take() {
                sources.push(Source::from_region(r)); // oldest, lowest precedence
            }
            // `purge = false`: the bootstrapped table rejects deletion, so
            // no deletion marker can reach an Ĥ merge.
            // Ĥ keeps no filter: its one probe is the point of the table.
            let cursor = MergeCursor::new(hash, sources, nb_new, false);
            let (region, _stats) = build_fresh_region(disk, cursor, None, None)?;
            self.hat = Some(region);
        } else {
            let hat = self.hat.as_mut().expect("checked above");
            let cursor = MergeCursor::new(hash, sources, hat.buckets, false);
            merge_in_place(disk, cursor, hat)?;
        }
        self.merges += 1;
        self.batch_size = ((self.hat_items() as f64 / self.config().beta) as usize).max(1);
        Ok(())
    }
}

impl<B: StorageBackend> ExternalDictionary for BootstrappedTable<B> {
    fn insert(&mut self, key: Key, value: Value) -> Result<()> {
        self.side.insert(key, value)?;
        if self.side.len() >= self.batch_size {
            self.merge_into_hat()?;
        }
        Ok(())
    }

    fn lookup(&mut self, key: Key) -> Result<Option<Value>> {
        // H0: free (memory).
        if let Some(v) = self.side.h0.lookup(self.side.h0_bucket(key), key) {
            return Ok(Some(v));
        }
        // Ĥ first — this is where tq ≈ 1 comes from.
        if let Some(hat) = &self.hat {
            let q = prefix_bucket(self.side.hash.hash64(key), hat.buckets);
            if let Some(v) = chain_lookup(&mut self.side.disk, hat.block_of(q), key)? {
                return Ok(Some(v));
            }
        }
        // Side levels, largest (deepest) first.
        self.side.lookup_levels_deepest_first(key)
    }

    /// Deletion is outside the paper's scope; always an error.
    fn delete(&mut self, _key: Key) -> Result<bool> {
        Err(ExtMemError::BadConfig("buffered tables do not support deletion (see paper §1)".into()))
    }

    fn len(&self) -> usize {
        self.side.len() + self.hat_items()
    }

    fn disk_stats(&self) -> IoSnapshot {
        self.side.disk_stats()
    }

    fn memory_used(&self) -> usize {
        self.side.memory_used()
    }

    fn block_capacity(&self) -> usize {
        self.side.block_capacity()
    }
}

impl<B: StorageBackend> LayoutInspect for BootstrappedTable<B> {
    fn layout_snapshot(&mut self) -> Result<LayoutSnapshot> {
        let mut snap = LayoutSnapshot { memory: self.side.h0.keys(), blocks: Vec::new() };
        if let Some(hat) = &self.hat {
            hat.inspect(&mut self.side.disk, |_, id, blk| {
                snap.blocks.push((id, blk.items().iter().map(|it| it.key).collect()));
            })?;
        }
        self.side.snapshot_blocks(&mut snap.blocks)?;
        Ok(snap)
    }

    fn address_of(&self, key: Key) -> Option<BlockId> {
        // The natural f: the Ĥ bucket (covers a 1 − 1/β fraction of items);
        // before the first merge, the side structure's deepest level.
        match &self.hat {
            Some(hat) => Some(hat.block_of(prefix_bucket(self.side.hash.hash64(key), hat.buckets))),
            None => self.side.address_of(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(b: usize, m: usize, c: f64) -> CoreConfig {
        CoreConfig::theorem2(b, m, c).unwrap()
    }

    #[test]
    fn round_trip() {
        let mut t = BootstrappedTable::new(cfg(8, 128, 0.5), 1).unwrap();
        for k in 0..2000u64 {
            t.insert(k, k * 3).unwrap();
        }
        assert_eq!(t.len(), 2000);
        for k in 0..2000u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k * 3), "key {k}");
        }
        assert_eq!(t.lookup(99_999).unwrap(), None);
    }

    #[test]
    fn hat_holds_most_items() {
        let c = cfg(16, 256, 0.5); // β = 4
        let mut t = BootstrappedTable::new(c.clone(), 2).unwrap();
        for k in 0..20_000u64 {
            t.insert(k, k).unwrap();
            // After the bootstrap phase the side structure must stay below
            // ~|total|/β + 1 batch.
            if t.merge_count() > 0 {
                assert!(
                    t.side_items() <= t.batch_size(),
                    "side {} exceeds batch {}",
                    t.side_items(),
                    t.batch_size()
                );
            }
        }
        assert!(
            t.hat_fraction() >= 1.0 - 1.0 / c.beta - 0.01,
            "Ĥ fraction {} < 1 − 1/β = {}",
            t.hat_fraction(),
            1.0 - 1.0 / c.beta
        );
    }

    #[test]
    fn hat_load_factor_stays_at_most_half() {
        let mut t = BootstrappedTable::new(cfg(8, 128, 0.5), 3).unwrap();
        for k in 0..5000u64 {
            t.insert(k, k).unwrap();
            if let Some(hat) = &t.hat {
                let load = hat.items as f64 / (hat.buckets as f64 * 8.0);
                assert!(load <= 0.5 + 1e-9, "Ĥ load {load}");
            }
        }
    }

    #[test]
    fn insertions_cost_o_of_one() {
        let b = 64;
        let m = 1024;
        let mut t = BootstrappedTable::new(cfg(b, m, 0.5), 4).unwrap();
        let n = 60_000u64;
        for k in 0..n {
            t.insert(k, k).unwrap();
        }
        let tu = t.total_ios() as f64 / n as f64;
        // Theorem 2: O(b^(c-1)) = O(1/8) plus log-method noise. Well below 1.
        assert!(tu < 0.9, "tu = {tu} should be o(1)");
    }

    #[test]
    fn queries_cost_about_one_io() {
        let b = 64;
        let m = 1024;
        let mut t = BootstrappedTable::new(cfg(b, m, 0.5), 5).unwrap();
        let n = 40_000u64;
        for k in 0..n {
            t.insert(k, k).unwrap();
        }
        let e = t.disk().epoch();
        let samples = 2000u64;
        for i in 0..samples {
            let k = (i * 7919) % n; // deterministic spread over inserted keys
            assert!(t.lookup(k).unwrap().is_some());
        }
        let tq = t.disk().since(&e).total() as f64 / samples as f64;
        // 1 + O(1/β) with β = 8: comfortably under 1.5.
        assert!(tq < 1.5, "tq = {tq} should be ≈ 1");
        assert!(tq >= 0.9, "almost every query must touch disk: {tq}");
    }

    #[test]
    fn beta_trades_insert_cost_for_query_cost() {
        let run = |c: f64| {
            let mut t = BootstrappedTable::new(cfg(64, 1024, c), 6).unwrap();
            let n = 30_000u64;
            for k in 0..n {
                t.insert(k, k).unwrap();
            }
            let tu = t.total_ios() as f64 / n as f64;
            let e = t.disk().epoch();
            for i in 0..1000u64 {
                let _ = t.lookup((i * 7919) % n).unwrap();
            }
            let tq = t.disk().since(&e).total() as f64 / 1000.0;
            (tu, tq)
        };
        let (tu_lo, tq_lo) = run(0.25); // small β: cheap inserts, worse queries
        let (tu_hi, tq_hi) = run(0.75); // large β: pricier inserts, better queries
        assert!(tu_lo < tu_hi, "tu: c=0.25 {tu_lo} < c=0.75 {tu_hi}");
        assert!(tq_lo >= tq_hi - 0.05, "tq: c=0.25 {tq_lo} ≥ c=0.75 {tq_hi}");
    }

    #[test]
    fn side_structure_tracks_the_carry_model() {
        use crate::log_method::carry_model::CarryModel;
        // Tiny blocks chain buckets on most merges and leave no room for
        // a level filter; b = 8, m = 1024 filters four levels at γ = 2.
        for (b, m, steps) in [(4, 96, 8_000u64), (8, 1024, 40_000)] {
            for gamma in [2u64, 4, 8] {
                // β = 2: the side structure grows to half of Ĥ between
                // merges, deep enough to carry through several levels.
                let c = CoreConfig::custom(b, m, gamma, 2.0).unwrap();
                let mut t = BootstrappedTable::new(c.clone(), 20 + gamma).unwrap();
                assert!(t.memory_used() <= c.m, "the filter reservation fits in m");
                let mut model = CarryModel::new(c);
                let (mut deepest, mut next_key) = (0, 0u64);
                for step in 0..steps {
                    // One op in four re-inserts an earlier key (same value:
                    // Ĥ-first lookups may serve the older copy until a merge).
                    let key = if step % 4 == 3 { step / 2 } else { next_key };
                    next_key += u64::from(key == next_key);
                    let merges = t.merge_count();
                    t.insert(key, key * 3).unwrap();
                    model.put(key, key * 3);
                    if t.merge_count() > merges {
                        model.drain();
                    }
                    let when = format!("b = {b}, γ = {gamma}, step {step}");
                    assert_eq!(t.side.level_items(), model.level_items(), "{when}");
                    t.side.assert_levels_within_fill(&when);
                    t.side.assert_filters_follow_the_plan(usize::MAX, &when);
                    deepest = deepest.max(t.side.levels.iter().flatten().count());
                    // Mid-stream and at the end: side levels occupied,
                    // filters consulted deepest-first after an Ĥ miss.
                    if (step + 1) % (steps / 8) == 0 {
                        for key in 0..next_key {
                            assert_eq!(t.lookup(key).unwrap(), Some(key * 3), "{when}, key {key}");
                        }
                        assert_eq!(t.lookup(u64::MAX - step).unwrap(), None, "{when}");
                    }
                }
                assert!(deepest >= 2, "b = {b}, γ = {gamma}: the side structure reached past H1");
                assert!(t.merge_count() >= 4, "b = {b}, γ = {gamma}: {} merges", t.merge_count());
                let filtered = t.side.filter_plan().levels();
                assert_eq!(filtered > 0, m == 1024, "b = {b}, γ = {gamma}: {filtered} filters");
                assert_eq!(t.side.filter_stats().skipped > 0, filtered > 0, "b = {b}, γ = {gamma}");
            }
        }
        let c = CoreConfig::custom(8, 1024, 2, 2.0).unwrap();
        assert_eq!(BootstrappedTable::new(c, 1).unwrap().side.filter_plan().levels(), 4);
    }

    #[test]
    fn the_side_structure_rebuilds_a_deduplicated_level_where_it_is() {
        use crate::log_method::carry_model::CarryModel;
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        // Upserts over a universe smaller than H2's capacity, behind a
        // prefix of distinct keys: Ĥ must be large for the side structure
        // to live through six flushes between two merges (β = 2: it grows
        // to half of Ĥ). The third flush builds H2 around ≈ 2.3 H0s of
        // physical items, which deduplicate to at most the universe;
        // three flushes later the same ≈ 2.3 H0s arrive again — within
        // the level's capacity (4 H0s) — and H2 is read and rebuilt with
        // them, which distinct keys at γ = 2 never do past H1.
        for (b, m, distinct, universe, steps) in
            [(64, 4096, 60_000u64, 3_000u64, 100_000u64), (4, 96, 1_500, 70, 3_000)]
        {
            let c = CoreConfig::custom(b, m, 2, 2.0).unwrap();
            let mut t = BootstrappedTable::new(c.clone(), 60 + b as u64).unwrap();
            let mut model = CarryModel::new(c);
            let mut inserted = std::collections::HashSet::new();
            let mut rng = StdRng::seed_from_u64(b as u64);
            let (mut rebuilt_past_h1, mut before) = (0, t.side.level_items());
            for step in 0..distinct + steps {
                // Re-inserts carry the same value: Ĥ-first lookups may
                // serve the older copy until a merge.
                let key = if step < distinct { universe + step } else { rng.next_u64() % universe };
                let merges = t.merge_count();
                t.insert(key, key * 3).unwrap();
                model.put(key, key * 3);
                inserted.insert(key);
                if t.merge_count() > merges {
                    model.drain();
                }
                let when = format!("b = {b}, step {step}");
                let after = t.side.level_items();
                assert_eq!(after, model.level_items(), "{when}");
                t.side.assert_levels_within_fill(&when);
                assert_eq!(t.lookup(key).unwrap(), Some(key * 3), "{when}");
                // Right after a flush (not a merge into Ĥ) into `dst`.
                let dst = (1..after.len()).find(|&k| after[k] > 0);
                if let (0, Some(dst)) = (after[0], dst) {
                    let occupied = before.get(dst).is_some_and(|&n| n > 0);
                    rebuilt_past_h1 += usize::from(dst >= 2 && occupied);
                }
                before = after;
            }
            assert!(rebuilt_past_h1 >= 2, "b = {b}: no flush stopped at an occupied level past H1");
            for key in 0..universe + distinct {
                let expect = inserted.contains(&key).then_some(key * 3);
                assert_eq!(t.lookup(key).unwrap(), expect, "b = {b}, key {key}");
            }
        }
    }

    #[test]
    fn delete_is_rejected() {
        let mut t = BootstrappedTable::new(cfg(8, 128, 0.5), 7).unwrap();
        t.insert(1, 1).unwrap();
        assert!(t.delete(1).is_err());
    }

    #[test]
    fn the_deletion_marker_is_refused_as_a_value() {
        use crate::facade::{DynamicHashTable, TradeoffTarget};
        // `u64::MAX` marks a deletion. Taken as a value it would answer
        // from `H0`, then be purged as a marker by the next flush into
        // the deepest side level, and the key with it.
        let target = |t| DynamicHashTable::for_target(t, 8, 128, 1).unwrap();
        for mut t in [
            DynamicHashTable::Boot(BootstrappedTable::new(cfg(8, 128, 0.5), 1).unwrap()),
            target(TradeoffTarget::InsertOptimal { c: 0.5 }),
            target(TradeoffTarget::Boundary { eps: 0.5 }),
        ] {
            let refused = t.insert(1, u64::MAX);
            assert!(matches!(refused, Err(ExtMemError::BadConfig(_))), "{}: {refused:?}", t.name());
            assert_eq!(t.lookup(1).unwrap(), None, "{}", t.name());
            t.insert(1, 7).unwrap();
            for k in 2..5_002u64 {
                t.insert(k, k).unwrap();
            }
            assert_eq!(t.lookup(1).unwrap(), Some(7), "{}", t.name());
        }
    }

    #[test]
    fn the_side_structure_leaves_h_hat_its_words_before_the_filters() {
        // `Ĥ`'s region, the batch size and the merge count take 8 words
        // beside the side structure's own, reserved before the level
        // filters are sized: the plan gets 8 fewer than a plain Lemma 5
        // table's at the same (b, m, γ), and the budget ends where it did
        // when the bootstrapped table kept a budget of its own.
        let plain = LogMethodTable::new(CoreConfig::lemma5(64, 4096, 2).unwrap(), 42).unwrap();
        let mut t = BootstrappedTable::new(cfg(64, 4096, 0.5), 42).unwrap();
        assert_eq!((t.side.filter_plan().spare(), plain.filter_plan().spare()), (1_768, 1_776));
        for k in 0..50_000u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.memory_used(), 3_968);
    }

    #[test]
    fn layout_accounts_for_every_item_copy() {
        let mut t = BootstrappedTable::new(cfg(8, 128, 0.5), 8).unwrap();
        for k in 0..1500u64 {
            t.insert(k, k).unwrap();
        }
        let snap = t.layout_snapshot().unwrap();
        // Insert-only with distinct keys: no duplicates anywhere.
        assert_eq!(snap.total_items(), 1500);
    }

    #[test]
    fn address_of_points_at_hat_for_merged_items() {
        let mut t = BootstrappedTable::new(cfg(8, 128, 0.5), 9).unwrap();
        for k in 0..1000u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.merge_count() > 0);
        // Early keys are in Ĥ; their address must contain them (fast zone).
        let mut in_fast = 0;
        for k in 0..100u64 {
            let addr = t.address_of(k).unwrap();
            let blk = t.side.disk.backend_mut().read(addr).unwrap();
            if blk.contains(k) {
                in_fast += 1;
            }
        }
        assert!(in_fast >= 90, "most early keys answerable in 1 I/O: {in_fast}/100");
    }

    #[test]
    fn reinserted_key_wins_after_merge() {
        let c = cfg(8, 128, 0.5);
        let beta = c.beta;
        let mut t = BootstrappedTable::new(c, 10).unwrap();
        for k in 0..500u64 {
            t.insert(k, 1).unwrap();
        }
        t.insert(42, 2).unwrap();
        // Force enough inserts to trigger a merge, which dedups newest-first.
        let need = (t.hat_items() as f64 / beta) as u64 + 50;
        for k in 10_000..10_000 + need {
            t.insert(k, 0).unwrap();
        }
        assert_eq!(t.lookup(42).unwrap(), Some(2), "merge applied newest-wins");
    }

    #[test]
    fn works_on_file_disk() {
        use dxh_extmem::{FileDisk, IoCostModel};
        let c = cfg(8, 128, 0.5);
        let disk = Disk::new(FileDisk::temp(8).unwrap(), 8, IoCostModel::SeekDominated);
        let mut t = BootstrappedTable::new_on(disk, c, 11).unwrap();
        for k in 0..800u64 {
            t.insert(k, k).unwrap();
        }
        for k in 0..800u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k));
        }
    }
}
