//! Lemma 5: the logarithmic method applied to external hashing.
//!
//! ## Deviation from the paper (documented)
//!
//! Lemma 5's `tq = O(log_γ(n/m))` counts one probe per non-empty level.
//! Here the first `L` levels each keep an in-memory Bloom filter
//! ([`crate::filter`]), and a probe skips a level whose filter rules the
//! key out, so a lookup of a key resident in `H_k` costs in expectation
//!
//! ```text
//! 1 + Σ fp_j over filtered non-empty levels j < k
//!   + #{ unfiltered non-empty levels j < k }
//! ```
//!
//! block reads instead of one per non-empty level down to `k`, where
//! `fp_j` is what `H_j`'s filter is designed for at its item count
//! ([`LogMethodTable::level_filter_held`]), and a level without one
//! counts as unfiltered. The memory is not new: the construction
//! reserves `m/2 + O(b)` of its budget and needs the other half only for
//! the transient buffers of a carry (`2·j·b` items while landing in
//! `H_j`), so the filters live in the idle rest and are charged to the
//! same [`MemoryBudget`]. [`FilterPlan`] cuts it into one share per
//! level `H_1 … H_L`, so that shares plus buffers fit at every landing
//! depth; each share's `fp_j` is designed in proportion to its level's
//! capacity, which minimizes `Σ fp_j` for the memory spent: a small
//! shallow level — probed by every lookup that goes deeper — gets the
//! most bits a key. A share is busy only while its level exists, so a
//! level **borrows** the shares of the empty levels between it and the
//! nearest non-empty level above, as far as the buffers of the merge that
//! builds it leave room — one rule, [`FilterPlan::segments`], for a
//! flush, a reopen and compaction alike — and a flush takes each loan
//! back, with no I/O, when the loan's own level is built again
//! ([`LogMethodTable::flush`]): each share has at most one holder, and the
//! reservation is the plan's. `tu` is untouched: filters change which
//! blocks a lookup reads, never what a flush reads or writes. They are
//! derived state and never persisted; a table rebuilt around persisted
//! levels re-reads its filtered levels once (accounted, through the
//! bounded [`Region::walk`]) to rebuild its writer's filters there, and
//! one that merges itself into a single level
//! ([`LogMethodTable::merge_into_level`], compaction) fills that level's
//! filter as it writes the level.
//!
//! Lemma 5 also speaks of `H_k` as a table of `γ^k·m/b` buckets held at
//! load ≤ 1/2. It needs that slack because its levels keep receiving
//! in-place merges: a merge adds to buckets that must not overflow, and
//! the lemma's `O(1)` per bucket touched rests on them not chaining.
//! Here no disk level is ever written into. A flush that stops at an
//! `H_k` with capacity for what is coming reads `H_k` with the carried
//! levels and builds all of it into a fresh region
//! ([`LogMethodTable::flush`] — one [`MergeCursor`] over `H0` and those
//! levels, written out by `build_fresh_region`; compaction is the same
//! pass over every level at once), so every level is the *static* table
//! the paper opens on — written once, probed, read once
//! more when a flush takes it — and Knuth's bucketed table answers in
//! `1 + 1/2^Ω(b)` I/Os at any constant load below 1. Levels are
//! therefore sized by the `x` items landing in them, not by their
//! capacity, at the **sealed fill**
//! [`CoreConfig::sealed_fill`] `λ(b) = max(⌈b/2⌉, b − ⌈2√b⌉)` items per
//! bucket ([`CoreConfig::fresh_level_buckets`]; 48 of 64, so a full level
//! takes ⅔ of the full geometry's blocks), and the bucket that draws more
//! than `b` chains one block like any bucket of this crate. The price is
//! `dxh_analysis::knuth`'s: `overflow_tail(64, ¾)` = 1.1 % of buckets
//! chain, one extra read for a probe that misses in such a bucket or hits
//! in its chain block, one extra write and read per chain block per
//! flush that takes the level. Where the paper's footnote 2 prices a
//! merge into `H_k` at one combined I/O per receiving bucket, a rebuild
//! reads the old region and writes the new one — both dense, so at
//! `γ = 2` the second `H0` to reach `H1` costs 43 reads and 86 writes
//! where the in-place merge touched 128 blocks. Which levels are
//! occupied, and so every lookup's level sequence, are exactly as at the
//! full geometry: the carry consults capacities alone.
//!
//! The paper addresses a level as `(base, bucket)` in one unbounded
//! array of blocks and says nothing of where the array lives. Under a
//! [`crate::KvStore`] a level is a **file**: the contiguous run a flush
//! allocates for its destination is a fresh file of exactly that many
//! blocks (`crate::LevelFiles`; a block id is `file << 32 | slot`, so
//! the address function is still `base + bucket`, O(1) words), the
//! blocks a flush frees as it reads a level are that level's file on
//! its way out, and nothing is ever recycled. The model's counts do not
//! see the difference — a block read is a block read — but the disk
//! does: it holds the live levels and nothing else, where one shared
//! array had to find room for a destination beside its still-live
//! sources and kept the high-water mark that left (twice the largest
//! level, for good).
//!
//! Lemma 5 moves `H0` to disk only once it is full, and says nothing of
//! durability. A [`crate::KvStore`] commit must make `H0` durable too,
//! and does it with an **image**, not a migration
//! ([`LogMethodTable::write_memory_image`]): `H0`'s items packed `b` to a
//! block into a file of their own, read back only by a reopen. `H0`
//! stays where it is, so a commit costs `⌈|H0|/b⌉` block writes and
//! never a migration, and the levels a store holds after `n` inserts are
//! the model's at that `n`, whatever its commit cadence.

use dxh_extmem::{
    check_key, check_value, mem_disk, Block, BlockId, Disk, ExtMemError, IoSnapshot, Item, Key,
    MemDisk, MemoryBudget, Result, StorageBackend, Value, VALUE_TOMBSTONE,
};
use dxh_hashfn::{prefix_bucket, HashFn, IdealFn};
use dxh_tables::{chain_lookup, ExternalDictionary, LayoutInspect, LayoutSnapshot};

use crate::config::CoreConfig;
use crate::filter::{FilterPlan, FilterStats, HeldFilter, LevelFilter, Segments};
use crate::mem_table::MemTable;
use crate::stream::{build_fresh_region, MergeCursor, MergeStats, Region, Source, ValueMap};

/// Lemma 5's dynamic hash table: `tu = O((γ/b)·log(n/m))` amortized
/// insertions, `tq = O(log_γ(n/m))` lookups.
///
/// The lookup bound is the worst case here, not the expectation: the
/// part of `m` the construction leaves idle holds a Bloom filter share
/// for each of the first few levels ([`LogMethodTable::filter_plan`]),
/// lent to a deeper level while its own is empty (one rule, whoever
/// builds the level), and a probe skips a level whose filter rules the
/// key out — one read for the level that holds the key, plus one per
/// false positive and per unfiltered non-empty level above it. Insertion
/// costs are untouched, `memory_used() ≤ m` includes the filters, and
/// nothing about them is ever persisted.
///
/// [`crate::BootstrappedTable`] is this table with Theorem 2's big table
/// `Ĥ` beside it, on the same disk and within the same budget.
///
/// ```
/// use dxh_core::{CoreConfig, LogMethodTable, ExternalDictionary};
///
/// let cfg = CoreConfig::lemma5(32, 1024, 2).unwrap();
/// let mut t = LogMethodTable::new(cfg, 7).unwrap();
/// for k in 0..10_000u64 {
///     t.insert(k, k).unwrap();
/// }
/// assert_eq!(t.lookup(1234).unwrap(), Some(1234));
/// let tu = t.total_ios() as f64 / 10_000.0;
/// assert!(tu < 1.0, "o(1) insertions: {tu}");
/// ```
pub struct LogMethodTable<B: StorageBackend = MemDisk> {
    pub(crate) disk: Disk<B>,
    budget: MemoryBudget,
    pub(crate) hash: IdealFn,
    pub(crate) h0: MemTable,
    /// The disk levels: `levels[k]` is `H_k` (index 0 is unused).
    pub(crate) levels: Vec<Option<Region>>,
    /// `filters[k]` summarises `levels[k]` (index 0 unused; as long as
    /// `levels`, and never shorter than the plan). A level holds what
    /// [`FilterPlan::segments`] gives it beneath the nearest non-empty
    /// level above it: a filtered level (`k ≤ plan.levels()`) its own
    /// share while it exists, plus loans of the idle shares between; a
    /// deeper level only loans. A filter is built with its level and
    /// dies with it; a loan goes back when its share's level is built
    /// again ([`LogMethodTable::flush`]).
    filters: Vec<Option<LevelFilter>>,
    plan: FilterPlan,
    /// What the filter of `H_k` did, at `filter_stats[k]` (indexed like
    /// `filters`): counted over every level the filter has summarised.
    filter_stats: Vec<FilterStats>,
    cfg: CoreConfig,
}

impl LogMethodTable {
    /// Builds a table over a fresh in-memory disk with an ideal hash
    /// function derived from `seed`.
    pub fn new(cfg: CoreConfig, seed: u64) -> Result<Self> {
        Self::new_on(mem_disk(cfg.b), cfg, seed)
    }
}

impl<B: StorageBackend> LogMethodTable<B> {
    /// Builds a table over a caller-provided disk (any backend) with an
    /// ideal hash function derived from `seed` — the backend-generic twin
    /// of [`LogMethodTable::new`].
    pub fn new_on(disk: Disk<B>, cfg: CoreConfig, seed: u64) -> Result<Self> {
        Self::reserving(disk, cfg, seed, 0)
    }

    /// [`LogMethodTable::new_on`], with `extra` words of an owner's
    /// metadata reserved beside the table's own — before the level
    /// filters are sized from what is left, so they get that much less.
    pub(crate) fn reserving(
        disk: Disk<B>,
        cfg: CoreConfig,
        seed: u64,
        extra: usize,
    ) -> Result<Self> {
        cfg.validate()?;
        if disk.b() != cfg.b {
            return Err(ExtMemError::BadConfig("disk block size ≠ cfg.b".into()));
        }
        let mut budget = MemoryBudget::new(cfg.m);
        // H0 capacity + the steady-state merge working set (H0 and the
        // `H1` it meets streaming into a fresh `H1`: one source bucket
        // buffered, the batch being merged, ≤ 4b + 16 with that bucket
        // chaining a full block) + metadata. What is left — 1 776 of
        // 4 096 items at b = 64 — has two tenants. A flush landing in
        // `H_j` merges at most j disk streams (`H1 … H_j`, the old `H_j`
        // included when it had room) beside the drained `H0`: each
        // buffers one source bucket (the sealed fill on average, more
        // than b items in the ≈ 1 % of buckets that chain) and the batch
        // being merged holds those items once more — or, where a
        // region's bucket count does not divide its destination's, the
        // tail of the stream's previous bucket — so it transiently needs
        // 2·j·b items (`stream.rs` measures half that with every source
        // at 48 of 64 to a bucket and one chaining a full block). The
        // level filters take the rest: the plan sizes one share per
        // level so that the shares alive while a flush lands in `H_j`
        // (`j..=L`; the shallower ones died with their levels) plus those
        // 2·j·b items fit at every `j ≤ L`, and past `L` a flush has the
        // whole remainder to itself — 13 levels deep at b = 64, m = 4096.
        // A level borrows idle shares only up to that same bound, less
        // the buffers of the merge that builds it (`2·k·b` for a flush
        // into `H_k`; compaction's merge buffers one bucket for each of
        // the d levels it reads, so `2·max(k, d)·b`), so the plan's full
        // size, reserved up front, covers the loans too
        // (`carry_buffers_fit_beside_h0` holds every landing depth to the
        // bound, loans included; `filter::tests` every occupancy).
        budget.reserve(cfg.h0_capacity() + 4 * cfg.b + 16 + extra)?;
        let plan = FilterPlan::reserve(&cfg, &mut budget)?;
        let h0 = MemTable::new(cfg.nb0() as usize, cfg.h0_capacity());
        let hash = IdealFn::from_seed(seed);
        let (levels, filters, filter_stats) = (vec![None], Vec::new(), Vec::new());
        let mut t =
            LogMethodTable { disk, budget, hash, h0, levels, filters, plan, filter_stats, cfg };
        t.fit_filters();
        Ok(t)
    }

    /// Rebuilds a table around previously persisted state: a reopened
    /// disk, the disk-level regions a prior instance reported via
    /// [`LogMethodTable::persisted_levels`], and the image of its `H0`
    /// that [`LogMethodTable::write_memory_image`] wrote (`None`: `H0`
    /// was empty). Reading the image back costs one accounted read per
    /// block, beside those of the filter rebuild. `seed` must be the one
    /// the regions were built with.
    pub(crate) fn from_parts(
        disk: Disk<B>,
        cfg: CoreConfig,
        seed: u64,
        levels: Vec<Option<Region>>,
        image: Option<Region>,
    ) -> Result<Self> {
        let mut t = Self::new_on(disk, cfg, seed)?;
        if !levels.is_empty() {
            t.adopt_levels(levels)?;
        }
        if let Some(image) = image {
            t.adopt_image(image)?;
        }
        Ok(t)
    }

    /// Grows `filters` and `filter_stats` to cover every level, and at
    /// least the plan's.
    fn fit_filters(&mut self) {
        let len = self.levels.len().max(self.plan.levels() + 1);
        self.filters.resize_with(len, || None);
        self.filter_stats.resize(len, FilterStats::default());
    }

    /// Installs `region` as `H_k` with `filter`, growing the level
    /// vectors to reach it.
    fn install(&mut self, k: usize, region: Region, filter: Option<LevelFilter>) {
        if self.levels.len() <= k {
            self.levels.resize(k + 1, None);
        }
        self.fit_filters();
        self.levels[k] = Some(region);
        self.filters[k] = filter;
    }

    /// Gives back every loan of a share `≤ k` held by a level below `k`:
    /// those shares' levels are about to be built again.
    fn recall(&mut self, k: usize) {
        for slot in self.filters.iter_mut().skip(k + 1) {
            *slot = slot.take().and_then(|f| f.recall(k));
        }
    }

    /// Items every filter holds, own shares and loans.
    fn held_items(&self) -> usize {
        self.filters.iter().flatten().flat_map(LevelFilter::shares).map(|(_, n)| n).sum()
    }

    /// The nearest non-empty level above `H_k` (0: none).
    fn above(&self, k: usize) -> usize {
        (1..k).rev().find(|&j| self.levels.get(j).is_some_and(Option::is_some)).unwrap_or(0)
    }

    /// `(held, planned)` for `H_k`: its filter's segments, and the rule's
    /// as the levels stand, for a flush's `k` streams.
    fn held_and_planned(&self, k: usize) -> (Segments, Segments) {
        let held = self.filters[k].iter().flat_map(LevelFilter::shares).collect();
        let exists = self.levels.get(k).is_some_and(Option::is_some);
        (held, if exists { self.plan.segments(k, self.above(k), k) } else { Vec::new() })
    }

    /// What [`LogMethodTable::flush`] keeps true while it lands in `H_k`:
    /// every filter holds the rule's segments or a part of them — the
    /// same shares, none larger, a filtered level's own whole: a part is
    /// what compaction builds when its merge reads more levels than its
    /// depth, and what a reopen rebuilds past `L` (nothing) — and they
    /// and the carry's `2·k·b` buffered items fit the spare, unless none
    /// is alive, deep enough that the buffers alone take it all. That no
    /// share is then held twice is `filter`'s enumeration.
    fn filters_fit_landing(&self, k: usize) -> bool {
        let held = self.held_items();
        (held == 0 || held + self.plan.carry_buffers(k) <= self.plan.spare())
            && (1..self.filters.len()).all(|j| {
                let (held, planned) = self.held_and_planned(j);
                (j > self.plan.levels() || held.first() == planned.first())
                    && held.iter().all(|&(i, n)| planned.iter().any(|&(s, p)| i == s && n <= p))
            })
    }

    #[inline]
    pub(crate) fn h0_bucket(&self, key: Key) -> usize {
        prefix_bucket(self.hash.hash64(key), self.cfg.nb0()) as usize
    }

    /// Migrates `H0`, and every level the migration would overflow, into
    /// the first level with room — as **one** merge, so each carried item
    /// is written once (Lemma 5's "once per level it lands in").
    ///
    /// The destination is picked before anything moves: the carry walks
    /// `k = 1, 2, …` while `H_k` exists, adding it to the merge, and
    /// stops at the first `k` where everything gathered so far fits
    /// (`≤ level_capacity(k)`, [`LogMethodTable::has_room`]) or nothing is
    /// there. Sizes are the physical counts, shadowed copies included, so
    /// the choice needs no I/O. `[H0, H1, …, H_k]` then stream
    /// newest-first into a fresh region of
    /// [`CoreConfig::fresh_level_buckets`] buckets — `⌈x/λ(b)⌉` for the
    /// `x` items landing, [`CoreConfig::sealed_fill`] — which becomes
    /// `H_k`: each source is read exactly once, no intermediate level is
    /// written, and no block of a level that existed before the flush is
    /// written at all (the old `H_k` is one of the sources).
    ///
    /// The filters follow the levels, with no I/O: the sources' die with
    /// them, every loan of a share `≤ k` goes back from the deeper level
    /// holding it, and the new `H_k`'s filter is the rule's with nothing
    /// above ([`FilterPlan::segments`]): its own share plus loans of the
    /// shares `< k` this flush has just left idle. Each deeper level is
    /// left the rule's beneath `H_k`.
    fn flush(&mut self) -> Result<()> {
        let mut landing = self.h0.len();
        let mut sources = vec![Source::from_memory(self.h0.drain_in_bucket_order(), &self.hash)];
        let mut k = 1usize;
        while let Some(r) = self.levels.get_mut(k).and_then(Option::take) {
            landing += r.items;
            self.filters[k] = None;
            sources.push(Source::from_region(r));
            if self.has_room(k, landing) {
                break;
            }
            k += 1;
        }
        self.recall(k);
        // Into the deepest occupied level, deletion markers are purged:
        // nothing below them is left to shadow, so this merge is where
        // the structure reclaims the space of deleted keys.
        let purge = self.levels.iter().skip(k + 1).all(Option::is_none);
        let nb = self.cfg.fresh_level_buckets(k as u32, landing);
        debug_assert!(
            !self.cfg.m.is_multiple_of(self.cfg.b) || self.within_fill(k, landing, nb),
            "H{k} is sized past its capacity or the sealed fill: {landing} items, {nb} buckets"
        );
        let mut filter = self.plan.filter(k, 0, k, landing);
        let cursor = MergeCursor::new(&self.hash, sources, nb, purge);
        let (region, _) = build_fresh_region(&mut self.disk, cursor, filter.as_mut(), None)?;
        self.install(k, region, filter);
        debug_assert!(
            self.filters_fit_landing(k),
            "landing in H{k}: filters {:?} beside {} buffered items overrun {} spare, or \
             stray from the plan's",
            self.level_filter_held(),
            self.plan.carry_buffers(k),
            self.plan.spare()
        );
        Ok(())
    }

    /// Whether `H_k` may hold `landing` physical items — its own and
    /// everything on its way there.
    fn has_room(&self, k: usize, landing: usize) -> bool {
        landing <= self.cfg.level_capacity(k as u32)
    }

    /// What every flush leaves true of the level `H_k` it builds (for
    /// `b | m`; the clamp to the full geometry may miss it by a sliver
    /// otherwise): `items` within its capacity and within
    /// [`CoreConfig::sealed_fill`] a bucket. A flush checks it for what
    /// its sources record, which a merge only shrinks; the layouts
    /// earlier versions wrote (load ≤ 1/2) satisfy it too. Checked, never
    /// consulted: [`LogMethodTable::has_room`] is what decides.
    fn within_fill(&self, k: usize, items: usize, buckets: u64) -> bool {
        items <= self.cfg.level_capacity(k as u32)
            && items as u128 <= buckets as u128 * self.cfg.sealed_fill() as u128
    }

    /// Probes the disk levels `order` names for `key`, returning the
    /// first copy found (deletion markers included) — the one probe loop
    /// behind every lookup order. A level whose filter — own share and
    /// loans alike — rules the key out is skipped without I/O; an empty
    /// or unfiltered one behaves as the paper's: no cost, or one bucket
    /// probe.
    fn probe_levels(
        &mut self,
        key: Key,
        order: impl Iterator<Item = usize>,
    ) -> Result<Option<Value>> {
        let h = self.hash.hash64(key);
        for k in order {
            let Some(region) = self.levels[k] else { continue };
            let filter = self.filters.get(k).and_then(Option::as_ref);
            if filter.is_some_and(|f| !f.may_contain(h)) {
                self.filter_stats[k].skipped += 1;
                continue;
            }
            let q = prefix_bucket(h, region.buckets);
            if let Some(v) = chain_lookup(&mut self.disk, region.block_of(q), key)? {
                return Ok(Some(v));
            }
            if filter.is_some() {
                self.filter_stats[k].false_positives += 1;
            }
        }
        Ok(None)
    }

    /// Looks up `key` in the disk levels only, deepest-first — the query
    /// order of Theorem 2's analysis (largest table first), used by the
    /// bootstrapped table after missing in `Ĥ`.
    pub(crate) fn lookup_levels_deepest_first(&mut self, key: Key) -> Result<Option<Value>> {
        self.probe_levels(key, (1..self.levels.len()).rev())
    }

    /// Drains the entire structure into merge sources, newest first
    /// (`H0`, `H1`, …, deepest last). Leaves the structure empty, its
    /// filters included.
    pub(crate) fn take_all_sources(&mut self) -> Vec<Source> {
        self.filters.iter_mut().for_each(|f| *f = None);
        let mut sources = vec![Source::from_memory(self.h0.drain_in_bucket_order(), &self.hash)];
        for slot in self.levels.iter_mut().skip(1) {
            if let Some(r) = slot.take() {
                sources.push(Source::from_region(r));
            }
        }
        sources
    }

    /// Adopts persisted `levels` and rebuilds the filter of every
    /// filtered one from its blocks: one accounted read per block of
    /// those levels. Each gets the rule's segments beneath the level
    /// above it, which are the ones its writer's flushes left it, so a
    /// reopened table probes as cheaply as the handle that wrote it —
    /// unless that handle held loans past `L`, whose levels no reopen
    /// reads.
    fn adopt_levels(&mut self, levels: Vec<Option<Region>>) -> Result<()> {
        self.levels = levels;
        self.fit_filters();
        for k in 1..=self.plan.levels() {
            let Some(region) = self.levels.get(k).copied().flatten() else { continue };
            let filter = self.plan.filter(k, self.above(k), k, region.items);
            let mut filter = filter.expect("k owns a share");
            let (hash, disk) = (&self.hash, &mut self.disk);
            let hops = disk.live_blocks();
            let read = |id| disk.read(id);
            region.walk(0..region.buckets, hops, read, |_, _, blk| {
                blk.items().iter().for_each(|it| filter.insert(hash.hash64(it.key)));
                Ok(())
            })?;
            self.filters[k] = Some(filter);
        }
        Ok(())
    }

    /// Loads an image [`LogMethodTable::write_memory_image`] wrote back
    /// into an empty `H0`: one accounted read per block. Blocks that do
    /// not hold exactly `image.items` distinct keys are
    /// [`ExtMemError::Corrupt`], found before `H0` grows past that count.
    fn adopt_image(&mut self, image: Region) -> Result<()> {
        let corrupt = || ExtMemError::Corrupt(format!("H0 image {image:?}: wrong item count"));
        let (hash, h0, nb0) = (&self.hash, &mut self.h0, self.cfg.nb0());
        let disk = &mut self.disk;
        let hops = disk.live_blocks();
        let read = |id| disk.read(id);
        image.walk(0..image.buckets, hops, read, |_, _, blk| {
            for &item in blk.items() {
                h0.upsert(prefix_bucket(hash.hash64(item.key), nb0) as usize, item);
            }
            if h0.len() > image.items {
                return Err(corrupt());
            }
            Ok(())
        })?;
        if self.h0.len() != image.items {
            return Err(corrupt());
        }
        Ok(())
    }

    /// The disk-level regions (`levels[0]` unused), for persistence.
    pub(crate) fn persisted_levels(&self) -> &[Option<Region>] {
        &self.levels
    }

    /// Writes `H0` as an **image**: its items in bucket order, packed `b`
    /// to a block into `⌈|H0|/b⌉` dense blocks of a fresh contiguous run
    /// through one block buffer, so the copy never holds more than `b`
    /// items beside `H0` — and returns where, for persistence (`None`,
    /// and no I/O, when `H0` is empty). `H0` stays as it is and nothing
    /// migrates: a commit costs `⌈|H0|/b⌉` block writes, and the levels
    /// stay those of a table that was never committed. The one block
    /// buffer comes out of the merge working set reserved at
    /// [`LogMethodTable::new_on`], idle while no flush runs.
    pub(crate) fn write_memory_image(&mut self) -> Result<Option<Region>> {
        if self.h0.is_empty() {
            return Ok(None);
        }
        let blocks = self.h0.len().div_ceil(self.cfg.b);
        let base = self.disk.allocate_contiguous(blocks)?;
        let (mut blk, mut next) = (Block::new(self.cfg.b), base);
        for &item in self.h0.iter_in_bucket_order() {
            blk.push(item)?;
            if blk.is_full() {
                self.disk.write(next, &blk)?;
                blk.reset();
                next = BlockId(next.raw() + 1);
            }
        }
        if !blk.is_empty() {
            self.disk.write(next, &blk)?;
        }
        Ok(Some(Region { base, buckets: blocks as u64, items: self.h0.len() }))
    }

    /// The items of `H0`, in bucket order.
    #[cfg(test)]
    pub(crate) fn memory_items(&self) -> Vec<Item> {
        self.h0.iter_in_bucket_order().copied().collect()
    }

    /// Migrates the memory-resident `H0` into the disk levels (a no-op
    /// when `H0` is empty): after this returns, every item is on disk.
    /// Lemma 5 migrates `H0` only once it is full; a persistent store
    /// makes it durable with an image instead ([`crate::KvStore::sync`])
    /// and never calls this — only tests do.
    #[cfg(test)]
    pub(crate) fn flush_memory(&mut self) -> Result<()> {
        if self.h0.is_empty() {
            return Ok(());
        }
        self.flush()
    }

    /// The table merges itself into one level: `H0` and every level
    /// stream, newest-first, through one [`MergeCursor`] into a fresh
    /// level-`k` region — deletion markers and shadowed copies purged,
    /// the destination being by construction the only, hence deepest,
    /// level — sized by [`CoreConfig::fresh_level_buckets`] for the
    /// physical item count (the purge only shrinks what lands). As each
    /// item lands its value goes through `map`, if any, and its key into
    /// the level's filter — the rule's with nothing above, less the
    /// buffers of a merge of `max(k, d)` streams for the `d` levels it
    /// reads — so the new level is written once and never read; every
    /// source is read once and freed. A purge that leaves
    /// nothing leaves no level. The engine of [`crate::KvStore::compact`].
    pub(crate) fn merge_into_level(
        &mut self,
        k: usize,
        map: Option<ValueMap<'_>>,
    ) -> Result<MergeStats> {
        if self.h0.is_empty() && self.active_levels() == 0 {
            return Ok(MergeStats::default());
        }
        let (landing, streams) = (self.len(), k.max(self.active_levels()));
        let nb = self.cfg.fresh_level_buckets(k as u32, landing);
        let sources = self.take_all_sources();
        let cursor = MergeCursor::new(&self.hash, sources, nb, true);
        let mut filter = self.plan.filter(k, 0, streams, landing);
        let (region, stats) = build_fresh_region(&mut self.disk, cursor, filter.as_mut(), map)?;
        if stats.items == 0 {
            // Buckets nothing was written to: no chain hangs off them.
            for q in 0..region.buckets {
                self.disk.free(region.block_of(q))?;
            }
            return Ok(stats);
        }
        self.install(k, region, filter);
        Ok(stats)
    }

    /// Rebuilds every level with `buckets(k, region)` buckets — the
    /// layouts earlier versions wrote (every level at the full geometry;
    /// later, sealed levels at load 1/2, then at the sealed fill under
    /// a full-geometry `H1`), which a reopen must keep serving and
    /// reading into its flushes. Each level's filter is the rule's
    /// beneath the level above it, as a reopen builds it.
    #[cfg(test)]
    pub(crate) fn rebuild_levels(&mut self, buckets: impl Fn(u32, &Region) -> u64) -> Result<()> {
        for k in 1..self.levels.len() {
            let Some(r) = self.levels[k].take() else { continue };
            let nb = buckets(k as u32, &r);
            self.filters[k] = None;
            let mut filter = self.plan.filter(k, self.above(k), k, r.items);
            let cursor = MergeCursor::new(&self.hash, vec![Source::from_region(r)], nb, false);
            let (region, _) = build_fresh_region(&mut self.disk, cursor, filter.as_mut(), None)?;
            self.install(k, region, filter);
        }
        Ok(())
    }

    /// [`ExternalDictionary::delete`] with a `before_mutate` hook: runs
    /// once presence is confirmed, before the marker is written (never on
    /// a miss). The persistence layer transitions its dirty state there,
    /// so miss-deletes stay free.
    ///
    /// Deleting writes a deletion marker into `H0` (the log method's only
    /// way to affect deeper levels without rewriting them; cf. Conway et
    /// al. 2018). Costs one shallow-first probe to report presence, plus
    /// — only when the key was live — the amortized insertion cost of the
    /// marker itself. The marker is purged, and the key's space
    /// reclaimed, by the next merge into the deepest level.
    pub(crate) fn delete_with_hook(
        &mut self,
        key: Key,
        before_mutate: &mut dyn FnMut() -> Result<()>,
    ) -> Result<bool> {
        check_key(key)?;
        let bucket = self.h0_bucket(key);
        if let Some(v) = self.h0.lookup(bucket, key) {
            if v == VALUE_TOMBSTONE {
                return Ok(false);
            }
            // The newest copy is memory-resident: overwrite it with the
            // marker in place (older copies may survive in disk levels).
            before_mutate()?;
            self.h0.upsert(bucket, Item::delete_marker(key));
            return Ok(true);
        }
        let newest = self.probe_levels(key, 1..self.levels.len())?;
        let present = newest.is_some_and(|v| v != VALUE_TOMBSTONE);
        if present {
            before_mutate()?;
            self.h0.upsert(bucket, Item::delete_marker(key));
            if self.h0.is_full() {
                self.flush()?;
            }
        }
        Ok(present)
    }

    /// The smallest level index whose capacity holds `items` items (≥ 1)
    /// — where a full compaction should land. `items` may safely be the
    /// physical count (markers and shadowed copies included): the purge
    /// only shrinks the result, so the chosen level is within one
    /// γ-factor of the live-data footprint.
    pub(crate) fn compaction_level(&self, items: usize) -> usize {
        let mut k = 1;
        while self.cfg.level_capacity(k as u32) < items {
            k += 1;
        }
        k
    }

    /// Items per level, `H0` first (diagnostics; drives the Lemma 5
    /// experiment's table).
    pub fn level_items(&self) -> Vec<usize> {
        self.level_geometry().into_iter().map(|(items, _)| items).collect()
    }

    /// `(items, buckets)` per level, `H0` first (an empty level is
    /// `(0, 0)`, `H0` has its `m/b` memory buckets): the geometry each
    /// level was actually built with, sized by its content
    /// ([`CoreConfig::fresh_level_buckets`]).
    pub fn level_geometry(&self) -> Vec<(usize, u64)> {
        let mut out = vec![(self.h0.len(), self.cfg.nb0())];
        let disk_levels = self.levels.iter().skip(1);
        out.extend(disk_levels.map(|r| r.as_ref().map_or((0, 0), |r| (r.items, r.buckets))));
        out
    }

    /// Overflow (chain) blocks per level, `H0` first — beside
    /// [`LogMethodTable::level_geometry`]'s primaries, every block a level
    /// occupies: a level chains the rare bucket that drew more than `b`
    /// items ([`CoreConfig::sealed_fill`]). Diagnostics: walks every
    /// level behind the I/O accounting.
    pub fn level_chain_blocks(&mut self) -> Result<Vec<u64>> {
        let mut out = vec![0; self.levels.len()];
        for (k, region) in self.levels.iter().enumerate() {
            let Some(region) = region else { continue };
            let mut blocks = 0;
            region.inspect(&mut self.disk, |_, _, _| blocks += 1)?;
            out[k] = blocks - region.buckets;
        }
        Ok(out)
    }

    /// Appends every disk block of every level (with chains) to `out`,
    /// bypassing I/O accounting.
    pub(crate) fn snapshot_blocks(&mut self, out: &mut Vec<(BlockId, Vec<Key>)>) -> Result<()> {
        for region in self.levels.iter().skip(1).flatten() {
            region.inspect(&mut self.disk, |_, id, blk| {
                out.push((id, blk.items().iter().map(|it| it.key).collect()));
            })?;
        }
        Ok(())
    }

    /// Number of non-empty disk levels.
    pub fn active_levels(&self) -> usize {
        self.levels.iter().skip(1).flatten().count()
    }

    /// How the idle part of `m` is split into level filters: derived
    /// from the configuration, never configured.
    pub fn filter_plan(&self) -> &FilterPlan {
        &self.plan
    }

    /// Probes the level filters skipped, and false positives they let
    /// through, since this table was built — the saving behind its `tq`,
    /// read beside [`LogMethodTable::disk`]'s I/O counters. The sum of
    /// [`LogMethodTable::level_filter_stats`].
    pub fn filter_stats(&self) -> FilterStats {
        self.filter_stats.iter().copied().sum()
    }

    /// [`LogMethodTable::filter_stats`] per level: `H_k`'s at index
    /// `k − 1`, one entry per level the table has reached and at least
    /// one per level of the [`LogMethodTable::filter_plan`] — each beside
    /// what [`LogMethodTable::level_filter_held`] designs for it. A level
    /// past the plan counts only while it holds loans.
    pub fn level_filter_stats(&self) -> &[FilterStats] {
        &self.filter_stats[1..]
    }

    /// What each level's filter holds now, indexed like
    /// [`LogMethodTable::level_filter_stats`]: its own share's items and
    /// the items lent to it by the shares of empty shallower levels, and
    /// the false-positive rate they are designed for at the level's item
    /// count — the product over its segments ([`HeldFilter::NONE`] for a
    /// level without a filter).
    pub fn level_filter_held(&self) -> Vec<HeldFilter> {
        let held = |(k, f): (usize, &Option<LevelFilter>)| {
            let items = self.levels.get(k).copied().flatten().map_or(0, |r| r.items);
            f.as_ref().map_or(HeldFilter::NONE, |f| f.held(k, items))
        };
        self.filters.iter().enumerate().skip(1).map(held).collect()
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Disk<B> {
        &self.disk
    }

    /// Mutable disk access (flush, pool attachment, backend state).
    pub fn disk_mut(&mut self) -> &mut Disk<B> {
        &mut self.disk
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// [`LogMethodTable::within_fill`] on every level: what
    /// [`LogMethodTable::has_room`] and [`CoreConfig::fresh_level_buckets`]
    /// keep between them.
    #[cfg(test)]
    pub(crate) fn assert_levels_within_fill(&self, when: &str) {
        for (k, r) in self.levels.iter().enumerate() {
            let Some(r) = r else { continue };
            assert!(self.within_fill(k, r.items, r.buckets), "{when}: H{k} = {r:?}");
        }
    }

    /// Every level holds the rule's segments — exactly, for `H_k` with
    /// `k ≤ exact` — and all of them within the reservation, and beside
    /// the buffers of a flush into the shallowest non-empty level.
    #[cfg(test)]
    pub(crate) fn assert_filters_follow_the_plan(&self, exact: usize, when: &str) {
        assert_eq!(self.filters.len(), self.levels.len().max(self.plan.levels() + 1), "{when}");
        for k in (1..self.filters.len()).take(exact) {
            let (held, planned) = self.held_and_planned(k);
            assert_eq!(held, planned, "{when}: H{k} under H{}", self.above(k));
        }
        let j = (1..self.levels.len()).find(|&j| self.levels[j].is_some()).unwrap_or(1);
        assert!(self.filters_fit_landing(j), "{when}: {:?}", self.level_filter_held());
        assert!(self.held_items() <= self.plan.items_from(1), "{when}: past the reservation");
    }

    /// Every key stored in a level — markers and shadowed copies too —
    /// passes that level's filter. Walked behind the I/O accounting.
    #[cfg(test)]
    pub(crate) fn assert_filters_hold_their_keys(&mut self, when: &str) {
        for (k, filter) in self.filters.iter().enumerate() {
            let (Some(f), Some(region)) = (filter, self.levels.get(k).copied().flatten()) else {
                continue;
            };
            region
                .inspect(&mut self.disk, |_, _, blk| {
                    for it in blk.items() {
                        let passes = f.may_contain(self.hash.hash64(it.key));
                        assert!(passes, "{when}: H{k}'s filter lost key {}", it.key);
                    }
                })
                .unwrap();
        }
    }
}

impl<B: StorageBackend> ExternalDictionary for LogMethodTable<B> {
    /// Inserts into `H0`; a full `H0` migrates into the levels (the
    /// paper's "whenever `H_k` is full, migrate its items to `H_{k+1}`",
    /// costing `O(γ^(k+1)·m/b)` I/Os per migration — see
    /// `LogMethodTable::flush`).
    fn insert(&mut self, key: Key, value: Value) -> Result<()> {
        check_key(key)?;
        check_value(value)?;
        let bucket = self.h0_bucket(key);
        self.h0.upsert(bucket, Item::new(key, value));
        if self.h0.is_full() {
            self.flush()?;
        }
        Ok(())
    }

    /// Looks up `key` shallow-first (`H0`, `H1`, …): the newest copy wins,
    /// giving clean upsert semantics. A deletion marker is a hit that
    /// answers "absent" — it shadows any older live copy in a deeper
    /// level, so the probe stops there.
    fn lookup(&mut self, key: Key) -> Result<Option<Value>> {
        if let Some(v) = self.h0.lookup(self.h0_bucket(key), key) {
            return Ok((v != VALUE_TOMBSTONE).then_some(v));
        }
        let newest = self.probe_levels(key, 1..self.levels.len())?;
        Ok(newest.filter(|&v| v != VALUE_TOMBSTONE))
    }

    /// Deletes by writing a deletion marker ([`VALUE_TOMBSTONE`]) into
    /// `H0`: shallow-first lookup makes the marker shadow any older copy
    /// in a deeper level, and the next merge into the deepest level
    /// purges both the marker and the copies it shadowed. Returns whether
    /// the key was live.
    fn delete(&mut self, key: Key) -> Result<bool> {
        self.delete_with_hook(key, &mut || Ok(()))
    }

    /// Physical item count (`H0` and every level): shadowed duplicates
    /// and not-yet-purged deletion markers are included until a
    /// deepest-level merge drops them (the same physical semantics the
    /// upsert path has always had).
    fn len(&self) -> usize {
        self.h0.len() + self.levels.iter().flatten().map(|r| r.items).sum::<usize>()
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

impl<B: StorageBackend> LayoutInspect for LogMethodTable<B> {
    fn layout_snapshot(&mut self) -> Result<LayoutSnapshot> {
        let mut snap = LayoutSnapshot { memory: self.h0.keys(), blocks: Vec::new() };
        self.snapshot_blocks(&mut snap.blocks)?;
        Ok(snap)
    }

    fn address_of(&self, key: Key) -> Option<BlockId> {
        // The best one-I/O address the structure has is the deepest
        // (largest) level's bucket; shallower copies are in the slow zone.
        let deepest = self.levels.iter().skip(1).rev().flatten().next();
        deepest.map(|r| r.block_of(prefix_bucket(self.hash.hash64(key), r.buckets)))
    }
}

/// The carry as a level-count model, shared with the bootstrapped
/// table's tests: which keys sit in which level, and nothing else.
#[cfg(test)]
pub(crate) mod carry_model {
    use std::collections::HashMap;

    use super::{CoreConfig, Key, Value, VALUE_TOMBSTONE};

    pub(crate) struct CarryModel {
        cfg: CoreConfig,
        h0: HashMap<Key, Value>,
        levels: Vec<Option<HashMap<Key, Value>>>,
    }

    impl CarryModel {
        pub(crate) fn new(cfg: CoreConfig) -> Self {
            CarryModel { cfg, h0: HashMap::new(), levels: vec![None] }
        }

        pub(crate) fn put(&mut self, key: Key, value: Value) {
            self.h0.insert(key, value);
            if self.h0.len() >= self.cfg.h0_capacity() {
                self.flush();
            }
        }

        /// Writes a marker iff the newest copy is live; says whether it was.
        pub(crate) fn delete(&mut self, key: Key) -> bool {
            let newest = std::iter::once(&self.h0)
                .chain(self.levels.iter().flatten())
                .find_map(|level| level.get(&key).copied());
            let live = newest.is_some_and(|v| v != VALUE_TOMBSTONE);
            if live {
                self.put(key, VALUE_TOMBSTONE);
            }
            live
        }

        /// Gather `H0, H1, …` until the physical count fits the level
        /// reached or nothing is there, and land there: newest copy wins,
        /// markers are spent at the bottom.
        fn flush(&mut self) {
            let mut landing = std::mem::take(&mut self.h0);
            let mut physical = landing.len();
            let mut k = 1;
            while let Some(level) = self.levels.get_mut(k).and_then(Option::take) {
                physical += level.len();
                for (key, v) in level {
                    landing.entry(key).or_insert(v);
                }
                if physical <= self.cfg.level_capacity(k as u32) {
                    break;
                }
                k += 1;
            }
            if k == self.levels.len() {
                self.levels.push(None);
            }
            if self.levels[k + 1..].iter().all(Option::is_none) {
                landing.retain(|_, v| *v != VALUE_TOMBSTONE);
            }
            self.levels[k] = Some(landing);
        }

        /// Empties the structure, as a merge into `Ĥ` does.
        pub(crate) fn drain(&mut self) {
            self.h0.clear();
            self.levels.iter_mut().for_each(|level| *level = None);
        }

        /// `[H0, H1, …]`, comparable to `LogMethodTable::level_items`.
        pub(crate) fn level_items(&self) -> Vec<usize> {
            let mut out = vec![self.h0.len()];
            out.extend(self.levels.iter().skip(1).map(|l| l.as_ref().map_or(0, HashMap::len)));
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use rand::{rngs::StdRng, RngCore, SeedableRng};

    use super::carry_model::CarryModel;
    use super::*;

    fn cfg(b: usize, m: usize, gamma: u64) -> CoreConfig {
        CoreConfig::lemma5(b, m, gamma).unwrap()
    }

    /// Blocks (primaries plus chains) of every level, indexed like
    /// `levels`, walked behind the I/O accounting.
    fn level_blocks(t: &mut LogMethodTable) -> Vec<u64> {
        let chains = t.level_chain_blocks().unwrap();
        let primaries = t.levels.iter().map(|slot| slot.map_or(0, |r| r.buckets));
        primaries.zip(chains).map(|(p, c)| p + c).collect()
    }

    #[test]
    fn levels_track_the_carry_model_under_upserts_and_deletes() {
        for gamma in [2u64, 4, 8] {
            // Tiny blocks: most flushes read and write chained buckets.
            let c = cfg(4, 96, gamma);
            let mut t = LogMethodTable::new(c.clone(), 40 + gamma).unwrap();
            let mut model = CarryModel::new(c);
            let mut truth: HashMap<u64, u64> = HashMap::new();
            let mut rng = StdRng::seed_from_u64(gamma);
            for step in 0..12_000u64 {
                let key = rng.next_u64() % 1500;
                if rng.next_u64() % 10 < 7 {
                    t.insert(key, step).unwrap();
                    model.put(key, step);
                    truth.insert(key, step);
                } else {
                    let was = t.delete(key).unwrap();
                    assert_eq!(was, model.delete(key), "γ = {gamma}, step {step}");
                    assert_eq!(was, truth.remove(&key).is_some(), "γ = {gamma}, step {step}");
                }
                assert_eq!(t.level_items(), model.level_items(), "γ = {gamma}, step {step}");
                t.assert_levels_within_fill(&format!("γ = {gamma}, step {step}"));
            }
            assert!(t.active_levels() >= 2, "γ = {gamma}: the stream reached past H1");
            for key in 0..1500u64 {
                assert_eq!(t.lookup(key).unwrap(), truth.get(&key).copied(), "key {key}");
            }
        }
    }

    #[test]
    fn a_flush_reads_each_source_once_and_writes_only_its_destination() {
        // The benchmark's deployment and its γ = 4, 8 twins. Every level
        // is built at 48 items to a bucket and chains ≈ 1 % of them. A
        // chain block is written once, when its level is built, and read
        // once, when a flush takes the level: both are counted here by
        // walking the levels behind the accounting and added to the
        // census, which counts primaries.
        //
        // The primaries are `carry_census`'s, derived by hand for the
        // first row: 48 flushes in 16 rounds of three. A round builds H1
        // around one H0 (43 blocks), reads it and builds it around two
        // (86), then reads that into the level the round lands in:
        // 16·(43 + 86) = 2 064 reads and as many writes. Round i lands
        // in H2 and, per factor of 2 in i, one level deeper, reading what
        // it passes: H2…H6 are built 8, 4, 2, 1, 1 times at 128, 256,
        // 512, 1 024, 2 048 blocks = 6 144 writes, and H2…H5 are each
        // read once per build = 4 096 reads. With a full-geometry H1
        // merged into in place the same walk cost 16 384, with the deeper
        // levels at load 1/2 as well 21 504, all at the full geometry
        // 26 624.
        for (gamma, n, primaries) in [
            (2u64, 100_000u64, Some(14_368)),
            (2, 190_000, Some(24_296)),
            (2, 250_000, Some(39_164)),
            (4, 250_000, None),
            (8, 250_000, None),
        ] {
            let c = cfg(64, 4096, gamma);
            let mut t = LogMethodTable::new(c.clone(), 42).unwrap();
            let (mut flushes, mut past_h1) = (0, 0);
            let (mut chains_built, mut chains_read) = (0, 0);
            for key in 0..n {
                if t.h0.len() + 1 < c.h0_capacity() {
                    t.insert(key, key).unwrap();
                    continue;
                }
                let before = level_blocks(&mut t);
                let sized = t.level_geometry();
                let epoch = t.disk.epoch();
                t.insert(key, key).unwrap();
                let io = t.disk.since(&epoch);
                let after = level_blocks(&mut t);
                let when = format!("γ = {gamma}, flush {flushes}");
                let dst = (1..).find(|&k| t.level_items()[k] > 0).expect("H0 landed somewhere");
                // Everything down to the destination, the old destination
                // included when there was one.
                let taken = 1..=dst.min(before.len() - 1);
                let sources: u64 = before[taken.clone()].iter().sum();
                assert_eq!(io.reads, sources, "{when} into H{dst}: sources read once");
                assert_eq!(io.writes, after[dst], "{when} into H{dst}: the destination, once");
                assert_eq!(io.rmws, 0, "{when} into H{dst}: no block is written in place");
                assert!(after[1..dst].iter().all(|&blocks| blocks == 0), "carried levels are gone");
                chains_built += after[dst] - t.level_geometry()[dst].1;
                chains_read += taken.map(|k| before[k] - sized[k].1).sum::<u64>();
                flushes += 1;
                past_h1 += usize::from(dst > 1);
            }
            assert_eq!(flushes, n as usize / c.h0_capacity());
            assert_eq!(
                past_h1,
                flushes / (gamma as usize + 1),
                "H1 holds γ H0s: every (γ + 1)-th flush goes past it"
            );
            let census = dxh_analysis::carry_census(c.b, c.m, c.gamma, c.sealed_fill(), n as usize);
            let tu = census.ios() as f64 / n as f64;
            assert!(primaries.is_none_or(|ios| ios == census.ios()), "γ = {gamma}: tu = {tu}");
            assert_eq!(t.level_geometry(), census.levels, "γ = {gamma}, n = {n}");
            // ≈ 1.1 % of the blocks built.
            assert!(
                census.writes / 200 < chains_built && chains_built < census.writes / 50,
                "γ = {gamma}, n = {n}: {chains_built} chain blocks beside {} primaries",
                census.writes
            );
            let io = t.disk.epoch();
            assert_eq!(
                (io.reads, io.writes, io.rmws),
                (census.reads + chains_read, census.writes + chains_built, 0),
                "γ = {gamma}, n = {n}: the census plus {chains_built} chain blocks built, \
                 {chains_read} read"
            );
        }
    }

    #[test]
    fn a_sealed_level_is_knuths_static_table_at_the_sealed_fill() {
        use dxh_analysis::knuth::{chaining_costs, overflow_tail};
        // 3·2^j flushes of distinct keys end in one sealed level and an
        // empty H0. Its buckets draw ≈ Poisson(λ) items each, so the
        // share that chains and the cost of finding a key are the static
        // table's of `dxh_analysis::knuth` at load λ/b.
        for (b, m, flushes, fill) in [(64, 4096, 96usize, 48), (256, 16_384, 48, 224)] {
            let c = cfg(b, m, 2);
            assert_eq!(c.sealed_fill(), fill);
            let n = flushes * c.h0_capacity();
            assert!(n >= 98_304);
            let mut t = LogMethodTable::new(c.clone(), 7).unwrap();
            for key in 0..n as u64 {
                t.insert(key, key).unwrap();
            }
            let geometry = t.level_geometry();
            let k = geometry.len() - 1;
            assert_eq!(geometry[k], (n, n.div_ceil(fill) as u64), "b = {b}: one sealed H{k}");
            assert!(geometry[..k].iter().all(|level| level.0 == 0), "b = {b}: {geometry:?}");
            let region = t.levels[k].expect("occupied");
            let mut blocks = vec![0; region.buckets as usize];
            region.inspect(&mut t.disk, |q, _, _| blocks[q as usize] += 1).unwrap();
            let chained = blocks.iter().filter(|&&n| n > 1).count() as u64;
            let longest = blocks.iter().copied().max().expect("a level has buckets");
            assert_eq!(longest, 2, "b = {b}: no chain is longer than one block");
            let share = chained as f64 / region.buckets as f64;
            let tail = overflow_tail(b, fill as f64 / b as f64);
            assert!(
                tail / 1.5 <= share && share <= tail * 1.5,
                "b = {b}: {chained} of {} buckets chain ({share:.4}), Knuth says {tail:.4}",
                region.buckets
            );
            let epoch = t.disk.epoch();
            for key in 0..n as u64 {
                assert_eq!(t.lookup(key).unwrap(), Some(key));
            }
            let tq = t.disk.since(&epoch).reads as f64 / n as f64;
            let knuth = chaining_costs(b, fill as f64 / b as f64).successful_lookup;
            assert!((tq - knuth).abs() <= 0.002, "b = {b}: tq {tq:.5}, Knuth says {knuth:.5}");
        }
        // b ≤ 16: the fill is b/2 and the level is what load 1/2 builds.
        for (b, m) in [(8, 128), (16, 256)] {
            let c = cfg(b, m, 2);
            let n = 48 * c.h0_capacity();
            let mut t = LogMethodTable::new(c, 7).unwrap();
            for key in 0..n as u64 {
                t.insert(key, key).unwrap();
            }
            assert_eq!(t.level_geometry()[6], (n, (2 * n).div_ceil(b) as u64), "b = {b}");
        }
    }

    #[test]
    fn carry_buffers_fit_beside_h0() {
        // The bound stated at `reserving`: a flush landing in H_j merges
        // at most j disk streams (H1 … H_j, the old H_j among them when
        // it had room) and buffers one source bucket per stream plus the
        // batch being merged, 2·j·b items, beside a drained H0's m/2 and
        // the filters still alive (H_j's and deeper). `stream.rs` measures
        // the per-stream half, and the H0 + H1 steady state against the
        // 4b + 16 reserved for it. At γ = 4 most flushes past H1 stop at
        // an occupied level. What the filters hold is checked after every
        // flush, loans included: the plan's shares past H_j, wherever they
        // are, H_j's own and the loans it took.
        for (gamma, n, deepest, filtered) in [(2, 300_000u64, 7, 4), (4, 300_000, 4, 2)] {
            let c = cfg(64, 4096, gamma);
            let mut t = LogMethodTable::new(c.clone(), 9).unwrap();
            let spare = c.m - c.h0_capacity() - (4 * c.b + 16);
            let mut most_lent = 0;
            for key in 0..n {
                let before = t.h0.len();
                t.insert(key, key).unwrap();
                if t.h0.len() > before {
                    continue;
                }
                let j = (1..).find(|&k| t.levels[k].is_some()).expect("H0 landed");
                let held = t.held_items();
                assert!(
                    held + 2 * j * c.b <= spare,
                    "γ = {gamma}, key {key}: landing in H{j}, filters hold {held} items"
                );
                assert!(held <= t.filter_plan().items_from(1), "γ = {gamma}: {held} items");
                let lent: usize = t.level_filter_held().iter().map(|h| h.loaned).sum();
                most_lent = most_lent.max(lent);
            }
            assert!(most_lent > 0, "γ = {gamma}: no level ever borrowed");
            // `levels` only grows: its last index is the deepest landing so far.
            let deepest_landing = t.levels.len() - 1;
            assert!(deepest_landing >= deepest, "γ = {gamma}: n/m = 73 reaches H{deepest}");
            let plan = t.filter_plan();
            assert_eq!(plan.levels(), filtered, "γ = {gamma}");
            for j in 1..=deepest_landing {
                let held = plan.items_from(j) + 2 * j * c.b + c.h0_capacity() + 16;
                assert!(held <= c.m, "γ = {gamma}: landing in H{j} holds {held} items > m");
            }
            assert_eq!(t.memory_used(), c.h0_capacity() + 4 * c.b + 16 + plan.items_from(1));
            assert!(t.memory_used() <= c.m);
        }
    }

    #[test]
    fn filters_track_their_levels_through_churn() {
        // Four filtered levels and an unfiltered one below them. Small
        // blocks chain some buckets; the key universe is small enough
        // that upserts replace copies, markers land on live keys, and
        // deepest merges purge.
        let c = cfg(8, 1024, 2);
        let mut t = LogMethodTable::new(c.clone(), 17).unwrap();
        let filtered = t.filter_plan().levels();
        assert_eq!(filtered, 4);
        let universe = 12_000u64;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(17);
        let (mut chained, mut deepest) = (false, 0);
        for step in 1..=30_000u64 {
            let key = rng.next_u64() % universe;
            if rng.next_u64() % 10 < 7 {
                t.insert(key, step).unwrap();
                truth.insert(key, step);
            } else {
                let was = t.delete(key).unwrap();
                assert_eq!(was, truth.remove(&key).is_some(), "step {step}: delete({key})");
            }
            if step % 1300 == 0 {
                t.flush_memory().unwrap();
            }
            if step % 500 == 0 {
                t.assert_filters_follow_the_plan(usize::MAX, &format!("step {step}"));
                t.assert_filters_hold_their_keys(&format!("step {step}"));
                for key in 0..universe {
                    assert_eq!(t.lookup(key).unwrap(), truth.get(&key).copied(), "key {key}");
                }
                let blocks = level_blocks(&mut t);
                chained |=
                    t.levels.iter().zip(&blocks).any(|(r, &n)| r.is_some_and(|r| n > r.buckets));
                deepest = deepest.max(t.levels.len() - 1);
            }
        }
        assert!(chained, "no bucket ever chained");
        assert!(deepest > filtered, "the stream reached an unfiltered level: H{deepest}");
        assert!(t.len() < 2 * truth.len(), "deepest merges purged: {} physical items", t.len());
        let stats = t.filter_stats();
        assert!(stats.skipped > 10 * stats.false_positives, "{stats:?}");
        assert!(t.memory_used() <= c.m);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Whatever the geometry and the stream of inserts, deletes and
        /// early migrations, after every op each level holds exactly the
        /// rule's segments beneath the level above it (so each share has
        /// at most one holder, within the reservation), and every key a
        /// level stores passes that level's filter. Every 100 ops a
        /// table rebuilt around the levels on the same disk, as a reopen
        /// rebuilds one, holds the same segments on `H1 … H_L`.
        #[test]
        fn a_loan_never_double_books_a_share_or_loses_a_key(
            b in 2usize..12,
            extra in 0usize..400,
            gamma in 2u64..5,
            seed in proptest::prelude::any::<u64>(),
            ops in proptest::collection::vec((0u8..10, 0u64..600), 1..1500),
        ) {
            let c = cfg(b, 8 * b + 48 + extra, gamma);
            let mut t = LogMethodTable::new(c.clone(), seed).unwrap();
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for (i, &(op, key)) in ops.iter().enumerate() {
                match op {
                    0..=6 => {
                        t.insert(key, i as u64).unwrap();
                        truth.insert(key, i as u64);
                    }
                    7 | 8 => {
                        let was = t.delete(key).unwrap();
                        proptest::prop_assert_eq!(was, truth.remove(&key).is_some());
                    }
                    _ => t.flush_memory().unwrap(),
                }
                let when = format!("(b, m, γ) = ({b}, {}, {gamma}), op {i}", c.m);
                t.assert_filters_follow_the_plan(usize::MAX, &when);
                t.assert_filters_hold_their_keys(&when);
                proptest::prop_assert!(t.memory_used() <= c.m);
                if i % 100 == 99 {
                    let (filtered, levels) = (t.filter_plan().levels(), t.levels.clone());
                    let disk = std::mem::replace(&mut t.disk, mem_disk(b));
                    let r = LogMethodTable::from_parts(disk, c.clone(), seed, levels, None).unwrap();
                    r.assert_filters_follow_the_plan(filtered, &format!("{when}, rebuilt"));
                    // The same segments. A flush probes each for the
                    // items landing, shadowed copies included, which a
                    // reopen never sees: the probe counts may differ.
                    for k in 1..=filtered {
                        let held = (t.held_and_planned(k).0, r.held_and_planned(k).0);
                        proptest::prop_assert_eq!(held.0, held.1, "{}: H{}", when, k);
                    }
                    t.disk = r.disk;
                }
            }
            for (&key, &value) in &truth {
                proptest::prop_assert_eq!(t.lookup(key).unwrap(), Some(value));
            }
        }
    }

    #[test]
    fn a_lookup_reads_only_the_levels_its_filters_let_through() {
        // The benchmark's deployment, insert-only: every key has exactly
        // one copy. A probe that goes through reads the bucket's primary
        // block, and — in the ≈ 1 % of a level's buckets that chain — the
        // chain block too, unless the primary already had the key.
        let c = cfg(64, 4096, 2);
        let mut t = LogMethodTable::new(c, 42).unwrap();
        // n = 190 000 occupies three filtered levels and two unfiltered
        // ones (n = 100 000 would sit in H6 alone).
        let n = 190_000u64;
        for key in 0..n {
            t.insert(key, key).unwrap();
        }
        let filtered = t.filter_plan().levels();
        let occupied: Vec<usize> = (1..t.levels.len()).filter(|&k| t.levels[k].is_some()).collect();
        assert_eq!((filtered, &occupied[..]), (4, &[1, 3, 4, 5, 6][..]));
        let (mut total, mut probes) = (0, 0);
        // What each level's filter should count.
        let mut per_level = vec![FilterStats::default(); t.level_filter_stats().len()];
        for key in 0..n {
            let h = t.hash.hash64(key);
            // Walk shallow-first behind the accounting: the level that
            // holds the key is probed, and so is each level above it that
            // is unfiltered or whose filter lets the key through; a probe
            // reads down the bucket's chain until it finds the key.
            let mut expect = 0;
            if t.h0.lookup(t.h0_bucket(key), key).is_none() {
                for &k in &occupied {
                    let region = t.levels[k].expect("occupied");
                    let (mut blocks, mut holds) = (0, false);
                    let (q, hops) = (prefix_bucket(h, region.buckets), t.disk.live_blocks());
                    let read = |id| t.disk.backend_mut().read(id);
                    let probe = region.walk(q..q + 1, hops, read, |_, _, blk| {
                        blocks += u64::from(!holds);
                        holds |= blk.contains(key);
                        Ok(())
                    });
                    probe.unwrap();
                    assert!(blocks <= 2, "H{k}: a chain of {blocks} blocks");
                    let filter = t.filters.get(k).and_then(Option::as_ref);
                    assert!(filter.is_some() || k > filtered, "H{k}");
                    let passes = filter.is_none_or(|f| f.may_contain(h));
                    assert!(passes || !holds, "H{k}'s filter lost key {key}");
                    expect += blocks * u64::from(passes);
                    probes += u64::from(passes);
                    if filter.is_some() {
                        per_level[k - 1].skipped += u64::from(!passes);
                        per_level[k - 1].false_positives += u64::from(passes && !holds);
                    }
                    if holds {
                        break;
                    }
                }
            }
            let epoch = t.disk.epoch();
            assert_eq!(t.lookup(key).unwrap(), Some(key));
            let io = t.disk.since(&epoch);
            assert_eq!((io.reads, io.writes + io.rmws), (expect, 0), "key {key}");
            total += io.reads;
        }
        assert_eq!(t.level_filter_stats(), &per_level[..]);
        assert_eq!(t.filter_stats(), per_level.iter().copied().sum());
        // One probe per occupied level down to the key's would be 790 528.
        // Which probes go through depends on the filters and the level
        // sequence, neither of which knows a bucket count: 329 818 (341 342
        // with no loans). The one loan left is the 294 items of empty H2's
        // share that H3 took when it was built; the loans of H4 and H5
        // went back as H3 and H4 were built again.
        assert_eq!(probes, 329_818, "pinned for seed 42");
        let lent: Vec<usize> = t.level_filter_held().iter().map(|h| h.loaned).collect();
        assert_eq!(lent, [0, 0, 294, 0, 0, 0]);
        // Dense levels add the chain blocks: a probe for a key that sits
        // in one (≈ 0.06 % of keys), or that misses in a chained bucket —
        // ≈ 1.1 % of the 98 304 keys of H6 in unfiltered H5 above it, and
        // of the false positives the filters let through.
        assert_eq!(total - probes, 1_189, "tq = 1.7422 (1.7359 + 0.4 %) at n = 190 000");
    }

    #[test]
    fn a_reopen_holds_the_writers_filters_on_the_filtered_levels() {
        // The benchmark's shard after 20 … 27 flushes and a part-filled
        // H0, then rebuilt around its levels and H0's image on the same
        // disk, as a store's reopen does.
        let c = cfg(64, 4096, 2);
        let filtered = FilterPlan::derive(&c, c.m - c.h0_capacity() - (4 * c.b + 16)).levels();
        let (mut loans_seen, mut equal_costs) = (0, 0);
        for flushes in 20..28u64 {
            let n = flushes * c.h0_capacity() as u64 + 1000;
            let mut t = LogMethodTable::new(c.clone(), 42).unwrap();
            for key in 0..n {
                t.insert(key, key).unwrap();
            }
            let writer = probe_cost(&mut t, n);
            let image = t.write_memory_image().unwrap();
            let levels = t.persisted_levels().to_vec();
            let blank = mem_disk(c.b);
            let disk = std::mem::replace(&mut t.disk, blank);
            let epoch = disk.epoch();
            let mut r = LogMethodTable::from_parts(disk, c.clone(), 42, levels, image).unwrap();
            // No more reads than the filtered levels and the image.
            let filtered_blocks: u64 = level_blocks(&mut r).iter().skip(1).take(filtered).sum();
            let image_blocks = image.map_or(0, |i| i.buckets);
            assert_eq!(r.disk.since(&epoch).reads, filtered_blocks + image_blocks, "n = {n}");
            // Each filtered level holds exactly the writer's segments,
            // loans included; past L the reopen reads nothing and holds
            // nothing.
            for k in 1..=filtered {
                let held = |t: &LogMethodTable| t.held_and_planned(k).0;
                assert_eq!(held(&r), held(&t), "n = {n}, H{k}: {:?}", r.level_geometry());
                loans_seen += held(&r).iter().filter(|&&(i, _)| i != k).count();
            }
            r.assert_filters_follow_the_plan(filtered, &format!("n = {n}"));
            r.assert_filters_hold_their_keys(&format!("n = {n}"));
            let reopened = probe_cost(&mut r, n);
            let lent_past_l = t.level_filter_held()[filtered..].iter().any(|h| h.loaned > 0);
            assert!(
                reopened == writer || lent_past_l && reopened > writer,
                "n = {n}: {reopened} I/Os against the writer's {writer}"
            );
            equal_costs += usize::from(!lent_past_l);
        }
        assert!(loans_seen >= 3, "{loans_seen} loans across the reopens");
        assert!(equal_costs >= 3, "{equal_costs} writers held no loan past L");
    }

    #[test]
    fn a_compaction_that_reads_more_levels_than_its_depth_borrows_less() {
        // 3 000 keys, all but every 32nd deleted, leave a deepest level
        // its purge kept small; upserts over 650 fresh keys then stack H1
        // and H2 above it, small enough (a merge drops shadowed copies)
        // for everything to fit H2. Compaction lands there and reads
        // three levels, a bucket buffered for each, so H2 borrows what a
        // merge of three streams leaves room for: a part of what a flush
        // into H2 would hold. The first flush above it recalls the
        // difference, and the rule holds exactly again.
        let mut t = LogMethodTable::new(cfg(8, 1024, 2), 3).unwrap();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for key in 0..3_000u64 {
            t.insert(key, key).unwrap();
            truth.insert(key, key);
        }
        for key in (0..3_000u64).filter(|key| key % 32 != 0) {
            assert!(t.delete(key).unwrap());
            truth.remove(&key);
        }
        let mut step = 0;
        while t.compaction_level(t.len()) < 2 || t.active_levels() <= t.compaction_level(t.len()) {
            t.insert(100_000 + step % 650, step).unwrap();
            truth.insert(100_000 + step % 650, step);
            step += 1;
        }
        assert_eq!((t.compaction_level(t.len()), t.active_levels(), step), (2, 3, 2_286));
        t.merge_into_level(2, None).unwrap();
        let (held, planned) = t.held_and_planned(2);
        assert_eq!((&held[..], &planned[..]), (&[(2, 89), (1, 24)][..], &[(2, 89), (1, 40)][..]));
        assert_eq!(held, t.filter_plan().segments(2, 0, 3));
        t.assert_filters_follow_the_plan(0, "compacted");
        for key in 200_000..200_600u64 {
            t.insert(key, key).unwrap();
            truth.insert(key, key);
        }
        assert_eq!(t.level_items()[1..3], [512, 744]);
        t.assert_filters_follow_the_plan(usize::MAX, "a flush above");
        t.assert_filters_hold_their_keys("a flush above");
        for (&key, &value) in &truth {
            assert_eq!(t.lookup(key).unwrap(), Some(value), "key {key}");
        }
    }

    /// Accounted I/Os of looking every key of `0..n` up (each present,
    /// with value `key`).
    fn probe_cost(t: &mut LogMethodTable, n: u64) -> u64 {
        let epoch = t.disk.epoch();
        for key in 0..n {
            assert_eq!(t.lookup(key).unwrap(), Some(key), "key {key}");
        }
        t.disk.since(&epoch).reads
    }

    #[test]
    fn round_trip_small() {
        let mut t = LogMethodTable::new(cfg(4, 96, 2), 1).unwrap();
        for k in 0..500u64 {
            t.insert(k, k * 2).unwrap();
        }
        assert_eq!(t.len(), 500);
        for k in 0..500u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k * 2), "key {k}");
        }
        assert_eq!(t.lookup(9999).unwrap(), None);
    }

    #[test]
    fn upsert_returns_newest_value() {
        let mut t = LogMethodTable::new(cfg(4, 96, 2), 2).unwrap();
        // Push enough items that early keys sink into disk levels…
        for k in 0..200u64 {
            t.insert(k, 1).unwrap();
        }
        // …then update them: new copies live in H0 / shallow levels.
        for k in 0..200u64 {
            t.insert(k, 2).unwrap();
        }
        for k in 0..200u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(2), "shallow-first finds newest");
        }
    }

    #[test]
    fn level_capacities_are_respected() {
        let c = cfg(4, 96, 2);
        let mut t = LogMethodTable::new(c.clone(), 3).unwrap();
        for k in 0..3000u64 {
            t.insert(k, k).unwrap();
            // Invariant: every level within capacity right after an insert
            // (flush happens inside insert).
            for (lvl, &cnt) in t.level_items().iter().enumerate() {
                if lvl == 0 {
                    assert!(cnt <= c.h0_capacity());
                } else {
                    assert!(
                        cnt <= c.level_capacity(lvl as u32),
                        "level {lvl} holds {cnt} > cap {}",
                        c.level_capacity(lvl as u32)
                    );
                }
            }
        }
    }

    #[test]
    fn insertions_are_sublinear_in_ios() {
        let b = 64;
        let m = 1024;
        let mut t = LogMethodTable::new(cfg(b, m, 2), 4).unwrap();
        let n = 50_000u64;
        for k in 0..n {
            t.insert(k, k).unwrap();
        }
        let tu = t.total_ios() as f64 / n as f64;
        // Lemma 5: O((γ/b) log(n/m)) = O((2/64)·log2(48)) ≈ 0.18-ish.
        assert!(tu < 0.7, "o(1) insertion cost expected, got {tu}");
    }

    #[test]
    fn gamma_trades_insert_for_query() {
        // Larger γ ⇒ fewer levels (cheaper queries), more merge traffic.
        let run = |gamma: u64| {
            let mut t = LogMethodTable::new(cfg(16, 256, gamma), 5).unwrap();
            for k in 0..20_000u64 {
                t.insert(k, k).unwrap();
            }
            (t.total_ios() as f64 / 20_000.0, t.active_levels())
        };
        let (_tu2, lv2) = run(2);
        let (_tu8, lv8) = run(8);
        assert!(lv8 <= lv2, "γ=8 has no more levels than γ=2 ({lv8} vs {lv2})");
    }

    #[test]
    fn lookup_cost_bounded_by_active_levels() {
        let mut t = LogMethodTable::new(cfg(8, 128, 2), 6).unwrap();
        for k in 0..5000u64 {
            t.insert(k, k).unwrap();
        }
        let levels = t.active_levels() as u64;
        let e = t.disk.epoch();
        for k in 0..200u64 {
            let _ = t.lookup(k * 7).unwrap();
        }
        let per = t.disk.since(&e).total() as f64 / 200.0;
        // Each level costs ≥ 1 I/O; chains add a little.
        assert!(per <= levels as f64 + 1.0, "lookup {per} ≤ {levels}+1");
    }

    #[test]
    fn delete_reports_presence_and_hides_the_key() {
        let mut t = LogMethodTable::new(cfg(4, 96, 2), 7).unwrap();
        t.insert(1, 10).unwrap();
        assert!(t.delete(1).unwrap(), "live key reported present");
        assert_eq!(t.lookup(1).unwrap(), None);
        assert!(!t.delete(1).unwrap(), "second delete is a miss");
        assert!(!t.delete(999).unwrap(), "never-inserted key is a miss");
        // Reinsert resurrects the key with the new value.
        t.insert(1, 20).unwrap();
        assert_eq!(t.lookup(1).unwrap(), Some(20));
    }

    #[test]
    fn tombstone_shadows_deeper_copies() {
        let mut t = LogMethodTable::new(cfg(4, 96, 2), 7).unwrap();
        // Sink keys into disk levels…
        for k in 0..300u64 {
            t.insert(k, k).unwrap();
        }
        // …then delete a spread of them: the markers start in H0 and
        // migrate down through merges, shadowing the deep copies.
        for k in (0..300u64).step_by(3) {
            assert!(t.delete(k).unwrap(), "key {k}");
        }
        // Push more data so markers travel through level merges.
        for k in 1000..1300u64 {
            t.insert(k, k).unwrap();
        }
        for k in 0..300u64 {
            let expect = if k % 3 == 0 { None } else { Some(k) };
            assert_eq!(t.lookup(k).unwrap(), expect, "key {k}");
        }
    }

    #[test]
    fn deepest_merge_purges_markers_and_dead_copies() {
        let mut t = LogMethodTable::new(cfg(4, 96, 2), 11).unwrap();
        for k in 0..400u64 {
            t.insert(k, k).unwrap();
        }
        for k in 0..400u64 {
            assert!(t.delete(k).unwrap());
        }
        // Fresh inserts force carries whose deepest-level merges purge
        // markers together with the copies they shadow.
        for k in 1000..1400u64 {
            t.insert(k, k).unwrap();
        }
        // Physical footprint stays bounded: without purging it would hold
        // 400 live + 400 markers + 400 dead copies = 1200 items.
        assert!(t.len() < 1000, "purge reclaimed space, len = {}", t.len());
        for k in 0..400u64 {
            assert_eq!(t.lookup(k).unwrap(), None, "deleted key {k} stays gone");
        }
        for k in 1000..1400u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k));
        }
    }

    #[test]
    fn reserved_sentinels_are_rejected() {
        let mut t = LogMethodTable::new(cfg(4, 96, 2), 7).unwrap();
        assert!(t.insert(u64::MAX, 1).is_err(), "reserved key");
        assert!(t.insert(1, u64::MAX).is_err(), "reserved value (deletion marker)");
        assert!(t.delete(u64::MAX).is_err(), "reserved key on delete");
    }

    #[test]
    fn layout_accounts_for_every_item() {
        let mut t = LogMethodTable::new(cfg(4, 96, 2), 8).unwrap();
        for k in 0..777u64 {
            t.insert(k, k).unwrap();
        }
        let snap = t.layout_snapshot().unwrap();
        assert_eq!(snap.total_items(), 777);
    }

    #[test]
    fn memory_budget_fits_m() {
        let t = LogMethodTable::new(cfg(8, 256, 2), 9).unwrap();
        assert!(t.memory_used() <= 256);
    }

    #[test]
    fn works_on_file_disk() {
        use dxh_extmem::{FileDisk, IoCostModel};
        let c = cfg(8, 128, 2);
        let disk = Disk::new(FileDisk::temp(8).unwrap(), 8, IoCostModel::SeekDominated);
        let mut t = LogMethodTable::new_on(disk, c, 10).unwrap();
        for k in 0..400u64 {
            t.insert(k, k + 9).unwrap();
        }
        for k in 0..400u64 {
            assert_eq!(t.lookup(k).unwrap(), Some(k + 9));
        }
    }
}
