//! Hash-ordered merge streams: the engine behind every level migration,
//! every Ĥ merge and compaction.
//!
//! Because [`dxh_hashfn::prefix_bucket`] is monotone in the hash value,
//! bucket `p` of a table holds one interval of hashes, and reading the
//! buckets `0, 1, 2, …`, each sorted as it is read, yields the table's
//! items in hash order — hence in nondecreasing *target*-bucket order for
//! any target bucket count. Merging `k` tables into one region is
//! therefore a plain `k`-way merge of hash-ordered runs, one synchronized
//! linear pass — the paper's "scanning the two tables in parallel",
//! generalized. A level migration uses exactly that: `H0`, every carried
//! level and the level the carry stops at stream into a fresh destination
//! together (see `LogMethodTable::flush`), so an item is read once and
//! written once per migration however many levels it skips.
//!
//! That pass is written once, as [`MergeCursor`]: it owns the sources and
//! yields each destination bucket's merged items in `(hash, key)` order,
//! the newest copy of a key winning and spent deletion markers purged.
//! Each item is hashed once, as its source bucket is read: that word
//! orders it, routes it, tells its copies from other keys' and feeds the
//! destination's filter. Two consumers write what it yields:
//! [`build_fresh_region`] into a fresh region (a flush, an `Ĥ` rebuild,
//! compaction's `LogMethodTable::merge_into_level`) and
//! [`merge_in_place`] into the buckets of `Ĥ`.
//!
//! A source holds one of its buckets at a time — `H0`'s drained, a disk
//! region's read and freed — and reads the next only once the merge
//! reaches that bucket's least hash, so a `k`-source merge buffers `k`
//! source buckets at most. Each is sorted as it is read, so a bucket
//! written out of hash order (an `Ĥ` bucket grown by an in-place merge, a
//! level file of an older build) merges like any other, and an item found
//! outside the bucket it was read from is [`ExtMemError::Corrupt`] there
//! and then: its place in the order is lost, and it must not vanish
//! quietly.
//!
//! Reading a region *without* consuming it — filter rebuilds, layout
//! snapshots — goes through [`Region::walk`]; that and every chain
//! operation the merge uses follow overflow chains by
//! [`dxh_tables::chain_walk`], bounded by the blocks the disk can hold.

use dxh_extmem::{BlockId, Disk, ExtMemError, Item, Key, Result, StorageBackend, Value};
use dxh_hashfn::{prefix_bucket, HashFn, IdealFn};
use dxh_tables::{chain_collect, write_bucket, Region};

use crate::filter::LevelFilter;
use crate::mem_table::MemTable;

/// An item beside its key's `hash64`: a merge hashes each item once, as
/// its source bucket is read, and orders, routes, deduplicates and
/// filters it by that word.
type Hashed = (u64, Item);

/// Where a source's buckets are.
enum Buckets<'a> {
    /// `H0`'s, each drained as the merge reaches it.
    Mem(&'a mut MemTable),
    /// A disk region's, each freed as it is read (a merge never writes
    /// into one of its sources).
    Disk(Region),
}

/// One input to a merge, in precedence order (earlier sources shadow
/// later ones on duplicate keys): a table read one bucket at a time, in
/// `(hash, key)` order.
pub(crate) struct Source<'a> {
    buckets: Buckets<'a>,
    /// How many buckets the source has, the next one to read, and the
    /// least hash that bucket can hold.
    count: u64,
    next: u64,
    least: u64,
    /// The bucket read last, sorted, and how many of its items are taken.
    run: Vec<Hashed>,
    taken: usize,
    /// A disk bucket's items as read, before hashing.
    read: Vec<Item>,
}

impl<'a> Source<'a> {
    /// A source that drains `h0` bucket by bucket.
    pub(crate) fn from_memory(h0: &'a mut MemTable) -> Self {
        Source::new(h0.bucket_count() as u64, Buckets::Mem(h0))
    }

    /// A source that consumes (and frees) `region`.
    pub(crate) fn from_region(region: Region) -> Self {
        Source::new(region.buckets, Buckets::Disk(region))
    }

    fn new(count: u64, buckets: Buckets<'a>) -> Self {
        Source { buckets, count, next: 0, least: 0, run: Vec::new(), taken: 0, read: Vec::new() }
    }

    /// The hash the source goes on from: its next item's, or, while the
    /// bucket that item is in is unread, the least that bucket can hold;
    /// `None` once every item is taken.
    fn head(&self) -> Option<u64> {
        match self.run.get(self.taken) {
            Some(&(h, _)) => Some(h),
            None => (self.next < self.count).then_some(self.least),
        }
    }

    /// Reads the next bucket into the run, hashed and in `(hash, key)`
    /// order; an item it holds that hashes to another bucket is
    /// [`ExtMemError::Corrupt`].
    fn read_bucket<B: StorageBackend>(&mut self, disk: &mut Disk<B>, hash: &IdealFn) -> Result<()> {
        let p = self.next;
        let hashed = |it: Item| (hash.hash64(it.key), it);
        self.run.clear();
        match &mut self.buckets {
            Buckets::Mem(h0) => self.run.extend(h0.drain_bucket(p as usize).map(hashed)),
            Buckets::Disk(region) => {
                chain_collect(disk, region.block_of(p), true, &mut self.read)?;
                self.run.extend(self.read.drain(..).map(hashed));
            }
        }
        // Stable: a key twice in one bucket keeps first the copy a probe
        // meets first. A bucket a merge wrote is in order already.
        let at = |&(h, it): &Hashed| (h, it.key);
        if !self.run.is_sorted_by_key(at) {
            self.run.sort_by_key(at);
        }
        // In hash order, the first and the last item bound the rest.
        let ends = [self.run.first(), self.run.last()];
        if ends.into_iter().flatten().any(|&(h, _)| prefix_bucket(h, self.count) != p) {
            return Err(ExtMemError::Corrupt(format!(
                "bucket {p} of {} of a merge source holds an item of another bucket",
                self.count
            )));
        }
        (self.taken, self.next) = (0, p + 1);
        self.least = ((self.next as u128) << 64).div_ceil(self.count as u128) as u64;
        Ok(())
    }
}

/// Merges the hash-ordered `older` into the hash-ordered `batch`,
/// through `spare`; on a tie `batch`'s copy, the newer, goes first.
fn merge_older(batch: &mut Vec<Hashed>, spare: &mut Vec<Hashed>, older: &[Hashed]) {
    if batch.is_empty() || older.is_empty() {
        batch.extend_from_slice(older);
        return;
    }
    let at = |&(h, it): &Hashed| (h, it.key);
    let mut newer = batch.iter().peekable();
    spare.clear();
    for o in older {
        while let Some(&n) = newer.next_if(|n| at(n) <= at(o)) {
            spare.push(n);
        }
        spare.push(*o);
    }
    spare.extend(newer);
    std::mem::swap(batch, spare);
}

/// Statistics of one merge pass.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MergeStats {
    /// Items written to the new region (after dedup).
    pub items: usize,
    /// Duplicate (shadowed) items dropped.
    pub shadowed: usize,
    /// Deletion markers dropped because the merge target is the deepest
    /// level (no older copy can exist below, so the marker is spent).
    pub purged: usize,
}

/// What a merge changes about each value it writes, as the item lands —
/// the payload remap of [`crate::KvStore::compact`].
pub(crate) type ValueMap<'a> = &'a mut dyn FnMut(Value) -> Result<Value>;

/// What [`MergeCursor::next_bucket`] yields: a destination bucket, its
/// merged items in `(hash, key)` order, and their keys' `hash64`s at the
/// same indices.
type MergedBucket<'a> = (u64, &'a mut [Item], &'a [u64]);

/// The synchronized scan itself: `sources` (precedence order: earlier
/// wins) merged into `nb_dst` destination buckets, one bucket per
/// [`MergeCursor::next_bucket`] call. Owns the sources and the scratch
/// buffers; consumes every source as it goes. With `purge`, a winning
/// deletion marker is dropped instead of yielded — valid only when the
/// destination is the deepest level, where the marker has nothing left
/// to shadow.
pub(crate) struct MergeCursor<'a> {
    hash: &'a IdealFn,
    sources: Vec<Source<'a>>,
    nb_dst: u64,
    purge: bool,
    /// What the sources hold for the bucket being merged, every copy,
    /// in `(hash, key)` order, and the buffer it is merged through.
    batch: Vec<Hashed>,
    spare: Vec<Hashed>,
    merged: Vec<Item>,
    /// `hash64` of `merged[i]` at index `i`.
    merged_hashes: Vec<u64>,
    /// Items yielded, shadowed copies and spent markers dropped so far.
    pub stats: MergeStats,
}

impl<'a> MergeCursor<'a> {
    pub(crate) fn new(
        hash: &'a IdealFn,
        sources: Vec<Source<'a>>,
        nb_dst: u64,
        purge: bool,
    ) -> Self {
        MergeCursor {
            hash,
            sources,
            nb_dst,
            purge,
            batch: Vec::new(),
            spare: Vec::new(),
            merged: Vec::new(),
            merged_hashes: Vec::new(),
            stats: MergeStats::default(),
        }
    }

    /// The next destination bucket that receives anything, with its
    /// items newest-first deduplicated, in `(hash, key)` order, and their
    /// keys' `hash64`s at the same indices; `None` once every source is
    /// consumed.
    ///
    /// The bucket `q` is the one the least head routes to. Each source,
    /// newest first, gives the hash-ordered prefix of what it has left
    /// that routes to `q`, reading its next bucket when `q` reaches that
    /// bucket's least hash, and the prefix is merged into the batch, an
    /// older copy after a newer one: the copies of a key lie together,
    /// the newest first, and a copy equal to the one before it is
    /// shadowed.
    ///
    /// Cost: one read per source block (primary + chain) over the whole
    /// scan, `O(Σ |source regions| / b)` I/Os.
    pub(crate) fn next_bucket<B: StorageBackend>(
        &mut self,
        disk: &mut Disk<B>,
    ) -> Result<Option<MergedBucket<'_>>> {
        self.merged.clear();
        self.merged_hashes.clear();
        loop {
            let heads = self.sources.iter().filter_map(Source::head);
            let Some(q) = heads.map(|h| prefix_bucket(h, self.nb_dst)).min() else {
                return Ok(None);
            };
            self.batch.clear();
            for src in &mut self.sources {
                while src.head().is_some_and(|h| prefix_bucket(h, self.nb_dst) == q) {
                    if src.taken == src.run.len() {
                        src.read_bucket(disk, self.hash)?;
                        continue;
                    }
                    let rest = &src.run[src.taken..];
                    let n = rest.partition_point(|&(h, _)| prefix_bucket(h, self.nb_dst) == q);
                    merge_older(&mut self.batch, &mut self.spare, &rest[..n]);
                    src.taken += n;
                }
            }
            let mut last = None;
            for &(h, it) in &self.batch {
                if last == Some((h, it.key)) {
                    self.stats.shadowed += 1;
                } else if self.purge && it.is_delete_marker() {
                    self.stats.purged += 1;
                } else {
                    self.merged.push(it);
                    self.merged_hashes.push(h);
                }
                last = Some((h, it.key));
            }
            if !self.merged.is_empty() {
                self.stats.items += self.merged.len();
                return Ok(Some((q, &mut self.merged, &self.merged_hashes)));
            }
        }
    }

    /// Whether the bucket just yielded holds `key` — a copy that shadows
    /// any older one at the destination. A binary search: the bucket is
    /// in hash order.
    fn yielded(&self, key: Key) -> bool {
        let h = self.hash.hash64(key);
        let from = self.merged_hashes.partition_point(|&m| m < h);
        let to = self.merged_hashes.partition_point(|&m| m <= h);
        self.merged[from..to].iter().any(|it| it.key == key)
    }
}

/// Builds what `cursor` yields into a fresh region of its bucket count
/// on `disk`, where the sources live. Each value first goes through
/// `map`, if any, and every key written is added to `filter`, when the
/// destination level keeps one — by the hash the cursor already holds.
///
/// Cost: the cursor's source reads plus one write per nonempty target
/// block — `O(Σ |source regions| / b + nb_dst)` I/Os, none of them a
/// read of the destination.
pub(crate) fn build_fresh_region<B: StorageBackend>(
    disk: &mut Disk<B>,
    mut cursor: MergeCursor<'_>,
    mut filter: Option<&mut LevelFilter>,
    mut map: Option<ValueMap<'_>>,
) -> Result<(Region, MergeStats)> {
    let buckets = cursor.nb_dst;
    let base = disk.allocate_contiguous(buckets as usize)?;
    while let Some((q, items, hashes)) = cursor.next_bucket(disk)? {
        for (it, &h) in items.iter_mut().zip(hashes) {
            if let Some(map) = map.as_mut() {
                it.value = map(it.value)?;
            }
            if let Some(filter) = filter.as_mut() {
                filter.insert(h);
            }
        }
        write_bucket(disk, BlockId(base.raw() + q), items)?;
    }
    Ok((Region { base, buckets, items: cursor.stats.items }, cursor.stats))
}

/// Merges what `cursor` yields **in place** into the existing `region`
/// (the cursor's bucket count must be the region's), shadowing old
/// copies of incoming keys — Theorem 2's merge into `Ĥ`, the one table
/// of this crate that keeps load ≤ 1/2 to be written into. The caller
/// must ensure the merged items still fit the region at that load
/// (`Ĥ`'s resize test).
///
/// Cost: under the paper's seek-dominated accounting, the common case is
/// **one combined I/O per bucket that receives items** (read-modify-write
/// of the primary block), plus the source-region reads — half the cost of
/// a full rewrite. Buckets receiving nothing are untouched (free).
pub(crate) fn merge_in_place<B: StorageBackend>(
    disk: &mut Disk<B>,
    mut cursor: MergeCursor<'_>,
    region: &mut Region,
) -> Result<MergeStats> {
    debug_assert_eq!(cursor.nb_dst, region.buckets);
    while let Some((q, adds, _)) = cursor.next_bucket(disk)? {
        let (head, added) = (region.block_of(q), adds.len());
        // Fast path: an unchained primary with room for everything —
        // exactly one combined I/O. (A non-full primary implies no chain:
        // chains are only ever created once the primary is full.) A bucket
        // needing the slow path is left unmodified here, so `update`
        // charges only a read for the probe.
        let applied = disk.update(head, |blk| {
            if blk.next().is_some() || blk.len() + adds.len() > blk.capacity() {
                return (false, None);
            }
            let removed = adds.iter().filter(|it| blk.remove(it.key).is_some()).count();
            for &it in adds.iter() {
                blk.push(it).expect("checked capacity");
            }
            (true, Some(removed))
        })?;
        let removed = match applied {
            Some(removed) => removed,
            None => {
                // Slow path: collect the whole bucket, merge in memory
                // (incoming shadows old), rewrite.
                let mut merged = adds.to_vec();
                let mut old = Vec::new();
                chain_collect(disk, head, false, &mut old)?;
                let before = old.len();
                old.retain(|it| !cursor.yielded(it.key));
                merged.extend_from_slice(&old);
                write_bucket(disk, head, &merged)?;
                before - old.len()
            }
        };
        cursor.stats.shadowed += removed;
        region.items = region.items + added - removed;
    }
    Ok(cursor.stats)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::ops::Range;

    use super::*;
    use dxh_extmem::{mem_disk, MemDisk, VALUE_TOMBSTONE};

    fn hash() -> IdealFn {
        IdealFn::from_seed(77)
    }

    /// `items` grouped by their bucket of `nb`, each bucket in the order
    /// the items come — not hash order.
    fn per_bucket(h: &IdealFn, nb: u64, items: &[Item]) -> Vec<Vec<Item>> {
        let mut buckets = vec![Vec::new(); nb as usize];
        for &it in items {
            buckets[prefix_bucket(h.hash64(it.key), nb) as usize].push(it);
        }
        buckets
    }

    /// A region whose bucket `q` holds `buckets[q]`, written directly.
    fn write_buckets(disk: &mut Disk<MemDisk>, buckets: &[Vec<Item>]) -> Region {
        let base = disk.allocate_contiguous(buckets.len()).unwrap();
        for (q, items) in buckets.iter().enumerate() {
            if !items.is_empty() {
                write_bucket(disk, BlockId(base.raw() + q as u64), items).unwrap();
            }
        }
        let items = buckets.iter().map(Vec::len).sum();
        Region { base, buckets: buckets.len() as u64, items }
    }

    /// Builds a region by writing items to their buckets directly.
    fn write_region(disk: &mut Disk<MemDisk>, h: &IdealFn, nb: u64, items: &[Item]) -> Region {
        write_buckets(disk, &per_bucket(h, nb, items))
    }

    /// [`write_region`] of items whose value is their key.
    fn build_region(disk: &mut Disk<MemDisk>, h: &IdealFn, nb: u64, keys: &[u64]) -> Region {
        write_region(disk, h, nb, &keys.iter().map(|&k| Item::new(k, k)).collect::<Vec<_>>())
    }

    /// An `H0` of `nb` buckets holding `items` (a later copy of a key
    /// replaces an earlier one).
    fn h0_of(h: &IdealFn, nb: u64, items: &[Item]) -> MemTable {
        let mut t = MemTable::new(nb as usize, usize::MAX);
        for &it in items {
            t.upsert(prefix_bucket(h.hash64(it.key), nb) as usize, it);
        }
        t
    }

    /// Every item of buckets `buckets` of `r`, in block order, read behind
    /// the accounting.
    fn bucket_items(disk: &mut Disk<MemDisk>, r: &Region, buckets: Range<u64>) -> Vec<Item> {
        let mut out = Vec::new();
        r.inspect(disk, |q, _, blk| {
            if buckets.contains(&q) {
                out.extend_from_slice(blk.items());
            }
        })
        .unwrap();
        out
    }

    fn region_keys(disk: &mut Disk<MemDisk>, r: &Region) -> Vec<u64> {
        bucket_items(disk, r, 0..r.buckets).iter().map(|it| it.key).collect()
    }

    /// A fresh region on the sources' own disk, as a flush builds one.
    fn compact(
        disk: &mut Disk<MemDisk>,
        hash: &IdealFn,
        sources: Vec<Source>,
        nb_dst: u64,
        purge: bool,
        filter: Option<&mut LevelFilter>,
    ) -> Result<(Region, MergeStats)> {
        build_fresh_region(disk, MergeCursor::new(hash, sources, nb_dst, purge), filter, None)
    }

    #[test]
    fn compact_merges_two_regions_losslessly() {
        let mut d = mem_disk(4);
        let h = hash();
        let a = build_region(&mut d, &h, 2, &[1, 2, 3, 4, 5]);
        let b = build_region(&mut d, &h, 4, &[10, 11, 12, 13, 14, 15, 16]);
        let (merged, stats) = compact(
            &mut d,
            &h,
            vec![Source::from_region(a), Source::from_region(b)],
            8,
            false,
            None,
        )
        .unwrap();
        assert_eq!(stats.items, 12);
        assert_eq!(stats.shadowed, 0);
        let mut keys = region_keys(&mut d, &merged);
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15, 16]);
    }

    #[test]
    fn compact_dedups_with_precedence() {
        let mut d = mem_disk(4);
        let h = hash();
        // Key 7 exists in both; the earlier source must win.
        let newer = build_region(&mut d, &h, 2, &[7]);
        let older = build_region(&mut d, &h, 2, &[7, 8]);
        // Give them distinguishable values.
        // (build_region sets value = key, so rewrite newer's 7 to value 99.)
        let q = prefix_bucket(h.hash64(7), 2);
        d.read_modify_write(newer.block_of(q), |blk| {
            blk.replace(7, 99);
        })
        .unwrap();
        let (merged, stats) = compact(
            &mut d,
            &h,
            vec![Source::from_region(newer), Source::from_region(older)],
            4,
            false,
            None,
        )
        .unwrap();
        assert_eq!(stats.shadowed, 1);
        assert_eq!(stats.items, 2);
        // Find key 7's value in the merged region.
        let q = prefix_bucket(h.hash64(7), 4);
        let blk = d.backend_mut().read(merged.block_of(q)).unwrap();
        assert_eq!(blk.find(7), Some(99), "newer source shadowed the older");
    }

    #[test]
    fn compact_frees_source_regions() {
        let mut d = mem_disk(4);
        let h = hash();
        let a = build_region(&mut d, &h, 4, &(0..30).collect::<Vec<_>>());
        let live_before = d.live_blocks();
        assert!(live_before >= 4);
        let (merged, _) =
            compact(&mut d, &h, vec![Source::from_region(a)], 8, false, None).unwrap();
        // Only the new region (8 primaries + chains) is live.
        assert!(d.live_blocks() <= 8 + 4, "sources freed");
        assert_eq!(merged.items, 30);
    }

    #[test]
    fn compact_refuses_a_source_with_items_outside_their_buckets() {
        // Blocks that hold another table's items (media that lost a
        // sync): bucket 1 of 2 holds a key of bucket 0, which is built by
        // the time the stream reads it. Whatever consumes the cursor —
        // a build of a fresh region, the in-place merge — ends in the
        // same refusal.
        let h = hash();
        let stray = (0..).find(|&k| prefix_bucket(h.hash64(k), 2) == 0).expect("some key");
        let misplaced = |d: &mut Disk<MemDisk>| {
            let base = d.allocate_contiguous(2).unwrap();
            write_bucket(d, BlockId(base.raw() + 1), &[Item::new(stray, 0)]).unwrap();
            MergeCursor::new(
                &h,
                vec![Source::from_region(Region { base, buckets: 2, items: 1 })],
                2,
                false,
            )
        };
        let mut d = mem_disk(4);
        let cursor = misplaced(&mut d);
        let merged = build_fresh_region(&mut d, cursor, None, None);
        assert!(matches!(merged, Err(ExtMemError::Corrupt(_))));
        let mut hat = build_region(&mut d, &h, 2, &[]);
        let cursor = misplaced(&mut d);
        let merged = merge_in_place(&mut d, cursor, &mut hat);
        assert!(matches!(merged, Err(ExtMemError::Corrupt(_))), "in place");
    }

    #[test]
    fn memory_source_merges_with_disk() {
        let mut d = mem_disk(4);
        let h = hash();
        let disk_region = build_region(&mut d, &h, 2, &[100, 101, 102]);
        let mut mem = h0_of(&h, 4, &[Item::new(1, 1), Item::new(2, 2)]);
        let (merged, stats) = compact(
            &mut d,
            &h,
            vec![Source::from_memory(&mut mem), Source::from_region(disk_region)],
            4,
            false,
            None,
        )
        .unwrap();
        assert_eq!(stats.items, 5);
        let mut keys = region_keys(&mut d, &merged);
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2, 100, 101, 102]);
        assert!(mem.is_empty(), "H0 drained");
    }

    #[test]
    fn items_land_in_their_prefix_buckets() {
        let mut d = mem_disk(4);
        let h = hash();
        let a = build_region(&mut d, &h, 2, &(0..50).collect::<Vec<_>>());
        let (merged, _) =
            compact(&mut d, &h, vec![Source::from_region(a)], 16, false, None).unwrap();
        for q in 0..merged.buckets {
            for it in bucket_items(&mut d, &merged, q..q + 1) {
                assert_eq!(
                    prefix_bucket(h.hash64(it.key), 16),
                    q,
                    "key {} in wrong bucket",
                    it.key
                );
            }
        }
    }

    #[test]
    fn shrinking_merge_works_too() {
        // nb_dst smaller than the source: many source buckets per target
        // bucket.
        let mut d = mem_disk(4);
        let h = hash();
        let a = build_region(&mut d, &h, 16, &(0..40).collect::<Vec<_>>());
        let (merged, _) =
            compact(&mut d, &h, vec![Source::from_region(a)], 4, false, None).unwrap();
        let mut keys = region_keys(&mut d, &merged);
        keys.sort_unstable();
        assert_eq!(keys, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn coprime_bucket_counts_merge_correctly() {
        // 3 → 7 buckets: no divisibility anywhere; a source bucket's
        // items must carry across uneven boundaries.
        let mut d = mem_disk(4);
        let h = hash();
        let a = build_region(&mut d, &h, 3, &(0..60).collect::<Vec<_>>());
        let (merged, _) =
            compact(&mut d, &h, vec![Source::from_region(a)], 7, false, None).unwrap();
        let mut keys = region_keys(&mut d, &merged);
        keys.sort_unstable();
        assert_eq!(keys, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn in_place_merge_adds_and_shadows() {
        let mut d = mem_disk(4);
        let h = hash();
        let mut region = build_region(&mut d, &h, 8, &(0..16).collect::<Vec<_>>());
        // Incoming: new keys 100..106 plus an update of key 3.
        let mut incoming: Vec<Item> = (100..106).map(|k| Item::new(k, k)).collect();
        incoming.push(Item::new(3, 999));
        let mut mem = h0_of(&h, 4, &incoming);
        let src = Source::from_memory(&mut mem);
        let cursor = MergeCursor::new(&h, vec![src], region.buckets, false);
        let stats = merge_in_place(&mut d, cursor, &mut region).unwrap();
        assert_eq!(stats.items, 7);
        assert_eq!(stats.shadowed, 1, "old copy of key 3 replaced");
        assert_eq!(region.items, 16 + 7 - 1);
        let mut keys = region_keys(&mut d, &region);
        keys.sort_unstable();
        let mut expect: Vec<u64> = (0..16).collect();
        expect.extend(100..106);
        expect.push(3);
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(keys, expect);
        // The updated value won.
        let q = prefix_bucket(h.hash64(3), region.buckets);
        let bucket = bucket_items(&mut d, &region, q..q + 1);
        assert_eq!(bucket.iter().find(|it| it.key == 3).map(|it| it.value), Some(999));
    }

    #[test]
    fn in_place_merge_common_case_is_one_io_per_receiving_bucket() {
        let mut d = mem_disk(8);
        let h = hash();
        // Half-empty region: every bucket has room.
        let mut region = build_region(&mut d, &h, 16, &(0..32).collect::<Vec<_>>());
        let incoming: Vec<Item> = (1000..1016).map(|k| Item::new(k, k)).collect();
        let mut mem = h0_of(&h, 4, &incoming);
        let e = d.epoch();
        let sources = vec![Source::from_memory(&mut mem)];
        merge_in_place(&mut d, MergeCursor::new(&h, sources, region.buckets, false), &mut region)
            .unwrap();
        let io = d.since(&e).total();
        // At most one combined I/O per bucket (16), usually fewer since
        // some buckets receive nothing.
        assert!(io <= 16, "in-place merge cost {io} ≤ 16 buckets");
    }

    #[test]
    fn in_place_merge_handles_overflowing_buckets() {
        let mut d = mem_disk(2); // tiny blocks force the slow path
        let h = hash();
        let mut region = build_region(&mut d, &h, 2, &(0..4).collect::<Vec<_>>());
        let incoming: Vec<Item> = (100..110).map(|k| Item::new(k, k)).collect();
        let mut mem = h0_of(&h, 4, &incoming);
        let sources = vec![Source::from_memory(&mut mem)];
        merge_in_place(&mut d, MergeCursor::new(&h, sources, region.buckets, false), &mut region)
            .unwrap();
        assert_eq!(region.items, 14);
        let mut keys = region_keys(&mut d, &region);
        keys.sort_unstable();
        let mut expect: Vec<u64> = (0..4).collect();
        expect.extend(100..110);
        assert_eq!(keys, expect);
    }

    #[test]
    fn k_way_merge_buffers_one_source_bucket_per_stream() {
        // Streams an `H0` of `h0` items (in the deployed geometry's 64
        // buckets) and regions of `source_buckets` (b = 64, `fill` items
        // to a bucket on average; with `stuffed`, one bucket of the first
        // region is topped up to a full chain block, 2b items) into
        // `nb_dst` buckets as `compact` does. Returns the most items held
        // at once — what every stream's run of one source bucket, `H0`'s
        // too, has yet to give, plus the batch gathered for the current
        // bucket — beside the sum over disk streams of their fullest
        // bucket, the fullest bucket of all, and how many buckets chain.
        // A run keeps the items it has given until it reads its next
        // bucket, and the yielded bucket is a second copy of the batch:
        // neither is counted.
        let peak_held = |h0: u64, source_buckets: &[u64], fill: u64, stuffed: bool, nb_dst: u64| {
            let mut d = mem_disk(64);
            let h = hash();
            let (mut next_key, mut one_bucket_each, mut chained) = (h0, 0, 0);
            let mut mem = h0_of(&h, 64, &(0..h0).map(|k| Item::new(k, k)).collect::<Vec<_>>());
            let (mut sources, mut fullest_of_all) = (vec![Source::from_memory(&mut mem)], 0);
            for (i, &nb) in source_buckets.iter().enumerate() {
                let mut keys: Vec<u64> = (next_key..next_key + nb * fill).collect();
                next_key += nb * fill;
                if stuffed && i == 0 {
                    let in_bucket_7 = |k: &u64| prefix_bucket(h.hash64(*k), nb) == 7;
                    let held = keys.iter().filter(|k| in_bucket_7(k)).count();
                    keys.extend((1 << 40..).filter(in_bucket_7).take(128 - held));
                }
                let live = d.live_blocks();
                let region = build_region(&mut d, &h, nb, &keys);
                chained += d.live_blocks() - live - nb;
                // One pass over the region counts every bucket's items.
                let mut held = vec![0; nb as usize];
                region.inspect(&mut d, |q, _, blk| held[q as usize] += blk.items().len()).unwrap();
                let fullest = held.into_iter().max().unwrap_or(0);
                one_bucket_each += fullest;
                fullest_of_all = fullest_of_all.max(fullest);
                sources.push(Source::from_region(region));
            }
            let (mut cursor, mut peak) = (MergeCursor::new(&h, sources, nb_dst, false), 0);
            loop {
                let more = cursor.next_bucket(&mut d).unwrap().is_some();
                let held: usize = cursor.sources.iter().map(|s| s.run.len() - s.taken).sum();
                peak = peak.max(held + cursor.batch.len());
                if !more {
                    break;
                }
            }
            assert_eq!(d.live_blocks(), 0, "every source was drained");
            assert!(mem.is_empty(), "H0 was drained");
            (peak, one_bucket_each, fullest_of_all, chained)
        };
        // A carry at the benchmark's geometry before levels were sized by
        // content (nb0 = 64, γ = 2, load 1/2): H1…H4 into H5, every source
        // count divides the destination's. Bucket boundaries line up, so a
        // stream holds one source bucket and nothing of the one before:
        // it reads the next only once the merge reaches that bucket's
        // least hash.
        let (peak, one_bucket_each, _, chained) =
            peak_held(0, &[128, 256, 512, 1024], 32, false, 2048);
        assert!(peak <= one_bucket_each, "held {peak} items > {one_bucket_each}");
        assert!(one_bucket_each <= 4 * 64);
        assert_eq!(chained, 0, "no bucket chains at load 1/2");
        // Content-sized regions end that alignment: no source count here
        // divides the destination's. A stream's bucket then straddles
        // destination buckets, and what lies past the one being filled
        // waits beside the batch — under two source buckets a stream, so
        // the `2·j·b` a j-stream carry is budgeted
        // (`LogMethodTable::reserving`) holds with the batch counted in.
        let (peak, one_bucket_each, ..) = peak_held(0, &[128, 517, 1031], 32, false, 2583);
        assert!(peak <= 2 * one_bucket_each, "held {peak} items > 2 × {one_bucket_each}");
        assert!(2 * one_bucket_each <= 2 * 3 * 64, "2·j·b at j = 3");
        // Sources at 48 to a bucket chain ≈ 1 % of their buckets,
        // and a chained bucket is buffered whole, past b items. Aligned
        // (H2…H5 of the deployed geometry into H6) or not, and with one
        // bucket chaining a full block, the peak stays under one fullest
        // bucket per stream — 221 / 252 / 175 / 206 items held — and that
        // inside the budget (512 at j = 4, 384 at j = 3).
        for (source_buckets, stuffed, nb_dst) in [
            (&[128u64, 256, 512, 1024][..], false, 2048u64),
            (&[128, 256, 512, 1024], true, 2048),
            (&[128, 517, 1031], false, 1676),
            (&[128, 517, 1031], true, 1676),
        ] {
            let (j, blocks) = (source_buckets.len(), source_buckets.iter().sum::<u64>());
            let (peak, one_bucket_each, fullest, chained) =
                peak_held(0, source_buckets, 48, stuffed, nb_dst);
            let when = format!("{source_buckets:?} into {nb_dst}, stuffed: {stuffed}");
            assert!(blocks / 250 < chained && chained < blocks / 40, "{when}: {chained} chains");
            let fullest_chains = if stuffed { fullest == 128 } else { (65..96).contains(&fullest) };
            assert!(fullest_chains, "{when}: the fullest bucket holds {fullest}");
            assert!(peak <= one_bucket_each, "{when}: held {peak} items > {one_bucket_each}");
            assert!(one_bucket_each <= 2 * j * 64, "{when}: {one_bucket_each} > 2·j·b at j = {j}");
        }
        // A flush that stops at an `H_j` with room reads it as one more
        // disk stream — j of them, `H1 … H_j`, beside `H0`, drained one of
        // its 64 buckets at a time. The steady state of the deployed
        // geometry, `H0` and an `H1` of one `H0` into an `H1` of two, fits
        // the `4b + 16` reserved for it, with its one stream's fullest
        // bucket chaining a full block too; deeper (γ = 4: `H1` of four
        // `H0`s and an `H2` of five or ten into an `H2` of ten or fifteen;
        // an `H3` of twenty beside them into one of forty) the j streams
        // and `H0`'s bucket stay inside `2·j·b` — 114 / 168 items held of
        // 272; 178 / 220 and 179 / 210 of 256; 232 / 267 of 384.
        for stuffed in [false, true] {
            let (peak, ..) = peak_held(2048, &[43], 48, stuffed, 86);
            assert!(peak <= 4 * 64 + 16, "H0 + H1 into H1, stuffed: {stuffed}: held {peak}");
            for (source_buckets, nb_dst) in
                [(&[171u64, 214][..], 427u64), (&[171, 427], 640), (&[171, 640, 854], 1707)]
            {
                let j = source_buckets.len();
                let (peak, ..) = peak_held(2048, source_buckets, 48, stuffed, nb_dst);
                let when = format!("H0 + {source_buckets:?} into {nb_dst}, stuffed: {stuffed}");
                assert!(peak <= 2 * j * 64, "{when}: held {peak} items > 2·j·b at j = {j}");
            }
        }
    }

    #[test]
    fn compact_purges_markers_and_their_shadowed_copies() {
        let mut d = mem_disk(4);
        let h = hash();
        let older = build_region(&mut d, &h, 2, &[1, 2, 3]);
        let markers = [Item::delete_marker(2)];
        let mut mem = h0_of(&h, 4, &markers);
        let (merged, stats) = compact(
            &mut d,
            &h,
            vec![Source::from_memory(&mut mem), Source::from_region(older)],
            4,
            true,
            None,
        )
        .unwrap();
        assert_eq!(stats.purged, 1, "the marker itself is dropped");
        assert_eq!(stats.shadowed, 1, "the old copy of key 2 is shadowed away");
        assert_eq!(merged.items, 2);
        let mut keys = region_keys(&mut d, &merged);
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 3]);

        // Without purge the marker survives as a regular item (it still
        // has deeper levels to shadow).
        let mut d = mem_disk(4);
        let older = build_region(&mut d, &h, 2, &[1, 2, 3]);
        let mut mem = h0_of(&h, 4, &markers);
        let (merged, stats) = compact(
            &mut d,
            &h,
            vec![Source::from_memory(&mut mem), Source::from_region(older)],
            4,
            false,
            None,
        )
        .unwrap();
        assert_eq!(stats.purged, 0);
        assert_eq!(merged.items, 3);
        let q = prefix_bucket(h.hash64(2), 4);
        let blk = d.backend_mut().read(merged.block_of(q)).unwrap();
        assert_eq!(blk.find(2), Some(u64::MAX), "marker kept verbatim");
    }

    #[test]
    fn compact_adds_every_key_it_writes_to_the_level_filter() {
        use crate::config::CoreConfig;
        use crate::filter::FilterPlan;
        let cfg = CoreConfig::lemma5(2, 256, 2).unwrap();
        let plan = FilterPlan::derive(&cfg, 64);
        let mut filter = plan.filter(1, 0, 1, 40).expect("H1 fits in 64 items");
        let mut d = mem_disk(2); // tiny blocks: most buckets chain
        let h = hash();
        let older = build_region(&mut d, &h, 4, &(0..20).collect::<Vec<_>>());
        let newer: Vec<Item> = (100..120).map(|k| Item::new(k, k)).collect();
        let mut mem = h0_of(&h, 4, &newer);
        let sources = vec![Source::from_memory(&mut mem), Source::from_region(older)];
        let (region, _) = compact(&mut d, &h, sources, 8, false, Some(&mut filter)).unwrap();
        let keys = region_keys(&mut d, &region);
        assert_eq!(keys.len(), 40);
        assert!(keys.iter().all(|&k| filter.may_contain(h.hash64(k))), "a written key is missing");
        let strangers = (1000..2000u64).filter(|&k| filter.may_contain(h.hash64(k))).count();
        assert!(strangers < 100, "{strangers} of 1000 absent keys pass a 40-key filter");
    }

    #[test]
    fn a_region_is_built_mapped_and_filtered_as_it_lands() {
        use crate::config::CoreConfig;
        use crate::filter::FilterPlan;
        let mut d = mem_disk(4);
        let h = hash();
        let cfg = CoreConfig::lemma5(2, 256, 2).unwrap();
        let plan = FilterPlan::derive(&cfg, 64);
        let mut filter = plan.filter(1, 0, 1, 21).expect("H1 fits in 64 items");
        let a = build_region(&mut d, &h, 2, &(0..20).collect::<Vec<_>>());
        let source_blocks = d.live_blocks();
        let mut mem = h0_of(&h, 4, &[Item::delete_marker(5)]);
        let sources = vec![Source::from_memory(&mut mem), Source::from_region(a)];
        let mut mapped = Vec::new();
        let mut map = |v: Value| {
            mapped.push(v);
            Ok(v + 100)
        };
        let e = d.epoch();
        let cursor = MergeCursor::new(&h, sources, 8, true);
        let (merged, stats) =
            build_fresh_region(&mut d, cursor, Some(&mut filter), Some(&mut map)).unwrap();
        assert_eq!(stats.purged, 1);
        assert_eq!(merged.items, 19);
        let io = d.since(&e);
        assert_eq!(
            (io.reads, io.writes),
            (source_blocks, d.live_blocks()),
            "the source read once and freed, the region written once and never read"
        );
        let landed = bucket_items(&mut d, &merged, 0..merged.buckets);
        let survivors: Vec<u64> = (0..20).filter(|k| *k != 5).collect();
        // Mapped in the order the items landed: destination-bucket order.
        assert_eq!(landed.iter().map(|it| it.value - 100).collect::<Vec<_>>(), mapped);
        let mut keys: Vec<u64> = landed.iter().map(|it| it.key).collect();
        assert!(keys.iter().all(|&k| filter.may_contain(h.hash64(k))), "a written key is missing");
        keys.sort_unstable();
        assert_eq!(keys, survivors);
        mapped.sort_unstable();
        assert_eq!(mapped, survivors, "each surviving value mapped once, the purged one never");
    }

    #[test]
    fn merge_cost_is_linear_in_regions() {
        let mut d = mem_disk(8);
        let h = hash();
        let keys: Vec<u64> = (0..256).collect();
        let a = build_region(&mut d, &h, 32, &keys);
        let e = d.epoch();
        let (_, _) = compact(&mut d, &h, vec![Source::from_region(a)], 64, false, None).unwrap();
        let io = d.since(&e).total();
        // Reads ≈ 32 source blocks (+chains), writes ≤ 64 target blocks.
        assert!(io <= 32 + 20 + 64, "merge I/O {io} should be ~linear in blocks");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random sources merged into a fresh region: an `H0`, then one to
        /// four regions whose bucket counts mostly do not divide the
        /// destination's, on blocks of 2 to 5 items so that buckets chain,
        /// each bucket written in the order its items came (not hash
        /// order, as an older build or an in-place merge into `Ĥ` leaves
        /// it) or in hash order; keys from a small range repeat within and
        /// across sources, and a fifth of the items are deletion markers.
        /// The region holds what a newest-wins map holds — a source's copy
        /// is the first one a probe meets there — less the markers when
        /// purging, each bucket in hash order; every source block is read
        /// exactly once and `H0` is drained. The same sources with one item
        /// planted in a bucket it does not hash to are `Corrupt`.
        #[test]
        fn a_merge_is_a_newest_wins_k_way_merge_in_hash_order(
            b in 2usize..6,
            nb0 in 1u64..6,
            h0_items in proptest::collection::vec((0u64..64, 0u8..5), 0..40),
            regions in proptest::collection::vec(
                (
                    1u64..12,
                    proptest::prelude::any::<bool>(),
                    proptest::collection::vec((0u64..64, 0u8..5), 0..60),
                ),
                1..5,
            ),
            nb_dst in 1u64..24,
            purge in proptest::prelude::any::<bool>(),
            stray in proptest::prelude::any::<u64>(),
        ) {
            let h = hash();
            // Values tell the copies apart: source `s`, position `i`.
            let item = |s: usize, i: usize, (key, tag): (u64, u8)| match tag {
                0 => Item::delete_marker(key),
                _ => Item::new(key, ((s as u64) << 32) | i as u64),
            };
            let h0_items: Vec<Item> =
                h0_items.iter().enumerate().map(|(i, &spec)| item(0, i, spec)).collect();
            let mut disk_items = Vec::new();
            for (s, (nb, sorted, specs)) in regions.iter().enumerate() {
                let items: Vec<Item> =
                    specs.iter().enumerate().map(|(i, &spec)| item(s + 1, i, spec)).collect();
                let mut buckets = per_bucket(&h, *nb, &items);
                if *sorted {
                    buckets.iter_mut().for_each(|q| q.sort_by_key(|it| (h.hash64(it.key), it.key)));
                }
                disk_items.push(buckets);
            }
            // The reference: `H0` keeps a key's last upsert, a region the
            // first copy in its bucket, and a newer source shadows an older.
            let mut truth = BTreeMap::new();
            h0_items.iter().for_each(|it| _ = truth.insert(it.key, it.value));
            let physical = truth.len() + regions.iter().map(|r| r.2.len()).sum::<usize>();
            for it in disk_items.iter().flatten().flatten() {
                truth.entry(it.key).or_insert(it.value);
            }
            truth.retain(|_, v| !purge || *v != VALUE_TOMBSTONE);
            let on_disk = |d: &mut Disk<MemDisk>, regions: &[Vec<Vec<Item>>]| {
                regions.iter().map(|q| Source::from_region(write_buckets(d, q))).collect::<Vec<_>>()
            };

            let mut d = mem_disk(b);
            let mut mem = h0_of(&h, nb0, &h0_items);
            let mut sources = vec![Source::from_memory(&mut mem)];
            sources.extend(on_disk(&mut d, &disk_items));
            let (source_blocks, e) = (d.live_blocks(), d.epoch());
            let (region, stats) = compact(&mut d, &h, sources, nb_dst, purge, None).unwrap();
            proptest::prop_assert_eq!(d.since(&e).reads, source_blocks, "a block read twice");
            proptest::prop_assert!(mem.is_empty());
            proptest::prop_assert_eq!(stats.items, truth.len());
            proptest::prop_assert_eq!(stats.items + stats.shadowed + stats.purged, physical);
            let mut landed = BTreeMap::new();
            for q in 0..nb_dst {
                let bucket = bucket_items(&mut d, &region, q..q + 1);
                let order: Vec<(u64, u64)> =
                    bucket.iter().map(|it| (h.hash64(it.key), it.key)).collect();
                proptest::prop_assert!(order.windows(2).all(|w| w[0] < w[1]), "bucket {}", q);
                proptest::prop_assert!(order.iter().all(|&(hk, _)| prefix_bucket(hk, nb_dst) == q));
                landed.extend(bucket.iter().map(|it| (it.key, it.value)));
            }
            proptest::prop_assert_eq!(landed, truth);

            // The same sources, one item planted outside its bucket.
            let s = stray as usize % regions.len();
            let nb = regions[s].0;
            if nb > 1 {
                let planted = Item::new(1000 + stray % 1000, 1);
                let home = prefix_bucket(h.hash64(planted.key), nb);
                disk_items[s][((home + 1) % nb) as usize].push(planted);
                let mut d = mem_disk(b);
                let mut mem = h0_of(&h, nb0, &h0_items);
                let mut sources = vec![Source::from_memory(&mut mem)];
                sources.extend(on_disk(&mut d, &disk_items));
                let merged = compact(&mut d, &h, sources, nb_dst, purge, None);
                proptest::prop_assert!(matches!(merged, Err(ExtMemError::Corrupt(_))));
            }
        }
    }
}
