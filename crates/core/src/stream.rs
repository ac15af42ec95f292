//! Bucket-ordered merge streams: the engine behind every level migration,
//! every Ĥ merge and compaction.
//!
//! Because [`dxh_hashfn::prefix_bucket`] is monotone in the hash value,
//! scanning any table's buckets `0, 1, 2, …` yields items in nondecreasing
//! hash order, hence in nondecreasing *target*-bucket order for any target
//! bucket count. Merging `k` tables into one region is therefore one
//! synchronized linear pass — the paper's "scanning the two tables in
//! parallel", generalized. A level migration uses exactly that: `H0`,
//! every carried level and the level the carry stops at stream into a
//! fresh destination together (see `LogMethodTable::flush`), so an item is
//! read once and written once per migration however many levels it skips.
//!
//! That pass is written once, as [`MergeCursor`]: it owns the sources,
//! yields each destination bucket's merged items (newest copy wins,
//! spent deletion markers purged) and ends by checking that every source
//! drained. Each item is hashed once, as it enters the merge: that word
//! routes it, keys the shadow set and feeds the destination's filter.
//! Two consumers write what it yields: [`build_fresh_region`]
//! into a fresh region (a flush, an `Ĥ` rebuild, compaction's
//! `LogMethodTable::merge_into_level`) and [`merge_in_place`] into the
//! buckets of `Ĥ`.
//!
//! Each disk stream maintains the invariant: after reading source buckets
//! `0 … p−1`, every item with target bucket `q` such that
//! `p · nb_dst ≥ (q+1) · nb_src` has been read (the source prefix covers
//! the whole hash range of `q`). The merge advances `q` through the
//! target, refilling lagging streams just-in-time, so the per-stream
//! buffer never holds more than one source bucket past the boundary —
//! a `k`-source merge keeps `k` such buffers, one per disk level it reads.
//!
//! Reading a region *without* consuming it — filter rebuilds, layout
//! snapshots — goes through [`Region::walk`]; that and every chain
//! operation the merge uses follow overflow chains by
//! [`dxh_tables::chain_walk`], bounded by the blocks the disk can hold.

use dxh_extmem::{BlockId, Disk, ExtMemError, Item, Key, Result, StorageBackend, Value};
use dxh_hashfn::{prefix_bucket, HashFn, IdealFn};
use dxh_tables::{chain_collect, write_bucket, Region};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::filter::LevelFilter;

/// An item beside its key's `hash64`: a merge hashes each item once, as
/// it enters, and routes, deduplicates and filters it by that word.
type Hashed = (u64, Item);

/// One input to a merge, in precedence order (earlier sources shadow
/// later ones on duplicate keys).
pub(crate) enum Source {
    /// Memory-resident items already in bucket (hash-prefix) order.
    Mem {
        /// Items sorted by hash prefix; consumed front to back.
        items: Vec<Hashed>,
        /// Next unconsumed index.
        pos: usize,
    },
    /// A disk region, consumed bucket by bucket; source blocks are freed
    /// as they are read (a merge never writes into one of its sources).
    Disk(DiskStream),
}

/// Cursor over a [`Region`]'s buckets with the prefix-coverage invariant.
pub(crate) struct DiskStream {
    region: Region,
    next_bucket: u64,
    buf: Vec<Hashed>,
    /// The blocks of the source bucket being read, before hashing.
    read: Vec<Item>,
}

impl DiskStream {
    /// Whether target bucket `q` (out of `nb_dst`) is fully covered by the
    /// source buckets read so far.
    #[inline]
    fn covered(&self, q: u64, nb_dst: u64) -> bool {
        self.next_bucket as u128 * nb_dst as u128 >= (q + 1) as u128 * self.region.buckets as u128
    }

    fn refill<B: StorageBackend>(
        &mut self,
        disk: &mut Disk<B>,
        hash: &IdealFn,
        q: u64,
        nb_dst: u64,
    ) -> Result<()> {
        while !self.covered(q, nb_dst) && self.next_bucket < self.region.buckets {
            let head = self.region.block_of(self.next_bucket);
            chain_collect(disk, head, true, &mut self.read)?;
            self.buf.extend(self.read.drain(..).map(|it| (hash.hash64(it.key), it)));
            self.next_bucket += 1;
        }
        Ok(())
    }
}

impl Source {
    /// Builds a memory source from items in bucket order (as produced by
    /// [`crate::MemTable::drain_in_bucket_order`]); re-sorts by full hash
    /// prefix so sub-bucket boundaries are exact for any target count.
    /// The sort is unstable, in place: a stable one allocates a scratch
    /// of every item on each drain. The table holds one copy per key, so
    /// only two keys whose hashes collide tie, and they land in one
    /// target bucket whichever comes first.
    pub(crate) fn from_memory(items: Vec<Item>, hash: &IdealFn) -> Self {
        let mut items: Vec<Hashed> =
            items.into_iter().map(|it| (hash.hash64(it.key), it)).collect();
        items.sort_unstable_by_key(|&(h, _)| h);
        Source::Mem { items, pos: 0 }
    }

    /// Builds a disk source that consumes (and frees) `region`.
    pub(crate) fn from_region(region: Region) -> Self {
        Source::Disk(DiskStream { region, next_bucket: 0, buf: Vec::new(), read: Vec::new() })
    }

    /// Appends all items with target bucket `q` (out of `nb_dst`) to
    /// `out`, reading further source buckets as needed.
    fn take_bucket<B: StorageBackend>(
        &mut self,
        disk: &mut Disk<B>,
        hash: &IdealFn,
        q: u64,
        nb_dst: u64,
        out: &mut Vec<Hashed>,
    ) -> Result<()> {
        match self {
            Source::Mem { items, pos } => {
                while *pos < items.len() && prefix_bucket(items[*pos].0, nb_dst) == q {
                    out.push(items[*pos]);
                    *pos += 1;
                }
                Ok(())
            }
            Source::Disk(s) => {
                s.refill(disk, hash, q, nb_dst)?;
                // Extract matches; keep the (few) boundary items for later.
                let mut i = 0;
                while i < s.buf.len() {
                    if prefix_bucket(s.buf[i].0, nb_dst) == q {
                        out.push(s.buf.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                Ok(())
            }
        }
    }

    /// Whether every item of the source has been taken.
    fn drained(&self) -> bool {
        match self {
            Source::Mem { items, pos } => *pos == items.len(),
            Source::Disk(d) => d.next_bucket == d.region.buckets && d.buf.is_empty(),
        }
    }
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

/// A key in the shadow set of one destination bucket: hashed as its
/// cached `hash64`, equal when the keys are. The word is rotated so the
/// set's tag bits come from the hash's low half — every key of the
/// bucket shares the high bits, its prefix. Keys crafted to collide in
/// the table's seeded `hash64` would already share a bucket of every
/// level; the set adds no weakness the table does not have.
#[derive(Clone, Copy)]
struct SeenKey(u64, Key);

impl PartialEq for SeenKey {
    fn eq(&self, other: &Self) -> bool {
        self.1 == other.1
    }
}

impl Eq for SeenKey {}

impl Hash for SeenKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.rotate_left(32));
    }
}

/// A [`Hasher`] that returns the one word it is given: the shadow set's
/// keys arrive hashed.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a SeenKey writes one u64");
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What [`MergeCursor::next_bucket`] yields: a destination bucket, its
/// merged items, and their keys' `hash64`s at the same indices.
type MergedBucket<'a> = (u64, &'a mut [Item], &'a [u64]);

/// The synchronized scan itself: `sources` (precedence order: earlier
/// wins) merged into `nb_dst` destination buckets, one bucket per
/// [`MergeCursor::next_bucket`] call. Owns the sources and the scratch
/// buffers; consumes and frees every disk source as it goes. With
/// `purge`, a winning deletion marker is dropped instead of yielded —
/// valid only when the destination is the deepest level, where the
/// marker has nothing left to shadow.
pub(crate) struct MergeCursor<'h> {
    hash: &'h IdealFn,
    sources: Vec<Source>,
    nb_dst: u64,
    purge: bool,
    /// Next destination bucket to merge.
    q: u64,
    raw: Vec<Hashed>,
    merged: Vec<Item>,
    /// `hash64` of `merged[i]` at index `i`.
    merged_hashes: Vec<u64>,
    seen: HashSet<SeenKey, BuildHasherDefault<PassThrough>>,
    /// Items yielded, shadowed copies and spent markers dropped so far.
    pub stats: MergeStats,
}

impl<'h> MergeCursor<'h> {
    pub(crate) fn new(hash: &'h IdealFn, sources: Vec<Source>, nb_dst: u64, purge: bool) -> Self {
        MergeCursor {
            hash,
            sources,
            nb_dst,
            purge,
            q: 0,
            raw: Vec::new(),
            merged: Vec::new(),
            merged_hashes: Vec::new(),
            seen: HashSet::default(),
            stats: MergeStats::default(),
        }
    }

    /// The next destination bucket that receives anything, with its
    /// items newest-first deduplicated and their keys' `hash64`s at the
    /// same indices; `None` once all `nb_dst` are done — and only if
    /// every source drained on the way.
    ///
    /// Cost: one read per source block (primary + chain) over the whole
    /// scan, `O(Σ |source regions| / b)` I/Os.
    pub(crate) fn next_bucket<B: StorageBackend>(
        &mut self,
        disk: &mut Disk<B>,
    ) -> Result<Option<MergedBucket<'_>>> {
        self.merged.clear();
        self.merged_hashes.clear();
        while self.merged.is_empty() && self.q < self.nb_dst {
            self.raw.clear();
            self.seen.clear();
            for src in self.sources.iter_mut() {
                src.take_bucket(disk, self.hash, self.q, self.nb_dst, &mut self.raw)?;
            }
            for &(h, it) in &self.raw {
                if !self.seen.insert(SeenKey(h, it.key)) {
                    self.stats.shadowed += 1;
                } else if self.purge && it.is_delete_marker() {
                    self.stats.purged += 1;
                } else {
                    self.merged.push(it);
                    self.merged_hashes.push(h);
                }
            }
            self.q += 1;
        }
        if !self.merged.is_empty() {
            self.stats.items += self.merged.len();
            return Ok(Some((self.q - 1, &mut self.merged, &self.merged_hashes)));
        }
        // A source of this structure's making is in bucket order and so
        // fully drained by now. One that is not was read off blocks that
        // are not what was written there (media that lost a sync): the
        // items left over belong to buckets already built, and must not
        // vanish quietly.
        if !self.sources.iter().all(Source::drained) {
            return Err(ExtMemError::Corrupt(
                "a merge source holds items outside their buckets".into(),
            ));
        }
        Ok(None)
    }

    /// Whether the bucket just yielded holds `key` — a copy that shadows
    /// any older one at the destination.
    fn yielded(&self, key: Key) -> bool {
        self.seen.contains(&SeenKey(self.hash.hash64(key), key))
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
    use std::ops::Range;

    use super::*;
    use dxh_extmem::{mem_disk, MemDisk};

    fn hash() -> IdealFn {
        IdealFn::from_seed(77)
    }

    /// Builds a region by writing items to their buckets directly.
    fn build_region(disk: &mut Disk<MemDisk>, h: &IdealFn, nb: u64, keys: &[u64]) -> Region {
        let base = disk.allocate_contiguous(nb as usize).unwrap();
        let mut per_bucket: Vec<Vec<Item>> = vec![Vec::new(); nb as usize];
        for &k in keys {
            per_bucket[prefix_bucket(h.hash64(k), nb) as usize].push(Item::new(k, k));
        }
        for (q, items) in per_bucket.iter().enumerate() {
            if !items.is_empty() {
                write_bucket(disk, BlockId(base.raw() + q as u64), items).unwrap();
            }
        }
        Region { base, buckets: nb, items: keys.len() }
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
        let mem_items: Vec<Item> = vec![Item::new(1, 1), Item::new(2, 2)];
        let (merged, stats) = compact(
            &mut d,
            &h,
            vec![Source::from_memory(mem_items, &h), Source::from_region(disk_region)],
            4,
            false,
            None,
        )
        .unwrap();
        assert_eq!(stats.items, 5);
        let mut keys = region_keys(&mut d, &merged);
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2, 100, 101, 102]);
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
        // nb_dst smaller than the source: boundary invariant must still
        // hold (many source buckets per target bucket).
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
        // 3 → 7 buckets: no divisibility anywhere; the coverage invariant
        // must carry items across uneven boundaries.
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
        let src = Source::from_memory(incoming, &h);
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
        let e = d.epoch();
        let sources = vec![Source::from_memory(incoming, &h)];
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
        let sources = vec![Source::from_memory(incoming, &h)];
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
        // Streams `h0` memory-resident items and regions of
        // `source_buckets` (b = 64, `fill` items to a bucket on average;
        // with `stuffed`, one bucket of the first region is topped up to
        // a full chain block, 2b items) into `nb_dst` buckets as `compact`
        // does. Returns the most items held at once — every stream's
        // buffer plus the batch taken for the current bucket — beside
        // the sum over disk streams of their fullest bucket, the fullest
        // bucket of all, and how many buckets chain.
        let peak_held = |h0: u64, source_buckets: &[u64], fill: u64, stuffed: bool, nb_dst: u64| {
            let mut d = mem_disk(64);
            let h = hash();
            let (mut next_key, mut one_bucket_each, mut chained) = (h0, 0, 0);
            let drained_h0 = (0..h0).map(|k| Item::new(k, k)).collect();
            let (mut sources, mut fullest_of_all) = (vec![Source::from_memory(drained_h0, &h)], 0);
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
            let (mut raw, mut peak) = (Vec::new(), 0);
            for q in 0..nb_dst {
                raw.clear();
                for src in sources.iter_mut() {
                    src.take_bucket(&mut d, &h, q, nb_dst, &mut raw).unwrap();
                }
                let buffered: usize = sources
                    .iter()
                    .map(|s| match s {
                        Source::Disk(s) => s.buf.len(),
                        Source::Mem { .. } => 0,
                    })
                    .sum();
                peak = peak.max(buffered + raw.len());
            }
            assert_eq!(d.live_blocks(), 0, "every source was drained");
            (peak, one_bucket_each, fullest_of_all, chained)
        };
        // A carry at the benchmark's geometry before levels were sized by
        // content (nb0 = 64, γ = 2, load 1/2): H1…H4 into H5, every source
        // count divides the destination's. Bucket boundaries line up, so a
        // stream holds one source bucket and nothing of the one before.
        let (peak, one_bucket_each, _, chained) =
            peak_held(0, &[128, 256, 512, 1024], 32, false, 2048);
        assert!(peak <= one_bucket_each, "held {peak} items > {one_bucket_each}");
        assert!(one_bucket_each <= 4 * 64);
        assert_eq!(chained, 0, "no bucket chains at load 1/2");
        // Content-sized regions end that alignment: no source count here
        // divides the destination's. A stream then still holds the tail
        // of its previous bucket (what lies past the destination bucket
        // being filled) when it reads the next one — under two source
        // buckets, so the `2·j·b` a j-stream carry is budgeted
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
        // disk stream — j of them, `H1 … H_j`, beside the drained `H0`,
        // whose items the batch holds once more. The steady state of the
        // deployed geometry, `H0` and an `H1` of one `H0` into an `H1` of
        // two, fits the `4b + 16` reserved for it, with its one stream's
        // fullest bucket chaining a full block too; deeper (γ = 4: `H1` of
        // four `H0`s and an `H2` of five or ten into an `H2` of ten or
        // fifteen; an `H3` of twenty beside them into one of forty) the
        // j streams and `H0`'s share stay inside `2·j·b` — 92 / 148 items
        // held of 272; 159 / 207 and 154 / 197 of 256; 203 / 252 of 384.
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
        let markers = vec![Item::delete_marker(2)];
        let (merged, stats) = compact(
            &mut d,
            &h,
            vec![Source::from_memory(markers.clone(), &h), Source::from_region(older)],
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
        let (merged, stats) = compact(
            &mut d,
            &h,
            vec![Source::from_memory(markers, &h), Source::from_region(older)],
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
        let sources = vec![Source::from_memory(newer, &h), Source::from_region(older)];
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
        let markers = vec![Item::delete_marker(5)];
        let sources = vec![Source::from_memory(markers, &h), Source::from_region(a)];
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
}
