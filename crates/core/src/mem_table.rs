//! `H0`: the memory-resident level of the logarithmic method.

use dxh_extmem::{Item, Key, Value};

/// A small bucketized in-memory hash table: the paper's `H0`, which
/// "always resides in memory" and absorbs every insertion for free.
///
/// Buckets are indexed by [`dxh_hashfn::prefix_bucket`] of the item's
/// hash (computed by the owner), so a sequential walk of the buckets
/// enumerates items in hash-prefix order — the property the level-merge
/// streams rely on.
#[derive(Clone, Debug)]
pub struct MemTable {
    buckets: Vec<Vec<Item>>,
    len: usize,
    capacity: usize,
}

impl MemTable {
    /// A table with `nb` buckets holding at most `capacity` items.
    pub fn new(nb: usize, capacity: usize) -> Self {
        assert!(nb >= 1);
        MemTable { buckets: vec![Vec::new(); nb], len: 0, capacity }
    }

    /// Number of buckets.
    #[inline]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Items stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no items are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Item capacity (`m/2` in the paper).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the table has reached capacity (time to migrate to disk).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Upserts `item` into `bucket`; returns the previous value if the key
    /// was present.
    pub fn upsert(&mut self, bucket: usize, item: Item) -> Option<Value> {
        let bkt = &mut self.buckets[bucket];
        for it in bkt.iter_mut() {
            if it.key == item.key {
                return Some(core::mem::replace(&mut it.value, item.value));
            }
        }
        bkt.push(item);
        self.len += 1;
        None
    }

    /// Looks up `key` in `bucket`.
    #[inline]
    pub fn lookup(&self, bucket: usize, key: Key) -> Option<Value> {
        self.buckets[bucket].iter().find(|it| it.key == key).map(|it| it.value)
    }

    /// Removes `key` from `bucket`; returns its value if present.
    pub fn remove(&mut self, bucket: usize, key: Key) -> Option<Value> {
        let bkt = &mut self.buckets[bucket];
        let pos = bkt.iter().position(|it| it.key == key)?;
        self.len -= 1;
        Some(bkt.swap_remove(pos).value)
    }

    /// All keys currently stored (for layout snapshots).
    pub fn keys(&self) -> Vec<Key> {
        self.buckets.iter().flat_map(|b| b.iter().map(|it| it.key)).collect()
    }

    /// Every item, in bucket order, without removing any.
    pub fn iter_in_bucket_order(&self) -> impl Iterator<Item = &Item> {
        self.buckets.iter().flatten()
    }

    /// Drains every item, in bucket order, leaving the table empty.
    pub fn drain_in_bucket_order(&mut self) -> Vec<Item> {
        let mut out = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            out.append(b);
        }
        self.len = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_lookup_remove() {
        let mut t = MemTable::new(4, 100);
        assert_eq!(t.upsert(1, Item::new(10, 1)), None);
        assert_eq!(t.upsert(1, Item::new(10, 2)), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(1, 10), Some(2));
        assert_eq!(t.lookup(1, 11), None);
        assert_eq!(t.remove(1, 10), Some(2));
        assert_eq!(t.remove(1, 10), None);
        assert!(t.is_empty());
    }

    #[test]
    fn fullness_tracks_capacity() {
        let mut t = MemTable::new(2, 3);
        for k in 0..3u64 {
            t.upsert((k % 2) as usize, Item::key_only(k));
        }
        assert!(t.is_full());
    }

    #[test]
    fn drain_preserves_bucket_order_and_empties() {
        let mut t = MemTable::new(3, 100);
        t.upsert(2, Item::key_only(20));
        t.upsert(0, Item::key_only(1));
        t.upsert(1, Item::key_only(10));
        t.upsert(0, Item::key_only(2));
        let iterated: Vec<u64> = t.iter_in_bucket_order().map(|it| it.key).collect();
        assert_eq!(t.len(), 4, "iterating keeps every item");
        let items: Vec<u64> = t.drain_in_bucket_order().iter().map(|it| it.key).collect();
        assert_eq!(items, iterated);
        assert_eq!(items, vec![1, 2, 10, 20]);
        assert!(t.is_empty());
        assert_eq!(t.keys().len(), 0);
    }

    #[test]
    fn keys_lists_everything() {
        let mut t = MemTable::new(2, 10);
        t.upsert(0, Item::key_only(5));
        t.upsert(1, Item::key_only(6));
        let mut ks = t.keys();
        ks.sort_unstable();
        assert_eq!(ks, vec![5, 6]);
    }
}
