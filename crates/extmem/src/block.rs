//! Disk blocks: the unit of transfer in the external memory model.

use crate::error::{ExtMemError, Result};
use crate::item::{Item, Key, Value};

/// Identifier of a disk block: its slot in the block store, dense from
/// zero. A freed id is recycled, by the same rule whatever file holds
/// the blocks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

impl BlockId {
    /// The raw index.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// On-disk encoding of an optional chain pointer, biased by one so
    /// that `0` means "no block". The payoff: an **all-zero byte image is
    /// a valid empty block** (`len = 0`, `tag = 0`, no chain), which lets
    /// file backends allocate fresh regions by extending the file
    /// (zero-filled by the OS) without writing any initialization bytes.
    #[inline]
    pub(crate) fn encode_opt(id: Option<BlockId>) -> u64 {
        match id {
            Some(b) => b.0 + 1,
            None => 0,
        }
    }

    /// Inverse of [`BlockId::encode_opt`].
    #[inline]
    pub(crate) fn decode_opt(raw: u64) -> Option<BlockId> {
        raw.checked_sub(1).map(BlockId)
    }
}

impl core::fmt::Debug for BlockId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A disk block: up to `capacity` (= the model's `b`) items, plus a small
/// header — a `tag` word for structure-specific metadata (e.g. the local
/// depth of an extendible-hashing bucket) and an optional `next` pointer
/// for overflow chains.
///
/// The header is the usual page-header found in real storage engines; the
/// model's capacity `b` counts item slots only, which we document as the
/// (standard) simplification that headers live in the per-block slack.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    capacity: usize,
    tag: u64,
    next: Option<BlockId>,
    items: Vec<Item>,
}

impl Block {
    /// An empty block with room for `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Block { capacity, tag: 0, next: None, items: Vec::with_capacity(capacity) }
    }

    /// Capacity in items (the model parameter `b`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the block holds no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the block is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// The structure-specific header word.
    #[inline]
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Sets the structure-specific header word.
    #[inline]
    pub fn set_tag(&mut self, tag: u64) {
        self.tag = tag;
    }

    /// The overflow-chain pointer.
    #[inline]
    pub fn next(&self) -> Option<BlockId> {
        self.next
    }

    /// Sets the overflow-chain pointer.
    #[inline]
    pub fn set_next(&mut self, next: Option<BlockId>) {
        self.next = next;
    }

    /// Appends an item; fails with [`ExtMemError::BlockOverflow`] when full.
    #[inline]
    pub fn push(&mut self, item: Item) -> Result<()> {
        if self.is_full() {
            return Err(ExtMemError::BlockOverflow { capacity: self.capacity });
        }
        self.items.push(item);
        Ok(())
    }

    /// Looks up the value stored under `key` (first match).
    #[inline]
    pub fn find(&self, key: Key) -> Option<Value> {
        self.items.iter().find(|it| it.key == key).map(|it| it.value)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: Key) -> bool {
        self.items.iter().any(|it| it.key == key)
    }

    /// Replaces the value under `key`; returns the previous value, or
    /// `None` when the key is absent (in which case nothing changes).
    pub fn replace(&mut self, key: Key, value: Value) -> Option<Value> {
        for it in &mut self.items {
            if it.key == key {
                return Some(core::mem::replace(&mut it.value, value));
            }
        }
        None
    }

    /// Removes the first item with `key`, preserving the order of the rest;
    /// returns its value when present.
    pub fn remove(&mut self, key: Key) -> Option<Value> {
        let pos = self.items.iter().position(|it| it.key == key)?;
        Some(self.items.remove(pos).value)
    }

    /// Removes the first item with `key` by swapping with the last item
    /// (O(1), does not preserve order).
    pub fn swap_remove(&mut self, key: Key) -> Option<Value> {
        let pos = self.items.iter().position(|it| it.key == key)?;
        Some(self.items.swap_remove(pos).value)
    }

    /// Read access to the stored items.
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Mutable access to the stored items (length may only shrink through
    /// [`Block::retain`]-style edits; pushing past capacity is prevented by
    /// the public API).
    #[inline]
    pub fn items_mut(&mut self) -> &mut [Item] {
        &mut self.items
    }

    /// Keeps only the items satisfying `pred`.
    pub fn retain(&mut self, pred: impl FnMut(&Item) -> bool) {
        self.items.retain(pred);
    }

    /// Clears items and header.
    pub fn reset(&mut self) {
        self.items.clear();
        self.tag = 0;
        self.next = None;
    }

    /// On-disk size of the header: `len (8) + tag (8) + next (8)`. A
    /// zeroed header decodes as an empty block whatever bytes follow it.
    pub const HEADER_BYTES: usize = 24;

    /// On-disk size of a block with this capacity, in bytes: the header
    /// plus `capacity × 16`.
    pub fn encoded_len(capacity: usize) -> usize {
        Self::HEADER_BYTES + capacity * 16
    }

    /// Serializes into `buf` (must be exactly [`Block::encoded_len`] bytes).
    pub fn encode_into(&self, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), Self::encoded_len(self.capacity));
        buf[0..8].copy_from_slice(&(self.items.len() as u64).to_le_bytes());
        buf[8..16].copy_from_slice(&self.tag.to_le_bytes());
        buf[16..24].copy_from_slice(&BlockId::encode_opt(self.next).to_le_bytes());
        let body = &mut buf[Self::HEADER_BYTES..];
        for (it, slot) in self.items.iter().zip(body.chunks_exact_mut(16)) {
            slot[..8].copy_from_slice(&it.key.to_le_bytes());
            slot[8..].copy_from_slice(&it.value.to_le_bytes());
        }
        // Zero the unused tail so the image is deterministic.
        body[self.items.len() * 16..].fill(0);
    }

    /// Deserializes a block of the given `capacity` from `buf`.
    pub fn decode_from(capacity: usize, buf: &[u8]) -> Result<Self> {
        if buf.len() != Self::encoded_len(capacity) {
            return Err(ExtMemError::Corrupt(format!(
                "expected {} bytes, got {}",
                Self::encoded_len(capacity),
                buf.len()
            )));
        }
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("an 8-byte word"));
        let len = word(&buf[0..8]) as usize;
        if len > capacity {
            return Err(ExtMemError::Corrupt(format!(
                "stored length {len} exceeds capacity {capacity}"
            )));
        }
        let tag = word(&buf[8..16]);
        let next = BlockId::decode_opt(word(&buf[16..24]));
        let mut items = Vec::with_capacity(capacity);
        let body = &buf[Self::HEADER_BYTES..Self::HEADER_BYTES + len * 16];
        items.extend(body.chunks_exact(16).map(|w| Item::new(word(&w[..8]), word(&w[8..]))));
        Ok(Block { capacity, tag, next, items })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(cap: usize, n: usize) -> Block {
        let mut b = Block::new(cap);
        for i in 0..n {
            b.push(Item::new(i as u64, i as u64 * 10)).unwrap();
        }
        b
    }

    #[test]
    fn push_until_overflow() {
        let mut b = Block::new(3);
        for i in 0..3 {
            b.push(Item::key_only(i)).unwrap();
        }
        assert!(b.is_full());
        assert!(matches!(
            b.push(Item::key_only(9)),
            Err(ExtMemError::BlockOverflow { capacity: 3 })
        ));
    }

    #[test]
    fn find_replace_remove() {
        let mut b = filled(8, 5);
        assert_eq!(b.find(3), Some(30));
        assert_eq!(b.find(7), None);
        assert_eq!(b.replace(3, 99), Some(30));
        assert_eq!(b.find(3), Some(99));
        assert_eq!(b.replace(77, 1), None);
        assert_eq!(b.remove(3), Some(99));
        assert_eq!(b.find(3), None);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn swap_remove_is_order_agnostic_but_complete() {
        let mut b = filled(8, 4);
        assert_eq!(b.swap_remove(0), Some(0));
        assert_eq!(b.len(), 3);
        assert!(!b.contains(0));
        for k in 1..4u64 {
            assert!(b.contains(k));
        }
    }

    #[test]
    fn header_round_trip() {
        let mut b = Block::new(4);
        b.set_tag(0xDEAD);
        b.set_next(Some(BlockId(7)));
        assert_eq!(b.tag(), 0xDEAD);
        assert_eq!(b.next(), Some(BlockId(7)));
        b.reset();
        assert_eq!(b.tag(), 0);
        assert_eq!(b.next(), None);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut b = filled(6, 4);
        b.set_tag(42);
        b.set_next(Some(BlockId(123)));
        let mut buf = vec![0u8; Block::encoded_len(6)];
        b.encode_into(&mut buf);
        let d = Block::decode_from(6, &buf).unwrap();
        assert_eq!(d, b);
    }

    #[test]
    fn encode_decode_empty_and_full() {
        for n in [0, 6] {
            let b = filled(6, n);
            let mut buf = vec![0u8; Block::encoded_len(6)];
            b.encode_into(&mut buf);
            assert_eq!(Block::decode_from(6, &buf).unwrap(), b);
        }
    }

    #[test]
    fn decode_rejects_bad_length_and_corrupt_count() {
        assert!(Block::decode_from(6, &[0u8; 10]).is_err());
        let mut buf = vec![0u8; Block::encoded_len(2)];
        buf[0..8].copy_from_slice(&99u64.to_le_bytes()); // len 99 > cap 2
        assert!(Block::decode_from(2, &buf).is_err());
    }

    #[test]
    fn retain_filters() {
        let mut b = filled(8, 6);
        b.retain(|it| it.key % 2 == 0);
        assert_eq!(b.len(), 3);
        assert!(b.contains(0) && b.contains(2) && b.contains(4));
    }

    #[test]
    fn optional_block_id_encoding() {
        assert_eq!(BlockId::encode_opt(None), 0);
        assert_eq!(BlockId::decode_opt(0), None);
        assert_eq!(BlockId::decode_opt(4), Some(BlockId(3)));
        assert_eq!(BlockId::encode_opt(Some(BlockId(3))), 4);
    }

    /// The slot image, word by word: `len`, `tag`, `next + 1`, then
    /// each item's key and value, little-endian, and zeros after the
    /// last item.
    #[test]
    fn encode_writes_the_documented_layout() {
        let mut b = Block::new(3);
        b.push(Item::new(0x0102, 0x0304)).unwrap();
        b.push(Item::new(u64::MAX - 1, 7)).unwrap();
        b.set_tag(9);
        b.set_next(Some(BlockId(4)));
        let mut buf = vec![0xAA; Block::encoded_len(3)];
        b.encode_into(&mut buf);
        let words: Vec<u64> =
            buf.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().unwrap())).collect();
        assert_eq!(words, [2, 9, 5, 0x0102, 0x0304, u64::MAX - 1, 7, 0, 0]);
    }

    /// A recycled slot is reset by zeroing its header alone: the item
    /// bytes behind it are never read.
    #[test]
    fn stale_items_behind_a_zeroed_header_are_inert() {
        let mut b = filled(4, 4);
        b.set_tag(3);
        let mut buf = vec![0u8; Block::encoded_len(4)];
        b.encode_into(&mut buf);
        buf[..Block::HEADER_BYTES].fill(0);
        assert_eq!(Block::decode_from(4, &buf).unwrap(), Block::new(4));
        buf[0] = 1;
        assert_eq!(Block::decode_from(4, &buf).unwrap().items(), &[Item::new(0, 0)]);
    }

    #[test]
    fn all_zero_image_decodes_as_empty_block() {
        // File backends rely on this: a freshly extended (zero-filled)
        // file region must read back as valid empty blocks.
        let buf = vec![0u8; Block::encoded_len(5)];
        let b = Block::decode_from(5, &buf).unwrap();
        assert!(b.is_empty());
        assert_eq!(b.tag(), 0);
        assert_eq!(b.next(), None);
    }
}
