//! Items: the atomic records of the external memory model.
//!
//! The paper treats items as indivisible one-word records and identifies an
//! item `x` with its hash value `h(x)` (§2: "we will not distinguish between
//! an item x and its hash value h(x)"). We keep a `key` word in that role
//! and add an optional `value` word of associated data so the library is
//! usable as a real dictionary; capacities (`b`, `m`) are counted in
//! **items**, exactly matching the paper's parameters.

use crate::error::{ExtMemError, Result};

/// A key: the one-word identity of an item (its hash value in the paper).
pub type Key = u64;

/// One word of associated data carried alongside a key.
pub type Value = u64;

/// Reserved key used by structures that need a slot-level sentinel
/// (e.g. tombstones in blocked linear probing). User keys must be strictly
/// smaller than this value; constructors enforce it on insert.
pub const KEY_TOMBSTONE: Key = u64::MAX;

/// Reserved value used by the buffered (LSM-style) tables as a **per-key
/// deletion marker**: an item `(k, VALUE_TOMBSTONE)` records "key `k` is
/// deleted" and shadows older copies of `k` in deeper levels until a
/// merge into the deepest level purges it. Structures that support
/// log-method deletion reject user values equal to this sentinel on
/// insert; the flat tables (which delete physically) accept any value.
///
/// ## The sentinel domain, in one place
///
/// This is the single normative statement of which `u64` values are
/// reserved and on which path — every rejection in the stack traces
/// back here:
///
/// * **Key `u64::MAX`** ([`KEY_TOMBSTONE`]) is reserved on **every**
///   path: it doubles as the slot-level sentinel of the flat probing
///   tables, so no store — raw or payload — accepts it.
/// * **Value `u64::MAX`** ([`VALUE_TOMBSTONE`]) is reserved only on the
///   **legacy raw-u64 path** (`insert`/`lookup` on a store opened
///   without payload mode). Lifting it there would need a manifest
///   format change (v2 manifests promise "value `u64::MAX` = deletion
///   marker" to every reader), so the rejection stays, documented here.
/// * The **byte-payload path** has no in-band sentinel at all: a
///   payload store's index word is `BLOB_TAG | offset` with
///   `offset < MAX_BLOB_OFFSET`, so a tagged word can never equal
///   `VALUE_TOMBSTONE` — the deletion marker is out-of-band *by
///   construction*, and the full payload domain (including the 8-byte
///   payload equal to `u64::MAX.to_le_bytes()`) is storable.
pub const VALUE_TOMBSTONE: Value = u64::MAX;

/// Tag bit marking an index word as a **blob-log offset** rather than an
/// inline `u64` value: a payload store's table maps `key →
/// BLOB_TAG | offset`, where `offset` locates a length-framed,
/// checksummed record in the store's append-only blob log (see
/// `blob::BlobLog`). Offsets are bounded by [`MAX_BLOB_OFFSET`], so a
/// tagged word is always distinguishable from [`VALUE_TOMBSTONE`] — see
/// the sentinel-domain note on [`VALUE_TOMBSTONE`].
pub const BLOB_TAG: Value = 1 << 63;

/// Exclusive upper bound on blob-log offsets stored in tagged index
/// words (2^62 bytes — far beyond any real log). Keeping a full untagged
/// bit of headroom below the tag means `BLOB_TAG | offset` can never
/// collide with [`VALUE_TOMBSTONE`] (which has every bit set).
pub const MAX_BLOB_OFFSET: u64 = 1 << 62;

/// Rejects the reserved key [`KEY_TOMBSTONE`], which no path accepts
/// (see the sentinel-domain note on [`VALUE_TOMBSTONE`]).
#[inline]
pub fn check_key(key: Key) -> Result<()> {
    if key == KEY_TOMBSTONE {
        return Err(ExtMemError::BadConfig("key u64::MAX is reserved".into()));
    }
    Ok(())
}

/// Rejects the deletion marker [`VALUE_TOMBSTONE`] as a user value, on
/// the raw-u64 paths of the buffered tables (see the sentinel-domain
/// note on [`VALUE_TOMBSTONE`]).
#[inline]
pub fn check_value(value: Value) -> Result<()> {
    if value == VALUE_TOMBSTONE {
        return Err(ExtMemError::BadConfig(
            "value u64::MAX is reserved as the deletion marker".into(),
        ));
    }
    Ok(())
}

/// An indivisible record: `(key, value)`.
///
/// The indivisibility assumption of the paper's lower bound — items are
/// moved or copied between memory and disk only in their entirety — is
/// embodied by the fact that blocks store whole `Item`s.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Item {
    /// The key (hash value) of the item.
    pub key: Key,
    /// Associated data.
    pub value: Value,
}

impl Item {
    /// Creates an item from a key/value pair.
    #[inline]
    pub const fn new(key: Key, value: Value) -> Self {
        Item { key, value }
    }

    /// An item carrying a key only (`value = 0`), matching the paper's
    /// one-word items.
    #[inline]
    pub const fn key_only(key: Key) -> Self {
        Item { key, value: 0 }
    }

    /// Whether this slot holds the tombstone sentinel.
    #[inline]
    pub const fn is_tombstone(&self) -> bool {
        self.key == KEY_TOMBSTONE
    }

    /// The tombstone sentinel item.
    #[inline]
    pub const fn tombstone() -> Self {
        Item { key: KEY_TOMBSTONE, value: 0 }
    }

    /// A per-key deletion marker for `key` (see [`VALUE_TOMBSTONE`]): it
    /// hashes like `key`, so it lands in `key`'s bucket and shadows
    /// deeper copies during shallow-first lookup and level merges.
    #[inline]
    pub const fn delete_marker(key: Key) -> Self {
        Item { key, value: VALUE_TOMBSTONE }
    }

    /// Whether this item is a per-key deletion marker.
    #[inline]
    pub const fn is_delete_marker(&self) -> bool {
        self.value == VALUE_TOMBSTONE
    }
}

impl core::fmt::Debug for Item {
    /// Renders the sentinels distinctly — `Item(‡)` for the slot
    /// tombstone, `Item(k→‡del)` for a deletion marker — so a torture
    /// failure dump never shows a marker as an ordinary
    /// `Item(k→18446744073709551615)`.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_tombstone() {
            write!(f, "Item(‡)")
        } else if self.is_delete_marker() {
            write!(f, "Item({}→‡del)", self.key)
        } else {
            write!(f, "Item({}→{})", self.key, self.value)
        }
    }
}

impl From<(Key, Value)> for Item {
    #[inline]
    fn from((key, value): (Key, Value)) -> Self {
        Item { key, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_only_zeroes_value() {
        let it = Item::key_only(42);
        assert_eq!(it.key, 42);
        assert_eq!(it.value, 0);
    }

    #[test]
    fn the_sentinel_checks_reject_exactly_the_reserved_words() {
        assert!(check_key(KEY_TOMBSTONE - 1).is_ok());
        assert!(check_value(VALUE_TOMBSTONE - 1).is_ok());
        let key = check_key(KEY_TOMBSTONE).unwrap_err().to_string();
        let value = check_value(VALUE_TOMBSTONE).unwrap_err().to_string();
        assert!(key.contains("key u64::MAX is reserved"), "{key}");
        assert!(value.contains("value u64::MAX is reserved as the deletion marker"), "{value}");
    }

    #[test]
    fn tombstone_is_detected() {
        assert!(Item::tombstone().is_tombstone());
        assert!(!Item::new(0, 0).is_tombstone());
        assert!(Item::new(KEY_TOMBSTONE, 7).is_tombstone());
    }

    #[test]
    fn delete_marker_keeps_the_key() {
        let d = Item::delete_marker(42);
        assert_eq!(d.key, 42);
        assert!(d.is_delete_marker());
        assert!(!d.is_tombstone(), "a delete marker is not the slot sentinel");
        assert!(!Item::new(42, 0).is_delete_marker());
    }

    #[test]
    fn tuple_conversion() {
        let it: Item = (3, 9).into();
        assert_eq!(it, Item::new(3, 9));
    }

    #[test]
    fn debug_format_marks_tombstones() {
        assert_eq!(format!("{:?}", Item::new(1, 2)), "Item(1→2)");
        assert_eq!(format!("{:?}", Item::tombstone()), "Item(‡)");
    }

    #[test]
    fn debug_format_marks_delete_markers_distinctly() {
        assert_eq!(format!("{:?}", Item::delete_marker(42)), "Item(42→‡del)");
    }

    #[test]
    fn blob_tagged_words_never_collide_with_sentinels() {
        // The out-of-band deletion design: every representable tagged
        // word is distinct from VALUE_TOMBSTONE (and from any untagged
        // user value, which lacks the tag bit on the legacy path).
        for off in [0, 1, MAX_BLOB_OFFSET - 1] {
            let word = BLOB_TAG | off;
            assert_ne!(word, VALUE_TOMBSTONE);
            assert!(word & BLOB_TAG != 0);
            assert_eq!(word & !BLOB_TAG, off);
        }
        const { assert!(MAX_BLOB_OFFSET & BLOB_TAG == 0, "offsets stay clear of the tag bit") }
    }

    #[test]
    fn ordering_is_by_key_then_value() {
        assert!(Item::new(1, 9) < Item::new(2, 0));
        assert!(Item::new(1, 1) < Item::new(1, 2));
    }
}
