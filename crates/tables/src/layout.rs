//! Layout inspection: the bridge between concrete tables and the paper's
//! zones abstraction (§2).
//!
//! The lower-bound proof models any hash table as: a **memory zone** `M`
//! (≤ m items resident in memory), and disk blocks `B_1 … B_d` together
//! with an in-memory address function `f`; the **fast zone** `F` holds
//! the items `x` with `x ∈ B_f(x)` (answerable in one I/O) and the
//! **slow zone** `S` all remaining disk-resident items (≥ 2 I/Os).
//!
//! [`LayoutInspect`] lets the harness in `dxh-lowerbound` extract exactly
//! those ingredients from a live table. Extraction bypasses I/O
//! accounting (it is the analyst looking at the structure, not the
//! structure doing work).

use dxh_extmem::{BlockId, Key, Result};

/// A full physical snapshot of a table's item placement.
#[derive(Clone, Debug, Default)]
pub struct LayoutSnapshot {
    /// Keys resident in internal memory (the memory zone `M`).
    pub memory: Vec<Key>,
    /// Every live disk block with the keys it contains.
    pub blocks: Vec<(BlockId, Vec<Key>)>,
}

impl LayoutSnapshot {
    /// Total number of item copies on disk.
    fn disk_items(&self) -> usize {
        self.blocks.iter().map(|(_, ks)| ks.len()).sum()
    }

    /// Total items including memory-resident ones.
    pub fn total_items(&self) -> usize {
        self.memory.len() + self.disk_items()
    }
}

/// Tables that can expose their layout and address function to the
/// lower-bound harness.
pub trait LayoutInspect {
    /// Captures the current placement of all items. Must not perform
    /// accounted I/Os (implementations read through the raw backend).
    fn layout_snapshot(&mut self) -> Result<LayoutSnapshot>;

    /// The address function `f`: the disk block a one-I/O lookup of `key`
    /// would fetch, computed from memory-resident state only. `None` if
    /// the structure would answer this key from memory (it is in `M`'s
    /// purview, e.g. the log-method's `H0`).
    fn address_of(&self, key: Key) -> Option<BlockId>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_counts() {
        let snap = LayoutSnapshot {
            memory: vec![1, 2],
            blocks: vec![(BlockId(0), vec![3, 4, 5]), (BlockId(1), vec![])],
        };
        assert_eq!(snap.disk_items(), 3);
        assert_eq!(snap.total_items(), 5);
    }
}
