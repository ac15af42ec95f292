//! The zones abstraction of §2: memory zone `M`, fast zone `F`, slow
//! zone `S`.

use std::collections::{HashMap, HashSet};

use dxh_extmem::{BlockId, Key};
use dxh_hashfn::SplitMix64;
use dxh_tables::LayoutSnapshot;

/// Sizes of the three zones for one snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ZoneCounts {
    /// `|M|`: items resident in internal memory.
    pub memory: usize,
    /// `|F|`: disk items stored in their own address block `B_f(x)`.
    pub fast: usize,
    /// `|S|`: disk items needing ≥ 2 I/Os.
    pub slow: usize,
}

impl ZoneCounts {
    /// Total distinct items.
    pub fn total(&self) -> usize {
        self.memory + self.fast + self.slow
    }
}

/// Classifies every distinct key of `snapshot` into `M`, `F`, or `S`
/// with respect to the address function `address` (the paper's `f`).
///
/// An item counts as fast if **any** of its copies lives in its address
/// block (the paper allows replication: "it is possible that one item
/// appears in more than one `B_i`").
pub fn classify_zones(
    snapshot: &LayoutSnapshot,
    address: impl Fn(Key) -> Option<BlockId>,
) -> ZoneCounts {
    let memory: HashSet<Key> = snapshot.memory.iter().copied().collect();
    let mut block_contents: HashMap<BlockId, HashSet<Key>> = HashMap::new();
    let mut disk_keys: HashSet<Key> = HashSet::new();
    for (id, keys) in &snapshot.blocks {
        let entry = block_contents.entry(*id).or_default();
        for &k in keys {
            entry.insert(k);
            disk_keys.insert(k);
        }
    }
    let mut z = ZoneCounts { memory: memory.len(), ..Default::default() };
    for &k in &disk_keys {
        if memory.contains(&k) {
            continue; // already answerable for free
        }
        let fast =
            address(k).and_then(|id| block_contents.get(&id)).is_some_and(|set| set.contains(&k));
        if fast {
            z.fast += 1;
        } else {
            z.slow += 1;
        }
    }
    z
}

/// The zone-implied lower bound on the expected average successful query
/// cost: memory items are free, fast items cost exactly 1 I/O, slow
/// items cost at least 2 — so `tq ≥ (|F| + 2|S|) / k`. This is the
/// inequality behind Lemma 1.
pub fn zone_tq_lower_bound(z: &ZoneCounts) -> f64 {
    let k = z.total();
    if k == 0 {
        0.0
    } else {
        (z.fast + 2 * z.slow) as f64 / k as f64
    }
}

/// Empirically estimates the characteristic vector `(α_1, …, α_d)` of an
/// address function: `α_i = Pr[f(x) = i]` over uniformly random keys.
/// Returns per-block mass for blocks with nonzero estimates.
pub fn estimate_characteristic(
    address: impl Fn(Key) -> Option<BlockId>,
    samples: u64,
    seed: u64,
) -> HashMap<BlockId, f64> {
    let mut rng = SplitMix64::new(seed);
    let mut counts: HashMap<BlockId, u64> = HashMap::new();
    let mut hits = 0u64;
    for _ in 0..samples {
        let key = rng.next_u64() >> 1; // keep clear of the tombstone key
        if let Some(id) = address(key) {
            *counts.entry(id).or_default() += 1;
            hits += 1;
        }
    }
    let denom = hits.max(1) as f64;
    counts.into_iter().map(|(id, c)| (id, c as f64 / denom)).collect()
}

/// The bad-index mass `λ_f = Σ_{i : α_i > ρ} α_i` of a characteristic
/// vector (Lemma 2: functions with `λ_f > φ` are *bad* and force a large
/// slow zone).
#[cfg(test)]
fn lambda_f(characteristic: &HashMap<BlockId, f64>, rho: f64) -> f64 {
    characteristic.values().filter(|&&a| a > rho).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(memory: Vec<Key>, blocks: Vec<(u64, Vec<Key>)>) -> LayoutSnapshot {
        LayoutSnapshot {
            memory,
            blocks: blocks.into_iter().map(|(id, ks)| (BlockId(id), ks)).collect(),
        }
    }

    #[test]
    fn classification_by_hand() {
        // Block 0: keys 1, 2. Block 1: keys 3. Memory: key 4.
        // f: 1→0 (fast), 2→1 (slow: stored in 0, addressed to 1),
        //    3→1 (fast), 4→anything (memory).
        let s = snap(vec![4], vec![(0, vec![1, 2]), (1, vec![3])]);
        let z = classify_zones(&s, |k| match k {
            1 => Some(BlockId(0)),
            2 => Some(BlockId(1)),
            3 => Some(BlockId(1)),
            _ => Some(BlockId(9)),
        });
        assert_eq!(z, ZoneCounts { memory: 1, fast: 2, slow: 1 });
        // tq bound: (2·1 + 1·2)/4 = 1.0
        assert!((zone_tq_lower_bound(&z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replicated_copy_in_address_block_counts_fast() {
        // Key 5 stored in blocks 0 AND 2; f(5) = 2 → fast.
        let s = snap(vec![], vec![(0, vec![5]), (2, vec![5])]);
        let z = classify_zones(&s, |_| Some(BlockId(2)));
        assert_eq!(z, ZoneCounts { memory: 0, fast: 1, slow: 0 });
    }

    #[test]
    fn item_with_no_address_is_slow() {
        let s = snap(vec![], vec![(0, vec![7])]);
        let z = classify_zones(&s, |_| None);
        assert_eq!(z.slow, 1);
    }

    #[test]
    fn memory_copy_trumps_disk_copies() {
        let s = snap(vec![9], vec![(0, vec![9])]);
        let z = classify_zones(&s, |_| Some(BlockId(1)));
        assert_eq!(z, ZoneCounts { memory: 1, fast: 0, slow: 0 });
        assert_eq!(zone_tq_lower_bound(&z), 0.0);
    }

    #[test]
    fn empty_snapshot() {
        let z = classify_zones(&LayoutSnapshot::default(), |_| None);
        assert_eq!(z.total(), 0);
        assert_eq!(zone_tq_lower_bound(&z), 0.0);
    }

    #[test]
    fn characteristic_of_uniform_address_function_is_flat() {
        // f spreads keys over 16 blocks via their low bits.
        let est = estimate_characteristic(|k| Some(BlockId(k % 16)), 64_000, 3);
        assert_eq!(est.len(), 16);
        for (&id, &a) in &est {
            assert!((a - 1.0 / 16.0).abs() < 0.01, "block {id:?} mass {a}");
        }
        // With ρ above the flat mass, nothing is bad.
        assert_eq!(lambda_f(&est, 0.08), 0.0);
        // With ρ below it, everything is.
        assert!((lambda_f(&est, 0.04) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn characteristic_detects_skew() {
        // Half the mass on one block.
        let est = estimate_characteristic(
            |k| Some(if k % 2 == 0 { BlockId(0) } else { BlockId(1 + k % 8) }),
            64_000,
            4,
        );
        let big = est[&BlockId(0)];
        assert!((big - 0.5).abs() < 0.02);
        // λ_f at ρ = 0.25 captures exactly the heavy block.
        assert!((lambda_f(&est, 0.25) - big).abs() < 1e-9);
    }
}
