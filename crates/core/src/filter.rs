//! Level filters: one in-memory Bloom filter per shallow level of the
//! logarithmic method, paid for out of the part of `m` the construction
//! reserves but leaves idle (see the deviation note in `log_method`).
//!
//! Two pieces: [`FilterPlan`] — how many levels get a filter, and how
//! large each is, derived from the configuration and the spare memory —
//! and [`LevelFilter`], the add-only Bloom filter itself. Filters are
//! derived state: nothing here is ever persisted.

use dxh_extmem::{MemoryBudget, Result};
use dxh_hashfn::{fmix64, prefix_bucket};

use crate::config::CoreConfig;

/// Bits in one item slot (a key word and a value word): the exchange
/// rate between filter bits and the memory budget's unit.
const ITEM_BITS: usize = 128;

/// Probe counts the sizing considers. The optimum is `bits · ln 2`;
/// past 16 probes (≈ 23 bits a key) the false-positive rate is already
/// below 10⁻⁴ and further probes only cost time.
const MAX_PROBES: u32 = 16;

/// The textbook Bloom false-positive rate at `bits` bits per key and
/// `probes` probes: `(1 − e^(−probes/bits))^probes`.
fn bloom_fp(bits: f64, probes: u32) -> f64 {
    (1.0 - (-f64::from(probes) / bits).exp()).powi(probes as i32)
}

/// How the spare memory of a log-structured table is split into level
/// filters — a pure function of the configuration and the spare item
/// count, never configured.
///
/// The first `L` levels share one bits-per-key figure: the largest for
/// which, at every landing depth `j ≤ L`, the filters of levels `j..=L`
/// (the ones alive while a carry lands in `j`; `1..j` are its sources
/// and already gone) plus the carry's `2·j·b` buffered items fit in the
/// spare memory. `L` maximizes the expected number of skipped probes of
/// a miss, `L · (1 − fp)`, with `fp` the Bloom rate at its best integer
/// probe count.
#[derive(Clone, Debug, PartialEq)]
pub struct FilterPlan {
    /// Size in items of the filter of level `k` at index `k − 1`.
    sizes: Vec<usize>,
    bits_per_key: f64,
    probes: u32,
}

impl FilterPlan {
    /// The plan for `cfg` with `spare` items of memory to spend. Empty
    /// (no level filtered) when not even `H1`'s filter fits beside a
    /// carry's buffers.
    pub fn derive(cfg: &CoreConfig, spare: usize) -> Self {
        let mut best = FilterPlan { sizes: Vec::new(), bits_per_key: 0.0, probes: 0 };
        let mut best_score = 0.0;
        // A carry landing in the deepest filtered level needs its 2·L·b
        // buffered items whatever the filters get.
        for levels in (1usize..).take_while(|&levels| 2 * levels * cfg.b <= spare) {
            // The binding landing depth: the smallest budget-per-key
            // ratio `(spare − 2jb) / keys(j..=levels)`, compared exactly.
            let mut keys = 0usize;
            let (budget, keys) = (1..=levels)
                .rev()
                .map(|j| {
                    keys = keys.saturating_add(cfg.level_capacity(j as u32));
                    (spare - 2 * j * cfg.b, keys)
                })
                .min_by(|&(ba, ka), &(bb, kb)| {
                    (ba as u128 * kb as u128).cmp(&(bb as u128 * ka as u128))
                })
                .expect("at least one landing depth");
            // Rounding each filter down to whole items keeps every
            // landing depth's sum under its budget, not just the binding
            // one: Σ ⌊cap·B/K⌋ ≤ keys(j)·B/K ≤ keys(j)·B_j/keys(j).
            let sizes: Vec<usize> = (1..=levels)
                .map(|k| {
                    let cap = cfg.level_capacity(k as u32) as u128;
                    (cap * budget as u128 / keys as u128) as usize
                })
                .collect();
            if sizes.contains(&0) {
                break; // more levels only thin the filters further
            }
            let bits_per_key = (budget * ITEM_BITS) as f64 / keys as f64;
            let probes = (1..=MAX_PROBES)
                .min_by(|&a, &b| bloom_fp(bits_per_key, a).total_cmp(&bloom_fp(bits_per_key, b)))
                .expect("the probe range is not empty");
            let score = levels as f64 * (1.0 - bloom_fp(bits_per_key, probes));
            if score > best_score {
                best_score = score;
                best = FilterPlan { sizes, bits_per_key, probes };
            }
        }
        best
    }

    /// Derives the plan from what `budget` has left once its owner's
    /// fixed reservations are in, and reserves the plan's full size — so
    /// `memory_used() ≤ m` covers the filters.
    pub(crate) fn reserve(cfg: &CoreConfig, budget: &mut MemoryBudget) -> Result<Self> {
        let plan = Self::derive(cfg, budget.remaining());
        budget.reserve(plan.items_from(1))?;
        Ok(plan)
    }

    /// Number of filtered levels `L`: `H_1 … H_L` carry a filter.
    pub fn levels(&self) -> usize {
        self.sizes.len()
    }

    /// Filter bits per key of level capacity (0 when nothing fits).
    pub fn bits_per_key(&self) -> f64 {
        self.bits_per_key
    }

    /// Bits set (and tested) per key.
    pub fn probes(&self) -> u32 {
        self.probes
    }

    /// The false-positive rate of a filter filled to its level's
    /// capacity (1 when no level is filtered: every probe goes through).
    pub fn designed_fp(&self) -> f64 {
        if self.sizes.is_empty() {
            1.0
        } else {
            bloom_fp(self.bits_per_key, self.probes)
        }
    }

    /// Items of memory the filters of levels `from..=L` occupy — with
    /// `from = 1`, the whole reservation.
    pub fn items_from(&self, from: usize) -> usize {
        self.sizes.iter().skip(from.saturating_sub(1)).sum()
    }

    /// An empty filter for level `k`; `None` past the filtered levels.
    pub(crate) fn new_filter(&self, k: usize) -> Option<LevelFilter> {
        let items = *self.sizes.get(k.checked_sub(1)?)?;
        Some(LevelFilter { words: vec![0; items * (ITEM_BITS / 64)], probes: self.probes })
    }
}

/// Counters of what the level filters did for one table's probes, read
/// beside its `IoStats`: every skipped probe is a block read a lookup
/// (or a delete's presence probe) did not issue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Probes of a non-empty level skipped because its filter ruled the
    /// key out.
    pub skipped: u64,
    /// Probes a filter let through that did not find the key.
    pub false_positives: u64,
}

impl FilterStats {
    /// Measured false-positive rate: of the probes of filtered levels
    /// that could not have found the key, the share the filter let
    /// through (0 before any such probe).
    pub fn false_positive_rate(&self) -> f64 {
        let negatives = self.skipped + self.false_positives;
        if negatives == 0 {
            0.0
        } else {
            self.false_positives as f64 / negatives as f64
        }
    }
}

/// An add-only Bloom filter over the keys of one level, addressed by the
/// table's own `hash64` of the key.
///
/// Bit positions come from a **remix** of that hash by double hashing
/// (`g_i = a + i·step`): the level's bucket index already consumes the
/// hash's top bits, so reducing the raw hash again would hand every key
/// of one bucket the same few filter words.
pub(crate) struct LevelFilter {
    words: Vec<u64>,
    probes: u32,
}

impl LevelFilter {
    /// The word index and mask of each of the key's bit positions.
    #[inline]
    fn positions(&self, h: u64) -> impl Iterator<Item = (usize, u64)> {
        let bits = self.words.len() as u64 * 64;
        let mut g = fmix64(h);
        let step = g.rotate_left(32) | 1;
        (0..self.probes).map(move |_| {
            let bit = prefix_bucket(g, bits);
            g = g.wrapping_add(step);
            ((bit / 64) as usize, 1u64 << (bit % 64))
        })
    }

    /// Adds the key hashing to `h`.
    #[inline]
    pub(crate) fn insert(&mut self, h: u64) {
        for (word, mask) in self.positions(h) {
            self.words[word] |= mask;
        }
    }

    /// Whether the key hashing to `h` may have been added; `false` is
    /// definite.
    #[inline]
    pub(crate) fn may_contain(&self, h: u64) -> bool {
        self.positions(h).all(|(word, mask)| self.words[word] & mask != 0)
    }
}

#[cfg(test)]
mod tests {
    use dxh_hashfn::{HashFn, IdealFn};
    use proptest::prelude::*;

    use super::*;

    /// The spare memory `LogMethodTable::with_disk` hands the plan.
    fn spare(cfg: &CoreConfig) -> usize {
        cfg.m - cfg.h0_capacity() - (4 * cfg.b + 16)
    }

    fn plan(b: usize, m: usize, gamma: u64) -> (CoreConfig, FilterPlan) {
        let cfg = CoreConfig::lemma5(b, m, gamma).unwrap();
        let plan = FilterPlan::derive(&cfg, spare(&cfg));
        (cfg, plan)
    }

    /// Every landing depth's live filters and carry buffers fit.
    fn assert_fits(cfg: &CoreConfig, plan: &FilterPlan, spare: usize) {
        for j in 1..=plan.levels() {
            assert!(
                plan.items_from(j) + 2 * j * cfg.b <= spare,
                "b = {}, m = {}, γ = {}: landing in H{j} overruns {spare} spare items",
                cfg.b,
                cfg.m,
                cfg.gamma
            );
        }
        for k in 1..=plan.levels() + 1 {
            assert_eq!(plan.new_filter(k).is_some(), k <= plan.levels());
        }
        assert!(plan.new_filter(0).is_none());
    }

    #[test]
    fn the_plan_is_pinned_at_the_deployed_geometries() {
        // The benchmark's shard: four levels share 1 776 idle items.
        let (cfg, p) = plan(64, 4096, 2);
        assert_eq!(spare(&cfg), 1776);
        assert_eq!((p.levels(), p.probes()), (4, 2));
        assert!(p.bits_per_key() >= 3.3 && p.bits_per_key() < 3.4, "{}", p.bits_per_key());
        assert!((1600..=1648).contains(&p.items_from(1)), "{} items", p.items_from(1));
        assert!((p.designed_fp() - 0.199).abs() < 0.005, "fp = {}", p.designed_fp());
        assert_fits(&cfg, &p, 1776);
        // exp_logmethod's geometry: a second level's carry would not fit.
        for gamma in [2, 4, 8, 16] {
            let (cfg, p) = plan(64, 1024, gamma);
            assert_eq!(p.levels(), 1, "γ = {gamma}");
            assert_fits(&cfg, &p, spare(&cfg));
        }
        // The smallest legal memory: 8 spare items, less than one carry.
        let (cfg, p) = plan(64, 8 * 64 + 48, 2);
        assert_eq!((p.levels(), p.items_from(1)), (0, 0));
        assert_eq!(p.designed_fp(), 1.0);
        assert_fits(&cfg, &p, spare(&cfg));
    }

    #[test]
    fn a_full_filter_stays_near_its_designed_false_positive_rate() {
        for (b, m, gamma) in [(64, 4096, 2), (64, 1024, 4), (8, 1024, 2)] {
            let (cfg, p) = plan(b, m, gamma);
            let hash = IdealFn::from_seed(7);
            for k in 1..=p.levels() {
                let mut f = p.new_filter(k).unwrap();
                let cap = cfg.level_capacity(k as u32) as u64;
                (0..cap).for_each(|key| f.insert(hash.hash64(key)));
                let absent = 100_000u64;
                let hits = (cap..cap + absent).filter(|&key| f.may_contain(hash.hash64(key)));
                let fp = hits.count() as f64 / absent as f64;
                assert!(
                    fp <= 1.5 * p.designed_fp() + 1e-4,
                    "({b}, {m}, {gamma}) H{k}: measured {fp} vs designed {}",
                    p.designed_fp()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever the sizing emits fits, and no filter it emits ever
        /// reports an inserted key absent.
        #[test]
        fn no_inserted_key_is_ever_reported_absent(
            b in 1usize..80,
            extra in 0usize..6000,
            gamma in 2u64..9,
            seed in any::<u64>(),
            keys in proptest::collection::vec(any::<u64>(), 1..400),
        ) {
            let cfg = CoreConfig::lemma5(b, 8 * b + 48 + extra, gamma).unwrap();
            let spare = spare(&cfg);
            let p = FilterPlan::derive(&cfg, spare);
            assert_fits(&cfg, &p, spare);
            let hash = IdealFn::from_seed(seed);
            for k in 1..=p.levels() {
                let mut f = p.new_filter(k).unwrap();
                for &key in &keys {
                    f.insert(hash.hash64(key));
                }
                for &key in &keys {
                    prop_assert!(f.may_contain(hash.hash64(key)), "H{} lost key {}", k, key);
                }
            }
        }
    }
}
