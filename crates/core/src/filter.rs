//! Level filters: in-memory Bloom filters over the disk levels of the
//! logarithmic method, paid for out of the part of `m` the construction
//! reserves but leaves idle (see the deviation note in `log_method`).
//!
//! Two pieces: [`FilterPlan`] — how the idle memory is cut into one
//! **share** per shallow level `H_1 … H_L`, each sized and probed for its
//! level's capacity, derived from the configuration and the spare memory
//! — and [`LevelFilter`], the add-only filter one level holds.
//!
//! A share is only busy while its own level exists. A level's filter is
//! therefore a short list of **segments**: its own share (for `k ≤ L`)
//! plus **loans** cut from the shares of shallower levels that are empty.
//! Each segment is an independent Bloom filter over all of the level's
//! keys, remixed by the share it was cut from and probed at the best
//! count for its bits per landing key; the level lets a key through only
//! if every segment does, so dropping a segment never loses a key. What
//! a level holds is one rule of which levels exist,
//! [`FilterPlan::segments`], which every builder — flush, reopen,
//! compaction — follows; a flush landing in `H_j` **recalls** each loan
//! of a share `≤ j` from the deeper levels, with no I/O, which leaves
//! each of them the rule's beneath `H_j`. A level borrows only from the
//! empty levels between it and the non-empty one above it, so no share
//! is held twice, and the filters fit beside any flush's buffers (`tests`
//! enumerates every occupancy): the reservation is the plan's and
//! nothing more. Filters are derived state: nothing here is ever
//! persisted.

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

/// The probe count with the lowest false-positive rate at `bits` bits
/// per key.
fn best_probes(bits: f64) -> u32 {
    (1..=MAX_PROBES)
        .min_by(|&a, &b| bloom_fp(bits, a).total_cmp(&bloom_fp(bits, b)))
        .expect("the probe range is not empty")
}

/// Whether filters of `sizes` items (level `k` at index `k − 1`) fit
/// beside a carry's buffers at every landing depth `j`: the filters of
/// levels `j..=L` (the ones alive while a carry lands in `j`; `1..j` are
/// its sources and already gone) plus its `2·j·b` buffered items within
/// `spare`. Exact integer arithmetic.
fn fits(sizes: &[usize], b: usize, spare: usize) -> bool {
    let mut alive = 0usize;
    (1..=sizes.len()).rev().all(|j| {
        alive = alive.saturating_add(sizes[j - 1]);
        alive.saturating_add(2 * j * b) <= spare
    })
}

/// `(share, items)` of each segment a level's filter holds.
pub(crate) type Segments = Vec<(usize, usize)>;

/// One filtered level's share of the plan.
#[derive(Clone, Debug, PartialEq)]
struct LevelShare {
    /// Filter size in items.
    items: usize,
    /// Filter bits per key of level capacity, after rounding to items.
    bits_per_key: f64,
    /// Bits set (and tested) per key.
    probes: u32,
}

/// How the spare memory of a log-structured table is split into level
/// filters — a pure function of the configuration and the spare item
/// count, never configured.
///
/// The first `L` levels get a share each, sized as Monkey (Dayan,
/// Athanassoulis, Idreos, SIGMOD 2017) sizes an LSM-tree's filters: the
/// false-positive rates that minimize `Σ fp_k` for a given number of bits
/// are proportional to the levels' capacities, `fp_k = λ·cap_k`, which
/// takes `bits_k = −ln(λ·cap_k) / ln²2` bits a key. A shallow level is
/// probed by every miss that reaches the deep ones but holds few keys,
/// so its bits are cheap: at the benchmark's `(64, 4096, 2)` the four
/// levels get 6.69 / 5.25 / 3.82 / 2.38 bits a key. `λ` is as small as the budget allows: at every
/// landing depth `j ≤ L` the filters of levels `j..=L` plus the carry's
/// `2·j·b` buffered items fit in the spare memory, checked on the sizes
/// as rounded down to whole items. Each level then probes at the best
/// integer count for the bits it got. `L` maximizes the expected number
/// of skipped probes of a miss, `Σ (1 − fp_k)`.
///
/// The share of an empty level is lent to a deeper one until its own
/// level is built again (`FilterPlan::segments`); what a level holds,
/// designed fp at its item count included, is [`HeldFilter`]'s.
#[derive(Clone, Debug, PartialEq)]
pub struct FilterPlan {
    /// The share of level `k` at index `k − 1`.
    levels: Vec<LevelShare>,
    /// The items the plan was derived for: filters and a carry's buffers
    /// together never exceed it.
    spare: usize,
    /// The block size, in items: a carry landing in `H_j` buffers `2·j·b`.
    b: usize,
}

impl FilterPlan {
    /// The plan for `cfg` with `spare` items of memory to spend. Empty
    /// (no level filtered) when not even `H1`'s filter fits beside a
    /// carry's buffers.
    pub fn derive(cfg: &CoreConfig, spare: usize) -> Self {
        let mut best = FilterPlan { levels: Vec::new(), spare, b: cfg.b };
        let mut best_score = 0.0;
        // A carry landing in the deepest filtered level needs its 2·L·b
        // buffered items whatever the filters get.
        for depth in (1usize..).take_while(|&depth| 2 * depth * cfg.b <= spare) {
            let caps: Vec<usize> = (1..=depth).map(|k| cfg.level_capacity(k as u32)).collect();
            let Some(sizes) = proportional_sizes(&caps, cfg.b, spare) else {
                break; // more levels only thin the filters further
            };
            let levels = caps
                .iter()
                .zip(sizes)
                .map(|(&cap, items)| {
                    let bits_per_key = (items * ITEM_BITS) as f64 / cap as f64;
                    LevelShare { items, bits_per_key, probes: best_probes(bits_per_key) }
                })
                .collect();
            let plan = FilterPlan { levels, spare, b: cfg.b };
            let score: f64 = (1..=plan.levels()).map(|k| 1.0 - plan.designed_fp(k)).sum();
            if score > best_score {
                best_score = score;
                best = plan;
            }
        }
        best
    }

    /// Derives the plan from what `budget` has left once its owner's
    /// fixed reservations are in, and reserves the plan's full size — so
    /// `memory_used() ≤ m` covers the filters, loans included.
    pub(crate) fn reserve(cfg: &CoreConfig, budget: &mut MemoryBudget) -> Result<Self> {
        let plan = Self::derive(cfg, budget.remaining());
        budget.reserve(plan.items_from(1))?;
        Ok(plan)
    }

    /// Number of filtered levels `L`: `H_1 … H_L` own a share.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// The share of level `k`; `None` past the filtered levels.
    fn share(&self, k: usize) -> Option<&LevelShare> {
        self.levels.get(k.checked_sub(1)?)
    }

    /// Filter bits per key of `H_k`'s capacity in its own share (0 for
    /// an unfiltered level).
    pub fn bits_per_key(&self, k: usize) -> f64 {
        self.share(k).map_or(0.0, |s| s.bits_per_key)
    }

    /// Bits `H_k`'s own share sets (and tests) per key at the level's
    /// capacity (0 for an unfiltered level).
    pub fn probes(&self, k: usize) -> u32 {
        self.share(k).map_or(0, |s| s.probes)
    }

    /// The false-positive rate of `H_k`'s own share filled to the level's
    /// capacity (1 for an unfiltered level: every probe goes through).
    pub fn designed_fp(&self, k: usize) -> f64 {
        self.share(k).map_or(1.0, |s| bloom_fp(s.bits_per_key, s.probes))
    }

    /// Items of memory the shares of levels `from..=L` occupy — with
    /// `from = 1`, the whole reservation.
    pub fn items_from(&self, from: usize) -> usize {
        self.levels.iter().skip(from.saturating_sub(1)).map(|s| s.items).sum()
    }

    /// The spare items the plan was derived for.
    pub(crate) fn spare(&self) -> usize {
        self.spare
    }

    /// The items a carry landing in `H_k` buffers: `2·k·b`.
    pub(crate) fn carry_buffers(&self, k: usize) -> usize {
        2 * k * self.b
    }

    /// What `H_k` holds, as `(share, items)`, beneath the nearest
    /// non-empty level `H_above` (0: none), built by a merge of `streams`
    /// disk levels: its own share (for `k ≤ L`), then loans cut deepest
    /// first from the idle shares strictly between, up to `spare −
    /// items_from(k) − 2·streams·b` items — [`fits`]'s bound, so the
    /// filters alive while the merge runs fit beside its buffers. That is
    /// the cut with nothing above, truncated at `above`: what a flush
    /// builds, less what the flushes landing above `H_k` since recalled.
    pub(crate) fn segments(&self, k: usize, above: usize, streams: usize) -> Segments {
        let own = self.share(k).map(|s| (k, s.items));
        let mut room = self.spare.saturating_sub(self.items_from(k) + self.carry_buffers(streams));
        let loans = (above + 1..k.min(self.levels() + 1)).rev().map_while(|i| {
            let items = room.min(self.levels[i - 1].items);
            room -= items;
            (items > 0).then_some((i, items))
        });
        own.into_iter().chain(loans).collect()
    }

    /// The filter of an `H_k` about to hold `items` keys: one segment per
    /// `(share, items)` of [`FilterPlan::segments`], probed at the best
    /// count for its bits per key; `None` when there is nothing to hold.
    pub(crate) fn filter(
        &self,
        k: usize,
        above: usize,
        streams: usize,
        items: usize,
    ) -> Option<LevelFilter> {
        let segments: Vec<Segment> = self
            .segments(k, above, streams)
            .into_iter()
            .map(|(share, held)| Segment::new(share, held, items))
            .collect();
        (!segments.is_empty()).then_some(LevelFilter { segments })
    }
}

/// Filter sizes in items for levels of capacities `caps`, at rates
/// proportional to the capacities and with `λ` as small as
/// [`fits`] allows; `None` when the deepest level would get no item.
///
/// With `x = −ln λ`, level `k` gets `⌊cap_k·(x − ln cap_k) / (ln²2 ·
/// 128)⌋` items, nondecreasing in `x`, so the largest `x` that fits is
/// found by bisection: from `x = ln cap_L` (fp 1 at `H_L`, no bits) to
/// an `x` where `H1`'s filter alone is larger than `spare`.
fn proportional_sizes(caps: &[usize], b: usize, spare: usize) -> Option<Vec<usize>> {
    let per_item = std::f64::consts::LN_2.powi(2) * ITEM_BITS as f64;
    let sizes = |x: f64| -> Vec<usize> {
        caps.iter()
            .map(|&cap| (cap as f64 * (x - (cap as f64).ln()) / per_item).max(0.0) as usize)
            .collect()
    };
    let (first, last) = (*caps.first()? as f64, *caps.last()? as f64);
    let mut lo = last.ln();
    if !fits(&sizes(lo), b, spare) {
        return None;
    }
    let mut hi = lo + (spare as f64 + 1.0) * per_item / first;
    for _ in 0..100 {
        let mid = lo + (hi - lo) / 2.0;
        if fits(&sizes(mid), b, spare) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(sizes(lo)).filter(|s| !s.contains(&0))
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

impl std::iter::Sum for FilterStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(FilterStats::default(), |a, s| FilterStats {
            skipped: a.skipped + s.skipped,
            false_positives: a.false_positives + s.false_positives,
        })
    }
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

/// What one level's filter holds, beside the false-positive rate it is
/// designed for at the level's current item count: the product of its
/// segments' textbook rates, each at its own bits per key and probe
/// count. A level with no filter holds nothing and lets every probe
/// through ([`HeldFilter::NONE`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeldFilter {
    /// Items of the level's own share (0 past the filtered levels).
    pub own: usize,
    /// Items lent by the shares of empty shallower levels.
    pub loaned: usize,
    /// Bits tested per key, over every segment.
    pub probes: u32,
    /// The designed false-positive rate at the level's item count.
    pub designed_fp: f64,
}

impl HeldFilter {
    /// No filter: nothing held, every probe goes through.
    pub const NONE: HeldFilter = HeldFilter { own: 0, loaned: 0, probes: 0, designed_fp: 1.0 };

    /// Items held, own share and loans together.
    pub fn items(&self) -> usize {
        self.own + self.loaned
    }
}

/// An add-only Bloom filter over the keys of one level, cut from one
/// share of the plan.
///
/// Bit positions come from a **remix** of the table's `hash64` by double
/// hashing (`g_i = a + i·step`): the level's bucket index already
/// consumes the hash's top bits, so reducing the raw hash again would
/// hand every key of one bucket the same few filter words. The remix is
/// salted by the share, so the segments of one level are independent
/// filters and their false-positive rates multiply.
struct Segment {
    /// The plan share this segment's memory belongs to.
    share: usize,
    words: Vec<u64>,
    probes: u32,
}

impl Segment {
    /// An empty segment of `items` items of `share`, probed at the best
    /// count for a level of `keys` keys.
    fn new(share: usize, items: usize, keys: usize) -> Self {
        let probes = best_probes((items * ITEM_BITS) as f64 / keys.max(1) as f64);
        Segment { share, words: vec![0; items * (ITEM_BITS / 64)], probes }
    }

    fn items(&self) -> usize {
        self.words.len() * 64 / ITEM_BITS
    }

    /// The word index and mask of each of the key's bit positions.
    #[inline]
    fn positions(&self, h: u64) -> impl Iterator<Item = (usize, u64)> {
        let bits = self.words.len() as u64 * 64;
        let mut g = fmix64(h ^ (self.share as u64).wrapping_mul(SHARE_SALT));
        let step = g.rotate_left(32) | 1;
        (0..self.probes).map(move |_| {
            let bit = prefix_bucket(g, bits);
            g = g.wrapping_add(step);
            ((bit / 64) as usize, 1u64 << (bit % 64))
        })
    }
}

/// Spreads the share index over the hash's bits before the remix.
const SHARE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The filter one level holds: its segments, each over all of the
/// level's keys. A key may be in the level only if every segment says
/// so, so a level keeps its segments' product false-positive rate, and
/// loses none of its keys when a segment is recalled.
pub(crate) struct LevelFilter {
    segments: Vec<Segment>,
}

impl LevelFilter {
    /// Adds the key hashing to `h`.
    #[inline]
    pub(crate) fn insert(&mut self, h: u64) {
        for s in &mut self.segments {
            for (word, mask) in s.positions(h) {
                s.words[word] |= mask;
            }
        }
    }

    /// Whether the key hashing to `h` may have been added; `false` is
    /// definite.
    #[inline]
    pub(crate) fn may_contain(&self, h: u64) -> bool {
        self.segments.iter().all(|s| s.positions(h).all(|(word, mask)| s.words[word] & mask != 0))
    }

    /// `(share, items)` of each segment held.
    pub(crate) fn shares(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.segments.iter().map(|s| (s.share, s.items()))
    }

    /// Gives back every segment cut from a share `≤ k`; `None` when
    /// nothing is left.
    pub(crate) fn recall(mut self, k: usize) -> Option<Self> {
        self.segments.retain(|s| s.share > k);
        (!self.segments.is_empty()).then_some(self)
    }

    /// What the filter of `H_level`, holding `keys` keys, holds.
    pub(crate) fn held(&self, level: usize, keys: usize) -> HeldFilter {
        let mut held = HeldFilter::NONE;
        for s in &self.segments {
            if s.share == level {
                held.own += s.items();
            } else {
                held.loaned += s.items();
            }
            held.probes += s.probes;
            held.designed_fp *= bloom_fp((s.items() * ITEM_BITS) as f64 / keys as f64, s.probes);
        }
        held
    }
}

#[cfg(test)]
mod tests {
    use dxh_hashfn::{HashFn, IdealFn};
    use proptest::prelude::*;

    use super::*;

    /// The spare memory `LogMethodTable::new_on` hands the plan.
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
            assert_eq!(plan.filter(k, k - 1, k, 1).is_some(), k <= plan.levels());
        }
        assert!(plan.filter(0, 0, 0, 1).is_none());
        assert_every_occupancy_fits(cfg, plan);
    }

    /// The rule, proven once for `plan`: whichever of `H1 … H_(L+3)` are
    /// non-empty, each holding what [`FilterPlan::segments`] gives it
    /// beneath the nearest non-empty level above it, no share is held
    /// twice or past its size, every filtered level holds its own share
    /// whole, and the filters plus the buffers of a flush landing in the
    /// shallowest non-empty level `H_j` fit the spare — unless nothing
    /// is held, when `2·j·b` alone may take it all. Each holding is the
    /// one a flush builds with nothing above, truncated at the level
    /// above: what the flushes landing there since have recalled.
    fn assert_every_occupancy_fits(cfg: &CoreConfig, plan: &FilterPlan) {
        let depth = plan.levels() + 3;
        for occupied in 1..1u32 << depth {
            let mut held: Vec<(usize, usize)> = Vec::new();
            let mut above = 0;
            for k in (1..=depth).filter(|&k| occupied >> (k - 1) & 1 == 1) {
                let segments = plan.segments(k, above, k);
                let mut built = plan.segments(k, 0, k);
                built.retain(|&(i, _)| i == k || i > above);
                assert_eq!(segments, built, "{occupied:b}: H{k} under H{above}");
                if let Some(own) = plan.share(k) {
                    assert_eq!(segments.first(), Some(&(k, own.items)), "{occupied:b}: H{k}");
                }
                for &(i, items) in &segments {
                    assert!(i == k || above < i && i < k, "{occupied:b}: H{k} holds share {i}");
                    assert!(0 < items && items <= plan.share(i).unwrap().items, "{segments:?}");
                }
                held.extend(segments);
                above = k;
            }
            let mut shares: Vec<usize> = held.iter().map(|&(i, _)| i).collect();
            shares.sort_unstable();
            shares.dedup();
            assert_eq!(shares.len(), held.len(), "{occupied:b}: a share held twice: {held:?}");
            let items: usize = held.iter().map(|&(_, items)| items).sum();
            let j = occupied.trailing_zeros() as usize + 1;
            assert!(
                items == 0 || items + 2 * j * cfg.b <= plan.spare,
                "b = {}, m = {}, γ = {}, {occupied:b}: {held:?} beside H{j}'s buffers overrun {}",
                cfg.b,
                cfg.m,
                cfg.gamma,
                plan.spare
            );
        }
    }

    #[test]
    fn every_occupancy_of_every_deployed_geometry_holds_each_share_once_within_the_spare() {
        // The benchmark's shard and its γ twins, `exp_logmethod`'s
        // sweep, and every geometry the crate's tests build a table at.
        let geometries = [(64, 4096, 2), (64, 4096, 4), (64, 4096, 8), (64, 4096, 16)]
            .into_iter()
            .chain([2, 4, 8, 16].map(|gamma| (64, 1024, gamma)))
            .chain([(64, 8 * 64 + 48, 2), (64, 2048, 2), (32, 1024, 2), (32, 512, 2)])
            .chain([(256, 16_384, 2), (16, 256, 2), (16, 256, 4), (16, 256, 8), (8, 256, 2)])
            .chain([(8, 1024, 2), (8, 1024, 4), (8, 1024, 8), (8, 128, 2), (8, 112, 2)])
            .chain([(4, 96, 2), (4, 96, 4), (4, 96, 8), (2, 256, 2), (7, 120, 2)]);
        let mut lent = 0;
        for (b, m, gamma) in geometries {
            let (cfg, p) = plan(b, m, gamma);
            assert_fits(&cfg, &p, spare(&cfg));
            lent += (2..=p.levels() + 3).filter(|&k| p.segments(k, 0, k).len() > 1).count();
        }
        assert!(lent > 0, "no geometry lends");
    }

    /// The split this plan replaced, kept as the reference it must beat:
    /// one bits-per-key figure for the first `L` levels, the largest that
    /// fits at every landing depth, with `L` maximizing `L · (1 − fp)`.
    /// The designed false-positive rate of each filtered level.
    fn uniform_split(cfg: &CoreConfig, spare: usize) -> Vec<f64> {
        let (mut best, mut best_score) = (Vec::new(), 0.0);
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
            let smallest = cfg.level_capacity(1) as u128 * budget as u128 / keys as u128;
            if smallest == 0 {
                break;
            }
            let bits_per_key = (budget * ITEM_BITS) as f64 / keys as f64;
            let fp = bloom_fp(bits_per_key, best_probes(bits_per_key));
            let score = levels as f64 * (1.0 - fp);
            if score > best_score {
                (best, best_score) = (vec![fp; levels], score);
            }
        }
        best
    }

    /// The probes a miss reads from `H1 … H_depth` when each is full: a
    /// filtered level's designed rate, 1 for an unfiltered one.
    fn miss_probes(fp: impl Fn(usize) -> f64, depth: usize) -> f64 {
        (1..=depth).map(fp).sum()
    }

    #[test]
    fn the_plan_is_pinned_at_the_deployed_geometries() {
        // The benchmark's shard: four levels share 1 776 idle items, and
        // landing in H1 (every filter alive, 2b buffered) uses them all.
        let (cfg, p) = plan(64, 4096, 2);
        assert_eq!(spare(&cfg), 1776);
        let sizes: Vec<usize> = p.levels.iter().map(|s| s.items).collect();
        let probes: Vec<u32> = (1..=4).map(|k| p.probes(k)).collect();
        assert_eq!((&sizes[..], &probes[..]), (&[214, 336, 489, 609][..], &[5, 4, 3, 2][..]));
        assert_eq!(p.items_from(1) + 2 * cfg.b, 1776);
        for (k, bits) in [(1, 6.69), (2, 5.25), (3, 3.82), (4, 2.38)] {
            assert!((p.bits_per_key(k) - bits).abs() < 0.005, "H{k}: {}", p.bits_per_key(k));
        }
        let designed = miss_probes(|k| p.designed_fp(k), 4);
        assert!(designed <= 0.62, "Σ fp = {designed}");
        // The uniform split of the same memory: 3.39 bits and 2 probes a
        // key on all four levels, 0.199 each.
        let uniform = uniform_split(&cfg, 1776);
        assert_eq!(uniform.len(), 4);
        assert!((uniform.iter().sum::<f64>() - 0.796).abs() < 0.005, "{uniform:?}");
        assert_fits(&cfg, &p, 1776);
        assert_eq!((p.probes(5), p.bits_per_key(5), p.designed_fp(5)), (0, 0.0, 1.0));
        // exp_logmethod's geometry: a second level's carry would not fit.
        for gamma in [2, 4, 8, 16] {
            let (cfg, p) = plan(64, 1024, gamma);
            assert_eq!(p.levels(), 1, "γ = {gamma}");
            assert_eq!(p.items_from(1), spare(&cfg) - 2 * cfg.b, "γ = {gamma}");
            assert_fits(&cfg, &p, spare(&cfg));
        }
        // The smallest legal memory: 8 spare items, less than one carry.
        let (cfg, p) = plan(64, 8 * 64 + 48, 2);
        assert_eq!((p.levels(), p.items_from(1)), (0, 0));
        assert_eq!(p.designed_fp(1), 1.0);
        assert_fits(&cfg, &p, spare(&cfg));
    }

    #[test]
    fn a_full_filter_stays_near_its_designed_false_positive_rate() {
        for (b, m, gamma) in [(64, 4096, 2), (64, 1024, 4), (8, 1024, 2)] {
            let (cfg, p) = plan(b, m, gamma);
            let hash = IdealFn::from_seed(7);
            for k in 1..=p.levels() {
                let cap = cfg.level_capacity(k as u32) as u64;
                let mut f = p.filter(k, k - 1, k, cap as usize).unwrap();
                assert_eq!(f.held(k, cap as usize).probes, p.probes(k), "({b}, {m}, {gamma}) H{k}");
                (0..cap).for_each(|key| f.insert(hash.hash64(key)));
                let fp = measured_fp(&f, &hash, cap, 100_000);
                assert!(
                    fp <= 1.5 * p.designed_fp(k) + 1e-4,
                    "({b}, {m}, {gamma}) H{k}: measured {fp} vs designed {}",
                    p.designed_fp(k)
                );
            }
        }
    }

    /// The measured false-positive rate of `f` over `absent` keys past
    /// `keys`.
    fn measured_fp(f: &LevelFilter, hash: &IdealFn, keys: u64, absent: u64) -> f64 {
        let hits = (keys..keys + absent).filter(|&key| f.may_contain(hash.hash64(key)));
        hits.count() as f64 / absent as f64
    }

    #[test]
    fn a_level_holding_loans_stays_near_the_product_of_its_segments() {
        // The benchmark's shard. A flush landing in H_k has just emptied
        // H1 … H_(k−1) and borrows their shares, deepest first, as far as
        // the 2·k·b buffered items leave room; a level built with H_j
        // above it borrows only from the shares between.
        let (_, p) = plan(64, 4096, 2);
        let loans = |k: usize, above| -> Vec<(usize, usize)> {
            p.segments(k, above, k).into_iter().filter(|&(i, _)| i != k).collect()
        };
        assert_eq!(loans(1, 0), []);
        assert_eq!(loans(2, 0), [(1, 86)]);
        assert_eq!(loans(3, 0), [(2, 294)]);
        assert_eq!(loans(4, 0), [(3, 489), (2, 166)]);
        assert_eq!(loans(5, 0), [(4, 609), (3, 489), (2, 38)]);
        assert_eq!(loans(5, 3), [(4, 609)]);
        // Compaction's merge reads more streams than its depth: less room.
        assert_eq!(p.segments(4, 0, 5), [(4, 609), (3, 489), (2, 38)]);
        let hash = IdealFn::from_seed(11);
        // H4 as the `lookup` workload holds it, 24 576 keys: built with
        // both loans, then with H2's share recalled by a flush into H2;
        // and an unfiltered H5 of loans alone.
        let keys = 24_576;
        let mut h4 = p.filter(4, 0, 4, keys).unwrap();
        (0..keys as u64).for_each(|key| h4.insert(hash.hash64(key)));
        let built = h4.held(4, keys);
        assert_eq!((built.own, built.loaned, built.probes), (609, 655, 5));
        let h4 = h4.recall(2).unwrap();
        assert_eq!(h4.shares().collect::<Vec<_>>(), p.segments(4, 2, 4));
        assert_eq!(h4.shares().collect::<Vec<_>>(), [(4, 609), (3, 489)]);
        let kept = h4.held(4, keys);
        assert!((kept.designed_fp - 0.065).abs() < 0.001, "{kept:?}");
        assert!(built.designed_fp < kept.designed_fp && kept.designed_fp < p.designed_fp(4));
        let mut h5 = p.filter(5, 0, 5, 2 * keys).unwrap();
        (0..2 * keys as u64).for_each(|key| h5.insert(hash.hash64(key)));
        for (k, f, keys) in [(4, &h4, keys), (5, &h5, 2 * keys)] {
            let held = f.held(k, keys);
            // Independent segments multiply; shared bit positions would
            // leave the level near its largest segment's rate.
            let fp = measured_fp(f, &hash, keys as u64, 200_000);
            assert!(
                fp <= 1.5 * held.designed_fp + 1e-4 && held.designed_fp <= 1.5 * fp + 1e-4,
                "H{k}: measured {fp} vs designed {}",
                held.designed_fp
            );
            // A recalled segment loses no key.
            assert!((0..keys as u64).all(|key| f.may_contain(hash.hash64(key))), "H{k}");
        }
        assert!(h4.recall(4).is_none(), "H4's own share is the last to go");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever the sizing emits fits, lets a miss through no more
        /// often than the uniform split of the same memory, and no filter
        /// it emits ever reports an inserted key absent.
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
            let uniform = uniform_split(&cfg, spare);
            let depth = p.levels().max(uniform.len());
            let (ours, theirs) = (
                miss_probes(|k| p.designed_fp(k), depth),
                miss_probes(|k| uniform.get(k - 1).copied().unwrap_or(1.0), depth),
            );
            prop_assert!(ours <= theirs, "Σ fp {} > the uniform split's {}", ours, theirs);
            let hash = IdealFn::from_seed(seed);
            for k in 1..=p.levels() + 1 {
                let filter = p.filter(k, 0, k, keys.len());
                prop_assert!(filter.is_some() || k > p.levels(), "H{} has no filter", k);
                let Some(mut f) = filter else { continue };
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
