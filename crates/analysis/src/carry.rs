//! The logarithmic method's carry as an exact I/O census.
//!
//! [`crate::bounds`] gives Lemma 5 up to its hidden constant; this is the
//! constant. For `n` distinct insertions the level structure evolves
//! deterministically — which levels exist, how many items and buckets
//! each has — and with blocks large enough that no bucket stays empty
//! (`b = 64` at load ≥ 1/8), every flush costs exactly one read per
//! carried block, one write per freshly built block and one
//! read-modify-write per block merged into. The census replays that
//! arithmetic without a table, over **primary** blocks: a level built at
//! a sealed fill above `b/2` also chains the rare bucket that draws more
//! than `b` items ([`crate::knuth::overflow_tail`] of them), and each
//! chain block is one more write when built and one more read when
//! carried. `dxh_core`'s tests hold the measured `IoStats` of
//! `LogMethodTable` **equal** to the census plus the chain blocks they
//! count at the deployed geometry.

/// What `n` distinct insertions cost and leave behind, see
/// [`carry_census`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CarryCensus {
    /// Block reads: each carried level's buckets, once per carry.
    pub reads: u64,
    /// Block writes: the buckets of every freshly built level.
    pub writes: u64,
    /// Read-modify-writes: the buckets of every level merged into in
    /// place — an upper bound once `γ > 2`, where an arrival is small
    /// beside a deep growable level and misses some of its buckets.
    pub rmws: u64,
    /// `(items, buckets)` per level, `H0` first; `(0, 0)` for an empty one.
    pub levels: Vec<(usize, u64)>,
}

impl CarryCensus {
    /// Every accounted I/O (seek-dominated pricing: an rmw is one).
    pub fn ios(&self) -> u64 {
        self.reads + self.writes + self.rmws
    }
}

/// Replays the level migrations of `n` distinct insertions into a
/// Lemma 5 table with block size `b`, memory `m`, growth factor `γ` and
/// `sealed_fill` items per bucket of a sealed level (the table's
/// `CoreConfig::sealed_fill`; `b/2` replays load 1/2 everywhere).
///
/// `H0` holds `m/2` items in `m/b` buckets and `H_k` at most `γ^k·m/2`
/// in at most `γ^k·m/b`. A full `H0` carries every level that cannot
/// take what is coming — by capacity, or by its region's load ≤ 1/2 —
/// into the first that can, merging in place; into an empty level it
/// builds a fresh region: the full geometry while a later arrival (more
/// than `H_{k-1}`'s capacity, it carries an overflowing `H_{k-1}`) could
/// still fit beside the `x` items landing, `⌈x/sealed_fill⌉` buckets
/// once none can.
pub fn carry_census(b: usize, m: usize, gamma: u64, sealed_fill: usize, n: usize) -> CarryCensus {
    let (h0, nb0) = (m / 2, ((m / b) as u64).max(1));
    let cap = |k: usize| (gamma.pow(k as u32) as usize) * h0;
    let mut c = CarryCensus { reads: 0, writes: 0, rmws: 0, levels: vec![(0, nb0)] };
    for _ in 0..n / h0 {
        let mut landing = h0;
        let mut k = 1;
        while let Some(&(items, buckets)) = c.levels.get(k).filter(|l| l.1 > 0) {
            let merged = items + landing;
            if merged <= cap(k) && 2 * merged as u64 <= buckets * b as u64 {
                break;
            }
            c.reads += buckets;
            c.levels[k] = (0, 0);
            landing = merged;
            k += 1;
        }
        if k == c.levels.len() {
            c.levels.push((0, 0));
        }
        let (items, buckets) = &mut c.levels[k];
        if *buckets > 0 {
            c.rmws += *buckets;
        } else {
            let full = nb0 * gamma.pow(k as u32);
            let sealed = k >= 2 && landing + cap(k - 1) >= cap(k);
            *buckets = if sealed { landing.div_ceil(sealed_fill) as u64 } else { full }.min(full);
            c.writes += *buckets;
        }
        *items += landing;
    }
    c.levels[0].0 = n % h0;
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_deployed_geometry_by_hand() {
        // γ = 2, H0 = 2 048 items, 48 to a sealed bucket: H1 (128
        // buckets) takes two H0s in place; the third flush carries all
        // three into a sealed H2 of 6 144/48 = 128 buckets (½ of 256) —
        // 128 reads, 128 writes.
        let three = carry_census(64, 4096, 2, 48, 3 * 2048);
        assert_eq!((three.reads, three.writes, three.rmws), (128, 128 + 128, 128));
        assert_eq!(three.levels, vec![(0, 64), (0, 0), (6144, 128)]);
        // What the table tests pin: 48 flushes end in one sealed H6.
        let c = carry_census(64, 4096, 2, 48, 100_000);
        assert_eq!(c.ios(), 16_384);
        assert_eq!(c.levels[0], (100_000 - 48 * 2048, 64));
        assert_eq!(c.levels[6], (48 * 2048, 2048));
        assert!(c.levels[1..6].iter().all(|&l| l == (0, 0)));
        // At b/2 to a bucket the same walk is the load-1/2 one: H2 at ¾
        // of 256, 21 504 I/Os.
        let half = carry_census(64, 4096, 2, 32, 100_000);
        assert_eq!((half.ios(), half.levels[6]), (21_504, (48 * 2048, 3072)));
    }

    #[test]
    fn larger_growth_factors_keep_growable_levels_at_the_full_geometry() {
        // γ = 4: five H0s land in H2 (capacity 16) and two more carries
        // of five merge in place — sealed only from 12 H0s up.
        let c = carry_census(64, 4096, 4, 48, 15 * 2048);
        assert_eq!(c.levels[2], (15 * 2048, 1024));
        let c = carry_census(64, 4096, 4, 48, 20 * 2048);
        assert_eq!(c.levels[2], (0, 0));
        assert_eq!(c.levels[3], (20 * 2048, 4096), "20 + 16 < 64: growable");
    }
}
