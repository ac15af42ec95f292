//! The logarithmic method's carry as an exact I/O census.
//!
//! [`crate::bounds`] gives Lemma 5 up to its hidden constant; this is the
//! constant. For `n` distinct insertions the level structure evolves
//! deterministically — which levels exist, how many items and buckets
//! each has — and with blocks large enough that no bucket stays empty
//! (`b = 64` at load ≥ 1/8), every flush costs exactly one read per
//! block of the levels it takes and one write per block of the level it
//! builds, at every `γ`. The census replays that arithmetic without a
//! table, over **primary** blocks: a level built at a sealed fill above
//! `b/2` also chains the rare bucket that draws more than `b` items
//! ([`crate::knuth::overflow_tail`] of them), and each chain block is one
//! more write when built and one more read when its level is taken.
//! `dxh_core`'s tests hold the measured `IoStats` of `LogMethodTable`
//! **equal** to the census plus the chain blocks they count.

/// What `n` distinct insertions cost and leave behind, see
/// [`carry_census`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CarryCensus {
    /// Block reads: the buckets of every level a flush took, once each.
    pub reads: u64,
    /// Block writes: the buckets of every level built.
    pub writes: u64,
    /// `(items, buckets)` per level, `H0` first; `(0, 0)` for an empty one.
    pub levels: Vec<(usize, u64)>,
}

impl CarryCensus {
    /// Every accounted I/O.
    pub fn ios(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Replays the level migrations of `n` distinct insertions into a
/// Lemma 5 table with block size `b`, memory `m`, growth factor `γ` and
/// `sealed_fill` items per bucket of a level (the table's
/// `CoreConfig::sealed_fill`; `b/2` replays load 1/2 everywhere).
///
/// `H0` holds `m/2` items in `m/b` buckets and `H_k` at most `γ^k·m/2`
/// in at most `γ^k·m/b`. A full `H0` reads `H1, H2, …` until everything
/// gathered fits the level reached — that level included, when there is
/// one — or the level is empty, and builds the `x` items gathered into a
/// fresh region of `⌈x/sealed_fill⌉` buckets there.
pub fn carry_census(b: usize, m: usize, gamma: u64, sealed_fill: usize, n: usize) -> CarryCensus {
    let (h0, nb0) = (m / 2, ((m / b) as u64).max(1));
    let cap = |k: usize| (gamma.pow(k as u32) as usize) * h0;
    let mut c = CarryCensus { reads: 0, writes: 0, levels: vec![(0, nb0)] };
    for _ in 0..n / h0 {
        let mut landing = h0;
        let mut k = 1;
        while let Some(&(items, buckets)) = c.levels.get(k).filter(|l| l.1 > 0) {
            c.reads += buckets;
            c.levels[k] = (0, 0);
            landing += items;
            if landing <= cap(k) {
                break;
            }
            k += 1;
        }
        if k == c.levels.len() {
            c.levels.push((0, 0));
        }
        let buckets = (landing.div_ceil(sealed_fill) as u64).min(nb0 * gamma.pow(k as u32));
        c.writes += buckets;
        c.levels[k] = (landing, buckets);
    }
    c.levels[0].0 = n % h0;
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_deployed_geometry_by_hand() {
        // γ = 2, H0 = 2 048 items, 48 to a bucket. The first H0 builds H1
        // in ⌈2 048/48⌉ = 43 buckets; the second reads them and builds
        // both H0s into 86; the third reads those and builds all three
        // into an H2 of 6 144/48 = 128 buckets (½ of 256).
        let three = carry_census(64, 4096, 2, 48, 3 * 2048);
        assert_eq!((three.reads, three.writes), (43 + 86, 43 + 86 + 128));
        assert_eq!(three.levels, vec![(0, 64), (0, 0), (6144, 128)]);
        // What the table tests pin: 48 flushes end in one H6. Sixteen
        // rounds of the above minus the H2 (2 064 reads, 2 064 writes),
        // H2…H6 built 8, 4, 2, 1, 1 times at 128, 256, 512, 1 024, 2 048
        // blocks (6 144 writes) and H2…H5 read once each time (4 096).
        let c = carry_census(64, 4096, 2, 48, 100_000);
        assert_eq!((c.reads, c.writes), (2_064 + 4_096, 2_064 + 6_144));
        assert_eq!(c.ios(), 14_368);
        assert_eq!(c.levels[0], (100_000 - 48 * 2048, 64));
        assert_eq!(c.levels[6], (48 * 2048, 2048));
        assert!(c.levels[1..6].iter().all(|&l| l == (0, 0)));
        // At b/2 to a bucket the same walk is the load-1/2 one: H2 at ¾
        // of 256.
        let half = carry_census(64, 4096, 2, 32, 100_000);
        assert_eq!((half.ios(), half.levels[6]), (21_504, (48 * 2048, 3072)));
    }

    #[test]
    fn larger_growth_factors_rebuild_the_level_they_stop_at() {
        // γ = 4: H1 is rebuilt around 1, 2, 3, 4 H0s; five H0s land in
        // H2 (capacity 16) and two more carries of five are read and
        // rebuilt with it, each time at 48 to a bucket.
        let h1_round = 43 + 86 + 128 + 171;
        let c = carry_census(64, 4096, 4, 48, 5 * 2048);
        assert_eq!((c.reads, c.writes), (h1_round, h1_round + 214));
        assert_eq!(c.levels[2], (5 * 2048, 214));
        let c = carry_census(64, 4096, 4, 48, 10 * 2048);
        assert_eq!((c.reads, c.writes), (2 * h1_round + 214, 2 * h1_round + 214 + 427));
        let c = carry_census(64, 4096, 4, 48, 15 * 2048);
        assert_eq!(c.levels[2], (15 * 2048, 640));
        let c = carry_census(64, 4096, 4, 48, 20 * 2048);
        assert_eq!(c.levels[2], (0, 0));
        assert_eq!(c.levels[3], (20 * 2048, 854), "20 > 16: carried with H2");
        let c = carry_census(64, 4096, 4, 48, 40 * 2048);
        assert_eq!(c.levels[3], (40 * 2048, 1707), "20 + 20 ≤ 64: rebuilt where it is");
    }
}
