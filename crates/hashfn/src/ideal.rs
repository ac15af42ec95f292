//! The "ideal hash function" stand-in: a keyed double-avalanche mixer.

use rand::RngCore;

use crate::family::{HashFamily, HashFn};
use crate::mix::{fmix64, splitmix64};

/// A function drawn from [`IdealFamily`]: two independent full-avalanche
/// rounds, keyed by 128 bits.
///
/// This is the experimental realization of the paper's random oracle
/// assumption — statistically indistinguishable from uniform for our
/// sample sizes (see the chi-square tests), deterministic, and O(1) with
/// no storage, unlike a lazily-materialized truth table.
#[derive(Clone, Copy, Debug)]
pub struct IdealFn {
    k1: u64,
    k2: u64,
}

impl IdealFn {
    /// Convenience: a function keyed by a single seed.
    pub fn from_seed(seed: u64) -> Self {
        IdealFn { k1: splitmix64(seed), k2: splitmix64(seed ^ 0xA5A5_A5A5_A5A5_A5A5) }
    }
}

impl HashFn for IdealFn {
    #[inline]
    fn hash64(&self, x: u64) -> u64 {
        fmix64(splitmix64(x ^ self.k1).wrapping_add(self.k2))
    }
}

/// The family of [`IdealFn`]s (uniform over the 128-bit key space).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdealFamily;

impl HashFamily for IdealFamily {
    type Fn = IdealFn;

    fn sample(&self, rng: &mut dyn RngCore) -> IdealFn {
        IdealFn { k1: rng.next_u64(), k2: rng.next_u64() }
    }

    fn name(&self) -> &'static str {
        "ideal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::prefix_bucket;
    use rand::SeedableRng;

    #[test]
    fn deterministic_per_key() {
        let f = IdealFn::from_seed(11);
        assert_eq!(f.hash64(5), f.hash64(5));
        let g = IdealFn::from_seed(12);
        assert_ne!(f.hash64(5), g.hash64(5));
    }

    #[test]
    fn sampled_functions_differ() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let f = IdealFamily.sample(&mut rng);
        let g = IdealFamily.sample(&mut rng);
        assert_ne!(f.hash64(0), g.hash64(0));
    }

    #[test]
    fn chi_square_uniformity_over_buckets() {
        // 64 buckets, 64k sequential keys: chi-square should be near its
        // mean (df = 63) for a uniform hash. We accept < 2×df — a very
        // loose gate that still catches structured output on sequential
        // inputs, the classic failure mode of weak hashes.
        let f = IdealFn::from_seed(99);
        let nb = 64u64;
        let n = 65_536u64;
        let mut counts = vec![0f64; nb as usize];
        for x in 0..n {
            counts[prefix_bucket(f.hash64(x), nb) as usize] += 1.0;
        }
        let expect = n as f64 / nb as f64;
        let chi2: f64 = counts.iter().map(|c| (c - expect) * (c - expect) / expect).sum();
        assert!(chi2 < 2.0 * 63.0, "chi-square {chi2} too large for uniform");
    }

    #[test]
    fn low_bits_are_uniform_too() {
        // mask reduction on sequential keys — weak families fail this.
        let f = IdealFn::from_seed(7);
        let nb = 32u64;
        let n = 32_000u64;
        let mut counts = vec![0f64; nb as usize];
        for x in 0..n {
            counts[(f.hash64(x) & (nb - 1)) as usize] += 1.0;
        }
        let expect = n as f64 / nb as f64;
        let chi2: f64 = counts.iter().map(|c| (c - expect) * (c - expect) / expect).sum();
        assert!(chi2 < 2.0 * 31.0, "low-bit chi-square {chi2}");
    }

    #[test]
    fn birthday_collision_count_is_plausible() {
        // Hash 2^16 keys into 2^32 buckets: expected collisions ≈ C(n,2)/2^32 ≈ 0.5.
        // Seeing ≥ 20 would indicate a badly non-uniform function.
        let f = IdealFn::from_seed(5);
        let mut seen = std::collections::HashSet::new();
        let mut collisions = 0;
        for x in 0..65_536u64 {
            if !seen.insert(f.hash64(x) >> 32) {
                collisions += 1;
            }
        }
        assert!(collisions < 20, "too many collisions: {collisions}");
    }
}
