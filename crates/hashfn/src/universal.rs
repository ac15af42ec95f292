//! Carter–Wegman universal hashing modulo the Mersenne prime `2^61 − 1`.

use rand::RngCore;

use crate::family::{HashFamily, HashFn};

/// The Mersenne prime `2^61 − 1` used for fast modular reduction.
const MERSENNE61: u64 = (1 << 61) - 1;

/// Reduces a value `< 2^122` modulo `2^61 − 1` without division.
#[inline]
fn mod_mersenne61(t: u128) -> u64 {
    // Two folding rounds bring any t < 2^122 below 2^62, then one
    // conditional subtraction finishes.
    let p = MERSENNE61 as u128;
    let r = (t & p) + (t >> 61);
    let r = (r & p) + (r >> 61);
    let r = r as u64;
    if r >= MERSENNE61 {
        r - MERSENNE61
    } else {
        r
    }
}

/// `h(x) = ((a·x + b) mod p) · 2^3` scaled back to the full 64-bit range,
/// with `p = 2^61 − 1`, `a ∈ [1, p)`, `b ∈ [0, p)`.
///
/// This is the textbook 2-universal family: for `x ≠ y`,
/// `Pr[h(x) = h(y)] ≤ 1/p`. The output is left-shifted by 3 bits so that
/// [`crate::prefix_bucket`]'s high-bit reduction sees the full entropy of
/// the 61-bit residue (the low 3 bits are zero — documented weakness for
/// mask reduction, which the A2 ablation exercises).
#[derive(Clone, Copy, Debug)]
pub struct UniversalFn {
    a: u64,
    b: u64,
}

impl UniversalFn {
    /// Builds from explicit coefficients (reduced mod `p`; `a` forced
    /// nonzero).
    pub fn from_coeffs(a: u64, b: u64) -> Self {
        let a = a % MERSENNE61;
        let a = if a == 0 { 1 } else { a };
        UniversalFn { a, b: b % MERSENNE61 }
    }
}

impl HashFn for UniversalFn {
    #[inline]
    fn hash64(&self, x: u64) -> u64 {
        // Split x into two 61-bit-safe halves: x = hi·2^32 + lo, then
        // a·x + b ≡ a·hi·2^32 + a·lo + b (mod p), each product < 2^93 < 2^128.
        let lo = x & 0xFFFF_FFFF;
        let hi = x >> 32;
        let t = mod_mersenne61(self.a as u128 * hi as u128);
        let t = mod_mersenne61((t as u128) << 32);
        let u = mod_mersenne61(self.a as u128 * lo as u128);
        let r = mod_mersenne61(t as u128 + u as u128 + self.b as u128);
        r << 3
    }
}

/// The family of [`UniversalFn`]s.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniversalFamily;

impl HashFamily for UniversalFamily {
    type Fn = UniversalFn;

    fn sample(&self, rng: &mut dyn RngCore) -> UniversalFn {
        UniversalFn::from_coeffs(rng.next_u64(), rng.next_u64())
    }

    fn name(&self) -> &'static str {
        "universal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::prefix_bucket;
    use rand::SeedableRng;

    #[test]
    fn mersenne_reduction_matches_plain_modulo() {
        let cases: [u128; 6] = [
            0,
            1,
            MERSENNE61 as u128,
            MERSENNE61 as u128 + 1,
            u64::MAX as u128,
            u128::MAX >> 6, // < 2^122
        ];
        for t in cases {
            assert_eq!(mod_mersenne61(t) as u128, t % MERSENNE61 as u128, "t = {t}");
        }
    }

    #[test]
    fn zero_a_is_rejected() {
        let f = UniversalFn::from_coeffs(0, 5);
        // a=0 would make the function constant.
        assert_ne!(f.hash64(1), f.hash64(2));
    }

    #[test]
    fn linearity_structure_mod_p() {
        // h is affine in x over Z_p: h(x) ≠ h(y) for small distinct x, y
        // with overwhelming probability over coefficients.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let f = UniversalFamily.sample(&mut rng);
        let mut seen = std::collections::HashSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(f.hash64(x)), "collision among 10k keys at x={x}");
        }
    }

    #[test]
    fn pairwise_collision_probability_matches_universality() {
        // Sample many coefficient pairs; for a fixed key pair the collision
        // rate over the family must be ≤ ~1/p (we just check it is tiny).
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut collisions = 0;
        for _ in 0..20_000 {
            let f = UniversalFamily.sample(&mut rng);
            if f.hash64(123) == f.hash64(456) {
                collisions += 1;
            }
        }
        assert_eq!(collisions, 0);
    }

    #[test]
    fn buckets_are_roughly_uniform_on_sequential_keys() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let f = UniversalFamily.sample(&mut rng);
        let nb = 32u64;
        let n = 64_000u64;
        let mut counts = vec![0f64; nb as usize];
        for x in 0..n {
            counts[prefix_bucket(f.hash64(x), nb) as usize] += 1.0;
        }
        let expect = n as f64 / nb as f64;
        let chi2: f64 = counts.iter().map(|c| (c - expect) * (c - expect) / expect).sum();
        // Affine-mod-p on sequential keys is structured but equidistributed;
        // allow a wide margin.
        assert!(chi2 < 10.0 * 31.0, "chi-square {chi2}");
    }

    #[test]
    fn output_range_uses_high_bits() {
        let f = UniversalFn::from_coeffs(12345, 999);
        // Left shift by 3: low 3 bits are zero (documented), value < 2^64.
        assert_eq!(f.hash64(42) & 0b111, 0);
    }
}
