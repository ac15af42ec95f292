//! Dietzfelbinger's multiply-shift hashing.

use rand::RngCore;

use crate::family::{HashFamily, HashFn};

/// `h(x) = a·x + b (mod 2^64)`, with `a` odd: the multiply-(add-)shift
/// scheme. The **high** bits of the output are 2-universal for
/// power-of-two ranges; the low bits are known to be weak.
///
/// Paired with [`crate::prefix_bucket`] (which consumes high bits) this is
/// a strong practical family; paired with [`crate::mask_bucket`] (low
/// bits, as classic linear hashing does) it degrades — which is exactly
/// what the A2 hash-sensitivity ablation demonstrates.
#[derive(Clone, Copy, Debug)]
pub struct MultiplyShiftFn {
    a: u64,
    b: u64,
}

impl MultiplyShiftFn {
    /// Builds from explicit parameters; `a` is forced odd.
    fn from_params(a: u64, b: u64) -> Self {
        MultiplyShiftFn { a: a | 1, b }
    }
}

impl HashFn for MultiplyShiftFn {
    #[inline]
    fn hash64(&self, x: u64) -> u64 {
        self.a.wrapping_mul(x).wrapping_add(self.b)
    }
}

/// The family of [`MultiplyShiftFn`]s (uniform odd `a`, uniform `b`).
#[derive(Clone, Copy, Debug, Default)]
pub struct MultiplyShiftFamily;

impl HashFamily for MultiplyShiftFamily {
    type Fn = MultiplyShiftFn;

    fn sample(&self, rng: &mut dyn RngCore) -> MultiplyShiftFn {
        MultiplyShiftFn::from_params(rng.next_u64(), rng.next_u64())
    }

    fn name(&self) -> &'static str {
        "multiply-shift"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::{mask_bucket, prefix_bucket};
    use rand::SeedableRng;

    #[test]
    fn a_is_forced_odd() {
        let f = MultiplyShiftFn::from_params(4, 0);
        // even a would not be a bijection mod 2^64
        let mut seen = std::collections::HashSet::new();
        for x in 0..1000u64 {
            assert!(seen.insert(f.hash64(x)));
        }
    }

    #[test]
    fn high_bits_spread_sequential_keys() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let f = MultiplyShiftFamily.sample(&mut rng);
        let nb = 32u64;
        let n = 32_000u64;
        let mut counts = vec![0f64; nb as usize];
        for x in 0..n {
            counts[prefix_bucket(f.hash64(x), nb) as usize] += 1.0;
        }
        let expect = n as f64 / nb as f64;
        let chi2: f64 = counts.iter().map(|c| (c - expect) * (c - expect) / expect).sum();
        // a·x on sequential x equidistributes over high bits.
        assert!(chi2 < 10.0 * 31.0, "high-bit chi-square {chi2}");
    }

    #[test]
    fn low_bits_are_visibly_weak_on_strided_keys() {
        // This documents the known failure mode: keys in an arithmetic
        // progression of even stride land in a strict subset of low-bit
        // buckets. (The test asserts the *weakness*, since the ablation
        // relies on it being observable.)
        let f = MultiplyShiftFn::from_params(0x9E37_79B9_7F4A_7C15, 0);
        let nb = 64u64;
        let mut hit = vec![false; nb as usize];
        for i in 0..10_000u64 {
            let x = i * 64; // stride 64
            hit[mask_bucket(f.hash64(x), nb) as usize] = true;
        }
        let used = hit.iter().filter(|&&h| h).count();
        assert!(used <= 2, "stride-64 keys hit only {used} low-bit buckets");
    }

    #[test]
    fn distinct_parameters_give_distinct_functions() {
        let f = MultiplyShiftFn::from_params(3, 0);
        let g = MultiplyShiftFn::from_params(5, 0);
        assert_ne!(f.hash64(1), g.hash64(1));
    }
}
