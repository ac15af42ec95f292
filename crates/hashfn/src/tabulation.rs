//! Simple tabulation hashing (Zobrist / Pătraşcu–Thorup).

use std::sync::Arc;

use rand::RngCore;

use crate::family::{HashFamily, HashFn};

/// Simple tabulation: split the key into 8 bytes, XOR together one random
/// table entry per byte. 3-independent, and by Pătraşcu–Thorup it behaves
/// like full randomness for many hashing applications (chaining, linear
/// probing) despite its low formal independence.
///
/// The 8×256 table of `u64` (16 KiB) is shared behind an [`Arc`] so the
/// function stays cheap to clone.
#[derive(Clone, Debug)]
pub struct TabulationFn {
    tables: Arc<[[u64; 256]; 8]>,
}

impl TabulationFn {
    /// Fills the tables from an RNG.
    fn sample_from(rng: &mut dyn RngCore) -> Self {
        let mut tables = [[0u64; 256]; 8];
        for t in tables.iter_mut() {
            for e in t.iter_mut() {
                *e = rng.next_u64();
            }
        }
        TabulationFn { tables: Arc::new(tables) }
    }
}

impl HashFn for TabulationFn {
    #[inline]
    fn hash64(&self, x: u64) -> u64 {
        let bytes = x.to_le_bytes();
        let t = &*self.tables;
        t[0][bytes[0] as usize]
            ^ t[1][bytes[1] as usize]
            ^ t[2][bytes[2] as usize]
            ^ t[3][bytes[3] as usize]
            ^ t[4][bytes[4] as usize]
            ^ t[5][bytes[5] as usize]
            ^ t[6][bytes[6] as usize]
            ^ t[7][bytes[7] as usize]
    }
}

/// The family of [`TabulationFn`]s.
#[derive(Clone, Copy, Debug, Default)]
pub struct TabulationFamily;

impl HashFamily for TabulationFamily {
    type Fn = TabulationFn;

    fn sample(&self, rng: &mut dyn RngCore) -> TabulationFn {
        TabulationFn::sample_from(rng)
    }

    fn name(&self) -> &'static str {
        "tabulation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::prefix_bucket;
    use rand::SeedableRng;

    fn sample(seed: u64) -> TabulationFn {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        TabulationFamily.sample(&mut rng)
    }

    #[test]
    fn xor_structure_holds() {
        // Keys differing in one byte differ by an XOR of two table entries;
        // hashes of x and x' with equal bytes elsewhere satisfy
        // h(x) ^ h(x') = T[i][b] ^ T[i][b'].
        let f = sample(1);
        let a = f.hash64(0x11);
        let b = f.hash64(0x22);
        let direct = f.tables[0][0x11] ^ f.tables[0][0x22];
        assert_eq!(a ^ b, direct);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let f = sample(2);
        let g = sample(2);
        let h = sample(3);
        assert_eq!(f.hash64(123), g.hash64(123));
        assert_ne!(f.hash64(123), h.hash64(123));
    }

    #[test]
    fn bucket_uniformity_on_sequential_keys() {
        let f = sample(4);
        let nb = 32u64;
        let n = 64_000u64;
        let mut counts = vec![0f64; nb as usize];
        for x in 0..n {
            counts[prefix_bucket(f.hash64(x), nb) as usize] += 1.0;
        }
        let expect = n as f64 / nb as f64;
        let chi2: f64 = counts.iter().map(|c| (c - expect) * (c - expect) / expect).sum();
        assert!(chi2 < 2.0 * 31.0, "chi-square {chi2}");
    }

    #[test]
    fn clone_shares_tables() {
        let f = sample(5);
        let g = f.clone();
        assert!(Arc::ptr_eq(&f.tables, &g.tables));
    }
}
