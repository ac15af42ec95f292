//! Property-based tests for hash families and reductions.

use dxh_hashfn::{
    mask_bucket, prefix_bucket, HashFamily, HashFn, IdealFamily, MultiplyShiftFamily,
    TabulationFamily, UniversalFamily,
};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    /// prefix_bucket is always in range and hierarchical for any γ.
    #[test]
    fn prefix_bucket_range_and_hierarchy(h in any::<u64>(), nb in 1u64..1_000_000, gamma in 1u64..64) {
        let q = prefix_bucket(h, nb);
        prop_assert!(q < nb);
        let c = prefix_bucket(h, nb * gamma);
        prop_assert!(c >= gamma * q && c < gamma * q + gamma);
    }

    /// mask_bucket matches modulo for powers of two.
    #[test]
    fn mask_bucket_is_modulo(h in any::<u64>(), log_nb in 0u32..20) {
        let nb = 1u64 << log_nb;
        prop_assert_eq!(mask_bucket(h, nb), h % nb);
    }

    /// Every family is deterministic: the same sampled function agrees
    /// with its clone on arbitrary inputs.
    #[test]
    fn families_deterministic(seed in any::<u64>(), xs in proptest::collection::vec(any::<u64>(), 1..50)) {
        macro_rules! check {
            ($family:expr) => {{
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let f = $family.sample(&mut rng);
                let g = f.clone();
                for &x in &xs {
                    prop_assert_eq!(f.hash64(x), g.hash64(x));
                }
            }};
        }
        check!(IdealFamily);
        check!(UniversalFamily);
        check!(MultiplyShiftFamily);
        check!(TabulationFamily);
    }

    /// Two distinct keys rarely collide under a random ideal function
    /// (they never should in a small proptest run).
    #[test]
    fn ideal_no_trivial_collisions(seed in any::<u64>(), x in any::<u64>(), y in any::<u64>()) {
        prop_assume!(x != y);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let f = IdealFamily.sample(&mut rng);
        prop_assert_ne!(f.hash64(x), f.hash64(y));
    }

    /// Bucket counts of 1 send everything to bucket 0.
    #[test]
    fn single_bucket(h in any::<u64>()) {
        prop_assert_eq!(prefix_bucket(h, 1), 0);
        prop_assert_eq!(mask_bucket(h, 1), 0);
    }
}
