//! # dxh-hashfn — hash function families
//!
//! The paper analyzes hash tables under the *ideal hash function*
//! assumption: `h` maps each item independently and uniformly at random
//! into `{0, …, u−1}` (justified by Mitzenmacher–Vadhan for realistic data
//! streams). This crate provides:
//!
//! * [`IdealFamily`] — a keyed pseudorandom mixer that plays the role of
//!   the random oracle in experiments;
//! * classical families with weaker, *provable* guarantees for the hash
//!   sensitivity ablation: [`UniversalFamily`] (Carter–Wegman),
//!   [`MultiplyShiftFamily`] (Dietzfelbinger) and [`TabulationFamily`]
//!   (simple tabulation).
//!
//! ## Bucket reduction
//!
//! All families emit full 64-bit hash values; structures reduce them to
//! bucket indices with [`prefix_bucket`] — fixed-point multiply-high
//! reduction. Its crucial property (proved in `reduction::tests` and by a
//! property test) is **hierarchy**: growing a table from `nb` to `γ·nb`
//! buckets maps every old bucket `q` onto exactly the `γ` consecutive new
//! buckets `γq … γq+γ−1`. That is precisely the "each bucket in `H_k`
//! corresponds to `γ` consecutive buckets in `H_{k+1}`" structure the
//! paper's logarithmic method relies on for its linear-scan merges, and it
//! works for *any* bucket count, not just powers of two.
//!
//! [`mask_bucket`] (least-significant bits) is provided for classic linear
//! hashing, which grows one bucket at a time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod family;
mod ideal;
mod mix;
mod multiply_shift;
mod reduction;
mod tabulation;
mod universal;

pub use family::{HashFamily, HashFn};
pub use ideal::{IdealFamily, IdealFn};
pub use mix::{fmix64, splitmix64, SplitMix64};
pub use multiply_shift::{MultiplyShiftFamily, MultiplyShiftFn};
pub use reduction::{mask_bucket, prefix_bucket};
pub use tabulation::{TabulationFamily, TabulationFn};
pub use universal::{UniversalFamily, UniversalFn};
