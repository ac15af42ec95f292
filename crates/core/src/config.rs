//! Parameter selection for the paper's constructions.

use dxh_extmem::{ExtMemError, Result};

/// Configuration shared by [`crate::LogMethodTable`] and
/// [`crate::BootstrappedTable`].
///
/// The named constructors encode the paper's parameter choices:
///
/// | constructor | paper | parameters | promised tradeoff |
/// |---|---|---|---|
/// | [`CoreConfig::lemma5`] | Lemma 5 | `γ` free | `tu = O((γ/b) log(n/m))`, `tq = O(log_γ(n/m))` |
/// | [`CoreConfig::theorem2`] | Theorem 2 | `β = b^c`, `γ = 2` | `tu = O(b^(c−1))`, `tq = 1 + O(1/b^c)` |
/// | [`CoreConfig::boundary`] | Theorem 2 (ε form) | `β = Θ(εb)`, `γ = 2` | `tu = ε`, `tq = 1 + O(1/b)` |
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Block capacity in items.
    pub b: usize,
    /// Internal memory budget in items.
    pub m: usize,
    /// Level growth factor of the logarithmic method (`γ ≥ 2`).
    pub gamma: u64,
    /// Merge-frequency parameter of the bootstrapped table
    /// (`2 ≤ β ≤ b`); ignored by the plain logarithmic method.
    pub beta: f64,
}

impl CoreConfig {
    /// Lemma 5 parameters: plain logarithmic method with growth factor
    /// `gamma`.
    pub fn lemma5(b: usize, m: usize, gamma: u64) -> Result<Self> {
        let cfg = CoreConfig { b, m, gamma, beta: 2.0 };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Theorem 2 parameters for a constant `0 < c < 1`: `β = b^c`,
    /// `γ = 2`. Promises `tu = O(b^(c−1))` amortized insertions and
    /// `tq = 1 + O(1/b^c)` expected successful lookups.
    pub fn theorem2(b: usize, m: usize, c: f64) -> Result<Self> {
        if !(0.0 < c && c < 1.0) {
            return Err(ExtMemError::BadConfig(format!("theorem2 requires 0 < c < 1, got {c}")));
        }
        let beta = (b as f64).powf(c).clamp(2.0, b as f64);
        let cfg = CoreConfig { b, m, gamma: 2, beta };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Theorem 2's ε-form: `β = max(2, εb/4)`, `γ = 2`, promising
    /// `tu = ε` amortized and `tq = 1 + O(1/b)` (the `1 + Θ(1/b)`
    /// boundary point of Figure 1).
    pub fn boundary(b: usize, m: usize, eps: f64) -> Result<Self> {
        if eps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ExtMemError::BadConfig("eps must be positive".into()));
        }
        let beta = (eps * b as f64 / 4.0).clamp(2.0, b as f64);
        let cfg = CoreConfig { b, m, gamma: 2, beta };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Explicit parameters (validated).
    pub fn custom(b: usize, m: usize, gamma: u64, beta: f64) -> Result<Self> {
        let cfg = CoreConfig { b, m, gamma, beta };
        cfg.validate()?;
        Ok(cfg)
    }

    /// H0 bucket count `m/b` (≥ 1).
    pub fn nb0(&self) -> u64 {
        ((self.m / self.b) as u64).max(1)
    }

    /// H0 capacity `m/2` items.
    pub fn h0_capacity(&self) -> usize {
        self.m / 2
    }

    /// Level `k`'s **full geometry** `γ^k · (m/b)` buckets — Lemma 5's
    /// table at load 1/2 of its capacity, and the most a level may
    /// occupy. A level is built smaller and denser, see
    /// [`CoreConfig::fresh_level_buckets`].
    pub fn level_buckets(&self, k: u32) -> u64 {
        self.nb0().saturating_mul(self.gamma.saturating_pow(k))
    }

    /// The **sealed fill** `λ(b) = max(⌈b/2⌉, b − ⌈2√b⌉)`: how many
    /// items per bucket a level — written once and only read afterwards
    /// — is built at. A bucket of such a level holds `≈ Poisson(λ)`
    /// items, so `b − λ = 2√b ≥ 2√λ` puts the block size two standard
    /// deviations above the mean and a bucket overflows into a chain
    /// block with probability ≈ 1–2 % at every `b` — Knuth's static table
    /// at a constant load below 1
    /// (`dxh_analysis::knuth::overflow_tail(64, 0.75)` = 1.1 %). 48 at
    /// `b = 64` (load ¾), 224 at `b = 256` (load ⅞), and `⌈b/2⌉` for
    /// every `b ≤ 16`, where two deviations leave no room above load 1/2.
    /// A pure function of `b`.
    pub fn sealed_fill(&self) -> usize {
        let four_b = self.b.saturating_mul(4);
        let root = four_b.isqrt();
        let two_sqrt_b = root + usize::from(root * root < four_b);
        self.b.div_ceil(2).max(self.b.saturating_sub(two_sqrt_b))
    }

    /// Bucket count for a freshly built level `k` in which `landing`
    /// physical items (shadowed copies and deletion markers included)
    /// are about to land: `⌈landing/λ(b)⌉`, [`CoreConfig::sealed_fill`]
    /// items each, within `1..=level_buckets(k)`. Every disk level is a
    /// static table — written once, read until a later flush rebuilds
    /// it with what arrives or carries it deeper, never written into —
    /// so none keeps slack for inserts; the rare bucket past `b` chains
    /// one block. Lemma 5 prices a migration by the blocks it touches,
    /// which the full geometry bounds.
    pub fn fresh_level_buckets(&self, k: u32, landing: usize) -> u64 {
        (landing.div_ceil(self.sealed_fill()) as u64).clamp(1, self.level_buckets(k))
    }

    /// Level `k` item capacity `γ^k · m/2` (load factor ≤ 1/2).
    pub fn level_capacity(&self, k: u32) -> usize {
        (self.gamma.saturating_pow(k) as usize).saturating_mul(self.m / 2)
    }

    /// Structural validation.
    pub fn validate(&self) -> Result<()> {
        if self.b == 0 || self.m == 0 {
            return Err(ExtMemError::BadConfig("b and m must be positive".into()));
        }
        if self.gamma < 2 {
            return Err(ExtMemError::BadConfig("gamma must be ≥ 2".into()));
        }
        if self.beta.partial_cmp(&1.0).is_none_or(|o| o == std::cmp::Ordering::Less) {
            return Err(ExtMemError::BadConfig("beta must be ≥ 1".into()));
        }
        // H0 (m/2 items) + the merge working set (two stream buffers of
        // ≈ 2b items each plus scratch and metadata) must fit in m:
        // m/2 + 4b + 24 ≤ m  ⇔  m ≥ 8b + 48.
        // (Saturating: `b` may come straight out of a manifest.)
        let need = self.b.saturating_mul(8).saturating_add(48);
        if self.m < need {
            return Err(ExtMemError::BadConfig(format!(
                "buffered tables need m ≥ 8b + 48 (= {need}), got m = {}",
                self.m
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem2_parameters() {
        let cfg = CoreConfig::theorem2(64, 4096, 0.5).unwrap();
        assert_eq!(cfg.gamma, 2);
        assert!((cfg.beta - 8.0).abs() < 1e-9, "64^0.5 = 8, got {}", cfg.beta);
        assert!(CoreConfig::theorem2(64, 4096, 0.0).is_err());
        assert!(CoreConfig::theorem2(64, 4096, 1.0).is_err());
    }

    #[test]
    fn boundary_parameters_scale_with_eps() {
        let a = CoreConfig::boundary(256, 8192, 0.1).unwrap();
        let b = CoreConfig::boundary(256, 8192, 0.5).unwrap();
        assert!(a.beta < b.beta);
        assert!(CoreConfig::boundary(256, 8192, 0.0).is_err());
    }

    #[test]
    fn beta_is_clamped_to_b() {
        let cfg = CoreConfig::boundary(16, 1024, 100.0).unwrap();
        assert!(cfg.beta <= 16.0);
    }

    #[test]
    fn level_geometry() {
        let cfg = CoreConfig::lemma5(8, 128, 2).unwrap();
        assert_eq!(cfg.nb0(), 16);
        assert_eq!(cfg.h0_capacity(), 64);
        assert_eq!(cfg.level_buckets(0), 16);
        assert_eq!(cfg.level_buckets(3), 128);
        assert_eq!(cfg.level_capacity(1), 128);
    }

    #[test]
    fn the_sealed_fill_sits_two_deviations_under_the_block_size() {
        let fill = |b: usize| CoreConfig::lemma5(b, 8 * b + 48, 2).unwrap().sealed_fill();
        assert_eq!((fill(64), fill(256), fill(1024)), (48, 224, 960));
        assert_eq!((fill(32), fill(20), fill(17)), (20, 11, 9), "⌈2√b⌉ rounds up");
        for b in 1..=16 {
            assert_eq!(fill(b), b.div_ceil(2), "b = {b}: no room above load 1/2");
        }
        for b in 1..=4096usize {
            let (f, gap) = (fill(b), (2.0 * (b as f64).sqrt()).ceil() as usize);
            assert_eq!(f, b.div_ceil(2).max(b.saturating_sub(gap)), "b = {b}");
            assert!(b.div_ceil(2) <= f && f <= b, "b = {b}");
        }
    }

    #[test]
    fn a_fresh_level_is_sized_by_what_lands_in_it() {
        // 48 items to a 64-item block at every level, H1 included.
        let cfg = CoreConfig::lemma5(64, 4096, 2).unwrap();
        assert_eq!(cfg.fresh_level_buckets(1, 2048), 43, "one H0: a third of 128");
        assert_eq!(cfg.fresh_level_buckets(1, 2 * 2048), 86, "a full H1: ⅔ of the geometry");
        assert_eq!(cfg.fresh_level_buckets(2, 3 * 2048), 128, "½ of 256");
        assert_eq!(cfg.fresh_level_buckets(3, 6 * 2048), 256, "½ of 512");
        assert_eq!(cfg.fresh_level_buckets(3, 6 * 2048 + 1), 257, "rounds up");
        assert_eq!(cfg.fresh_level_buckets(3, 8 * 2048), 342, "a full level: ⅔ of the geometry");
        // The growth factor only moves the clamp.
        let cfg = CoreConfig::lemma5(64, 4096, 4).unwrap();
        assert_eq!(cfg.fresh_level_buckets(2, 5 * 2048), 214);
        assert_eq!(cfg.fresh_level_buckets(2, 12 * 2048), 512);
        // b ≤ 16: the fill is b/2, the sizing what load 1/2 gives.
        let cfg = CoreConfig::lemma5(8, 128, 2).unwrap();
        assert_eq!(cfg.fresh_level_buckets(2, 150), 38);
        assert_eq!(cfg.fresh_level_buckets(2, cfg.level_capacity(2)), cfg.level_buckets(2));
        // b ∤ m: never more than the full geometry, never zero.
        let cfg = CoreConfig::lemma5(7, 120, 2).unwrap();
        assert_eq!(cfg.fresh_level_buckets(2, 2 * cfg.level_capacity(2)), cfg.level_buckets(2));
        assert_eq!(cfg.fresh_level_buckets(2, 0), 1);
        assert!(cfg.fresh_level_buckets(70, usize::MAX) >= 1, "saturates, never overflows");
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(CoreConfig::lemma5(8, 8, 2).is_err(), "m too small");
        assert!(CoreConfig::lemma5(8, 111, 2).is_err(), "m below 8b + 48");
        assert!(CoreConfig::custom(8, 256, 1, 2.0).is_err(), "gamma < 2");
        assert!(CoreConfig::custom(8, 256, 2, 0.5).is_err(), "beta < 1");
        assert!(CoreConfig::lemma5(8, 112, 2).is_ok());
    }
}
