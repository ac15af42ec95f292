//! Parameter selection for the paper's constructions.

use dxh_extmem::{ExtMemError, IoCostModel, Result};

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
    /// I/O pricing convention.
    pub cost: IoCostModel,
    /// Disable in-place merges: every level migration and `Ĥ` merge
    /// rebuilds its destination into a fresh region (read source + read
    /// old destination + write new — two transfers per destination block
    /// instead of one fused read-modify-write). Exists for the A4
    /// ablation; leave `false` for the paper's footnote-2 costs.
    pub rewrite_merges_only: bool,
}

impl CoreConfig {
    /// Lemma 5 parameters: plain logarithmic method with growth factor
    /// `gamma`.
    pub fn lemma5(b: usize, m: usize, gamma: u64) -> Result<Self> {
        let cfg = CoreConfig {
            b,
            m,
            gamma,
            beta: 2.0,
            cost: IoCostModel::SeekDominated,
            rewrite_merges_only: false,
        };
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
        let cfg = CoreConfig {
            b,
            m,
            gamma: 2,
            beta,
            cost: IoCostModel::SeekDominated,
            rewrite_merges_only: false,
        };
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
        let cfg = CoreConfig {
            b,
            m,
            gamma: 2,
            beta,
            cost: IoCostModel::SeekDominated,
            rewrite_merges_only: false,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Explicit parameters (validated).
    pub fn custom(b: usize, m: usize, gamma: u64, beta: f64) -> Result<Self> {
        let cfg = CoreConfig {
            b,
            m,
            gamma,
            beta,
            cost: IoCostModel::SeekDominated,
            rewrite_merges_only: false,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Builder: sets the cost model.
    pub fn cost_model(mut self, cost: IoCostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Builder: disables in-place merges (A4 ablation; see the field
    /// docs).
    pub fn rewrite_merges_only(mut self, yes: bool) -> Self {
        self.rewrite_merges_only = yes;
        self
    }

    /// H0 bucket count `m/b` (≥ 1).
    pub fn nb0(&self) -> u64 {
        ((self.m / self.b) as u64).max(1)
    }

    /// H0 capacity `m/2` items.
    pub fn h0_capacity(&self) -> usize {
        self.m / 2
    }

    /// Level `k` bucket count `γ^k · (m/b)`.
    pub fn level_buckets(&self, k: u32) -> u64 {
        self.nb0().saturating_mul(self.gamma.saturating_pow(k))
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
    fn validation_rejects_nonsense() {
        assert!(CoreConfig::lemma5(8, 8, 2).is_err(), "m too small");
        assert!(CoreConfig::lemma5(8, 111, 2).is_err(), "m below 8b + 48");
        assert!(CoreConfig::custom(8, 256, 1, 2.0).is_err(), "gamma < 2");
        assert!(CoreConfig::custom(8, 256, 2, 0.5).is_err(), "beta < 1");
        assert!(CoreConfig::lemma5(8, 112, 2).is_ok());
    }
}
