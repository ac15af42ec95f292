//! The parameter choices of Theorem 1's proof, verbatim from §2.

/// Which of the three tradeoffs of Theorem 1 is being exercised.
#[derive(Clone, Copy, Debug)]
pub enum Regime {
    /// Tradeoff 1: `tq ≤ 1 + O(1/b^c)`, `c > 1` ⟹ `tu ≥ 1 − O(b^{-(c-1)/4})`.
    Case1 {
        /// Query exponent, `> 1`.
        c: f64,
    },
    /// Tradeoff 2: `tq ≤ 1 + O(1/b)` ⟹ `tu ≥ Ω(1)`; `κ` is the proof's
    /// "large enough" constant.
    Case2 {
        /// The constant κ.
        kappa: f64,
    },
    /// Tradeoff 3: `tq ≤ 1 + O(1/b^c)`, `0 < c < 1` ⟹ `tu ≥ Ω(b^{c−1})`.
    Case3 {
        /// Query exponent, in `(0, 1)`.
        c: f64,
    },
}

/// The tuple `(δ, φ, ρ, s)` used by the proof:
/// `δ` is the query slack (`tq ≤ 1 + δ`), `φ` the failure-probability
/// knob, `ρ` the bad-index threshold on characteristic mass, and `s` the
/// round length in insertions.
#[derive(Clone, Copy, Debug)]
pub struct RegimeParams {
    /// Query slack δ.
    pub delta: f64,
    /// Probability/accuracy knob φ.
    pub phi: f64,
    /// Bad-index mass threshold ρ.
    pub rho: f64,
    /// Round length s (insertions per round).
    pub s: usize,
}

impl Regime {
    /// The proof's parameters for block size `b` and total insertions `n`.
    ///
    /// * Case 1 (`c > 1`): `δ = 1/b^c`, `φ = 1/b^((c−1)/4)`,
    ///   `ρ = 2·b^((c+3)/4)/n`, `s = n/b^((c+1)/2)`.
    /// * Case 2: `φ = 1/κ`, `ρ = 2κb/n`, `s = n/(κ²b)`, `δ = 1/(κ⁴b)`.
    /// * Case 3 (`c < 1`): `φ = 1/8`, `ρ = 16b/n`, `s = 32n/b^c`,
    ///   `δ = 1/b^c`.
    pub fn params(&self, b: usize, n: usize) -> RegimeParams {
        let bf = b as f64;
        let nf = n as f64;
        match *self {
            Regime::Case1 { c } => {
                assert!(c > 1.0, "Case1 requires c > 1");
                RegimeParams {
                    delta: bf.powf(-c),
                    phi: bf.powf(-(c - 1.0) / 4.0),
                    rho: 2.0 * bf.powf((c + 3.0) / 4.0) / nf,
                    s: ((nf / bf.powf((c + 1.0) / 2.0)) as usize).max(1),
                }
            }
            Regime::Case2 { kappa } => {
                assert!(kappa >= 1.0, "Case2 requires κ ≥ 1");
                RegimeParams {
                    delta: 1.0 / (kappa.powi(4) * bf),
                    phi: 1.0 / kappa,
                    rho: 2.0 * kappa * bf / nf,
                    s: ((nf / (kappa * kappa * bf)) as usize).max(1),
                }
            }
            Regime::Case3 { c } => {
                assert!(0.0 < c && c < 1.0, "Case3 requires 0 < c < 1");
                RegimeParams {
                    delta: bf.powf(-c),
                    phi: 1.0 / 8.0,
                    rho: 16.0 * bf / nf,
                    // The paper's round length 32n/b^c exceeds n when
                    // b^c < 32 (its asymptotics assume large b); clamp so
                    // a round never exceeds the run.
                    s: ((32.0 * nf / bf.powf(c)) as usize).clamp(1, n),
                }
            }
        }
    }

    /// The insertion lower bound this regime proves (constants fixed
    /// at 1; see `dxh_analysis::theorem1_tu_lower`).
    pub fn tu_lower_bound(&self, b: usize) -> f64 {
        match *self {
            Regime::Case1 { c } => dxh_analysis::theorem1_tu_lower(b, c),
            Regime::Case2 { .. } => dxh_analysis::theorem1_tu_lower(b, 1.0),
            Regime::Case3 { c } => dxh_analysis::theorem1_tu_lower(b, c),
        }
    }

    /// The paper's requirement `n > Ω(m · b^(1+2c))` for the regime's
    /// effective exponent.
    #[cfg(test)]
    fn n_large_enough(&self, b: usize, m: usize, n: usize) -> bool {
        let c = match *self {
            Regime::Case1 { c } => c,
            Regime::Case2 { .. } => 1.0,
            Regime::Case3 { c } => c,
        };
        (n as f64) > m as f64 * (b as f64).powf(1.0 + 2.0 * c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case1_formulas_match_paper() {
        // δ = 1/b^c, φ = b^{-(c-1)/4}, ρ = 2b^{(c+3)/4}/n, s = n/b^{(c+1)/2}.
        let p = Regime::Case1 { c: 2.0 }.params(16, 1 << 20);
        assert!((p.delta - 16f64.powf(-2.0)).abs() < 1e-15);
        assert!((p.phi - 16f64.powf(-0.25)).abs() < 1e-15);
        assert!((p.rho - 2.0 * 16f64.powf(1.25) / (1u64 << 20) as f64).abs() < 1e-15);
        assert_eq!(p.s, ((1u64 << 20) as f64 / 16f64.powf(1.5)) as usize);
    }

    #[test]
    fn case2_formulas_match_paper() {
        let kappa = 4.0;
        let p = Regime::Case2 { kappa }.params(64, 1 << 18);
        assert!((p.phi - 0.25).abs() < 1e-15);
        assert!((p.delta - 1.0 / (kappa.powi(4) * 64.0)).abs() < 1e-15);
        assert!((p.rho - 2.0 * kappa * 64.0 / (1u64 << 18) as f64).abs() < 1e-15);
        assert_eq!(p.s, ((1u64 << 18) as f64 / (16.0 * 64.0)) as usize);
    }

    #[test]
    fn case3_formulas_match_paper() {
        let p = Regime::Case3 { c: 0.5 }.params(64, 1 << 18);
        assert!((p.phi - 0.125).abs() < 1e-15);
        assert!((p.delta - 0.125).abs() < 1e-15); // 64^{-1/2}
        assert!((p.rho - 16.0 * 64.0 / (1u64 << 18) as f64).abs() < 1e-15);
        // 32n/b^c = 4n here → clamped to one round of n.
        assert_eq!(p.s, 1 << 18);
        // Unclamped once b^c ≥ 32: b = 4096, c = 0.5 → s = n/2.
        let p = Regime::Case3 { c: 0.5 }.params(4096, 1 << 18);
        assert_eq!(p.s, 1 << 17);
    }

    #[test]
    fn round_counts_are_sane() {
        // (1−φ)n/s rounds must be ≥ 1 in all regimes at laptop scale.
        for (regime, b, n) in [
            (Regime::Case1 { c: 1.5 }, 32usize, 1usize << 18),
            (Regime::Case2 { kappa: 2.0 }, 32, 1 << 18),
            (Regime::Case3 { c: 0.5 }, 32, 1 << 18),
        ] {
            let p = regime.params(b, n);
            assert!(p.s >= 1);
            assert!(p.s <= n, "round clamped to the run length");
        }
    }

    #[test]
    fn lower_bounds_per_regime() {
        assert!(Regime::Case1 { c: 2.0 }.tu_lower_bound(256) > 0.7);
        assert_eq!(Regime::Case2 { kappa: 4.0 }.tu_lower_bound(64), 0.5);
        assert!((Regime::Case3 { c: 0.5 }.tu_lower_bound(64) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn n_requirement() {
        let r = Regime::Case3 { c: 0.5 };
        assert!(!r.n_large_enough(64, 1 << 10, 1 << 15));
        assert!(r.n_large_enough(64, 1 << 4, 1 << 20));
    }
}
