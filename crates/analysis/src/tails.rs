//! Tail bounds: the probabilistic shapes used throughout the paper's
//! proofs (Chernoff in Lemmas 1–3, counting arguments in Lemma 4).

/// Multiplicative Chernoff lower-tail bound:
/// `Pr[X < (1−δ)µ] ≤ exp(−δ²µ/2)` for a sum of independent indicators
/// with mean `µ`. This is the inequality used in Lemma 2
/// (`Pr[X < (2/3)λ_f k] ≤ e^{−(1/3)² λ_f k / 2}`) and Lemma 3.
pub fn chernoff_below_mean(mu: f64, delta: f64) -> f64 {
    assert!((0.0..=1.0).contains(&delta), "delta in [0,1]");
    assert!(mu >= 0.0);
    (-delta * delta * mu / 2.0).exp().min(1.0)
}

/// Poisson probability mass `Pr[X = k]` for mean `lambda`, computed in
/// log space for stability at large `lambda`.
pub fn poisson_pmf(lambda: f64, k: u64) -> f64 {
    assert!(lambda >= 0.0);
    if lambda == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    let kf = k as f64;
    let log_p = kf * lambda.ln() - lambda - ln_factorial(k);
    log_p.exp()
}

/// Poisson upper tail `Pr[X > k]`.
pub fn poisson_tail_gt(lambda: f64, k: u64) -> f64 {
    // Sum the lower tail and subtract; fine for the lambdas (≤ thousands)
    // used here.
    let mut cdf = 0.0;
    for j in 0..=k {
        cdf += poisson_pmf(lambda, j);
    }
    (1.0 - cdf).max(0.0)
}

/// Binomial upper tail `Pr[Bin(n, p) ≥ k]`, exact summation.
pub fn binomial_tail_ge(n: u64, p: f64, k: u64) -> f64 {
    assert!((0.0..=1.0).contains(&p));
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    let mut total = 0.0;
    for j in k..=n {
        let log_c = ln_factorial(n) - ln_factorial(j) - ln_factorial(n - j);
        let log_term = log_c
            + j as f64 * p.max(f64::MIN_POSITIVE).ln()
            + (n - j) as f64 * (1.0 - p).max(f64::MIN_POSITIVE).ln();
        total += log_term.exp();
    }
    total.min(1.0)
}

/// `ln(k!)`: exact summation up to `k = 4096` (the regimes used by the
/// experiments), Stirling's series with two correction terms beyond.
fn ln_factorial(k: u64) -> f64 {
    if k < 2 {
        return 0.0;
    }
    if k <= 4096 {
        let mut acc = 0.0f64;
        for j in 2..=k {
            acc += (j as f64).ln();
        }
        return acc;
    }
    let kf = k as f64;
    kf * kf.ln() - kf + 0.5 * (2.0 * std::f64::consts::PI * kf).ln() + 1.0 / (12.0 * kf)
        - 1.0 / (360.0 * kf * kf * kf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chernoff_is_monotone_and_bounded() {
        assert!(chernoff_below_mean(100.0, 0.5) < chernoff_below_mean(100.0, 0.1));
        assert!(chernoff_below_mean(10.0, 0.5) <= 1.0);
        assert_eq!(chernoff_below_mean(0.0, 0.5), 1.0);
    }

    #[test]
    fn poisson_pmf_sums_to_one() {
        for lambda in [0.5, 4.0, 32.0] {
            let total: f64 = (0..400).map(|k| poisson_pmf(lambda, k)).sum();
            assert!((total - 1.0).abs() < 1e-9, "λ={lambda}: Σpmf = {total}");
        }
    }

    #[test]
    fn poisson_pmf_peak_is_near_mean() {
        let lambda = 32.0;
        let at_mean = poisson_pmf(lambda, 32);
        assert!(at_mean > poisson_pmf(lambda, 10));
        assert!(at_mean > poisson_pmf(lambda, 60));
    }

    #[test]
    fn poisson_tail_decreases() {
        let lambda = 16.0;
        assert!(poisson_tail_gt(lambda, 16) > poisson_tail_gt(lambda, 32));
        assert!(poisson_tail_gt(lambda, 100) < 1e-12);
    }

    #[test]
    fn poisson_overflow_is_exponentially_small_in_b() {
        // The 1/2^Ω(b) phenomenon: P[Poisson(b/2) > b] shrinks
        // exponentially as b grows.
        let t8 = poisson_tail_gt(4.0, 8);
        let t32 = poisson_tail_gt(16.0, 32);
        let t128 = poisson_tail_gt(64.0, 128);
        assert!(t32 < t8 / 10.0);
        assert!(t128 < t32 / 100.0);
    }

    #[test]
    fn binomial_tail_exact_small_cases() {
        // Bin(2, 1/2): P[X ≥ 1] = 3/4, P[X ≥ 2] = 1/4.
        assert!((binomial_tail_ge(2, 0.5, 1) - 0.75).abs() < 1e-9);
        assert!((binomial_tail_ge(2, 0.5, 2) - 0.25).abs() < 1e-9);
        assert_eq!(binomial_tail_ge(2, 0.5, 0), 1.0);
        assert_eq!(binomial_tail_ge(2, 0.5, 3), 0.0);
    }

    #[test]
    fn ln_factorial_matches_direct() {
        for k in [1u64, 5, 20, 21, 50, 100] {
            let direct: f64 = (2..=k).map(|j| (j as f64).ln()).sum();
            assert!(
                (ln_factorial(k) - direct).abs() < 1e-6 * direct.max(1.0),
                "k={k}: {} vs {direct}",
                ln_factorial(k)
            );
        }
    }
}
