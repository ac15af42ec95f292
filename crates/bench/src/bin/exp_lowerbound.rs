//! **T1.1–T1.3** — Theorem 1: the lower-bound adversary harness.
//!
//! For each regime, drives a table through rounds of `s` random
//! insertions with the proof's parameters `(δ, φ, ρ, s)` and reports:
//!
//! * the **certified** amortized insertion lower bound `ΣZ/n` (distinct
//!   fast-zone addresses receiving items per round — blocks that *must*
//!   have been written);
//! * the measured amortized insertion cost;
//! * the theorem's predicted bound;
//! * the zones account: max `tq` lower bound and mean slow-zone share
//!   (Lemma 1's `|S| ≤ m + δk/φ` budget);
//! * whether `(b, m, n)` sit in the paper's parameter range
//!   `b^(1+2c) < n/m < 2^(b/4)` (`dxh_analysis::params_in_paper_range`).
//!
//! Regime 1 and 2 run the chaining table (a structure honoring
//! `tq ≈ 1`); regime 3 runs the bootstrapped table at the matching `c`.
//!
//! Gates: a row whose certified lower bound exceeds its measured `tu`
//! panics. The certificate counts blocks that must have been written,
//! so it can only exceed the count when the accounting is wrong. On rows
//! 1–2 the certificate must also sit within 5 standard deviations of its
//! occupancy model: a round throws `s` fresh keys into `B = 2n/b`
//! equally likely buckets, so a round certifies `E[Z] = B(1 − (1 −
//! 1/B)^s)` blocks, with the variance of the occupied-bucket count (`σ`
//! is that of the certificate, over all charged rounds).
//!
//! Run: `cargo run -p dxh-bench --release --bin exp_lowerbound -- [--regime 1|2|3] [--quick]`

use dxh_analysis::{params_in_paper_range, table::fmt_f, TextTable};
use dxh_bench::{emit, ExpArgs};
use dxh_core::{BootstrappedTable, CoreConfig};
use dxh_hashfn::IdealFn;
use dxh_lowerbound::{run_adversary, Regime};
use dxh_tables::{ChainingConfig, ChainingTable};

fn main() {
    let args = ExpArgs::parse();
    let which: Option<u32> = args.get("regime").and_then(|s| s.parse().ok());
    let mut table = TextTable::new([
        "regime",
        "structure",
        "b",
        "n",
        "s (round)",
        "certified tu LB",
        "measured tu",
        "Thm1 bound",
        "max tq zone LB",
        "slow share",
        "in paper range",
        "occupancy model",
        "model σ",
    ]);

    let run_regime = |table: &mut TextTable, regime: Regime, idx: u32| {
        // `c`: the regime's query exponent (`tq ≤ 1 + O(1/b^c)`).
        let (b, m, n, c, structure): (usize, usize, usize, f64, &str) = match regime {
            Regime::Case1 { c } => (16, 4096, args.scale(65_536, 8_192), c, "chaining"),
            Regime::Case2 { .. } => (16, 4096, args.scale(65_536, 8_192), 1.0, "chaining"),
            Regime::Case3 { c } => (64, 1024, args.scale(80_000, 16_000), c, "bootstrapped"),
        };
        let params = regime.params(b, n);
        let report = match regime {
            Regime::Case3 { c } => {
                let cfg = CoreConfig::theorem2(b, m, c).expect("config");
                let mut t = BootstrappedTable::new(cfg, 0xAD5E ^ idx as u64).expect("table");
                run_adversary(&mut t, n, &params, 0x1357 + idx as u64).expect("run")
            }
            _ => {
                // Fixed chaining table at load ≤ 1/2: the tq ≈ 1 regime.
                let buckets = (2 * n / b) as u64;
                let cfg = ChainingConfig::fixed(b, m, buckets);
                let mut t = ChainingTable::new(cfg, IdealFn::from_seed(0xAD5E ^ idx as u64))
                    .expect("table");
                run_adversary(&mut t, n, &params, 0x1357 + idx as u64).expect("run")
            }
        };
        // Rows 1–2 hash into the chaining table's `2n/b` buckets.
        let model = (structure == "chaining").then(|| {
            let inserted: Vec<usize> = report.rounds.iter().map(|r| r.inserted).collect();
            occupancy_model((2 * n / b) as f64, &inserted)
        });
        let shown = |f: fn((f64, f64)) -> f64| model.map_or("–".to_string(), |m| fmt_f(f(m), 4));
        table.row([
            idx.to_string(),
            structure.to_string(),
            b.to_string(),
            n.to_string(),
            params.s.to_string(),
            fmt_f(report.certified_tu_lower, 4),
            fmt_f(report.measured_tu, 4),
            fmt_f(regime.tu_lower_bound(b), 4),
            fmt_f(report.max_tq_zone_bound, 4),
            fmt_f(report.mean_slow_share, 4),
            if params_in_paper_range(b, m, n, c) { "yes" } else { "no" }.to_string(),
            shown(|m| m.0),
            shown(|m| m.1),
        ]);
        assert!(
            report.certified_tu_lower <= report.measured_tu,
            "regime {idx}: certified tu lower bound {} exceeds the measured tu {}",
            report.certified_tu_lower,
            report.measured_tu
        );
        if let Some((mean, sigma)) = model {
            assert!(
                (report.certified_tu_lower - mean).abs() <= 5.0 * sigma,
                "regime {idx}: certified tu lower bound {} is {:.1} σ from its occupancy \
                 model {mean} (σ = {sigma})",
                report.certified_tu_lower,
                (report.certified_tu_lower - mean) / sigma
            );
        }
    };

    let regimes: Vec<(u32, Regime)> = vec![
        (1, Regime::Case1 { c: 1.5 }),
        (2, Regime::Case2 { kappa: 2.0 }),
        (3, Regime::Case3 { c: 0.5 }),
    ];
    for (idx, regime) in regimes {
        if which.is_none_or(|w| w == idx) {
            run_regime(&mut table, regime, idx);
        }
    }
    println!("Theorem 1 adversary harness (per-regime parameters from §2 of the paper).");
    emit("Theorem 1 — certified insertion lower bounds", &table, &args, "exp_lowerbound.csv");
    println!(
        "\nReading: every row's certificate is at most its measured tu (asserted),\n\
         and rows 1–2 are within 5σ of their occupancy model (asserted).\n\
         Rows 1–2, chaining at load ≤ 1/2 with tq ≈ 1, certify 0.88–0.94 block\n\
         writes an insert against ≈ 1.00 measured: with tq ≈ 1 the buffer saves\n\
         almost nothing. Theorem 1's unit-constant bound (0.29 / 0.50) sits far\n\
         below both. Row 3, the bootstrapped table at c = 1/2, measures tu 0.44\n\
         at --quick and 0.56 at full size, 3.5–4.5× Theorem 1's b^(c−1) = 0.125:\n\
         it beats 1 by batching its fast-zone writes, which also keeps its\n\
         certificate small (0.04 / 0.06), but it is not at the frontier. No row\n\
         is in the paper's range b^(1+2c) < n/m < 2^(b/4): at b = 16 the range\n\
         is empty, and row 3's n/m (16 / 78) is below 64² = 4096."
    );
}

/// The certificate of rounds of `inserted` fresh keys thrown into
/// `buckets` equally likely buckets: `Σ E[Z] / Σ s`, where `Z` counts the
/// buckets a round hits, and its standard deviation `√(Σ Var Z) / Σ s`.
/// With `q_j = (1 − j/B)^s`, `E[Z] = B(1 − q_1)` and `Var Z = B q_1 +
/// B(B − 1) q_2 − B² q_1²` (the occupancy problem).
fn occupancy_model(buckets: f64, inserted: &[usize]) -> (f64, f64) {
    let (mut mean, mut var) = (0.0, 0.0);
    for &s in inserted {
        let q = |j: f64| (1.0 - j / buckets).powf(s as f64);
        mean += buckets * (1.0 - q(1.0));
        var += buckets * q(1.0) + buckets * (buckets - 1.0) * q(2.0) - (buckets * q(1.0)).powi(2);
    }
    let charged = inserted.iter().sum::<usize>() as f64;
    (mean / charged, var.sqrt() / charged)
}
