//! The end-to-end lower-bound harness: Theorem 1, empirically.
//!
//! The proof divides `n` random insertions into rounds of `s`. In each
//! round, items directed by `f` to distinct good-area addresses that end
//! up in the **fast zone** force the table to have touched that many
//! distinct blocks: each such block contains an item that did not exist
//! before the round, so it was written at least once. The number of such
//! distinct addresses, `Z`, is therefore a *certified lower bound* on
//! the round's I/O count — independent of how the table works inside.
//!
//! The harness computes `Z` per round for any [`LayoutInspect`] table,
//! tracks the zones account (Lemma 1's `|S| ≤ m + δk/φ` event `E1`), and
//! reports the implied amortized insertion bound next to the measured
//! one and the theorem's prediction.

use std::collections::HashSet;

use dxh_extmem::{Key, Result};
use dxh_hashfn::SplitMix64;
use dxh_tables::{ExternalDictionary, LayoutInspect};

use crate::regime::RegimeParams;
use crate::zones::{classify_zones, zone_tq_lower_bound, ZoneCounts};

/// Per-round measurements.
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// Round index (0-based, after the warm-up phase).
    pub round: usize,
    /// Items inserted this round.
    pub inserted: usize,
    /// Certified I/O lower bound: distinct fast-zone addresses that
    /// received this round's items.
    pub z: usize,
    /// Measured I/Os actually performed this round.
    pub actual_ios: u64,
    /// Zone sizes at the end of the round.
    pub zones: ZoneCounts,
    /// Zone-implied lower bound on expected successful query cost.
    pub tq_zone_bound: f64,
}

/// Whole-run summary.
#[derive(Clone, Debug)]
pub struct AdversaryReport {
    /// Per-round details.
    pub rounds: Vec<RoundReport>,
    /// Items inserted in the (uncharged) warm-up phase.
    pub warmup: usize,
    /// Total items inserted.
    pub n: usize,
    /// `Σ Z / (charged insertions)`: the certified amortized lower bound
    /// on insertion cost.
    pub certified_tu_lower: f64,
    /// Measured amortized insertion cost over the charged phase.
    pub measured_tu: f64,
    /// Largest zone-implied `tq` lower bound seen at a round boundary.
    pub max_tq_zone_bound: f64,
    /// Mean slow-zone share `|S|/k` across rounds (Lemma 1 watches this).
    pub mean_slow_share: f64,
}

/// Drives `table` through `n` random insertions in rounds of
/// `params.s`, with the first `⌈φn⌉` insertions uncharged (the proof
/// ignores them too).
///
/// Keys are uniform 63-bit values (distinct with overwhelming
/// probability, deduplicated for exactness), mirroring the paper's
/// uniform `h(x)` assumption.
pub fn run_adversary<T: ExternalDictionary + LayoutInspect>(
    table: &mut T,
    n: usize,
    params: &RegimeParams,
    seed: u64,
) -> Result<AdversaryReport> {
    let mut rng = SplitMix64::new(seed);
    let mut used: HashSet<Key> = HashSet::with_capacity(n);
    let mut fresh_key = || loop {
        let k = rng.next_u64() >> 1;
        if used.insert(k) {
            return k;
        }
    };

    let warmup = ((params.phi * n as f64).ceil() as usize).min(n);
    for _ in 0..warmup {
        let k = fresh_key();
        table.insert(k, k)?;
    }

    let mut rounds = Vec::new();
    let mut charged = 0usize;
    let mut z_total = 0usize;
    let mut io_total = 0u64;
    let mut max_tq_bound: f64 = 0.0;
    let mut slow_share_sum = 0.0;
    let mut round_idx = 0usize;
    let mut round_keys: Vec<Key> = Vec::with_capacity(params.s);
    while warmup + charged < n {
        round_keys.clear();
        let before = table.disk_stats();
        let this_round = params.s.min(n - warmup - charged);
        for _ in 0..this_round {
            let k = fresh_key();
            table.insert(k, k)?;
            round_keys.push(k);
        }
        let actual_ios = table.disk_stats().since(&before).total();
        // End-of-round snapshot: zones + the certified Z.
        let snapshot = table.layout_snapshot()?;
        let zones = classify_zones(&snapshot, |k| table.address_of(k));
        let block_sets: std::collections::HashMap<_, HashSet<Key>> =
            snapshot.blocks.iter().map(|(id, ks)| (*id, ks.iter().copied().collect())).collect();
        let mut fast_addresses: HashSet<_> = HashSet::new();
        for &k in &round_keys {
            if let Some(addr) = table.address_of(k) {
                if block_sets.get(&addr).is_some_and(|set| set.contains(&k)) {
                    fast_addresses.insert(addr);
                }
            }
        }
        let z = fast_addresses.len();
        let tq_bound = zone_tq_lower_bound(&zones);
        max_tq_bound = max_tq_bound.max(tq_bound);
        slow_share_sum += zones.slow as f64 / zones.total().max(1) as f64;
        z_total += z;
        io_total += actual_ios;
        charged += this_round;
        rounds.push(RoundReport {
            round: round_idx,
            inserted: this_round,
            z,
            actual_ios,
            zones,
            tq_zone_bound: tq_bound,
        });
        round_idx += 1;
    }

    let denom = charged.max(1) as f64;
    Ok(AdversaryReport {
        warmup,
        n,
        certified_tu_lower: z_total as f64 / denom,
        measured_tu: io_total as f64 / denom,
        max_tq_zone_bound: max_tq_bound,
        mean_slow_share: slow_share_sum / rounds.len().max(1) as f64,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regime::Regime;
    use dxh_core::{BootstrappedTable, CoreConfig, LogMethodTable};
    use dxh_hashfn::IdealFn;
    use dxh_tables::{ChainingConfig, ChainingTable};

    #[test]
    fn chaining_is_pinned_near_one_io_per_insert() {
        // The heart of Theorem 1: a structure answering queries in ≈ 1 I/O
        // keeps nearly every item in the fast zone, so every round of s
        // distinct-bucket insertions must touch ≈ s distinct blocks.
        let b = 16;
        let n = 8192;
        let cfg = ChainingConfig::fixed(b, 4096, 1024); // load ≤ 1/2
        let mut t = ChainingTable::new(cfg, IdealFn::from_seed(3)).unwrap();
        let params = Regime::Case1 { c: 1.5 }.params(b, n);
        let report = run_adversary(&mut t, n, &params, 42).unwrap();
        assert!(
            report.certified_tu_lower > 0.85,
            "certified bound {} should be ≈ 1",
            report.certified_tu_lower
        );
        assert!(report.measured_tu >= report.certified_tu_lower - 1e-9);
        assert!(
            report.max_tq_zone_bound < 1.1,
            "chaining keeps tq ≈ 1: {}",
            report.max_tq_zone_bound
        );
    }

    #[test]
    fn bootstrapped_table_escapes_via_slow_zone_budget() {
        // The c < 1 regime: the bootstrapped table inserts in o(1) I/Os.
        // The certified bound must agree (Z/s small), and its zone account
        // must show tq still close to 1 — the matching upper bound.
        // Merge traffic costs ≈ 4β/b + log-method noise per insertion, so
        // b must comfortably dominate β before tu ≪ 1 (the theorem's
        // asymptotics): b = 64, β = b^0.5 = 8 → expect ≈ 0.5–0.8.
        let b = 64;
        let n = 40_000;
        let cfg = CoreConfig::theorem2(b, 1024, 0.5).unwrap();
        let mut t = BootstrappedTable::new(cfg, 7).unwrap();
        let params = Regime::Case3 { c: 0.5 }.params(b, n);
        let report = run_adversary(&mut t, n, &params, 43).unwrap();
        assert!(
            report.measured_tu < 0.85,
            "bootstrapped tu should be o(1): {}",
            report.measured_tu
        );
        assert!(
            report.certified_tu_lower <= report.measured_tu + 1e-9,
            "certificate below measurement"
        );
        assert!(
            report.max_tq_zone_bound < 1.6,
            "zone-implied tq stays near 1: {}",
            report.max_tq_zone_bound
        );
    }

    #[test]
    fn log_method_shows_the_tradeoffs_other_end() {
        // The log-method buries most items in the slow zone: insertion is
        // very cheap but the zone account shows tq far from 1.
        // Per-level merge traffic is ≈ (2+4γ)/b per item per level, so we
        // need b ≫ (2+4γ)·log2(n/m) for tu ≪ 1: b = 128, γ = 2, ~3 levels.
        let b = 128;
        let n = 20_000;
        let cfg = CoreConfig::lemma5(b, 2048, 2).unwrap();
        let mut t = LogMethodTable::new(cfg, 11).unwrap();
        let params = Regime::Case3 { c: 0.5 }.params(b, n);
        let report = run_adversary(&mut t, n, &params, 44).unwrap();
        assert!(report.measured_tu < 0.5, "log-method tu: {}", report.measured_tu);
        assert!(
            report.mean_slow_share > 0.2,
            "items pile into the slow zone: {}",
            report.mean_slow_share
        );
    }

    #[test]
    fn certificate_never_exceeds_measurement() {
        // Z counts distinct blocks that *must* have been written; the
        // actual I/O count can never be below it.
        let b = 8;
        let n = 3000;
        let cfg = ChainingConfig::fixed(b, 4096, 128);
        let mut t = ChainingTable::new(cfg, IdealFn::from_seed(5)).unwrap();
        let params = Regime::Case2 { kappa: 2.0 }.params(b, n);
        let report = run_adversary(&mut t, n, &params, 45).unwrap();
        for r in &report.rounds {
            assert!(
                r.z as u64 <= r.actual_ios,
                "round {}: Z = {} > actual {}",
                r.round,
                r.z,
                r.actual_ios
            );
        }
    }

    #[test]
    fn report_accounting_is_consistent() {
        let b = 8;
        let n = 2000;
        let cfg = ChainingConfig::fixed(b, 4096, 128);
        let mut t = ChainingTable::new(cfg, IdealFn::from_seed(6)).unwrap();
        let params = Regime::Case3 { c: 0.5 }.params(b, n);
        let report = run_adversary(&mut t, n, &params, 46).unwrap();
        let charged: usize = report.rounds.iter().map(|r| r.inserted).sum();
        assert_eq!(report.warmup + charged, n);
        let z_sum: usize = report.rounds.iter().map(|r| r.z).sum();
        assert!((report.certified_tu_lower - z_sum as f64 / charged as f64).abs() < 1e-12);
    }
}
