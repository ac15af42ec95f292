//! # dxh-bench — experiment scaffolding
//!
//! Shared plumbing for the experiment binaries (one binary per paper
//! table/figure; `docs/ARCHITECTURE.md` maps each to its crate):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig1_tradeoff` | Figure 1, the query–insertion tradeoff |
//! | `exp_knuth` | Knuth §6.4 baseline (`tq = 1 + 1/2^Ω(b)`) |
//! | `exp_logmethod` | Lemma 5 (logarithmic method) |
//! | `exp_bootstrap` | Theorem 2 (bootstrapped table) |
//! | `exp_lowerbound` | Theorem 1, tradeoffs 1–3 (adversary harness) |
//! | `exp_binball` | Lemmas 3 and 4 (bin-ball games) |
//! | `exp_ablation` | A1 cache / A2 hash-family / A3 cost-model ablations |
//! | `exp_compaction` | KvStore space reclamation: delete churn, crash GC, compact |
//! | `exp_service` | ShardedKvStore group commit: throughput + syncs-per-op vs writers |
//!
//! Every binary accepts `--quick` (smaller n, for smoke runs), prints an
//! aligned table to stdout, and writes CSV into `results/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashSet;
use std::path::PathBuf;

use dxh_core::{DynamicHashTable, ExternalDictionary, TradeoffTarget};
use dxh_extmem::{Key, Result};
use dxh_hashfn::SplitMix64;
use dxh_workloads::measure_tq;

/// Common command-line arguments for experiment binaries.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Reduce problem sizes for a fast smoke run.
    pub quick: bool,
    /// Independent trials to average over.
    pub trials: u64,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
    /// Remaining free-form `--key value` pairs.
    pub extra: Vec<(String, String)>,
}

impl ExpArgs {
    /// Parses `std::env::args()`: `--quick`, `--trials N`, `--out DIR`,
    /// plus arbitrary `--key value` pairs exposed via [`ExpArgs::get`].
    pub fn parse() -> Self {
        let mut args = std::env::args().skip(1);
        let mut out = ExpArgs {
            quick: false,
            trials: 3,
            out_dir: PathBuf::from("results"),
            extra: Vec::new(),
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--trials" => {
                    out.trials =
                        args.next().and_then(|v| v.parse().ok()).expect("--trials needs a number");
                }
                "--out" => {
                    out.out_dir = PathBuf::from(args.next().expect("--out needs a path"));
                }
                other => {
                    if let Some(key) = other.strip_prefix("--") {
                        let value = args.next().unwrap_or_default();
                        out.extra.push((key.to_string(), value));
                    } else {
                        eprintln!("ignoring unrecognized argument {other:?}");
                    }
                }
            }
        }
        out
    }

    /// Looks up a free-form `--key value` argument.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.extra.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Picks `full` or `quick` depending on `--quick`.
    pub fn scale(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// Inserts `n` distinct uniform random keys (the paper's input model)
/// and returns them for later query sampling.
pub fn insert_uniform<T: ExternalDictionary + ?Sized>(
    table: &mut T,
    n: usize,
    seed: u64,
) -> Result<Vec<Key>> {
    let mut rng = SplitMix64::new(seed);
    let mut used: HashSet<Key> = HashSet::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let k = rng.next_u64() >> 1;
        if used.insert(k) {
            table.insert(k, k)?;
            keys.push(k);
        }
    }
    Ok(keys)
}

/// One measured point on the tradeoff plane.
#[derive(Clone, Copy, Debug)]
pub struct TradeoffPoint {
    /// Amortized insertion cost (I/Os per insert over the whole run).
    pub tu: f64,
    /// Expected average successful lookup cost (sampled).
    pub tq: f64,
    /// Internal memory used (items).
    pub memory: usize,
}

/// Builds the table for `target`, inserts `n` uniform keys, and measures
/// `(tu, tq)` with `samples` query samples.
pub fn measure_target(
    target: TradeoffTarget,
    b: usize,
    m: usize,
    n: usize,
    samples: usize,
    seed: u64,
) -> Result<TradeoffPoint> {
    let mut table = DynamicHashTable::for_target(target, b, m, seed)?;
    let keys = insert_uniform(&mut table, n, seed ^ 0x5EED)?;
    let tu = table.total_ios() as f64 / n as f64;
    let tq = measure_tq(&mut table, &keys, samples, seed ^ 0x9A11)?;
    Ok(TradeoffPoint { tu, tq, memory: table.memory_used() })
}

/// Prints a rendered table under a section heading and writes its CSV.
pub fn emit(title: &str, table: &dxh_analysis::TextTable, args: &ExpArgs, csv_name: &str) {
    println!("\n== {title} ==\n");
    print!("{}", table.render());
    let path = args.out_dir.join(csv_name);
    match table.write_csv(&path) {
        Ok(()) => println!("\n[csv] {}", path.display()),
        Err(e) => eprintln!("[csv] failed to write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_uniform_returns_distinct_keys() {
        let mut t =
            DynamicHashTable::for_target(TradeoffTarget::QueryOptimal, 16, 4096, 1).unwrap();
        let keys = insert_uniform(&mut t, 500, 2).unwrap();
        let set: HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), 500);
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn measure_target_produces_sane_point() {
        let p = measure_target(TradeoffTarget::QueryOptimal, 32, 4096, 2000, 300, 3).unwrap();
        assert!(p.tu >= 1.0 && p.tu < 1.6, "chaining tu {}", p.tu);
        assert!(p.tq >= 1.0 && p.tq < 1.3, "chaining tq {}", p.tq);
        assert!(p.memory <= 4096);
    }

    #[test]
    fn scale_picks_by_quick() {
        let mut a = ExpArgs {
            quick: false,
            trials: 1,
            out_dir: PathBuf::new(),
            extra: vec![("regime".into(), "3".into())],
        };
        assert_eq!(a.scale(100, 10), 100);
        a.quick = true;
        assert_eq!(a.scale(100, 10), 10);
        assert_eq!(a.get("regime"), Some("3"));
        assert_eq!(a.get("missing"), None);
    }
}
