//! **K** — the Knuth §6.4 baseline the paper builds on:
//! `tq = tu = 1 + 1/2^Ω(b)` for the standard external hash table.
//!
//! Sweeps block size `b` and load factor `α`, measuring the chaining
//! table's successful-lookup and insertion costs against the Poisson
//! closed forms of `dxh_analysis::knuth`, plus blocked linear probing
//! measurements.
//!
//! Run: `cargo run -p dxh-bench --release --bin exp_knuth [--quick]`

use dxh_analysis::{
    chaining_costs, chaining_insert_amortized, overflow_tail, stats::RunningStats, table::fmt_f,
    TextTable,
};
use dxh_bench::{emit, insert_uniform, ExpArgs};
use dxh_core::ExternalDictionary;
use dxh_hashfn::IdealFn;
use dxh_tables::{ChainingConfig, ChainingTable, LinearProbingConfig, LinearProbingTable};
use dxh_workloads::{measure_tq, measure_tq_unsuccessful, parallel_trials};

fn main() {
    let args = ExpArgs::parse();
    let buckets: u64 = args.scale(512, 128) as u64;
    let samples = args.scale(3000, 500);

    let mut table = TextTable::new([
        "b",
        "α",
        "tq chain (meas)",
        "tq chain (model)",
        "tq⁻ chain (meas)",
        "tq⁻ chain (model)",
        "tu chain (meas)",
        "tu chain (model)",
        "tq probe (meas)",
        "P[overflow]",
    ]);
    for b in [8usize, 16, 32, 64, 128] {
        for alpha in [0.3, 0.5, 0.7, 0.9] {
            let n = (alpha * buckets as f64 * b as f64) as usize;
            let model = chaining_costs(b, alpha);
            let insert_model = chaining_insert_amortized(b, alpha, 32);
            let stats = parallel_trials(args.trials, 0xC0DE, |seed| {
                // Chaining at fixed size (Knuth's setting).
                let cfg = ChainingConfig::fixed(b, 4 * b + 64, buckets);
                let mut chain = ChainingTable::new(cfg, IdealFn::from_seed(seed)).unwrap();
                let e0 = chain.disk_stats();
                let keys = insert_uniform(&mut chain, n, seed).unwrap();
                let tu = chain.disk_stats().since(&e0).total() as f64 / n as f64;
                let tq = measure_tq(&mut chain, &keys, samples, seed ^ 1).unwrap();
                let tq_miss = measure_tq_unsuccessful(&mut chain, samples, seed ^ 5).unwrap();
                // Blocked linear probing at the same (b, α).
                let cfg = LinearProbingConfig::new(b, 4 * b + 64, buckets);
                let mut probe = LinearProbingTable::new(cfg, IdealFn::from_seed(seed ^ 2)).unwrap();
                let keys = insert_uniform(&mut probe, n, seed ^ 3).unwrap();
                let tq_probe = measure_tq(&mut probe, &keys, samples, seed ^ 4).unwrap();
                (tu, tq, tq_miss, tq_probe)
            });
            let mut tu = RunningStats::new();
            let mut tq = RunningStats::new();
            let mut tqm = RunningStats::new();
            let mut tqp = RunningStats::new();
            for (a, b_, miss, c) in stats {
                tu.push(a);
                tq.push(b_);
                tqm.push(miss);
                tqp.push(c);
            }
            table.row([
                b.to_string(),
                fmt_f(alpha, 1),
                fmt_f(tq.mean(), 4),
                fmt_f(model.successful_lookup, 4),
                fmt_f(tqm.mean(), 4),
                fmt_f(model.unsuccessful_lookup, 4),
                fmt_f(tu.mean(), 4),
                fmt_f(insert_model, 4),
                fmt_f(tqp.mean(), 4),
                format!("{:.2e}", overflow_tail(b, alpha)),
            ]);
        }
    }
    println!(
        "Knuth baseline: fixed table of {buckets} buckets, {} trials.\n\
         The 1 + 1/2^Ω(b) phenomenon: the excess over 1 I/O collapses as b grows.",
        args.trials
    );
    emit("standard hash table costs (Knuth §6.4 reference)", &table, &args, "exp_knuth.csv");
}
