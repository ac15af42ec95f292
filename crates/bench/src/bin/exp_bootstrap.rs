//! **T2** — Theorem 2: the bootstrapped hash table.
//!
//! Two sweeps:
//!
//! 1. the exponent `c` (`β = b^c`): measured `tu` against `O(b^(c−1))`
//!    and measured `tq` against `1 + O(1/b^c)`;
//! 2. the ε-form (`β = Θ(εb)`): measured `tu` against `ε` with
//!    `tq = 1 + O(1/b)`.
//!
//! Also reports the structural invariants the analysis rests on, and
//! panics if a trial of the `c` sweep breaks one: the fraction of items
//! in `Ĥ` (must be ≥ 1 − 1/β) and the number of merges (must be ≥ 1).
//!
//! Run: `cargo run -p dxh-bench --release --bin exp_bootstrap [--quick]`

use dxh_analysis::{
    stats::RunningStats, table::fmt_f, theorem2_tq_upper, theorem2_tu_upper, TextTable,
};
use dxh_bench::{emit, insert_uniform, ExpArgs};
use dxh_core::{BootstrappedTable, CoreConfig, ExternalDictionary};
use dxh_workloads::{measure_tq, parallel_trials};

fn main() {
    let args = ExpArgs::parse();
    let b = 64;
    let m = 1024;
    let n = args.scale(200_000, 20_000);
    let samples = args.scale(3000, 600);

    // Sweep 1: c (β = b^c).
    let mut t1 = TextTable::new([
        "c",
        "β=b^c",
        "tu (meas)",
        "tu bound b^(c−1)",
        "tq (meas)",
        "tq bound 1+1/b^c",
        "Ĥ fraction",
        "1−1/β",
        "merges",
    ]);
    for c in [0.25, 0.5, 0.75] {
        let rows = parallel_trials(args.trials, 0xB007, |seed| {
            let cfg = CoreConfig::theorem2(b, m, c).unwrap();
            let beta = cfg.beta;
            let mut t = BootstrappedTable::new(cfg, seed).unwrap();
            let keys = insert_uniform(&mut t, n, seed).unwrap();
            let tu = t.total_ios() as f64 / n as f64;
            let tq = measure_tq(&mut t, &keys, samples, seed ^ 3).unwrap();
            (tu, tq, t.hat_fraction(), t.merge_count(), beta)
        });
        let mut tu = RunningStats::new();
        let mut tq = RunningStats::new();
        let mut frac = RunningStats::new();
        let mut merges = RunningStats::new();
        let mut beta = 0.0;
        for (a, q, f, mg, bt) in rows {
            assert!(f >= 1.0 - 1.0 / bt, "c = {c}: Ĥ holds {f:.4} of the items < 1 − 1/β");
            assert!(mg >= 1, "c = {c}: Ĥ was never merged into");
            tu.push(a);
            tq.push(q);
            frac.push(f);
            merges.push(mg as f64);
            beta = bt;
        }
        t1.row([
            fmt_f(c, 2),
            fmt_f(beta, 2),
            fmt_f(tu.mean(), 4),
            fmt_f(theorem2_tu_upper(b, c), 4),
            fmt_f(tq.mean(), 4),
            fmt_f(theorem2_tq_upper(b, c), 4),
            fmt_f(frac.mean(), 4),
            fmt_f(1.0 - 1.0 / beta, 4),
            fmt_f(merges.mean(), 0),
        ]);
    }
    println!("Theorem 2 (bootstrapped table): b = {b}, m = {m}, n = {n}, {} trials.", args.trials);
    emit("Theorem 2 — c sweep (β = b^c, γ = 2)", &t1, &args, "exp_bootstrap_c.csv");

    // Sweep 2: the ε form.
    let mut t2 =
        TextTable::new(["ε", "β", "tu (meas)", "tu target ε", "tq (meas)", "tq bound 1+O(1/b)"]);
    for eps in [0.125, 0.25, 0.5, 1.0] {
        let rows = parallel_trials(args.trials, 0xE125, |seed| {
            let cfg = CoreConfig::boundary(b, m, eps).unwrap();
            let beta = cfg.beta;
            let mut t = BootstrappedTable::new(cfg, seed).unwrap();
            let keys = insert_uniform(&mut t, n, seed).unwrap();
            let tu = t.total_ios() as f64 / n as f64;
            let tq = measure_tq(&mut t, &keys, samples, seed ^ 9).unwrap();
            (tu, tq, beta)
        });
        let mut tu = RunningStats::new();
        let mut tq = RunningStats::new();
        let mut beta = 0.0;
        for (a, q, bt) in rows {
            tu.push(a);
            tq.push(q);
            beta = bt;
        }
        t2.row([
            fmt_f(eps, 3),
            fmt_f(beta, 2),
            fmt_f(tu.mean(), 4),
            fmt_f(eps, 3),
            fmt_f(tq.mean(), 4),
            fmt_f(1.0 + 1.0 / b as f64, 4),
        ]);
    }
    emit("Theorem 2 — ε sweep (the 1 + Θ(1/b) boundary)", &t2, &args, "exp_bootstrap_eps.csv");
    println!(
        "\nReading: at full size (seed 0xB007, 3 trials) tu is 0.305 / 0.523 / 0.821\n\
         at c = ¼ / ½ / ¾ against b^(c−1) = 0.044 / 0.125 / 0.354 — 6.9× / 4.2× / 2.3×\n\
         the bound, so it does not fall like b^(c−1): most of it is Ĥ's merges, which\n\
         keep Ĥ in a ¼–½ load window (ROADMAP items 2 and 15). tq stays near 1, but\n\
         the c = ½ row's 1.131 is above its 1 + 1/b^c, and the ε rows' tq is not\n\
         monotone in ε: it depends on where the merge cycle stands when the lookups\n\
         are sampled. Asserted, in every trial of every c row: Ĥ holds at least\n\
         1 − 1/β of the items and has been merged into."
    );
}
