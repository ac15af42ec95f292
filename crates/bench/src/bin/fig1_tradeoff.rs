//! **Figure 1** — the query–insertion tradeoff, regenerated.
//!
//! For each construction we measure `(tq, tu)` on `n` uniform random
//! insertions and overlay the paper's bound curves:
//!
//! * chaining — the `tq = 1 + 1/2^Ω(b)` endpoint, where Theorem 1 case 1
//!   pins `tu ≥ 1 − O(b^{-(c−1)/4})`;
//! * bootstrapped, `c ∈ {0.25, 0.5, 0.75}` — the `1 + Θ(1/b^c)`, `c < 1`
//!   frontier with matching bounds `Θ(b^{c−1})`;
//! * bootstrapped ε-form — the `tq = 1 + Θ(1/b)` boundary, `tu = ε`;
//! * log-method — maximal buffering: `tu = o(1)` but `tq = Θ(log(n/m))`.
//!
//! Run: `cargo run -p dxh-bench --release --bin fig1_tradeoff [--quick]`

use dxh_analysis::{stats::RunningStats, table::fmt_f, theorem1_tu_lower, TextTable};
use dxh_bench::{emit, insert_uniform, measure_target, ExpArgs, TradeoffPoint};
use dxh_core::{ExternalDictionary, TradeoffTarget};
use dxh_hashfn::IdealFn;
use dxh_tables::{ExtendibleConfig, ExtendibleTable, LinearHashConfig, LinearHashTable};
use dxh_workloads::{measure_tq, parallel_trials};

fn main() {
    let args = ExpArgs::parse();
    let b = 64;
    let m = 1024;
    let n = args.scale(200_000, 20_000);
    let samples = args.scale(4000, 800);

    struct Series {
        label: String,
        target: TradeoffTarget,
        tq_theory: String,
        tu_theory: String,
        tu_lower: String,
    }
    let bf = b as f64;
    let mut series = vec![Series {
        label: "chaining (c>1)".into(),
        target: TradeoffTarget::QueryOptimal,
        tq_theory: "1 + 1/2^Ω(b)".into(),
        tu_theory: "1 + 1/2^Ω(b)".into(),
        tu_lower: fmt_f(theorem1_tu_lower(b, 2.0), 3),
    }];
    for c in [0.25, 0.5, 0.75] {
        series.push(Series {
            label: format!("bootstrapped c={c}"),
            target: TradeoffTarget::InsertOptimal { c },
            tq_theory: format!("1+{}", fmt_f(bf.powf(-c), 4)),
            tu_theory: format!("~{}", fmt_f(bf.powf(c - 1.0), 4)),
            tu_lower: fmt_f(theorem1_tu_lower(b, c), 4),
        });
    }
    series.push(Series {
        label: "bootstrapped ε=0.25".into(),
        target: TradeoffTarget::Boundary { eps: 0.25 },
        tq_theory: format!("1+O(1/{b})"),
        tu_theory: "~0.25·K".into(),
        tu_lower: "Ω(1)".into(),
    });
    series.push(Series {
        label: "log-method γ=2".into(),
        target: TradeoffTarget::LogMethod { gamma: 2 },
        tq_theory: format!("O(log₂({n}/{m}))"),
        tu_theory: "o(1)".into(),
        tu_lower: "-".into(),
    });

    let mut table = TextTable::new([
        "structure",
        "tq (measured)",
        "tq (paper)",
        "tu (measured)",
        "tu (paper UB)",
        "tu (Thm1 LB)",
    ]);

    // Classic dynamic schemes sit at the same (≈1, ≈1) endpoint as
    // chaining — load-factor maintenance costs only O(1/b) amortized, as
    // the paper's introduction remarks. Note: unlike the other rows,
    // their in-memory state grows with n (extendible hashing's directory
    // holds ~2n/b pointers; linear hashing keeps a segment table), so
    // they get a budget of Θ(n/b) items — an honest extra cost the
    // budget accounting makes visible.
    let m_classics = (8 * n / b).max(m);
    let classics = parallel_trials(args.trials, 0xF162, |seed| {
        let mut ext =
            ExtendibleTable::new(ExtendibleConfig::new(b, m_classics), IdealFn::from_seed(seed))
                .expect("extendible");
        let keys = insert_uniform(&mut ext, n, seed).expect("fill");
        let ext_point = TradeoffPoint {
            tu: ext.disk_stats().total() as f64 / n as f64,
            tq: measure_tq(&mut ext, &keys, samples, seed ^ 5).expect("tq"),
            memory: ext.memory_used(),
        };
        let mut lh = LinearHashTable::new(
            LinearHashConfig::new(b, m_classics).max_load(0.5),
            IdealFn::from_seed(seed),
        )
        .expect("linear hashing");
        let keys = insert_uniform(&mut lh, n, seed ^ 6).expect("fill");
        let lh_point = TradeoffPoint {
            tu: lh.disk_stats().total() as f64 / n as f64,
            tq: measure_tq(&mut lh, &keys, samples, seed ^ 7).expect("tq"),
            memory: lh.memory_used(),
        };
        (ext_point, lh_point)
    });

    for s in &series {
        let trials = args.trials;
        let points = parallel_trials(trials, 0xF161, |seed| {
            measure_target(s.target, b, m, n, samples, seed).expect("measurement failed")
        });
        let mut tu = RunningStats::new();
        let mut tq = RunningStats::new();
        for p in &points {
            tu.push(p.tu);
            tq.push(p.tq);
        }
        table.row([
            s.label.clone(),
            fmt_f(tq.mean(), 4),
            s.tq_theory.clone(),
            fmt_f(tu.mean(), 4),
            s.tu_theory.clone(),
            s.tu_lower.clone(),
        ]);
    }
    for (label, pick) in [("extendible (m=Θ(n/b))", 0usize), ("linear hash (m=Θ(n/b))", 1usize)] {
        let mut tu = RunningStats::new();
        let mut tq = RunningStats::new();
        for (e, l) in &classics {
            let p = if pick == 0 { e } else { l };
            tu.push(p.tu);
            tq.push(p.tq);
        }
        table.row([
            label.to_string(),
            fmt_f(tq.mean(), 4),
            "1 + 1/2^Ω(b)".to_string(),
            fmt_f(tu.mean(), 4),
            "1 + O(1/b)".to_string(),
            fmt_f(theorem1_tu_lower(b, 2.0), 3),
        ]);
    }
    println!("Figure 1 reproduction: b = {b}, m = {m}, n = {n}, {} trials", args.trials);
    println!("(expectations are SHAPE, constants fixed at 1)");
    emit("query-insertion tradeoff (Figure 1)", &table, &args, "fig1_tradeoff.csv");

    // The crossover story in one line: who gets to insert in o(1)?
    println!(
        "\nReading: chaining sits at (≈1, ≈1); the bootstrapped points trace the\n\
         c<1 frontier (tq→1 as tu→1 like b^(c−1)); the log-method buys tu = o(1)\n\
         at tq = Θ(log(n/m)) — exactly the paper's Figure 1."
    );
}
