//! Interactive Figure-1 explorer: sweep the tradeoff exponent `c` on
//! your own parameters and see where each configuration lands on the
//! query–insertion plane, next to the paper's bound curves.
//!
//! Run: `cargo run --release --example tradeoff_explorer -- [b] [m] [n]`
//! (defaults: b = 64, m = 1024, n = 100000)

use dyn_ext_hash::analysis::{theorem1_tu_lower, theorem2_tq_upper, theorem2_tu_upper};
use dyn_ext_hash::core::{DynamicHashTable, ExternalDictionary, TradeoffTarget};
use dyn_ext_hash::hashfn::SplitMix64;
use dyn_ext_hash::workloads::measure_tq;

fn measure(target: TradeoffTarget, b: usize, m: usize, n: usize) -> (f64, f64) {
    let mut table = DynamicHashTable::for_target(target, b, m, 1234).expect("build");
    let mut rng = SplitMix64::new(5);
    let mut keys = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::with_capacity(n);
    while keys.len() < n {
        let k = rng.next_u64() >> 1;
        if seen.insert(k) {
            table.insert(k, k).expect("insert");
            keys.push(k);
        }
    }
    let tu = table.total_ios() as f64 / n as f64;
    let tq = measure_tq(&mut table, &keys, 2000, 6).expect("tq");
    (tu, tq)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let b: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(64);
    let m: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1024);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(100_000);
    println!("tradeoff explorer: b = {b}, m = {m}, n = {n}\n");
    println!(
        "{:<22} {:>9} {:>9}   {:>12} {:>12} {:>12}",
        "configuration", "tq", "tu", "tq bound", "tu upper", "tu lower"
    );

    let (tu, tq) = measure(TradeoffTarget::QueryOptimal, b, m, n);
    println!(
        "{:<22} {:>9.4} {:>9.4}   {:>12} {:>12} {:>12.4}",
        "chaining (c>1)",
        tq,
        tu,
        "1+2^-Ω(b)",
        "1+2^-Ω(b)",
        theorem1_tu_lower(b, 2.0)
    );
    for c in [0.25, 0.4, 0.5, 0.6, 0.75, 0.9] {
        let (tu, tq) = measure(TradeoffTarget::InsertOptimal { c }, b, m, n);
        println!(
            "{:<22} {:>9.4} {:>9.4}   {:>12.4} {:>12.4} {:>12.4}",
            format!("bootstrapped c={c}"),
            tq,
            tu,
            theorem2_tq_upper(b, c),
            theorem2_tu_upper(b, c),
            theorem1_tu_lower(b, c)
        );
    }
    let (tu, tq) = measure(TradeoffTarget::LogMethod { gamma: 2 }, b, m, n);
    println!(
        "{:<22} {:>9.4} {:>9.4}   {:>12} {:>12} {:>12}",
        "log-method γ=2", tq, tu, "Θ(log n/m)", "o(1)", "-"
    );
    println!(
        "\nAs c grows, tq approaches 1 like 1 + 1/b^c while tu climbs like\n\
         b^(c-1) toward the chaining point — walking along Figure 1's frontier.\n\
         (Bound columns fix all hidden constants to 1.)"
    );
}
