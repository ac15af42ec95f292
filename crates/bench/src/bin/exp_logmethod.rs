//! **L5** — Lemma 5: the logarithmic method.
//!
//! Sweeps the growth factor `γ`, measuring amortized insertion cost
//! against `O((γ/b)·log(n/m))` and lookup cost against
//! `O(log_γ(n/m))`. Also reports the number of active levels — the
//! quantity the query bound counts — and the level-filter plan with its
//! designed and measured false-positive rates, which is why the measured
//! `tq` sits below that count. Beside the measured `tu` stands the one
//! `dxh_analysis::carry_census` predicts — the bound with its constant,
//! over primary blocks — and the blocks each level was built with:
//! sized by its content at the sealed fill (48 of 64 items a block),
//! with the chain blocks of the ≈ 1 % of buckets that overflow after a
//! `+`.
//!
//! Beside the measured `tq` stands the one the deviation note in
//! `dxh_core::log_method` predicts from the table's own occupancy and
//! filters: a key in `H_k` costs one read plus, for every non-empty
//! level above it, that level's designed false-positive rate (1 for a
//! level without a filter), averaged over where the looked-up keys live.
//!
//! A second table runs the benchmark's shard geometry, `b = 64`,
//! `m = 4096`, `γ = 2`, where four levels own a filter share each,
//! sized in proportion to its level's capacity, and lend it to a deeper
//! level while their own is empty: per level, the items it holds (own
//! share + loans), its bits a key and probes, the false-positive rate
//! they are designed for at the level's item count and the rate measured
//! over the lookups of present and of absent keys.
//!
//! Gates (the CI smoke runs `--quick`, the nightly the full size). At
//! `γ = 2`: the measured `tu` must stay within 1.05× of the unit-constant
//! bound — every level a static table at the sealed fill sits at 0.94×,
//! a full-geometry `H1` merged into in place at 1.10×, the deeper levels
//! at load 1/2 as well at 1.38×, every level at the full geometry at
//! 1.68×, a migration that writes its items twice on the way down near
//! 2.9× — and the measured `tq` must stay within 1.05× of the predicted
//! one; filters that are not built, or not consulted, read every level
//! above the key. At the deployed geometry the same `tq` gate holds, and
//! every level's measured false-positive rate must stay within 1.5× of
//! what it holds is designed for (+10⁻⁴): a filter smaller than it says,
//! segments that are not independent, or a count it was not sized for,
//! lets through more.
//!
//! Run: `cargo run -p dxh-bench --release --bin exp_logmethod [--quick]`

use dxh_analysis::{
    carry_census, lemma5_tq, lemma5_tu, stats::RunningStats, table::fmt_f, TextTable,
};
use dxh_bench::{emit, insert_uniform, ExpArgs};
use dxh_core::{CoreConfig, ExternalDictionary, FilterStats, LogMethodTable};
use dxh_workloads::{measure_tq, measure_tq_unsuccessful, parallel_trials};

fn main() {
    let args = ExpArgs::parse();
    let b = 64;
    let m = 1024;
    let n = args.scale(150_000, 15_000);
    let samples = args.scale(2500, 500);

    let mut table = TextTable::new([
        "γ",
        "tu (meas)",
        "tu (model)",
        "tu bound (γ/b·log₂(n/m))",
        "tq (meas)",
        "tq (model)",
        "tq bound (log_γ(n/m))",
        "levels",
        "filtered",
        "H1 bits/key",
        "H1 probes",
        "fp (design)",
        "fp (meas)",
        "blocks H1/H2/…",
    ]);
    let (mut tu_at_gamma_2, mut tq_at_gamma_2) = (f64::NAN, (f64::NAN, f64::NAN));
    for gamma in [2u64, 4, 8, 16] {
        let cfg = CoreConfig::lemma5(b, m, gamma).unwrap();
        let rows = parallel_trials(args.trials, 0x109, |seed| {
            let mut t = LogMethodTable::new(cfg.clone(), seed).unwrap();
            let keys = insert_uniform(&mut t, n, seed).unwrap();
            let tu = t.total_ios() as f64 / n as f64;
            let tq = measure_tq(&mut t, &keys, samples, seed ^ 7).unwrap();
            let fp = t.filter_stats().false_positive_rate();
            let blocks = t.level_geometry().into_iter().zip(t.level_chain_blocks().unwrap());
            let blocks = blocks.collect::<Vec<_>>();
            (tu, (tq, tq_model(&t)), t.active_levels(), fp, t.filter_plan().clone(), blocks)
        });
        let mut tu = RunningStats::new();
        let (mut tq, mut tq_pred) = (RunningStats::new(), RunningStats::new());
        let mut lv = RunningStats::new();
        let mut fp = RunningStats::new();
        // The plan is a function of (b, m, γ), the primaries of (b, m, γ,
        // n) for distinct keys: the same in every trial. Which buckets
        // chain is the hash function's draw: the first trial's are shown.
        let plan = rows[0].4.clone();
        let blocks: Vec<String> = rows[0].5[1..]
            .iter()
            .map(|&((_, primaries), chains)| match chains {
                0 => primaries.to_string(),
                _ => format!("{primaries}+{chains}"),
            })
            .collect();
        for (a, (q, pred), l, f, ..) in rows {
            tu.push(a);
            tq.push(q);
            tq_pred.push(pred);
            lv.push(l as f64);
            fp.push(f);
        }
        if gamma == 2 {
            (tu_at_gamma_2, tq_at_gamma_2) = (tu.mean(), (tq.mean(), tq_pred.mean()));
        }
        table.row([
            gamma.to_string(),
            fmt_f(tu.mean(), 4),
            fmt_f(carry_census(b, m, gamma, cfg.sealed_fill(), n).ios() as f64 / n as f64, 4),
            fmt_f(lemma5_tu(b, gamma, n, m), 4),
            fmt_f(tq.mean(), 3),
            fmt_f(tq_pred.mean(), 3),
            fmt_f(lemma5_tq(gamma, n, m), 3),
            fmt_f(lv.mean(), 1),
            plan.levels().to_string(),
            fmt_f(plan.bits_per_key(1), 2),
            plan.probes(1).to_string(),
            fmt_f(plan.designed_fp(1), 4),
            fmt_f(fp.mean(), 4),
            blocks.join("/"),
        ]);
    }
    println!(
        "Lemma 5 (logarithmic method): b = {b}, m = {m}, n = {n}, {} trials.\n\
         Bound constants fixed at 1. A flush carries every level it would\n\
         overflow, and the first one with room, into a fresh build of that\n\
         one as a single merge (see docs/ARCHITECTURE.md, step 5): a source\n\
         block is read once, a destination block written once, and every\n\
         level is a static table: ⌈x/λ⌉ buckets for its x items at the\n\
         sealed fill λ = 48 of b = 64 (CoreConfig::sealed_fill), not the full\n\
         γ^k·m/b at load 1/2 (last column: primaries+chain blocks of the first\n\
         trial), so measured tu stays within 1.05× of the unit-constant bound\n\
         at γ = 2 (gated under --quick) and scales the same way in γ, b, and\n\
         n/m. tu (model) is the same walk as arithmetic over primaries\n\
         (dxh_analysis::carry_census): at every γ the measured tu exceeds it\n\
         by exactly the chain blocks, each written once and read once. tq is\n\
         no longer the level occupancy at snapshot time: the idle part of m\n\
         holds a Bloom filter for H1 (all that fits beside a carry's buffers\n\
         at this m; filtered, bits/key and probes are H1's plan), so a\n\
         lookup reads the level that holds its key, every occupied unfiltered\n\
         level above it (and the chain block of a chained bucket it misses\n\
         in), and H1 only when its filter lets the key through (measured fp\n\
         sits under the designed rate while H1 is short of its capacity).\n\
         tq (model) is that sum over the table's own levels and filters,\n\
         averaged over where the keys live; tq at γ = 2 is gated at 1.05×\n\
         it.",
        args.trials
    );
    emit("logarithmic method (Lemma 5)", &table, &args, "exp_logmethod.csv");
    deployed_filters(&args);

    let bound = lemma5_tu(b, 2, n, m);
    assert!(
        tu_at_gamma_2 <= 1.05 * bound,
        "γ = 2: measured tu {tu_at_gamma_2:.4} is {:.2}× the Lemma 5 bound {bound:.4} (gate: 1.05×) \
         — is a level built at load 1/2 or the full geometry, merged into in place, or a \
         migration writing its items more than once per level?",
        tu_at_gamma_2 / bound
    );
    assert_tq_within_model("γ = 2", tq_at_gamma_2);
}

/// Gates a measured `tq` against [`tq_model`]'s prediction, `(measured,
/// predicted)`: at most 1.05× — the chain blocks of the ≈ 1 % of buckets
/// that overflow, and sampling, are the margin.
fn assert_tq_within_model(when: &str, (measured, predicted): (f64, f64)) {
    assert!(
        measured <= 1.05 * predicted,
        "{when}: measured tq {measured:.3} is {:.3}× the model's {predicted:.3} (gate: 1.05×) — \
         are the level filters built by every merge and consulted by every probe?",
        measured / predicted
    );
}

/// The expected cost of looking up a key `t` holds, by the deviation
/// note in `dxh_core::log_method`: a key in `H_k` costs `1 + Σ fp_j`
/// over the non-empty levels `j < k`, where `fp_j` is the false-positive
/// rate `H_j`'s filter is designed for at its item count and 1 for a
/// level without one; a key in `H0` costs nothing. Averaged over where
/// the keys live — every key once, as for distinct keys.
fn tq_model(t: &LogMethodTable) -> f64 {
    let (items, held) = (t.level_items(), t.level_filter_held());
    let (mut above, mut total) = (0.0, 0.0);
    for (k, &count) in items.iter().enumerate().skip(1).filter(|&(_, &count)| count > 0) {
        total += count as f64 * (1.0 + above);
        above += held[k - 1].designed_fp;
    }
    total / items.iter().sum::<usize>() as f64
}

/// The benchmark's shard geometry, `lemma5(64, 4096, 2)`: four filtered
/// levels. Loads `n` distinct keys — at 48 000, 23 flushes of `H0` leave
/// `H1 … H4` holding 2, 3, 6 and 12 `H0`s of their capacities' 2, 4, 8
/// and 16, each with its own share; at 125 000, the size of one shard of
/// the benchmark's `lookup`, 61 flushes leave `H1`, `H4` and an
/// unfiltered `H6`, with the shares of empty `H3` and `H2` on loan to
/// `H4` (609 + 489 + 166 items) — then looks
/// up present and absent keys, and holds each level's measured
/// false-positive rate to the one what it holds is designed for.
fn deployed_filters(args: &ExpArgs) {
    let (b, m, gamma) = (64, 4096, 2);
    let n = args.scale(125_000, 48_000);
    let samples = args.scale(100_000, 20_000);
    let cfg = CoreConfig::lemma5(b, m, gamma).unwrap();
    let rows = parallel_trials(args.trials, 0x4096, |seed| {
        let mut t = LogMethodTable::new(cfg.clone(), seed).unwrap();
        let keys = insert_uniform(&mut t, n, seed).unwrap();
        let tq = (measure_tq(&mut t, &keys, samples, seed ^ 7).unwrap(), tq_model(&t));
        let tq_miss = measure_tq_unsuccessful(&mut t, samples, seed ^ 11).unwrap();
        let stats = t.level_filter_stats().to_vec();
        (tq, tq_miss, t.level_items(), stats, t.level_filter_held(), t.filter_plan().clone())
    });
    // The plan is a function of (b, m, γ), and the occupancy and what each
    // filter holds of (b, m, γ, n): the same in every trial. The counts
    // are pooled.
    let (items, held, plan) = (rows[0].2.clone(), rows[0].4.clone(), rows[0].5.clone());
    let (mut tq, mut tq_pred, mut tq_miss) =
        (RunningStats::new(), RunningStats::new(), RunningStats::new());
    for ((q, pred), miss, ..) in &rows {
        tq.push(*q);
        tq_pred.push(*pred);
        tq_miss.push(*miss);
    }
    let mut table = TextTable::new([
        "level",
        "items / capacity",
        "held (own + lent)",
        "bits/key",
        "probes",
        "fp (design)",
        "fp (meas)",
        "probes ruled on",
    ]);
    let mut over = Vec::new();
    let deepest_held = held.iter().rposition(|h| h.items() > 0).map_or(0, |i| i + 1);
    for k in 1..=plan.levels().max(deepest_held) {
        let stats: FilterStats = rows.iter().map(|r| r.3[k - 1]).sum();
        let (h, keys) = (held[k - 1], items.get(k).copied().unwrap_or(0));
        let (designed, measured) = (h.designed_fp, stats.false_positive_rate());
        let ruled_on = stats.skipped + stats.false_positives;
        let unprobed = k <= plan.levels() && keys > 0 && ruled_on == 0;
        if unprobed || h.items() > 0 && measured > 1.5 * designed + 1e-4 {
            over.push(format!("H{k}: measured {measured:.4} over {ruled_on} probes"));
        }
        table.row([
            format!("H{k}"),
            format!("{keys} / {}", cfg.level_capacity(k as u32)),
            format!("{} + {}", h.own, h.loaned),
            fmt_f((h.items() * 128) as f64 / keys.max(1) as f64, 2),
            h.probes.to_string(),
            fmt_f(designed, 4),
            fmt_f(measured, 4),
            ruled_on.to_string(),
        ]);
    }
    let designed_sum: f64 = (1..=plan.levels()).map(|k| plan.designed_fp(k)).sum();
    println!(
        "\nLevel filters at the benchmark's shard geometry: b = {b}, m = {m}, γ = {gamma},\n\
         n = {n}, {} trials. Each filtered level owns a share of the idle\n\
         memory, its false-positive rate designed in proportion to its\n\
         capacity (Monkey): Σ fp = {designed_sum:.3} with every level full, in {} of the\n\
         {} idle items. While a level is empty its share is lent to a deeper\n\
         one (held = own + lent items; bits/key and probes over every segment,\n\
         fp (design) their product at the level's item count). fp (meas)\n\
         pools the probes of the levels above a present key and of every\n\
         level for an absent one (tq = {:.3} against the model's {:.3},\n\
         tq (absent) = {:.3}). Gated: fp (meas) ≤ 1.5 × fp (design) + 1e-4\n\
         on every level holding a filter, and tq ≤ 1.05 × the model's.",
        args.trials,
        plan.items_from(1),
        m - cfg.h0_capacity() - (4 * b + 16),
        tq.mean(),
        tq_pred.mean(),
        tq_miss.mean()
    );
    emit("level filters at lemma5(64, 4096, 2)", &table, args, "exp_logmethod_filters.csv");
    assert_eq!(plan.levels(), 4, "the deployed geometry filters four levels");
    assert!(
        over.is_empty(),
        "a level filter lets through more than 1.5× its designed rate, or a filtered level was \
         never probed: {}",
        over.join("; ")
    );
    assert_tq_within_model("the deployed geometry", (tq.mean(), tq_pred.mean()));
}
