//! **A1/A2/A3/A5** — ablations of the design choices docs/ARCHITECTURE.md
//! walks through (buffering, hash family, I/O pricing, memory size).
//!
//! * `--which cache` (A1): generic buffering (an LRU pool in front of the
//!   standard chaining table) versus the paper's structural buffering at
//!   equal memory. Theorem 1 says a structure with `tq ≈ 1` cannot insert
//!   in `o(1)` no matter how the memory is used — the pool rows show `tu`
//!   no better than the uncached row's (the run panics if one is below
//!   it) while the bootstrapped table (same memory) escapes. A pooled
//!   table runs on `Disk<Cached<MemDisk>>`; its `tu` and `tq` are the
//!   transfers behind the cache, counted on the inner disk.
//! * `--which hashfn` (A2): the ideal-hash assumption stress-tested —
//!   chaining costs under ideal / universal / multiply-shift / tabulation
//!   families on sequential keys.
//! * `--which costmodel` (A3): footnote 2 sensitivity — one bootstrapped
//!   and one chaining run, each priced as footnote 2 counts
//!   (`IoSnapshot::total`) and as the literal transfers
//!   (`IoSnapshot::transfers`).
//! * `--which memory` (A5): the bootstrapped, log-method and chaining
//!   tables across internal memory sizes `m` — the buffered tables'
//!   `tu` falls as `m` grows, chaining's stays near 1.
//!
//! With no `--which`, all four run.
//!
//! Run: `cargo run -p dxh-bench --release --bin exp_ablation -- [--which cache|hashfn|costmodel|memory]`

use dxh_analysis::{table::fmt_f, TextTable};
use dxh_bench::{emit, insert_uniform, ExpArgs};
use dxh_core::{BootstrappedTable, CoreConfig, ExternalDictionary};
use dxh_extmem::{mem_disk, Cached, Disk, IoCostModel, IoSnapshot, StorageBackend};
use dxh_hashfn::{
    HashFamily, IdealFamily, IdealFn, MultiplyShiftFamily, TabulationFamily, UniversalFamily,
};
use dxh_tables::{ChainingConfig, ChainingTable};
use dxh_workloads::measure_tq;
use rand::SeedableRng;

/// `(tu, tq)` of a chaining table over `n` uniform keys, counted on the
/// transfers `io` reads off it: the table's own disk, or the disk behind
/// its cache.
fn chaining_costs<B: StorageBackend>(
    table: &mut ChainingTable<IdealFn, B>,
    n: usize,
    samples: usize,
    io: impl Fn(&ChainingTable<IdealFn, B>) -> IoSnapshot,
) -> (f64, f64) {
    let e = io(table);
    let keys = insert_uniform(table, n, 2).unwrap();
    table.disk_mut().flush().unwrap();
    let tu = io(table).since(&e).total() as f64 / n as f64;
    // `measure_tq` samples the lookups; its own figure counts the table's
    // disk, which behind a cache is accesses, not transfers.
    let e = io(table);
    measure_tq(table, &keys, samples, 3).unwrap();
    let tq = io(table).since(&e).total() as f64 / samples as f64;
    (tu, tq)
}

fn ablation_cache(args: &ExpArgs) {
    let b = 64;
    let m = 2048;
    let n = args.scale(100_000, 12_000);
    let samples = args.scale(2000, 400);
    let mut t = TextTable::new([
        "configuration",
        "memory (items)",
        "tu (meas)",
        "tq (meas)",
        "pool hit rate",
    ]);
    let mut cfg = ChainingConfig::fixed(b, m, (2 * n / b) as u64);
    cfg.max_load = f64::INFINITY;
    // No cache: the table's own disk counts the transfers.
    let mut plain = ChainingTable::new(cfg.clone(), IdealFn::from_seed(1)).unwrap();
    let (tu_plain, tq) = chaining_costs(&mut plain, n, samples, |t| t.disk_stats());
    t.row([
        "chaining + LRU×0".to_string(),
        "0".into(),
        fmt_f(tu_plain, 4),
        fmt_f(tq, 4),
        "-".into(),
    ]);
    // LRU pools of growing size (budgeted out of m) in front of the same
    // table: the transfers are the counters of the disk behind the cache.
    for frames in [8usize, 16, 24] {
        let inner = mem_disk(b);
        let disk = Disk::new(Cached::new(inner, frames), b, IoCostModel::SeekDominated);
        let mut table = ChainingTable::with_disk(disk, cfg.clone(), IdealFn::from_seed(1)).unwrap();
        let (tu, tq) =
            chaining_costs(&mut table, n, samples, |t| t.disk().backend().disk().epoch());
        assert!(
            tu >= tu_plain,
            "A1: LRU×{frames} inserts at tu = {tu:.4}, below the uncached {tu_plain:.4}: \
             a generic cache beat Theorem 1"
        );
        t.row([
            format!("chaining + LRU×{frames}"),
            (frames * b).to_string(),
            fmt_f(tu, 4),
            fmt_f(tq, 4),
            fmt_f(table.disk().backend().pool_stats().hit_ratio(), 3),
        ]);
    }
    // The paper's structural buffering at the same memory budget.
    let cfg = CoreConfig::theorem2(b, m, 0.5).unwrap();
    let mut boot = BootstrappedTable::new(cfg, 4).unwrap();
    let keys = insert_uniform(&mut boot, n, 5).unwrap();
    let tu = boot.total_ios() as f64 / n as f64;
    let tq = measure_tq(&mut boot, &keys, samples, 6).unwrap();
    t.row([
        "bootstrapped (β=√b)".to_string(),
        boot.memory_used().to_string(),
        fmt_f(tu, 4),
        fmt_f(tq, 4),
        "-".to_string(),
    ]);
    println!(
        "A1: a generic cache cannot beat Theorem 1. Uniform keys have no reuse\n\
         locality, so hits are rare; worse, a write-back pool UN-FUSES the\n\
         insert's read-modify-write into a miss-read plus a much-later dirty\n\
         eviction write — two seeks under the paper's accounting — so tu gets\n\
         WORSE, not better. Structural buffering at the same memory reaches\n\
         o(1) by paying a 1/β slice of tq instead."
    );
    emit("A1 — generic cache vs structural buffering", &t, args, "exp_ablation_cache.csv");
}

fn run_family<F: HashFamily>(
    family: &F,
    b: usize,
    n: usize,
    samples: usize,
    sequential: bool,
    seed: u64,
) -> (f64, f64)
where
    F::Fn: 'static,
{
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let hash = family.sample(&mut rng);
    let cfg = ChainingConfig::fixed(b, 4 * b + 64, (2 * n / b) as u64);
    let mut t = ChainingTable::new(cfg, hash).unwrap();
    let keys: Vec<u64> = if sequential {
        // Sequential keys: the adversarial-but-realistic input that weak
        // families mishandle.
        (0..n as u64).collect()
    } else {
        let mut rng = dxh_hashfn::SplitMix64::new(seed ^ 1);
        (0..n).map(|_| rng.next_u64() >> 1).collect()
    };
    let e = t.disk_stats();
    for &k in &keys {
        t.insert(k, k).unwrap();
    }
    let tu = t.disk_stats().since(&e).total() as f64 / n as f64;
    let tq = measure_tq(&mut t, &keys, samples, seed ^ 2).unwrap();
    (tu, tq)
}

/// Linear hashing uses mask (low-bit) reduction — the configuration where
/// multiply-shift's documented low-bit weakness becomes visible on strided
/// keys (stride-64 keys × odd multiplier ⇒ low 6 hash bits are constant).
fn run_family_masked<F: HashFamily>(
    family: &F,
    b: usize,
    n: usize,
    samples: usize,
    seed: u64,
) -> (f64, f64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let hash = family.sample(&mut rng);
    let cfg = dxh_tables::LinearHashConfig::new(b, 1 << 16);
    let mut t = dxh_tables::LinearHashTable::new(cfg, hash).unwrap();
    let keys: Vec<u64> = (0..n as u64).map(|i| i * 64).collect();
    let e = t.disk_stats();
    for &k in &keys {
        t.insert(k, k).unwrap();
    }
    let tu = t.disk_stats().since(&e).total() as f64 / n as f64;
    let tq = measure_tq(&mut t, &keys, samples, seed ^ 2).unwrap();
    (tu, tq)
}

fn ablation_hashfn(args: &ExpArgs) {
    let b = 32;
    let n = args.scale(60_000, 8_000);
    let samples = args.scale(2000, 400);
    let mut t = TextTable::new(["family", "reduction", "keys", "tu (meas)", "tq (meas)"]);
    // Prefix (high-bit) reduction: the workspace default (chaining).
    for sequential in [true, false] {
        let kind = if sequential { "sequential" } else { "random" };
        let (tu, tq) = run_family(&IdealFamily, b, n, samples, sequential, 11);
        t.row(["ideal".to_string(), "prefix".into(), kind.into(), fmt_f(tu, 4), fmt_f(tq, 4)]);
        let (tu, tq) = run_family(&UniversalFamily, b, n, samples, sequential, 12);
        t.row(["universal".to_string(), "prefix".into(), kind.into(), fmt_f(tu, 4), fmt_f(tq, 4)]);
        let (tu, tq) = run_family(&MultiplyShiftFamily, b, n, samples, sequential, 13);
        t.row([
            "multiply-shift".to_string(),
            "prefix".into(),
            kind.into(),
            fmt_f(tu, 4),
            fmt_f(tq, 4),
        ]);
        let (tu, tq) = run_family(&TabulationFamily, b, n, samples, sequential, 14);
        t.row(["tabulation".to_string(), "prefix".into(), kind.into(), fmt_f(tu, 4), fmt_f(tq, 4)]);
    }
    // Mask (low-bit) reduction on strided keys: the failure mode.
    let n_masked = args.scale(4000, 1500);
    let (tu, tq) = run_family_masked(&IdealFamily, b, n_masked, samples.min(500), 15);
    t.row(["ideal".to_string(), "mask".into(), "stride-64".into(), fmt_f(tu, 4), fmt_f(tq, 4)]);
    let (tu, tq) = run_family_masked(&MultiplyShiftFamily, b, n_masked, samples.min(500), 16);
    t.row([
        "multiply-shift".to_string(),
        "mask".into(),
        "stride-64".into(),
        fmt_f(tu, 4),
        fmt_f(tq, 4),
    ]);
    println!(
        "A2: the ideal-hash assumption in practice. With prefix (high-bit)\n\
         reduction every family behaves near-ideally even on sequential keys —\n\
         the Mitzenmacher–Vadhan justification the paper cites. The mask rows\n\
         show the documented exception: multiply-shift's low bits collapse on\n\
         strided keys (tq and tu explode), while the ideal family shrugs."
    );
    emit("A2 — hash-family sensitivity", &t, args, "exp_ablation_hashfn.csv");
}

fn ablation_costmodel(args: &ExpArgs) {
    let b = 64;
    let m = 1024;
    let n = args.scale(100_000, 12_000);
    let mut boot = BootstrappedTable::new(CoreConfig::theorem2(b, m, 0.5).unwrap(), 21).unwrap();
    insert_uniform(&mut boot, n, 22).unwrap();
    let ccfg = ChainingConfig::fixed(b, m, (2 * n / b) as u64);
    let mut chain = ChainingTable::new(ccfg, dxh_hashfn::IdealFn::from_seed(23)).unwrap();
    insert_uniform(&mut chain, n, 24).unwrap();
    // One run per structure, priced both ways: `total` is footnote 2's
    // count, `transfers` the literal one.
    let runs = [("bootstrapped c=0.5", boot.disk_stats()), ("chaining", chain.disk_stats())];
    let mut t = TextTable::new(["structure", "model", "tu", "reads", "writes", "rmws"]);
    for (label, price) in [
        ("seek-dominated (paper)", IoSnapshot::total as fn(&IoSnapshot) -> u64),
        ("strict", IoSnapshot::transfers),
    ] {
        for (structure, s) in &runs {
            t.row([
                structure.to_string(),
                label.to_string(),
                fmt_f(price(s) as f64 / n as f64, 4),
                s.reads.to_string(),
                s.writes.to_string(),
                s.rmws.to_string(),
            ]);
        }
    }
    println!(
        "A3: footnote 2 sensitivity — strict accounting doubles the chaining\n\
         table's insert cost (its work is all read-modify-write) but barely\n\
         moves the bootstrapped table (its work is streaming reads + writes),\n\
         so the paper's qualitative story is accounting-convention-proof."
    );
    emit("A3 — I/O cost model sensitivity", &t, args, "exp_ablation_costmodel.csv");
}

fn ablation_memory(args: &ExpArgs) {
    let b = 64;
    let n = args.scale(100_000, 12_000);
    let samples = args.scale(1500, 400);
    let mut t = TextTable::new([
        "m (items)",
        "n/m",
        "boot tu",
        "boot tq",
        "log tu",
        "log tq",
        "chain tu (ref)",
    ]);
    for m in [768usize, 1536, 3072, 6144, 12288] {
        // Bootstrapped at c = 0.5.
        let cfg = CoreConfig::theorem2(b, m, 0.5).unwrap();
        let mut boot = BootstrappedTable::new(cfg, 51).unwrap();
        let keys = insert_uniform(&mut boot, n, 52).unwrap();
        let boot_tu = boot.total_ios() as f64 / n as f64;
        let boot_tq = measure_tq(&mut boot, &keys, samples, 53).unwrap();
        // Log-method.
        let cfg = CoreConfig::lemma5(b, m, 2).unwrap();
        let mut log = dxh_core::LogMethodTable::new(cfg, 54).unwrap();
        let keys = insert_uniform(&mut log, n, 55).unwrap();
        let log_tu = log.total_ios() as f64 / n as f64;
        let log_tq = measure_tq(&mut log, &keys, samples, 56).unwrap();
        // Chaining reference (memory-insensitive: the paper's point).
        let ccfg = ChainingConfig::fixed(b, m, (2 * n / b) as u64);
        let mut chain = ChainingTable::new(ccfg, dxh_hashfn::IdealFn::from_seed(57)).unwrap();
        insert_uniform(&mut chain, n, 58).unwrap();
        let chain_tu = chain.total_ios() as f64 / n as f64;
        t.row([
            m.to_string(),
            fmt_f(n as f64 / m as f64, 0),
            fmt_f(boot_tu, 4),
            fmt_f(boot_tq, 4),
            fmt_f(log_tu, 4),
            fmt_f(log_tq, 4),
            fmt_f(chain_tu, 4),
        ]);
    }
    println!(
        "A5: memory sweep — buffered structures improve as m grows (fewer\n\
         levels, bigger batches: the log(n/m) factor shrinks), while the\n\
         standard table cannot use the extra memory at all (Theorem 1's\n\
         point: its tu is pinned at ≈ 1 regardless of m)."
    );
    emit("A5 — internal memory sweep", &t, args, "exp_ablation_memory.csv");
}

fn main() {
    let args = ExpArgs::parse();
    match args.get("which") {
        Some("cache") => ablation_cache(&args),
        Some("hashfn") => ablation_hashfn(&args),
        Some("costmodel") => ablation_costmodel(&args),
        Some("memory") => ablation_memory(&args),
        _ => {
            ablation_cache(&args);
            ablation_hashfn(&args);
            ablation_costmodel(&args);
            ablation_memory(&args);
        }
    }
}
