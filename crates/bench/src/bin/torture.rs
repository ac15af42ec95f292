//! **Recovery torture** — seed-reproducible crash-recovery runs of the
//! persistent store on the crash-simulation environment.
//!
//! Every seed runs in both store modes: raw words, and payload bytes
//! through `put_bytes`/`get_bytes` over the blob log. For each seed and
//! mode: one crash-free lifecycle (churn prefix with periodic syncs →
//! final sync → unsynced tail → compact) to locate the commit windows,
//! then a crash at **every** I/O index of the final sync (from the
//! prefix's last insert — in a payload run an overwrite of a committed
//! payload, so its blob append is in it) and of the compaction (a
//! payload run's blob-log rewrite), plus
//! crashes scattered across the rest of the lifecycle. Each crash is
//! followed by power-cycle, reopen, and the full invariant battery
//! (byte-exact synced-state durability, no phantoms, orphan accounting
//! of level files and blob logs, compaction round-trip, continued
//! usability, durability-trace conformance).
//!
//! Any violation prints the failing seed, mode and crash index — rerun
//! with `--seed <seed>` to replay both modes exactly (runs are
//! deterministic down to the I/O trace) — and the process exits
//! non-zero.
//!
//! Output: an aligned table and `results/torture.csv`.
//!
//! Run: `cargo run -p dxh-bench --release --bin torture [--quick]
//! [--seeds N] [--seed S]`

use std::time::Instant;

use dxh_analysis::{table::fmt_f, TextTable};
use dxh_bench::{emit, ExpArgs};
use dxh_workloads::torture::{torture_run, TortureReport, TortureSpec};

struct SeedRow {
    seed: u64,
    payloads: bool,
    total_ops: u64,
    swept: u64,
    scattered: u64,
    violations: usize,
    wall_ms: f64,
}

/// Accepts both the decimal and the `0x…` form — the table below prints
/// seeds in hex, and replaying one must work by copy-paste.
fn parse_seed(s: &str) -> u64 {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("--seed takes a number (decimal or 0x-hex), got {s:?}"))
}

fn main() {
    let args = ExpArgs::parse();
    let seeds: Vec<u64> = if let Some(s) = args.get("seed") {
        vec![parse_seed(s)]
    } else {
        let n: u64 = args
            .get("seeds")
            .map(|v| v.parse().expect("--seeds takes a number"))
            .unwrap_or(args.scale(16, 4) as u64);
        (0..n).map(|i| 0xBAD5_EED0u64.wrapping_add(i.wrapping_mul(0x9e37_79b9))).collect()
    };

    let mut rows = Vec::new();
    let mut failures: Vec<(bool, TortureReport)> = Vec::new();
    for spec in seeds.iter().flat_map(|&s| [TortureSpec::small(s), TortureSpec::small_payload(s)]) {
        let (seed, payloads) = (spec.seed, spec.payloads);
        let t0 = Instant::now();
        let clean = torture_run(&spec, None);
        let mut violations = clean.violations.len();
        if !clean.violations.is_empty() {
            failures.push((payloads, clean.clone()));
        }
        let Some(m) = clean.markers else {
            rows.push(SeedRow {
                seed,
                payloads,
                total_ops: 0,
                swept: 0,
                scattered: 0,
                violations,
                wall_ms: ms(t0),
            });
            continue;
        };
        // Exhaustive over both commit windows.
        let mut swept = 0u64;
        for k in (m.final_sync.0..m.final_sync.1).chain(m.compact.0..m.compact.1) {
            let r = torture_run(&spec, Some(k));
            swept += 1;
            if !r.violations.is_empty() {
                violations += r.violations.len();
                failures.push((payloads, r));
            }
        }
        // Scattered across the rest of the lifecycle.
        let points = args.scale(48, 12) as u64;
        let mut scattered = 0u64;
        for p in 0..points {
            let k = (p * m.total_ops) / points;
            if (m.final_sync.0..m.final_sync.1).contains(&k)
                || (m.compact.0..m.compact.1).contains(&k)
            {
                continue; // already swept exhaustively
            }
            let r = torture_run(&spec, Some(k));
            scattered += 1;
            if !r.violations.is_empty() {
                violations += r.violations.len();
                failures.push((payloads, r));
            }
        }
        rows.push(SeedRow {
            seed,
            payloads,
            total_ops: m.total_ops,
            swept,
            scattered,
            violations,
            wall_ms: ms(t0),
        });
    }

    let mut table = TextTable::new([
        "seed",
        "mode",
        "lifecycle I/Os",
        "window crashes",
        "scattered",
        "violations",
        "ms",
    ]);
    for r in &rows {
        table.row([
            format!("{:#x}", r.seed),
            (if r.payloads { "payload" } else { "raw" }).to_string(),
            r.total_ops.to_string(),
            r.swept.to_string(),
            r.scattered.to_string(),
            r.violations.to_string(),
            fmt_f(r.wall_ms, 1),
        ]);
    }
    println!(
        "Recovery torture: {} seed(s) in both modes, exhaustive sync+compact windows, {} crashes \
         total",
        seeds.len(),
        rows.iter().map(|r| r.swept + r.scattered).sum::<u64>()
    );
    emit("Crash-recovery torture sweep", &table, &args, "torture.csv");

    if !failures.is_empty() {
        eprintln!("\n{} violating run(s):", failures.len());
        for (payloads, f) in failures.iter().take(10) {
            eprintln!(
                "  seed {:#x} ({}) crash_at {:?}: {}",
                f.seed,
                if *payloads { "payload" } else { "raw" },
                f.crash_at,
                f.violations.first().map(String::as_str).unwrap_or("?")
            );
            eprintln!(
                "    replay: cargo run -p dxh-bench --release --bin torture -- --seed {}",
                f.seed
            );
        }
        std::process::exit(1);
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
