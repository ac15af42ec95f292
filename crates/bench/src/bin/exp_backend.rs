//! **Backend sweep** — the Figure-1 tradeoff targets on a real file.
//!
//! The paper's bounds are statements about accounted block transfers,
//! which depend only on `(b, m)`, the hash function, and the workload —
//! not on where the blocks live. Here that holds by construction:
//! [`MemDisk`] and [`FileDisk`] are the one block store, `BlockFile`,
//! over a byte vector and over a real file, and `Disk` counts above it.
//! Every [`TradeoffTarget`] runs twice with the same seed and key
//! sequence, once on each; the harness asserts the I/O counters match
//! *exactly* and reports what the binary is for: the wall-clock price
//! of real `pread`/`pwrite` syscalls per accounted I/O.
//!
//! Output: an aligned table, `results/exp_backend.csv`, and
//! `results/exp_backend.json`.
//!
//! Run: `cargo run -p dxh-bench --release --bin exp_backend [--quick]`

use std::time::Instant;

use dxh_analysis::{table::fmt_f, TextTable};
use dxh_bench::{emit, insert_uniform, ExpArgs};
use dxh_core::{DynamicHashTable, ExternalDictionary, TradeoffTarget};
use dxh_extmem::{Disk, FileDisk, IoCostModel, MemDisk, StorageBackend};
use dxh_workloads::measure_tq;

/// One backend run of one target.
struct Run {
    tu: f64,
    tq: f64,
    total_ios: u64,
    insert_ms: f64,
    query_ms: f64,
}

fn run_target<B: StorageBackend>(
    target: TradeoffTarget,
    disk: Disk<B>,
    m: usize,
    n: usize,
    samples: usize,
    seed: u64,
) -> Run {
    let mut table = DynamicHashTable::for_target_on(target, disk, m, seed).expect("build");
    let t0 = Instant::now();
    let keys = insert_uniform(&mut table, n, seed ^ 0x5EED).expect("fill");
    let insert_ms = t0.elapsed().as_secs_f64() * 1e3;
    let tu = table.total_ios() as f64 / n as f64;
    let t1 = Instant::now();
    let tq = measure_tq(&mut table, &keys, samples, seed ^ 0x9A11).expect("tq");
    let query_ms = t1.elapsed().as_secs_f64() * 1e3;
    Run { tu, tq, total_ios: table.total_ios(), insert_ms, query_ms }
}

fn main() {
    let args = ExpArgs::parse();
    let b = 64;
    let m = 1024;
    let n = args.scale(100_000, 10_000);
    let samples = args.scale(2000, 400);
    let seed = 0xBAC;

    let targets: [(&str, TradeoffTarget); 4] = [
        ("chaining (c>1)", TradeoffTarget::QueryOptimal),
        ("bootstrapped c=0.5", TradeoffTarget::InsertOptimal { c: 0.5 }),
        ("bootstrapped ε=0.25", TradeoffTarget::Boundary { eps: 0.25 }),
        ("log-method γ=2", TradeoffTarget::LogMethod { gamma: 2 }),
    ];

    let mut table =
        TextTable::new(["target", "backend", "tu", "tq", "total I/Os", "insert ms", "query ms"]);
    let mut json_rows = Vec::new();
    for (label, target) in targets {
        let mem = run_target(
            target,
            Disk::new(MemDisk::new(b), b, IoCostModel::SeekDominated),
            m,
            n,
            samples,
            seed,
        );
        let file = run_target(
            target,
            Disk::new(FileDisk::temp(b).expect("temp file"), b, IoCostModel::SeekDominated),
            m,
            n,
            samples,
            seed,
        );
        assert_eq!(
            mem.total_ios, file.total_ios,
            "{label}: accounted I/Os must be backend-independent"
        );
        assert!((mem.tq - file.tq).abs() < 1e-12, "{label}: tq must be backend-independent");
        for (backend, r) in [("mem", &mem), ("file", &file)] {
            table.row([
                label.to_string(),
                backend.to_string(),
                fmt_f(r.tu, 4),
                fmt_f(r.tq, 4),
                r.total_ios.to_string(),
                fmt_f(r.insert_ms, 1),
                fmt_f(r.query_ms, 1),
            ]);
            json_rows.push(format!(
                "    {{\"target\": \"{label}\", \"backend\": \"{backend}\", \
                 \"tu\": {:.6}, \"tq\": {:.6}, \"total_ios\": {}, \
                 \"insert_ms\": {:.3}, \"query_ms\": {:.3}}}",
                r.tu, r.tq, r.total_ios, r.insert_ms, r.query_ms
            ));
        }
    }

    println!("Backend sweep: b = {b}, m = {m}, n = {n}, {samples} query samples");
    println!("(I/O counts and tq asserted identical across backends; only wall-clock differs)");
    emit("tradeoff targets on MemDisk vs FileDisk", &table, &args, "exp_backend.csv");

    let json = format!(
        "{{\n  \"bench\": \"exp_backend\",\n  \"command\": \"cargo run -p dxh-bench --release --bin exp_backend\",\n  \
         \"note\": \"MemDisk vs FileDisk twins, identical seeds; accounted I/Os asserted equal. Wall-clock is container-local; use for trajectory, not absolutes.\",\n  \
         \"params\": {{\"b\": {b}, \"m\": {m}, \"n\": {n}, \"samples\": {samples}}},\n  \"results\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let path = args.out_dir.join("exp_backend.json");
    if let Err(e) =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, &json))
    {
        eprintln!("[json] failed to write {}: {e}", path.display());
    } else {
        println!("[json] {}", path.display());
    }
}
