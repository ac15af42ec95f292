//! **Group-commit service** — throughput and syncs-per-op of the
//! concurrent sharded [`ShardedKvStore`] versus writer-thread count.
//!
//! The paper buys `tu < 1` by buffering updates; this experiment
//! measures the durability-layer analogue: writers never fsync — each
//! shard's dedicated committer applies batches continuously, and every
//! sync round commits all shards' batches with **one** fsync of the
//! service-wide commit log (see `docs/COMMIT_PATH.md`). Two sweeps:
//!
//! * **threads** (single shard): writer count vs wall-clock throughput,
//!   sync rounds per acknowledged op, and the largest batch one round
//!   carried — the pure group-commit effect, no routing dilution;
//! * **shards** (8 writers): partitioning must be a scaling axis, not a
//!   liability — the shared log keeps the sync bill flat while the
//!   aggregate of the shards' in-memory tables absorbs a resident set
//!   that one shard's table has to spill to disk levels;
//! * **hot-key coalescing** (8 writers × 8 shards, checkpoints on): a
//!   Zipf(θ) hot-key write stream against its uncoalesced twin (same op
//!   count, all keys distinct). Every op is applied and answered, but
//!   the commit log's newest-wins fold absorbs the hot duplicates: they
//!   cost no log entry of their own, so the zipf column must not lose
//!   to the distinct one. With checkpoints live, a checkpoint manifest
//!   commit must stay O(log n): at most [`MAX_CHECKPOINT_COMMIT_BYTES`] on
//!   average, like the manifests the closing `sync_all` writes for the
//!   final tables (a manifest is a few level lines at any table size).
//!
//! Writers replay disjoint-namespace [`ConcurrentChurn`] traces (a
//! read-mixed churn) through pipelined `submit` chunks — the shape a
//! real ingest pipeline has — against a real-directory deployment
//! (every sync is a real fsync). Each sweep runs [`TRIALS`] interleaved
//! passes and reports per-point bests, de-correlating shared-host noise
//! from the configuration under test.
//!
//! The run **asserts** the acceptance bars. Full: syncs-per-op < 1/8
//! with a largest batch ≥ 8 at 8 writers; throughput non-decreasing in
//! shard count at 8 writers; syncs/op at 8 shards ≤ 2× at 1 shard.
//! `--quick` (the CI smoke) shortens the workload, asserts batching
//! materializes, and bounds syncs/op at 8 shards to ≤ 2× at 1 shard at
//! the same writer count; it prints kops/s without gating on it.
//! Output: aligned tables,
//! `results/exp_service.csv`, and `results/exp_service.json`.
//!
//! Run: `cargo run -p dxh-bench --release --bin exp_service [--quick]
//! [--seed N]`

use std::time::Instant;

use dxh_analysis::{table::fmt_f, TextTable};
use dxh_bench::{emit, ExpArgs};
use dxh_core::{CoreConfig, ShardedKvStore, WriteOp};
use dxh_workloads::service::MAX_CHECKPOINT_COMMIT_BYTES;
use dxh_workloads::{ConcurrentChurn, Op, Trace, ZipfWrites};

/// Ops each writer pipelines per `submit` call (a small ingest buffer).
const CHUNK: usize = 32;

/// Interleaved passes per sweep; each point reports its best run.
const TRIALS: usize = 5;

struct Point {
    threads: usize,
    shards: usize,
    ops: u64,
    wall_ms: f64,
    kops_per_s: f64,
    syncs_per_op: f64,
    sync_rounds: u64,
    shard_syncs: u64,
    avg_batch: f64,
    largest_batch: u64,
}

/// Runs a whole sweep [`TRIALS`] times and keeps each point's best run.
///
/// Shared-host wall-clock noise is *time-correlated* — a neighbour's
/// burst slows everything for tens of milliseconds — so repeating one
/// point back to back can land every trial in the same pit. Interleaved
/// passes de-correlate the noise from the configuration: a slow window
/// taxes every point of that pass roughly equally, and the per-point
/// best across passes estimates capability, which is what the scaling
/// gates compare.
fn sweep<F: Fn(usize) -> Point>(configs: &[usize], run: F) -> Vec<Point> {
    let mut best: Vec<Option<Point>> = configs.iter().map(|_| None).collect();
    for _ in 0..TRIALS {
        for (slot, &c) in best.iter_mut().zip(configs) {
            let p = run(c);
            if slot.as_ref().is_none_or(|b| p.kops_per_s > b.kops_per_s) {
                *slot = Some(p);
            }
        }
    }
    best.into_iter().map(|p| p.expect("TRIALS >= 1")).collect()
}

/// Drives `threads` writers over a fresh service and measures one run.
fn run_once(threads: usize, shards: usize, ops_per_thread: usize, seed: u64) -> Point {
    let dir = std::env::temp_dir()
        .join(format!("dxh-exp-service-{}-{threads}x{shards}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = CoreConfig::lemma5(32, 1024, 2).expect("config");
    let svc = ShardedKvStore::open(&dir, shards, cfg, seed).expect("create service");
    // 40% inserts / 15% deletes / 45% lookups — a read-mixed churn. The
    // resident key set dwarfs one shard's in-memory table, so single-
    // shard lookups walk deep on-disk levels while the aggregate
    // buffering of many shards keeps each partition shallow or fully
    // in memory — the apply-side advantage partitioning is supposed
    // to buy (see docs/BENCHMARKS.md).
    let workload = ConcurrentChurn::new(threads, ops_per_thread, 0.4, 0.15).expect("churn shape");
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let svc = &svc;
            let trace = workload.thread_trace(t, seed);
            scope.spawn(move || {
                let mut chunk: Vec<WriteOp> = Vec::with_capacity(CHUNK);
                for op in &trace.ops {
                    match *op {
                        Op::Insert(k, v) => chunk.push(WriteOp::Put(k, v)),
                        Op::Delete(k) => chunk.push(WriteOp::Delete(k)),
                        Op::Lookup(k) => {
                            let _ = svc.get(k).expect("lookup");
                            continue;
                        }
                    }
                    if chunk.len() >= CHUNK {
                        svc.submit(&chunk).expect("submit");
                        chunk.clear();
                    }
                }
                if !chunk.is_empty() {
                    svc.submit(&chunk).expect("submit tail");
                }
            });
        }
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = svc.stats();
    svc.sync_all().expect("sync_all");
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    Point {
        threads,
        shards,
        ops: stats.committed_ops,
        wall_ms,
        kops_per_s: stats.committed_ops as f64 / wall_ms,
        syncs_per_op: stats.syncs_per_op(),
        sync_rounds: stats.sync_rounds,
        shard_syncs: stats.shard_syncs,
        avg_batch: if stats.committed_batches == 0 {
            0.0
        } else {
            stats.committed_ops as f64 / stats.committed_batches as f64
        },
        largest_batch: stats.largest_batch,
    }
}

/// One run of the hot-key coalescing comparison (sweep 3).
struct CoalescePoint {
    mode: &'static str,
    ops: u64,
    wall_ms: f64,
    kops_per_s: f64,
    /// Ops the log fold absorbed: each was applied and answered, but
    /// cost no commit-log entry of its own.
    coalesced: u64,
    /// Manifest commits made by checkpoints (the `delta_*`
    /// counters of `ServiceStats`, named for the frames such commits
    /// used to be).
    delta_commits: u64,
    /// Average bytes per checkpoint commit.
    avg_delta_b: u64,
    /// Average bytes of the **final** manifests (from the closing
    /// `sync_all`): the same file, for the final tables.
    avg_full_b: u64,
}

/// Zipf universe per writer thread — small enough that a 32-op chunk
/// carries hot-key duplicates for the log fold to absorb.
const ZIPF_UNIVERSE: usize = 64;

/// Zipf skew: rank 0 draws ~20% of all writes at θ = 0.99, `u = 64`.
const ZIPF_THETA: f64 = 0.99;

/// Commit-log bytes between checkpoints in sweep 3 — low enough that
/// a run pays dozens of checkpoints, so the
/// checkpoint-commit gate measures live behaviour rather than an idle
/// path.
const COALESCE_CKPT_LOG_BYTES: u64 = 64 << 10;

/// Drives the hot-key zipf stream (`hot`) or its uncoalesced
/// distinct-key twin over a fresh 8×8 service with checkpoints
/// enabled, and measures throughput, coalescing, and manifest-commit
/// shares.
fn run_coalesce_once(
    threads: usize,
    shards: usize,
    ops_per_thread: usize,
    seed: u64,
    hot: bool,
) -> CoalescePoint {
    let mode = if hot { "zipf-hot" } else { "distinct" };
    let dir =
        std::env::temp_dir().join(format!("dxh-exp-service-co-{}-{mode}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = CoreConfig::lemma5(32, 1024, 2).expect("config");
    let svc = ShardedKvStore::open(&dir, shards, cfg, seed).expect("create service");
    svc.set_checkpoint_log_bytes(COALESCE_CKPT_LOG_BYTES);
    let zipf =
        ZipfWrites::new(threads, ops_per_thread, ZIPF_UNIVERSE, ZIPF_THETA).expect("zipf shape");
    // The uncoalesced twin: same op count, all-distinct fresh keys —
    // the log fold has nothing to absorb.
    let distinct = ConcurrentChurn::new(threads, ops_per_thread, 1.0, 0.0).expect("churn shape");
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let svc = &svc;
            let trace: Trace =
                if hot { zipf.thread_trace(t, seed) } else { distinct.thread_trace(t, seed) };
            scope.spawn(move || {
                let mut chunk: Vec<WriteOp> = Vec::with_capacity(CHUNK);
                for op in &trace.ops {
                    match *op {
                        Op::Insert(k, v) => chunk.push(WriteOp::Put(k, v)),
                        Op::Delete(k) => chunk.push(WriteOp::Delete(k)),
                        Op::Lookup(_) => continue,
                    }
                    if chunk.len() >= CHUNK {
                        svc.submit(&chunk).expect("submit");
                        chunk.clear();
                    }
                }
                if !chunk.is_empty() {
                    svc.submit(&chunk).expect("submit tail");
                }
            });
        }
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mid = svc.stats();
    svc.sync_all().expect("sync_all");
    let end = svc.stats();
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    // The closing sync_all commits every shard's manifest at final table
    // size.
    let final_fulls = end.manifest_full_commits - mid.manifest_full_commits;
    CoalescePoint {
        mode,
        ops: mid.committed_ops,
        wall_ms,
        kops_per_s: mid.committed_ops as f64 / wall_ms,
        coalesced: mid.coalesced_ops,
        delta_commits: mid.manifest_delta_commits,
        avg_delta_b: mid.manifest_delta_bytes.checked_div(mid.manifest_delta_commits).unwrap_or(0),
        avg_full_b: (end.manifest_full_bytes - mid.manifest_full_bytes)
            .checked_div(final_fulls)
            .unwrap_or(0),
    }
}

fn push_row(table: &mut TextTable, json: &mut Vec<String>, p: &Point) {
    table.row([
        p.threads.to_string(),
        p.shards.to_string(),
        p.ops.to_string(),
        fmt_f(p.wall_ms, 1),
        fmt_f(p.kops_per_s, 1),
        fmt_f(p.syncs_per_op, 4),
        p.sync_rounds.to_string(),
        p.shard_syncs.to_string(),
        fmt_f(p.avg_batch, 2),
        p.largest_batch.to_string(),
    ]);
    json.push(format!(
        "    {{\"threads\": {}, \"shards\": {}, \"ops\": {}, \"wall_ms\": {:.3}, \
         \"kops_per_s\": {:.2}, \"syncs_per_op\": {:.5}, \"sync_rounds\": {}, \
         \"shard_syncs\": {}, \"avg_batch\": {:.2}, \"largest_batch\": {}}}",
        p.threads,
        p.shards,
        p.ops,
        p.wall_ms,
        p.kops_per_s,
        p.syncs_per_op,
        p.sync_rounds,
        p.shard_syncs,
        p.avg_batch,
        p.largest_batch
    ));
}

fn main() {
    let args = ExpArgs::parse();
    let seed: u64 =
        args.get("seed").map(|v| v.parse().expect("--seed takes a number")).unwrap_or(0x5E41_11CE);
    // Sized so the workload's resident key set exceeds one shard's
    // in-memory hash table (cfg below: 512 items) by a wide margin:
    // partitioning then buys real apply-side work — a single shard pays
    // memory-overflow migrations and disk-level lookups that the
    // aggregate buffering of 8 shards absorbs. See docs/BENCHMARKS.md.
    let ops_per_thread = args.scale(12000, 8000);
    let thread_sweep: &[usize] = if args.quick { &[1, 2, 4] } else { &[1, 2, 4, 8, 16] };
    // The quick smoke skips the interior shard counts but keeps both
    // ends: its gate is "8 shards' sync bill ≤ 2× 1 shard's".
    let shard_sweep: &[usize] = if args.quick { &[1, 2, 8] } else { &[1, 2, 4, 8] };

    let header = [
        "threads",
        "shards",
        "ops",
        "wall ms",
        "kops/s",
        "syncs/op",
        "rounds",
        "hardens",
        "avg batch",
        "max",
    ];
    let mut json_rows = Vec::new();

    // Sweep 1: writers vs one shard — the pure group-commit effect.
    let mut threads_table = TextTable::new(header);
    let mut eight_threads: Option<(f64, u64)> = None;
    let mut four_threads: Option<(f64, u64)> = None;
    for p in sweep(thread_sweep, |threads| run_once(threads, 1, ops_per_thread, seed)) {
        if p.threads >= 8 && eight_threads.is_none() {
            eight_threads = Some((p.syncs_per_op, p.largest_batch));
        }
        if p.threads == 4 {
            four_threads = Some((p.syncs_per_op, p.largest_batch));
        }
        push_row(&mut threads_table, &mut json_rows, &p);
    }
    emit("Group commit: writer threads vs one shard", &threads_table, &args, "exp_service.csv");

    // Sweep 2: shards vs a fixed writer count. Both modes pin 8
    // writers: that is where group commit has real batches to share
    // (the 4-writer wave splits too thin across 8 shards for the
    // scaling comparison to measure anything but scheduler noise).
    let fixed_threads = 8;
    let mut shards_table = TextTable::new(header);
    let shard_points: Vec<Point> =
        sweep(shard_sweep, |shards| run_once(fixed_threads, shards, ops_per_thread, seed));
    for p in &shard_points {
        push_row(&mut shards_table, &mut json_rows, p);
    }
    emit(
        "Group commit: shards vs a fixed writer count",
        &shards_table,
        &args,
        "exp_service_shards.csv",
    );

    // Sharding gates: coalesced sync rounds must make shard count a
    // scaling axis, not a liability. Both modes bound the sync-bill
    // growth from 1 to 8 shards. Only the full run gates throughput — 8
    // shards no slower than 1, and the whole curve non-decreasing
    // (within a small wall-clock noise margin): the quick smoke measures
    // each point over a few tens of milliseconds, too short for a
    // kops/s comparison to beat host noise.
    {
        let one = shard_points.first().expect("sweep includes 1 shard");
        let eight = shard_points.last().expect("sweep includes 8 shards");
        assert_eq!((one.shards, eight.shards), (1, 8), "sweep spans 1..=8 shards");
        assert!(
            eight.syncs_per_op <= 2.0 * one.syncs_per_op,
            "coalescing must keep the sync bill flat: syncs/op {:.4} at 8 shards vs {:.4} at 1 \
             shard",
            eight.syncs_per_op,
            one.syncs_per_op
        );
        if !args.quick {
            assert!(
                eight.kops_per_s >= one.kops_per_s,
                "{fixed_threads} writers: 8 shards ({:.1} kops/s) must not underperform 1 \
                 shard ({:.1} kops/s)",
                eight.kops_per_s,
                one.kops_per_s
            );
            for w in shard_points.windows(2) {
                assert!(
                    w[1].kops_per_s >= w[0].kops_per_s * 0.97,
                    "throughput must be non-decreasing in shard count at {fixed_threads} \
                     writers: {} shards {:.1} kops/s -> {} shards {:.1} kops/s",
                    w[0].shards,
                    w[0].kops_per_s,
                    w[1].shards,
                    w[1].kops_per_s
                );
            }
            println!(
                "\nsharding: kops/s {} -> {} across 1..8 shards (non-decreasing), syncs/op \
                 {:.4} -> {:.4} (<= 2x)",
                fmt_f(one.kops_per_s, 1),
                fmt_f(eight.kops_per_s, 1),
                one.syncs_per_op,
                eight.syncs_per_op
            );
        } else {
            println!(
                "\nsharding smoke: syncs/op {:.4} at 8 shards <= 2x {:.4} at 1 shard \
                 ({fixed_threads} writers); {:.1} vs {:.1} kops/s, not gated",
                eight.syncs_per_op, one.syncs_per_op, eight.kops_per_s, one.kops_per_s
            );
        }
    }

    // Sweep 3: hot-key coalescing vs the uncoalesced distinct twin at
    // the headline 8×8 configuration, checkpoints live. Same
    // interleaved best-of-TRIALS discipline as the other sweeps.
    let mut coalesce_table = TextTable::new([
        "mode",
        "ops",
        "wall ms",
        "kops/s",
        "coalesced",
        "coal/op",
        "ckpt commits",
        "avg ckpt B",
        "avg final B",
    ]);
    let co_points: Vec<CoalescePoint> = {
        let mut best: [Option<CoalescePoint>; 2] = [None, None];
        for _ in 0..TRIALS {
            for (slot, hot) in best.iter_mut().zip([true, false]) {
                let p = run_coalesce_once(fixed_threads, 8, ops_per_thread, seed, hot);
                if slot.as_ref().is_none_or(|b| p.kops_per_s > b.kops_per_s) {
                    *slot = Some(p);
                }
            }
        }
        best.into_iter().map(|p| p.expect("TRIALS >= 1")).collect()
    };
    let mut co_json = Vec::new();
    for p in &co_points {
        coalesce_table.row([
            p.mode.to_string(),
            p.ops.to_string(),
            fmt_f(p.wall_ms, 1),
            fmt_f(p.kops_per_s, 1),
            p.coalesced.to_string(),
            fmt_f(p.coalesced as f64 / p.ops as f64, 3),
            p.delta_commits.to_string(),
            p.avg_delta_b.to_string(),
            p.avg_full_b.to_string(),
        ]);
        co_json.push(format!(
            "      {{\"mode\": \"{}\", \"ops\": {}, \"wall_ms\": {:.3}, \"kops_per_s\": {:.2}, \
             \"coalesced_ops\": {}, \"manifest_delta_commits\": {}, \"avg_delta_bytes\": {}, \
             \"avg_full_manifest_bytes\": {}}}",
            p.mode,
            p.ops,
            p.wall_ms,
            p.kops_per_s,
            p.coalesced,
            p.delta_commits,
            p.avg_delta_b,
            p.avg_full_b
        ));
    }
    emit(
        "Hot-key coalescing: zipf writes vs the uncoalesced distinct twin",
        &coalesce_table,
        &args,
        "exp_service_coalesce.csv",
    );

    // Coalescing gates (quick and full — this pair IS the CI smoke's
    // subject): the zipf mix must not lose to its uncoalesced twin, the
    // log fold must have actually absorbed ops on it (and had nothing to
    // absorb on the twin), and a manifest commit — a checkpoint's, and
    // the closing sync's of the final tables — must stay a header and
    // O(log n) level lines, below the absolute bound.
    {
        let (hot, distinct) = (&co_points[0], &co_points[1]);
        assert_eq!((hot.mode, distinct.mode), ("zipf-hot", "distinct"));
        assert!(
            hot.kops_per_s >= distinct.kops_per_s,
            "coalesced hot-key writes ({:.1} kops/s) must not lose to the uncoalesced \
             distinct twin ({:.1} kops/s)",
            hot.kops_per_s,
            distinct.kops_per_s
        );
        assert!(hot.coalesced > 0, "the zipf mix must exercise the log fold");
        assert_eq!(
            distinct.coalesced, 0,
            "the distinct twin has no duplicate keys for the log fold to absorb"
        );
        assert!(
            distinct.delta_commits > 0,
            "checkpoints must make manifest commits during the run"
        );
        assert!(
            distinct.avg_delta_b.max(distinct.avg_full_b) <= MAX_CHECKPOINT_COMMIT_BYTES,
            "a manifest commit must average <= {MAX_CHECKPOINT_COMMIT_BYTES} B: {} B at a \
             checkpoint, {} B for the final tables",
            distinct.avg_delta_b,
            distinct.avg_full_b
        );
        println!(
            "\ncoalescing: zipf-hot {:.1} kops/s >= distinct {:.1} kops/s ({} ops absorbed); \
             checkpoint commit {} B, final manifest {} B <= {MAX_CHECKPOINT_COMMIT_BYTES} B",
            hot.kops_per_s,
            distinct.kops_per_s,
            hot.coalesced,
            distinct.avg_delta_b,
            distinct.avg_full_b
        );
    }

    // The acceptance bar. In quick mode (CI smoke, ≤ 4 threads) assert
    // only that batching materializes at all; the full run holds the
    // ISSUE's numbers at 8 writers.
    if let Some((syncs_per_op, largest)) = eight_threads {
        assert!(
            syncs_per_op < 1.0 / 8.0,
            "8+ writers must share commits: syncs/op = {syncs_per_op}"
        );
        assert!(largest >= 8, "a batch of ≥ 8 ops must materialize: largest = {largest}");
        println!(
            "\nacceptance: syncs/op {syncs_per_op:.4} < 1/8 at 8 writer threads, \
             largest batch {largest} >= 8"
        );
    } else {
        // The quick sweep already measured the 4-thread point; assert
        // on it instead of paying a third fsync-bound run.
        let (syncs_per_op, largest) = four_threads.expect("the sweep includes 4 threads");
        assert!(syncs_per_op < 1.0, "group commits must batch: syncs/op = {syncs_per_op}");
        assert!(largest >= 2, "batches must form: largest = {largest}");
        println!(
            "\nsmoke: syncs/op {syncs_per_op:.4} < 1 at 4 writer threads, largest batch {largest}"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"exp_service\",\n  \"command\": \"cargo run -p dxh-bench --release \
         --bin exp_service -- --seed {seed}\",\n  \
         \"note\": \"Real-directory deployment: every sync is a real fsync; wall-clock is \
         container-local (trajectory, not absolutes; each point is its best of {TRIALS} \
         interleaved passes). syncs_per_op = sync rounds / acknowledged writes — a round \
         commits every shard's batches with one fsync of the service-wide commit log; \
         shard_syncs counts per-shard manifest hardens, paid only by checkpoints.\",\n  \
         \"params\": {{\"ops_per_thread\": {ops_per_thread}, \"chunk\": {CHUNK}, \"trials\": \
         {TRIALS}, \"seed\": {seed}}},\n  \"coalescing\": {{\n    \"note\": \"Sweep 3 at \
         {fixed_threads} writers x 8 shards, a checkpoint every \
         {COALESCE_CKPT_LOG_BYTES} log bytes: Zipf({ZIPF_THETA}) hot-key writes over \
         {ZIPF_UNIVERSE} keys/thread vs the all-distinct uncoalesced twin. Gates: zipf-hot \
         kops/s >= distinct, and avg checkpoint-commit bytes (avg_delta_bytes) and avg \
         final-manifest bytes <= {MAX_CHECKPOINT_COMMIT_BYTES}.\",\n    \"points\": [\n{}\n    ]\n  }},\n  \"points\": [\n{}\n  ]\n}}\n",
        co_json.join(",\n"),
        json_rows.join(",\n")
    );
    let path = args.out_dir.join("exp_service.json");
    if let Err(e) =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, &json))
    {
        eprintln!("[json] failed to write {}: {e}", path.display());
    } else {
        println!("[json] {}", path.display());
    }
}
