//! Concurrent writers sharing group commits: a [`ShardedKvStore`]
//! driven by several ingest threads, with the syncs-per-op accounting
//! that shows `K` writers paying far fewer than `K` fsyncs.
//!
//! The single-store example (`kv_store.rs`) acknowledges one write per
//! `sync`; here concurrent `put`s enqueue on their shard and park while
//! each shard's dedicated committer applies whole batches, and the
//! service coordinator commits every shard's batches together — one
//! fsync of the shared commit log per sync round, however many shards
//! rode it (`docs/COMMIT_PATH.md` walks the full path). Every `put`
//! that returns is crash-durable — run the example twice and the
//! second run finds the first run's data on disk.
//!
//! Run: `cargo run --release --example concurrent_kv`

use dyn_ext_hash::core::{CoreConfig, ShardedKvStore, WriteOp};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("dxh-concurrent-kv");
    let shards = 2;
    let threads = 8u64;
    let ops_per_thread = 2_000u64;
    let cfg = CoreConfig::lemma5(64, 2048, 2)?;

    let svc = ShardedKvStore::open(&dir, shards, cfg, 42)?;
    println!(
        "service at {} — {} shards, {} writer threads x {} ops",
        dir.display(),
        shards,
        threads,
        ops_per_thread
    );
    let generation = svc.len() as u64; // grows across runs of the example
    let t0 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let svc = &svc;
            scope.spawn(move || {
                // Each thread owns a key namespace; a small submit
                // pipeline feeds the group committer whole chunks.
                let base = generation + (t << 40);
                let mut chunk = Vec::with_capacity(8);
                for i in 0..ops_per_thread {
                    chunk.push(WriteOp::Put(base + i, t * 1_000_000 + i));
                    if chunk.len() == 8 {
                        svc.submit(&chunk).expect("durable batch");
                        chunk.clear();
                    }
                }
                if !chunk.is_empty() {
                    svc.submit(&chunk).expect("durable tail");
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();

    let stats = svc.stats();
    println!(
        "committed {} ops in {} group commits ({:.1} ops/batch, largest {})",
        stats.committed_ops,
        stats.committed_batches,
        stats.committed_ops as f64 / stats.committed_batches.max(1) as f64,
        stats.largest_batch
    );
    println!(
        "syncs/op = {:.4} — {} writers shared each sync round's one log fsync; {:.0} ops/s",
        stats.syncs_per_op(),
        threads,
        stats.committed_ops as f64 / wall
    );

    // Every acknowledged write is already durable; spot-check through
    // the read path (the owning shard's store, the only thing a get reads).
    for t in 0..threads {
        let k = generation + (t << 40);
        assert_eq!(svc.get(k)?, Some(t * 1_000_000), "thread {t}'s first key");
    }
    svc.sync_all()?; // manifest fence (acks were already log-durable)
    println!("total items on disk across runs: {}", svc.len());
    Ok(())
}
