//! **Space reclamation** — the store's delete/crash/compact lifecycle.
//!
//! The paper's model has no durability story, so this experiment
//! measures what the persistence layer adds around it: how the level
//! files' footprint evolves under insert/delete churn, what a simulated
//! crash strands in the directory, that the reopen removes exactly
//! that, and what [`KvStore::compact`] still reclaims (shadowed copies
//! and deletion markers — the files themselves are never larger than
//! the live levels). Each phase reports the level files the manifest
//! names (count, bytes, live blocks), the bytes of block files actually
//! in the directory, and the phase's accounted I/O where the counters
//! are continuous (they restart at reopen).
//!
//! Output: an aligned table and `results/exp_compaction.csv`. The key
//! stream and the store's hash seed both derive from `--seed` (default
//! below), and the run prints it, so its output names the exact run
//! that produced it.
//!
//! Run: `cargo run -p dxh-bench --release --bin exp_compaction [--quick]
//! [--seed N]`

use std::time::Instant;

use dxh_analysis::{table::fmt_f, TextTable};
use dxh_bench::{emit, ExpArgs};
use dxh_core::{CoreConfig, ExternalDictionary, KvStore};
use dxh_hashfn::SplitMix64;

struct Phase {
    name: &'static str,
    items: usize,
    /// Level files the store holds open, and their bytes.
    files: usize,
    file_bytes: u64,
    /// Bytes of `.blk` files in the directory, named or not.
    dir_bytes: u64,
    live: u64,
    ios: u64,
    wall_ms: f64,
}

/// Bytes of block files in `dir`, whoever names them.
fn block_file_bytes(dir: &std::path::Path) -> u64 {
    let entries = std::fs::read_dir(dir).expect("store directory").flatten();
    let blocks = entries.filter(|e| e.file_name().to_string_lossy().ends_with(".blk"));
    blocks.map(|e| e.metadata().map_or(0, |m| m.len())).sum()
}

fn snapshot(name: &'static str, s: &KvStore, ios: u64, wall_ms: f64) -> Phase {
    Phase {
        name,
        items: s.len(),
        files: s.table().disk().backend().file_count(),
        file_bytes: s.footprint().expect("footprint").data_bytes,
        dir_bytes: block_file_bytes(s.path()),
        live: s.table().disk().live_blocks(),
        ios,
        wall_ms,
    }
}

fn main() {
    let args = ExpArgs::parse();
    let b = 32;
    let m = 1024;
    let n = args.scale(120_000, 12_000);
    // One seed drives the key stream and the store's hash function, so
    // the run is reproducible from the seed it prints.
    let seed: u64 =
        args.get("seed").map(|v| v.parse().expect("--seed takes a number")).unwrap_or(0xC0117EC7);
    let cfg = CoreConfig::lemma5(b, m, 2).expect("config");
    let dir = std::env::temp_dir().join(format!("dxh-exp-compaction-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut rng = SplitMix64::new(seed);
    let keys: Vec<u64> = (0..n).map(|_| rng.next_u64() >> 1).collect();
    let mut phases: Vec<Phase> = Vec::new();

    // Phase 1: bulk load + sync.
    let mut store = KvStore::open(&dir, cfg.clone(), seed ^ 0x5704E).expect("create");
    let t0 = Instant::now();
    for &k in &keys {
        store.insert(k, k).expect("insert");
    }
    store.sync().expect("sync");
    phases.push(snapshot("load+sync", &store, store.total_ios(), ms(t0)));

    // Phase 2: delete half, upsert a tenth, sync — markers and shadowed
    // copies bloat the physical footprint.
    let e = store.disk_stats();
    let t0 = Instant::now();
    for &k in keys.iter().step_by(2) {
        assert!(store.delete(k).expect("delete"), "live key deletes");
    }
    for &k in keys.iter().skip(1).step_by(10) {
        store.insert(k, k ^ 1).expect("upsert");
    }
    store.sync().expect("sync");
    let churn_ios = store.disk_stats().since(&e).total();
    phases.push(snapshot("churn+sync", &store, churn_ios, ms(t0)));

    // Phase 3: unsynced churn — fresh keys, enough to cascade flushes
    // that build levels no manifest names — then crash (Drop never runs;
    // the dead process's LOCK disappears with it).
    for _ in 0..n / 4 {
        let k = rng.next_u64() >> 1;
        store.insert(k, k).expect("insert");
    }
    let lock = store.path().join("LOCK");
    std::mem::forget(store);
    let _ = std::fs::remove_file(lock);

    // Phase 4: reopen — opens the files the manifest names and removes
    // every other block file as a stray; nothing is walked.
    let stranded = block_file_bytes(&dir);
    let t0 = Instant::now();
    let mut store = KvStore::open(&dir, cfg.clone(), seed ^ 0x5704E).expect("reopen after crash");
    phases.push(snapshot("crash+reopen", &store, store.total_ios(), ms(t0)));
    let recovered = phases.last().expect("just pushed");
    let strays = stranded - recovered.dir_bytes;
    assert!(strays > 0, "the crash stranded levels no manifest names");
    assert_eq!(recovered.dir_bytes, recovered.file_bytes, "reopen leaves the named files only");

    // Phase 5: compact — one level, shadowed copies and markers purged.
    let e = store.disk_stats();
    let t0 = Instant::now();
    let stats = store.compact().expect("compact");
    let compact_ms = ms(t0);
    let compact_ios = store.disk_stats().since(&e).total();
    phases.push(snapshot("compact", &store, compact_ios, compact_ms));
    assert!(stats.bytes_after < stats.bytes_before, "compaction purges dead items");
    let compacted = phases.last().expect("just pushed");
    assert_eq!((compacted.files, compacted.dir_bytes), (1, stats.bytes_after));
    // The one level everything landed in: content-sized, at the sealed
    // fill; at most the level's full geometry.
    let geometry = store.table().level_geometry();
    let level = geometry.iter().rposition(|l| l.1 > 0).expect("the compacted level");
    let (region_buckets, full_buckets) = (geometry[level].1, cfg.level_buckets(level as u32));
    let sealed_fill = cfg.sealed_fill();
    assert!(
        region_buckets <= full_buckets
            && stats.live_items as u64 <= region_buckets * sealed_fill as u64
    );

    // Verify: deleted keys absent, survivors present, across a reopen.
    drop(store);
    let mut store = KvStore::open(&dir, cfg, seed ^ 0x5704E).expect("reopen compacted");
    for (i, &k) in keys.iter().enumerate().step_by(97) {
        let got = store.lookup(k).expect("lookup");
        if i % 2 == 0 {
            assert_eq!(got, None, "deleted key {k} stays gone");
        } else {
            assert!(got.is_some(), "surviving key {k} present");
        }
    }
    phases.push(snapshot("verify reopen", &store, store.total_ios(), 0.0));

    let mut table = TextTable::new([
        "phase",
        "items",
        "level files",
        "KiB named",
        "KiB in dir",
        "live blocks",
        "I/Os",
        "ms",
    ]);
    for p in &phases {
        table.row([
            p.name.to_string(),
            p.items.to_string(),
            p.files.to_string(),
            fmt_f(p.file_bytes as f64 / 1024.0, 1),
            fmt_f(p.dir_bytes as f64 / 1024.0, 1),
            p.live.to_string(),
            p.ios.to_string(),
            fmt_f(p.wall_ms, 1),
        ]);
    }

    println!("Space reclamation: b = {b}, m = {m}, n = {n}");
    println!(
        "reopen removed {strays} bytes of stray level files; compact: {} -> {} bytes \
         ({} live items, {} markers purged, {} shadowed copies dropped) \
         in one H{level} region of {region_buckets} buckets at the sealed fill, {sealed_fill} of \
         {b} items a bucket (full geometry: {full_buckets})",
        stats.bytes_before, stats.bytes_after, stats.live_items, stats.purged, stats.shadowed
    );
    emit("KvStore space-reclamation lifecycle", &table, &args, "exp_compaction.csv");

    println!("seed {seed}");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
