//! The persistent store survives process-style lifecycle boundaries:
//! create → insert/delete churn → drop → reopen → verify, plus crash
//! recovery with stray removal and explicit compaction, exercised
//! end-to-end through the umbrella crate.

use std::collections::HashMap;

use dyn_ext_hash::core::{
    CoreConfig, DynamicHashTable, ExternalDictionary, KvStore, TradeoffTarget,
};
use dyn_ext_hash::extmem::{Disk, FileDisk, IoCostModel};
use dyn_ext_hash::hashfn::SplitMix64;
use dyn_ext_hash::workloads::{run_trace, ChurnMix, Op, Workload};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dxh-it-{tag}-{}", std::process::id()))
}

/// Bytes of block files (`*.blk`) in `dir`, whoever names them.
fn block_file_bytes(dir: &std::path::Path) -> u64 {
    let entries = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap());
    let blocks = entries.filter(|e| e.file_name().to_string_lossy().ends_with(".blk"));
    blocks.map(|e| e.metadata().unwrap().len()).sum()
}

/// Simulates a process crash: Drop never runs. The dead process's lock
/// on the directory goes with it, but `mem::forget` leaks this live
/// process's descriptor and its lock, so the directory is recreated
/// under its own path with a copy of every file the handle left.
fn crash(s: KvStore) {
    let dir = s.path().to_path_buf();
    std::mem::forget(s);
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|path| (path.file_name().unwrap().to_owned(), std::fs::read(&path).unwrap()))
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::create_dir(&dir).unwrap();
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

#[test]
fn store_survives_three_generations() {
    let dir = tmp_dir("generations");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = CoreConfig::lemma5(32, 512, 2).unwrap();
    let mut expect: Vec<(u64, u64)> = Vec::new();
    let mut rng = SplitMix64::new(0xD00D);
    for generation in 0..3u64 {
        let mut store = KvStore::open(&dir, cfg.clone(), 11).unwrap();
        // Everything from prior generations is still there.
        for &(k, v) in expect.iter().step_by(7) {
            assert_eq!(store.lookup(k).unwrap(), Some(v), "generation {generation} key {k}");
        }
        for _ in 0..2500 {
            let k = rng.next_u64() >> 1;
            let v = rng.next_u64();
            store.insert(k, v).unwrap();
            expect.push((k, v));
        }
        // Drop syncs (H0 flushed, file fdatasync'd, manifest rewritten).
    }
    let mut store = KvStore::open(&dir, cfg, 11).unwrap();
    for &(k, v) in &expect {
        assert_eq!(store.lookup(k).unwrap(), Some(v));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_matches_volatile_twin_lookup_for_lookup() {
    // A store that is synced and reopened mid-workload must answer every
    // query exactly like an uninterrupted in-memory table over the same
    // operation sequence.
    let dir = tmp_dir("twin");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = CoreConfig::lemma5(16, 256, 2).unwrap();
    let mut twin =
        DynamicHashTable::for_target(TradeoffTarget::LogMethod { gamma: 2 }, 16, 256, 3).unwrap();
    {
        let mut store = KvStore::open(&dir, cfg.clone(), 3).unwrap();
        for k in 0..1500u64 {
            store.insert(k, k + 5).unwrap();
            twin.insert(k, k + 5).unwrap();
        }
    }
    let mut store = KvStore::open(&dir, cfg, 3).unwrap();
    for k in 0..1600u64 {
        assert_eq!(store.lookup(k).unwrap(), twin.lookup(k).unwrap(), "key {k}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn churn_workload_round_trips_through_sync_and_reopen() {
    // A generated insert/delete/lookup churn trace replayed against the
    // persistent store across two generations answers exactly like a
    // HashMap replay of the same trace.
    let dir = tmp_dir("churn");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = CoreConfig::lemma5(16, 256, 2).unwrap();
    let trace = ChurnMix::new(6000, 0.5, 0.25).unwrap().generate(0xC0DE);
    let mut model: HashMap<u64, u64> = HashMap::new();
    let (first, second) = trace.ops.split_at(trace.ops.len() / 2);
    for half in [first, second] {
        let mut store = KvStore::open(&dir, cfg.clone(), 17).unwrap();
        let report =
            run_trace(&mut store, &dyn_ext_hash::workloads::Trace { ops: half.to_vec() }).unwrap();
        assert!(report.deletes > 0, "the trace exercises deletion");
        for op in half {
            match *op {
                Op::Insert(k, v) => {
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    model.remove(&k);
                }
                Op::Lookup(_) => {}
            }
        }
        // Drop syncs: the next generation must see this one's state.
    }
    let mut store = KvStore::open(&dir, cfg, 17).unwrap();
    for op in &trace.ops {
        let k = match op {
            Op::Insert(k, _) | Op::Delete(k) | Op::Lookup(k) => *k,
        };
        assert_eq!(store.lookup(k).unwrap(), model.get(&k).copied(), "key {k}");
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_orphans_are_collected_and_compaction_shrinks_the_file() {
    // The full space-reclamation lifecycle: insert/delete churn, sync,
    // unsynced churn, crash, reopen (stray removal), more churn, compact
    // — ending with one level file of live items and exact answers.
    let dir = tmp_dir("reclaim");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = CoreConfig::lemma5(16, 256, 2).unwrap();
    let mut store = KvStore::open(&dir, cfg.clone(), 23).unwrap();
    for k in 0..4000u64 {
        store.insert(k, k).unwrap();
    }
    for k in (0..4000u64).step_by(2) {
        assert!(store.delete(k).unwrap());
    }
    store.sync().unwrap();
    let committed = store.footprint().unwrap().data_bytes;
    assert_eq!(block_file_bytes(&dir), committed, "the directory holds the live levels");
    // Unsynced churn, then crash.
    for k in 4000..6000u64 {
        store.insert(k, k).unwrap();
    }
    crash(store);
    assert!(block_file_bytes(&dir) > committed, "the crash stranded levels no manifest names");
    let mut store = KvStore::open(&dir, cfg.clone(), 23).unwrap();
    assert_eq!(store.footprint().unwrap().data_bytes, committed, "the last commit's levels");
    assert_eq!(block_file_bytes(&dir), committed, "crash orphans are collected");
    for k in 10_000..10_200u64 {
        store.insert(k, k).unwrap();
    }
    let stats = store.compact().unwrap();
    assert!(stats.bytes_after < stats.bytes_before, "compaction shrank the files: {stats:?}");
    assert_eq!(block_file_bytes(&dir), stats.bytes_after, "to one level file");
    assert_eq!(stats.live_items, 2000 + 200, "odd survivors + fresh keys");
    // Deleted keys stay gone across one more reopen of the compacted store.
    drop(store);
    let mut store = KvStore::open(&dir, cfg, 23).unwrap();
    for k in 0..4000u64 {
        let expect = (k % 2 == 1).then_some(k);
        assert_eq!(store.lookup(k).unwrap(), expect, "key {k}");
    }
    for k in 10_000..10_200u64 {
        assert_eq!(store.lookup(k).unwrap(), Some(k));
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn facade_on_named_file_persists_blocks_to_that_file() {
    // for_target_on with a real named file: the blocks land in the file
    // the caller chose (size = slots × encoded block size).
    let dir = tmp_dir("named");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("facade.blk");
    let b = 16usize;
    let disk = Disk::new(FileDisk::create(&path, b).unwrap(), b, IoCostModel::SeekDominated);
    let mut t =
        DynamicHashTable::for_target_on(TradeoffTarget::InsertOptimal { c: 0.5 }, disk, 256, 9)
            .unwrap();
    for k in 0..3000u64 {
        t.insert(k, k).unwrap();
    }
    let file_len = std::fs::metadata(&path).unwrap().len();
    assert!(file_len > 0, "blocks were written to the caller's file");
    let block_bytes = 24 + 16 * b as u64;
    assert_eq!(file_len % block_bytes, 0, "file is a whole number of slots");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A level that holds an item outside its bucket — blocks that are not
/// what was written there, read through a second handle onto the same
/// (simulated) file, as a medium that lost a write would serve them —
/// must not compact: the merge would build the item's bucket before it
/// reads the item, and drop it. `compact` refuses as `Corrupt`, poisons
/// the handle and removes the level file it was building; the committed
/// manifest and the files it names stay authoritative, and once the
/// medium serves the durable image again a reopen finds every key.
#[test]
fn compaction_refuses_a_level_holding_an_item_outside_its_bucket() {
    use dyn_ext_hash::core::SimMedia;
    use dyn_ext_hash::extmem::{BlockId, ExtMemError, FaultPlan, SimDisk, SimEnv, StorageBackend};
    let cfg = CoreConfig::lemma5(64, 4096, 2).unwrap();
    let env = SimEnv::new();
    let open = |env: &SimEnv| KvStore::open_on(SimMedia::open(env).unwrap(), cfg.clone(), 17);
    let mut store = open(&env).unwrap();
    for k in 0..6_000u64 {
        store.insert(k, k + 1).unwrap();
    }
    store.sync().unwrap();
    let manifest = env.read_file("MANIFEST").unwrap().expect("committed");
    let text = String::from_utf8(manifest.clone()).unwrap();
    let level: Vec<u64> = text
        .lines()
        .filter_map(|l| l.strip_prefix("level "))
        .flat_map(|l| l.split(' ').map(|n| n.parse().unwrap()).collect::<Vec<u64>>())
        .collect();
    // H1 holds two H0s, and the 1 904 keys past them stay in H0: the
    // sync imaged them into a file of their own.
    let [_, base, buckets, 4_096] = level[..] else { panic!("one level holds the rest: {text}") };
    let image = text.lines().find_map(|l| l.strip_prefix("h0 ")).expect("H0 is imaged");
    let image_base: u64 = image.split(' ').next().unwrap().parse().unwrap();
    let image_file = format!("level-{}.blk", image_base >> 32);
    // The level's file is the upper half of its base, and its buckets
    // are the file's first slots. The first item of bucket 0 moves to the
    // last bucket with room: read long after bucket 0 of the new region
    // was built. Unsynced, so the durable image is still the table the
    // manifest describes.
    let level_file = format!("level-{}.blk", base >> 32);
    let file = env.open_file(&level_file).unwrap().expect("the level's file");
    let mut file = SimDisk::from_file(file, cfg.b).unwrap();
    let mut first = file.read(BlockId(0)).unwrap();
    let stray = first.items()[0];
    first.remove(stray.key);
    let (far, mut last) = (1..buckets)
        .rev()
        .map(|q| (BlockId(q), file.read(BlockId(q)).unwrap()))
        .find(|(_, blk)| !blk.is_full())
        .expect("a bucket with room");
    last.push(stray).unwrap();
    file.write(BlockId(0), &first).unwrap();
    file.write(far, &last).unwrap();
    drop(file);

    let refused = store.compact();
    assert!(matches!(refused, Err(ExtMemError::Corrupt(_))), "{refused:?}");
    assert!(store.lookup(1).is_err() && store.sync().is_err(), "the handle is poisoned");
    let mut names = env.file_names();
    names.sort();
    assert_eq!(names, ["MANIFEST", &level_file, &image_file], "the file it was building is gone");
    assert_eq!(env.read_file("MANIFEST").unwrap(), Some(manifest), "the commit stands");

    env.set_plan(FaultPlan::crash(env.ops(), 3));
    drop(store);
    env.power_cycle();
    let mut store = open(&env).unwrap();
    for k in 0..6_000u64 {
        assert_eq!(store.lookup(k).unwrap(), Some(k + 1), "key {k}");
    }
    let stats = store.compact().unwrap();
    assert_eq!(stats.live_items, 6_000, "the table the manifest describes compacts");
    assert_eq!(store.lookup(stray.key).unwrap(), Some(stray.value));
}

/// A store locks its directory itself. A `LOCK` file an older build
/// left there is neither a lock nor a stray: an open ignores it, leaves
/// it as it was, and is not excluded by an older build holding it.
#[test]
fn an_older_builds_lock_file_is_ignored_and_left_in_place() {
    let dir = tmp_dir("older-lock");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let lock = dir.join("LOCK");
    std::fs::write(&lock, "4194304\n").unwrap();
    let cfg = CoreConfig::lemma5(32, 512, 2).unwrap();
    let mut store = KvStore::open(&dir, cfg.clone(), 5).unwrap();
    store.insert(1, 10).unwrap();
    drop(store);
    let held = std::fs::File::open(&lock).unwrap();
    held.try_lock().unwrap();
    let mut store = KvStore::open(&dir, cfg, 5).unwrap();
    assert_eq!(store.lookup(1).unwrap(), Some(10));
    drop(store);
    drop(held);
    assert_eq!(std::fs::read_to_string(&lock).unwrap(), "4194304\n");
    let _ = std::fs::remove_dir_all(&dir);
}
