//! The concurrent sharded service end-to-end through the umbrella
//! crate: real writer threads over a real directory deployment, the
//! equivalence of the concurrent run with its single-threaded
//! serialization, single-threaded crash lifecycles on the simulated
//! machine, and the service manifest's reopen contract. The crash sweeps
//! across concurrent schedules are `dxh-core`'s model tests
//! (`service::model_tests`).

use std::collections::{BTreeSet, HashMap};

use dyn_ext_hash::core::{CoreConfig, ShardedKvStore, SimMedia, StoreMedia, WriteOp};
use dyn_ext_hash::extmem::{FaultPlan, SimEnv};
use dyn_ext_hash::workloads::{ConcurrentChurn, Op};
use proptest::prelude::*;

mod lying_media;
use lying_media::{Lie, Lying};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dxh-svc-{tag}-{}", std::process::id()))
}

fn cfg() -> CoreConfig {
    CoreConfig::lemma5(16, 256, 2).unwrap()
}

/// Concurrent churn from real threads against a real directory, each
/// thread checking its own disjoint namespace; then a reopen verifies
/// the whole state durably, against models rebuilt from the traces.
#[test]
fn concurrent_churn_over_a_real_directory_round_trips() {
    let dir = tmp_dir("churn");
    let _ = std::fs::remove_dir_all(&dir);
    let threads = 4usize;
    let workload = ConcurrentChurn::new(threads, 800, 0.6, 0.15).unwrap();
    let seed = 0xC0FFEE;
    {
        let svc = ShardedKvStore::open(&dir, 3, cfg(), seed).unwrap();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let svc = &svc;
                let trace = workload.thread_trace(t, seed);
                scope.spawn(move || {
                    let mut model: HashMap<u64, u64> = HashMap::new();
                    for op in &trace.ops {
                        match *op {
                            Op::Insert(k, v) => {
                                svc.put(k, v).unwrap();
                                model.insert(k, v);
                            }
                            Op::Delete(k) => {
                                let was = svc.delete(k).unwrap();
                                assert_eq!(was, model.remove(&k).is_some(), "delete({k})");
                            }
                            Op::Lookup(k) => {
                                assert_eq!(
                                    svc.get(k).unwrap(),
                                    model.get(&k).copied(),
                                    "lookup({k}) in a private namespace"
                                );
                            }
                        }
                    }
                });
            }
        });
        let stats = svc.stats();
        assert_eq!(stats.wedged_shards, 0);
        assert!(stats.committed_ops > 0);
    } // drop: every acknowledged write is already durable
    let svc = ShardedKvStore::open(&dir, 3, cfg(), seed).unwrap();
    for t in 0..threads {
        // Rebuild each thread's model from its deterministic trace.
        let mut model: HashMap<u64, u64> = HashMap::new();
        for op in &workload.thread_trace(t, seed).ops {
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
        for (k, v) in &model {
            assert_eq!(svc.get(*k).unwrap(), Some(*v), "key {k} after reopen");
        }
    }
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The concurrent service answers exactly like a single-threaded
/// [`dyn_ext_hash::core::KvStore`]-per-shard replay of the same ops —
/// disjoint namespaces make the serialization order immaterial.
#[test]
fn concurrent_run_matches_its_serialized_twin() {
    let dir_a = tmp_dir("twin-conc");
    let dir_b = tmp_dir("twin-seq");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let workload = ConcurrentChurn::new(3, 500, 0.6, 0.2).unwrap();
    let seed = 77;
    use dyn_ext_hash::workloads::Workload;
    let serialized = workload.generate(seed);

    let conc = ShardedKvStore::open(&dir_a, 2, cfg(), seed).unwrap();
    std::thread::scope(|scope| {
        for t in 0..3 {
            let conc = &conc;
            let trace = workload.thread_trace(t, seed);
            scope.spawn(move || {
                for op in &trace.ops {
                    match *op {
                        Op::Insert(k, v) => {
                            conc.put(k, v).unwrap();
                        }
                        Op::Delete(k) => {
                            conc.delete(k).unwrap();
                        }
                        Op::Lookup(k) => {
                            let _ = conc.get(k).unwrap();
                        }
                    }
                }
            });
        }
    });
    let seq = ShardedKvStore::open(&dir_b, 2, cfg(), seed).unwrap();
    for op in &serialized.ops {
        match *op {
            Op::Insert(k, v) => {
                seq.put(k, v).unwrap();
            }
            Op::Delete(k) => {
                seq.delete(k).unwrap();
            }
            Op::Lookup(k) => {
                let _ = seq.get(k).unwrap();
            }
        }
    }
    // Same final logical state, probed over every key either run touched.
    for op in &serialized.ops {
        let k = match *op {
            Op::Insert(k, _) | Op::Delete(k) | Op::Lookup(k) => k,
        };
        assert_eq!(conc.get(k).unwrap(), seq.get(k).unwrap(), "key {k}");
    }
    drop(conc);
    drop(seq);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Pipelined `submit` keeps per-shard atomicity: ops of one call that
/// land on one shard commit in one batch.
#[test]
fn submit_batches_per_shard_and_answers_in_order() {
    let dir = tmp_dir("submit");
    let _ = std::fs::remove_dir_all(&dir);
    let svc = ShardedKvStore::open(&dir, 2, cfg(), 5).unwrap();
    let ops: Vec<WriteOp> = (0..100u64)
        .map(|k| if k % 10 == 9 { WriteOp::Delete(k - 1) } else { WriteOp::Put(k, k * 2) })
        .collect();
    let answers = svc.submit(&ops).unwrap();
    assert_eq!(answers.len(), 100);
    assert!(answers.iter().all(|&a| a), "every delete targeted a just-put key");
    for k in 0..100u64 {
        let expect = match k % 10 {
            8 => None, // deleted by the next op
            9 => None, // never inserted (that op was the delete)
            _ => Some(k * 2),
        };
        assert_eq!(svc.get(k).unwrap(), expect, "key {k}");
    }
    let stats = svc.stats();
    assert!(stats.committed_batches <= 2, "one park per involved shard");
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dropping the service runs the drain-then-sync handshake: every op
/// accepted before the drop is durable after it — even with writers
/// racing the drop from other threads until the moment it happens.
#[test]
fn drop_handshake_loses_no_acknowledged_ops() {
    let dir = tmp_dir("drop-drain");
    let _ = std::fs::remove_dir_all(&dir);
    let threads = 4usize;
    let per_thread = 200u64;
    {
        let svc = ShardedKvStore::open(&dir, 3, cfg(), 31).unwrap();
        std::thread::scope(|scope| {
            for t in 0..threads as u64 {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        svc.put(t * 1_000_000 + i, i + 1).unwrap();
                    }
                });
            }
        });
    } // drop immediately after the last ack — no explicit sync_all
    let svc = ShardedKvStore::open(&dir, 3, cfg(), 31).unwrap();
    for t in 0..threads as u64 {
        for i in 0..per_thread {
            assert_eq!(svc.get(t * 1_000_000 + i).unwrap(), Some(i + 1), "thread {t} op {i}");
        }
    }
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A generated write op plus the serial model's answer for it.
fn apply_serial(model: &mut HashMap<u64, u64>, sel: u8, k: u64, v: u64) -> (WriteOp, bool) {
    if sel < 6 {
        model.insert(k, v);
        (WriteOp::Put(k, v), true)
    } else {
        (WriteOp::Delete(k), model.remove(&k).is_some())
    }
}

/// A generated op as `submit` takes it.
fn write_op(&(sel, k, v): &(u8, u64, u64)) -> WriteOp {
    if sel < 6 {
        WriteOp::Put(k, v)
    } else {
        WriteOp::Delete(k)
    }
}

/// One single-threaded crash lifecycle on `root(env)`: `ops` submitted
/// `chunk` at a time to a `shards`-shard service, the machine crashed at
/// I/O `crash_at` (`None`: never), power-cycled and reopened. Returns the
/// I/Os made before the power cycle, or the first breach of the crash
/// contract: a call failed with the machine up, the reopen failed, an
/// acknowledged chunk was lost, or the chunk the crash failed was split
/// within a shard.
fn crash_lifecycle<M: StoreMedia + Send + 'static>(
    root: impl Fn(&SimEnv) -> M,
    ops: &[(u8, u64, u64)],
    chunk: usize,
    shards: usize,
    seed: u64,
    crash_at: Option<u64>,
) -> Result<u64, String> {
    let cfg = CoreConfig::lemma5(4, 96, 2).unwrap();
    let env = SimEnv::new();
    if let Some(k) = crash_at {
        env.set_plan(FaultPlan::crash(k, seed ^ k.rotate_left(17)));
    }
    let mut acked: HashMap<u64, u64> = HashMap::new();
    let mut failed_window: &[(u8, u64, u64)] = &[];
    match ShardedKvStore::open_on(root(&env), shards, cfg.clone(), seed) {
        Ok(svc) => {
            for window in ops.chunks(chunk) {
                match svc.submit(&window.iter().map(write_op).collect::<Vec<_>>()) {
                    Ok(_) => {
                        for &(sel, k, v) in window {
                            apply_serial(&mut acked, sel, k, v);
                        }
                    }
                    Err(_) if env.crashed() => {
                        failed_window = window;
                        break;
                    }
                    Err(e) => return Err(format!("submit failed without a crash: {e}")),
                }
            }
        }
        Err(e) if !env.crashed() => return Err(format!("open failed without a crash: {e}")),
        Err(_) => {} // a crash inside the open: nothing was acknowledged
    }
    let ios = env.ops();
    env.power_cycle();
    let svc = ShardedKvStore::open_on(root(&env), shards, cfg, seed)
        .map_err(|e| format!("the reopen failed: {e}"))?;
    let get = |k: u64| svc.get(k).map_err(|e| format!("get({k}) after the reopen: {e}"));
    // The crashing chunk's per-shard verdict: every key of a shard's
    // slice reflects the chunk, or none does.
    let mut failed = acked.clone();
    for &(sel, k, v) in failed_window {
        apply_serial(&mut failed, sel, k, v);
    }
    let failed_keys: BTreeSet<u64> = failed_window.iter().map(|op| op.1).collect();
    let mut verdicts: HashMap<usize, bool> = HashMap::new();
    for &k in &failed_keys {
        let (got, before, after) = (get(k)?, acked.get(&k).copied(), failed.get(&k).copied());
        let verdict = match (got == before, got == after) {
            _ if before == after => continue, // indistinguishable
            (true, _) => false,
            (_, true) => true,
            _ => {
                return Err(format!(
                    "key {k} recovered to {got:?}, matching neither the acked fold ({before:?}) \
                     nor the crashing chunk ({after:?})"
                ))
            }
        };
        let si = svc.shard_of(k);
        if verdicts.insert(si, verdict).is_some_and(|prev| prev != verdict) {
            return Err(format!("shard {si} split the crashing chunk"));
        }
    }
    // Every key the crashing chunk did not touch recovers to the acked
    // fold exactly.
    let keys: BTreeSet<u64> = ops.iter().map(|op| op.1).collect();
    for &k in keys.difference(&failed_keys) {
        if get(k)? != acked.get(&k).copied() {
            return Err(format!("acked key {k} diverged after crash recovery"));
        }
    }
    Ok(ios)
}

/// Non-vacuity, with no production knob: over media that silently drop
/// every directory sync, or every file sync, some crash of a lifecycle
/// loses an acknowledged write, where honest media lose none. A lie
/// belongs to the media, not to the schedule, so one thread drives it.
/// The trace half — such a run's I/O trace breaks the durability rules
/// — is asserted over the same media and rules by
/// `tests/torture.rs::sweep_catches_media_that_drop_a_sync`.
#[test]
fn service_sweep_catches_media_that_drop_a_sync() {
    fn breaches<M: StoreMedia + Send + 'static>(
        root: impl Fn(&SimEnv) -> M + Copy,
        ops: &[(u8, u64, u64)],
        ios: u64,
    ) -> usize {
        (1..ios).filter(|&k| crash_lifecycle(root, ops, 4, 2, 0x11E5, Some(k)).is_err()).count()
    }
    let ops: Vec<(u8, u64, u64)> = (0..48).map(|i| ((i % 10) as u8, i % 16, i + 1)).collect();
    let ios = crash_lifecycle(SimMedia::unlocked, &ops, 4, 2, 0x11E5, None).unwrap();
    assert_eq!(breaches(SimMedia::unlocked, &ops, ios), 0, "honest media lost a write");
    for lie in [Lie::DirSync, Lie::FileSync] {
        let lying = |env: &SimEnv| Lying { inner: SimMedia::unlocked(env), lie };
        let lost = breaches(lying, &ops, ios);
        assert!(lost > 0, "{lie:?}: no crash exposed the lie in the recovered state");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The coalescing equivalence battery, part 1: arbitrary hot-key op
    /// streams submitted in arbitrary chunk sizes (the commit log's
    /// newest-wins fold collapses same-key runs) must answer exactly like
    /// op-at-a-time serial application, leave the same logical state as
    /// an uncoalesced single-op twin service, fold away exactly the
    /// predicted number of ops, and hold that state across a
    /// marker sync, a power-cycle reopen, a per-shard compaction, and a
    /// final reopen.
    #[test]
    fn coalesced_submit_is_equivalent_to_serial_application(
        ops in proptest::collection::vec((0u8..10, 0u64..24, 1u64..1_000), 1..160),
        chunk in 1usize..9,
        shards in 1usize..4,
        seed in any::<u64>(),
    ) {
        let env = SimEnv::new();
        let cfg = CoreConfig::lemma5(4, 96, 2).unwrap();
        let svc =
            ShardedKvStore::open_on(SimMedia::unlocked(&env), shards, cfg.clone(), seed)
                .unwrap();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut expected_coalesced = 0u64;
        for window in ops.chunks(chunk) {
            let mut batch = Vec::with_capacity(window.len());
            let mut expect = Vec::with_capacity(window.len());
            for &(sel, k, v) in window {
                let (op, ans) = apply_serial(&mut model, sel, k, v);
                batch.push(op);
                expect.push(ans);
            }
            // Each submit's per-shard slice drains as one batch, so the
            // coalescing saving is exactly (slice ops − distinct keys).
            let mut per_shard: HashMap<usize, (u64, std::collections::HashSet<u64>)> =
                HashMap::new();
            for &(_, k, _) in window {
                let e = per_shard.entry(svc.shard_of(k)).or_default();
                e.0 += 1;
                e.1.insert(k);
            }
            expected_coalesced +=
                per_shard.values().map(|(n, ks)| n - ks.len() as u64).sum::<u64>();
            let answers = svc.submit(&batch).unwrap();
            prop_assert_eq!(answers, expect, "chunked answers reconstruct serial presence");
        }
        prop_assert_eq!(svc.stats().coalesced_ops, expected_coalesced);
        // The uncoalesced twin: same ops, one per submit (a batch of one
        // has nothing to coalesce).
        let env2 = SimEnv::new();
        let serial =
            ShardedKvStore::open_on(SimMedia::unlocked(&env2), shards, cfg.clone(), seed)
                .unwrap();
        let mut twin: HashMap<u64, u64> = HashMap::new();
        for &(sel, k, v) in &ops {
            let (op, ans) = apply_serial(&mut twin, sel, k, v);
            prop_assert_eq!(serial.submit(&[op]).unwrap(), vec![ans]);
        }
        prop_assert_eq!(serial.stats().coalesced_ops, 0, "single-op batches cannot coalesce");
        for k in 0..24u64 {
            prop_assert_eq!(svc.get(k).unwrap(), serial.get(k).unwrap(), "twin diverged at {}", k);
            prop_assert_eq!(svc.get(k).unwrap(), model.get(&k).copied(), "model diverged at {}", k);
        }
        drop(serial);
        // Durability of the coalesced state: sync, clean reopen after a
        // power cycle, compaction, reopen again.
        svc.sync_all().unwrap();
        drop(svc);
        env.power_cycle();
        let svc =
            ShardedKvStore::open_on(SimMedia::unlocked(&env), shards, cfg.clone(), seed)
                .unwrap();
        for k in 0..24u64 {
            prop_assert_eq!(svc.get(k).unwrap(), model.get(&k).copied(), "after reopen: {}", k);
        }
        for si in 0..shards {
            svc.with_shard(si, |s| s.compact()).unwrap();
        }
        svc.sync_all().unwrap();
        for k in 0..24u64 {
            prop_assert_eq!(svc.get(k).unwrap(), model.get(&k).copied(), "after compact: {}", k);
        }
        drop(svc);
        let svc = ShardedKvStore::open_on(SimMedia::unlocked(&env), shards, cfg, seed).unwrap();
        for k in 0..24u64 {
            prop_assert_eq!(svc.get(k).unwrap(), model.get(&k).copied(), "final reopen: {}", k);
        }
    }

    /// The coalescing equivalence battery, part 2: a crash at an
    /// arbitrary point of the lifecycle recovers every acknowledged
    /// chunk exactly, and the crashing chunk all-in-or-all-out per
    /// shard slice — coalesced commit-log records replay to the same
    /// state serial records would have.
    #[test]
    fn coalesced_crash_recovery_is_chunk_atomic_per_shard(
        ops in proptest::collection::vec((0u8..10, 0u64..16, 1u64..1_000), 8..120),
        chunk in 1usize..7,
        shards in 1usize..4,
        seed in any::<u64>(),
        frac in 0.05f64..0.95,
    ) {
        let lifecycle = |crash_at| {
            crash_lifecycle(SimMedia::unlocked, &ops, chunk, shards, seed, crash_at)
                .map_err(TestCaseError::fail)
        };
        // Size the fault-free lifecycle to aim the crash inside it.
        let ios = lifecycle(None)?;
        lifecycle(Some(((ios as f64 * frac) as u64).max(1)))?;
    }
}

/// Reopening with a different shard count is refused — the partition is
/// baked into the directory layout.
#[test]
fn dir_service_rejects_shard_count_change() {
    let dir = tmp_dir("reshard");
    let _ = std::fs::remove_dir_all(&dir);
    drop(ShardedKvStore::open(&dir, 4, cfg(), 9).unwrap());
    let err = match ShardedKvStore::open(&dir, 8, cfg(), 9) {
        Err(e) => e,
        Ok(_) => panic!("shard-count change must be rejected"),
    };
    assert!(err.to_string().contains("4 shards"), "got: {err}");
    // The original count still opens, and the shard directories exist —
    // with no manifest, for no shard has held anything to commit.
    let svc = ShardedKvStore::open(&dir, 4, cfg(), 9).unwrap();
    assert_eq!(svc.shard_count(), 4);
    for i in 0..4 {
        let shard = dir.join(format!("shard-{i:03}"));
        assert!(shard.is_dir() && !shard.join("MANIFEST").exists(), "shard {i}");
    }
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}
