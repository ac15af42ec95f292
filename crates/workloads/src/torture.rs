//! The recovery torture harness: seed-deterministic crash-recovery
//! scenarios for the persistent store, on the crash-simulation
//! environment.
//!
//! One [`torture_run`] is a full lifecycle on a fresh
//! [`dxh_extmem::SimEnv`]:
//!
//! 1. replay a [`ChurnMix`] prefix against a [`KvStore`] with a shadow
//!    `HashMap` model, syncing periodically;
//! 2. a **final sync**, then an unsynced churn tail, then a
//!    [`KvStore::compact`] — the two commit windows whose every I/O
//!    index the exhaustive sweep crashes at;
//! 3. if a crash fired (the plan's `crash_at` index), power-cycle the
//!    environment, reopen, drop that handle untouched (recover → clean
//!    close) and reopen again;
//! 4. assert the recovered store equals the shadow model at the **last
//!    committed manifest** (or the in-flight commit, when the crash fell
//!    after its commit point) — every synced key with its last synced
//!    value, no phantom keys — that recovery leaves no block file the
//!    manifest does not name, that a follow-up compaction round-trips,
//!    and that the store keeps accepting work across one more sync and
//!    reopen.
//!
//! Everything is a pure function of `(spec, crash_at)`: the workload is
//! generated from the seed, the crash write-survival lottery is seeded
//! from it, and the environment records a full I/O trace — so a failing
//! run is replayed exactly by feeding the same seed back (see the
//! `torture` bench binary and `tests/torture.rs`).

use std::collections::{HashMap, HashSet};

use dxh_core::{CoreConfig, ExternalDictionary, KvStore, SimMedia, StoreMedia};
use dxh_extmem::{fnv1a64, FaultPlan, IoEvent, Key, SimEnv, Value};

use crate::generator::{ChurnMix, Workload};
use crate::trace::Op;

/// Sentinel namespace for post-recovery usability probes: bit 63 set,
/// which no workload generator produces (they emit 63-bit keys).
const SENTINEL: u64 = 1 << 63;

/// One torture scenario: the store shape, the churn workload, and the
/// sync cadence. Everything downstream is derived from `seed`.
#[derive(Clone, Debug)]
pub struct TortureSpec {
    /// Store configuration (small `b`/`m` keep the I/O windows small
    /// enough to sweep exhaustively).
    pub cfg: CoreConfig,
    /// The churn workload replayed against the store.
    pub workload: ChurnMix,
    /// Sync after every this many operations of the prefix.
    pub sync_every: usize,
    /// Operations replayed before the final sync; the rest of the trace
    /// is the unsynced tail ahead of the compaction.
    pub prefix: usize,
    /// Master seed: workload generation, store hashing, and the crash
    /// write-survival lottery all derive from it.
    pub seed: u64,
}

impl TortureSpec {
    /// The small scenario the test suite and CI sweep exhaustively: the
    /// commit windows span a few hundred I/Os, so crashing at every one
    /// of them stays cheap.
    pub fn small(seed: u64) -> Self {
        TortureSpec {
            cfg: CoreConfig::lemma5(4, 96, 2).expect("valid config"),
            workload: ChurnMix::new(160, 0.55, 0.2).expect("valid mix"),
            sync_every: 48,
            prefix: 120,
            seed,
        }
    }
}

/// I/O-clock positions of the run's commit windows, reported by a
/// crash-free run so a sweep can crash at every index inside them.
#[derive(Clone, Copy, Debug)]
pub struct PhaseMarkers {
    /// `[start, end)` clock indices of the final explicit sync.
    pub final_sync: (u64, u64),
    /// `[start, end)` clock indices of the compaction.
    pub compact: (u64, u64),
    /// Total operations the crash-free lifecycle performed.
    pub total_ops: u64,
}

/// What one [`torture_run`] observed.
#[derive(Clone, Debug)]
pub struct TortureReport {
    /// The crash index the run was configured with.
    pub crash_at: Option<u64>,
    /// Whether the crash point actually fired before the workload ended.
    pub crashed: bool,
    /// Invariant violations (empty = the run passed). Each message is
    /// self-contained; the failing seed is in [`TortureReport::seed`].
    pub violations: Vec<String>,
    /// The seed the run derives from — print this to reproduce.
    pub seed: u64,
    /// Commit-window positions (crash-free runs only).
    pub markers: Option<PhaseMarkers>,
    /// The environment's full I/O trace (workload + recovery) — two runs
    /// of the same `(spec, crash_at)` produce identical traces.
    pub trace: Vec<IoEvent>,
    /// Fold of the recovered logical state (sorted key/value pairs).
    pub state_fingerprint: u64,
    /// Keys live in the recovered state.
    pub recovered_keys: usize,
}

/// [`fnv1a64`] over the sorted key/value pairs of a model — the
/// recovered state's identity for determinism comparisons (the same
/// fold the I/O trace's fingerprints use).
fn state_fingerprint(model: &HashMap<Key, Value>) -> u64 {
    let mut pairs: Vec<(Key, Value)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    pairs.sort_unstable();
    let mut bytes = Vec::with_capacity(pairs.len() * 16);
    for (k, v) in pairs {
        bytes.extend_from_slice(&k.to_le_bytes());
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Probes `store` for every key in `touched` and reports mismatches
/// against `model` (capped — the first few carry the diagnosis).
fn diff_state<M: StoreMedia>(
    store: &mut KvStore<M>,
    model: &HashMap<Key, Value>,
    touched: &[Key],
) -> Vec<String> {
    let mut out = Vec::new();
    for &k in touched {
        match store.lookup(k) {
            Ok(got) => {
                let want = model.get(&k).copied();
                if got != want {
                    out.push(format!("key {k}: store answers {got:?}, model says {want:?}"));
                    if out.len() >= 5 {
                        break;
                    }
                }
            }
            Err(e) => {
                out.push(format!("key {k}: lookup errored after recovery: {e}"));
                break;
            }
        }
    }
    out
}

/// Runs one full lifecycle (see the module docs) with an optional crash
/// index. Never panics: every invariant violation lands in the report.
/// Every run records its I/O trace — not just as evidence, but because
/// the report's conformance check (`dxh_dura::check_trace`) validates
/// it against the durability-protocol rules.
pub fn torture_run(spec: &TortureSpec, crash_at: Option<u64>) -> TortureReport {
    torture_run_on(spec, crash_at, SimMedia::open)
}

/// [`torture_run`] on caller-chosen media over the run's [`SimEnv`]:
/// `open` is called at every (re)open. The seam that lets a test wrap
/// [`SimMedia`] in a decorator that breaks a durability primitive and
/// check that the sweep notices.
pub fn torture_run_on<M: StoreMedia>(
    spec: &TortureSpec,
    crash_at: Option<u64>,
    open: impl Fn(&SimEnv) -> dxh_extmem::Result<M>,
) -> TortureReport {
    let env = SimEnv::new();
    env.set_tracing(true);
    if let Some(k) = crash_at {
        env.set_plan(FaultPlan::crash(k, spec.seed ^ k.rotate_left(17)));
    }
    let trace = spec.workload.generate(spec.seed);
    let prefix = spec.prefix.min(trace.ops.len());

    // Every key the workload mentions, in first-appearance order — the
    // probe set for exact-state comparison (deterministic order).
    let mut seen = HashSet::new();
    let mut touched: Vec<Key> = Vec::new();
    for op in &trace.ops {
        let k = match *op {
            Op::Insert(k, _) | Op::Lookup(k) | Op::Delete(k) => k,
        };
        if seen.insert(k) {
            touched.push(k);
        }
    }

    // Shadow models. `committed` mirrors the last *successfully
    // committed* manifest; `pending` is the state a commit in flight at
    // the crash would have made durable — the recovered store must equal
    // exactly one of them (which one tells us on which side of the
    // commit point the crash fell).
    let mut committed: HashMap<Key, Value> = HashMap::new();
    let mut pending: Option<HashMap<Key, Value>> = None;
    let mut live: HashMap<Key, Value> = HashMap::new();
    let mut violations: Vec<String> = Vec::new();
    let mut markers = None;
    let mut crashed = false;

    'workload: {
        // A macro-free "run this store call; on a crash stop the phase,
        // on any other error record a violation" helper would need to
        // borrow both the store and the violation list, so the phases
        // below match inline instead.
        let media = match open(&env) {
            Ok(m) => m,
            Err(e) => {
                if env.crashed() {
                    crashed = true;
                } else {
                    violations.push(format!("locking a fresh env failed without a crash: {e}"));
                }
                break 'workload;
            }
        };
        let mut store = match KvStore::open_on(media, spec.cfg.clone(), spec.seed) {
            Ok(s) => s,
            Err(e) => {
                if env.crashed() {
                    crashed = true;
                } else {
                    violations.push(format!("creating the store failed without a crash: {e}"));
                }
                break 'workload;
            }
        };
        // Replay: prefix with periodic syncs, then the final sync, then
        // the unsynced tail, then the compaction.
        for (i, op) in trace.ops.iter().enumerate() {
            let result = match *op {
                Op::Insert(k, v) => store.insert(k, v).map(|()| {
                    live.insert(k, v);
                }),
                Op::Delete(k) => store.delete(k).map(|was| {
                    let expected = live.remove(&k).is_some();
                    if was != expected {
                        violations
                            .push(format!("delete({k}) reported {was}, model expected {expected}"));
                    }
                }),
                Op::Lookup(k) => store.lookup(k).map(|got| {
                    let want = live.get(&k).copied();
                    if got != want {
                        violations
                            .push(format!("lookup({k}) answered {got:?}, model says {want:?}"));
                    }
                }),
            };
            if let Err(e) = result {
                if env.crashed() {
                    crashed = true;
                } else {
                    violations.push(format!("op {i} failed without a crash: {e}"));
                }
                break 'workload;
            }
            let end_of_prefix = i + 1 == prefix;
            if (i < prefix && (i + 1) % spec.sync_every == 0) || end_of_prefix {
                let s0 = env.ops();
                pending = Some(live.clone());
                match store.sync() {
                    Ok(()) => committed = pending.take().expect("pending set above"),
                    Err(e) => {
                        if env.crashed() {
                            crashed = true;
                        } else {
                            violations.push(format!("sync after op {i} failed: {e}"));
                        }
                        break 'workload;
                    }
                }
                if end_of_prefix {
                    markers = Some(PhaseMarkers {
                        final_sync: (s0, env.ops()),
                        compact: (0, 0), // patched below
                        total_ops: 0,
                    });
                }
            }
        }
        let c0 = env.ops();
        pending = Some(live.clone());
        match store.compact() {
            Ok(stats) => {
                committed = pending.take().expect("pending set above");
                if stats.live_items != committed.len() {
                    violations.push(format!(
                        "compaction kept {} items, model holds {}",
                        stats.live_items,
                        committed.len()
                    ));
                }
            }
            Err(e) => {
                if env.crashed() {
                    crashed = true;
                } else {
                    violations.push(format!("compaction failed without a crash: {e}"));
                }
                break 'workload;
            }
        }
        if let Some(m) = markers.as_mut() {
            m.compact = (c0, env.ops());
            m.total_ops = env.ops();
        }
        // Clean shutdown: compact committed, so the drop is a no-op.
    }

    // --- Recovery: power-cycle and reopen, faults cleared. ---
    // A crash can fire inside a best-effort step (stale-file cleanup)
    // and still let the phase "succeed"; read the flag before the power
    // cycle clears it.
    crashed = crashed || env.crashed();
    env.power_cycle();
    let report = |mut violations: Vec<String>, model: &HashMap<Key, Value>, env: &SimEnv| {
        // Trace conformance: the run's observed I/O must satisfy every
        // trace-enabled durability rule (dxh-dura's automaton) — the
        // runtime twin of `cargo run -p xtask -- lint-durability`.
        let trace = env.take_trace();
        violations
            .extend(dxh_dura::check_trace(&trace).iter().map(|v| format!("durability trace: {v}")));
        TortureReport {
            crash_at,
            crashed,
            violations,
            seed: spec.seed,
            markers,
            trace,
            state_fingerprint: state_fingerprint(model),
            recovered_keys: model.len(),
        }
    };
    // Twice: the first handle recovers and is dropped untouched — a
    // clean close over whatever the crash left — and everything below
    // runs on the handle that reopens what that close wrote.
    let reopen = || open(&env).and_then(|m| KvStore::open_on(m, spec.cfg.clone(), spec.seed));
    let mut store = match reopen().map(drop).and_then(|()| reopen()) {
        Ok(s) => s,
        Err(e) => {
            violations.push(format!("reopen after the crash failed: {e}"));
            return report(violations, &committed, &env);
        }
    };

    // Which side of the commit point did the crash fall on?
    let mismatch_committed = diff_state(&mut store, &committed, &touched);
    let model = if mismatch_committed.is_empty() {
        committed
    } else if let Some(p) = pending.take() {
        let mismatch_pending = diff_state(&mut store, &p, &touched);
        if mismatch_pending.is_empty() {
            p
        } else {
            violations.push(format!(
                "recovered state matches neither the last committed manifest (first \
                 mismatch: {}) nor the commit in flight at the crash (first mismatch: {})",
                mismatch_committed[0], mismatch_pending[0]
            ));
            committed
        }
    } else {
        violations.push(format!(
            "recovered state diverged from the only committed manifest: {}",
            mismatch_committed[0]
        ));
        committed
    };

    // No phantom keys outside the workload's namespace either.
    for j in 0..8u64 {
        let k = SENTINEL | (1 << 62) | (spec.seed.rotate_left(j as u32) >> 2);
        match store.lookup(k) {
            Ok(None) => {}
            Ok(Some(v)) => violations.push(format!("phantom key {k} appeared with value {v}")),
            Err(e) => violations.push(format!("phantom probe {k} errored: {e}")),
        }
    }

    // Stray removal: recovery must leave the level files the manifest
    // names, to the byte, and no other block file.
    match store.footprint() {
        Ok(footprint) => {
            let on_media: Vec<String> =
                env.file_names().into_iter().filter(|n| n.ends_with(".blk")).collect();
            let bytes: u64 = on_media.iter().map(|n| env.file_len(n)).sum();
            let named = store.table().disk().backend().file_count();
            if on_media.len() != named || bytes != footprint.data_bytes {
                violations.push(format!(
                    "recovery left {on_media:?} ({bytes} bytes) where the manifest names \
                     {named} level files of {} bytes",
                    footprint.data_bytes
                ));
            }
        }
        Err(e) => violations.push(format!("footprint after recovery failed: {e}")),
    }

    // A follow-up compaction must round-trip the recovered state.
    match store.compact() {
        Ok(stats) => {
            if stats.live_items != model.len() {
                violations.push(format!(
                    "post-recovery compaction kept {} items, model holds {}",
                    stats.live_items,
                    model.len()
                ));
            }
        }
        Err(e) => violations.push(format!("post-recovery compaction failed: {e}")),
    }
    violations.extend(diff_state(&mut store, &model, &touched));

    // The store keeps accepting work: fresh sentinel inserts, a sync,
    // one more reopen, and everything is still exact.
    for j in 0..16u64 {
        if let Err(e) = store.insert(SENTINEL | j, j) {
            violations.push(format!("post-recovery insert failed: {e}"));
            break;
        }
    }
    if let Err(e) = store.sync() {
        violations.push(format!("post-recovery sync failed: {e}"));
    }
    drop(store);
    match open(&env).and_then(|media| KvStore::open_on(media, spec.cfg.clone(), spec.seed)) {
        Ok(mut store) => {
            violations.extend(diff_state(&mut store, &model, &touched));
            for j in 0..16u64 {
                match store.lookup(SENTINEL | j) {
                    Ok(Some(v)) if v == j => {}
                    other => violations
                        .push(format!("sentinel {j} lost across the final reopen: {other:?}")),
                }
            }
        }
        Err(e) => violations.push(format!("final reopen failed: {e}")),
    }
    report(violations, &model, &env)
}

/// Crashes at every I/O index in `[lo, hi)` and returns the reports that
/// violated an invariant — a recovered-state mismatch or a durability
/// trace-conformance violation (empty = the whole window is crash-safe
/// and every run's I/O trace conformed).
pub fn sweep_crash_indices(spec: &TortureSpec, lo: u64, hi: u64) -> Vec<TortureReport> {
    (lo..hi)
        .filter_map(|k| {
            let r = torture_run(spec, Some(k));
            (!r.violations.is_empty()).then_some(r)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_free_run_passes_and_reports_markers() {
        let report = torture_run(&TortureSpec::small(11), None);
        assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
        assert!(!report.crashed);
        let m = report.markers.expect("crash-free run reports markers");
        assert!(m.final_sync.0 < m.final_sync.1, "final sync spans I/Os: {m:?}");
        assert!(m.compact.0 < m.compact.1, "compact spans I/Os: {m:?}");
        assert!(m.total_ops >= m.compact.1);
        assert!(report.recovered_keys > 0);
    }

    #[test]
    fn a_mid_churn_crash_recovers_to_a_committed_state() {
        let spec = TortureSpec::small(23);
        let clean = torture_run(&spec, None);
        let mid = clean.markers.unwrap().final_sync.0 / 2;
        let report = torture_run(&spec, Some(mid));
        assert!(report.crashed, "index {mid} lands inside the churn");
        assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    }

    #[test]
    fn same_seed_same_crash_index_is_byte_identical() {
        let spec = TortureSpec::small(7);
        let a = torture_run(&spec, Some(180));
        let b = torture_run(&spec, Some(180));
        assert_eq!(a.crashed, b.crashed);
        assert_eq!(a.state_fingerprint, b.state_fingerprint, "identical recovered state");
        assert_eq!(a.trace, b.trace, "identical I/O trace, event for event");
        assert_eq!(a.violations, b.violations);
    }
}
