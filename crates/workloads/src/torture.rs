//! The recovery torture harness: seed-deterministic crash-recovery
//! scenarios for the persistent store, on the crash-simulation
//! environment, in either of the store's two modes — raw (`u64` words
//! in the table) or payload (byte strings in the blob log, the table the
//! index over it).
//!
//! One [`torture_run`] is a full lifecycle on a fresh
//! [`dxh_extmem::SimEnv`]:
//!
//! 1. replay a [`ChurnMix`] prefix against a [`KvStore`] with a shadow
//!    model of bytes, syncing periodically. In payload mode an insert is
//!    a `put_bytes` of 0..=100 bytes — among them the empty payload and
//!    the `u64::MAX` image, which the raw word path rejects (G8 in
//!    `docs/GUARANTEES.md`) — every other lookup becomes a put of a new
//!    version (overwriting a live key or re-putting a deleted one), and
//!    the rest compare `get_bytes`; in raw mode the model holds each
//!    word's 8-byte little-endian image;
//! 2. a **final sync**, then an unsynced churn tail, then a
//!    [`KvStore::compact`] — the two commit windows whose every I/O
//!    index the exhaustive sweep crashes at. The final-sync window opens
//!    before the prefix's last insert; in payload mode that insert
//!    overwrites a committed payload longer than a word, so the window
//!    holds its blob append, the fdatasync and the index commit after
//!    it; the compaction window holds the rewrite of the blob log as its
//!    next generation;
//! 3. power-cycle the environment (whether or not the plan's `crash_at`
//!    index fired), reopen, drop that handle untouched (recover → clean
//!    close) and reopen again;
//! 4. assert the recovered store equals the shadow model at the **last
//!    committed manifest** (or the in-flight commit, when the crash fell
//!    after its commit point) byte for byte — every synced key with its
//!    last synced value, no phantom keys — that recovery leaves no block
//!    file the manifest does not name and, in payload mode, no blob
//!    log but the one the manifest names, that a follow-up compaction
//!    round-trips, and that the store keeps accepting work across one
//!    more sync and reopen.
//!
//! Everything is a pure function of `(spec, crash_at)`: the workload is
//! generated from the seed, the crash write-survival lottery is seeded
//! from it, and the environment records a full I/O trace — so a failing
//! run is replayed exactly by feeding the same seed back (see the
//! `torture` bench binary and `tests/torture.rs`, which run every seed
//! in both modes).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt::Display;

use dxh_core::{CoreConfig, ExternalDictionary, KvStore, SimMedia, StoreMedia};
use dxh_extmem::{fnv1a64, FaultPlan, IoEvent, Key, Result, SimEnv, Value};

use crate::generator::{ChurnMix, Workload};
use crate::trace::Op;

/// Sentinel namespace for post-recovery usability probes: bit 63 set,
/// which no workload generator produces (they emit 63-bit keys).
const SENTINEL: u64 = 1 << 63;

/// Each key's value as the store holds it.
type Model = HashMap<Key, Vec<u8>>;

/// One torture scenario: the store shape and mode, the churn workload,
/// and the sync cadence. Everything downstream is derived from `seed`.
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
    /// Master seed: workload generation, payload bytes, store hashing,
    /// and the crash write-survival lottery all derive from it.
    pub seed: u64,
    /// Payload mode: a store opened with `open_payload_on`, written
    /// through `put_bytes` and read through `get_bytes`.
    pub payloads: bool,
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
            payloads: false,
        }
    }

    /// [`TortureSpec::small`] in payload mode.
    pub fn small_payload(seed: u64) -> Self {
        TortureSpec { payloads: true, ..Self::small(seed) }
    }

    /// The bytes an insert of `v` stores: the word's 8-byte image in raw
    /// mode; in payload mode `v`'s payload — the `u64::MAX` image, the
    /// empty payload, or 0..=100 seed-derived bytes.
    fn value(&self, v: Value) -> Vec<u8> {
        let mix = self.seed ^ v.rotate_left(13);
        match (self.payloads, v % 8) {
            (false, _) => v.to_le_bytes().to_vec(),
            (true, 0) => u64::MAX.to_le_bytes().to_vec(),
            (true, 1) => Vec::new(),
            (true, _) => {
                (0..mix % 101).map(|i| (mix as u8).wrapping_mul(37).wrapping_add(i as u8)).collect()
            }
        }
    }

    /// The workload as the lifecycle replays it. In payload mode every
    /// other lookup becomes a put of a new version — an overwrite of a
    /// live key, or a re-put of a deleted one — and the prefix's last op
    /// a put over its oldest live payload longer than a word, of another
    /// such payload, so the final-sync window rewrites committed bytes.
    fn ops(&self) -> Vec<Op> {
        let mut ops = self.workload.generate(self.seed).ops;
        let long = |v: Value| self.value(v).len() > 8;
        let version = |k: Key, i: usize| k ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut live: HashMap<Key, (usize, Value)> = HashMap::new();
        for (i, op) in ops.iter_mut().enumerate().filter(|_| self.payloads) {
            if i + 1 == self.prefix {
                let oldest = live.iter().filter(|(_, &(_, v))| long(v)).min_by_key(|(_, w)| w.0);
                if let Some((&k, _)) = oldest {
                    let v = (i..).map(|j| version(k, j)).find(|&v| long(v)).expect("unbounded");
                    *op = Op::Insert(k, v);
                }
            } else if let (Op::Lookup(k), 0) = (*op, i % 2) {
                *op = Op::Insert(k, version(k, i));
            }
            match *op {
                Op::Insert(k, v) => live.insert(k, (i, v)),
                Op::Delete(k) => live.remove(&k),
                Op::Lookup(_) => None,
            };
        }
        ops
    }

    fn open<M: StoreMedia>(&self, media: M) -> Result<KvStore<M>> {
        match self.payloads {
            true => KvStore::open_payload_on(media, self.cfg.clone(), self.seed),
            false => KvStore::open_on(media, self.cfg.clone(), self.seed),
        }
    }
}

/// Stores `bytes` under `key` the way the store's mode takes a value.
fn put<M: StoreMedia>(store: &mut KvStore<M>, key: Key, bytes: &[u8]) -> Result<()> {
    match store.payload_mode() {
        true => store.put_bytes(key, bytes),
        false => store.insert(key, u64::from_le_bytes(bytes.try_into().expect("a word image"))),
    }
}

/// `key`'s value as [`put`] stored it.
fn get<M: StoreMedia>(store: &mut KvStore<M>, key: Key) -> Result<Option<Vec<u8>>> {
    match store.payload_mode() {
        true => store.get_bytes(key).map(|b| b.map(<[u8]>::to_vec)),
        false => store.lookup(key).map(|w| w.map(|w| w.to_le_bytes().to_vec())),
    }
}

/// I/O-clock positions of the run's commit windows, reported by a
/// crash-free run so a sweep can crash at every index inside them.
#[derive(Clone, Copy, Debug)]
pub struct PhaseMarkers {
    /// `[start, end)` clock indices from the prefix's last insert
    /// through the final explicit sync.
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
fn state_fingerprint(model: &Model) -> u64 {
    let mut pairs: Vec<(&Key, &Vec<u8>)> = model.iter().collect();
    pairs.sort_unstable();
    let mut bytes = Vec::new();
    for (k, v) in pairs {
        bytes.extend_from_slice(&k.to_le_bytes());
        bytes.extend_from_slice(&(v.len() as u64).to_le_bytes());
        bytes.extend_from_slice(v);
    }
    fnv1a64(&bytes)
}

/// Probes `store` for every key in `touched` and reports byte-exact
/// mismatches against `model` (capped — the first few carry the
/// diagnosis). A torn payload mismatches even where its length survived.
fn diff_state<M: StoreMedia>(
    store: &mut KvStore<M>,
    model: &Model,
    touched: &[Key],
) -> Vec<String> {
    let mut out = Vec::new();
    for &k in touched {
        let got = match get(store, k) {
            Ok(got) => got,
            Err(e) => {
                out.push(format!("key {k}: read errored after recovery: {e}"));
                break;
            }
        };
        if got.as_ref() != model.get(&k) {
            out.push(format!("key {k}: store answers {got:?}, model says {:?}", model.get(&k)));
            if out.len() >= 5 {
                break;
            }
        }
    }
    out
}

/// One crash run in progress: the machine it drives and the violations
/// seen so far.
struct CrashRun {
    /// The simulated machine of the run, tracing from its first op.
    env: SimEnv,
    violations: RefCell<Vec<String>>,
}

impl CrashRun {
    /// A fresh machine that crashes at I/O index `crash_at`, if any,
    /// with a write-survival lottery seeded from `seed` and the index.
    fn new(seed: u64, crash_at: Option<u64>) -> Self {
        let env = SimEnv::new();
        env.set_tracing(true);
        if let Some(k) = crash_at {
            env.set_plan(FaultPlan::crash(k, seed ^ k.rotate_left(17)));
        }
        CrashRun { env, violations: RefCell::default() }
    }

    /// Records an invariant violation.
    fn violation(&self, what: String) {
        self.violations.borrow_mut().push(what);
    }

    /// Passes `Ok` through. An error is the crash itself once the crash
    /// point has fired, and a violation otherwise; either way `None`
    /// tells the caller to stop its phase.
    fn check<T>(&self, what: impl Display, result: Result<T>) -> Option<T> {
        result
            .map_err(|e| {
                if !self.env.crashed() {
                    self.violation(format!("{what} failed without a crash: {e}"));
                }
            })
            .ok()
    }

    /// Ends the crash phase: reports whether the crash fired — read
    /// before the power cycle clears it, since a crash inside a
    /// best-effort step (stray cleanup, a drop's sync) lets its phase
    /// succeed — and power-cycles the machine with faults cleared.
    fn power_cycle(&self) -> bool {
        let crashed = self.env.crashed();
        self.env.power_cycle();
        crashed
    }

    /// Ends the run: its violations, then one for each durability rule
    /// the whole I/O trace broke (`dxh_dura::check_trace`), and the
    /// trace.
    fn finish(self) -> (Vec<String>, Vec<IoEvent>) {
        let trace = self.env.take_trace();
        let mut violations = self.violations.into_inner();
        violations
            .extend(dxh_dura::check_trace(&trace).iter().map(|v| format!("durability trace: {v}")));
        (violations, trace)
    }
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
    open: impl Fn(&SimEnv) -> Result<M>,
) -> TortureReport {
    let run = CrashRun::new(spec.seed, crash_at);
    let env = &run.env;
    let ops = spec.ops();
    let prefix = spec.prefix.min(ops.len());
    let window_from = ops[..prefix].iter().rposition(|op| matches!(op, Op::Insert(..)));
    let reopen = || open(env).and_then(|media| spec.open(media));

    // Every key the workload mentions, in first-appearance order — the
    // probe set for exact-state comparison (deterministic order).
    let mut seen = HashSet::new();
    let touched: Vec<Key> = ops
        .iter()
        .map(|op| match *op {
            Op::Insert(k, _) | Op::Lookup(k) | Op::Delete(k) => k,
        })
        .filter(|&k| seen.insert(k))
        .collect();

    // Shadow models. `committed` mirrors the last *successfully
    // committed* manifest; `pending` is the state a commit in flight at
    // the crash would have made durable — the recovered store must equal
    // exactly one of them (which one tells us on which side of the
    // commit point the crash fell).
    let mut committed = Model::new();
    let mut pending: Option<Model> = None;
    let mut live = Model::new();
    let mut markers = None;

    'workload: {
        let Some(mut store) = run.check("creating the store", reopen()) else { break 'workload };
        // Replay: prefix with periodic syncs, then the final sync, then
        // the unsynced tail, then the compaction.
        let mut s0 = 0;
        for (i, op) in ops.iter().enumerate() {
            if Some(i) == window_from {
                s0 = env.ops();
            }
            let result = match *op {
                Op::Insert(k, v) => {
                    let bytes = spec.value(v);
                    put(&mut store, k, &bytes).map(|()| {
                        live.insert(k, bytes);
                    })
                }
                Op::Delete(k) => store.delete(k).map(|was| {
                    let expected = live.remove(&k).is_some();
                    if was != expected {
                        run.violation(format!(
                            "delete({k}) reported {was}, model expected {expected}"
                        ));
                    }
                }),
                Op::Lookup(k) => get(&mut store, k).map(|got| {
                    let want = live.get(&k);
                    if got.as_ref() != want {
                        run.violation(format!("lookup({k}) answered {got:?}, model says {want:?}"));
                    }
                }),
            };
            if run.check(format_args!("op {i}"), result).is_none() {
                break 'workload;
            }
            let end_of_prefix = i + 1 == prefix;
            if (i < prefix && (i + 1) % spec.sync_every == 0) || end_of_prefix {
                pending = Some(live.clone());
                if run.check(format_args!("sync after op {i}"), store.sync()).is_none() {
                    break 'workload;
                }
                committed = pending.take().expect("pending set above");
                if end_of_prefix {
                    let final_sync = (s0, env.ops());
                    markers = Some(PhaseMarkers { final_sync, compact: (0, 0), total_ops: 0 });
                }
            }
        }
        let c0 = env.ops();
        pending = Some(live.clone());
        let Some(stats) = run.check("compaction", store.compact()) else { break 'workload };
        committed = pending.take().expect("pending set above");
        if stats.live_items != committed.len() {
            run.violation(format!(
                "compaction kept {} items, model holds {}",
                stats.live_items,
                committed.len()
            ));
        }
        if let Some(m) = markers.as_mut() {
            m.compact = (c0, env.ops());
            m.total_ops = env.ops();
        }
        // Clean shutdown: compact committed, so the drop is a no-op.
    }

    // --- Recovery: power-cycle and reopen, faults cleared. ---
    let crashed = run.power_cycle();
    let mut model = committed;
    'recovery: {
        // Twice: the first handle recovers and is dropped untouched — a
        // clean close over whatever the crash left — and everything below
        // runs on the handle that reopens what that close wrote.
        let reopened = reopen().map(drop).and_then(|()| reopen());
        let Some(mut store) = run.check("reopen after the crash", reopened) else {
            break 'recovery;
        };

        // Which side of the commit point did the crash fall on?
        let mismatch = diff_state(&mut store, &model, &touched);
        if !mismatch.is_empty() {
            match pending.take().map(|p| (diff_state(&mut store, &p, &touched), p)) {
                Some((diff, p)) if diff.is_empty() => model = p,
                Some((diff, _)) => run.violation(format!(
                    "recovered state matches neither the last committed manifest (first \
                     mismatch: {}) nor the commit in flight at the crash (first mismatch: {})",
                    mismatch[0], diff[0]
                )),
                None => run.violation(format!(
                    "recovered state diverged from the only committed manifest: {}",
                    mismatch[0]
                )),
            }
        }

        // No phantom keys outside the workload's namespace either.
        for j in 0..8u64 {
            let k = SENTINEL | (1 << 62) | (spec.seed.rotate_left(j as u32) >> 2);
            match get(&mut store, k) {
                Ok(None) => {}
                other => run.violation(format!("phantom probe {k} answered {other:?}")),
            }
        }

        // Stray removal: recovery must leave the level files the manifest
        // names, to the byte, and no other block file; and in payload mode
        // one blob file — the log the store opened through its manifest —
        // of the open log's length (none at all in raw mode).
        if let Some(footprint) = run.check("footprint after recovery", store.footprint()) {
            let on_media = |ext: &str| {
                let names: Vec<String> =
                    env.file_names().into_iter().filter(|n| n.ends_with(ext)).collect();
                let bytes: u64 = names.iter().map(|n| env.file_len(n)).sum();
                (names, bytes)
            };
            let (blocks, bytes) = on_media(".blk");
            let named = store.table().disk().backend().file_count();
            if blocks.len() != named || bytes != footprint.data_bytes {
                run.violation(format!(
                    "recovery left {blocks:?} ({bytes} bytes) where the manifest names {named} \
                     level files of {} bytes",
                    footprint.data_bytes
                ));
            }
            let (blobs, bytes) = on_media(".blob");
            let named = usize::from(store.payload_mode());
            if blobs.len() != named || bytes != footprint.blob_bytes {
                run.violation(format!(
                    "recovery left {blobs:?} ({bytes} bytes) where the store holds {named} blob \
                     log of {} bytes",
                    footprint.blob_bytes
                ));
            }
        }

        // A follow-up compaction must round-trip the recovered state.
        if let Some(stats) = run.check("post-recovery compaction", store.compact()) {
            if stats.live_items != model.len() {
                run.violation(format!(
                    "post-recovery compaction kept {} items, model holds {}",
                    stats.live_items,
                    model.len()
                ));
            }
        }
        diff_state(&mut store, &model, &touched).into_iter().for_each(|v| run.violation(v));

        // The store keeps accepting work: fresh sentinel values, a sync,
        // one more reopen, and everything is still exact.
        let sentinels: Vec<(Key, Vec<u8>)> =
            (0..16).map(|j| (SENTINEL | j, spec.value(j))).collect();
        for (k, v) in &sentinels {
            if run.check("post-recovery insert", put(&mut store, *k, v)).is_none() {
                break;
            }
        }
        run.check("post-recovery sync", store.sync());
        drop(store);
        let Some(mut store) = run.check("final reopen", reopen()) else { break 'recovery };
        diff_state(&mut store, &model, &touched).into_iter().for_each(|v| run.violation(v));
        for (k, want) in &sentinels {
            match get(&mut store, *k) {
                Ok(Some(got)) if got == *want => {}
                other => {
                    run.violation(format!("sentinel {k} lost across the final reopen: {other:?}"))
                }
            }
        }
    }

    let (violations, trace) = run.finish();
    TortureReport {
        crash_at,
        crashed,
        violations,
        seed: spec.seed,
        markers,
        trace,
        state_fingerprint: state_fingerprint(&model),
        recovered_keys: model.len(),
    }
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

    /// The payload corners: a crash-free payload run ends holding the
    /// empty payload and the `u64::MAX` image, and recovers exactly the
    /// state its workload folds to. That workload overwrites live keys
    /// and re-puts deleted ones, and its prefix ends on an overwrite of a
    /// payload committed by an earlier sync, longer than a word, by
    /// another such payload — the put the final-sync window opens on.
    /// Raw mode replays the churn as generated.
    #[test]
    fn a_crash_free_payload_run_stores_the_empty_payload_and_the_max_word_image() {
        for seed in [11, 0xD15A57E5] {
            let spec = TortureSpec::small_payload(seed);
            assert_eq!(TortureSpec::small(seed).ops(), spec.workload.generate(seed).ops);
            let report = torture_run(&spec, None);
            assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
            let (mut live, mut written, mut deleted) =
                (Model::new(), HashMap::new(), HashSet::new());
            let (mut overwrites, mut reputs) = (0, 0);
            for (i, op) in spec.ops().into_iter().enumerate() {
                match op {
                    Op::Insert(k, v) => {
                        let old = live.insert(k, spec.value(v));
                        let at = written.insert(k, i);
                        overwrites += usize::from(old.is_some());
                        reputs += usize::from(deleted.remove(&k));
                        if i + 1 == spec.prefix {
                            let old = old.expect("the prefix ends on an overwrite");
                            assert!(at < Some(spec.prefix / spec.sync_every * spec.sync_every));
                            assert!(old.len() > 8 && live[&k].len() > 8);
                        }
                    }
                    Op::Delete(k) => {
                        live.remove(&k);
                        deleted.insert(k);
                    }
                    Op::Lookup(_) => {}
                }
            }
            assert!(overwrites > 1 && reputs > 0, "seed {seed}: {overwrites} / {reputs}");
            assert!(live.values().any(Vec::is_empty), "the empty payload");
            assert!(live.values().any(|v| v[..] == u64::MAX.to_le_bytes()), "the u64::MAX image");
            assert!(live.values().any(|v| v.len() > 8), "longer payloads");
            assert_eq!(report.state_fingerprint, state_fingerprint(&live), "recovered byte-exact");
        }
    }

    #[test]
    fn a_mid_churn_crash_recovers_to_a_committed_state() {
        for spec in [TortureSpec::small(23), TortureSpec::small_payload(23)] {
            let clean = torture_run(&spec, None);
            let mid = clean.markers.unwrap().final_sync.0 / 2;
            let report = torture_run(&spec, Some(mid));
            assert!(report.crashed, "index {mid} lands inside the churn");
            assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
        }
    }

    #[test]
    fn same_seed_same_crash_index_is_byte_identical() {
        for spec in [TortureSpec::small(7), TortureSpec::small_payload(7)] {
            let a = torture_run(&spec, Some(180));
            let b = torture_run(&spec, Some(180));
            assert_eq!(a.crashed, b.crashed);
            assert_eq!(a.state_fingerprint, b.state_fingerprint, "identical recovered state");
            assert_eq!(a.trace, b.trace, "identical I/O trace, event for event");
            assert_eq!(a.violations, b.violations);
        }
    }
}
