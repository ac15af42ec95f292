//! Blob-payload torture: crash a **payload-mode** [`KvStore`] at every
//! I/O index of a `put_bytes` + sync window and check that a torn or
//! unsynced payload is never visible after recovery.
//!
//! The blob log is the one store file whose writes are *not*
//! block-shaped: an append spans the frame header and an
//! arbitrary-length payload, and the simulated crash lottery can tear
//! it mid-frame (half-written, `0xFF`-filled tail) or drop it
//! entirely. The store's contract (`G8` in `docs/GUARANTEES.md`) is
//! that the index never points at bytes that didn't survive: payload
//! appends are fdatasync'd before the indexing batch's manifest
//! commits, and recovery truncates the log at the first torn frame.
//!
//! One [`blob_torture_run`] is a full lifecycle on a fresh [`SimEnv`]:
//!
//! 1. churn a byte-payload workload (variable-length payloads —
//!    including the empty payload and the 8-byte `u64::MAX` image that
//!    the legacy word path must reject but the byte path must store —
//!    plus deletes) against a payload-mode store with periodic syncs,
//!    mirrored in a `HashMap<Key, Vec<u8>>` shadow model;
//! 2. one final **probe window**: a single `put_bytes` followed by a
//!    [`KvStore::sync`], whose `[start, end)` I/O-clock indices a
//!    crash-free run reports so [`sweep_blob_crashes`] can crash at
//!    every one of them;
//! 3. power-cycle and reopen, then assert the recovered store equals —
//!    **byte for byte** — either the last committed model or the
//!    commit in flight at the crash; any third state (a torn payload,
//!    a checksum-skipping partial frame, a phantom key) is a
//!    violation;
//! 4. assert the store keeps accepting byte work across one more sync
//!    and reopen, and that the whole run's I/O trace satisfies every
//!    trace-enabled durability rule (`dxh_dura::check_trace`) —
//!    including `blob-sync-before-index-commit`.
//!
//! Everything derives from `(spec, crash_at)`, so a failing run replays
//! exactly from its seed.

use std::collections::HashMap;

use dxh_core::{CoreConfig, ExternalDictionary, KvStore, SimMedia};
use dxh_extmem::{FaultPlan, IoEvent, Key, SimEnv};

/// Post-recovery usability probes live at bit 63, which no workload key
/// of this harness carries.
const SENTINEL: u64 = 1 << 63;

/// One blob-torture scenario; everything downstream derives from
/// `seed`.
#[derive(Clone, Debug)]
pub struct BlobTortureSpec {
    /// Store configuration (small, so the probe window stays cheap to
    /// sweep exhaustively).
    pub cfg: CoreConfig,
    /// Distinct workload keys (numbered `1..=keys`).
    pub keys: u64,
    /// Overwrite rounds across the key range before the probe window.
    pub rounds: usize,
    /// Sync after every this many churn operations.
    pub sync_every: usize,
    /// Master seed: payload bytes, store hashing, crash lottery.
    pub seed: u64,
}

impl BlobTortureSpec {
    /// The scenario the test suite sweeps exhaustively: the probe
    /// window spans a few dozen I/Os.
    pub fn small(seed: u64) -> Self {
        BlobTortureSpec {
            cfg: CoreConfig::lemma5(4, 96, 2).expect("valid config"),
            keys: 24,
            rounds: 3,
            sync_every: 16,
            seed,
        }
    }
}

/// What one [`blob_torture_run`] observed.
#[derive(Clone, Debug)]
pub struct BlobTortureReport {
    /// The crash index the run was configured with.
    pub crash_at: Option<u64>,
    /// Whether the crash point fired before the lifecycle ended.
    pub crashed: bool,
    /// Invariant violations (empty = the run passed).
    pub violations: Vec<String>,
    /// The seed the run derives from — print this to reproduce.
    pub seed: u64,
    /// `[start, end)` I/O-clock indices of the probe `put_bytes` + sync
    /// window (crash-free runs only).
    pub window: Option<(u64, u64)>,
    /// The environment's full I/O trace (workload + recovery).
    pub trace: Vec<IoEvent>,
}

/// The deterministic payload for `key` at overwrite round `round`:
/// variable length (0..≈100 bytes), with two deliberate corners — the
/// empty payload, and the exact little-endian image of `u64::MAX`
/// (which the legacy word path rejects as its reserved sentinel but
/// the byte path must round-trip; see `docs/GUARANTEES.md` G8).
fn payload_for(seed: u64, key: Key, round: usize) -> Vec<u8> {
    let r = round as u64;
    if key % 9 == 1 && round == 1 {
        return u64::MAX.to_le_bytes().to_vec();
    }
    if key % 7 == 2 {
        return Vec::new();
    }
    let mix = seed ^ key.rotate_left(13) ^ r.rotate_left(29);
    let len = (mix % 101) as usize;
    (0..len).map(|i| (mix as u8).wrapping_mul(37).wrapping_add(i as u8)).collect()
}

/// Probes `store` for every key in `touched` and reports byte-exact
/// mismatches against `model` (capped — the first few carry the
/// diagnosis). A partially surviving payload mismatches here even if
/// its length survived: torn bytes are as fatal as missing ones.
fn diff_bytes(
    store: &mut KvStore<SimMedia>,
    model: &HashMap<Key, Vec<u8>>,
    touched: &[Key],
) -> Vec<String> {
    let mut out = Vec::new();
    for &k in touched {
        let want = model.get(&k).map(|v| &v[..]);
        match store.get_bytes(k) {
            Ok(got) => {
                if got != want {
                    out.push(format!(
                        "key {k}: store answers {:?}, model says {:?}",
                        got.map(summary),
                        want.map(summary)
                    ));
                    if out.len() >= 5 {
                        break;
                    }
                }
            }
            Err(e) => {
                out.push(format!("key {k}: get_bytes errored after recovery: {e}"));
                break;
            }
        }
    }
    out
}

/// Short printable identity of a payload: length plus content hash.
fn summary(b: &[u8]) -> String {
    format!("{} bytes (fnv {:#018x})", b.len(), dxh_extmem::fnv1a64(b))
}

/// Runs one full lifecycle (see the module docs) with an optional
/// crash index. Never panics: every invariant violation lands in the
/// report.
pub fn blob_torture_run(spec: &BlobTortureSpec, crash_at: Option<u64>) -> BlobTortureReport {
    let env = SimEnv::new();
    env.set_tracing(true);
    if let Some(k) = crash_at {
        env.set_plan(FaultPlan::crash(k, spec.seed ^ k.rotate_left(17)));
    }

    let touched: Vec<Key> = (1..=spec.keys).collect();
    // `committed` mirrors the last successful sync; `pending` is the
    // state a sync in flight at the crash would have committed.
    let mut committed: HashMap<Key, Vec<u8>> = HashMap::new();
    let mut pending: Option<HashMap<Key, Vec<u8>>> = None;
    let mut live: HashMap<Key, Vec<u8>> = HashMap::new();
    let mut violations: Vec<String> = Vec::new();
    let mut window = None;
    let mut crashed = false;

    'workload: {
        let mut store = match SimMedia::open(&env)
            .and_then(|media| KvStore::open_payload_on(media, spec.cfg.clone(), spec.seed))
        {
            Ok(s) => s,
            Err(e) => {
                if env.crashed() {
                    crashed = true;
                } else {
                    violations.push(format!("creating the payload store failed: {e}"));
                }
                break 'workload;
            }
        };
        // Churn: overwrite rounds with interleaved deletes and
        // periodic syncs.
        let mut since_sync = 0usize;
        for round in 0..spec.rounds {
            for &k in &touched {
                let result = if (k + round as u64).is_multiple_of(5) && round > 0 {
                    store.delete(k).map(|_| {
                        live.remove(&k);
                    })
                } else {
                    let p = payload_for(spec.seed, k, round);
                    store.put_bytes(k, &p).map(|()| {
                        live.insert(k, p);
                    })
                };
                if let Err(e) = result {
                    if env.crashed() {
                        crashed = true;
                    } else {
                        violations.push(format!("churn op on key {k} failed without a crash: {e}"));
                    }
                    break 'workload;
                }
                since_sync += 1;
                if since_sync == spec.sync_every {
                    since_sync = 0;
                    pending = Some(live.clone());
                    match store.sync() {
                        Ok(()) => committed = pending.take().expect("pending set above"),
                        Err(e) => {
                            if env.crashed() {
                                crashed = true;
                            } else {
                                violations.push(format!("churn sync failed without a crash: {e}"));
                            }
                            break 'workload;
                        }
                    }
                }
            }
        }
        // Settle at a committed state, then the probe window: one
        // append (a payload long enough to span several torn-write
        // lotteries) and the sync that makes it durable.
        pending = Some(live.clone());
        match store.sync() {
            Ok(()) => committed = pending.take().expect("pending set above"),
            Err(e) => {
                if env.crashed() {
                    crashed = true;
                } else {
                    violations.push(format!("settling sync failed without a crash: {e}"));
                }
                break 'workload;
            }
        }
        let w0 = env.ops();
        let probe_key = 1;
        let probe = payload_for(spec.seed, probe_key, spec.rounds + 1);
        let probe = if probe.is_empty() { vec![0xA5; 64] } else { probe };
        live.insert(probe_key, probe.clone());
        pending = Some(live.clone());
        let result = store.put_bytes(probe_key, &probe).and_then(|()| store.sync());
        match result {
            Ok(()) => {
                committed = pending.take().expect("pending set above");
                window = Some((w0, env.ops()));
            }
            Err(e) => {
                if env.crashed() {
                    crashed = true;
                } else {
                    violations.push(format!("probe-window op failed without a crash: {e}"));
                }
                break 'workload;
            }
        }
    }

    // --- Recovery: power-cycle and reopen, faults cleared. ---
    crashed = crashed || env.crashed();
    env.power_cycle();
    let report = |mut violations: Vec<String>, env: &SimEnv| {
        let trace = env.take_trace();
        violations
            .extend(dxh_dura::check_trace(&trace).iter().map(|v| format!("durability trace: {v}")));
        BlobTortureReport { crash_at, crashed, violations, seed: spec.seed, window, trace }
    };
    let mut store = match SimMedia::open(&env)
        .and_then(|media| KvStore::open_payload_on(media, spec.cfg.clone(), spec.seed))
    {
        Ok(s) => s,
        Err(e) => {
            violations.push(format!("reopen after the crash failed: {e}"));
            return report(violations, &env);
        }
    };

    // Which side of the commit point did the crash fall on? Either
    // answer is sound; a third state — notably any torn or unsynced
    // payload surfacing — is the bug this harness exists to catch.
    let mismatch_committed = diff_bytes(&mut store, &committed, &touched);
    let model = if mismatch_committed.is_empty() {
        committed
    } else if let Some(p) = pending.take() {
        let mismatch_pending = diff_bytes(&mut store, &p, &touched);
        if mismatch_pending.is_empty() {
            p
        } else {
            violations.push(format!(
                "recovered state matches neither the last committed sync (first mismatch: \
                 {}) nor the sync in flight at the crash (first mismatch: {})",
                mismatch_committed[0], mismatch_pending[0]
            ));
            committed
        }
    } else {
        violations.push(format!(
            "recovered state diverged from the only committed sync: {}",
            mismatch_committed[0]
        ));
        committed
    };

    // The store keeps accepting byte work: sentinel payloads, a sync,
    // one more reopen, and everything is still byte-exact.
    for j in 0..4u64 {
        let p = payload_for(spec.seed ^ 0xBEEF, SENTINEL | j, 0);
        if let Err(e) = store.put_bytes(SENTINEL | j, &p) {
            violations.push(format!("post-recovery put_bytes failed: {e}"));
            break;
        }
    }
    if let Err(e) = store.sync() {
        violations.push(format!("post-recovery sync failed: {e}"));
    }
    drop(store);
    match SimMedia::open(&env)
        .and_then(|media| KvStore::open_payload_on(media, spec.cfg.clone(), spec.seed))
    {
        Ok(mut store) => {
            violations.extend(diff_bytes(&mut store, &model, &touched));
            for j in 0..4u64 {
                let want = payload_for(spec.seed ^ 0xBEEF, SENTINEL | j, 0);
                match store.get_bytes(SENTINEL | j) {
                    Ok(Some(got)) if got == want => {}
                    other => violations.push(format!(
                        "sentinel {j} lost across the final reopen: {:?}",
                        other.map(|o| o.map(summary))
                    )),
                }
            }
        }
        Err(e) => violations.push(format!("final reopen failed: {e}")),
    }
    report(violations, &env)
}

/// Crashes at **every** I/O index of the probe `put_bytes` + sync
/// window (sized by a crash-free run, plus a small margin past the
/// commit point) and returns the reports that violated an invariant —
/// a torn/unsynced payload surfacing, a state off the commit
/// boundary, or a durability trace-conformance violation. Empty means
/// the whole window is crash-safe.
pub fn sweep_blob_crashes(spec: &BlobTortureSpec) -> Vec<BlobTortureReport> {
    let clean = blob_torture_run(spec, None);
    let Some((lo, hi)) = clean.window else {
        let mut clean = clean;
        clean.violations.push("crash-free run reported no probe window".into());
        return vec![clean];
    };
    let mut failures: Vec<BlobTortureReport> =
        (!clean.violations.is_empty()).then_some(clean).into_iter().collect();
    for k in lo..hi + 4 {
        let r = blob_torture_run(spec, Some(k));
        if !r.violations.is_empty() {
            failures.push(r);
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_free_run_passes_and_reports_the_window() {
        let report = blob_torture_run(&BlobTortureSpec::small(41), None);
        assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
        assert!(!report.crashed);
        let (lo, hi) = report.window.expect("crash-free run reports the probe window");
        assert!(lo < hi, "the window spans I/Os: [{lo}, {hi})");
    }

    #[test]
    fn same_seed_same_crash_index_is_byte_identical() {
        let spec = BlobTortureSpec::small(43);
        let a = blob_torture_run(&spec, Some(120));
        let b = blob_torture_run(&spec, Some(120));
        assert_eq!(a.crashed, b.crashed);
        assert_eq!(a.trace, b.trace, "identical I/O trace, event for event");
        assert_eq!(a.violations, b.violations);
    }

    /// Regression: payload-mode `compact` remaps the new generation's
    /// index words *after* flushing it, and used to commit the manifest
    /// over those unsynced block writes (`rename-after-data-fsync`, 123
    /// of them here). The data fsync is now part of every dirty
    /// manifest commit, whoever calls it.
    #[test]
    fn payload_compaction_commits_only_synced_index_blocks() {
        let env = SimEnv::new();
        let cfg = CoreConfig::lemma5(8, 128, 2).unwrap();
        let mut s = KvStore::open_payload_on(SimMedia::open(&env).unwrap(), cfg, 7).unwrap();
        for round in 0..2u64 {
            for k in 0..400u64 {
                s.put_bytes(k, &vec![(k + round) as u8; 1 + (k as usize % 50)]).unwrap();
            }
        }
        s.compact().unwrap();
        let violations = dxh_dura::check_trace(&env.take_trace());
        assert!(violations.is_empty(), "{violations:#?}");
    }

    /// Satellite 4's acceptance gate: crash at every I/O of the
    /// `put_bytes` + sync window; zero violations means no torn or
    /// unsynced payload was ever visible after recovery and every
    /// run's trace conformed to the durability rules.
    #[test]
    fn exhaustive_window_sweep_reports_no_violations() {
        let failures = sweep_blob_crashes(&BlobTortureSpec::small(47));
        assert!(
            failures.is_empty(),
            "{} crash points violated blob durability; first: seed {} crash_at {:?}: {:?}",
            failures.len(),
            failures[0].seed,
            failures[0].crash_at,
            failures[0].violations.first()
        );
    }
}
