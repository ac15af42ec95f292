//! Concurrent-service torture: crash a [`ShardedKvStore`] **mid
//! group commit** and check that every shard recovers to a batch
//! boundary — each acknowledged batch wholly present, every in-flight
//! batch wholly present or wholly absent, nothing in between.
//!
//! One [`service_torture_run`] is a full lifecycle on a fresh
//! [`SimEnv`] hosting every shard of the service under one I/O clock:
//!
//! 1. open the service with batch recording on, then drive it from
//!    `threads` real writer threads, each replaying its own
//!    [`ConcurrentChurn`] trace (disjoint key namespaces) through
//!    pipelined [`ShardedKvStore::submit`] chunks and checking its
//!    lookups against a private shadow model;
//! 2. if the plan's crash index fires, every thread's next operation
//!    errors and the affected shard wedges mid-commit — the crash can
//!    land anywhere in the coalesced commit window, including inside
//!    a checkpoint between two shards' hardens;
//! 3. read back the service's recorded batch history — the ground
//!    truth: per shard, the batches whose durability epoch was reached,
//!    plus the in-flight ones (applied but unacknowledged batches
//!    riding the pipelined ack path, and at most one mid-apply batch
//!    last) in application order;
//! 4. power-cycle, reopen, and assert per shard that the recovered
//!    state equals the fold of the committed batches plus some
//!    **prefix** of the in-flight ones — each batch all-in or all-out,
//!    never split, even when another shard's batch shared the same
//!    coalesced sync round — that the recovered service still accepts
//!    work, and that the whole lifecycle's I/O trace satisfies every
//!    trace-enabled durability rule.
//!
//! The crash plan, the crashed-or-violation sorting, the power cycle
//! and the trace check are the crash-run skeleton the single-store
//! harness ([`crate::torture`]) runs on too.
//!
//! Thread interleavings are scheduled by the OS, so unlike the
//! single-store harness ([`crate::torture`]) a crash index does not
//! replay byte-identically; the invariants checked are
//! interleaving-independent, which is exactly what makes them safe to
//! sweep under nondeterministic scheduling.

use std::collections::{HashMap, HashSet};

use dxh_core::{CoreConfig, Effect, ServiceStats, ShardedKvStore, SimMedia, StoreMedia, WriteOp};
use dxh_extmem::{Key, SimEnv, Value};

use crate::crash::CrashRun;
use crate::generator::ConcurrentChurn;
use crate::trace::Op;

/// How many write ops each thread pipelines into one
/// [`ShardedKvStore::submit`] call: small enough that a crash window
/// cuts through many batches, large enough that group commits batch.
const CHUNK: usize = 4;

/// What a fault-free run's checkpoint manifest commits may average, in
/// bytes: the manifest's ≈ 130 B header plus one ≈ 30 B line per
/// occupied level — a few hundred bytes at any table size, there being
/// no table-sized line in it. Shared with `exp_service`'s sweep-3 gate.
pub const MAX_CHECKPOINT_COMMIT_BYTES: u64 = 512;

/// One service-torture scenario; everything downstream derives from
/// `seed` except the thread interleaving (see the module docs).
#[derive(Clone, Debug)]
pub struct ServiceTortureSpec {
    /// Per-shard store configuration (small, so windows stay sweepable).
    pub cfg: CoreConfig,
    /// Shard count of the service.
    pub shards: usize,
    /// Writer threads driving it.
    pub threads: usize,
    /// Ops each thread replays (its [`ConcurrentChurn`] trace length).
    pub ops_per_thread: usize,
    /// Master seed: workload, store hashing, crash lottery.
    pub seed: u64,
    /// Commit-log size (bytes) that trips a checkpoint, or `None` for
    /// the production default — large enough that a short torture
    /// lifecycle checkpoints only at its close.
    pub ckpt_log_bytes: Option<u64>,
}

impl ServiceTortureSpec {
    /// The small scenario the test suite sweeps: 2 shards, 4 writers,
    /// lifecycles of a few thousand I/Os.
    pub fn small(seed: u64) -> Self {
        ServiceTortureSpec {
            cfg: CoreConfig::lemma5(4, 96, 2).expect("valid config"),
            shards: 2,
            threads: 4,
            ops_per_thread: 48,
            seed,
            ckpt_log_bytes: None,
        }
    }

    /// The wide scenario: 4 shards under 6 writers, so most sync rounds
    /// coalesce several shards' batches into one log commit — crash
    /// indices swept across it tear rounds that siblings share, which
    /// is exactly the window the coalesced commit path must keep
    /// all-in-or-all-out per shard.
    pub fn wide(seed: u64) -> Self {
        ServiceTortureSpec {
            cfg: CoreConfig::lemma5(4, 96, 2).expect("valid config"),
            shards: 4,
            threads: 6,
            ops_per_thread: 40,
            seed,
            ckpt_log_bytes: None,
        }
    }

    /// The checkpointing scenario: a log threshold so small that every
    /// few rounds are followed by a checkpoint (every shard's manifest
    /// hardened in turn, then the log emptied), so swept crash indices
    /// land inside every window of one — some shards hardened and some
    /// not, all hardened and the truncate pending.
    pub fn checkpointing(seed: u64) -> Self {
        ServiceTortureSpec { ckpt_log_bytes: Some(192), ..Self::small(seed) }
    }

    fn workload(&self) -> ConcurrentChurn {
        ConcurrentChurn::new(self.threads, self.ops_per_thread, 0.55, 0.2)
            .expect("valid churn shape")
    }
}

/// What one [`service_torture_run`] observed.
#[derive(Clone, Debug)]
pub struct ServiceTortureReport {
    /// The crash index the run was configured with.
    pub crash_at: Option<u64>,
    /// Whether the crash point fired before the workload finished.
    pub crashed: bool,
    /// Invariant violations (empty = the run passed).
    pub violations: Vec<String>,
    /// The seed the run derives from.
    pub seed: u64,
    /// I/O-clock position when the workload (and shutdown) finished —
    /// the sweepable window of a crash-free run.
    pub total_ops: u64,
    /// Group commits the service acknowledged before the crash.
    pub committed_batches: u64,
    /// Per-shard manifest hardens made by checkpoints before the crash
    /// (0 unless the spec shrinks `ckpt_log_bytes` enough for
    /// checkpoints to fire).
    pub shard_syncs: u64,
    /// Checkpoints that emptied the commit log.
    pub sealed_discards: u64,
    /// Truncates after a clean checkpoint that failed (retried by the
    /// next round past the threshold).
    pub sealed_discard_failures: u64,
    /// Table ops saved by newest-wins coalescing before the crash.
    pub coalesced_ops: u64,
    /// Checkpoint manifest commits (the coordinator's hardens) before the
    /// crash — see `dxh_core::ManifestIoStats` for the counters' names.
    pub manifest_delta_commits: u64,
    /// Bytes those checkpoint commits wrote.
    pub manifest_delta_bytes: u64,
    /// Every other manifest commit before the crash (shard creates
    /// included).
    pub manifest_full_commits: u64,
    /// Bytes those commits wrote.
    pub manifest_full_bytes: u64,
}

/// Applies a recorded batch effect list to a model. This harness drives
/// the word APIs only, so a byte effect in the history would mean the
/// service recorded an op nobody submitted.
fn fold_into(model: &mut HashMap<Key, Value>, ops: &[(Key, Option<Effect>)]) {
    for (k, effect) in ops {
        match effect {
            Some(Effect::Word(v)) => {
                model.insert(*k, *v);
            }
            Some(Effect::Bytes(_)) => {
                unreachable!("word-only workload recorded a byte effect for key {k}")
            }
            None => {
                model.remove(k);
            }
        }
    }
}

/// Probes `svc` for every key of `model`'s universe and reports the
/// first mismatch (`keys` is the probe set — every key the shard's
/// history ever touched, so deleted keys are checked absent too).
fn diff_shard<M: StoreMedia>(
    svc: &ShardedKvStore<M>,
    model: &HashMap<Key, Value>,
    keys: &[Key],
) -> Option<String> {
    keys.iter().find_map(|&k| match svc.get(k) {
        Ok(got) if got == model.get(&k).copied() => None,
        Ok(got) => {
            Some(format!("key {k}: service answers {got:?}, model says {:?}", model.get(&k)))
        }
        Err(e) => Some(format!("key {k}: lookup errored after recovery: {e}")),
    })
}

/// One writer thread: replays `ops` through pipelined
/// [`ShardedKvStore::submit`] chunks, checking its lookups against a
/// private shadow model — exact, since its namespace is its own. Stops
/// at the first failed call (`None`).
fn writer<M: StoreMedia>(
    svc: &ShardedKvStore<M>,
    run: &CrashRun,
    t: usize,
    ops: &[Op],
) -> Option<()> {
    let mut model: HashMap<Key, Value> = HashMap::new();
    let mut chunk: Vec<WriteOp> = Vec::with_capacity(CHUNK);
    let flush = |chunk: &mut Vec<WriteOp>, model: &mut HashMap<Key, Value>| {
        if !chunk.is_empty() {
            run.check(format_args!("thread {t}: submit"), svc.submit(chunk))?;
        }
        for op in chunk.drain(..) {
            match op {
                WriteOp::Put(k, v) => model.insert(k, v),
                WriteOp::Delete(k) => model.remove(&k),
            };
        }
        Some(())
    };
    for op in ops {
        match *op {
            Op::Insert(k, v) => chunk.push(WriteOp::Put(k, v)),
            Op::Delete(k) => chunk.push(WriteOp::Delete(k)),
            Op::Lookup(k) => {
                // Reads must see this thread's own acknowledged writes;
                // flush first so the model is comparable.
                flush(&mut chunk, &mut model)?;
                let got = run.check(format_args!("thread {t}: lookup"), svc.get(k))?;
                let want = model.get(&k).copied();
                if got != want {
                    run.violation(format!(
                        "thread {t}: lookup({k}) answered {got:?}, model says {want:?}"
                    ));
                }
            }
        }
        if chunk.len() == CHUNK {
            flush(&mut chunk, &mut model)?;
        }
    }
    flush(&mut chunk, &mut model)
}

/// Runs one concurrent lifecycle with an optional crash index. Never
/// panics: every invariant violation lands in the report.
pub fn service_torture_run(
    spec: &ServiceTortureSpec,
    crash_at: Option<u64>,
) -> ServiceTortureReport {
    service_torture_run_on(spec, crash_at, SimMedia::unlocked)
}

/// [`service_torture_run`] with the service rooted on caller-chosen
/// media over the run's [`SimEnv`]: `root` is called at every (re)open.
/// The seam that lets a test wrap [`SimMedia`] in a decorator that
/// breaks a durability primitive and check that the sweep notices.
pub fn service_torture_run_on<M>(
    spec: &ServiceTortureSpec,
    crash_at: Option<u64>,
    root: impl Fn(&SimEnv) -> M,
) -> ServiceTortureReport
where
    M: StoreMedia + Send + 'static,
{
    let run = CrashRun::new(spec.seed, crash_at);
    let env = &run.env;
    let open = || {
        let svc = ShardedKvStore::open_on(root(env), spec.shards, spec.cfg.clone(), spec.seed)?;
        if let Some(bytes) = spec.ckpt_log_bytes {
            svc.set_checkpoint_log_bytes(bytes);
        }
        dxh_extmem::Result::Ok(svc)
    };
    let mut stats = ServiceStats::default();
    let mut history = Vec::new();

    if let Some(svc) = run.check("opening the service", open()) {
        svc.set_batch_recording(true);
        let workload = spec.workload();
        std::thread::scope(|scope| {
            for t in 0..spec.threads {
                let (svc, run) = (&svc, &run);
                let trace = workload.thread_trace(t, spec.seed);
                scope.spawn(move || writer(svc, run, t, &trace.ops));
            }
        });
        stats = svc.stats();
        if !env.crashed() && stats.wedged_shards > 0 {
            run.violation(format!("{} shards wedged without a crash", stats.wedged_shards));
        }
        // Fault-free lifecycle with checkpoints configured: some
        // checkpoint must have emptied the log — one that never does
        // (or whose truncate failed without a fault to blame) would
        // leave the log growing silently.
        if !env.crashed() && crash_at.is_none() && spec.ckpt_log_bytes.is_some() {
            if stats.sealed_discards == 0 {
                run.violation(
                    "checkpoints configured but none ever emptied the commit log — the \
                     checkpoint or truncate path is stuck"
                        .into(),
                );
            }
            if stats.sealed_discard_failures > 0 {
                run.violation(format!(
                    "{} commit-log truncate(s) failed on a fault-free run",
                    stats.sealed_discard_failures
                ));
            }
            // A checkpoint's per-shard harden is a checkpoint commit:
            // a fault-free checkpointing lifecycle that never counted
            // one means no checkpoint reached a store.
            if stats.manifest_delta_commits == 0 {
                run.violation(
                    "checkpoints ran but no checkpoint manifest commit was ever counted".into(),
                );
            }
        }
        history = svc.batch_history();
        drop(svc); // wedged shards must not commit; clean ones no-op
    }

    // --- Recovery: power-cycle and reopen, faults cleared. ---
    let crashed = run.power_cycle();
    let total_ops = env.ops();
    'recovery: {
        let Some(svc) = run.check("reopen after the crash", open()) else { break 'recovery };

        // Batch-boundary check, shard by shard: the recovered state must
        // be the fold of that shard's committed batches plus some
        // *prefix* of its in-flight batches (the pipelined-ack window, in
        // application order) — every batch all-in or all-out, never
        // split. The probe key universe is everything the whole history
        // ever touched, so a shorter prefix is also checked for the
        // *absence* of the later batches' effects.
        for (si, h) in history.iter().enumerate() {
            let mut seen = HashSet::new();
            let batches = h.committed.iter().chain(&h.inflight);
            let keys: Vec<Key> = batches
                .flat_map(|b| b.ops.iter().map(|(k, _)| *k))
                .filter(|k| seen.insert(*k))
                .collect();
            let mut model: HashMap<Key, Value> = HashMap::new();
            for batch in &h.committed {
                fold_into(&mut model, &batch.ops);
            }
            // Try prefixes shortest-first: `model` folds committed plus
            // inflight[..j] when prefix length j is probed, and grows one
            // batch per iteration.
            let first_mismatch = diff_shard(&svc, &model, &keys);
            let matched = first_mismatch.is_none()
                || h.inflight.iter().any(|batch| {
                    fold_into(&mut model, &batch.ops);
                    diff_shard(&svc, &model, &keys).is_none()
                });
            if !matched {
                run.violation(format!(
                    "shard {si}: recovered state matches no batch boundary — neither its \
                     committed batches nor any prefix of its {} in-flight batch(es); first \
                     mismatch against the committed fold: {}",
                    h.inflight.len(),
                    first_mismatch.unwrap_or_default()
                ));
            }
        }

        // The recovered service keeps accepting work across a sync and
        // one more reopen. Sentinel keys: bit 63 set — outside every
        // generator's namespace; the seed-derived base is masked clear of
        // `j`'s bits so sentinels never collide with each other, whatever
        // the seed.
        let sentinel = |j: u64| (1u64 << 63) | ((spec.seed.rotate_left(7) >> 2) & !0xF) | j;
        for j in 0..8u64 {
            if run.check("post-recovery put", svc.put(sentinel(j), j)).is_none() {
                break;
            }
        }
        run.check("post-recovery sync_all", svc.sync_all());
        // Checkpoint bytes are O(log n), not O(table).
        if crash_at.is_none() && !crashed {
            if let Some(avg) = stats.manifest_delta_bytes.checked_div(stats.manifest_delta_commits)
            {
                if avg > MAX_CHECKPOINT_COMMIT_BYTES {
                    run.violation(format!(
                        "checkpoint hardens scale with the table: the average checkpoint \
                         manifest commit cost {avg} B (bound {MAX_CHECKPOINT_COMMIT_BYTES} B)"
                    ));
                }
            }
        }
        drop(svc);
        let Some(svc) = run.check("final reopen", open()) else { break 'recovery };
        for j in 0..8u64 {
            match svc.get(sentinel(j)) {
                Ok(Some(v)) if v == j => {}
                other => {
                    run.violation(format!("sentinel {j} lost across the final reopen: {other:?}"))
                }
            }
        }
    }

    let (violations, _) = run.finish();
    ServiceTortureReport {
        crash_at,
        crashed,
        violations,
        seed: spec.seed,
        total_ops,
        committed_batches: stats.committed_batches,
        shard_syncs: stats.shard_syncs,
        sealed_discards: stats.sealed_discards,
        sealed_discard_failures: stats.sealed_discard_failures,
        coalesced_ops: stats.coalesced_ops,
        manifest_delta_commits: stats.manifest_delta_commits,
        manifest_delta_bytes: stats.manifest_delta_bytes,
        manifest_full_commits: stats.manifest_full_commits,
        manifest_full_bytes: stats.manifest_full_bytes,
    }
}

/// Runs a crash-free lifecycle to size the window, then crashes at
/// `points` evenly spaced I/O indices across it, returning the reports
/// that violated an invariant (the crash-free run's violations, if any,
/// are returned first). This is the sweep the CI gate runs; scale
/// `points` up for the nightly long version.
pub fn sweep_service_crashes(spec: &ServiceTortureSpec, points: u64) -> Vec<ServiceTortureReport> {
    sweep_service_crashes_on(spec, points, SimMedia::unlocked)
}

/// [`sweep_service_crashes`] over [`service_torture_run_on`].
pub fn sweep_service_crashes_on<M>(
    spec: &ServiceTortureSpec,
    points: u64,
    root: impl Fn(&SimEnv) -> M,
) -> Vec<ServiceTortureReport>
where
    M: StoreMedia + Send + 'static,
{
    let clean = service_torture_run_on(spec, None, &root);
    let total = clean.total_ops;
    let mut failures: Vec<ServiceTortureReport> =
        (!clean.violations.is_empty()).then_some(clean).into_iter().collect();
    if total < 2 || points == 0 {
        return failures;
    }
    let step = (total / (points + 1)).max(1);
    let mut k = step;
    while k < total {
        let report = service_torture_run_on(spec, Some(k), &root);
        if !report.violations.is_empty() {
            failures.push(report);
        }
        k += step;
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_free_concurrent_run_passes() {
        let report = service_torture_run(&ServiceTortureSpec::small(21), None);
        assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
        assert!(!report.crashed);
        assert!(report.committed_batches > 0, "group commits ran");
        assert!(report.total_ops > 0);
    }

    #[test]
    fn a_mid_lifecycle_crash_recovers_to_batch_boundaries() {
        let spec = ServiceTortureSpec::small(22);
        let clean = service_torture_run(&spec, None);
        assert!(clean.violations.is_empty(), "clean run: {:?}", clean.violations);
        // Aim somewhere inside the concurrent churn (not the open, not
        // past the end).
        let report = service_torture_run(&spec, Some(clean.total_ops / 2));
        assert!(report.crashed, "index {} lands inside the lifecycle", clean.total_ops / 2);
        assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    }

    #[test]
    fn wide_spec_coalesces_rounds_across_shards() {
        // The wide scenario exists to put several shards' batches into
        // one sync round; a clean run must exhibit batching and pass.
        let report = service_torture_run(&ServiceTortureSpec::wide(31), None);
        assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
        assert!(report.committed_batches > 0);
    }

    /// Crash indices at **every** I/O of at least one checkpoint — each
    /// shard's harden, then the truncate — of a lifecycle that
    /// checkpoints every few rounds: every crash must recover to a batch
    /// boundary with a conformant I/O trace. The window is two
    /// checkpoint periods of the fault-free run, from its middle, so
    /// however the threads schedule, some crash lands after a
    /// checkpoint's first harden and before its truncate, and the window
    /// straddles a truncate. The fault-free run must checkpoint for
    /// real: every shard hardened, the log emptied, no truncate failed.
    #[test]
    fn checkpoint_windows_recover_to_batch_boundaries() {
        let spec = ServiceTortureSpec::checkpointing(27);
        let clean = service_torture_run(&spec, None);
        assert!(clean.violations.is_empty(), "clean run: {:?}", clean.violations);
        assert!(clean.shard_syncs >= spec.shards as u64, "every shard hardened: {clean:?}");
        assert!(clean.sealed_discards >= 1, "a checkpoint emptied the log: {clean:?}");
        assert_eq!(clean.sealed_discard_failures, 0, "no faults injected: {clean:?}");
        assert!(clean.manifest_delta_commits >= 1, "checkpoint hardens are counted: {clean:?}");
        let period = clean.total_ops / (clean.sealed_discards + 1);
        let from = clean.total_ops / 2;
        let reports: Vec<ServiceTortureReport> =
            (from..from + 2 * period).map(|k| service_torture_run(&spec, Some(k))).collect();
        let failures: Vec<&ServiceTortureReport> =
            reports.iter().filter(|r| !r.violations.is_empty()).collect();
        assert!(
            failures.is_empty(),
            "{} crash points inside a checkpoint violated an invariant; first: crash_at {:?}: \
             {:?}",
            failures.len(),
            failures[0].crash_at,
            failures[0].violations.first()
        );
        let shards = spec.shards as u64;
        assert!(
            reports.iter().any(|r| r.shard_syncs > shards * r.sealed_discards),
            "no crash fell between a checkpoint's first harden and its truncate"
        );
        let truncates: std::collections::BTreeSet<u64> =
            reports.iter().map(|r| r.sealed_discards).collect();
        assert!(truncates.len() > 1, "the window straddled no truncate");
    }

    /// A checkpoint commit is O(log n), not O(table): quadrupling the
    /// workload (and with it the recovered table) leaves the average
    /// checkpoint manifest commit flat. The harness additionally holds
    /// each fault-free rotating run's average to an absolute bound.
    #[test]
    fn checkpoint_commit_bytes_do_not_scale_with_the_table() {
        let small_spec = ServiceTortureSpec::checkpointing(27);
        let small = service_torture_run(&small_spec, None);
        assert!(small.violations.is_empty(), "small run: {:?}", small.violations);
        let big_spec =
            ServiceTortureSpec { ops_per_thread: small_spec.ops_per_thread * 4, ..small_spec };
        let big = service_torture_run(&big_spec, None);
        assert!(big.violations.is_empty(), "big run: {:?}", big.violations);
        assert!(small.manifest_delta_commits >= 1, "{small:?}");
        assert!(big.manifest_delta_commits > small.manifest_delta_commits, "{big:?}");
        let small_avg = small.manifest_delta_bytes / small.manifest_delta_commits;
        let big_avg = big.manifest_delta_bytes / big.manifest_delta_commits;
        assert!(
            big_avg <= small_avg * 2,
            "average checkpoint commit grew with the table: {small_avg} B -> {big_avg} B"
        );
        // The chunked writers exercise newest-wins coalescing for real
        // (same-key repeats inside a pipelined chunk collapse).
        assert!(small.coalesced_ops > 0, "workload never coalesced: {small:?}");
    }

    #[test]
    fn bounded_sweep_reports_no_violations() {
        let failures = sweep_service_crashes(&ServiceTortureSpec::small(23), 6);
        assert!(
            failures.is_empty(),
            "{} crash points violated batch atomicity; first: seed {} crash_at {:?}: {:?}",
            failures.len(),
            failures[0].seed,
            failures[0].crash_at,
            failures[0].violations.first()
        );
    }
}
