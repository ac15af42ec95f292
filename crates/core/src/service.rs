//! A concurrent, sharded, persistent key-value service with per-shard
//! **group-commit** batching — the systems realization of the paper's
//! thesis that buffering updates is what buys `tu < 1`.
//!
//! A single [`crate::KvStore`] already batches *logically*: inserts land
//! in the memory-resident `H0` and reach disk in bulk migrations, which
//! is exactly the paper's update buffer. But its durability is
//! single-threaded — every caller serializes on one handle and every
//! commit pays a full `sync` (H0 image + data fsync + manifest rename +
//! directory fsync). Under `K` concurrent writers that is `K` manifest
//! fsyncs for `K` acknowledged writes: the sub-one-I/O update advantage
//! drowns in commit overhead. [`ShardedKvStore`] restores it with the
//! classic group-commit move (the same batched-update regime the
//! buffer-tree line of work targets — Iacono–Pătrașcu's "Using Hashing
//! to Solve the Dictionary Problem", Conway et al.'s "Optimal Hashing in
//! External Memory"), and **writers never pay an fsync themselves**:
//!
//! * the key space is hash-partitioned across `N` independent
//!   [`crate::KvStore`] shards (each its own directory or [`crate::SimMedia`]
//!   namespace, each its own lock) by a routing hash independent of
//!   every shard-internal one — every shard sees uniformly random
//!   keys, so each one's per-shard guarantees are the paper's;
//! * each shard has a **dedicated committer thread**: concurrent
//!   [`ShardedKvStore::put`] / [`ShardedKvStore::delete`] calls append
//!   to the shard's pending queue and park on the shard's ack condvar,
//!   while the committer takes the whole queue as one batch, applies
//!   every op to the table in arrival order — each op's answer is the
//!   table call's own — and hands the batch's newest-wins fold (one
//!   effect per key) to the commit log. Batch size is set by the
//!   arrival rate, never by which writer got unlucky enough to
//!   volunteer;
//! * a shared **commit clock** (the `SyncCoordinator`) coalesces the
//!   durability points of all shards into one service-wide **commit
//!   log**: applied-but-volatile batches are reported as *dirt*, and
//!   the coordinator runs **sync rounds** — it collects every applied
//!   batch, appends one checksummed record per batch to the log, and
//!   makes the whole round durable with the log's **single physical
//!   fsync**. `N` shards share *one* sync per round instead of paying
//!   `N` manifest commits (on a journaled filesystem even concurrent
//!   fsyncs largely serialize at the device, so per-shard syncing would
//!   make an `N`-shard round cost `N` times a 1-shard round and turn
//!   partitioning into a durability regression). Per-shard manifests
//!   are brought current by the much rarer **checkpoints** — once the
//!   log outgrows its threshold, the coordinator hardens every shard's
//!   manifest in turn (each stamped with a replay watermark: the
//!   newest batch it holds) and then empties the log, whose records
//!   every manifest now covers. A manifest is a few level lines, and a
//!   harden writes `H0` as an image of `⌈|H0|/b⌉` blocks and migrates
//!   nothing, so a checkpoint costs `N` small commits, not `N` table
//!   writes. The
//!   coordinator's last act at shutdown is one more checkpoint.
//!   Rounds are adaptive: the next one fires as soon as the previous
//!   finishes and new dirt exists, so an idle service schedules
//!   nothing and a loaded one commits back-to-back;
//! * the ack path is **pipelined**: a writer's call returns when the
//!   round that logged its batch commits — the service's durability
//!   **epoch** advances and the coordinator fills the batch's answer
//!   cell — not when the writer's own thread performed any sync.
//!   Several applied batches, across all shards, ride one round.
//!
//! The annotated walk of one write through this machinery (enqueue →
//! batch → apply → coalesced sync → ack epoch) is
//! `docs/COMMIT_PATH.md`; the durability contract is
//! `docs/GUARANTEES.md`. The commit log itself — device, record
//! codec, replay — lives in `crate::commitlog`.
//!
//! ## Batch atomicity
//!
//! Each group commit is all-in or all-out per shard: a batch is one
//! checksummed commit-log record (replay takes it wholly or not at
//! all), and at checkpoints its effects land between two manifest
//! commits whose rename is the single commit point. Cross-shard sync
//! coalescing never weakens this — batches sharing a round's log fsync
//! are still framed and replayed independently, per shard, in apply
//! order. With pipelined acks more than one batch can sit
//! applied-but-volatile at a crash; recovery (manifest + log replay)
//! then lands each shard on the committed fold plus a *prefix* of its
//! in-flight batches (in application order), each wholly present or
//! wholly absent. If applying or committing a batch fails without a
//! crash, the affected shard **wedges**: the uncommitted batch is
//! quarantined behind a poisoned store handle (it can never reach a
//! manifest — not even through a drop-time sync), every parked and
//! future caller gets an error, and reopening the service recovers the
//! shard to its last committed batch. The model tests (`model_tests`)
//! crash the simulated machine at every I/O of a service lifecycle,
//! under every schedule they explore, and check exactly this boundary.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use dxh_sync::thread::JoinHandle;
use dxh_sync::{Condvar, Mutex, Rank};

use dxh_extmem::{check_key, check_value, ExtMemError, Key, Result, Value};
use dxh_hashfn::{prefix_bucket, HashFn, IdealFn};
use dxh_tables::ExternalDictionary;

use crate::commitlog::{encode_log_record, replay_log, CommitLog, COMMITLOG_OLD};
use crate::config::CoreConfig;
use crate::media::{
    best_effort, commit_file_atomic, older_layout, read_text, DirMedia, StoreMedia,
};
use crate::store::{word_of_payload, KvStore};

/// A seeded-mutant site: `mutant!(SWITCH => action)` runs `action` (most
/// often a `return`, `break` or `continue` past the line the mutant
/// deletes) when the calling thread armed `mutant::SWITCH`. Expands to
/// nothing outside `cfg(test)`.
macro_rules! mutant {
    ($switch:ident => $action:expr) => {
        #[cfg(test)]
        if mutant::$switch.on() {
            $action;
        }
    };
}

/// Service manifest file name inside a service root.
const SERVICE: &str = "SERVICE";
const SERVICE_MAGIC: &str = "dxh-service v1";

/// Directory (or simulated namespace) name of shard `i`.
fn shard_name(i: usize) -> String {
    format!("shard-{i:03}")
}

fn wedged_err(why: &str) -> ExtMemError {
    ExtMemError::Io(std::io::Error::other(format!(
        "shard wedged by a failed group commit (reopen the service to recover to the last \
         committed batch): {why}"
    )))
}

/// One write operation of a [`ShardedKvStore`] batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert (or upsert) `key` with `value`.
    Put(Key, Value),
    /// Delete `key` (succeeds with `false` when the key is absent).
    Delete(Key),
}

impl WriteOp {
    /// The op as a queued write: its key and its effect (`None` for a
    /// delete).
    fn effect(self) -> (Key, Option<Effect>) {
        match self {
            WriteOp::Put(k, v) => (k, Some(Effect::Word(v))),
            WriteOp::Delete(k) => (k, None),
        }
    }
}

/// What a recorded write put at its key: a table word (the
/// [`ShardedKvStore::put`] / [`ShardedKvStore::submit`] APIs) or a byte
/// payload ([`ShardedKvStore::put_bytes`], payload-mode services only).
/// `Option<Effect>` with `None` for a delete is the shape the
/// read-your-writes overlay and the commit log share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Effect {
    /// A word put.
    Word(Value),
    /// A byte-payload put (shared, not copied, along the commit path).
    Bytes(Arc<[u8]>),
}

/// Rejects the reserved sentinels before a write is enqueued, so an
/// invalid op is an immediate per-call error and an apply-time error is
/// always environmental (and wedges the shard). On a payload-mode
/// service the word domain is unrestricted — values live in the blob log
/// there, where the deletion marker is out-of-band (see the sentinel
/// note on [`dxh_extmem::VALUE_TOMBSTONE`]).
fn validate((key, effect): &(Key, Option<Effect>), payloads: bool) -> Result<()> {
    check_key(*key)?;
    match effect {
        Some(Effect::Word(value)) if !payloads => check_value(*value),
        _ => Ok(()),
    }
}

/// Applies one write to `store` and returns its answer: `true` for a
/// put, whether the key was present for a delete. The committer's apply
/// and the commit log's replay both go through it.
pub(crate) fn apply_write<M: StoreMedia>(
    store: &mut KvStore<M>,
    key: Key,
    effect: Option<&Effect>,
) -> Result<bool> {
    match effect {
        Some(Effect::Word(v)) => store.insert(key, *v).map(|()| true),
        Some(Effect::Bytes(b)) => store.put_bytes(key, b).map(|()| true),
        None => store.delete(key),
    }
}

/// One committed (or in-flight) group commit, as recorded when
/// [`ShardedKvStore::set_batch_recording`] is on — the tests' ground
/// truth for the batch-boundary check.
#[cfg(test)]
#[derive(Clone, Debug, PartialEq, Eq)]
struct BatchRecord {
    /// The batch's newest-wins fold: `(key, Some(effect))` for a put,
    /// `(key, None)` for a delete.
    ops: Vec<(Key, Option<Effect>)>,
}

/// A shard's recorded commit history (see
/// [`ShardedKvStore::batch_history`]).
#[cfg(test)]
#[derive(Clone, Debug, Default)]
struct ShardBatchHistory {
    /// Batches whose durability epoch was reached — durable in order.
    committed: Vec<BatchRecord>,
    /// Batches applied but not yet acknowledged when the shard wedged or
    /// crashed, in application order — the pipelined-ack window. A crash
    /// recovers the shard to the committed fold plus a **prefix** of
    /// these, each batch wholly present or wholly absent (a batch that
    /// was mid-apply is last here and never durable).
    inflight: Vec<BatchRecord>,
}

/// Aggregate counters across every shard of a [`ShardedKvStore`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Write operations acknowledged (durable at a reached epoch).
    pub committed_ops: u64,
    /// Group commits acknowledged. With the coalesced sync path this is
    /// **not** the sync count — several batches (across shards, and
    /// pipelined within one shard) ride one sync round.
    pub committed_batches: u64,
    /// Largest single batch any shard committed.
    pub largest_batch: u64,
    /// Shards currently wedged by a failed group commit.
    pub wedged_shards: usize,
    /// Completed coordinated durability barriers — the service's
    /// durability **epoch**. Every acknowledged write was durable by the
    /// end of some round, and a round costs **one** shared commit-log
    /// fsync whatever the shard count — `N` dirty shards ride it
    /// together instead of paying `N` manifest commits.
    pub sync_rounds: u64,
    /// Per-shard manifest hardens — one per shard per checkpoint (log
    /// threshold reached, or the shutdown handshake), never paid by the
    /// steady-state log rounds. Near zero on a healthy short run.
    pub shard_syncs: u64,
    /// Checkpoints that emptied the commit log: every shard hardened
    /// cleanly and the truncate succeeded. On a fault-free run every
    /// checkpoint shows up here; one that never does leaks log bytes and
    /// replay work at every reopen. (Named for the sealed log segment
    /// such checkpoints used to discard.)
    pub sealed_discards: u64,
    /// Failed commit-log truncates after a clean checkpoint. The log
    /// keeps its records — every one of them at or below some manifest's
    /// watermark — and the next round past the threshold checkpoints
    /// again.
    pub sealed_discard_failures: u64,
    /// Ops the log fold absorbed: each was applied and answered, but
    /// cost no commit-log entry of its own, because a later op on the
    /// same key in the same batch superseded it (a batch's ops minus its
    /// distinct keys).
    pub coalesced_ops: u64,
    /// Total manifest-commit bytes across every shard store. A manifest
    /// is O(log n) bytes — one line per level — so this stays
    /// proportional to the number of commits, not to table size.
    pub manifest_bytes_written: u64,
    /// Manifest commits made by checkpoint hardens (the threshold's and
    /// the shutdown handshake's) across shards. Named for
    /// the `MANIFEST.DELTA` frames such commits used to be (see
    /// [`crate::ManifestIoStats`]).
    pub manifest_delta_commits: u64,
    /// Bytes of those commits.
    pub manifest_delta_bytes: u64,
    /// Every other manifest commit across shards (creation, log replay
    /// at open, compaction, `sync_all`).
    pub manifest_full_commits: u64,
    /// Bytes of those commits.
    pub manifest_full_bytes: u64,
}

impl ServiceStats {
    /// Coordinated sync rounds paid per acknowledged write — the
    /// group-commit figure of merit (`1.0` means no batching at all;
    /// batching plus cross-shard coalescing drive it toward `0`).
    pub fn syncs_per_op(&self) -> f64 {
        if self.committed_ops == 0 {
            0.0
        } else {
            self.sync_rounds as f64 / self.committed_ops as f64
        }
    }
}

/// `queue` folded newest-wins, in first-touch key order: one `(key,
/// newest effect)` per distinct key. It is what the commit log records
/// and replay refolds — replay is last-write-wins, so folding it leaves
/// the state that applying every op of the queue in order leaves.
fn fold_newest_wins(queue: &[(Key, Option<Effect>)]) -> Vec<(Key, Option<Effect>)> {
    use std::collections::hash_map::Entry;
    let mut at: HashMap<Key, usize> = HashMap::with_capacity(queue.len());
    let mut fold: Vec<(Key, Option<Effect>)> = Vec::with_capacity(queue.len());
    for (k, effect) in queue {
        match at.entry(*k) {
            Entry::Occupied(e) => fold[*e.get()].1 = effect.clone(),
            Entry::Vacant(e) => {
                e.insert(fold.len());
                fold.push((*k, effect.clone()));
            }
        }
    }
    fold
}

/// Where every writer of one batch finds its outcome: `Ok(answers)`, one
/// per op in arrival order (delete's was-present answer, `true` for
/// puts), once a log round or a harden made the batch durable;
/// `Err(why)` when the shard wedged first. Set once and read only under
/// the shard's buffer lock — the set before the ack condvar broadcast —
/// so it is never contended and never blocks: it is no lock of its own.
type Outcome = Arc<OnceLock<std::result::Result<Vec<bool>, String>>>;

/// A caller's claim on a batch: its outcome cell, and where the caller's
/// ops sit in it. The committer drains the whole queue, so the slice one
/// enqueue placed is always contiguous inside one batch.
struct Ticket {
    cell: Outcome,
    range: std::ops::Range<usize>,
}

/// A batch the committer has drained. It stays in [`BufState::batches`]
/// from the drain until its cell is filled: the next successful sync
/// round acknowledges it once applied — a log round records its
/// `effects` in the commit log, a checkpoint or shutdown harden makes
/// the shard's own manifest cover it — and a wedge fails it at any
/// point.
struct Batch {
    cell: Outcome,
    /// The batch's per-shard sequence number (monotone in apply order),
    /// framed into its commit-log record so reopen-time replay can skip
    /// batches the shard's manifest watermark already covers.
    seq: u64,
    /// The batch's newest-wins fold ([`fold_newest_wins`]) — what readers
    /// see while the batch applies, what a log round frames into the
    /// commit log, and (when recording) the history entry.
    effects: Vec<(Key, Option<Effect>)>,
    /// Every op's answer once the apply finished; `None` while it runs.
    answers: Option<Vec<bool>>,
}

/// The mutable half of a shard that writers, readers, the committer and
/// the coordinator touch; deliberately separate from the store so
/// enqueues and overlay reads never wait behind an apply or a harden.
#[derive(Default)]
struct BufState {
    /// Writes accepted for the *next* batch, in arrival order. The first
    /// half of the read-your-writes overlay: a key's newest write in it
    /// is the answer a reader sees.
    pending: Vec<(Key, Option<Effect>)>,
    /// The outcome cell `pending`'s writers park on; the drain takes
    /// both.
    pending_cell: Outcome,
    /// Every drained batch whose writers are not yet answered, in seq
    /// order: the applied ones (pipelined acks), then at most one still
    /// applying — whose fold is the overlay's second half. A wedged
    /// shard keeps them as in-flight candidates.
    batches: Vec<Batch>,
    /// Sequence number the next drained batch takes. Seeded at open
    /// from the store's persisted replay watermark plus one; per-shard
    /// and strictly monotone across a service generation.
    next_seq: u64,
    /// Set by the service's drop: drain and exit.
    shutdown: bool,
    /// Set when a group commit failed: the shard stops accepting work
    /// (its store handle is poisoned) until the service is reopened.
    wedged: Option<String>,
    committed_ops: u64,
    committed_batches: u64,
    largest_batch: u64,
    /// Ops the log fold absorbed (see [`ServiceStats::coalesced_ops`]).
    /// Counted at drain.
    coalesced_ops: u64,
    /// Checkpoint hardens of this shard's manifest (feeds
    /// `shard_syncs`).
    hardens: u64,
    /// Record the compositions of the batches acknowledged while on
    /// (the tests' ground truth).
    #[cfg(test)]
    recording: bool,
    #[cfg(test)]
    history: Vec<BatchRecord>,
}

impl BufState {
    /// The key's newest accepted effect (`Some(None)` = a delete), if it
    /// is not yet the store's to answer.
    fn overlay_get(&self, key: Key) -> Option<Option<Effect>> {
        // `pending` is strictly newer than the batch being applied, and
        // the store answers for every batch before it.
        if let Some((_, effect)) = self.pending.iter().rev().find(|w| w.0 == key) {
            return Some(effect.clone());
        }
        let applying = self.batches.last().filter(|b| b.answers.is_none())?;
        mutant!(NO_INFLIGHT_OVERLAY => return None);
        applying.effects.iter().find(|w| w.0 == key).map(|w| w.1.clone())
    }

    /// Whether the committer is mid-apply on a live shard (the
    /// wave-settling signal the coordinator reads: a shard with pending
    /// work or an apply in progress is about to produce dirt, so the
    /// round should wait for it instead of letting its batch straggle
    /// into the next round).
    fn applying(&self) -> bool {
        self.wedged.is_none() && self.batches.last().is_some_and(|b| b.answers.is_none())
    }
}

/// Acknowledges the shard's applied batches at or below `seq`, which a
/// log round or a harden has just made durable: they count as
/// committed, enter the recorded history, leave `batches`, and their
/// writers get their answers and wake. Does nothing on a wedged shard,
/// whose wedge already failed every batch it holds.
fn ack_through<M: StoreMedia>(shard: &Shard<M>, seq: u64) {
    {
        let mut buf = shard.buf.lock();
        if buf.wedged.is_some() {
            return;
        }
        let durable =
            buf.batches.iter().take_while(|b| b.seq <= seq && b.answers.is_some()).count();
        let acked: Vec<Batch> = buf.batches.drain(..durable).collect();
        for b in acked {
            let answers = b.answers.expect("only applied batches are acknowledged");
            buf.committed_batches += 1;
            buf.committed_ops += answers.len() as u64;
            buf.largest_batch = buf.largest_batch.max(answers.len() as u64);
            #[cfg(test)]
            if buf.recording {
                buf.history.push(BatchRecord { ops: b.effects });
            }
            b.cell.set(Ok(answers)).expect("a batch is answered once");
        }
    }
    mutant!(NO_ACK_NOTIFY => return);
    shard.ack_cv.notify_all();
}

struct Shard<M: StoreMedia> {
    buf: Mutex<BufState>,
    /// Wakes the committer: new pending work, shutdown.
    work_cv: Condvar,
    /// Wakes parked writers: their batch's outcome was set.
    ack_cv: Condvar,
    /// The persistent store; held by the committer for the length of one
    /// apply, by the coordinator for one harden, and by readers that
    /// miss the overlay.
    store: Mutex<KvStore<M>>,
}

/// The shared commit clock: committers funnel their durability points
/// through it so all dirty shards commit inside one coordinated round
/// instead of syncing independently. State transitions:
///
/// * a committer that applied a batch marks its shard **dirty**;
/// * the coordinator thread snapshots the dirty set and runs a **log
///   round**: every applied batch goes into the shared commit log,
///   one fsync makes them all durable, and their writers are
///   acknowledged;
/// * when the log outgrows its threshold the round is followed by a
///   **checkpoint**: the coordinator hardens every shard's manifest in
///   turn and then empties the log, which those manifests now cover;
/// * the round completes, the epoch advances, and the next round starts
///   as soon as there is new dirt — the commit interval adapts to load.
struct SyncCoordinator {
    state: Mutex<CoordState>,
    /// Wakes the coordinator: new dirt, shutdown.
    cv: Condvar,
}

struct CoordState {
    /// Shards with applied-but-volatile batches awaiting a round.
    dirty: Vec<bool>,
    /// Completed rounds and checkpoints — the service's durability
    /// epoch.
    epoch: u64,
    shutdown: bool,
    /// Commit-log bytes that trigger a checkpoint; defaults to
    /// [`CHECKPOINT_LOG_BYTES`], overridable per service handle (tests
    /// shrink it to sweep crashes across checkpoints).
    ckpt_bytes: u64,
    /// Checkpoints that emptied the log (feeds
    /// [`ServiceStats::sealed_discards`]).
    sealed_discards: u64,
    /// Failed truncates after a clean checkpoint (feeds
    /// [`ServiceStats::sealed_discard_failures`]).
    sealed_discard_failures: u64,
}

impl SyncCoordinator {
    fn new(shards: usize) -> Self {
        let state = CoordState {
            dirty: vec![false; shards],
            epoch: 0,
            shutdown: false,
            ckpt_bytes: CHECKPOINT_LOG_BYTES,
            sealed_discards: 0,
            sealed_discard_failures: 0,
        };
        SyncCoordinator { state: Mutex::new(Rank::Coord, state), cv: Condvar::new() }
    }

    /// A committer applied a batch on shard `si`: schedule it into the
    /// next round. Always notifies — an apply finishing is also the
    /// settling signal the coordinator's wave wait sleeps on.
    fn mark_dirty(&self, si: usize) {
        let mut st = self.state.lock();
        st.dirty[si] = true;
        mutant!(NO_DIRTY_NOTIFY => return);
        self.cv.notify_all();
    }
}

/// Commit-log bytes that trigger a checkpoint: big enough that
/// steady-state rounds almost never pay per-shard manifest hardens — a
/// checkpoint costs one manifest harden *per shard*, so its price
/// scales with the shard count while log rounds stay flat — small
/// enough to bound reopen-time replay work (4 MiB replays in well under
/// a second even on modest disks; at 25 bytes per logged op that is
/// ~160k ops between manifest catch-ups).
const CHECKPOINT_LOG_BYTES: u64 = 4 * 1024 * 1024;

/// The coordinator thread body: turn accumulated dirt into sync rounds
/// — and, past the log threshold, checkpoints — until shutdown finds
/// nothing left to flush. The coordinator is the commit log's only
/// writer and the shards' only hardener. The service's drop joins every
/// committer before it asks the coordinator to stop, so the dirt left
/// then is final: the coordinator commits it, and its last act is a
/// checkpoint that hardens every shard and empties the log.
fn coordinator_loop<M: StoreMedia>(
    shards: Vec<Arc<Shard<M>>>,
    coord: Arc<SyncCoordinator>,
    mut log: CommitLog<M>,
) {
    loop {
        // Wait for dirt (or a clean shutdown).
        let shutdown = {
            let mut st = coord.state.lock();
            loop {
                if st.dirty.iter().any(|&d| d) {
                    break false;
                }
                if st.shutdown {
                    break true;
                }
                st = coord.cv.wait(st);
            }
        };
        if shutdown {
            mutant!(NO_FINAL_CHECKPOINT => return);
            checkpoint(&shards, &coord, &mut log);
            return;
        }
        // Wave settling. A wave — every writer unblocked by the last
        // round submitting its next pipelined chunk — does not land
        // atomically: enqueues and applies trickle in as the scheduler
        // runs each writer and committer. Snapshotting at the first
        // sign of dirt would strand the stragglers into a second round,
        // so the round fires only once *quiet* (no shard has pending
        // work or an apply in flight) has survived a few scheduler
        // yields: each yield hands the CPU to any just-acked writer
        // whose enqueue is microseconds away, and fresh dirt resets the
        // confirmation count. Patience is bounded — committers signal
        // `coord.cv` after every apply, and a continuous enqueue stream
        // must not starve durability — but writers park on their acks
        // after each pipelined chunk, so quiet always arrives within a
        // wave. It pays: on the benchmark (2 clients, 2-core host, ten
        // interleaved pairs) a round fired at the first dirt costs 1.6×
        // (`hot`) and 1.7× (`ingest`) the rounds per kop, and 17 % and
        // 4 % of their write throughput.
        let mut confirmations = 0u32;
        let mut patience = 32u32;
        loop {
            let quiet = shards.iter().all(|s| {
                let buf = s.buf.lock();
                buf.pending.is_empty() && !buf.applying()
            });
            if coord.state.lock().shutdown {
                break;
            }
            if quiet {
                confirmations += 1;
                if confirmations >= 3 {
                    break;
                }
                dxh_sync::thread::yield_now();
                continue;
            }
            confirmations = 0;
            if patience == 0 {
                break;
            }
            patience -= 1;
            let st = coord.state.lock();
            let (st, _) = coord.cv.wait_timeout(st, std::time::Duration::from_micros(200));
            drop(st);
        }
        let (participants, ckpt_bytes) = {
            let mut st = coord.state.lock();
            let p: Vec<usize> = (0..st.dirty.len()).filter(|&i| st.dirty[i]).collect();
            for &i in &p {
                st.dirty[i] = false;
            }
            (p, st.ckpt_bytes)
        };
        commit_round(&shards, &coord, &mut log, &participants);
        if log.size() >= ckpt_bytes {
            checkpoint(&shards, &coord, &mut log);
        }
    }
}

/// One **log round** — the service's common durability point. The
/// coordinator collects every applied-but-unacknowledged batch from the
/// round's shards, frames one record per batch into the shared commit
/// log, and makes them all durable with the log's single physical sync;
/// then the epoch advances and every collected batch's writers are
/// acknowledged. However many shards are dirty, the round pays one
/// fsync. The records are encoded from `batches` under the buffer lock,
/// and the batches stay there until answered. A log failure wedges
/// exactly the shards whose batches were riding the round, after
/// poisoning their stores (the applied-but-uncommitted effects must
/// never reach a manifest): their writers get errors, and the batches
/// stay as in-flight candidates.
fn commit_round<M: StoreMedia>(
    shards: &[Arc<Shard<M>>],
    coord: &SyncCoordinator,
    log: &mut CommitLog<M>,
    participants: &[usize],
) {
    // `(shard, newest seq logged)` per shard riding the round.
    let mut riding: Vec<(usize, u64)> = Vec::new();
    let mut bytes = Vec::new();
    for &si in participants {
        let buf = shards[si].buf.lock();
        if buf.wedged.is_some() {
            continue;
        }
        for b in buf.batches.iter().take_while(|b| b.answers.is_some()) {
            encode_log_record(&mut bytes, si as u32, b.seq, &b.effects);
            match riding.last_mut() {
                Some((s, newest)) if *s == si => *newest = b.seq,
                _ => riding.push((si, b.seq)),
            }
        }
    }
    if riding.is_empty() {
        return;
    }
    mutant!(ACK_BEFORE_LOG_COMMIT => for &(si, seq) in &riding {
        ack_through(&shards[si], seq);
    });
    match log.commit(&bytes) {
        Ok(()) => {
            for &(si, seq) in &riding {
                ack_through(&shards[si], seq);
            }
            coord.state.lock().epoch += 1;
        }
        Err(e) => {
            // Poison every involved store first, and only then wedge:
            // writers unpark strictly after no store can commit the
            // round's batches any more.
            for &(si, _) in &riding {
                shards[si].store.lock().poison();
            }
            for &(si, _) in &riding {
                wedge(&shards[si], e.to_string());
            }
        }
    }
}

/// One **checkpoint**, run on the coordinator thread: every shard
/// hardens its manifest in turn — which also acknowledges the applied
/// batches that manifest covers — and then, iff every harden committed
/// and no failed round left bytes behind, the commit log is emptied:
/// each record in it is now at or below its shard's manifest watermark.
///
/// Skipped entirely while any shard is wedged. A wedged shard's
/// acknowledged batches may exist nowhere but in the log, so the log is
/// kept for reopen-time replay whatever its siblings do — hardening
/// them at every round past the threshold would buy nothing.
fn checkpoint<M: StoreMedia>(
    shards: &[Arc<Shard<M>>],
    coord: &SyncCoordinator,
    log: &mut CommitLog<M>,
) {
    if shards.iter().any(|s| s.buf.lock().wedged.is_some()) {
        return;
    }
    let mut clean = true;
    for shard in shards {
        clean &= harden_shard(shard);
    }
    coord.state.lock().epoch += 1;
    if !clean || log.is_poisoned() || log.size() == 0 {
        return;
    }
    // A failed truncate keeps records every manifest covers: replay
    // would skip them by watermark. It is counted, not swallowed, and
    // the next round past the threshold checkpoints again.
    let truncated = log.truncate().is_ok();
    let mut st = coord.state.lock();
    if truncated {
        st.sealed_discards += 1;
    } else {
        st.sealed_discard_failures += 1;
    }
}

/// Wedges the shard if its committer thread dies by panic. Mutex
/// poisoning is swallowed at the `dxh_sync` seam, so without this a
/// committer that panicked mid-protocol would silently strand every
/// writer parked on `ack_cv` — the lost-wakeup shape the model checker
/// hunts. Every batch it drained is in `BufState::batches`, so the
/// wedge fails it however far its apply got. The wedge also stops
/// every later checkpoint, so the log keeps whatever the dead
/// committer's shard acknowledged. Runs during unwind, after the
/// committer's own guards have been released (locals drop in reverse
/// declaration order and the guard is declared first).
struct CommitterPanicGuard<'a, M: StoreMedia>(&'a Shard<M>);

impl<M: StoreMedia> Drop for CommitterPanicGuard<'_, M> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            wedge(self.0, "committer thread panicked".to_string());
        }
    }
}

/// The store lock as the committer holds it across an apply: a panic
/// mid-apply poisons the store before the lock is let go, so neither a
/// checkpoint harden nor the drop-time sync can commit the half-applied
/// batch.
struct PoisonOnUnwind<'a, M: StoreMedia>(dxh_sync::MutexGuard<'a, KvStore<M>>);

impl<M: StoreMedia> Drop for PoisonOnUnwind<'_, M> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// The per-shard committer thread body: drain-and-apply pending batches
/// continuously until shutdown finds the queue empty. Durability is the
/// coordinator's: its log rounds and checkpoints acknowledge.
fn committer_loop<M: StoreMedia>(shard: Arc<Shard<M>>, coord: Arc<SyncCoordinator>, si: usize) {
    let _panic_guard = CommitterPanicGuard(&shard);
    mutant!(NO_PANIC_GUARD => std::mem::forget(_panic_guard));
    loop {
        {
            let mut buf = shard.buf.lock();
            loop {
                if buf.wedged.is_none() && !buf.pending.is_empty() {
                    break;
                }
                if buf.shutdown {
                    return;
                }
                buf = shard.work_cv.wait(buf);
            }
        }
        if apply_pending(&shard) {
            coord.mark_dirty(si);
        }
    }
}

/// Takes the shard's whole pending queue as one batch and applies
/// **every** op to the table in arrival order. Each op's answer is the
/// table call's own ([`apply_write`]), so the answers are serial by
/// construction. The batch joins `BufState::batches` at the drain, where
/// a wedge finds it whenever it strikes; its newest-wins fold
/// ([`fold_newest_wins`]) is what readers see while the apply runs and
/// what the commit log records. Returns whether a batch was applied and
/// now awaits its epoch (false: nothing pending, shard wedged, or —
/// wedging it now — the apply failed).
fn apply_pending<M: StoreMedia>(shard: &Shard<M>) -> bool {
    let (ops, seq) = {
        let mut buf = shard.buf.lock();
        if buf.wedged.is_some() || buf.pending.is_empty() {
            return false;
        }
        debug_assert!(!buf.applying(), "one apply at a time");
        let ops = std::mem::take(&mut buf.pending);
        let cell = std::mem::take(&mut buf.pending_cell);
        mutant!(SPLIT_DRAIN => buf = mutant::relock_and_clear(&shard.buf, buf));
        let seq = buf.next_seq;
        buf.next_seq += 1;
        let effects = fold_newest_wins(&ops);
        buf.coalesced_ops += (ops.len() - effects.len()) as u64;
        buf.batches.push(Batch { cell, seq, effects, answers: None });
        (ops, seq)
    };

    let mut answers = Vec::with_capacity(ops.len());
    let mut failure: Option<String> = None;
    {
        let store = shard.store.lock();
        let mut store = PoisonOnUnwind(store);
        for (k, effect) in &ops {
            match apply_write(&mut store.0, *k, effect.as_ref()) {
                Ok(ans) => answers.push(ans),
                Err(e) => {
                    failure = Some(e.to_string());
                    break;
                }
            }
            mutant!(COMMITTER_PANICS => mutant::die());
        }
        if failure.is_some() {
            // The table holds a partial batch that was reported failed;
            // it must never reach a manifest — not even through the
            // drop-time sync.
            store.0.poison();
        } else {
            // The table now holds every batch up to this one and none
            // after it: whichever manifest commits next covers exactly
            // that, so replay must skip exactly those records.
            store.0.set_replay_watermark(seq);
        }
    }

    match failure {
        None => {
            let mut buf = shard.buf.lock();
            // Nothing drains or removes an unapplied batch meanwhile: it
            // is still the last one.
            let batch = buf.batches.last_mut().expect("the drained batch stays until answered");
            batch.answers = Some(answers);
            buf.wedged.is_none()
        }
        Some(why) => {
            wedge(shard, why);
            false
        }
    }
}

/// The manifest half of a shard's durability (checkpoints; steady-state
/// durability is the commit log's): harden the store, then acknowledge
/// the applied batches its manifest covers — those at or below the
/// replay watermark it persisted (manifest durability is durability
/// too). The committer keeps applying meanwhile, so a batch applied
/// after the harden let go of the store is in no manifest: it stays
/// unacknowledged for the next log round. A failure wedges the shard
/// instead. Returns whether the harden committed (`false` on a wedged
/// shard).
fn harden_shard<M: StoreMedia>(shard: &Shard<M>) -> bool {
    if shard.buf.lock().wedged.is_some() {
        return false;
    }
    let res = {
        let mut store = shard.store.lock();
        // Each apply stamps its batch's seq under this lock, so the
        // watermark the manifest persists is exactly its newest batch.
        let r = store.harden().map(|()| store.replay_watermark());
        if r.is_err() {
            // A failed harden may have written part of the batch set
            // toward disk; poisoning forbids any later manifest from
            // committing it.
            store.poison();
        }
        r
    };
    let covered = match res {
        Ok(w) => w,
        Err(e) => {
            wedge(shard, e.to_string());
            return false;
        }
    };
    #[cfg(test)]
    let covered = mutant::after_harden(covered);
    shard.buf.lock().hardens += 1;
    ack_through(shard, covered);
    true
}

/// The commit path's seeded mutants, one switch per `mutant!` site, and
/// the helpers that land a mutant or a panic where it bites — compiled
/// into this crate's own tests only. A switch is one bit of the calling
/// thread's armed set, like `store::levels::mutant`'s thread-locals; a
/// service hands its opener's set to the committers and the coordinator
/// it spawns, so arming reaches that one service's threads and never a
/// parallel test. `model_tests` shows the checker catching every one —
/// the two early acknowledgements, `ACK_ALL_AFTER_HARDEN` and
/// `ACK_BEFORE_LOG_COMMIT`, at the crash index that loses their key.
#[cfg(test)]
mod mutant {
    use std::cell::Cell;

    use super::BufState;
    use dxh_sync::{Mutex, MutexGuard};

    thread_local! {
        /// The calling thread's armed switches, one bit each.
        pub(super) static ARMED: Cell<u32> = const { Cell::new(0) };
    }

    /// One seeded mutant (or injected fault).
    #[derive(Clone, Copy)]
    pub(super) struct Switch(u32);

    impl Switch {
        pub(super) fn on(self) -> bool {
            ARMED.get() & self.0 != 0
        }

        pub(super) fn set(self, on: bool) {
            ARMED.set(if on { ARMED.get() | self.0 } else { ARMED.get() & !self.0 });
        }
    }

    /// A harden acknowledges every applied batch, not only the ones its
    /// manifest covers.
    pub(super) const ACK_ALL_AFTER_HARDEN: Switch = Switch(1);
    /// `drive` parks with `if`, not `while`: any wakeup returns.
    pub(super) const IF_RECHECK: Switch = Switch(1 << 1);
    /// `ack_through` sets its batches' outcomes but never wakes their
    /// writers.
    pub(super) const NO_ACK_NOTIFY: Switch = Switch(1 << 2);
    /// An enqueue never wakes the committer.
    pub(super) const NO_WORK_NOTIFY: Switch = Switch(1 << 3);
    /// The drain takes the queue and its cell, lets go of the buffer
    /// lock, then re-takes it and clears the queue: an op enqueued in
    /// between is dropped unanswered.
    pub(super) const SPLIT_DRAIN: Switch = Switch(1 << 4);
    /// Readers get no overlay from the applying batch's fold.
    pub(super) const NO_INFLIGHT_OVERLAY: Switch = Switch(1 << 5);
    /// `mark_dirty` never wakes the coordinator.
    pub(super) const NO_DIRTY_NOTIFY: Switch = Switch(1 << 6);
    /// The drop joins the coordinator without telling it to shut down.
    pub(super) const NO_SHUTDOWN_NOTIFY: Switch = Switch(1 << 7);
    /// The coordinator exits on shutdown without its final checkpoint.
    pub(super) const NO_FINAL_CHECKPOINT: Switch = Switch(1 << 8);
    /// The committer runs without its `CommitterPanicGuard`.
    pub(super) const NO_PANIC_GUARD: Switch = Switch(1 << 9);
    /// The fault, not a mutant: a committer dies mid-apply, after an op,
    /// holding the store lock.
    pub(super) const COMMITTER_PANICS: Switch = Switch(1 << 10);
    /// A log round acknowledges its riding batches before the log's
    /// append and sync.
    pub(super) const ACK_BEFORE_LOG_COMMIT: Switch = Switch(1 << 11);

    /// The watermark a harden acknowledges up to.
    pub(super) fn after_harden(covered: u64) -> u64 {
        if ACK_ALL_AFTER_HARDEN.on() {
            u64::MAX
        } else {
            covered
        }
    }

    /// `SPLIT_DRAIN`'s second lock hold. The cleared ops' outcome cell
    /// goes with them, so their writers wait on a cell no batch will set.
    pub(super) fn relock_and_clear<'a>(
        buf: &'a Mutex<BufState>,
        guard: MutexGuard<'a, BufState>,
    ) -> MutexGuard<'a, BufState> {
        drop(guard);
        let mut guard = buf.lock();
        guard.pending.clear();
        guard.pending_cell = Default::default();
        guard
    }

    /// `COMMITTER_PANICS`: a death the model checker expects (outside a
    /// checker run, a plain panic).
    pub(super) fn die() {
        #[cfg(feature = "model")]
        dxh_sync::model::inject_panic();
        #[cfg(not(feature = "model"))]
        panic!("injected committer panic");
    }
}

/// Wedges the shard after a failed apply, round or harden, or a
/// committer's death: every parked writer — of each drained batch,
/// applied or mid-apply, and of the ops still queued behind them — gets
/// the error. The batches stay in place: they are the tests' in-flight
/// candidates. A shard already wedged keeps its first cause: that wedge
/// failed every batch, and a wedged shard takes no new one. Called with
/// no locks held.
fn wedge<M: StoreMedia>(shard: &Shard<M>, why: String) {
    {
        let mut buf = shard.buf.lock();
        if buf.wedged.is_none() {
            buf.pending.clear();
            for cell in buf.batches.iter().map(|b| &b.cell).chain([&buf.pending_cell]) {
                cell.set(Err(why.clone())).expect("an unanswered batch has no outcome yet");
            }
            buf.wedged = Some(why);
        }
    }
    shard.ack_cv.notify_all();
}

/// The routing hash: derived from the deployment seed with a fixed tweak
/// so it stays independent of every shard-internal hash (which are
/// derived from the seed *without* the tweak).
fn shard_router(seed: u64) -> IdealFn {
    IdealFn::from_seed(seed ^ 0x005A_ADED)
}

/// Which of `shards` shards owns `key` under `router` — the same
/// prefix-bucket reduction every table uses, so the partition is uniform
/// whenever the router hash is.
#[inline]
fn shard_of_key(router: &IdealFn, shards: usize, key: Key) -> usize {
    prefix_bucket(router.hash64(key), shards as u64) as usize
}

/// A thread-safe, persistent, sharded key-value store with group-commit
/// batching: `N` independent [`crate::KvStore`] shards behind one
/// handle, each with a dedicated committer thread, all funneling their
/// durability points through one shared sync coordinator (see the
/// module docs for the protocol — writers never pay an fsync).
///
/// Share it across threads with an [`Arc`] (or `dxh_sync::thread::scope`);
/// every method takes `&self`. Dropping the handle runs the
/// drain-then-sync shutdown handshake: every enqueued op is applied and
/// durably committed (or failed, on a wedged shard) before the
/// committer threads join.
///
/// ```
/// use dxh_core::{CoreConfig, ShardedKvStore, SimMedia};
/// use dxh_extmem::SimEnv;
///
/// let env = SimEnv::new();
/// let cfg = CoreConfig::lemma5(8, 128, 2)?;
/// let svc = ShardedKvStore::open_on(SimMedia::unlocked(&env), 4, cfg.clone(), 42)?;
/// svc.put(7, 700)?; // parked until the owning shard's batch is durable
/// svc.put(8, 800)?;
/// assert_eq!(svc.get(7)?, Some(700));
/// assert!(svc.delete(7)?);
/// assert_eq!(svc.get(7)?, None);
/// drop(svc);
/// // Acknowledged writes are durable: a reopen sees them.
/// let svc = ShardedKvStore::open_on(SimMedia::unlocked(&env), 4, cfg, 42)?;
/// assert_eq!(svc.get(8)?, Some(800));
/// # Ok::<(), dxh_extmem::ExtMemError>(())
/// ```
pub struct ShardedKvStore<M: StoreMedia = DirMedia> {
    shards: Vec<Arc<Shard<M>>>,
    router: IdealFn,
    coord: Arc<SyncCoordinator>,
    committers: Vec<Option<JoinHandle<()>>>,
    coordinator: Option<JoinHandle<()>>,
    /// Whether every shard runs in payload mode (byte values in a blob
    /// log) — a service-wide property baked in at create time, like the
    /// shard count.
    payloads: bool,
}

impl ShardedKvStore<DirMedia> {
    /// Opens the service at `root` (a directory holding one
    /// subdirectory per shard), creating it when no service manifest
    /// exists. On reopen the **persisted** shard count and router seed
    /// win — they are baked into the key partition — and a caller
    /// asking for a different `shards` is rejected rather than silently
    /// re-routed.
    ///
    /// ```no_run
    /// use dxh_core::{CoreConfig, ShardedKvStore};
    ///
    /// let cfg = CoreConfig::lemma5(64, 4096, 2)?;
    /// let svc = ShardedKvStore::open("/var/lib/my-service", 8, cfg, 42)?;
    /// dxh_sync::thread::scope(|s| {
    ///     for t in 0..8u64 {
    ///         let svc = &svc;
    ///         s.spawn(move || {
    ///             for i in 0..1000 {
    ///                 // Concurrent writers share group commits.
    ///                 svc.put(t * 1_000_000 + i, i).unwrap();
    ///             }
    ///         });
    ///     }
    /// });
    /// svc.sync_all()?;
    /// # Ok::<(), dxh_extmem::ExtMemError>(())
    /// ```
    pub fn open(root: impl AsRef<Path>, shards: usize, cfg: CoreConfig, seed: u64) -> Result<Self> {
        Self::open_on(DirMedia::unlocked(root)?, shards, cfg, seed)
    }

    /// [`ShardedKvStore::open`] in **payload mode**: every shard stores
    /// arbitrary byte values in its own blob log and the byte APIs
    /// ([`ShardedKvStore::put_bytes`] / [`ShardedKvStore::get_bytes`])
    /// come alive. The mode is baked into the layout like the shard
    /// count — reopening a payload service through [`ShardedKvStore::
    /// open`] (or vice versa) is rejected.
    pub fn open_payload(
        root: impl AsRef<Path>,
        shards: usize,
        cfg: CoreConfig,
        seed: u64,
    ) -> Result<Self> {
        Self::open_payload_on(DirMedia::unlocked(root)?, shards, cfg, seed)
    }
}

impl<M: StoreMedia + Send + 'static> ShardedKvStore<M> {
    /// Opens the service rooted at `root` — the backend-generic twin of
    /// [`ShardedKvStore::open`] (the torture harness passes
    /// [`crate::SimMedia::unlocked`]). The root holds the service
    /// manifest (`SERVICE`: the shard count and router seed, which are
    /// baked into the data layout) and the shared commit log; shard `i`
    /// is the store in child directory `shard-00i` ([`StoreMedia::sub`]),
    /// behind its own lock. The root itself takes none: the service
    /// opens every shard before it touches the log. Each shard's store
    /// opens (or is created) with an equal share of the deployment: the
    /// same `cfg` per shard and a per-shard hash seed derived from
    /// `seed`. Spawns the `N` committer threads and the sync
    /// coordinator; they join on drop.
    pub fn open_on(root: M, shards: usize, cfg: CoreConfig, seed: u64) -> Result<Self> {
        Self::open_inner(root, shards, cfg, seed, false)
    }

    /// [`ShardedKvStore::open_payload`] on any [`StoreMedia`] root — the
    /// backend-generic twin of [`ShardedKvStore::open_on`].
    pub fn open_payload_on(root: M, shards: usize, cfg: CoreConfig, seed: u64) -> Result<Self> {
        Self::open_inner(root, shards, cfg, seed, true)
    }

    fn open_inner(
        mut root: M,
        shards: usize,
        cfg: CoreConfig,
        seed: u64,
        payloads: bool,
    ) -> Result<Self> {
        if shards == 0 {
            return Err(ExtMemError::BadConfig("need at least one shard".into()));
        }
        if shards > 1024 {
            return Err(ExtMemError::BadConfig(format!(
                "shard count {shards} is implausible (max 1024)"
            )));
        }
        // Its batches may be in no manifest: no shard opens without them.
        if root.open_file(COMMITLOG_OLD)?.is_some() {
            return Err(older_layout(&format!("a sealed log segment {COMMITLOG_OLD} in the root")));
        }
        let (seed, fresh) = match read_text(&mut root, SERVICE)? {
            Some(text) => {
                let meta = parse_service_meta(&text)?;
                if meta.shards != shards {
                    return Err(ExtMemError::BadConfig(format!(
                        "service was created with {} shards, caller asked for \
                         {shards} — the key partition is baked into the layout",
                        meta.shards
                    )));
                }
                if meta.payloads != payloads {
                    let (was, should) = if meta.payloads {
                        ("payload", "open_payload")
                    } else {
                        ("raw word", "open")
                    };
                    return Err(ExtMemError::BadConfig(format!(
                        "service was created in {was} mode; reopen it with {should}"
                    )));
                }
                // Persisted routing seed wins, like KvStore's hash seed.
                (meta.seed, false)
            }
            None => (seed, true),
        };
        let mut stores: Vec<KvStore<M>> = Vec::with_capacity(shards);
        for i in 0..shards {
            // Per-shard hash seeds are derived (not shared): shard
            // tables must hash independently of each other and of the
            // router. On reopen each store's own persisted seed wins.
            let shard_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let shard_media = root.sub(&shard_name(i))?;
            stores.push(if payloads {
                KvStore::open_payload_on(shard_media, cfg.clone(), shard_seed)?
            } else {
                KvStore::open_on(shard_media, cfg.clone(), shard_seed)?
            });
        }
        if fresh {
            // Committed only after every shard bootstrapped: a failed
            // first open (one shard's disk full, say) must not bake a
            // shard count into the root that never produced a working
            // service. A crash in between is recoverable — the next
            // open re-runs this create path, and each shard store
            // reopens from its own already-committed manifest.
            let mode = if payloads { "payloads 1\n" } else { "" };
            let meta = format!("{SERVICE_MAGIC}\nshards {shards}\nseed {seed}\n{mode}");
            commit_file_atomic(&mut root, SERVICE, &meta)?;
        }
        // Reopen-time recovery, phase two: each store recovered itself
        // to its last manifest above; now the commit log's surviving
        // records — batches acknowledged through a log round that no
        // manifest covered yet — are replayed on top, the manifests
        // brought current, and the log emptied.
        let mut log = CommitLog::open(root)?;
        replay_log(&mut log, &mut stores)?;
        let v: Vec<Arc<Shard<M>>> = stores
            .into_iter()
            .map(|store| {
                // Batch numbering resumes above the persisted
                // watermark, so a record logged after this open can
                // never collide with (and be skipped as) a pre-crash
                // sequence number.
                let w = store.replay_watermark();
                Arc::new(Shard {
                    buf: Mutex::new(Rank::Buf, BufState { next_seq: w + 1, ..Default::default() }),
                    work_cv: Condvar::new(),
                    ack_cv: Condvar::new(),
                    store: Mutex::new(Rank::Store, store),
                })
            })
            .collect();
        // The threads come last, once every shard is known good; an
        // error below drops the partially built service, whose Drop
        // shuts down whatever was spawned.
        let coord = Arc::new(SyncCoordinator::new(shards));
        let mut svc = ShardedKvStore {
            shards: v,
            router: shard_router(seed),
            coord,
            committers: Vec::with_capacity(shards),
            coordinator: None,
            payloads,
        };
        #[cfg(test)]
        let armed = mutant::ARMED.get();
        let handle = dxh_sync::thread::Builder::new().name("dxh-sync-coord".into()).spawn({
            let shards = svc.shards.clone();
            let coord = svc.coord.clone();
            move || {
                #[cfg(test)]
                mutant::ARMED.set(armed);
                coordinator_loop(shards, coord, log)
            }
        })?;
        svc.coordinator = Some(handle);
        for (i, shard) in svc.shards.clone().into_iter().enumerate() {
            let coord = svc.coord.clone();
            let handle = dxh_sync::thread::Builder::new()
                .name(format!("dxh-committer-{i:03}"))
                .spawn(move || {
                    #[cfg(test)]
                    mutant::ARMED.set(armed);
                    committer_loop(shard, coord, i)
                })?;
            svc.committers.push(Some(handle));
        }
        Ok(svc)
    }
}

impl<M: StoreMedia> ShardedKvStore<M> {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `key` (diagnostics; the same routing every
    /// operation uses).
    pub fn shard_of(&self, key: Key) -> usize {
        shard_of_key(&self.router, self.shards.len(), key)
    }

    /// Inserts (or upserts) `key` with `value`, parking until the owning
    /// shard's batch reaches its durability epoch — when this returns
    /// `Ok`, the write survives any crash. The calling thread pays no
    /// fsync: the shard's committer applies the batch and the next
    /// coordinated sync round commits it.
    ///
    /// ```
    /// use dxh_core::{CoreConfig, ShardedKvStore, SimMedia};
    /// use dxh_extmem::SimEnv;
    ///
    /// let env = SimEnv::new();
    /// let cfg = CoreConfig::lemma5(8, 128, 2)?;
    /// let svc = ShardedKvStore::open_on(SimMedia::unlocked(&env), 2, cfg, 7)?;
    /// svc.put(1, 10)?;
    /// svc.put(1, 11)?; // upsert: newest wins
    /// assert_eq!(svc.get(1)?, Some(11));
    /// # Ok::<(), dxh_extmem::ExtMemError>(())
    /// ```
    pub fn put(&self, key: Key, value: Value) -> Result<()> {
        self.submit(&[WriteOp::Put(key, value)]).map(|_| ())
    }

    /// Deletes `key`, parking until the deletion is durable; returns
    /// whether the key was present when the batch applied it.
    pub fn delete(&self, key: Key) -> Result<bool> {
        self.submit(&[WriteOp::Delete(key)]).map(|r| r[0])
    }

    /// Submits a slice of writes in one call — the pipelined form of
    /// [`ShardedKvStore::put`] / [`ShardedKvStore::delete`]. The ops are
    /// routed to their shards, enqueued together, and this call parks
    /// once per involved shard instead of once per op, so a caller with
    /// its own op stream feeds group commits much larger than the writer
    /// count. Returns delete's was-present answer per op (`true` for
    /// puts), in input order.
    ///
    /// Ops on the *same shard* commit atomically together (they are
    /// enqueued under one buffer-lock acquisition, so the committer
    /// always drains them as one contiguous slice — one batch); ops on
    /// different shards commit independently.
    pub fn submit(&self, ops: &[WriteOp]) -> Result<Vec<bool>> {
        let ops: Vec<(Key, Option<Effect>)> = ops.iter().map(|&op| op.effect()).collect();
        for op in &ops {
            validate(op, self.payloads)?;
        }
        // Group by shard first (preserving each shard's op order and the
        // input positions for the answers): the whole per-shard slice
        // must be enqueued under ONE lock acquisition, or the committer
        // racing between two enqueues could split it across batches and
        // break the same-shard atomicity documented above.
        let mut by_shard: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut slot_of: HashMap<usize, usize> = HashMap::new();
        for (pos, &(key, _)) in ops.iter().enumerate() {
            let si = self.shard_of(key);
            let slot = *slot_of.entry(si).or_insert_with(|| {
                by_shard.push((si, Vec::new()));
                by_shard.len() - 1
            });
            by_shard[slot].1.push(pos);
        }
        // Enqueue everything, then drive: ops already queued when a
        // later shard's enqueue fails (wedged) still have to be driven
        // to completion — the error answer must not abandon work other
        // shards already accepted.
        let mut placed: Vec<(usize, &[usize], Ticket)> = Vec::new();
        let mut first_err: Option<ExtMemError> = None;
        for (si, positions) in &by_shard {
            let shard_ops = positions.iter().map(|&p| ops[p].clone()).collect();
            match self.enqueue_batch(*si, shard_ops) {
                Ok(ticket) => placed.push((*si, positions, ticket)),
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        let mut results = vec![false; ops.len()];
        for (si, positions, ticket) in &placed {
            match self.drive(*si, ticket) {
                Ok(answers) => {
                    for (&pos, ans) in positions.iter().zip(answers) {
                        results[pos] = ans;
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            None => Ok(results),
            Some(e) => Err(e),
        }
    }

    /// Looks up `key`: first read-your-writes against the owning shard's
    /// group-commit buffer (a hit answers without touching the store at
    /// all), then through the shard's store. A buffered answer — or a
    /// store answer for a batch that is applied but still waiting on its
    /// sync round — reflects a write that is *accepted but not yet
    /// durable*; see `docs/GUARANTEES.md`.
    pub fn get(&self, key: Key) -> Result<Option<Value>> {
        let shard = &self.shards[self.shard_of(key)];
        {
            let buf = shard.buf.lock();
            if let Some(why) = &buf.wedged {
                return Err(wedged_err(why));
            }
            if let Some(eff) = buf.overlay_get(key) {
                return match eff {
                    None => Ok(None),
                    Some(Effect::Word(v)) => Ok(Some(v)),
                    // The store's payload-mode lookup: an 8-byte payload
                    // *is* a word; anything else is not.
                    Some(Effect::Bytes(b)) => word_of_payload(key, &b).map(Some),
                };
            }
        }
        // The buffer lock is dropped before the store lock is taken
        // (readers must never hold both — the committer acquires them in
        // the other order); the race this opens is benign, since a key
        // that left the overlay is answerable by the store.
        shard.store.lock().lookup(key)
    }

    /// Inserts (or upserts) `key` with an arbitrary byte payload —
    /// [`ShardedKvStore::put`]'s byte twin, with the same group-commit
    /// durability contract: when this returns `Ok`, the payload (and
    /// the index word pointing at it) survives any crash. Payload-mode
    /// services only ([`ShardedKvStore::open_payload`]); the payload is
    /// copied once at this boundary, then shared (not re-copied) along
    /// the apply and commit-log paths.
    ///
    /// ```
    /// use dxh_core::{CoreConfig, ShardedKvStore, SimMedia};
    /// use dxh_extmem::SimEnv;
    ///
    /// let env = SimEnv::new();
    /// let cfg = CoreConfig::lemma5(8, 128, 2)?;
    /// let svc = ShardedKvStore::open_payload_on(SimMedia::unlocked(&env), 2, cfg, 7)?;
    /// svc.put_bytes(1, b"a value of any length")?;
    /// assert_eq!(svc.get_bytes(1)?.as_deref(), Some(&b"a value of any length"[..]));
    /// # Ok::<(), dxh_extmem::ExtMemError>(())
    /// ```
    pub fn put_bytes(&self, key: Key, payload: &[u8]) -> Result<()> {
        if !self.payloads {
            return Err(ExtMemError::BadConfig(
                "byte payloads need a payload-mode service (open_payload)".into(),
            ));
        }
        let op = (key, Some(Effect::Bytes(Arc::from(payload))));
        validate(&op, true)?;
        let si = self.shard_of(key);
        let ticket = self.enqueue_batch(si, vec![op])?;
        self.drive(si, &ticket).map(|_| ())
    }

    /// Looks up `key`'s byte payload — [`ShardedKvStore::get`]'s byte
    /// twin, with the same read-your-writes overlay semantics (a hit on
    /// an accepted-but-volatile write answers before it is durable; see
    /// `docs/GUARANTEES.md`). Past the overlay the payload is read from
    /// the shard's blob log — one positional read, checksum verified,
    /// on top of the index probe — into the store's record buffer and
    /// copied out here: the buffer is lent only while the shard's store
    /// lock is held, which a borrowed return would have to keep open. A
    /// failed fetch fails this call alone; it wedges nothing.
    /// Payload-mode services only.
    pub fn get_bytes(&self, key: Key) -> Result<Option<Vec<u8>>> {
        if !self.payloads {
            return Err(ExtMemError::BadConfig(
                "byte payloads need a payload-mode service (open_payload)".into(),
            ));
        }
        let shard = &self.shards[self.shard_of(key)];
        {
            let buf = shard.buf.lock();
            if let Some(why) = &buf.wedged {
                return Err(wedged_err(why));
            }
            if let Some(eff) = buf.overlay_get(key) {
                return Ok(eff.map(|e| match e {
                    Effect::Bytes(b) => b.to_vec(),
                    // A word put on a payload-mode store lands as its
                    // 8-byte little-endian payload.
                    Effect::Word(v) => v.to_le_bytes().to_vec(),
                }));
            }
        }
        shard.store.lock().get_bytes(key).map(|opt| opt.map(<[u8]>::to_vec))
    }

    /// Syncs every shard's store in turn — a manifest-level durability
    /// fence. Every acknowledged write is already durable through the
    /// commit log; this additionally brings each shard's own manifest
    /// current (applied batches live in the tables, so the stores'
    /// hardens cover them), which is the barrier lower-level
    /// access through [`ShardedKvStore::with_shard`] needs — such
    /// mutations bypass the group-commit buffer *and* the log.
    ///
    /// ```
    /// use dxh_core::{CoreConfig, ShardedKvStore, SimMedia};
    /// use dxh_extmem::SimEnv;
    ///
    /// let env = SimEnv::new();
    /// let cfg = CoreConfig::lemma5(8, 128, 2)?;
    /// let svc = ShardedKvStore::open_on(SimMedia::unlocked(&env), 2, cfg, 9)?;
    /// svc.put(3, 30)?;
    /// svc.sync_all()?; // every acknowledged write was already durable
    /// # Ok::<(), dxh_extmem::ExtMemError>(())
    /// ```
    pub fn sync_all(&self) -> Result<()> {
        for shard in &self.shards {
            if let Some(why) = &shard.buf.lock().wedged {
                return Err(wedged_err(why));
            }
            shard.store.lock().sync()?;
        }
        Ok(())
    }

    /// Sets the commit-log size (in bytes) at which the coordinator
    /// follows a sync round with a checkpoint: it hardens every shard's
    /// manifest and empties the log. Defaults to 4 MiB; tests and
    /// torture harnesses lower it to force checkpoints under small
    /// workloads. Takes effect at the next sync round.
    pub fn set_checkpoint_log_bytes(&self, bytes: u64) {
        self.coord.state.lock().ckpt_bytes = bytes;
        self.coord.cv.notify_all();
    }

    /// Total items across shards (physical counts, like
    /// [`crate::KvStore`]'s `len`: shadowed copies and unpurged markers
    /// included until merges drop them).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.store.lock().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.store.lock().is_empty())
    }

    /// Aggregate group-commit counters across shards, plus the shared
    /// commit clock's round count.
    pub fn stats(&self) -> ServiceStats {
        let mut out = ServiceStats::default();
        for shard in &self.shards {
            {
                let buf = shard.buf.lock();
                out.committed_ops += buf.committed_ops;
                out.committed_batches += buf.committed_batches;
                out.largest_batch = out.largest_batch.max(buf.largest_batch);
                out.wedged_shards += usize::from(buf.wedged.is_some());
                out.shard_syncs += buf.hardens;
                out.coalesced_ops += buf.coalesced_ops;
            }
            // Store lock taken after the buffer lock is released —
            // readers' lock discipline (never both at once).
            let mio = shard.store.lock().manifest_io();
            out.manifest_delta_commits += mio.delta_commits;
            out.manifest_delta_bytes += mio.delta_bytes;
            out.manifest_full_commits += mio.full_commits;
            out.manifest_full_bytes += mio.full_bytes;
        }
        out.manifest_bytes_written = out.manifest_full_bytes + out.manifest_delta_bytes;
        let st = self.coord.state.lock();
        out.sync_rounds = st.epoch;
        out.sealed_discards = st.sealed_discards;
        out.sealed_discard_failures = st.sealed_discard_failures;
        out
    }

    /// Runs `f` against shard `index`'s store under its lock —
    /// diagnostics and low-level access (I/O counters, compaction).
    /// Mutations made here bypass the group-commit buffer; follow with
    /// [`ShardedKvStore::sync_all`] if durability matters.
    pub fn with_shard<R>(&self, index: usize, f: impl FnOnce(&mut KvStore<M>) -> R) -> R {
        f(&mut self.shards[index].store.lock())
    }

    /// Turns batch recording on or off (off by default; turning it on
    /// clears any previous history). While on, every shard records the
    /// composition of each batch it commits — the tests' ground truth
    /// for the batch-boundary check.
    #[cfg(test)]
    fn set_batch_recording(&self, on: bool) {
        for shard in &self.shards {
            let mut buf = shard.buf.lock();
            buf.recording = on;
            buf.history.clear();
        }
    }

    /// The recorded history per shard (empty unless
    /// [`ShardedKvStore::set_batch_recording`] is on): the committed
    /// batches in epoch order, then every batch still in flight —
    /// applied but unacknowledged ones first, a mid-apply one last.
    #[cfg(test)]
    fn batch_history(&self) -> Vec<ShardBatchHistory> {
        self.shards
            .iter()
            .map(|s| {
                let buf = s.buf.lock();
                let inflight = buf
                    .batches
                    .iter()
                    .filter(|_| buf.recording)
                    .map(|b| BatchRecord { ops: b.effects.clone() })
                    .collect();
                ShardBatchHistory { committed: buf.history.clone(), inflight }
            })
            .collect()
    }

    /// Queues `ops` on shard `si` under **one** buffer-lock acquisition
    /// — the slice lands contiguously in the queue, and since the
    /// committer always drains the whole queue, it can never be split
    /// across batches. Returns the ticket the outcome will land behind.
    /// Fails fast (enqueuing nothing) on a wedged shard.
    fn enqueue_batch(&self, si: usize, ops: Vec<(Key, Option<Effect>)>) -> Result<Ticket> {
        let shard = &self.shards[si];
        let mut buf = shard.buf.lock();
        if let Some(why) = &buf.wedged {
            return Err(wedged_err(why));
        }
        let start = buf.pending.len();
        buf.pending.extend(ops);
        let ticket = Ticket { cell: buf.pending_cell.clone(), range: start..buf.pending.len() };
        drop(buf);
        mutant!(NO_WORK_NOTIFY => return Ok(ticket));
        shard.work_cv.notify_all();
        Ok(ticket)
    }

    /// Parks until the ticket's batch outcome is set — at the batch's
    /// durability epoch, or when the shard wedges — and returns the
    /// answers of the ticket's ops, or the wedge error.
    fn drive(&self, si: usize, ticket: &Ticket) -> Result<Vec<bool>> {
        let shard = &self.shards[si];
        // The outcome is set under the buffer lock before the ack
        // broadcast, so this check is race-free here.
        let mut buf = shard.buf.lock();
        while ticket.cell.get().is_none() {
            buf = shard.ack_cv.wait(buf);
            mutant!(IF_RECHECK => break);
        }
        match ticket.cell.get().expect("checked set above") {
            Ok(answers) => Ok(answers[ticket.range.clone()].to_vec()),
            Err(why) => Err(wedged_err(why)),
        }
    }
}

impl<M: StoreMedia> Drop for ShardedKvStore<M> {
    /// The drain-then-sync shutdown handshake. First each committer is
    /// told to shut down: it drains and applies its pending queue and
    /// joins, while the coordinator keeps committing the batches it
    /// applies. Then the coordinator is retired: it commits the dirt
    /// left, and its last act is a checkpoint — every shard's manifest
    /// hardened, then the commit log emptied, so the next open has
    /// nothing to read, decode and watermark-skip and a closed service's
    /// footprint does not depend on where in the checkpoint cycle it
    /// stopped. No enqueued op is lost. A wedged shard (a failed apply
    /// or round, or a committer that panicked) cancels that checkpoint,
    /// and hangs nothing: its store is poisoned and must commit
    /// nothing, and its acknowledged batches may exist nowhere but in
    /// the log, which stays byte for byte for reopen-time replay.
    fn drop(&mut self) {
        for shard in &self.shards {
            shard.buf.lock().shutdown = true;
            shard.work_cv.notify_all();
        }
        for h in self.committers.iter_mut().filter_map(Option::take) {
            // A committer that panicked has wedged its shard.
            best_effort(h.join());
        }
        self.coord.state.lock().shutdown = true;
        mutant!(NO_SHUTDOWN_NOTIFY => drop(self.coordinator.take().map(JoinHandle::join)));
        self.coord.cv.notify_all();
        if let Some(h) = self.coordinator.take() {
            best_effort(h.join());
        }
    }
}

/// Parsed service manifest contents.
struct ServiceMeta {
    shards: usize,
    seed: u64,
    /// `payloads 1` line present ⟺ the service (and every shard store)
    /// runs in payload mode. Absent on every pre-payload manifest, which
    /// therefore parses as a raw word-mode service.
    payloads: bool,
}

/// Parses the service manifest.
fn parse_service_meta(text: &str) -> Result<ServiceMeta> {
    let corrupt = |why: &str| ExtMemError::Corrupt(format!("service manifest: {why}"));
    let mut lines = text.lines();
    if lines.next() != Some(SERVICE_MAGIC) {
        return Err(corrupt("bad magic"));
    }
    let mut shards = None;
    let mut seed = None;
    let mut payloads = false;
    for line in lines {
        let mut parts = line.split_whitespace();
        let (Some(key), Some(v)) = (parts.next(), parts.next()) else { continue };
        match key {
            "shards" => shards = v.parse().ok(),
            "seed" => seed = v.parse().ok(),
            "payloads" => payloads = v == "1",
            _ => {} // forward-compatible
        }
    }
    match (shards, seed) {
        (Some(shards), Some(seed)) if shards > 0 => Ok(ServiceMeta { shards, seed, payloads }),
        _ => Err(corrupt("missing shards/seed")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimMedia;
    use dxh_extmem::{FaultPlan, SimEnv};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn cfg() -> CoreConfig {
        CoreConfig::lemma5(8, 128, 2).unwrap()
    }

    fn sim_service(env: &SimEnv, shards: usize, seed: u64) -> ShardedKvStore<SimMedia> {
        ShardedKvStore::open_on(SimMedia::unlocked(env), shards, cfg(), seed).unwrap()
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedKvStore<DirMedia>>();
        assert_send_sync::<ShardedKvStore<SimMedia>>();
    }

    /// The router is the whole partition: total (every key has a shard),
    /// a function of the persisted seed alone (a reopened service routes
    /// every key where the first one did), independent of the shards'
    /// own hashes, and — the router being an ideal hash — balanced to
    /// within sampling noise under uniform keys.
    #[test]
    fn routing_is_total_stable_across_reopen_and_balanced() {
        use dxh_hashfn::SplitMix64;
        let env = SimEnv::new();
        let svc = sim_service(&env, 8, 9);
        let mut rng = SplitMix64::new(5);
        let keys: Vec<u64> = (0..16_000).map(|_| rng.next_u64() >> 1).collect();
        let routed: Vec<usize> = keys.iter().map(|&k| svc.shard_of(k)).collect();
        let mut sizes = [0usize; 8];
        for &si in &routed {
            sizes[si] += 1; // total: an index out of range panics here
        }
        let expect = keys.len() as f64 / 8.0;
        for (i, &sz) in sizes.iter().enumerate() {
            let off = (sz as f64 - expect).abs();
            assert!(off < 6.0 * expect.sqrt(), "shard {i} owns {sz} keys, expected ≈ {expect}");
        }
        drop(svc);
        let svc = sim_service(&env, 8, 1234); // the persisted seed wins
        let again: Vec<usize> = keys.iter().map(|&k| svc.shard_of(k)).collect();
        assert_eq!(again, routed);
    }

    #[test]
    fn single_threaded_round_trip_and_reopen() {
        let env = SimEnv::new();
        let svc = sim_service(&env, 4, 11);
        for k in 0..600u64 {
            svc.put(k, k * 3).unwrap();
        }
        for k in (0..600u64).step_by(3) {
            assert!(svc.delete(k).unwrap(), "key {k}");
        }
        assert!(!svc.delete(999_999).unwrap(), "absent key is a miss");
        for k in 0..600u64 {
            let expect = (k % 3 != 0).then_some(k * 3);
            assert_eq!(svc.get(k).unwrap(), expect, "key {k}");
        }
        let stats = svc.stats();
        assert!(stats.sync_rounds > 0, "acks ride completed sync rounds");
        assert_eq!(stats.wedged_shards, 0);
        drop(svc);
        let svc = sim_service(&env, 4, 11);
        for k in 0..600u64 {
            let expect = (k % 3 != 0).then_some(k * 3);
            assert_eq!(svc.get(k).unwrap(), expect, "key {k} after reopen");
        }
    }

    #[test]
    fn submit_pipelines_many_ops_in_one_park() {
        let env = SimEnv::new();
        let svc = sim_service(&env, 2, 12);
        let ops: Vec<WriteOp> = (0..200u64).map(|k| WriteOp::Put(k, k + 1)).collect();
        let answers = svc.submit(&ops).unwrap();
        assert!(answers.iter().all(|&a| a));
        let stats = svc.stats();
        assert_eq!(stats.committed_ops, 200);
        // One batch per involved shard: at most 2 (typically 2 — one per
        // shard), never 200.
        assert!(stats.committed_batches <= 2, "batches: {}", stats.committed_batches);
        assert!(stats.largest_batch >= 50, "batch size: {}", stats.largest_batch);
        assert!(stats.syncs_per_op() < 0.05, "syncs/op: {}", stats.syncs_per_op());
        // The coalesced commit: both shards' batches rode at most 2 log
        // rounds (1 when both were dirty before the first round fired),
        // and no per-shard manifest harden was needed — a round costs
        // one shared log sync, not one sync per shard.
        assert!(stats.sync_rounds <= 2, "rounds: {}", stats.sync_rounds);
        assert_eq!(stats.shard_syncs, 0, "no checkpoint round was due");
        let dels: Vec<WriteOp> = (0..100u64).map(WriteOp::Delete).collect();
        let answers = svc.submit(&dels).unwrap();
        assert!(answers.iter().all(|&a| a), "all targeted keys were live");
        for k in 0..200u64 {
            assert_eq!(svc.get(k).unwrap(), (k >= 100).then_some(k + 1));
        }
    }

    /// The overlay answers for accepted-but-uncommitted writes with zero
    /// I/O from both of its halves while the committer is stalled
    /// mid-batch (here: blocked behind `with_shard` holding the store
    /// lock): first from the applying batch's fold, then, for a slice
    /// enqueued behind it, from `pending`. A key written twice reads as
    /// its newer write, in either order.
    #[test]
    fn read_your_writes_hits_the_pending_overlay() {
        let env = SimEnv::new();
        let svc = sim_service(&env, 1, 13);
        let shard = &svc.shards[0];
        svc.put(1, 10).unwrap();
        let locked = AtomicBool::new(false);
        let release = AtomicBool::new(false);
        let writes = |ops: &[WriteOp]| ops.iter().map(|&op| op.effect()).collect();
        // Read inside the stall, assert after it: a failed assert in the
        // scope would leave the helper holding the store lock forever.
        let (applying, pending) = dxh_sync::thread::scope(|scope| {
            scope.spawn(|| {
                // Stall the shard's committer: it cannot apply (or
                // harden) anything while the store lock is held here.
                svc.with_shard(0, |_| {
                    locked.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        dxh_sync::thread::yield_now();
                    }
                });
            });
            while !locked.load(Ordering::SeqCst) {
                dxh_sync::thread::yield_now();
            }
            // Reads of `keys`: the queue length they saw, their answers
            // and their I/O.
            let read = |keys: [Key; 4]| {
                let ios = env.ops();
                let queued = shard.buf.lock().pending.len();
                let got = keys.map(|k| svc.get(k).unwrap());
                (queued, got, env.ops() - ios)
            };
            // Enqueue without driving: accepted, not yet durable. The
            // committer drains the slice and stalls applying it.
            use WriteOp::{Delete, Put};
            let first = [Put(2, 20), Delete(1), Put(4, 40), Delete(4), Delete(5), Put(5, 50)];
            let _ticket = svc.enqueue_batch(0, writes(&first)).unwrap();
            while !shard.buf.lock().applying() {
                dxh_sync::thread::yield_now();
            }
            let applying = read([2, 1, 4, 5]);
            // A second slice waits in `pending` behind the stalled apply.
            let second = [Put(2, 21), Delete(5), Put(6, 60)];
            let _ticket = svc.enqueue_batch(0, writes(&second)).unwrap();
            let pending = read([2, 5, 6, 4]);
            release.store(true, Ordering::SeqCst);
            (applying, pending)
        });
        // From the fold, at zero I/O — 2: a put; 1: a delete; 4: put then
        // delete reads the delete; 5: delete then put reads the put.
        assert_eq!(applying, (0, [Some(20), None, None, Some(50)], 0), "the applying fold");
        // From `pending`, which shadows the fold (2, 5), at zero I/O; 4
        // falls through to the fold.
        assert_eq!(pending, (3, [Some(21), None, Some(60), None], 0), "pending");
        // The committer drains the stragglers; a driven put fences them.
        svc.put(3, 30).unwrap();
        for (k, v) in [(1, None), (2, Some(21)), (4, None), (5, None), (6, Some(60))] {
            assert_eq!(svc.get(k).unwrap(), v, "key {k}");
        }
        let stats = svc.stats();
        assert_eq!(stats.committed_ops, 11, "every enqueued op committed");
        assert!(stats.largest_batch >= 6, "each enqueued slice stayed one batch");
    }

    /// A batch with several ops per key answers each op from the table
    /// call that applied it, in arrival order — exactly serial
    /// application — while its commit-log record holds the newest-wins
    /// fold, one effect per key.
    #[test]
    fn coalesced_batch_answers_match_serial_application() {
        let env = SimEnv::new();
        let svc = sim_service(&env, 1, 21);
        svc.put(3, 7).unwrap(); // present before the batch
        let ops = [
            WriteOp::Put(1, 10),
            WriteOp::Delete(1), // present: the put above it
            WriteOp::Put(1, 20),
            WriteOp::Delete(2), // absent: never written
            WriteOp::Put(2, 5),
            WriteOp::Delete(1), // present: put(1, 20)
            WriteOp::Delete(3), // present before the batch
            WriteOp::Put(3, 9),
        ];
        let answers = svc.submit(&ops).unwrap();
        assert_eq!(
            answers,
            vec![true, true, true, false, true, true, true, true],
            "answers are serial presence"
        );
        assert_eq!(svc.get(1).unwrap(), None, "newest effect wins");
        assert_eq!(svc.get(2).unwrap(), Some(5));
        assert_eq!(svc.get(3).unwrap(), Some(9));
        let stats = svc.stats();
        // 8 ops over 3 distinct keys: 5 ops folded out of the log record.
        assert_eq!(stats.coalesced_ops, 5, "coalesced: {}", stats.coalesced_ops);
        assert_eq!(stats.committed_ops, 9, "user ops counted unfolded");
        // The fold survives the crash/replay path too: replay is
        // last-write-wins.
        drop(svc);
        let svc = sim_service(&env, 1, 21);
        assert_eq!(svc.get(1).unwrap(), None);
        assert_eq!(svc.get(2).unwrap(), Some(5));
        assert_eq!(svc.get(3).unwrap(), Some(9));
    }

    #[test]
    fn reserved_sentinels_rejected_before_enqueue() {
        let env = SimEnv::new();
        let svc = sim_service(&env, 2, 14);
        assert!(svc.put(u64::MAX, 1).is_err());
        assert!(svc.put(1, u64::MAX).is_err());
        assert!(svc.delete(u64::MAX).is_err());
        let stats = svc.stats();
        assert_eq!(stats.committed_ops, 0, "nothing was enqueued");
        assert_eq!(stats.wedged_shards, 0, "validation errors never wedge");
    }

    #[test]
    fn failed_group_commit_wedges_only_that_shard() {
        let env = SimEnv::new();
        let svc = sim_service(&env, 2, 15);
        // Find keys for both shards.
        let k0 = (0..).find(|&k| svc.shard_of(k) == 0).unwrap();
        let k1 = (0..).find(|&k| svc.shard_of(k) == 1).unwrap();
        svc.put(k0, 1).unwrap();
        svc.put(k1, 1).unwrap();
        // One transient fault at the next I/O: committing k0's second
        // put fails (at apply or at the round harden) and wedges shard 0.
        env.set_plan(FaultPlan { fail_at: vec![env.ops()], ..Default::default() });
        let err = svc.put(k0, 2).unwrap_err();
        assert!(err.to_string().contains("wedged"), "got: {err}");
        // The fault was one-shot — the device healed — but the shard
        // must stay wedged: its table may hold an uncommitted batch.
        assert!(svc.put(k0, 3).is_err(), "wedged shard rejects writes");
        assert!(svc.get(k0).is_err(), "wedged shard rejects reads");
        assert_eq!(svc.stats().wedged_shards, 1);
        // The sibling shard is untouched.
        svc.put(k1, 2).unwrap();
        assert_eq!(svc.get(k1).unwrap(), Some(2));
        drop(svc); // the poisoned shard's drop must not commit anything
        let svc = sim_service(&env, 2, 15);
        assert_eq!(svc.get(k0).unwrap(), Some(1), "shard 0 recovered to its last batch");
        assert_eq!(svc.get(k1).unwrap(), Some(2));
    }

    /// A failed log round wedges a shard from the coordinator's thread,
    /// and may do so while the committer is mid-apply. Its writer must
    /// still get the error instead of parking forever: the batch sits in
    /// `batches` from its drain, where `wedge` fails it. The interleaving
    /// is forced: a helper thread holds the store lock the apply needs
    /// until the shard is wedged.
    #[test]
    fn a_shard_wedged_mid_apply_still_answers_that_batch() {
        use std::sync::mpsc::channel;
        let env = SimEnv::new();
        let svc = sim_service(&env, 1, 19);
        let (svc, shard) = (&svc, &svc.shards[0]);
        let (held_tx, held_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let (answer_tx, answer_rx) = channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _store = shard.store.lock();
                held_tx.send(()).unwrap();
                let _ = release_rx.recv();
            });
            held_rx.recv().unwrap();
            scope.spawn(move || answer_tx.send(svc.put(1, 1)).unwrap());
            while !shard.buf.lock().applying() {
                std::thread::yield_now();
            }
            wedge(shard, "log round failed".into());
            release_tx.send(()).unwrap();
            let answered = answer_rx.recv_timeout(std::time::Duration::from_secs(20));
            if answered.is_err() {
                wedge(shard, "unpark the stranded writer".into());
            }
            let answer = answered.expect("the writer of the mid-apply batch was never answered");
            assert!(answer.unwrap_err().to_string().contains("log round failed"));
        });
        assert_eq!(svc.stats().wedged_shards, 1);
    }

    /// A committer that dies mid-apply leaves half its batch in the
    /// table. The store is poisoned before its lock is let go, so the
    /// writer gets the wedge error and neither a checkpoint nor the
    /// drop-time sync commits the half: the reopen serves neither op.
    #[test]
    fn a_batch_whose_committer_died_mid_apply_is_never_half_durable() {
        let env = SimEnv::new();
        mutant::COMMITTER_PANICS.set(true);
        let svc = sim_service(&env, 1, 46);
        mutant::COMMITTER_PANICS.set(false);
        let err = svc.submit(&[WriteOp::Put(1, 10), WriteOp::Put(2, 20)]).unwrap_err();
        assert!(err.to_string().contains("committer thread panicked"), "{err}");
        drop(svc);
        let svc = sim_service(&env, 1, 46);
        assert_eq!((svc.get(1).unwrap(), svc.get(2).unwrap()), (None, None));
    }

    /// Ops enqueued but never driven still commit durably through the
    /// drop-time drain-then-sync handshake — no op is lost.
    #[test]
    fn drop_drains_and_commits_enqueued_ops() {
        let env = SimEnv::new();
        let svc = sim_service(&env, 2, 19);
        svc.put(100, 1).unwrap();
        let mut tickets = Vec::new();
        for k in 0..40u64 {
            let put = vec![WriteOp::Put(k, k + 7).effect()];
            tickets.push(svc.enqueue_batch(svc.shard_of(k), put).unwrap());
        }
        drop(svc); // join: drain, apply, final harden per shard
        let svc = sim_service(&env, 2, 19);
        for k in 0..40u64 {
            assert_eq!(svc.get(k).unwrap(), Some(k + 7), "key {k} survived the drop drain");
        }
        assert_eq!(svc.get(100).unwrap(), Some(1));
    }

    /// A tiny checkpoint threshold makes every few rounds a checkpoint:
    /// every shard hardens, then the log is emptied. The folded state
    /// survives reopen (replay skips already-checkpointed records via
    /// the watermark).
    #[test]
    fn checkpoints_harden_every_shard_and_survive_reopen() {
        let env = SimEnv::new();
        let svc = sim_service(&env, 4, 24);
        svc.set_checkpoint_log_bytes(128);
        for k in 0..800u64 {
            svc.put(k, k + 1).unwrap();
        }
        let stats = svc.stats();
        assert!(stats.sealed_discards >= 1, "{stats:?}");
        assert!(stats.shard_syncs >= 4 * stats.sealed_discards, "{stats:?}");
        drop(svc);
        let svc = sim_service(&env, 4, 24);
        for k in 0..800u64 {
            assert_eq!(svc.get(k).unwrap(), Some(k + 1), "key {k} after checkpoints");
        }
    }

    /// A checkpoint commit is O(log n), not O(table): quadrupling the
    /// keys written (and with them the table every checkpoint hardens)
    /// leaves the average checkpoint manifest commit flat.
    #[test]
    fn checkpoint_commit_bytes_do_not_scale_with_the_table() {
        let checkpoint_commits = |keys: u64| {
            let env = SimEnv::new();
            let svc = sim_service(&env, 2, 27);
            svc.set_checkpoint_log_bytes(192);
            for k in 0..keys {
                svc.put(k, k + 1).unwrap();
            }
            let stats = svc.stats();
            assert!(stats.manifest_delta_commits >= 2, "{stats:?}");
            (
                stats.manifest_delta_commits,
                stats.manifest_delta_bytes / stats.manifest_delta_commits,
            )
        };
        let (small, small_avg) = checkpoint_commits(200);
        let (big, big_avg) = checkpoint_commits(800);
        assert!(big > small, "{big} checkpoint commits for 4x the keys, {small} before");
        assert!(
            big_avg <= small_avg * 2,
            "average checkpoint commit grew with the table: {small_avg} B -> {big_avg} B"
        );
    }

    /// A wedged shard stops checkpoints: its acknowledged batches may
    /// exist nowhere but in the log, so no round past the threshold
    /// hardens anything or empties the log — and none pays a harden per
    /// shard for nothing.
    #[test]
    fn a_wedged_shard_adds_no_harden_to_any_later_round() {
        let env = SimEnv::new();
        let svc = sim_service(&env, 2, 44);
        let k0 = (0..).find(|&k| svc.shard_of(k) == 0).unwrap();
        let k1 = (0..).find(|&k| svc.shard_of(k) == 1).unwrap();
        svc.put(k0, 1).unwrap();
        env.set_plan(FaultPlan { fail_at: vec![env.ops()], ..Default::default() });
        assert!(svc.put(k0, 2).is_err(), "the injected fault wedges shard 0");
        svc.set_checkpoint_log_bytes(1);
        let log_len = || env.read_file("COMMITLOG").unwrap().unwrap().len();
        let (before, logged) = (svc.stats(), log_len());
        for v in 0..20 {
            svc.put(k1, v).unwrap(); // a 45-byte record, each in a round of its own
        }
        let after = svc.stats();
        assert_eq!(log_len(), logged + 20 * 45, "every round past the threshold kept the log");
        assert_eq!(after.shard_syncs, before.shard_syncs, "{after:?}");
        assert_eq!(after.sealed_discards, before.sealed_discards, "{after:?}");
        drop(svc);
        let svc = sim_service(&env, 2, 44);
        assert_eq!(svc.get(k0).unwrap(), Some(1));
        assert_eq!(svc.get(k1).unwrap(), Some(19));
    }

    #[test]
    fn shard_count_mismatch_rejected_on_reopen() {
        let env = SimEnv::new();
        drop(sim_service(&env, 4, 16));
        let err = match ShardedKvStore::open_on(SimMedia::unlocked(&env), 3, cfg(), 16) {
            Err(e) => e,
            Ok(_) => panic!("shard-count mismatch must be rejected"),
        };
        assert!(err.to_string().contains("4 shards"), "got: {err}");
        // The persisted routing seed wins over the caller's.
        let svc = ShardedKvStore::open_on(SimMedia::unlocked(&env), 4, cfg(), 999).unwrap();
        svc.put(5, 50).unwrap();
        assert_eq!(svc.get(5).unwrap(), Some(50));
    }

    #[test]
    fn zero_and_implausible_shard_counts_rejected() {
        let env = SimEnv::new();
        assert!(ShardedKvStore::open_on(SimMedia::unlocked(&env), 0, cfg(), 1).is_err());
        assert!(ShardedKvStore::open_on(SimMedia::unlocked(&env), 4096, cfg(), 1).is_err());
    }

    #[test]
    fn double_open_fails_fast_per_shard_lock() {
        let env = SimEnv::new();
        let svc = sim_service(&env, 2, 17);
        let err = match ShardedKvStore::open_on(SimMedia::unlocked(&env), 2, cfg(), 17) {
            Err(e) => e,
            Ok(_) => panic!("second live service handle must fail"),
        };
        assert!(err.to_string().contains("locked"), "got: {err}");
        drop(svc);
        drop(sim_service(&env, 2, 17)); // released with the handle
    }

    #[test]
    fn batch_recording_captures_composition() {
        let env = SimEnv::new();
        let svc = sim_service(&env, 1, 18);
        svc.set_batch_recording(true);
        svc.put(1, 10).unwrap();
        svc.submit(&[WriteOp::Put(2, 20), WriteOp::Delete(1)]).unwrap();
        let history = svc.batch_history();
        assert_eq!(history.len(), 1);
        let h = &history[0];
        assert_eq!(h.committed.len(), 2, "two group commits ran");
        assert_eq!(h.committed[0].ops, vec![(1, Some(Effect::Word(10)))]);
        assert_eq!(h.committed[1].ops, vec![(2, Some(Effect::Word(20))), (1, None)]);
        assert!(h.inflight.is_empty(), "no commit was interrupted");
        svc.set_batch_recording(false);
        svc.put(3, 30).unwrap();
        assert!(svc.batch_history()[0].committed.is_empty(), "toggling clears history");
    }

    #[test]
    fn payload_service_round_trips_bytes_and_survives_reopen() {
        let env = SimEnv::new();
        let payload = |k: u64| -> Vec<u8> {
            (0..1 + (k as usize * 5) % 60).map(|i| (k as u8).wrapping_add(i as u8)).collect()
        };
        let svc = ShardedKvStore::open_payload_on(SimMedia::unlocked(&env), 2, cfg(), 31).unwrap();
        for k in 0..120u64 {
            svc.put_bytes(k, &payload(k)).unwrap();
        }
        // Word APIs interoperate: a word is an 8-byte payload, and the
        // full word domain — including the raw path's reserved value —
        // is storable (the deletion marker is out-of-band here).
        svc.put(500, u64::MAX).unwrap();
        assert_eq!(svc.get(500).unwrap(), Some(u64::MAX));
        assert_eq!(svc.get_bytes(500).unwrap().as_deref(), Some(&u64::MAX.to_le_bytes()[..]));
        assert!(svc.delete(5).unwrap());
        assert_eq!(svc.get_bytes(5).unwrap(), None);
        drop(svc);
        // Acknowledged byte writes are durable: the reopen replays any
        // commit-log records (tag-2 framed payloads included) over the
        // shard manifests.
        let svc = ShardedKvStore::open_payload_on(SimMedia::unlocked(&env), 2, cfg(), 31).unwrap();
        for k in 0..120u64 {
            let expect = (k != 5).then(|| payload(k));
            assert_eq!(svc.get_bytes(k).unwrap(), expect, "key {k} after reopen");
        }
        assert_eq!(svc.get(500).unwrap(), Some(u64::MAX));
    }

    /// The cost of applying every op: a payload key put twice in one
    /// batch appends both payloads to the blob log, and the older one is
    /// dead weight until a compaction. The newest is what is served —
    /// live, after a crash whose reopen replays the batch's log record
    /// (the fold: one payload), and after the compaction that drops the
    /// dead record.
    #[test]
    fn a_payload_key_put_twice_in_one_batch_serves_the_newest_across_reopen_and_compact() {
        let env = SimEnv::new();
        let open = || ShardedKvStore::open_payload_on(SimMedia::unlocked(&env), 1, cfg(), 35);
        let blob_len = |svc: &ShardedKvStore<SimMedia>| svc.with_shard(0, |s| s.blob_len());
        let (old, new) = (b"old payload".to_vec(), b"new payload".to_vec());
        let svc = open().unwrap();
        let empty = blob_len(&svc);
        svc.put_bytes(1, &old).unwrap();
        let record = blob_len(&svc) - empty;
        let put = |b: &[u8]| (7, Some(Effect::Bytes(Arc::from(b))));
        let twice = vec![put(&old), put(&new)];
        let ticket = svc.enqueue_batch(0, twice).unwrap();
        assert_eq!(svc.drive(0, &ticket).unwrap(), vec![true, true]);
        assert_eq!(blob_len(&svc) - empty, 3 * record, "both puts of key 7 were appended");
        assert_eq!(svc.get_bytes(7).unwrap(), Some(new.clone()), "live");
        env.set_plan(FaultPlan::crash(env.ops(), 35));
        drop(svc);
        env.power_cycle();
        let svc = open().unwrap();
        assert_eq!(svc.get_bytes(7).unwrap(), Some(new.clone()), "after the crash-reopen");
        assert_eq!(svc.get_bytes(1).unwrap(), Some(old.clone()));
        svc.with_shard(0, |s| s.compact()).unwrap();
        assert_eq!(blob_len(&svc), 2 * record, "the compaction kept one record per live key");
        assert_eq!(svc.get_bytes(7).unwrap(), Some(new), "after the compaction");
        assert_eq!(svc.get_bytes(1).unwrap(), Some(old));
    }

    #[test]
    fn payload_mode_is_a_service_property_checked_at_reopen() {
        let env = SimEnv::new();
        drop(ShardedKvStore::open_payload_on(SimMedia::unlocked(&env), 2, cfg(), 32).unwrap());
        let err = match ShardedKvStore::open_on(SimMedia::unlocked(&env), 2, cfg(), 32) {
            Err(e) => e,
            Ok(_) => panic!("raw open of a payload service must fail"),
        };
        assert!(err.to_string().contains("payload mode"), "got: {err}");
        let env = SimEnv::new();
        drop(sim_service(&env, 2, 33));
        let err = match ShardedKvStore::open_payload_on(SimMedia::unlocked(&env), 2, cfg(), 33) {
            Err(e) => e,
            Ok(_) => panic!("payload open of a raw service must fail"),
        };
        assert!(err.to_string().contains("raw word mode"), "got: {err}");
        // Byte APIs on a raw service are immediate per-call errors.
        let svc = sim_service(&env, 2, 33);
        assert!(svc.put_bytes(1, b"x").is_err());
        assert!(svc.get_bytes(1).is_err());
    }

    #[test]
    fn clean_checkpoints_count_their_emptied_logs() {
        let env = SimEnv::new();
        let svc = sim_service(&env, 2, 34);
        svc.set_checkpoint_log_bytes(128);
        for k in 0..400u64 {
            svc.put(k, k).unwrap();
        }
        let stats = svc.stats();
        assert!(
            stats.sealed_discards >= 1,
            "tiny threshold forces checkpoints, each ending in a counted truncate: {stats:?}"
        );
        assert_eq!(stats.sealed_discard_failures, 0, "fault-free run: no failed truncates");
    }

    #[test]
    fn service_meta_parses_and_rejects() {
        let m = parse_service_meta("dxh-service v1\nshards 8\nseed 42\n").unwrap();
        assert_eq!((m.shards, m.seed, m.payloads), (8, 42, false));
        let m = parse_service_meta("dxh-service v1\nshards 8\nseed 42\npayloads 1\n").unwrap();
        assert!(m.payloads);
        assert!(parse_service_meta("nope\n").is_err());
        assert!(parse_service_meta("dxh-service v1\nshards 0\nseed 1\n").is_err());
        assert!(parse_service_meta("dxh-service v1\nshards 2\n").is_err());
    }

    /// The service parser's verdicts on `bytes`, read as an open reads
    /// them (`read_text`: not UTF-8 is `Corrupt`): `Ok` or `Corrupt`.
    fn service_verdict(bytes: &[u8]) -> std::result::Result<bool, String> {
        let Ok(text) = std::str::from_utf8(bytes) else { return Ok(false) };
        match parse_service_meta(text) {
            Ok(_) => Ok(true),
            Err(ExtMemError::Corrupt(_)) => Ok(false),
            Err(e) => Err(format!("{e:?}")),
        }
    }

    proptest::proptest! {
        /// `parse_service_meta` is total: on any string — arbitrary
        /// characters alone or after a valid text, or lines of its own
        /// keys over boundary tokens after its magic — it answers `Ok` or
        /// `Corrupt`, and never panics.
        #[test]
        fn the_service_parser_answers_any_string_ok_or_corrupt(
            chars in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..96),
            lines in proptest::collection::vec(
                (0usize..6, proptest::collection::vec(0usize..12, 0..4)),
                0..6,
            ),
        ) {
            // Mostly ASCII, the rest anywhere in the code space.
            let noise: String = chars
                .iter()
                .map(|&c| if c % 4 == 0 { c >> 2 } else { c % 128 })
                .map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
                .collect();
            let valid = format!("{SERVICE_MAGIC}\nshards 8\nseed 42\n");
            let keys = [SERVICE_MAGIC, "shards", "seed", "payloads", "x", ""];
            let tokens = [
                "0", "1", "8", "1024", "18446744073709551615", "18446744073709551616", "-1",
                "+3", "nan", " ", "\t", "\u{0}",
            ];
            let built: Vec<String> = lines
                .iter()
                .map(|(k, picks)| {
                    std::iter::once(keys[*k])
                        .chain(picks.iter().map(|&t| tokens[t]))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            let built = format!("{SERVICE_MAGIC}\n{}", built.join("\n"));
            for text in [noise.clone(), format!("{valid}{noise}"), built] {
                let verdict = service_verdict(text.as_bytes());
                proptest::prop_assert!(verdict.is_ok(), "{text:?}: {verdict:?}");
            }
        }
    }

    /// Every single-byte change of a valid `SERVICE` text — each offset
    /// set to each of the other 255 values — is answered `Ok` or
    /// `Corrupt`, never a panic.
    #[test]
    fn every_byte_flip_of_a_service_text_is_ok_or_corrupt() {
        let valid = format!("{SERVICE_MAGIC}\nshards 8\nseed 42\npayloads 1\n");
        let (mut ok, mut corrupt) = (0, 0);
        for at in 0..valid.len() {
            for byte in (0..=u8::MAX).filter(|&b| b != valid.as_bytes()[at]) {
                let mut bytes = valid.clone().into_bytes();
                bytes[at] = byte;
                match service_verdict(&bytes) {
                    Ok(true) => ok += 1,
                    Ok(false) => corrupt += 1,
                    Err(e) => panic!("offset {at} byte {byte:#04x}: {e}"),
                }
            }
        }
        assert_eq!(ok + corrupt, valid.len() * 255);
        assert!(ok > 0 && corrupt > 0, "{ok} ok, {corrupt} corrupt");
    }
}

/// The model checker on the real service (`cargo test -p dxh-core
/// --features model`): `ShardedKvStore` on `SimMedia`, whose committers,
/// coordinator and callers all run as tasks of one
/// `dxh_sync::model::Checker` execution, so every lock, wait and notify
/// of this file is a scheduling point the checker chooses. One instance
/// is 2 shards, 2 writers and a reader, then a drop, a power cycle and a
/// reopen — with the simulated machine crashed at a given I/O index, or
/// not at all. The crash index is a parameter of the instance, not a
/// scheduler decision: a sweep runs the checker once per index, and a
/// violation replays with `Checker::replay(trace, instance(.., Some(k),
/// ..))`.
#[cfg(all(test, feature = "model"))]
mod model_tests {
    use super::*;
    use crate::SimMedia;
    use dxh_extmem::{FaultPlan, IoEvent, SimEnv};
    use dxh_sync::model::{Checker, Report, Violation, ViolationKind};
    use mutant::Switch;
    use std::collections::{BTreeMap, HashSet};
    use std::sync::atomic::{AtomicU64, Ordering};

    const SEED: u64 = 42;
    const SHARDS: usize = 2;
    /// The checkpointing variant's log threshold: a one-op batch logs 45
    /// bytes, so a checkpoint follows every second round and swept
    /// crashes land inside hardens.
    const CKPT_LOG_BYTES: u64 = 64;
    /// Random walks per crash index in the PR gate.
    const WALKS: u64 = 60;

    /// Writer A's key, on shard `sa`, then writer B's two keys, on shard
    /// `sb`.
    fn keys(sa: usize, sb: usize) -> [Key; 3] {
        let router = shard_router(SEED);
        let on = |s, nth| (0..).filter(|&k| shard_of_key(&router, SHARDS, k) == s).nth(nth);
        let skip = usize::from(sa == sb);
        [on(sa, 0), on(sb, skip), on(sb, skip + 1)].map(Option::unwrap)
    }

    /// Each writer's calls, in order: A puts `a` and deletes it twice; B
    /// puts `b` and `c` in one call — one shard, so one batch, all-in or
    /// all-out — then puts `b` again.
    fn calls([a, b, c]: [Key; 3]) -> [Vec<Vec<WriteOp>>; 2] {
        use WriteOp::{Delete, Put};
        [
            vec![vec![Put(a, 1)], vec![Delete(a)], vec![Delete(a)]],
            vec![vec![Put(b, 1), Put(c, 1)], vec![Put(b, 2)]],
        ]
    }

    fn open(env: &SimEnv, ckpt: bool) -> Result<ShardedKvStore<SimMedia>> {
        let cfg = CoreConfig::lemma5(8, 128, 2).unwrap();
        let svc = ShardedKvStore::open_on(SimMedia::unlocked(env), SHARDS, cfg, SEED)?;
        if ckpt {
            svc.set_checkpoint_log_bytes(CKPT_LOG_BYTES);
        }
        Ok(svc)
    }

    fn arm(switches: &[Switch]) {
        for s in switches {
            s.set(true);
        }
    }

    /// Passes `Ok` through. An error is the crash once the machine is
    /// down, and a violation before.
    fn up<T>(env: &SimEnv, crash_at: Option<u64>, result: Result<T>) -> Option<T> {
        match result {
            Ok(v) => Some(v),
            Err(_) if env.crashed() => None,
            Err(e) => panic!("crash at {crash_at:?}: a call failed with the machine up: {e}"),
        }
    }

    /// One writer's `calls`, each answer checked against serial
    /// application (the writer's keys are its own), up to the first
    /// failed call. Returns every op it submitted, each with whether its
    /// call was acknowledged.
    fn write(
        svc: &ShardedKvStore<SimMedia>,
        env: &SimEnv,
        crash_at: Option<u64>,
        calls: &[Vec<WriteOp>],
    ) -> Vec<(WriteOp, bool)> {
        let mut live = HashSet::new();
        let mut sent = Vec::new();
        for call in calls {
            let answers = up(env, crash_at, svc.submit(call));
            sent.extend(call.iter().map(|&op| (op, answers.is_some())));
            let Some(answers) = answers else { break };
            for (op, answer) in call.iter().zip(answers) {
                let serial = match *op {
                    WriteOp::Put(k, _) => {
                        live.insert(k);
                        true
                    }
                    WriteOp::Delete(k) => live.remove(&k),
                };
                assert_eq!(answer, serial, "crash at {crash_at:?}: {op:?} answered out of order");
            }
        }
        sent
    }

    /// Writers A and B make their `calls` while the instance's own task
    /// reads `b` twice; then the service is dropped, the machine power
    /// cycled and the service reopened. `crash_at = Some(k)` takes the
    /// machine down at I/O `k`. Asserts, on every schedule: each call
    /// returns, failing only once the machine is down, with serial
    /// answers; a reader that saw a version of `b` never sees an older
    /// one afterwards (the overlay's job while a batch applies); a close the crash
    /// spared leaves `COMMITLOG` empty; each shard reopens at a batch
    /// boundary — its committed batches plus a prefix of its in-flight
    /// ones, each wholly present or wholly absent; each key holds its
    /// last acknowledged write or a later one; and the lifecycle's I/O
    /// trace keeps every durability rule. Every task arms `switches`
    /// first — the service threads inherit them.
    fn instance(
        keys: [Key; 3],
        ckpt: bool,
        crash_at: Option<u64>,
        switches: &'static [Switch],
    ) -> impl Fn() + Send + Sync + 'static {
        move || {
            arm(switches);
            let env = SimEnv::new();
            if let Some(k) = crash_at {
                env.set_plan(FaultPlan::crash(k, SEED ^ k.rotate_left(17)));
            }
            let mut history = vec![ShardBatchHistory::default(); SHARDS];
            let mut sent = Vec::new();
            if let Some(svc) = up(&env, crash_at, open(&env, ckpt)) {
                svc.set_batch_recording(true);
                let (svc, env) = (&svc, &env);
                sent = dxh_sync::thread::scope(|s| {
                    let writers = calls(keys).map(|calls| {
                        s.spawn(move || {
                            arm(switches);
                            write(svc, env, crash_at, &calls)
                        })
                    });
                    let seen = up(env, crash_at, svc.get(keys[1]));
                    let then = up(env, crash_at, svc.get(keys[1]));
                    if let (Some(seen), Some(then)) = (seen, then) {
                        assert!(
                            then >= seen,
                            "crash at {crash_at:?}: read b = {seen:?}, then {then:?}"
                        );
                    }
                    writers.into_iter().flat_map(|w| w.join().expect("writer panicked")).collect()
                });
                history = svc.batch_history();
            }
            if !env.crashed() {
                let log = env.file_len("COMMITLOG");
                assert_eq!(log, 0, "crash at {crash_at:?} never fired, yet the close left a log");
            }
            env.power_cycle();
            let svc = open(&env, ckpt).unwrap_or_else(|e| panic!("crash at {crash_at:?}: {e}"));
            let got: BTreeMap<Key, Option<Effect>> = keys
                .iter()
                .map(|&k| {
                    let v = svc.get(k).unwrap_or_else(|e| panic!("crash at {crash_at:?}: {e}"));
                    (k, v.map(Effect::Word))
                })
                .collect();
            for (si, h) in history.iter().enumerate() {
                let on_shard: Vec<Key> =
                    keys.into_iter().filter(|&k| svc.shard_of(k) == si).collect();
                let held = |fold: &HashMap<Key, Option<Effect>>| {
                    on_shard.iter().all(|k| got[k] == fold.get(k).cloned().flatten())
                };
                let mut fold: HashMap<Key, Option<Effect>> =
                    h.committed.iter().flat_map(|b| b.ops.clone()).collect();
                let boundary = held(&fold)
                    || h.inflight.iter().any(|b| {
                        fold.extend(b.ops.clone());
                        held(&fold)
                    });
                assert!(
                    boundary,
                    "crash at {crash_at:?}: shard {si} reopened as {got:?}, at no batch boundary of {h:?}"
                );
            }
            for key in keys {
                let ops: Vec<(Option<Effect>, bool)> = sent
                    .iter()
                    .filter_map(|&(op, acked)| {
                        let (k, effect) = op.effect();
                        (k == key).then_some((effect, acked))
                    })
                    .collect();
                let last_ack = ops.iter().rposition(|&(_, acked)| acked);
                let mut allowed: Vec<Option<Effect>> =
                    ops[last_ack.unwrap_or(0)..].iter().map(|(e, _)| e.clone()).collect();
                if last_ack.is_none() {
                    allowed.push(None);
                }
                assert!(
                    allowed.contains(&got[&key]),
                    "crash at {crash_at:?}: key {key} reopened as {:?}, lost its acknowledged \
                     write: {ops:?}",
                    got[&key]
                );
            }
            drop(svc);
            let broken = dxh_dura::check_trace(&env.take_trace());
            assert!(broken.is_empty(), "crash at {crash_at:?}: {broken:?}");
        }
    }

    /// One put against a committer that dies mid-apply
    /// (`COMMITTER_PANICS`) holding the store lock: the put must fail,
    /// not park forever, and the drop must return. The store lock is
    /// taken once more afterwards, so the poison the death left on it
    /// is observed.
    fn panicking_committer(switches: &'static [Switch]) -> impl Fn() + Send + Sync + 'static {
        move || {
            arm(switches);
            let env = SimEnv::new();
            let svc = open(&env, false).unwrap();
            let err = svc.put(1, 1).unwrap_err();
            assert!(err.to_string().contains("committer thread panicked"), "{err}");
            svc.len();
            drop(svc);
        }
    }

    /// I/Os of one crash-free lifecycle, from the open to the end of the
    /// close, with the writers' calls made one after another — each its
    /// own batch and round: the window a sweep crashes at every index
    /// of. It runs on the checker's first schedule, so the window is the
    /// same on every run. Every harden of a shard holding a key images
    /// its `H0` (three keys never fill one, so nothing migrates and each
    /// level file created is an image): the window crosses image writes,
    /// the checkpointing one inside checkpoints before the close's.
    fn lifecycle_ios(keys: [Key; 3], ckpt: bool) -> u64 {
        let ios = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let out = Arc::clone(&ios);
        let serial = move || {
            let env = SimEnv::new();
            let svc = open(&env, ckpt).unwrap();
            for calls in calls(keys) {
                write(&svc, &env, None, &calls);
            }
            let images = |env: &SimEnv| {
                let created = |e: &IoEvent| match e {
                    IoEvent::Meta { label, .. } => {
                        label.starts_with("file-create ") && label.ends_with(".blk")
                    }
                    _ => false,
                };
                env.take_trace().iter().filter(|e| created(e)).count() as u64
            };
            let before_close = images(&env);
            drop(svc);
            out[0].store(env.ops(), Ordering::Relaxed);
            assert!(images(&env) > 0, "the close's checkpoint images H0");
            out[1].store(before_close, Ordering::Relaxed);
        };
        Checker::new().max_schedules(1).check(serial).unwrap_or_else(|v| panic!("{v}"));
        let images = ios[1].load(Ordering::Relaxed);
        assert_eq!(images > 0, ckpt, "{images} images written by checkpoints before the close");
        ios[0].load(Ordering::Relaxed)
    }

    /// The random walks' seed at crash index `crash_at`.
    fn walk_seed(crash_at: Option<u64>) -> u64 {
        crash_at.map_or(SEED, |k| SEED ^ (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The crash sweep: with writers on shards `sa`/`sb`, with and
    /// without checkpoints, at every crash index of the lifecycle and
    /// crash-free, `dfs` bounded DFS schedules plus `walks` random walks.
    /// Returns how many distinct `(crash index, schedule)` pairs ran.
    fn sweep(sa: usize, sb: usize, dfs: u64, walks: u64) -> usize {
        let keys = keys(sa, sb);
        let (mut distinct, mut windows) = (0, Vec::new());
        for ckpt in [false, true] {
            windows.push(lifecycle_ios(keys, ckpt));
            for crash_at in (0..windows[windows.len() - 1]).map(Some).chain([None]) {
                let run = || instance(keys, ckpt, crash_at, &[]);
                let ok = |r: std::result::Result<Report, Violation>| {
                    r.unwrap_or_else(|v| {
                        panic!("shards {sa}/{sb}, checkpoints {ckpt}, crash at {crash_at:?}: {v}")
                    })
                };
                let mut seen = HashSet::new();
                if dfs > 0 {
                    seen.extend(ok(Checker::new().max_schedules(dfs).check(run())).fingerprints);
                }
                let walk = Checker::new().check_random(walk_seed(crash_at), walks, run());
                seen.extend(ok(walk).fingerprints);
                distinct += seen.len();
            }
        }
        println!(
            "writers on shards {sa}/{sb}: {distinct} distinct (crash index, schedule) pairs, \
             windows of {windows:?} I/Os (without, with checkpoints)"
        );
        distinct
    }

    /// The PR gate's bar: at least 10 000 distinct `(crash index,
    /// schedule)` pairs of the real service between this test and its
    /// twin, none a violation.
    #[test]
    fn writers_on_one_shard_recover_to_a_batch_boundary_at_every_crash_index() {
        let distinct = sweep(0, 0, 0, WALKS);
        assert!(distinct >= 5_000, "only {distinct} distinct pairs");
    }

    #[test]
    fn writers_on_two_shards_recover_to_a_batch_boundary_at_every_crash_index() {
        let distinct = sweep(0, 1, 0, WALKS);
        assert!(distinct >= 5_000, "only {distinct} distinct pairs");
    }

    /// Every seeded mutant of the commit path is caught by random walks
    /// of the one-shard instance, and the caught schedule replays, at its
    /// crash index, to the same violation. Crash-free walks catch the
    /// mutants that strand or misanswer a caller (the split drain drops
    /// an enqueue only when both writers share the drained queue). The
    /// two early acknowledgements lose a key only at a crash, so the
    /// checkpointing instance is swept over crash indices until one
    /// does.
    #[test]
    fn the_checker_catches_every_seeded_mutant_of_the_commit_path() {
        use ViolationKind::{Deadlock, Panic};
        let keys = keys(0, 0);
        let crashes: Vec<Option<u64>> = (0..lifecycle_ios(keys, true)).map(Some).collect();
        let cases: [(&str, &'static [Switch], ViolationKind); 10] = [
            ("IF_RECHECK", &[mutant::IF_RECHECK], Panic),
            ("NO_ACK_NOTIFY", &[mutant::NO_ACK_NOTIFY], Deadlock),
            ("NO_WORK_NOTIFY", &[mutant::NO_WORK_NOTIFY], Deadlock),
            ("SPLIT_DRAIN", &[mutant::SPLIT_DRAIN], Deadlock),
            ("NO_INFLIGHT_OVERLAY", &[mutant::NO_INFLIGHT_OVERLAY], Panic),
            ("NO_DIRTY_NOTIFY", &[mutant::NO_DIRTY_NOTIFY], Deadlock),
            ("NO_SHUTDOWN_NOTIFY", &[mutant::NO_SHUTDOWN_NOTIFY], Deadlock),
            ("NO_FINAL_CHECKPOINT", &[mutant::NO_FINAL_CHECKPOINT], Panic),
            ("ACK_ALL_AFTER_HARDEN", &[mutant::ACK_ALL_AFTER_HARDEN], Panic),
            ("ACK_BEFORE_LOG_COMMIT", &[mutant::ACK_BEFORE_LOG_COMMIT], Panic),
        ];
        for (name, switches, kind) in cases {
            let early_ack = name.starts_with("ACK_");
            let (ckpt, at, walks) =
                if early_ack { (true, &crashes[..], WALKS) } else { (false, &[None][..], 2_000) };
            let caught = at.iter().find_map(|&crash_at| {
                let run = instance(keys, ckpt, crash_at, switches);
                let walk = Checker::new().check_random(walk_seed(crash_at), walks, run);
                walk.err().map(|v| (crash_at, v))
            });
            let Some((crash_at, v)) = caught else { panic!("{name} survived every walk") };
            assert_eq!(v.kind, kind, "{name}, crash at {crash_at:?}: {v}");
            let run = instance(keys, ckpt, crash_at, switches);
            let again = Checker::new().replay(&v.trace, run).unwrap_err();
            assert_eq!((again.kind, again.fingerprint), (v.kind, v.fingerprint), "{name}");
            println!("{name}: caught at crash {crash_at:?}");
        }
    }

    /// `CommitterPanicGuard` fails the parked writer of a batch whose
    /// apply the committer died in, on every explored schedule — the
    /// store lock the dead committer held is observed poisoned and
    /// swallowed — and without the guard the writer is stranded.
    #[test]
    fn a_committer_panic_fails_the_parked_writer_and_the_drop_returns() {
        let checker = Checker::new().max_schedules(1_000);
        let report = checker
            .check(panicking_committer(&[mutant::COMMITTER_PANICS]))
            .unwrap_or_else(|v| panic!("{v}"));
        assert!(report.poison_swallows > 0, "no schedule observed the poison");
        let unguarded = &[mutant::COMMITTER_PANICS, mutant::NO_PANIC_GUARD];
        let Err(v) = checker.check(panicking_committer(unguarded)) else {
            panic!("without the guard no schedule stranded the writer");
        };
        assert_eq!(v.kind, ViolationKind::Deadlock, "{v}");
    }

    /// The nightly sweep (`-- --ignored`): the PR gate's crash sweep with
    /// bounded DFS at every crash index and far more random walks.
    #[test]
    #[ignore = "deep crash sweep — run by torture-nightly, not the PR gate"]
    fn deep_schedule_sweep() {
        for (sa, sb) in [(0, 0), (0, 1)] {
            sweep(sa, sb, 1_000, 1_000);
        }
    }
}
