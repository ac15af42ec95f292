//! The service-wide **commit log**: the log device ([`CommitLog`],
//! written once over the [`StoreMedia`] seam — the same code runs on a
//! real directory and under the crash simulator), the record codec and
//! reopen-time replay.
//!
//! A log round appends one record per acknowledged batch and pays one
//! physical sync for the lot (see `crate::service`). Records are
//! `dxh_extmem::frame` frames; only the payload layout is defined here.

use std::sync::Arc;

use dxh_extmem::frame::{push_frame, FrameBuf, FRAME_HEADER};
use dxh_extmem::{BlobFile, ExtMemError, Key, Result};

use crate::media::StoreMedia;
use crate::service::{apply_write, Effect};
use crate::store::KvStore;

/// Commit-log file name inside a service root.
const COMMITLOG: &str = "COMMITLOG";

/// The sealed segment an older layout set aside while its shards'
/// manifests caught up one per round. It may hold acknowledged batches
/// no manifest covers, so a service root that has one is refused.
pub(crate) const COMMITLOG_OLD: &str = "COMMITLOG.OLD";

/// The service-wide **commit log** — the shared durability device that
/// lets `N` shards pay **one** physical fsync per sync round instead of
/// `N` manifest commits. A log round frames one checksummed record per
/// acknowledged batch and calls [`CommitLog::commit`]; per-shard
/// manifests only catch up at checkpoints, after which the log is
/// truncated. On reopen the surviving records are replayed — in append
/// order, idempotently (a put is an upsert, a delete of an absent key
/// is a miss) — over the recovered per-shard manifests, so everything
/// acknowledged through the log survives a crash even though no
/// manifest recorded it yet.
///
/// The log is one byte file in the service root, `COMMITLOG`: appends
/// plus one `fdatasync` per round.
pub(crate) struct CommitLog<M: StoreMedia> {
    file: M::File,
    poisoned: bool,
}

impl<M: StoreMedia> CommitLog<M> {
    /// Opens (creating if needed) the log in the service root `root`.
    pub(crate) fn open(mut root: M) -> Result<Self> {
        let file = match root.open_file(COMMITLOG)? {
            Some(file) => file,
            None => {
                let file = root.create_file(COMMITLOG)?;
                // Make the log's dirent durable before anything is
                // acknowledged through it: without this, a crash could
                // drop the whole file even though its contents were
                // fdatasync'd (the fd sync does not cover the name).
                root.sync_dir()?;
                file
            }
        };
        Ok(CommitLog { file, poisoned: false })
    }

    /// Appends `bytes` and makes everything appended so far durable —
    /// the round's single physical sync. All-or-nothing at round
    /// granularity: on `Err`, this call's bytes must never become
    /// durable later, so a failed round truncates the file back to its
    /// pre-round length; if even that fails the log is poisoned and
    /// every later round errors (wedging its shards) until the service
    /// is reopened.
    pub(crate) fn commit(&mut self, bytes: &[u8]) -> Result<()> {
        dxh_sync::assert_sync_allowed("CommitLog::commit");
        if self.poisoned {
            return Err(ExtMemError::Io(std::io::Error::other(
                "commit log poisoned by an earlier failed round",
            )));
        }
        let len = self.file.len();
        let round = self.file.append(bytes).and_then(|()| self.file.sync());
        if round.is_err() && self.file.set_len(len).is_err() {
            self.poisoned = true;
        }
        round
    }

    /// Whether a failed round could not be rolled back: the file may
    /// hold bytes of a round that was reported failed.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Bytes currently in the log (drives the checkpoint threshold).
    pub(crate) fn size(&self) -> u64 {
        self.file.len()
    }

    /// Walks the log's records in append order for reopen-time replay.
    /// Each frame is fetched by position into one record buffer and its
    /// payload handed to `visit` — no more than one record is ever in
    /// memory. The walk stops for good at the first torn or corrupt
    /// frame, or when `visit` returns `Ok(false)` (a payload it cannot
    /// parse): everything at or behind a bad frame was never
    /// acknowledged (acks happen only after the log's sync).
    pub(crate) fn for_each_record(
        &mut self,
        mut visit: impl FnMut(&[u8]) -> Result<bool>,
    ) -> Result<()> {
        let (mut buf, len, mut at) = (FrameBuf::default(), self.file.len(), 0);
        while let Some(payload) = buf.read_at(&self.file, len, at)? {
            at += (FRAME_HEADER + payload.len()) as u64;
            if !visit(payload)? {
                break;
            }
        }
        Ok(())
    }

    /// Durably empties the log (a checkpoint made every record in it
    /// redundant).
    pub(crate) fn truncate(&mut self) -> Result<()> {
        dxh_sync::assert_sync_allowed("CommitLog::truncate");
        self.file.set_len(0)?;
        self.file.sync()
    }
}

/// Bytes of a record payload before its ops: `shard u32 | seq u64 |
/// nops u32`.
const RECORD_HEAD: usize = 16;
/// The smallest encoded op: `key u64 | tag u8 | len u32`, an empty
/// byte-payload put (word puts and deletes take 17).
const MIN_OP: usize = 13;

/// Appends one log record to `out`: a frame whose payload is `shard
/// u32 | seq u64 | nops u32 | op*`, all little-endian. Each op is `key
/// u64 | tag u8 | body`: tag `0` (delete) and tag `1` (word put) carry a
/// fixed 8-byte body — the layout every pre-payload log used, byte for
/// byte — while tag `2` (byte-payload put) carries `len u32 | bytes`, so
/// records are variable-stride only when byte ops are present. The
/// frame checksum makes a torn tail (a crash mid-append on the file
/// log) detectable, and a batch indivisible: replay takes a record
/// wholly or not at all. `seq` is the shard's batch sequence number;
/// replay skips records at or below the shard manifest's watermark, so
/// a record surviving past its checkpoint (a truncate that failed or a
/// crash before it) cannot replay stale state over a newer manifest.
pub(crate) fn encode_log_record(
    out: &mut Vec<u8>,
    shard: u32,
    seq: u64,
    effects: &[(Key, Option<Effect>)],
) {
    let mut payload = Vec::with_capacity(RECORD_HEAD + effects.len() * 17);
    payload.extend_from_slice(&shard.to_le_bytes());
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&(effects.len() as u32).to_le_bytes());
    for (k, eff) in effects {
        payload.extend_from_slice(&k.to_le_bytes());
        match eff {
            Some(Effect::Word(v)) => {
                payload.push(1);
                payload.extend_from_slice(&v.to_le_bytes());
            }
            Some(Effect::Bytes(b)) => {
                payload.push(2);
                payload.extend_from_slice(&(b.len() as u32).to_le_bytes());
                payload.extend_from_slice(b);
            }
            None => {
                payload.push(0);
                payload.extend_from_slice(&0u64.to_le_bytes());
            }
        }
    }
    push_frame(out, &payload);
}

/// One decoded commit-log record: the shard it belongs to, the shard's
/// batch sequence number, and the batch's per-key effects (`None` =
/// delete) in application order.
type LogRecord = (u32, u64, Vec<(Key, Option<Effect>)>);

/// Parses one checksum-verified record payload; `None` when the
/// structure is malformed (a short head, an op count the payload cannot
/// hold, an unknown tag, a length running past the payload, trailing
/// bytes — corruption the checksum cannot have produced, so the caller
/// stops replay there like it does at a torn frame).
fn decode_record(payload: &[u8]) -> Option<LogRecord> {
    let word = |at: usize| Some(u64::from_le_bytes(payload.get(at..at + 8)?.try_into().ok()?));
    let half = |at: usize| Some(u32::from_le_bytes(payload.get(at..at + 4)?.try_into().ok()?));
    let (shard, seq, nops) = (half(0)?, word(4)?, half(12)? as usize);
    // `nops` is input: bound it by what the payload can hold before
    // reserving for it.
    if nops > (payload.len() - RECORD_HEAD) / MIN_OP {
        return None;
    }
    let mut effects = Vec::with_capacity(nops);
    let mut at = RECORD_HEAD;
    for _ in 0..nops {
        let k = word(at)?;
        let tag = *payload.get(at + 8)?;
        at += 9;
        let eff = match tag {
            0 | 1 => {
                let v = word(at)?;
                at += 8;
                (tag == 1).then_some(Effect::Word(v))
            }
            2 => {
                let len = half(at)? as usize;
                let bytes = payload.get(at + 4..(at + 4).checked_add(len)?)?;
                at += 4 + len;
                Some(Effect::Bytes(Arc::from(bytes)))
            }
            _ => return None,
        };
        effects.push((k, eff));
    }
    (at == payload.len()).then_some((shard, seq, effects))
}

/// Replays every surviving commit-log record over the freshly opened
/// shard stores (reopen-time recovery, phase two) — one record decoded
/// and applied at a time, whatever the log's length — then hardens them
/// and empties the log. Records at or below a shard manifest's
/// persisted watermark are skipped: their effects are already in the
/// manifest fold, and the log outlives the manifests that cover it
/// whenever a crash (or a failed truncate) lands between a checkpoint's
/// hardens and its truncate, so replaying such a record could fold
/// **stale** state (an old value of a key the shard since rewrote) over
/// a newer manifest. The watermark is exact — the newest batch the
/// manifest holds — so every record above it is a batch the manifest
/// lacks, replayed in the original apply order: the last write per key
/// still wins.
pub(crate) fn replay_log<M: StoreMedia>(
    log: &mut CommitLog<M>,
    stores: &mut [KvStore<M>],
) -> Result<()> {
    if log.size() == 0 {
        return Ok(());
    }
    let mut replayed = false;
    log.for_each_record(|payload| {
        let Some((si, seq, effects)) = decode_record(payload) else { return Ok(false) };
        replayed = true;
        let store = stores.get_mut(si as usize).ok_or_else(|| {
            ExtMemError::Corrupt("commit log references a shard outside the service".into())
        })?;
        if seq <= store.replay_watermark() {
            return Ok(true);
        }
        for (k, eff) in effects {
            apply_write(store, k, eff.as_ref())?;
        }
        store.set_replay_watermark(seq);
        Ok(true)
    })?;
    // A log that held no record — a torn tail — is still emptied, but
    // there is nothing to harden.
    if replayed {
        for s in stores.iter_mut() {
            s.sync()?;
        }
    }
    log.truncate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreConfig, ShardedKvStore, SimMedia};
    use dxh_extmem::frame::Frames;
    use dxh_extmem::SimEnv;
    use dxh_tables::ExternalDictionary;
    use proptest::prelude::*;

    /// Every intact record of a log image, up to the first torn, corrupt
    /// or malformed frame: the in-memory reference the positional walk is
    /// held to.
    fn decode_log_records(bytes: &[u8]) -> Vec<LogRecord> {
        Frames::new(bytes).map_while(|(_, payload)| decode_record(payload)).collect()
    }

    /// What replay would see: the records the positional walk yields.
    fn walked(log: &mut CommitLog<SimMedia>) -> Vec<LogRecord> {
        let mut out = Vec::new();
        log.for_each_record(|payload| {
            let record = decode_record(payload);
            Ok(record.map(|r| out.push(r)).is_some())
        })
        .unwrap();
        out
    }

    fn record(shard: u32, seq: u64, effects: &[(Key, Option<Effect>)]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_log_record(&mut out, shard, seq, effects);
        out
    }

    /// A frame around an arbitrary (possibly malformed) record payload.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        push_frame(&mut out, payload);
        out
    }

    /// The on-disk record format, pinned byte for byte.
    #[test]
    fn record_bytes_are_pinned() {
        let rec = record(1, 7, &[(5, Some(Effect::Word(50))), (6, None)]);
        let mut golden = vec![0x32, 0, 0, 0, 0x41, 0x5a, 0x0d, 0x01, 0x32, 0xd3, 0xe6, 0xe9];
        golden.extend_from_slice(&[1, 0, 0, 0]); // shard
        golden.extend_from_slice(&7u64.to_le_bytes()); // seq
        golden.extend_from_slice(&[2, 0, 0, 0]); // nops
        golden.extend_from_slice(&[5, 0, 0, 0, 0, 0, 0, 0, 1, 50, 0, 0, 0, 0, 0, 0, 0]);
        golden.extend_from_slice(&[6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(rec, golden);
    }

    #[test]
    fn records_round_trip_and_a_torn_tail_drops_only_the_last() {
        let a = vec![(1, Some(Effect::Word(10))), (2, Some(Effect::Bytes(Arc::from(&b"xyz"[..]))))];
        let b = vec![(1, None), (3, Some(Effect::Bytes(Arc::from(&b""[..]))))];
        let mut log = record(0, 1, &a);
        log.extend(record(3, 9, &b));
        assert_eq!(decode_log_records(&log), vec![(0, 1, a.clone()), (3, 9, b)]);
        for cut in 1..=5 {
            assert_eq!(decode_log_records(&log[..log.len() - cut]), vec![(0, 1, a.clone())]);
        }
    }

    /// Checksum-valid frames whose payload is not a record stop replay
    /// exactly like a torn frame — including an op count the payload
    /// cannot hold, which must be refused *before* reserving for it.
    #[test]
    fn malformed_records_stop_replay() {
        let good = record(0, 1, &[(1, Some(Effect::Word(1)))]);
        let mut body = good[12..].to_vec();
        let mut unknown_tag = body.clone();
        unknown_tag[24] = 3;
        let mut trailing = body.clone();
        trailing.push(0);
        body[12..16].copy_from_slice(&u32::MAX.to_le_bytes()); // nops the payload cannot hold
        for bad in [&unknown_tag[..], &trailing, &body, &good[12..20]] {
            let mut log = good.clone();
            log.extend(framed(bad));
            log.extend(&good);
            assert_eq!(decode_log_records(&log).len(), 1, "replay stops at {bad:?}");
        }
    }

    /// The shown abort: a 28-byte checksum-valid log claiming
    /// `u32::MAX` ops used to die reserving 128 GiB at open. It is a
    /// malformed record: replay sees nothing and empties the log.
    #[test]
    fn crafted_op_count_opens_to_an_emptied_log() {
        let env = SimEnv::new();
        let open = || {
            let cfg = CoreConfig::lemma5(8, 128, 2).unwrap();
            ShardedKvStore::open_on(SimMedia::unlocked(&env), 2, cfg, 1).unwrap()
        };
        open().put(1, 10).unwrap();
        let mut crafted = vec![0u8; RECORD_HEAD];
        crafted[4] = 1; // shard 0, seq 1
        crafted[12..].copy_from_slice(&u32::MAX.to_le_bytes());
        let crafted = framed(&crafted);
        assert_eq!(crafted.len(), 28);
        env.open_file(COMMITLOG).unwrap().unwrap().append(&crafted).unwrap();
        assert_eq!(open().get(1).unwrap(), Some(10));
        assert_eq!(
            env.read_file(COMMITLOG).unwrap().unwrap(),
            b"",
            "the bad log was truncated away"
        );
    }

    fn word(shard: u32, seq: u64) -> Vec<u8> {
        record(shard, seq, &[(seq, Some(Effect::Word(seq * 10)))])
    }

    /// The log at the root of `env` once `COMMITLOG` holds `bytes`,
    /// durably.
    fn log_holding(env: &SimEnv, bytes: &[u8]) -> CommitLog<SimMedia> {
        let mut f = env.create_file(COMMITLOG).unwrap();
        f.append(bytes).unwrap();
        f.sync().unwrap();
        env.sync_dir("").unwrap();
        CommitLog::open(SimMedia::unlocked(env)).unwrap()
    }

    /// The positional walk sees what decoding the log's image saw: every
    /// record up to the first torn, corrupt or malformed frame, and none
    /// after it.
    #[test]
    fn the_walk_stops_for_good_at_a_bad_frame() {
        let (r1, r2, r3) = (word(0, 1), word(1, 2), word(0, 3));
        let mut corrupt = r2.clone();
        *corrupt.last_mut().unwrap() ^= 1;
        let malformed = framed(&r2[12..20]);
        let torn = &r3[..r3.len() - 3];
        for (image, seqs) in [
            ([&r1[..], &r2, &r3].concat(), vec![1, 2, 3]),
            ([&r1[..], &r2, torn].concat(), vec![1, 2]),
            ([&r1[..], &corrupt, &r3].concat(), vec![1]),
            ([&r1[..], &malformed, &r2].concat(), vec![1]),
            (Vec::new(), vec![]),
        ] {
            let records = walked(&mut log_holding(&SimEnv::new(), &image));
            assert_eq!(records, decode_log_records(&image), "{image:?}");
            assert_eq!(records.iter().map(|r| r.1).collect::<Vec<_>>(), seqs);
        }
    }

    fn seqs(log: &mut CommitLog<SimMedia>) -> Vec<u64> {
        walked(log).iter().map(|r| r.1).collect()
    }

    /// The failure path under injection: a round whose append or sync
    /// fails is rolled back — its bytes never surface at replay, in this
    /// process or after a crash — and the next round succeeds.
    #[test]
    fn failed_round_is_rolled_back_and_the_next_one_commits() {
        use dxh_extmem::FaultPlan;
        for fail_sync in [false, true] {
            let env = SimEnv::new();
            let mut log = CommitLog::open(SimMedia::unlocked(&env)).unwrap();
            log.commit(&word(0, 1)).unwrap();
            let at = env.ops() + u64::from(fail_sync);
            env.set_plan(FaultPlan { fail_at: vec![at], ..Default::default() });
            assert!(log.commit(&word(0, 2)).is_err(), "the injected fault fails the round");
            assert_eq!(seqs(&mut log), vec![1], "the failed round left nothing behind");
            log.commit(&word(0, 3)).unwrap();
            assert_eq!(seqs(&mut log), vec![1, 3]);
            drop(log);
            env.set_plan(FaultPlan::crash(env.ops(), 5));
            assert!(env.sync_dir("").is_err());
            env.power_cycle();
            let mut log = CommitLog::open(SimMedia::unlocked(&env)).unwrap();
            assert_eq!(seqs(&mut log), vec![1, 3], "fail_sync {fail_sync}: after the crash");
        }
    }

    /// When even the roll-back fails, the failed round's bytes may still
    /// reach the disk behind the caller's back — so the log refuses
    /// every later round instead of acknowledging records behind them.
    #[test]
    fn failed_roll_back_poisons_the_log() {
        use dxh_extmem::FaultPlan;
        let env = SimEnv::new();
        let mut log = CommitLog::open(SimMedia::unlocked(&env)).unwrap();
        log.commit(&word(0, 1)).unwrap();
        // The sync and the truncate that would undo the append both fail.
        let at = env.ops();
        env.set_plan(FaultPlan { fail_at: vec![at + 1, at + 2], ..Default::default() });
        assert!(log.commit(&word(0, 2)).is_err());
        for seq in 3..6 {
            let err = log.commit(&word(0, seq)).unwrap_err();
            assert!(err.to_string().contains("poisoned"), "round {seq}: {err}");
        }
        assert_eq!(seqs(&mut log), vec![1, 2], "nothing was appended behind the failed round");
    }

    /// Log rounds over two shards with two checkpoints among them, driven
    /// by hand the way the service's committers and coordinator do it:
    /// each round applies one put per shard — stamping the batch's seq
    /// into the store, as an apply does — and commits their records to
    /// the log; a checkpoint hardens every store in turn, then truncates
    /// the log. Pushes onto `acked` every `(shard, key, value)` whose
    /// round committed; errors where `env` crashes.
    fn checkpointing(env: &SimEnv, acked: &mut Vec<(usize, Key, u64)>) -> Result<()> {
        let cfg = CoreConfig::lemma5(4, 96, 2).unwrap();
        let root = SimMedia::unlocked(env);
        let mut stores = Vec::new();
        for si in 0..2 {
            stores.push(KvStore::open_on(root.sub(&format!("shard-{si:03}"))?, cfg.clone(), 7)?);
        }
        let mut log = CommitLog::open(root)?;
        replay_log(&mut log, &mut stores)?;
        for round in 0..9u64 {
            let mut bytes = Vec::new();
            let mut riding = Vec::new();
            for (si, store) in stores.iter_mut().enumerate() {
                let (k, v) = (round * 2 + si as u64, round + 100);
                let seq = store.replay_watermark() + 1;
                store.insert(k, v)?;
                store.set_replay_watermark(seq);
                encode_log_record(&mut bytes, si as u32, seq, &[(k, Some(Effect::Word(v)))]);
                riding.push((si, k, v));
            }
            log.commit(&bytes)?;
            acked.extend(riding);
            if round % 4 == 2 {
                for store in &mut stores {
                    store.harden()?;
                }
                log.truncate()?;
            }
        }
        Ok(())
    }

    /// Crash at **every** I/O index of a first-ever open (shard creates,
    /// `SERVICE`-less root, the log's create + dir-sync) and of log rounds
    /// with two checkpoints among them — every harden, then the truncate;
    /// after each, reopen + replay must recover every record whose round
    /// committed. The sweep's traces must show the windows it exists
    /// for: a torn `COMMITLOG` tail, a lost un-dir-synced dirent, a crash
    /// between a manifest rename and its dir-sync, and one between a
    /// checkpoint's last harden and its truncate.
    #[test]
    fn checkpoint_and_first_open_crash_sweep_loses_no_committed_record() {
        use dxh_extmem::{FaultPlan, IoEvent};
        let total = {
            let env = SimEnv::new();
            let mut acked = Vec::new();
            checkpointing(&env, &mut acked).unwrap();
            assert_eq!(acked.len(), 18, "the crash-free lifecycle completes");
            env.ops()
        };
        let (mut torn_log, mut lost_dirents, mut mid_rename) = (0, 0, 0);
        let mut hardened_not_truncated = 0;
        for k in 0..total {
            let env = SimEnv::new();
            env.set_plan(FaultPlan::crash(k, 0xC0FFEE ^ k.rotate_left(17)));
            let mut acked = Vec::new();
            // `Ok` when the crash fell inside the stores' drop-time syncs.
            let run = checkpointing(&env, &mut acked);
            assert!(env.crashed(), "crash_at {k}: no crash fired, run returned {run:?}");
            env.power_cycle();
            let trace = env.take_trace();
            let labels: Vec<&str> = trace
                .iter()
                .filter_map(|e| match e {
                    IoEvent::Meta { label, .. } => Some(label.as_str()),
                    _ => None,
                })
                .collect();
            torn_log += labels.iter().filter(|l| **l == "crash-tear COMMITLOG").count();
            lost_dirents +=
                labels.iter().filter(|l| l.starts_with("crash-undo file-create")).count();
            let pending_rename = labels
                .iter()
                .rev()
                .take_while(|l| !l.starts_with("dir-sync"))
                .any(|l| l.starts_with("file-rename"));
            mid_rename += usize::from(pending_rename);
            // The crash took the truncate (or came right before it): the
            // last thing done, unlinks aside, was the second harden's
            // manifest commit.
            let last = labels
                .iter()
                .take_while(|l| !l.starts_with("power-cycle"))
                .filter(|l| !l.starts_with("file-remove"))
                .last();
            hardened_not_truncated +=
                usize::from(!acked.is_empty() && last == Some(&"dir-sync shard-001/"));

            let root = SimMedia::unlocked(&env);
            let cfg = CoreConfig::lemma5(4, 96, 2).unwrap();
            let mut stores: Vec<_> = (0..2)
                .map(|si| {
                    let shard = root.sub(&format!("shard-{si:03}")).unwrap();
                    KvStore::open_on(shard, cfg.clone(), 7).unwrap()
                })
                .collect();
            let mut log = CommitLog::open(root).unwrap();
            replay_log(&mut log, &mut stores).unwrap();
            for (si, key, v) in acked {
                assert_eq!(
                    stores[si].lookup(key).unwrap(),
                    Some(v),
                    "crash_at {k}: committed record (shard {si}, key {key}) lost"
                );
            }
        }
        assert!(torn_log > 0, "no crash tore the COMMITLOG tail");
        assert!(lost_dirents > 0, "no crash lost an un-dir-synced dirent");
        assert!(mid_rename > 0, "no crash fell between a rename and its dir-sync");
        assert!(hardened_not_truncated > 0, "no crash fell between the hardens and the truncate");
    }

    fn service(env: &SimEnv) -> ShardedKvStore<SimMedia> {
        let cfg = CoreConfig::lemma5(8, 128, 2).unwrap();
        ShardedKvStore::open_on(SimMedia::unlocked(env), 2, cfg, 3).unwrap()
    }

    fn log_bytes(env: &SimEnv) -> Vec<u8> {
        env.read_file(COMMITLOG).unwrap().unwrap_or_default()
    }

    /// A clean close leaves nothing for the next open to replay: once
    /// the close's checkpoint hardened every shard, the log is emptied,
    /// whatever point of the checkpoint cycle the service stopped at;
    /// the reopen commits no manifest and serves every key.
    #[test]
    fn a_clean_close_empties_the_commit_log() {
        use dxh_extmem::IoEvent;
        for (puts, ckpt_bytes) in [(1u64, None), (300, None), (40, Some(128)), (47, Some(128))] {
            let env = SimEnv::new();
            let svc = service(&env);
            if let Some(bytes) = ckpt_bytes {
                svc.set_checkpoint_log_bytes(bytes); // checkpoints empty the log mid-run
            }
            for k in 0..puts {
                svc.put(k, k + 1).unwrap();
            }
            if ckpt_bytes.is_none() {
                assert!(!log_bytes(&env).is_empty(), "{puts} puts: acknowledged through the log");
            }
            drop(svc);
            assert_eq!(log_bytes(&env), b"", "{puts} puts: the close emptied the log");
            assert_eq!(env.read_file(COMMITLOG_OLD).unwrap(), None, "{puts} puts");
            env.power_cycle();
            env.take_trace();
            let svc = service(&env);
            let recovered = env.take_trace().iter().any(|e| match e {
                IoEvent::Meta { label, .. } => {
                    label.starts_with("file-rename") || label.starts_with("file-truncate")
                }
                _ => false,
            });
            assert!(!recovered, "{puts} puts: the reopen replayed, hardened or truncated");
            for k in 0..puts {
                assert_eq!(svc.get(k).unwrap(), Some(k + 1), "{puts} puts: key {k}");
            }
        }
    }

    /// A wedged shard's acknowledged batches may exist nowhere but in the
    /// log (its poisoned store commits nothing at close): the close keeps
    /// the log byte for byte and the reopen replays it.
    #[test]
    fn a_close_with_a_wedged_shard_keeps_the_commit_log() {
        use dxh_extmem::FaultPlan;
        let env = SimEnv::new();
        let svc = service(&env);
        let k0 = (0..).find(|&k| svc.shard_of(k) == 0).unwrap();
        let k1 = (0..).find(|&k| svc.shard_of(k) == 1).unwrap();
        svc.put(k0, 1).unwrap();
        svc.put(k1, 1).unwrap();
        env.set_plan(FaultPlan { fail_at: vec![env.ops()], ..Default::default() });
        assert!(svc.put(k0, 2).is_err(), "the injected fault wedges shard 0");
        svc.put(k1, 2).unwrap();
        let before = log_bytes(&env);
        assert_eq!(decode_log_records(&before).len(), 3, "k0 → 1, k1 → 1, k1 → 2");
        drop(svc);
        assert_eq!(log_bytes(&env), before);
        let svc = service(&env);
        assert_eq!(svc.get(k0).unwrap(), Some(1), "replayed: no manifest of shard 0 held it");
        assert_eq!(svc.get(k1).unwrap(), Some(2));
        drop(svc);
        assert_eq!(log_bytes(&env), b"", "the recovered service closes clean");
    }

    /// A service root an older layout left with a sealed segment beside
    /// `COMMITLOG` — batches acknowledged through it may be in no
    /// manifest — is refused by name before any shard is opened, and
    /// nothing in the root or its shards changes: not even a level file
    /// no manifest names, which a shard's open removes.
    #[test]
    fn a_root_with_a_sealed_log_segment_is_refused_touching_nothing() {
        use dxh_extmem::{SimDisk, StorageBackend};
        let env = SimEnv::new();
        let svc = service(&env);
        for k in 0..20u64 {
            svc.put(k, k + 1).unwrap();
        }
        drop(svc);
        let stray = env.create_file("shard-000/level-99.blk").unwrap();
        let mut stray = SimDisk::from_file(stray, 8).unwrap();
        stray.allocate_contiguous(4).unwrap();
        stray.sync().unwrap();
        env.sync_dir("shard-000/").unwrap();
        let mut sealed = env.create_file(COMMITLOG_OLD).unwrap();
        sealed.append(&record(0, 21, &[(0, Some(Effect::Word(7)))])).unwrap();
        sealed.sync().unwrap();
        env.sync_dir("").unwrap();
        crate::store::tests::assert_refused(&env, COMMITLOG_OLD, || {
            let cfg = CoreConfig::lemma5(8, 128, 2).unwrap();
            ShardedKvStore::open_on(SimMedia::unlocked(&env), 2, cfg, 3)
        });
    }

    /// Crash at every I/O of the last round and of a clean close — the
    /// close's checkpoint: both hardens, the window between the last of
    /// them and the truncate, the truncate itself. Every acknowledged
    /// key survives, whether the reopen finds the log whole or empty.
    #[test]
    fn close_crash_sweep_loses_no_acknowledged_key() {
        use dxh_extmem::{FaultPlan, IoEvent};
        // One writer, one put at a time: the same I/Os in every run.
        // Returns the I/O clock before the last put; `acked` takes every
        // key whose put returned `Ok`.
        let lifecycle = |env: &SimEnv, acked: &mut Vec<u64>| {
            let svc = service(env);
            let mut before_the_last_put = 0;
            for k in 0..40u64 {
                if k == 39 {
                    before_the_last_put = env.ops();
                }
                if svc.put(k, k + 1).is_ok() {
                    acked.push(k);
                }
            }
            before_the_last_put
        };
        let (sweep_from, close_ends) = {
            let env = SimEnv::new();
            (lifecycle(&env, &mut Vec::new()), env.ops())
        };
        let (mut hardened_not_truncated, mut truncated) = (0, 0);
        for k in sweep_from..close_ends + 1 {
            let env = SimEnv::new();
            env.set_plan(FaultPlan::crash(k, 0xC105E ^ k.rotate_left(23)));
            let mut acked = Vec::new();
            lifecycle(&env, &mut acked);
            let crashed = env.crashed();
            assert_eq!(crashed, k < close_ends, "crash_at {k}: the lifecycle takes {close_ends}");
            // A shard's final harden ran iff the last thing that happened
            // in its directory, unlinks aside, is a manifest commit's
            // dir-sync — not a write to a level file still to be named.
            let trace = env.take_trace();
            let hardened = (0..2).all(|si| {
                let dir = format!("shard-{si:03}/");
                let commit = format!("dir-sync {dir}");
                let last = trace.iter().rev().find_map(|e| match e {
                    IoEvent::Meta { label, .. } if *label == commit => Some(true),
                    IoEvent::Write { file, .. } if file.starts_with(&dir) => Some(false),
                    _ => None,
                });
                last == Some(true)
            });
            env.power_cycle();
            let log_left = log_bytes(&env).len();
            assert!(crashed || (hardened && log_left == 0), "crash_at {k}");
            hardened_not_truncated += usize::from(hardened && log_left > 0);
            truncated += usize::from(log_left == 0);
            let svc = service(&env);
            for key in acked {
                assert_eq!(svc.get(key).unwrap(), Some(key + 1), "crash_at {k}: key {key}");
            }
        }
        assert!(hardened_not_truncated > 0, "no crash fell between the hardens and the truncate");
        assert!(truncated > 0, "no run got as far as the truncate");
    }

    fn payload_service(env: &SimEnv) -> ShardedKvStore<SimMedia> {
        let cfg = CoreConfig::lemma5(8, 128, 2).unwrap();
        ShardedKvStore::open_payload_on(SimMedia::unlocked(env), 2, cfg, 3).unwrap()
    }

    /// No step of a payload service's reopen holds more than one record:
    /// after a clean close, and after a crash that leaves a commit log to
    /// replay, the reopen's trace has no whole-file read of a blob log or
    /// of the log, and its longest single read is no longer than the
    /// largest frame on disk.
    #[test]
    fn a_payload_reopen_reads_its_logs_record_by_record() {
        use dxh_extmem::{FaultPlan, IoEvent};
        let payload = |k: u64| vec![k as u8; 1 + (k as usize * 37) % 300];
        // A put's commit-log record frames its payload behind the record
        // head and one op head; its blob frame is shorter.
        let largest_frame = (FRAME_HEADER + RECORD_HEAD + MIN_OP + 300) as u64;
        for crash in [false, true] {
            let env = SimEnv::new();
            let svc = payload_service(&env);
            for k in 0..120 {
                svc.put_bytes(k, &payload(k)).unwrap();
            }
            if crash {
                env.set_plan(FaultPlan::crash(env.ops(), 9));
            }
            drop(svc);
            env.power_cycle();
            env.take_trace();
            let svc = payload_service(&env);
            let trace = env.take_trace();
            let mut ranged: Vec<(&str, u64)> = Vec::new();
            for e in &trace {
                match e {
                    IoEvent::Meta { label, .. } => {
                        let whole = label.strip_prefix("file-read ").unwrap_or_default();
                        assert!(
                            !whole.ends_with(".blob") && !whole.contains(COMMITLOG),
                            "crash {crash}: whole-file read of {whole}"
                        );
                    }
                    IoEvent::ReadAt { file, len, .. } => ranged.push((file, *len)),
                    _ => {}
                }
            }
            let read = |name: &str| ranged.iter().any(|&(file, _)| file == name);
            // (A crash may keep none of a blob log's never-synced appends.)
            assert!(crash || read("shard-000/store.blob"), "the committed prefix is verified");
            assert_eq!(read(COMMITLOG), crash, "a leftover log is replayed");
            let longest = ranged.iter().map(|&(_, len)| len).max().unwrap();
            assert!(
                longest <= largest_frame,
                "a {longest}-byte read; frames end at {largest_frame}"
            );
            for k in 0..120 {
                assert_eq!(svc.get_bytes(k).unwrap(), Some(payload(k)), "key {k}");
            }
        }
    }

    proptest! {
        /// Arbitrary images, and arbitrary payloads inside valid frames,
        /// never panic the decoder — and the positional walk over them
        /// stops exactly where the image scan does.
        #[test]
        fn decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..120)) {
            for image in [bytes.clone(), framed(&bytes), [word(0, 1), bytes].concat()] {
                let records = decode_log_records(&image);
                prop_assert_eq!(walked(&mut log_holding(&SimEnv::new(), &image)), records);
            }
        }
    }
}
