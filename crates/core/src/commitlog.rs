//! The service-wide **commit log**: the [`CommitLog`] device trait, the
//! record codec, its two implementations (a real file and the crash
//! simulator's metadata blob) and reopen-time replay.
//!
//! A log round appends one record per acknowledged batch and pays one
//! physical sync for the lot (see `crate::service`). Records are
//! `dxh_extmem::frame` frames; only the payload layout is defined here.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dxh_extmem::frame::{push_frame, Frames};
use dxh_extmem::{ExtMemError, Key, Result, SimEnv};
use dxh_tables::ExternalDictionary;

use crate::media::{sync_dir, StoreMedia};
use crate::service::Effect;
use crate::store::KvStore;

/// Commit-log file name inside a service root (the active segment).
const COMMITLOG: &str = "COMMITLOG";

/// The sealed segment: the commit log's previous contents, set aside
/// when a checkpoint rotation starts and discarded once every shard's
/// manifest covers it (kept across a crash or a tainted rotation, and
/// replayed — watermark-skipped — before the active segment).
const COMMITLOG_OLD: &str = "COMMITLOG.OLD";

/// The service-wide **commit log** — the shared durability device that
/// lets `N` shards pay **one** physical fsync per sync round instead of
/// `N` manifest commits. A log round frames one checksummed record per
/// acknowledged batch and calls [`CommitLog::commit`]; per-shard
/// manifests only catch up at checkpoint rounds, after which the log is
/// truncated. On reopen the surviving records are replayed — in append
/// order, idempotently (a put is an upsert, a delete of an absent key
/// is a miss) — over the recovered per-shard manifests, so everything
/// acknowledged through the log survives a crash even though no
/// manifest recorded it yet.
pub trait CommitLog: Send {
    /// Appends `bytes` and makes everything appended so far durable —
    /// the round's single physical sync. All-or-nothing at round
    /// granularity: on `Err`, this call's bytes must never become
    /// durable later (the sim twin's whole-blob write is atomic; the
    /// file twin truncates itself back, poisoning the log if even that
    /// fails).
    fn commit(&mut self, bytes: &[u8]) -> Result<()>;

    /// Bytes currently in the log (drives the checkpoint threshold).
    fn size(&self) -> u64;

    /// The log's surviving content, for reopen-time replay: the sealed
    /// segment (if any) followed by the active one, in append order.
    fn read_all(&mut self) -> Result<Vec<u8>>;

    /// Durably empties the log — both segments (a full checkpoint made
    /// them redundant).
    fn truncate(&mut self) -> Result<()>;

    /// Atomically moves the active segment aside as the sealed segment
    /// and starts a fresh, empty active one. Called when a staggered
    /// checkpoint rotation begins: new rounds keep appending (to the
    /// fresh segment) while the shards' manifests catch up on the
    /// sealed one. Errors if a sealed segment already exists — the
    /// caller must [`CommitLog::discard_sealed`] first. No extra data
    /// fsync is owed before the move: every byte in the active segment
    /// was already synced by the [`CommitLog::commit`] that wrote it.
    fn seal(&mut self) -> Result<()>;

    /// Whether a sealed segment exists (possibly left over from a
    /// crashed or tainted rotation).
    fn has_sealed(&self) -> bool;

    /// Durably removes the sealed segment: every shard's manifest now
    /// covers it. A no-op when none exists.
    fn discard_sealed(&mut self) -> Result<()>;
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
/// a record surviving past its checkpoint (in the sealed segment)
/// cannot replay stale state over a newer manifest.
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

/// Parses every intact record of a log image, stopping at the first
/// torn or corrupt frame — everything at or behind a bad frame was
/// never acknowledged (acks happen only after the log's sync) and is
/// dropped wholesale.
fn decode_log_records(bytes: &[u8]) -> Vec<LogRecord> {
    Frames::new(bytes).map_while(|(_, payload)| decode_record(payload)).collect()
}

/// [`CommitLog`] on a real file (`COMMITLOG` in the service root):
/// buffered appends plus one `fdatasync` per round. A failed commit
/// truncates the file back to its pre-round length so the round's
/// records cannot surface later; if even that fails the log is poisoned
/// and every later round errors (wedging its shards) until the service
/// is reopened. Sealing renames the file to `COMMITLOG.OLD` and opens
/// a fresh active one; both survive reopen until the checkpoint
/// rotation that sealed the old segment completes cleanly.
pub struct DirCommitLog {
    dir: PathBuf,
    file: fs::File,
    len: u64,
    sealed_len: u64,
    poisoned: bool,
}

impl DirCommitLog {
    /// Opens (creating if needed) the log under the service root `dir`.
    pub(crate) fn open(dir: &Path) -> Result<Self> {
        let path = dir.join(COMMITLOG);
        let fresh = !path.exists();
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if fresh {
            // Make the log's dirent durable before anything is
            // acknowledged through it: without this, a crash could
            // drop the whole file even though its contents were
            // fdatasync'd (the fd sync does not cover the name).
            sync_dir(dir)?;
        }
        let len = file.metadata()?.len();
        let sealed_len = match fs::metadata(dir.join(COMMITLOG_OLD)) {
            Ok(m) => m.len(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e.into()),
        };
        Ok(DirCommitLog { dir: dir.to_path_buf(), file, len, sealed_len, poisoned: false })
    }
}

impl CommitLog for DirCommitLog {
    fn commit(&mut self, bytes: &[u8]) -> Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        if self.poisoned {
            return Err(ExtMemError::Io(std::io::Error::other(
                "commit log poisoned by an earlier failed round",
            )));
        }
        let r = (|| {
            self.file.seek(SeekFrom::Start(self.len))?;
            self.file.write_all(bytes)?;
            self.file.sync_data()
        })();
        match r {
            Ok(()) => {
                self.len += bytes.len() as u64;
                Ok(())
            }
            Err(e) => {
                if self.file.set_len(self.len).is_err() {
                    self.poisoned = true;
                }
                Err(e.into())
            }
        }
    }

    fn size(&self) -> u64 {
        self.len + self.sealed_len
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        let mut out = Vec::with_capacity((self.sealed_len + self.len) as usize);
        if self.sealed_len > 0 {
            fs::File::open(self.dir.join(COMMITLOG_OLD))?.read_to_end(&mut out)?;
        }
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_to_end(&mut out)?;
        Ok(out)
    }

    fn truncate(&mut self) -> Result<()> {
        if self.sealed_len > 0 {
            self.discard_sealed()?;
        }
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.len = 0;
        Ok(())
    }

    fn seal(&mut self) -> Result<()> {
        if self.sealed_len > 0 {
            return Err(ExtMemError::Io(std::io::Error::other(
                "commit log already has a sealed segment",
            )));
        }
        // Every byte of the active segment was already fdatasync'd by
        // the commit that appended it, so the rename needs no data
        // fsync of its own — only the dir fsync that makes the new
        // names durable. Hence the documented exemption from the
        // `std::fs::rename` clippy ban (see crates/core/clippy.toml).
        #[allow(clippy::disallowed_methods)]
        fs::rename(self.dir.join(COMMITLOG), self.dir.join(COMMITLOG_OLD))?;
        let fresh = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.dir.join(COMMITLOG))?;
        sync_dir(&self.dir)?;
        self.sealed_len = self.len;
        self.len = 0;
        self.file = fresh;
        Ok(())
    }

    fn has_sealed(&self) -> bool {
        self.sealed_len > 0
    }

    fn discard_sealed(&mut self) -> Result<()> {
        match fs::remove_file(self.dir.join(COMMITLOG_OLD)) {
            Ok(()) => sync_dir(&self.dir)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        self.sealed_len = 0;
        Ok(())
    }
}

/// [`CommitLog`] on a [`SimEnv`]: each segment is one metadata blob
/// (`COMMITLOG` active, `COMMITLOG.OLD` sealed), the active one
/// rewritten atomically per round — one faultable I/O op, the single
/// shared sync the round pays on the simulated machine. A failed or
/// crashed commit leaves the previous blob intact, so a partial round
/// can never surface at replay (the file twin's torn tail has no sim
/// analogue; the frame checksums cover it there).
pub struct SimCommitLog {
    env: SimEnv,
    buf: Vec<u8>,
    sealed: Vec<u8>,
}

impl SimCommitLog {
    /// Opens the log on `env` (both segments start empty when absent).
    pub(crate) fn open(env: &SimEnv) -> Result<Self> {
        let buf = env.meta_read(COMMITLOG)?.unwrap_or_default();
        let sealed = env.meta_read(COMMITLOG_OLD)?.unwrap_or_default();
        Ok(SimCommitLog { env: env.clone(), buf, sealed })
    }
}

impl CommitLog for SimCommitLog {
    fn commit(&mut self, bytes: &[u8]) -> Result<()> {
        let mut next = Vec::with_capacity(self.buf.len() + bytes.len());
        next.extend_from_slice(&self.buf);
        next.extend_from_slice(bytes);
        self.env.meta_write(COMMITLOG, &next)?;
        self.buf = next;
        Ok(())
    }

    fn size(&self) -> u64 {
        (self.buf.len() + self.sealed.len()) as u64
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.sealed.len() + self.buf.len());
        out.extend_from_slice(&self.sealed);
        out.extend_from_slice(&self.buf);
        Ok(out)
    }

    fn truncate(&mut self) -> Result<()> {
        if !self.sealed.is_empty() {
            self.discard_sealed()?;
        }
        self.env.meta_remove(COMMITLOG)?;
        self.buf.clear();
        Ok(())
    }

    fn seal(&mut self) -> Result<()> {
        if !self.sealed.is_empty() {
            return Err(ExtMemError::Io(std::io::Error::other(
                "commit log already has a sealed segment",
            )));
        }
        // Two atomic metadata ops stand in for the file twin's rename:
        // write the sealed blob, then drop the active one. A crash
        // between them leaves the records in both blobs — replay sees
        // them twice, which the watermark skip (and idempotent effects)
        // absorbs.
        self.env.meta_write(COMMITLOG_OLD, &self.buf)?;
        self.env.meta_remove(COMMITLOG)?;
        self.sealed = std::mem::take(&mut self.buf);
        Ok(())
    }

    fn has_sealed(&self) -> bool {
        !self.sealed.is_empty()
    }

    fn discard_sealed(&mut self) -> Result<()> {
        if self.sealed.is_empty() {
            return Ok(());
        }
        self.env.meta_remove(COMMITLOG_OLD)?;
        self.sealed.clear();
        Ok(())
    }
}

/// Replays every surviving commit-log record over the freshly opened
/// shard stores (reopen-time recovery, phase two), then hardens them
/// and empties the log. Records at or below a shard manifest's
/// persisted watermark are skipped: their effects are already in the
/// manifest fold, and with staggered checkpoints the sealed segment
/// routinely outlives the manifests that cover it, so replaying such a
/// record could fold **stale** state (an old value of a key the shard
/// since rewrote) over a newer manifest. Above the watermark replay is
/// idempotent — a put is an upsert, a delete of an absent key a miss —
/// and per-shard record order equals the original apply order, so the
/// last write per key still wins.
pub(crate) fn replay_log<M: StoreMedia>(
    log: &mut impl CommitLog,
    stores: &mut [KvStore<M>],
) -> Result<()> {
    let image = log.read_all()?;
    let records = decode_log_records(&image);
    if records.is_empty() {
        // Nothing to fold in, but a torn tail or a leftover sealed
        // segment still needs clearing.
        return if log.size() == 0 { Ok(()) } else { log.truncate() };
    }
    for (si, seq, effects) in records {
        let store = stores.get_mut(si as usize).ok_or_else(|| {
            ExtMemError::Corrupt("commit log references a shard outside the service".into())
        })?;
        if seq <= store.replay_watermark() {
            continue;
        }
        for (k, eff) in effects {
            match eff {
                Some(Effect::Word(v)) => store.insert(k, v)?,
                Some(Effect::Bytes(b)) => store.put_bytes(k, &b)?,
                None => {
                    store.delete(k)?;
                }
            }
        }
        store.set_replay_watermark(seq);
    }
    for s in stores.iter_mut() {
        s.harden(true)?;
    }
    log.truncate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreConfig, ShardedKvStore, SimServiceMedia};
    use proptest::prelude::*;

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
            ShardedKvStore::open_on(SimServiceMedia::new(&env), 2, cfg, 1).unwrap()
        };
        open().put(1, 10).unwrap();
        let mut crafted = vec![0u8; RECORD_HEAD];
        crafted[4] = 1; // shard 0, seq 1
        crafted[12..].copy_from_slice(&u32::MAX.to_le_bytes());
        let crafted = framed(&crafted);
        assert_eq!(crafted.len(), 28);
        env.meta_write(COMMITLOG, &crafted).unwrap();
        assert_eq!(open().get(1).unwrap(), Some(10));
        assert_eq!(env.meta_read(COMMITLOG).unwrap(), None, "the bad log was truncated away");
    }

    proptest! {
        /// Arbitrary images, and arbitrary payloads inside valid frames,
        /// never panic the decoder.
        #[test]
        fn decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..120)) {
            decode_log_records(&bytes);
            decode_log_records(&framed(&bytes));
        }
    }
}
