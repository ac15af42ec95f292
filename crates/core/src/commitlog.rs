//! The service-wide **commit log**: the log device ([`CommitLog`],
//! written once over the [`StoreMedia`] seam — the same code runs on a
//! real directory and under the crash simulator), the record codec and
//! reopen-time replay.
//!
//! A log round appends one record — one frame, a section per riding
//! shard — and pays one physical sync for it (see `crate::service`).
//! Records are `dxh_extmem::frame` frames salted with the record
//! layout's name; only the payload layout and the salt are defined here.

use std::sync::Arc;

use dxh_extmem::frame::{push_frame_with, FrameBuf, Salt, FRAME_HEADER};
use dxh_extmem::{BlobFile, ExtMemError, Key, Result};

use crate::media::{older_layout_fixed_by, StoreMedia};
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
/// `N` manifest commits. A log round frames its acknowledged batches as
/// one checksummed record and calls [`CommitLog::commit`]; per-shard
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
    /// Creates the empty log of a new service in the root `root`. The
    /// caller makes its name durable — with the directory fsync of the
    /// `SERVICE` commit — before anything is acknowledged through it: a
    /// file's own sync does not cover its name.
    pub(crate) fn create(root: &mut M) -> Result<Self> {
        Ok(CommitLog { file: root.create_file(COMMITLOG)?, poisoned: false })
    }

    /// Opens the log of an existing service in the root `root`. Nothing
    /// is acknowledged before `SERVICE` is durable, so a root whose log
    /// is missing — a file system that kept the rename but not the
    /// earlier create, or an older build that committed `SERVICE` before
    /// creating the log — lost no record: it gets an empty log, made
    /// durable before anything is acknowledged through it.
    pub(crate) fn open(root: &mut M) -> Result<Self> {
        if let Some(log) = Self::find(root)? {
            return Ok(log);
        }
        let log = Self::create(root)?;
        root.sync_dir()?;
        Ok(log)
    }

    /// Opens the log the root `root` holds, writing nothing; `None` when
    /// it has none. Refuses a log of records in a layout before
    /// [`RoundRecord`]'s ([`OLDER_LAYOUTS`]). Only a crash or a
    /// wedge of an older build leaves one (a clean close empties the
    /// log), and its records may be in no manifest: replaying them as
    /// this layout would fold garbage, and skipping them as a torn tail
    /// would lose acknowledged batches. A log holds the records of one
    /// build — an open replays and empties what it finds before it
    /// appends — so its first frame names its layout: one that fails
    /// [`LOG_SALT`]'s check but passes an older layout's. That costs a
    /// read per layout, and only when the log is not empty.
    pub(crate) fn find(root: &mut M) -> Result<Option<Self>> {
        let Some(file) = root.open_file(COMMITLOG)? else { return Ok(None) };
        let len = file.len();
        if FrameBuf::salted(LOG_SALT).read_at(&file, len, 0)?.is_none() {
            for (salt, shape, build) in OLDER_LAYOUTS {
                if FrameBuf::salted(salt).read_at(&file, len, 0)?.is_some() {
                    return Err(older_layout_fixed_by(
                        &format!("{shape} {COMMITLOG} records"),
                        &format!(
                            "open the service with the build at {build} and close it (a clean \
                             close empties the log), then reopen here"
                        ),
                    ));
                }
            }
        }
        Ok(Some(CommitLog { file, poisoned: false }))
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

    /// Walks the log's records — one a round — in append order for
    /// reopen-time replay.
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
        let (mut buf, len, mut at) = (FrameBuf::salted(LOG_SALT), self.file.len(), 0);
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

/// The salt of every commit-log frame: the name of the record layout
/// below. Each layout before it framed its records under another salt
/// ([`OLDER_LAYOUTS`]), so one of their frames fails this check and
/// passes its own — which is how [`CommitLog::find`] tells an older
/// build's log from a torn tail.
const LOG_SALT: Salt = Salt::new(b"dxh-commitlog v3");

/// The record layouts before [`LOG_SALT`]'s, newest first: the salt of
/// their frames, what the refusal calls their records, and the build
/// that reads them (and empties the log at a clean close).
/// `dxh-commitlog v2` framed one record per batch — one section, below;
/// the unsalted layout before it was `shard u32 | seq u64 | nops u32 |
/// (key u64 | tag u8 | body)*`.
const OLDER_LAYOUTS: [(Salt, &str, &str); 2] = [
    (Salt::new(b"dxh-commitlog v2"), "per-batch", "1fdeb22"),
    (Salt::NONE, "fixed-width", "dd34d79"),
];

/// One section of a log round, decoded: a shard riding the round, the
/// seq of its newest batch in the round, and the newest-wins fold of its
/// batches in the round (`None` = delete), one effect a key.
pub(crate) type Section = (u32, u64, Vec<(Key, Option<Effect>)>);

/// One log round's record, built a section at a time: a frame salted
/// with [`LOG_SALT`] whose payload is one section per shard riding the
/// round. A section is a head of LEB128 varints — `shard | seq | puts |
/// deletes | byte puts` — then the fold's effects grouped by kind: each
/// word put as `key u64 | value u64`, each delete as `key u64`, each
/// byte-payload put as `key u64 | varint len | bytes`, integers
/// little-endian. A round of one one-put batch logs 33 bytes while its
/// shard and seq are below 128: 12 of frame, 5 of head, 16 of put; each
/// further shard adds a head, and each further batch of a shard only the
/// keys its fold does not already hold. Grouping reorders the effects,
/// which changes nothing that replay restores: a fold holds each key
/// once.
///
/// The frame checksum makes a torn tail (a crash mid-append on the file
/// log) detectable, and a round indivisible: replay reads all its
/// sections or none. `seq` is the shard's batch sequence number; replay
/// skips a section at or below the shard manifest's watermark, so a
/// round surviving past its checkpoint (a truncate that failed or a
/// crash before it) cannot replay stale state over a newer manifest. A
/// section is the fold of a contiguous run of its shard's batches, so
/// replaying it over a manifest whose watermark falls inside the run is
/// exact ([`replay_log`]).
#[derive(Default)]
pub(crate) struct RoundRecord {
    payload: Vec<u8>,
}

impl RoundRecord {
    /// Appends the section of shard `shard`: `seq` is the newest of its
    /// batches in the round, `fold` their newest-wins fold.
    pub(crate) fn push_section(&mut self, shard: u32, seq: u64, fold: &[(Key, Option<Effect>)]) {
        let [mut puts, mut deletes, mut byte_puts] = [0u64; 3];
        for (_, eff) in fold {
            *match eff {
                Some(Effect::Word(_)) => &mut puts,
                None => &mut deletes,
                Some(Effect::Bytes(_)) => &mut byte_puts,
            } += 1;
        }
        for n in [u64::from(shard), seq, puts, deletes, byte_puts] {
            push_varint(&mut self.payload, n);
        }
        for (k, eff) in fold {
            if let Some(Effect::Word(v)) = eff {
                self.payload.extend_from_slice(&k.to_le_bytes());
                self.payload.extend_from_slice(&v.to_le_bytes());
            }
        }
        for (k, _) in fold.iter().filter(|(_, eff)| eff.is_none()) {
            self.payload.extend_from_slice(&k.to_le_bytes());
        }
        for (k, eff) in fold {
            if let Some(Effect::Bytes(b)) = eff {
                self.payload.extend_from_slice(&k.to_le_bytes());
                push_varint(&mut self.payload, b.len() as u64);
                self.payload.extend_from_slice(b);
            }
        }
    }

    /// The record's frame, ready for one append.
    pub(crate) fn frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER + self.payload.len());
        push_frame_with(&mut out, LOG_SALT, |out| out.extend_from_slice(&self.payload));
        out
    }
}

/// Appends `n` as an LEB128 varint: seven bits a byte, low bits first,
/// the top bit set on every byte but the last.
fn push_varint(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Takes the next `n` bytes off the front of `rest`.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, tail) = rest.split_at_checked(n)?;
    *rest = tail;
    Some(head)
}

fn take_word(rest: &mut &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(take(rest, 8)?.try_into().ok()?))
}

/// Takes one varint off the front of `rest`; `None` when it runs past
/// the end or past 64 bits.
fn take_varint(rest: &mut &[u8]) -> Option<u64> {
    let mut n = 0;
    for shift in (0..64).step_by(7) {
        let byte = take(rest, 1)?[0];
        // The tenth byte holds bit 63 alone and ends the varint.
        if shift == 63 && byte > 1 {
            return None;
        }
        n |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return Some(n);
        }
    }
    None
}

/// Takes one section off the front of `rest`; `None` when it is
/// malformed (a short head, a varint past 64 bits, a shard past `u32`,
/// counts the bytes left cannot hold, a length running past them).
fn take_section(rest: &mut &[u8]) -> Option<Section> {
    let shard = u32::try_from(take_varint(rest)?).ok()?;
    let seq = take_varint(rest)?;
    let [puts, deletes, byte_puts] = [take_varint(rest)?, take_varint(rest)?, take_varint(rest)?];
    // The counts are input: bound them by the bytes left — a word put
    // takes 16, a delete 8, a byte put at least 9 — before reserving
    // for them.
    let least = puts.checked_mul(16)?.checked_add(deletes.checked_mul(8)?)?;
    if least.checked_add(byte_puts.checked_mul(9)?)? > rest.len() as u64 {
        return None;
    }
    let mut fold = Vec::with_capacity((puts + deletes + byte_puts) as usize);
    for _ in 0..puts {
        let (k, v) = (take_word(rest)?, take_word(rest)?);
        fold.push((k, Some(Effect::Word(v))));
    }
    for _ in 0..deletes {
        fold.push((take_word(rest)?, None));
    }
    for _ in 0..byte_puts {
        let k = take_word(rest)?;
        let len = usize::try_from(take_varint(rest)?).ok()?;
        fold.push((k, Some(Effect::Bytes(Arc::from(take(rest, len)?)))));
    }
    Some((shard, seq, fold))
}

/// Parses one checksum-verified round payload into its sections, each
/// fold grouped by kind as [`RoundRecord`] wrote it; `None` when the
/// structure is malformed — no section, a malformed one, trailing bytes
/// that are no section: corruption the checksum cannot have produced,
/// so the caller stops replay there like it does at a torn frame, and
/// applies no section of the round.
fn decode_round(payload: &[u8]) -> Option<Vec<Section>> {
    let mut rest = payload;
    let mut sections = Vec::new();
    while !rest.is_empty() {
        sections.push(take_section(&mut rest)?);
    }
    (!sections.is_empty()).then_some(sections)
}

/// Replays every surviving commit-log round over the freshly opened
/// shard stores (reopen-time recovery, phase two) — one round decoded
/// and applied at a time, whatever the log's length — then hardens them
/// and empties the log. A section at or below its shard manifest's
/// persisted watermark is skipped: its effects are already in the
/// manifest fold, and the log outlives the manifests that cover it
/// whenever a crash (or a failed truncate) lands between a checkpoint's
/// hardens and its truncate, so replaying such a section could fold
/// **stale** state (an old value of a key the shard since rewrote) over
/// a newer manifest. A section above the watermark is applied whole, in
/// the original apply order, so the last write per key still wins —
/// also when the watermark falls inside the section's run of batches.
/// That happens when a manifest commit races a round: neither a
/// checkpoint's harden nor a `sync_all` fence acknowledges anything, so
/// a batch a manifest already holds still rides the next round, beside
/// newer ones. Applying such a section is exact: the watermark is the newest
/// batch the manifest holds, so for each key the fold's effect is
/// either a newer batch's or the one the manifest already holds.
pub(crate) fn replay_log<M: StoreMedia>(
    log: &mut CommitLog<M>,
    stores: &mut [KvStore<M>],
) -> Result<()> {
    if log.size() == 0 {
        return Ok(());
    }
    let mut replayed = false;
    log.for_each_record(|payload| {
        let Some(sections) = decode_round(payload) else { return Ok(false) };
        replayed = true;
        if sections.iter().any(|s| s.0 as usize >= stores.len()) {
            return Err(ExtMemError::Corrupt(
                "commit log references a shard outside the service".into(),
            ));
        }
        for (si, seq, fold) in sections {
            let store = &mut stores[si as usize];
            if seq <= store.replay_watermark() {
                continue;
            }
            for (k, eff) in fold {
                apply_write(store, k, eff.as_ref())?;
            }
            store.set_replay_watermark(seq);
        }
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
    use std::collections::BTreeMap;

    /// Every intact round of a log image, up to the first torn, corrupt
    /// or malformed frame: the in-memory reference the positional walk is
    /// held to.
    fn decode_log_rounds(bytes: &[u8]) -> Vec<Vec<Section>> {
        Frames::new(bytes, LOG_SALT).map_while(|(_, payload)| decode_round(payload)).collect()
    }

    /// What replay would see: the rounds the positional walk yields.
    fn walked(log: &mut CommitLog<SimMedia>) -> Vec<Vec<Section>> {
        let mut out = Vec::new();
        log.for_each_record(|payload| {
            let round = decode_round(payload);
            Ok(round.map(|r| out.push(r)).is_some())
        })
        .unwrap();
        out
    }

    fn round(sections: &[Section]) -> Vec<u8> {
        let mut round = RoundRecord::default();
        for (shard, seq, fold) in sections {
            round.push_section(*shard, *seq, fold);
        }
        round.frame()
    }

    /// The record of a round one batch rode alone.
    fn record(shard: u32, seq: u64, effects: &[(Key, Option<Effect>)]) -> Vec<u8> {
        round(&[(shard, seq, effects.to_vec())])
    }

    /// A log frame around an arbitrary (possibly malformed) round
    /// payload.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        push_frame_with(&mut out, LOG_SALT, |out| out.extend_from_slice(payload));
        out
    }

    fn blob(b: &[u8]) -> Option<Effect> {
        Some(Effect::Bytes(Arc::from(b)))
    }

    /// The on-disk record format, pinned byte for byte: a round of two
    /// shards, one effect of each kind handed over out of kind order in
    /// the first, and a two-byte seq in the second.
    #[test]
    fn record_bytes_are_pinned() {
        let rec = round(&[
            (1, 7, vec![(6, None), (9, blob(b"xy")), (5, Some(Effect::Word(50)))]),
            (3, 200, vec![(4, None)]),
        ]);
        let mut golden = vec![0x36, 0, 0, 0, 0xd3, 0x24, 0xe0, 0x0d, 0xa2, 0x6b, 0x50, 0x51];
        golden.extend_from_slice(&[1, 7, 1, 1, 1]); // shard, seq, puts, deletes, byte puts
        golden.extend_from_slice(&[5, 0, 0, 0, 0, 0, 0, 0, 50, 0, 0, 0, 0, 0, 0, 0]);
        golden.extend_from_slice(&[6, 0, 0, 0, 0, 0, 0, 0]);
        golden.extend_from_slice(&[9, 0, 0, 0, 0, 0, 0, 0, 2, b'x', b'y']);
        golden.extend_from_slice(&[3, 0xc8, 0x01, 0, 1, 0]); // the second section's head
        golden.extend_from_slice(&[4, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(rec, golden);
        assert_eq!(record(0, 1, &[(1, Some(Effect::Word(1)))]).len(), 33, "a one-op round");
    }

    /// The record layout the build before this one wrote — one frame per
    /// batch, salted `dxh-commitlog v2`, whose payload is one section —
    /// kept here only to build the logs an open must refuse.
    fn per_batch_record(shard: u32, seq: u64, effects: &[(Key, Option<Effect>)]) -> Vec<u8> {
        let mut section = RoundRecord::default();
        section.push_section(shard, seq, effects);
        let mut out = Vec::new();
        push_frame_with(&mut out, OLDER_LAYOUTS[0].0, |out| out.extend(section.payload));
        out
    }

    /// The helper writes what the older layout's own pinned test held.
    #[test]
    fn the_per_batch_helper_writes_the_older_layout() {
        let rec =
            per_batch_record(1, 7, &[(6, None), (9, blob(b"xy")), (5, Some(Effect::Word(50)))]);
        let mut golden = vec![0x28, 0, 0, 0, 0x53, 0x1e, 0x72, 0xae, 0x40, 0xba, 0x0e, 0x94];
        golden.extend_from_slice(&[1, 7, 1, 1, 1]); // shard, seq, puts, deletes, byte puts
        golden.extend_from_slice(&[5, 0, 0, 0, 0, 0, 0, 0, 50, 0, 0, 0, 0, 0, 0, 0]);
        golden.extend_from_slice(&[6, 0, 0, 0, 0, 0, 0, 0]);
        golden.extend_from_slice(&[9, 0, 0, 0, 0, 0, 0, 0, 2, b'x', b'y']);
        assert_eq!(rec, golden);
        assert_eq!(decode_log_rounds(&rec), Vec::<Vec<Section>>::new(), "it fails this check");
    }

    /// The record layout before that one — `shard u32 | seq u64 | nops
    /// u32 | (key u64 | tag u8 | body)*` in an unsalted frame — kept here
    /// only to build the logs an open must refuse.
    fn fixed_width_record(shard: u32, seq: u64, effects: &[(Key, Option<Effect>)]) -> Vec<u8> {
        let mut payload = Vec::new();
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
                None => payload.extend_from_slice(&[0; 9]),
            }
        }
        let mut out = Vec::new();
        dxh_extmem::frame::push_frame(&mut out, &payload);
        out
    }

    /// The helper writes what the older layout's own pinned test held.
    #[test]
    fn the_fixed_width_helper_writes_the_older_layout() {
        let rec = fixed_width_record(1, 7, &[(5, Some(Effect::Word(50))), (6, None)]);
        let mut golden = vec![0x32, 0, 0, 0, 0x41, 0x5a, 0x0d, 0x01, 0x32, 0xd3, 0xe6, 0xe9];
        golden.extend_from_slice(&[1, 0, 0, 0]); // shard
        golden.extend_from_slice(&7u64.to_le_bytes()); // seq
        golden.extend_from_slice(&[2, 0, 0, 0]); // nops
        golden.extend_from_slice(&[5, 0, 0, 0, 0, 0, 0, 0, 1, 50, 0, 0, 0, 0, 0, 0, 0]);
        golden.extend_from_slice(&[6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(rec, golden);
        assert_eq!(decode_log_rounds(&rec), Vec::<Vec<Section>>::new(), "it fails this check");
    }

    #[test]
    fn records_round_trip_and_a_torn_tail_drops_only_the_last() {
        let a = vec![(1, Some(Effect::Word(10))), (2, blob(b"xyz"))];
        let b = vec![(1, None), (3, blob(b""))];
        let mut log = record(0, 1, &a);
        log.extend(round(&[(0, 2, b.clone()), (3, 9, a.clone())]));
        assert_eq!(
            decode_log_rounds(&log),
            vec![vec![(0, 1, a.clone())], vec![(0, 2, b), (3, 9, a.clone())]]
        );
        for cut in 1..=5 {
            assert_eq!(decode_log_rounds(&log[..log.len() - cut]), vec![vec![(0, 1, a.clone())]]);
        }
    }

    /// A section head: `shard`, `seq` and the three counts, as varints.
    fn head(fields: [u64; 5]) -> Vec<u8> {
        let mut out = Vec::new();
        fields.into_iter().for_each(|n| push_varint(&mut out, n));
        out
    }

    /// Checksum-valid frames whose payload is not a round stop replay
    /// exactly like a torn frame — including counts the payload cannot
    /// hold, which must be refused *before* reserving for them. A round
    /// is refused whole: a bad section anywhere in it keeps its good
    /// ones from replay too.
    #[test]
    fn malformed_records_stop_replay() {
        let good = record(0, 1, &[(1, Some(Effect::Word(1)))]);
        let section = &good[FRAME_HEADER..]; // shard 0
        let shard_1 = &record(1, 1, &[(2, None)])[FRAME_HEADER..];
        let key = [7u8; 8];
        let overlong = [0x80; 9].into_iter().chain([2]).collect::<Vec<u8>>();
        for (why, bad) in [
            ("no section", Vec::new()),
            ("a trailing byte", [section, &[1]].concat()),
            ("a short head", section[..3].to_vec()),
            ("a short word put", section[..section.len() - 1].to_vec()),
            ("a short second section", [section, &shard_1[..shard_1.len() - 1]].concat()),
            ("a seq past 64 bits", [&[0][..], &overlong, &[0, 0, 0]].concat()),
            ("a shard past u32", head([1 << 32, 1, 0, 0, 0])),
            ("puts it cannot hold", [head([0, 1, u64::MAX / 16 + 1, 0, 0]), key.to_vec()].concat()),
            ("deletes it cannot hold", [head([0, 1, 0, 2, 0]), key.to_vec()].concat()),
            ("byte puts it cannot hold", [head([0, 1, 0, 0, 1]), key.to_vec()].concat()),
            ("counts whose sum overflows", head([0, 1, u64::MAX / 16, u64::MAX / 8, 0])),
            ("a length past the end", [head([0, 1, 0, 0, 1]), key.to_vec(), vec![4, 1]].concat()),
            ("a second section's counts", [section, &head([1, 1, 0, 2, 0]), &key].concat()),
        ] {
            assert_eq!(decode_round(&bad), None, "{why}");
            let mut log = good.clone();
            log.extend(framed(&bad));
            log.extend(&good);
            assert_eq!(decode_log_rounds(&log).len(), 1, "replay stops at {why}");
        }
    }

    /// The shown abort of an older layout: a checksum-valid log claiming
    /// more ops than its payload holds died reserving for them at open.
    /// It is a malformed record: replay sees nothing and empties the log.
    #[test]
    fn crafted_op_count_opens_to_an_emptied_log() {
        let env = SimEnv::new();
        let open = || {
            let cfg = CoreConfig::lemma5(8, 128, 2).unwrap();
            ShardedKvStore::open_on(SimMedia::unlocked(&env), 2, cfg, 1).unwrap()
        };
        open().put(1, 10).unwrap();
        let crafted = framed(&head([0, 1, u64::MAX, 0, 0])); // shard 0, seq 1
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
        CommitLog::open(&mut SimMedia::unlocked(env)).unwrap()
    }

    /// The positional walk sees what decoding the log's image saw: every
    /// record up to the first torn, corrupt or malformed frame, and none
    /// after it.
    #[test]
    fn the_walk_stops_for_good_at_a_bad_frame() {
        let (r1, r2, r3) = (word(0, 1), word(1, 2), word(0, 3));
        let mut corrupt = r2.clone();
        *corrupt.last_mut().unwrap() ^= 1;
        let malformed = framed(&r2[FRAME_HEADER..FRAME_HEADER + 8]);
        let torn = &r3[..r3.len() - 3];
        for (image, seqs) in [
            ([&r1[..], &r2, &r3].concat(), vec![1, 2, 3]),
            ([&r1[..], &r2, torn].concat(), vec![1, 2]),
            ([&r1[..], &corrupt, &r3].concat(), vec![1]),
            ([&r1[..], &malformed, &r2].concat(), vec![1]),
            (Vec::new(), vec![]),
        ] {
            let rounds = walked(&mut log_holding(&SimEnv::new(), &image));
            assert_eq!(rounds, decode_log_rounds(&image), "{image:?}");
            assert_eq!(rounds.iter().map(|r| r[0].1).collect::<Vec<_>>(), seqs);
        }
    }

    fn seqs(log: &mut CommitLog<SimMedia>) -> Vec<u64> {
        walked(log).iter().flatten().map(|section| section.1).collect()
    }

    /// The failure path under injection: a round whose append or sync
    /// fails is rolled back — its bytes never surface at replay, in this
    /// process or after a crash — and the next round succeeds.
    #[test]
    fn failed_round_is_rolled_back_and_the_next_one_commits() {
        use dxh_extmem::FaultPlan;
        for fail_sync in [false, true] {
            let env = SimEnv::new();
            let mut log = CommitLog::open(&mut SimMedia::unlocked(&env)).unwrap();
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
            let mut log = CommitLog::open(&mut SimMedia::unlocked(&env)).unwrap();
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
        let mut log = CommitLog::open(&mut SimMedia::unlocked(&env)).unwrap();
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
        let mut root = SimMedia::unlocked(env);
        let mut stores = Vec::new();
        for si in 0..2 {
            stores.push(KvStore::open_on(root.sub(&format!("shard-{si:03}"))?, cfg.clone(), 7)?);
        }
        let mut log = CommitLog::open(&mut root)?;
        replay_log(&mut log, &mut stores)?;
        for round in 0..9u64 {
            let mut record = RoundRecord::default();
            let mut riding = Vec::new();
            for (si, store) in stores.iter_mut().enumerate() {
                let (k, v) = (round * 2 + si as u64, round + 100);
                let seq = store.replay_watermark() + 1;
                store.insert(k, v)?;
                store.set_replay_watermark(seq);
                record.push_section(si as u32, seq, &[(k, Some(Effect::Word(v)))]);
                riding.push((si, k, v));
            }
            log.commit(&record.frame())?;
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

            let mut root = SimMedia::unlocked(&env);
            let cfg = CoreConfig::lemma5(4, 96, 2).unwrap();
            let mut stores: Vec<_> = (0..2)
                .map(|si| {
                    let shard = root.sub(&format!("shard-{si:03}")).unwrap();
                    KvStore::open_on(shard, cfg.clone(), 7).unwrap()
                })
                .collect();
            let mut log = CommitLog::open(&mut root).unwrap();
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
        assert_eq!(decode_log_rounds(&before).len(), 3, "k0 → 1, k1 → 1, k1 → 2");
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
        crate::store::tests::assert_refused(&env, COMMITLOG_OLD, "a883dab", || {
            let cfg = CoreConfig::lemma5(8, 128, 2).unwrap();
            ShardedKvStore::open_on(SimMedia::unlocked(&env), 2, cfg, 3)
        });
    }

    /// A service root whose `COMMITLOG` an older build left holding
    /// `records` of its layout — a crash or a wedge of that build; they
    /// may be in no manifest — is refused by name (`shape`, and the
    /// `build` that reads it) before any shard is opened, and nothing in
    /// the root or its shards changes: the log is neither replayed as
    /// garbage nor emptied as a torn tail.
    fn assert_older_log_refused(records: &[u8], shape: &str, build: &str) {
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
        let mut log = env.open_file(COMMITLOG).unwrap().unwrap();
        log.append(records).unwrap();
        log.sync().unwrap();
        crate::store::tests::assert_refused(&env, shape, build, || {
            let cfg = CoreConfig::lemma5(8, 128, 2).unwrap();
            ShardedKvStore::open_on(SimMedia::unlocked(&env), 2, cfg, 3)
        });
    }

    #[test]
    fn a_root_with_older_log_records_is_refused_touching_nothing() {
        let records = [
            fixed_width_record(0, 21, &[(0, Some(Effect::Word(7))), (3, None)]),
            fixed_width_record(1, 22, &[(1, blob(b"xyz"))]),
        ];
        assert_older_log_refused(&records.concat(), "fixed-width COMMITLOG records", "dd34d79");
    }

    #[test]
    fn a_root_with_per_batch_log_records_is_refused_touching_nothing() {
        let records = [
            per_batch_record(0, 21, &[(0, Some(Effect::Word(7))), (3, None)]),
            per_batch_record(1, 22, &[(1, blob(b"xyz"))]),
            per_batch_record(0, 22, &[(3, Some(Effect::Word(8)))]),
        ];
        assert_older_log_refused(&records.concat(), "per-batch COMMITLOG records", "1fdeb22");
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
        // One put at a time rides each round, so a round's record frames
        // one payload behind one section head, the longest seq's
        // included; the put's blob frame is shorter.
        let largest_frame = record(1, u64::MAX, &[(0, blob(&[0; 300]))]).len() as u64;
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

    /// One round whose sections meet different watermarks: shard 0's
    /// manifest already holds a newer batch than its section (a crash
    /// between a checkpoint's hardens and its truncate), shard 1's holds
    /// none of its section, and shard 2's holds part of it (batches
    /// 5..=7 over watermark 6: a manifest commit that raced the round).
    /// Replay skips the first section and applies the other two, each by
    /// its own shard's watermark; the straddling one lands exactly on
    /// batch 7's state.
    #[test]
    fn each_section_replays_or_skips_by_its_own_shards_watermark() {
        let env = SimEnv::new();
        let cfg = CoreConfig::lemma5(4, 96, 2).unwrap();
        let open = || -> Vec<KvStore<SimMedia>> {
            let root = SimMedia::unlocked(&env);
            (0..3)
                .map(|si| {
                    let shard = root.sub(&format!("shard-{si:03}")).unwrap();
                    KvStore::open_on(shard, cfg.clone(), 7).unwrap()
                })
                .collect()
        };
        let mut stores = open();
        // Shard 0's manifest holds batches through 6 (key 1 → 60), shard
        // 1's through 2 (key 2 → 20), shard 2's through 6: batch 5 put
        // key 5 → 51 and key 6 → 61, batch 6 put key 6 → 62 and deleted
        // key 9; batch 7, which it lacks, puts key 5 → 52 and key 7 → 70.
        for (si, writes, seq) in
            [(0, &[(1, 60)][..], 6), (1, &[(2, 20)][..], 2), (2, &[(5, 51), (6, 62)][..], 6)]
        {
            for &(key, value) in writes {
                stores[si].insert(key, value).unwrap();
            }
            stores[si].set_replay_watermark(seq);
            stores[si].harden().unwrap();
        }
        drop(stores);
        let word = |v| Some(Effect::Word(v));
        let image = round(&[
            (0, 5, vec![(1, word(50)), (3, word(30))]), // batches 4..=5: covered
            (1, 4, vec![(2, word(21)), (4, word(40))]), // batches 3..=4: not
            // Batches 5..=7 folded newest-wins: 6 and 9 as batch 6 left
            // them, 5 and 7 as batch 7 did.
            (2, 7, vec![(5, word(52)), (6, word(62)), (9, None), (7, word(70))]),
        ]);
        let mut log = log_holding(&env, &image);
        let mut stores = open();
        replay_log(&mut log, &mut stores).unwrap();
        assert_eq!(stores[0].lookup(1).unwrap(), Some(60), "the covered section is skipped");
        assert_eq!(stores[0].lookup(3).unwrap(), None);
        assert_eq!(stores[1].lookup(2).unwrap(), Some(21), "the other is applied");
        assert_eq!(stores[1].lookup(4).unwrap(), Some(40));
        let straddled = [5, 6, 7, 9].map(|k| stores[2].lookup(k).unwrap());
        assert_eq!(straddled, [Some(52), Some(62), Some(70), None], "batch 7's state, exactly");
        assert_eq!(stores[2].len(), 3, "nothing but batch 7's keys");
        assert_eq!([0, 1, 2].map(|si| stores[si].replay_watermark()), [6, 4, 7]);
        assert_eq!(log_bytes(&env), b"", "the replayed log is emptied");
    }

    /// A committed log round leaves exactly one frame in `COMMITLOG`,
    /// however many shards and batches ride it: each round's one append
    /// to the log starts a frame, and every frame starts at one — while
    /// submits spanning every shard put several shards' sections in one
    /// frame.
    #[test]
    fn the_log_holds_one_frame_per_log_round() {
        use dxh_extmem::IoEvent;
        let env = SimEnv::new();
        let cfg = CoreConfig::lemma5(8, 128, 2).unwrap();
        let svc = ShardedKvStore::open_on(SimMedia::unlocked(&env), 4, cfg, 3).unwrap();
        env.take_trace();
        for call in 0..40u64 {
            let ops: Vec<_> = (0..16).map(|i| crate::WriteOp::Put(call * 16 + i, i)).collect();
            svc.submit(&ops).unwrap();
        }
        let stats = svc.stats();
        let appends: Vec<u64> = env
            .take_trace()
            .iter()
            .filter_map(|e| match e {
                IoEvent::Write { file, offset, .. } if file == COMMITLOG => Some(*offset),
                _ => None,
            })
            .collect();
        let image = log_bytes(&env);
        let frames: Vec<(usize, &[u8])> = Frames::new(&image, LOG_SALT).collect();
        let (at, last) = frames.last().copied().unwrap();
        assert_eq!(at + FRAME_HEADER + last.len(), image.len(), "the log is whole frames");
        let starts: Vec<u64> = frames.iter().map(|f| f.0 as u64).collect();
        assert_eq!(starts, appends, "one frame per round's append");
        let rounds: Vec<Vec<Section>> = frames.iter().map(|f| decode_round(f.1).unwrap()).collect();
        let sections: usize = rounds.iter().map(Vec::len).sum();
        assert!(rounds.iter().any(|r| r.len() > 1), "no round carried two shards");
        let batches = stats.committed_batches;
        assert!(batches >= sections as u64, "{batches} batches, {sections} sections");
        assert!(sections > frames.len(), "{sections} sections in {} frames", frames.len());
        assert_eq!(stats.sync_rounds, frames.len() as u64, "the epoch counts log rounds");
    }

    proptest! {
        /// A round of several shards, each with several batches of word
        /// puts, deletes and byte puts (keys repeat within and across
        /// batches) round-trips through its record: per shard the newest
        /// batch's seq, and the key → effect map applying every op in
        /// order leaves.
        #[test]
        fn mixed_folds_round_trip(
            shards in proptest::collection::vec(
                (
                    any::<u32>(),
                    any::<u64>(),
                    proptest::collection::vec(
                        proptest::collection::vec(
                            (0u64..24, 0u8..3, any::<u64>(), proptest::collection::vec(any::<u8>(), 0..301)),
                            0..8,
                        ),
                        1..4,
                    ),
                ),
                1..5,
            ),
        ) {
            let mut sections = Vec::new();
            let mut want: BTreeMap<u32, (u64, BTreeMap<Key, Option<Effect>>)> = BTreeMap::new();
            for (shard, first_seq, batches) in shards {
                if want.contains_key(&shard) {
                    continue;
                }
                let mut applied = BTreeMap::new();
                let folds: Vec<Vec<(Key, Option<Effect>)>> = batches
                    .into_iter()
                    .map(|ops| {
                        let queue: Vec<(Key, Option<Effect>)> = ops
                            .into_iter()
                            .map(|(k, kind, v, b)| {
                                // Half the keys small, half spread over the word.
                                let k = if k < 12 { k } else { k.wrapping_mul(0x9E37_79B9_7F4A_7C15) };
                                match kind {
                                    0 => (k, Some(Effect::Word(v))),
                                    1 => (k, None),
                                    _ => (k, blob(&b)),
                                }
                            })
                            .collect();
                        applied.extend(queue.iter().cloned());
                        crate::service::fold_newest_wins(&[&queue])
                    })
                    .collect();
                let seq = first_seq.saturating_add(folds.len() as u64 - 1);
                let runs: Vec<&[_]> = folds.iter().map(Vec::as_slice).collect();
                sections.push((shard, seq, crate::service::fold_newest_wins(&runs)));
                want.insert(shard, (seq, applied));
            }
            let decoded = decode_log_rounds(&round(&sections));
            prop_assert_eq!(decoded.len(), 1);
            let mut got = BTreeMap::new();
            for (shard, seq, fold) in decoded.into_iter().next().unwrap() {
                let map: BTreeMap<Key, Option<Effect>> = fold.iter().cloned().collect();
                prop_assert_eq!(map.len(), fold.len(), "one effect a key");
                got.insert(shard, (seq, map));
            }
            prop_assert_eq!(got, want);
        }

        /// A round's sections folded from its batches' raw ops frame the
        /// same bytes as sections folded from each batch's own fold: the
        /// log does not depend on whether a batch is folded before its
        /// round. Shards ride with one to three batches whose few keys
        /// repeat within and across them.
        #[test]
        fn raw_and_per_batch_folds_frame_the_same_bytes(
            shards in proptest::collection::vec(
                (
                    0u32..8,
                    any::<u64>(),
                    proptest::collection::vec(
                        proptest::collection::vec(
                            (0u64..6, 0u8..3, any::<u64>(), proptest::collection::vec(any::<u8>(), 0..20)),
                            0..10,
                        ),
                        1..4,
                    ),
                ),
                1..5,
            ),
        ) {
            use crate::service::fold_newest_wins;
            let (mut raw, mut refolded) = (RoundRecord::default(), RoundRecord::default());
            for (shard, seq, batches) in shards {
                let batches: Vec<Vec<(Key, Option<Effect>)>> = batches
                    .into_iter()
                    .map(|ops| {
                        let effect = |kind, v, b: &[u8]| match kind {
                            0 => Some(Effect::Word(v)),
                            1 => None,
                            _ => blob(b),
                        };
                        ops.into_iter().map(|(k, kind, v, b)| (k, effect(kind, v, &b))).collect()
                    })
                    .collect();
                let runs: Vec<&[_]> = batches.iter().map(Vec::as_slice).collect();
                raw.push_section(shard, seq, &fold_newest_wins(&runs));
                let folds: Vec<Vec<_>> = batches.iter().map(|b| fold_newest_wins(&[b])).collect();
                let runs: Vec<&[_]> = folds.iter().map(Vec::as_slice).collect();
                refolded.push_section(shard, seq, &fold_newest_wins(&runs));
            }
            prop_assert_eq!(raw.frame(), refolded.frame());
        }

        /// Arbitrary images, and arbitrary payloads inside valid frames,
        /// never panic the decoder — and the positional walk over them
        /// stops exactly where the image scan does.
        #[test]
        fn decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..120)) {
            for image in [bytes.clone(), framed(&bytes), [word(0, 1), bytes].concat()] {
                let rounds = decode_log_rounds(&image);
                prop_assert_eq!(walked(&mut log_holding(&SimEnv::new(), &image)), rounds);
            }
        }
    }
}
