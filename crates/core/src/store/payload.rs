//! Payload mode: values are byte strings in an append-only blob log,
//! the table is the index over it.

use dxh_extmem::{check_key, ExtMemError, Key, Result, Value, BLOB_TAG};
use dxh_tables::ExternalDictionary;

use super::KvStore;
use crate::media::StoreMedia;

/// The payload blob log of generation `gen`: compaction writes the next
/// generation under its final name and the manifest commit that names
/// the level holding the remapped index words names it too — no rename
/// is ever needed, and index words and the log they point into always
/// come from one commit.
pub(super) fn blob_file_name(gen: u64) -> String {
    if gen == 0 {
        "store.blob".to_string()
    } else {
        format!("store.{gen}.blob")
    }
}

/// Strips [`BLOB_TAG`] from a payload-mode index word. An untagged word
/// in a payload-mode table can only mean index/log disagreement —
/// corruption, never a user error.
pub(super) fn untag(word: Value) -> Result<u64> {
    if word & BLOB_TAG == 0 {
        return Err(ExtMemError::Corrupt(format!(
            "payload-mode index word {word:#x} lacks the blob tag"
        )));
    }
    Ok(word & !BLOB_TAG)
}

impl<M: StoreMedia> KvStore<M> {
    /// Whether this store runs in payload mode (opened via
    /// [`KvStore::open_payload`]).
    pub fn payload_mode(&self) -> bool {
        self.blob.is_some()
    }

    /// The blob log's current length in bytes (0 on a raw store) —
    /// footprint reporting, and what the next manifest commit records as
    /// the committed payload length.
    pub fn blob_len(&self) -> u64 {
        self.blob.as_ref().map_or(0, |log| log.len())
    }

    /// The sync choke point of the payload write path: `fdatasync`s the
    /// blob log (no-op on a raw store). Ordered before every index
    /// commit by [`KvStore::harden`] and [`KvStore::compact`].
    pub(super) fn blob_sync(&mut self) -> Result<()> {
        match self.blob.as_mut() {
            Some(log) => log.sync(),
            None => Ok(()),
        }
    }

    /// Inserts `key → payload` (payload mode only): the bytes are
    /// appended to the blob log and the index word becomes
    /// `BLOB_TAG | offset`. The **full byte domain** is storable — there
    /// is no in-band sentinel on this path (see the sentinel-domain note
    /// on [`dxh_extmem::VALUE_TOMBSTONE`]); only key `u64::MAX` stays
    /// reserved (it is the slot-level sentinel everywhere). Durability
    /// follows the store's sync points: the payload is crash-recoverable
    /// after the next [`KvStore::sync`] / harden. The mode, the key and
    /// the payload's bounds are checked first and poison nothing; a put
    /// that fails after them poisons the handle, like a failed insert.
    pub fn put_bytes(&mut self, key: Key, payload: &[u8]) -> Result<()> {
        let Some(log) = &self.blob else {
            return Err(ExtMemError::BadConfig(
                "store was opened without payload mode; use insert".into(),
            ));
        };
        check_key(key)?;
        log.frame_len(payload)?;
        self.mark_dirty()?;
        let appended = self.blob.as_mut().expect("payload mode checked above").append(payload);
        let put = appended.and_then(|(offset, _)| self.table.insert(key, BLOB_TAG | offset));
        self.poison_on_failure(put)
    }

    /// Looks up `key`'s payload (payload mode only): one index probe,
    /// then one positional read of the record the index word points at,
    /// into the log's single record buffer — the payload is lent out of
    /// that buffer until the next call, and nothing of the log stays in
    /// memory behind it. The record's checksum is verified on **every**
    /// read, so an index word that frames no record, or a record that
    /// rotted since open, is [`ExtMemError::Corrupt`] for this key alone
    /// (other keys keep reading; the handle is neither poisoned nor
    /// dirtied). In the paper's currency a payload lookup costs
    /// `tq + 1`: the index's accounted block reads plus the fetch, which
    /// [`KvStore::blob_io`] counts. `None` when absent or deleted.
    pub fn get_bytes(&mut self, key: Key) -> Result<Option<&[u8]>> {
        self.check_poisoned()?;
        if self.blob.is_none() {
            return Err(ExtMemError::BadConfig(
                "store was opened without payload mode; use lookup".into(),
            ));
        }
        let Some(word) = self.table.lookup(key)? else {
            return Ok(None);
        };
        let offset = untag(word)?;
        let log = self.blob.as_mut().expect("payload mode checked above");
        Ok(Some(log.get(offset)?))
    }

    /// The payload log's read I/O since this handle opened — positional
    /// reads issued and bytes asked for, `(count, bytes)`; `(0, 0)` on a
    /// raw store. Counted apart from `total_ios` / `disk_stats`, which
    /// stay the index's accounted block transfers (the paper's `tu` and
    /// `tq`): a `get_bytes` hit adds one read here on top of its `tq`
    /// there. The open-time verification walk of the committed prefix is
    /// included, so measure a phase by difference; a
    /// [`KvStore::compact`] starts the count over with the new log.
    pub fn blob_io(&self) -> (u64, u64) {
        self.blob.as_ref().map_or((0, 0), |log| log.reads())
    }
}

#[cfg(test)]
mod tests {
    use std::fs;

    use super::super::tests::*;
    use super::*;

    #[test]
    fn payload_store_round_trips_bytes_and_the_full_word_domain() {
        let dir = tmp_dir("payload-roundtrip");
        let _ = fs::remove_dir_all(&dir);
        {
            let mut s = KvStore::open_payload(&dir, cfg(), 21).unwrap();
            assert!(s.payload_mode());
            for k in 0..400u64 {
                s.put_bytes(k, &payload_for(k)).unwrap();
            }
            // Satellite: the deletion marker is out-of-band here, so the
            // raw path's reserved word is an ordinary value in payload
            // mode — both as an 8-byte payload and via the word API.
            s.insert(500, u64::MAX).unwrap();
            s.put_bytes(501, &u64::MAX.to_le_bytes()).unwrap();
            assert_eq!(s.lookup(500).unwrap(), Some(u64::MAX));
            assert_eq!(s.lookup(501).unwrap(), Some(u64::MAX));
            assert!(s.delete(500).unwrap());
            assert_eq!(s.get_bytes(500).unwrap(), None);
        } // drop syncs
        let mut s = KvStore::open_payload(&dir, cfg(), 21).unwrap();
        for k in 0..400u64 {
            assert_eq!(s.get_bytes(k).unwrap(), Some(payload_for(k).as_slice()), "key {k}");
        }
        assert_eq!(s.get_bytes(500).unwrap(), None, "delete survives reopen");
        assert_eq!(s.lookup(501).unwrap(), Some(u64::MAX));
        // A non-8-byte payload is not a word.
        s.put_bytes(502, b"hello").unwrap();
        assert!(matches!(s.lookup(502), Err(ExtMemError::BadConfig(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_mode_is_a_store_property_checked_at_reopen() {
        let dir = tmp_dir("payload-mode");
        let _ = fs::remove_dir_all(&dir);
        KvStore::open_payload(&dir, cfg(), 22).unwrap().put_bytes(1, b"x").unwrap();
        let Err(err) = KvStore::open(&dir, cfg(), 22) else {
            panic!("raw open of a payload store must fail");
        };
        assert!(matches!(err, ExtMemError::BadConfig(_)), "got: {err}");
        let _ = fs::remove_dir_all(&dir);
        KvStore::open(&dir, cfg(), 22).unwrap().insert(1, 1).unwrap();
        let Err(err) = KvStore::open_payload(&dir, cfg(), 22) else {
            panic!("payload open of a raw store must fail");
        };
        assert!(matches!(err, ExtMemError::BadConfig(_)), "got: {err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_api_on_a_raw_store_is_rejected() {
        let dir = tmp_dir("payload-raw");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open(&dir, cfg(), 23).unwrap();
        assert!(matches!(s.put_bytes(1, b"x"), Err(ExtMemError::BadConfig(_))));
        assert!(matches!(s.get_bytes(1), Err(ExtMemError::BadConfig(_))));
        // The raw path keeps its documented sentinel rejection.
        assert!(matches!(s.insert(1, u64::MAX), Err(ExtMemError::BadConfig(_))));
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_crash_recovers_committed_payloads_and_drops_unsynced_ones() {
        use crate::media::SimMedia;
        use dxh_extmem::{FaultPlan, SimEnv};
        let env = SimEnv::new();
        let mut s = KvStore::open_payload_on(SimMedia::open(&env).unwrap(), cfg(), 25).unwrap();
        for k in 0..200u64 {
            s.put_bytes(k, &payload_for(k)).unwrap();
        }
        s.sync().unwrap();
        env.set_plan(FaultPlan::crash(env.ops() + 150, 17));
        let mut died = false;
        for k in 200..2000u64 {
            if s.put_bytes(k, &payload_for(k)).is_err() {
                died = true;
                break;
            }
        }
        assert!(died, "the crash point fires inside the unsynced churn");
        drop(s);
        env.power_cycle();
        let mut s = KvStore::open_payload_on(SimMedia::open(&env).unwrap(), cfg(), 25).unwrap();
        for k in 0..200u64 {
            assert_eq!(
                s.get_bytes(k).unwrap(),
                Some(payload_for(k).as_slice()),
                "synced payload {k} survives the crash"
            );
        }
    }

    /// An index word with a flipped bit, and a payload byte that rots
    /// after the open verified it, each fail the one `get_bytes` that
    /// meets them — as corruption, never as whatever bytes happen to
    /// frame there (which a bounds-only read would serve) — while every
    /// other key keeps reading and the handle stays usable and clean.
    #[test]
    fn a_bad_index_word_or_a_rotted_record_fails_that_one_get_bytes() {
        use dxh_extmem::frame::FRAME_HEADER;
        use std::os::unix::fs::FileExt;
        let dir = tmp_dir("payload-tamper");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open_payload(&dir, cfg(), 26).unwrap();
        for k in 0..60u64 {
            s.put_bytes(k, &payload_for(k)).unwrap();
        }
        s.sync().unwrap();
        let others_read = |s: &mut KvStore, bad: u64| {
            for k in (0..60u64).filter(|&k| k != bad) {
                assert_eq!(s.get_bytes(k).unwrap(), Some(payload_for(k).as_slice()), "key {k}");
            }
        };

        // An index word one bit off: it lands inside key 7's record.
        let word = s.table.lookup(7).unwrap().expect("indexed");
        for bit in [0, 2, 5] {
            s.table.insert(7, word ^ (1 << bit)).unwrap();
            let err = s.get_bytes(7).unwrap_err();
            assert!(matches!(err, ExtMemError::Corrupt(_)), "bit {bit}: {err}");
            assert!(matches!(s.lookup(7), Err(ExtMemError::Corrupt(_))), "the word API too");
            others_read(&mut s, 7);
        }
        s.table.insert(7, word).unwrap();
        assert_eq!(s.get_bytes(7).unwrap(), Some(payload_for(7).as_slice()));
        s.sync().unwrap();

        // A payload byte flipped on disk, behind the open handle's back.
        let at = untag(s.table.lookup(9).unwrap().expect("indexed")).unwrap();
        let blob = fs::OpenOptions::new().write(true).open(dir.join("store.blob")).unwrap();
        let first = payload_for(9)[0];
        blob.write_at(&[first ^ 0x40], at + FRAME_HEADER as u64).unwrap();
        let err = s.get_bytes(9).unwrap_err();
        assert!(matches!(err, ExtMemError::Corrupt(_)), "{err}");
        others_read(&mut s, 9);
        assert!(!s.dirty && s.poisoned.is_none(), "a failed read changes nothing");
        // The key is rewritable, and a reopen refuses the rotted prefix.
        s.put_bytes(9, b"rewritten").unwrap();
        assert_eq!(s.get_bytes(9).unwrap(), Some(&b"rewritten"[..]));
        drop(s);
        let reopened = KvStore::open_payload(&dir, cfg(), 26);
        assert!(matches!(reopened, Err(ExtMemError::Corrupt(_))), "G8: hard error at open");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The payload fetch under the simulator: it is the last I/O of a
    /// `get_bytes`, one ranged read of `store.blob` (two when the record
    /// is longer than the last one read), never longer than the log's
    /// largest frame; a transient fault on it fails that call and nothing
    /// else — the retry succeeds, the handle is neither poisoned nor
    /// dirtied — and an append is readable before its sync.
    #[test]
    fn a_transient_payload_read_fault_fails_one_get_bytes() {
        use crate::media::SimMedia;
        use dxh_extmem::frame::FRAME_HEADER;
        use dxh_extmem::{FaultPlan, IoEvent, SimEnv};
        let env = SimEnv::new();
        let mut s = KvStore::open_payload_on(SimMedia::open(&env).unwrap(), cfg(), 27).unwrap();
        for k in 0..200u64 {
            s.put_bytes(k, &payload_for(k)).unwrap();
        }
        s.sync().unwrap();
        for k in [3u64, 150, 77] {
            env.take_trace();
            let (before, reads_before) = (env.ops(), s.blob_io());
            assert_eq!(s.get_bytes(k).unwrap(), Some(payload_for(k).as_slice()));
            let ios = env.ops() - before;
            let trace = env.take_trace();
            let largest_frame = (FRAME_HEADER + 90) as u64; // `payload_for` tops out at 90 bytes
            let fetch: Vec<u64> = trace
                .iter()
                .filter_map(|e| match e {
                    IoEvent::ReadAt { file, len, .. } if file == "store.blob" => Some(*len),
                    _ => None,
                })
                .collect();
            assert!(matches!(trace.last(), Some(IoEvent::ReadAt { .. })), "the fetch goes last");
            assert_eq!(fetch.iter().sum::<u64>(), s.blob_io().1 - reads_before.1);
            assert_eq!(fetch.len() as u64, s.blob_io().0 - reads_before.0);
            assert!(fetch.len() <= 2 && fetch.iter().all(|&n| n <= largest_frame), "{fetch:?}");

            // The index probe repeats I/O for I/O; the fetch follows it.
            let probe_ios = ios - fetch.len() as u64;
            env.set_plan(FaultPlan { fail_at: vec![env.ops() + probe_ios], ..Default::default() });
            let err = s.get_bytes(k).unwrap_err();
            assert!(matches!(err, ExtMemError::Io(_)), "key {k}: {err}");
            assert!(!s.dirty && s.poisoned.is_none(), "a failed read changes nothing");
            assert_eq!(s.get_bytes(k).unwrap(), Some(payload_for(k).as_slice()), "the retry");
        }
        assert!(!s.dirty, "reads, failed or not, leave nothing to commit");
        s.put_bytes(999, b"not yet synced").unwrap();
        assert_eq!(s.get_bytes(999).unwrap(), Some(&b"not yet synced"[..]));
    }
}
