//! Compaction: the table rebuilds itself onto a fresh generation of the
//! data file (and, in payload mode, of the blob log), and the manifest
//! commit swaps the store over to it.

use dxh_extmem::{BlobLog, Result, Value, BLOB_TAG};
use dxh_hashfn::IdealFn;
use dxh_tables::ExternalDictionary;

use super::payload::{blob_file_name, untag};
use super::{data_file_name, fresh_gen_disk, KvStore};
use crate::log_method::LogMethodTable;
use crate::media::{remove_stale_generations, StoreMedia};
use crate::stream::MergeStats;

type Table<M> = LogMethodTable<IdealFn, <M as StoreMedia>::Backend>;
type Log<M> = BlobLog<<M as StoreMedia>::File>;

impl<M: StoreMedia> KvStore<M> {
    /// Rewrites the data file densely: every live item (deletion markers
    /// and shadowed duplicates purged) streams into one region of the
    /// smallest level that holds it, in a fresh generation-named
    /// file; the manifest commit then atomically swaps the store over to
    /// it and the old file is unlinked. Afterwards the file holds
    /// exactly the live data footprint (plus that region's slack —
    /// "within one level-region"). The region is sized like any freshly
    /// built level ([`crate::CoreConfig::fresh_level_buckets`]): by its
    /// content, at the sealed fill ([`crate::CoreConfig::sealed_fill`]).
    ///
    /// The table rebuilds itself onto the new file
    /// (`LogMethodTable::rebuild_onto`): one streaming pass reads every
    /// old block once and writes every new block once, filling the level
    /// filter and — in payload mode — copying each surviving payload
    /// into the new generation's blob log as its item lands. That pass
    /// is sized by the physical item count (markers and shadowed copies
    /// included — the live count is unknowable in O(1) memory until the
    /// purge has run). When the purge reveals that a smaller level
    /// suffices — a delete-heavy store — what it built rebuilds itself
    /// once more, right-sized (a store whose every item was deleted
    /// right-sizes to an empty file); an insert-mostly store pays a
    /// single pass.
    ///
    /// Crash-safe at every step: the manifest rename is the single
    /// commit point, and an interrupted pass leaves either the old or
    /// the new (file, manifest) pair fully intact plus stray files that
    /// the next reopen removes. If anything before the commit fails the
    /// handle is poisoned (further use errors) and the files of the
    /// unfinished generation are removed; the directory reopens to the
    /// last synced state.
    ///
    /// I/O counters restart from zero: the store now sits on a fresh
    /// accounting disk.
    pub fn compact(&mut self) -> Result<CompactionStats> {
        self.mark_dirty()?;
        let bytes_before = self.media.data_len(&data_file_name(self.data_gen));
        let (new_gen, stats) = match self.rebuild_generations() {
            Ok(rebuilt) => rebuilt,
            Err(e) => {
                // The table is drained (or replaced by one no manifest
                // names): the handle can no longer stand for the store.
                // The committed (file, manifest) pair is untouched and
                // stays authoritative; every other generation is a stray.
                self.poisoned = true;
                let blob_keep = blob_file_name(self.data_gen);
                let blob_keep = self.blob.is_some().then_some(blob_keep.as_str());
                remove_stale_generations(
                    &mut self.media,
                    &data_file_name(self.data_gen),
                    blob_keep,
                );
                return Err(e);
            }
        };
        self.data_gen = new_gen;
        // Commit point: a crash before this rename leaves the old
        // manifest + old file authoritative (the newer files are strays);
        // after it, the new pair is.
        self.write_manifest(true)?;
        self.dirty = false;
        let (new_name, blob_name) = (data_file_name(new_gen), blob_file_name(new_gen));
        remove_stale_generations(
            &mut self.media,
            &new_name,
            self.blob.is_some().then_some(&blob_name),
        );
        let bytes_after = self.media.data_len(&new_name);
        Ok(CompactionStats {
            live_items: stats.items,
            purged: stats.purged,
            shadowed: stats.shadowed,
            bytes_before,
            bytes_after,
        })
    }

    /// Everything of a compaction that can fail before its commit
    /// point: builds the next generation from the current one and, when
    /// the purge shows a shallower level holds the survivors, the one
    /// after from that; syncs the last built and installs it as the
    /// handle's table and blob log. Returns its generation number for
    /// the manifest to name.
    fn rebuild_generations(&mut self) -> Result<(u64, MergeStats)> {
        let items_before = self.table.len();
        let k1 = self.table.compaction_level(items_before);
        let mut gen = self.data_gen + 1;
        let (mut table, mut blob, mut stats) =
            Self::next_generation(&mut self.media, gen, &mut self.table, self.blob.as_mut(), k1)?;
        let k2 = self.table.compaction_level(stats.items);
        if k2 < k1 || (stats.items == 0 && items_before > 0) {
            gen += 1;
            let (dense, dense_blob, pass2) =
                Self::next_generation(&mut self.media, gen, &mut table, blob.as_mut(), k2)?;
            debug_assert_eq!(pass2.items, stats.items, "pass 1 already purged everything");
            stats.shadowed += pass2.shadowed;
            stats.purged += pass2.purged;
            (table, blob) = (dense, dense_blob);
        }
        table.disk_mut().flush()?;
        self.table = table; // old table (and its file handle) dropped here
        self.blob = blob;
        // The new log is fdatasync'd before the manifest commit can
        // reference it (`blob-sync-before-index-commit`).
        self.blob_sync()?;
        Ok((gen, stats))
    }

    /// Generation `gen` of the store, built from `table` (and, in
    /// payload mode, `blob`): a fresh data file into which `table`
    /// rebuilds itself as one level-`k` region, and a fresh blob log
    /// holding only the payloads that region still references — deleted
    /// and superseded ones are the old log's dead weight. Each payload
    /// is copied old log to new log as its item lands, and the item's
    /// tagged word becomes its new offset: the new log is in
    /// destination-bucket order. Leaves `table` drained.
    fn next_generation(
        media: &mut M,
        gen: u64,
        table: &mut Table<M>,
        blob: Option<&mut Log<M>>,
        k: usize,
    ) -> Result<(Table<M>, Option<Log<M>>, MergeStats)> {
        let disk = fresh_gen_disk(media, &data_file_name(gen), table.config())?;
        let Some(old_log) = blob else {
            let (rebuilt, stats) = table.rebuild_onto(disk, k, None)?;
            return Ok((rebuilt, None, stats));
        };
        let mut new_log = BlobLog::create(media.create_file(&blob_file_name(gen))?)?;
        let mut remap = |word: Value| -> Result<Value> {
            let payload = old_log.get(untag(word)?)?;
            let (offset, _len) = new_log.append(payload)?;
            Ok(BLOB_TAG | offset)
        };
        let (rebuilt, stats) = table.rebuild_onto(disk, k, Some(&mut remap))?;
        Ok((rebuilt, Some(new_log), stats))
    }
}

/// What one [`KvStore::compact`] pass accomplished.
#[derive(Clone, Copy, Debug)]
pub struct CompactionStats {
    /// Live items written to the dense region.
    pub live_items: usize,
    /// Deletion markers purged.
    pub purged: usize,
    /// Shadowed (stale duplicate or deleted) copies dropped.
    pub shadowed: usize,
    /// Data-file size before the pass, in bytes.
    pub bytes_before: u64,
    /// Data-file size after the pass, in bytes.
    pub bytes_after: u64,
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::fs;

    use dxh_extmem::{ExtMemError, StorageBackend};

    use super::super::tests::*;
    use super::*;
    use crate::config::CoreConfig;
    use crate::media::DATA;

    #[test]
    fn compact_shrinks_the_file_to_the_live_footprint() {
        let dir = tmp_dir("compact");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open(&dir, cfg(), 51).unwrap();
        for k in 0..2000u64 {
            s.insert(k, k).unwrap();
        }
        // Delete 80% and churn updates so markers and shadowed copies
        // pile up.
        for k in 0..2000u64 {
            if k % 5 != 0 {
                assert!(s.delete(k).unwrap());
            }
        }
        for k in (0..2000u64).step_by(5) {
            s.insert(k, k * 2).unwrap();
        }
        s.sync().unwrap();
        let bytes_before = fs::metadata(s.data_path().unwrap()).unwrap().len();
        let stats = s.compact().unwrap();
        assert_eq!(stats.bytes_before, bytes_before);
        assert!(stats.bytes_after < stats.bytes_before, "file shrank: {stats:?}");
        assert_eq!(stats.live_items, 400, "exactly the live keys survive");
        assert_eq!(s.len(), 400);
        // 400 items seal H3 (capacity 512, H2's is 256): ⌈800/8⌉ buckets.
        assert_eq!(s.table().level_geometry()[3], (400, 100));
        // Within one level-region of the live footprint: the region is
        // sized by the smallest level holding the items, at load ≤ 1/2.
        let c = cfg();
        let k_level =
            (1..64u32).find(|&k| c.level_capacity(k) >= 400).expect("some level holds 400 items");
        let block_bytes = 24 + 16 * c.b as u64;
        let max_bytes = c.level_buckets(k_level) * block_bytes + 2 * block_bytes;
        assert!(
            stats.bytes_after <= max_bytes,
            "dense file {} ≤ one level-region {max_bytes}",
            stats.bytes_after
        );
        // The dense store answers exactly like before, including across
        // a reopen (the manifest swap committed the new generation).
        for k in 0..2000u64 {
            let expect = (k % 5 == 0).then_some(k * 2);
            assert_eq!(s.lookup(k).unwrap(), expect, "key {k} after compact");
        }
        drop(s);
        let mut s = KvStore::open(&dir, cfg(), 51).unwrap();
        for k in 0..2000u64 {
            let expect = (k % 5 == 0).then_some(k * 2);
            assert_eq!(s.lookup(k).unwrap(), expect, "key {k} after reopen");
        }
        // The superseded generation-0 file is gone.
        assert!(!dir.join(DATA).exists(), "old data file unlinked");
        assert!(s.data_path().unwrap().exists());
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_on_an_empty_store_and_twice_in_a_row() {
        let dir = tmp_dir("compact-empty");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open(&dir, cfg(), 52).unwrap();
        let stats = s.compact().unwrap();
        assert_eq!(stats.live_items, 0);
        assert_eq!(stats.bytes_after, 0, "an empty store compacts to an empty file");
        s.insert(1, 10).unwrap();
        s.compact().unwrap();
        let again = s.compact().unwrap();
        assert_eq!(again.live_items, 1);
        assert_eq!(s.lookup(1).unwrap(), Some(10));
        drop(s);
        let mut s = KvStore::open(&dir, cfg(), 52).unwrap();
        assert_eq!(s.lookup(1).unwrap(), Some(10));
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_after_deleting_everything_yields_an_empty_file() {
        let dir = tmp_dir("compact-all-dead");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open(&dir, cfg(), 53).unwrap();
        for k in 0..800u64 {
            s.insert(k, k).unwrap();
        }
        s.sync().unwrap();
        for k in 0..800u64 {
            assert!(s.delete(k).unwrap());
        }
        // Pass 1 is sized by the physical pre-purge count; once the
        // purge reveals nothing is live, the commit must not keep a
        // region sized for the dead data.
        let stats = s.compact().unwrap();
        assert_eq!(stats.live_items, 0);
        assert_eq!(stats.bytes_after, 0, "all-deleted store compacts to an empty file");
        assert_eq!(fs::metadata(s.data_path().unwrap()).unwrap().len(), 0);
        assert_eq!(s.lookup(3).unwrap(), None);
        // The emptied store keeps working: reinsert, compact, reopen.
        s.insert(9, 90).unwrap();
        assert_eq!(s.lookup(9).unwrap(), Some(90));
        drop(s);
        let mut s = KvStore::open(&dir, cfg(), 53).unwrap();
        assert_eq!(s.lookup(3).unwrap(), None);
        assert_eq!(s.lookup(9).unwrap(), Some(90));
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_handle_errors_on_every_method_and_drop_is_quiet() {
        use crate::media::SimMedia;
        use dxh_extmem::SimEnv;
        let env = SimEnv::new();
        let mut s = KvStore::open_on(SimMedia::open(&env).unwrap(), cfg(), 63).unwrap();
        for k in 0..600u64 {
            s.insert(k, k + 1).unwrap();
        }
        s.sync().unwrap();
        s.insert(9000, 1).unwrap(); // dirty, unsynced
                                    // Burn the fuse a few ops into the compaction streaming pass:
                                    // the table is drained by then, so the failure must poison.
        env.fail_after(5);
        let err = s.compact().unwrap_err();
        assert!(matches!(err, ExtMemError::Io(_)), "got: {err}");
        // The device heals, but the handle must stay poisoned: answering
        // from the drained table would report every synced key absent.
        env.set_plan(dxh_extmem::FaultPlan::default());
        assert!(s.insert(1, 2).is_err(), "insert on poisoned handle");
        assert!(s.lookup(1).is_err(), "lookup on poisoned handle");
        assert!(s.delete(1).is_err(), "delete on poisoned handle");
        assert!(s.sync().is_err(), "sync on poisoned handle");
        assert!(s.compact().is_err(), "compact on poisoned handle");
        assert!(s.data_path().is_err(), "data_path on poisoned handle");
        // Trait methods whose signatures cannot error must not panic
        // (len reports the drained table; documented).
        let _ = s.len();
        let _ = s.disk_stats();
        let _ = s.cost_model();
        let _ = s.memory_used();
        let _ = s.block_capacity();
        drop(s); // must not panic and must not commit the drained state
        let mut s = KvStore::open_on(SimMedia::open(&env).unwrap(), cfg(), 63).unwrap();
        for k in (0..600u64).step_by(7) {
            assert_eq!(s.lookup(k).unwrap(), Some(k + 1), "synced key {k} intact after poison");
        }
        assert_eq!(s.lookup(9000).unwrap(), None, "unsynced insert died with the poisoned handle");
    }

    #[test]
    fn compact_rewrites_the_live_prefix_of_the_blob_log() {
        let dir = tmp_dir("payload-compact");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open_payload(&dir, cfg(), 24).unwrap();
        for k in 0..300u64 {
            s.put_bytes(k, &payload_for(k)).unwrap();
        }
        // Overwrites and deletes strand dead frames in the log.
        for k in 0..300u64 {
            s.put_bytes(k, &payload_for(k + 1000)).unwrap();
        }
        for k in (0..300u64).step_by(3) {
            assert!(s.delete(k).unwrap());
        }
        let before = s.blob_len();
        s.compact().unwrap();
        let after = s.blob_len();
        assert!(after < before, "live-prefix rewrite shrinks the log: {after} !< {before}");
        for k in 0..300u64 {
            let expect = (k % 3 != 0).then(|| payload_for(k + 1000));
            assert_eq!(s.get_bytes(k).unwrap(), expect.as_deref(), "key {k} after compact");
        }
        drop(s);
        // The compacted generation reopens clean.
        let mut s = KvStore::open_payload(&dir, cfg(), 24).unwrap();
        for k in 0..300u64 {
            let expect = (k % 3 != 0).then(|| payload_for(k + 1000));
            assert_eq!(s.get_bytes(k).unwrap(), expect.as_deref(), "key {k} after reopen");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Block reads and writes per data (`.blk`) file since the trace was
    /// last taken, as `name → (reads, writes, reads of a block read before)`.
    fn block_census(env: &dxh_extmem::SimEnv) -> BTreeMap<String, (u64, u64, u64)> {
        use dxh_extmem::IoEvent;
        let mut census = BTreeMap::new();
        let mut read = std::collections::HashSet::new();
        for event in env.take_trace() {
            match event {
                IoEvent::Read { file, id } if file.ends_with(".blk") => {
                    let entry: &mut (u64, u64, u64) = census.entry(file.clone()).or_default();
                    entry.0 += 1;
                    entry.2 += u64::from(!read.insert((file, id)));
                }
                IoEvent::Write { file, .. } if file.ends_with(".blk") => {
                    census.entry(file).or_default().1 += 1;
                }
                _ => {}
            }
        }
        census
    }

    /// The block census of a compaction at the deployed geometry: the
    /// old file is read once per block, a generation's file is written
    /// once per block of the region it ends up holding and read only if
    /// a second pass right-sizes it, and the final one is never read —
    /// its filter is filled, and in payload mode its index words are
    /// remapped, as the items land. The compacted blob log holds the
    /// surviving payloads in destination-bucket order: the byte image
    /// the two-walk compaction (rebuild, then remap) produced.
    #[test]
    fn a_generation_is_written_once_and_the_final_one_never_read() {
        use crate::media::SimMedia;
        use dxh_extmem::frame::fnv1a64;
        use dxh_extmem::SimEnv;
        let deployed = CoreConfig::lemma5(64, 4096, 2).unwrap();
        // (payload mode, keys, keys then deleted) → per generation file
        // written, its (reads, writes); the compacted blob log's
        // (length, fingerprint).
        type Case<'a> = (bool, u64, u64, &'a [(&'a str, (u64, u64))], Option<(u64, u64)>);
        let cases: [Case; 4] = [
            (false, 20_000, 0, &[("store.1.blk", (0, 418))], None),
            (true, 20_000, 0, &[("store.1.blk", (0, 418))], Some(BLOB_SINGLE_PASS)),
            (
                true,
                20_000,
                15_000,
                &[("store.1.blk", (539, 539)), ("store.2.blk", (0, 105))],
                Some(BLOB_TWO_PASSES),
            ),
            (false, 200_000, 0, &[("store.1.blk", (0, 4_225))], None),
        ];
        for (payloads, keys, deleted, generations, blob) in cases {
            let when = format!("payloads: {payloads}, {keys} keys, {deleted} deleted");
            let env = SimEnv::new();
            let media = SimMedia::open(&env).unwrap();
            let mut s = match payloads {
                true => KvStore::open_payload_on(media, deployed.clone(), 5).unwrap(),
                false => KvStore::open_on(media, deployed.clone(), 5).unwrap(),
            };
            for k in 0..keys {
                match payloads {
                    true => s.put_bytes(k, &payload_for(k)).unwrap(),
                    false => s.insert(k, k + 1).unwrap(),
                }
            }
            for k in 0..deleted {
                assert!(s.delete(k).unwrap());
            }
            s.sync().unwrap();
            let old_blocks = s.table().disk().backend().live_blocks();
            env.take_trace();
            let stats = s.compact().unwrap();
            assert_eq!(stats.live_items as u64, keys - deleted, "{when}");
            let census = block_census(&env);
            assert_eq!(census[DATA], (old_blocks, 0, 0), "{when}: the old file, once per block");
            assert_eq!(census.len(), 1 + generations.len(), "{when}: {census:?}");
            for (name, (reads, writes)) in generations {
                assert_eq!(census[*name], (*reads, *writes, 0), "{when}: {name}");
            }
            let (last, (_, writes)) = generations.last().expect("a generation");
            let chains: u64 = s.table.level_chain_blocks().unwrap().iter().sum();
            let buckets: u64 = s.table().level_geometry().iter().skip(1).map(|l| l.1).sum();
            assert_eq!(*writes, buckets + chains, "{when}: every block of the region, once");
            assert_eq!(s.disk_stats().writes, *writes, "{when}: the handle's counters agree");
            if let Some((len, fingerprint)) = blob {
                let log = env.read_file(&last.replace(".blk", ".blob")).unwrap().expect("the log");
                assert_eq!((log.len() as u64, fnv1a64(&log)), (len, fingerprint), "{when}");
                assert_eq!(s.blob_len(), len, "{when}");
            }
            for k in (0..keys).step_by(97) {
                let expect = (k >= deleted).then(|| payload_for(k));
                match payloads {
                    true => assert_eq!(s.get_bytes(k).unwrap(), expect.as_deref(), "{when}: {k}"),
                    false => assert_eq!(s.lookup(k).unwrap(), expect.map(|_| k + 1), "{when}: {k}"),
                }
            }
        }
    }

    /// `(length, fnv1a64)` of `store.1.blob` after compacting 20 000
    /// payloads, and of `store.2.blob` after compacting what 15 000
    /// deletes left of them — as the compaction this one replaced wrote
    /// them (recorded from it).
    const BLOB_SINGLE_PASS: (u64, u64) = (1_149_810, 0xadf4_f999_af5a_69a2);
    const BLOB_TWO_PASSES: (u64, u64) = (287_490, 0xfb60_06eb_97fa_8c22);
}
