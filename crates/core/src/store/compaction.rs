//! Compaction: the table merges every level into one — a fresh level
//! file, like any flush's destination — and, in payload mode, copies the
//! payloads that level still references into the next generation of the
//! blob log; the manifest commit swaps the store over to both.

use dxh_extmem::{BlobLog, Result, Value, BLOB_TAG};
use dxh_tables::ExternalDictionary;

use super::payload::{blob_file_name, untag};
use super::{KvStore, LevelFiles};
use crate::log_method::LogMethodTable;
use crate::media::{best_effort, StoreMedia};
use crate::stream::MergeStats;

type Table<M> = LogMethodTable<LevelFiles<M>>;
type Log<M> = BlobLog<<M as StoreMedia>::File>;

impl<M: StoreMedia> KvStore<M> {
    /// Merges the whole store into one level: every live item (deletion
    /// markers and shadowed duplicates purged) streams into one region
    /// of the smallest level that holds it, in a fresh level file; the
    /// manifest commit then names that file alone and the files of the
    /// levels it read are unlinked. The region is sized like any freshly
    /// built level ([`crate::CoreConfig::fresh_level_buckets`]): by its
    /// content, at the sealed fill ([`crate::CoreConfig::sealed_fill`]).
    /// An ordinary flush already leaves nothing on disk but live levels;
    /// what only this pass reclaims is what only a merge into the
    /// deepest level can drop — shadowed copies and markers resting in
    /// shallower levels — and, in payload mode, the dead records of the
    /// blob log.
    ///
    /// One streaming pass (`LogMethodTable::merge_into_level`) reads
    /// every old block once and writes every new block once, filling the
    /// level filter and — in payload mode — copying each surviving
    /// payload into the new generation's blob log as its item lands.
    /// That pass is sized by the physical item count (markers and
    /// shadowed copies included — the live count is unknowable in O(1)
    /// memory until the purge has run). When the purge reveals that a
    /// smaller level suffices — a delete-heavy store — what it built is
    /// merged once more, right-sized (a store whose every item was
    /// deleted ends with no level at all); an insert-mostly store pays a
    /// single pass.
    ///
    /// Crash-safe at every step: the manifest rename is the single
    /// commit point, and an interrupted pass leaves the files the last
    /// manifest names intact (they are read, never written) plus stray
    /// files that the next reopen removes. If anything before the commit
    /// fails the handle is poisoned (further use errors) and what the
    /// pass was building is removed; the directory reopens to the last
    /// synced state.
    pub fn compact(&mut self) -> Result<CompactionStats> {
        self.mark_dirty()?;
        let bytes_before = self.table.disk().backend().file_bytes(None);
        let old_gen = self.data_gen;
        let stats = match self.merge_levels() {
            Ok(stats) => stats,
            Err(e) => {
                // The table is drained: the handle can no longer stand
                // for the store. The committed manifest and every file
                // it names are untouched and stay authoritative; what
                // this pass created is a stray.
                self.poisoned = true;
                self.table.disk_mut().backend_mut().unlink_uncommitted();
                for gen in old_gen + 1..=self.data_gen {
                    best_effort(self.media.remove(&blob_file_name(gen)));
                }
                return Err(e);
            }
        };
        // Commit point: a crash before this rename leaves the old
        // manifest and its files authoritative (the newer files are
        // strays); after it, the new ones are.
        self.write_manifest(false)?;
        self.dirty = false;
        for gen in old_gen..self.data_gen {
            best_effort(self.media.remove(&blob_file_name(gen)));
        }
        Ok(CompactionStats {
            live_items: stats.items,
            purged: stats.purged,
            shadowed: stats.shadowed,
            bytes_before,
            bytes_after: self.table.disk().backend().file_bytes(None),
        })
    }

    /// Everything of a compaction that can fail before its commit
    /// point: merges every level into one and, when the purge shows a
    /// shallower level holds the survivors, that one once more; syncs
    /// the blob log the last pass wrote (the level file's sync is the
    /// commit's).
    fn merge_levels(&mut self) -> Result<MergeStats> {
        let items_before = self.table.len();
        let k1 = self.table.compaction_level(items_before);
        let (media, gen) = (&mut self.media, &mut self.data_gen);
        let mut stats = Self::merge_pass(media, gen, &mut self.table, &mut self.blob, k1)?;
        let k2 = self.table.compaction_level(stats.items);
        if k2 < k1 && stats.items > 0 {
            let pass2 = Self::merge_pass(media, gen, &mut self.table, &mut self.blob, k2)?;
            debug_assert_eq!(pass2.items, stats.items, "pass 1 already purged everything");
            stats.shadowed += pass2.shadowed;
            stats.purged += pass2.purged;
        }
        // The new log is fdatasync'd before the manifest commit can
        // reference it (`blob-sync-before-index-commit`).
        self.blob_sync()?;
        Ok(stats)
    }

    /// One pass: `table` merges itself into a single level-`k` region
    /// and, in payload mode, `blob` becomes a fresh log of the next
    /// generation holding only the payloads that region still
    /// references — deleted and superseded ones are the old log's dead
    /// weight. Each payload is copied old log to new log as its item
    /// lands, and the item's tagged word becomes its new offset: the new
    /// log is in destination-bucket order.
    fn merge_pass(
        media: &mut M,
        gen: &mut u64,
        table: &mut Table<M>,
        blob: &mut Option<Log<M>>,
        k: usize,
    ) -> Result<MergeStats> {
        let Some(old_log) = blob.as_mut() else {
            return table.merge_into_level(k, None);
        };
        *gen += 1;
        let mut new_log = BlobLog::create(media.create_file(&blob_file_name(*gen))?)?;
        let mut remap = |word: Value| -> Result<Value> {
            let payload = old_log.get(untag(word)?)?;
            let (offset, _len) = new_log.append(payload)?;
            Ok(BLOB_TAG | offset)
        };
        let stats = table.merge_into_level(k, Some(&mut remap))?;
        *blob = Some(new_log);
        Ok(stats)
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
    /// Bytes of level files before the pass.
    pub bytes_before: u64,
    /// Bytes of level files after the pass.
    pub bytes_after: u64,
}

#[cfg(test)]
mod tests {
    use std::fs;

    use dxh_extmem::ExtMemError;

    use super::super::tests::*;
    use super::*;
    use crate::config::CoreConfig;
    use crate::media::is_data_file;

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
        let bytes_before = s.footprint().unwrap().data_bytes;
        let on_disk = |dir: &std::path::Path| -> u64 {
            let files = dir_files(dir).into_iter().filter(|f| is_data_file(f));
            files.map(|f| fs::metadata(dir.join(f)).unwrap().len()).sum()
        };
        assert_eq!(bytes_before, on_disk(&dir));
        let stats = s.compact().unwrap();
        assert_eq!(stats.bytes_before, bytes_before);
        assert_eq!(stats.bytes_after, on_disk(&dir), "the files it read are gone");
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
        assert_eq!(dir_files(&dir), named_files(&s));
        assert_eq!(s.table().disk().backend().file_count(), 1, "one level, one file");
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
        assert_eq!(stats.bytes_after, 0, "an empty store compacts to no file at all");
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
        assert_eq!(stats.bytes_after, 0, "all-deleted store compacts to no level");
        assert!(s.footprint().unwrap().levels.is_empty());
        assert_eq!(dir_files(&dir), named_files(&s), "the manifest and nothing else");
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
        assert!(s.footprint().is_err(), "footprint on poisoned handle");
        // Trait methods whose signatures cannot error must not panic
        // (len reports the drained table; documented).
        let _ = s.len();
        let _ = s.disk_stats();
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

    /// Regression: payload-mode `compact` remaps the new generation's
    /// index words *after* flushing it, and used to commit the manifest
    /// over those unsynced block writes (`rename-after-data-fsync`, 123
    /// of them here). The data fsync is now part of every dirty
    /// manifest commit, whoever calls it.
    #[test]
    fn payload_compaction_commits_only_synced_index_blocks() {
        use crate::media::SimMedia;
        use dxh_extmem::SimEnv;
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

    /// Block reads and writes per level file since the trace was last
    /// taken, as `name → (reads, writes, reads of a block read before)`,
    /// with the files in the order they were first touched.
    fn block_census(env: &dxh_extmem::SimEnv) -> Vec<(String, (u64, u64, u64))> {
        use dxh_extmem::IoEvent;
        let mut census: Vec<(String, (u64, u64, u64))> = Vec::new();
        let mut read = std::collections::HashSet::new();
        for event in env.take_trace() {
            let (file, read_of) = match event {
                IoEvent::ReadAt { file, offset, .. } => (file, Some(offset)),
                IoEvent::Write { file, .. } => (file, None),
                _ => continue,
            };
            if !file.ends_with(".blk") {
                continue;
            }
            let at = census.iter().position(|(name, _)| *name == file).unwrap_or_else(|| {
                census.push((file.clone(), (0, 0, 0)));
                census.len() - 1
            });
            let counts = &mut census[at].1;
            match read_of {
                Some(id) => {
                    counts.0 += 1;
                    counts.2 += u64::from(!read.insert((file, id)));
                }
                None => counts.1 += 1,
            }
        }
        census
    }

    /// The block census of a compaction at the deployed geometry, level
    /// file by level file: every file the store held is read once per
    /// block and never written, a file the pass builds is written once
    /// per block of the region it ends up holding and read only if a
    /// second pass right-sizes it, and the final one is never read — its
    /// filter is filled, and in payload mode its index words are
    /// remapped, as the items land. The compacted blob log holds the
    /// surviving payloads in destination-bucket order: the byte image
    /// the two-walk compaction (rebuild, then remap) produced.
    #[test]
    fn a_level_file_is_written_once_and_the_final_one_never_read() {
        use crate::media::SimMedia;
        use dxh_extmem::frame::fnv1a64;
        use dxh_extmem::SimEnv;
        let deployed = CoreConfig::lemma5(64, 4096, 2).unwrap();
        // (payload mode, keys, keys then deleted) → per level file built,
        // in order, its (reads, writes); the compacted blob log's name
        // and (length, fingerprint).
        type Blob<'a> = Option<(&'a str, (u64, u64))>;
        type Case<'a> = (bool, u64, u64, &'a [(u64, u64)], Blob<'a>);
        let cases: [Case; 4] = [
            (false, 20_000, 0, &[(0, 418)], None),
            (true, 20_000, 0, &[(0, 418)], Some(("store.1.blob", BLOB_SINGLE_PASS))),
            (
                true,
                20_000,
                15_000,
                &[(539, 539), (0, 105)],
                Some(("store.2.blob", BLOB_TWO_PASSES)),
            ),
            (false, 200_000, 0, &[(0, 4_225)], None),
        ];
        for (payloads, keys, deleted, built, blob) in cases {
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
            let old_files = named_files(&s);
            let (old_blocks, before) = (level_blocks(&mut s), s.disk_stats());
            env.take_trace();
            let stats = s.compact().unwrap();
            assert_eq!(stats.live_items as u64, keys - deleted, "{when}");
            let census = block_census(&env);
            let (old, new): (Vec<_>, Vec<_>) =
                census.iter().partition(|(file, _)| old_files.contains(file));
            assert!(
                old.iter().all(|(_, (_, writes, again))| (*writes, *again) == (0, 0)),
                "{when}"
            );
            let old_reads: u64 = old.iter().map(|(_, (reads, _, _))| reads).sum();
            assert_eq!(old_reads, old_blocks, "{when}: the old levels, once per block");
            let new: Vec<(u64, u64)> = new
                .iter()
                .map(|(file, (reads, writes, again))| {
                    assert_eq!(*again, 0, "{when}: {file}");
                    (*reads, *writes)
                })
                .collect();
            assert_eq!(new, built, "{when}");
            let (_, writes) = built.last().expect("a file");
            assert_eq!(*writes, level_blocks(&mut s), "{when}: every block of the region, once");
            let io = s.disk_stats().since(&before);
            let (reads, writes): (u64, u64) =
                built.iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            assert_eq!((io.reads, io.writes), (old_blocks + reads, writes), "{when}: accounted");
            assert_eq!(sim_files(&env), named_files(&s), "{when}");
            if let Some((name, (len, fingerprint))) = blob {
                let log = env.read_file(name).unwrap().expect("the log");
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
    /// them (recorded from it). The first was re-recorded when commits
    /// began to image `H0`: the sync before the compaction leaves 1 568
    /// items in `H0`, one more merge source, and the same payloads land
    /// in another order inside their destination buckets (the length is
    /// unchanged; it was `0xadf4_f999_af5a_69a2`).
    const BLOB_SINGLE_PASS: (u64, u64) = (1_149_810, 0xe64f_c8fc_8ec8_5db6);
    const BLOB_TWO_PASSES: (u64, u64) = (287_490, 0xfb60_06eb_97fa_8c22);
}
