//! Reopen: the manifest's claims checked against the creation
//! parameters and the data file, the one-time legacy-chain fold, and the
//! recovery walk that recomputes the free list after a crash.

use dxh_extmem::{BlobLog, BlockId, Disk, ExtMemError, PersistentBackend, Result};
use dxh_hashfn::IdealFn;

use super::manifest::{apply_manifest_deltas, corrupt, Manifest};
use super::payload::blob_file_name;
use super::{data_file_name, KvStore, ManifestIoStats};
use crate::log_method::LogMethodTable;
use crate::media::{clean_marker, remove_stale_generations, StoreMedia, MANIFEST_DELTA};
use crate::stream::Region;

impl<M: StoreMedia> KvStore<M> {
    pub(super) fn reopen(
        mut media: M,
        text: &str,
        expected_b: usize,
        payloads: bool,
    ) -> Result<Self> {
        let mut m = Manifest::parse(text)?;
        // The one-time upgrade of a store an earlier version left with
        // an outstanding `MANIFEST.DELTA` chain: every intact frame is a
        // commit point newer than the manifest — its commit-log segment
        // may already be discarded — so it is folded in here (torn
        // tails, broken sequences and stale-epoch frames are discarded
        // inside) and committed as an ordinary manifest below.
        let chain = media.read_file(MANIFEST_DELTA)?;
        let folded = match &chain {
            Some(bytes) => apply_manifest_deltas(&mut m, bytes)? > 0,
            None => false,
        };
        if m.cfg.b != expected_b {
            return Err(ExtMemError::BadConfig(format!(
                "store was created with b = {}, caller asked for b = {expected_b}",
                m.cfg.b
            )));
        }
        match (&m.blob, payloads) {
            (Some(_), false) => {
                return Err(ExtMemError::BadConfig(
                    "store is in payload mode; reopen it with open_payload".into(),
                ))
            }
            (None, true) => {
                return Err(ExtMemError::BadConfig(
                    "store was created without payload mode; reopen it with open".into(),
                ))
            }
            _ => {}
        }
        // A region at level k has between one bucket and the level's full
        // bucket count — a level is sized by what landed in it (see
        // `fresh_level_buckets`), and a harden's flush of a partial `H0`
        // may land a handful of items — and holds at most the level's
        // capacity. A persisted `m`, `gamma`, bucket or item count outside
        // that is corruption — caught here, before `H0`, the filters or
        // anything else is sized from them, and before an item count is
        // ever summed.
        for (k, region) in m.levels.iter().enumerate() {
            let Some(r) = region else { continue };
            let (k, cfg) = (k as u32, &m.cfg);
            let buckets = 1..=cfg.level_buckets(k);
            if !buckets.contains(&r.buckets) || r.items > cfg.level_capacity(k) {
                return Err(corrupt("level region does not match the creation parameters"));
            }
            if r.base.raw().checked_add(r.buckets).is_none_or(|end| end > m.slots) {
                return Err(corrupt("level region outside the recorded slots"));
            }
        }
        // (Capacities saturate at deep levels, so the bound above alone
        // does not keep the sum in range.)
        if m.levels.iter().flatten().try_fold(0usize, |n, r| n.checked_add(r.items)).is_none() {
            return Err(corrupt("level item counts overflow"));
        }
        let data_name = data_file_name(m.data_gen);
        let mut backend = media.open_data(&data_name, m.cfg.b)?;
        if backend.slots() < m.slots {
            // The file lost blocks the manifest references: real corruption.
            return Err(ExtMemError::Corrupt(format!(
                "manifest records {} slots, file holds only {}",
                m.slots,
                backend.slots()
            )));
        }
        if m.v1 {
            // Pre-deletion store: prove it holds no value this version
            // would misread as the deletion marker. Runs while every
            // slot is still live, so every region block is readable.
            scan_reserved_values(&mut backend, &m.levels)?;
        }
        if !folded && clean_marker(&mut media)? && backend.slots() == m.slots {
            // Clean shutdown: no block write happened after the manifest,
            // so it describes the file exactly and the free list is safe
            // to recycle from. Legacy frames never carried a free list,
            // so a folded chain forces the recovery walk below.
            backend.restore_free_list(m.free)?;
        } else {
            // Crash recovery: the manifest's free list is stale (post-sync
            // flushes built levels in once-free slots and past its slot
            // count), but the manifest's regions are intact — no flush
            // writes into a level, and frees after the crash-point sync
            // were quarantined, never recycled. Walking those regions
            // (primaries plus chains)
            // therefore yields the exact live set; every unreachable slot
            // is a crash orphan, returned to the free list so it is
            // recycled before the file grows. An unreadable walk (torn
            // block metadata) falls back to keeping every slot live —
            // the pre-GC behavior: space leaked, correctness kept.
            if let Ok(free) = scan_region_free(&mut backend, &m.levels) {
                backend.restore_free_list(free)?;
            }
        }
        backend.set_defer_recycling(true);
        let disk = Disk::new(backend, m.cfg.b, m.cfg.cost);
        let table = LogMethodTable::from_parts(disk, m.cfg, IdealFn::from_seed(m.seed), m.levels)?;
        // The blob log recovers to the committed length the manifest
        // covers: a crash tail (torn or unsynced appends the index never
        // referenced) is truncated away, and the committed prefix is
        // verified frame by frame before any offset is served.
        let blob_name = blob_file_name(m.data_gen);
        let blob = match m.blob {
            Some(committed) => {
                let file = media.open_file(&blob_name)?.ok_or_else(|| {
                    ExtMemError::Corrupt(format!("manifest names a missing blob log {blob_name}"))
                })?;
                Some(BlobLog::open(file, committed)?)
            }
            None => None,
        };
        // Strays from an interrupted compaction (either side of its
        // manifest commit) are unreferenced whole files: remove them.
        remove_stale_generations(&mut media, &data_name, blob.is_some().then_some(&blob_name));
        let mut store = KvStore {
            table,
            blob,
            seed: m.seed,
            data_gen: m.data_gen,
            dirty: false,
            poisoned: false,
            watermark: m.watermark,
            epoch: m.epoch,
            manifest_io: ManifestIoStats::default(),
            media,
        };
        if chain.is_some() {
            if folded {
                // The next epoch makes the folded frames stale, so the
                // fold stays one-time even if the unlink below is lost.
                store.write_manifest(false)?;
            }
            store.media.remove(MANIFEST_DELTA)?;
            store.media.sync_dir()?;
        }
        Ok(store)
    }
}

/// Computes the free-slot list of `backend` by walking every region's
/// buckets and overflow chains: reachable ⇒ live, everything else free.
/// Errors (out-of-range ids, undecodable blocks, a block reached twice —
/// shared or cyclic chain tails, only possible under corruption) abort
/// the walk so the caller can fall back to all-live.
pub(super) fn scan_region_free<B: PersistentBackend>(
    backend: &mut B,
    levels: &[Option<Region>],
) -> Result<Vec<u64>> {
    let slots = backend.slots();
    let mut live = vec![false; slots as usize];
    for region in levels.iter().flatten() {
        let read = |id: BlockId| {
            let reached = live.get_mut(id.raw() as usize).ok_or_else(|| {
                ExtMemError::Corrupt(format!("chain pointer {id:?} outside the data file"))
            })?;
            if std::mem::replace(reached, true) {
                return Err(ExtMemError::Corrupt(format!("block {id:?} is chained twice")));
            }
            backend.read(id)
        };
        region.walk(0..region.buckets, slots, read, |_, _, _| Ok(()))?;
    }
    Ok((0..slots).filter(|&i| !live[i as usize]).collect())
}

/// Walks every region's buckets and chains of a **format v1** store
/// looking for a live value equal to [`VALUE_TOMBSTONE`]. v1 binaries
/// had no deletion, so `u64::MAX` was an ordinary value; this version
/// reserves it as the deletion marker, and silently reinterpreting such
/// a store would turn those keys into permanent deletions at the next
/// merge. Refusing the open keeps the data intact (the binary that wrote
/// the store still reads it). A clean v1 store upgrades to v2 at its
/// next manifest write; until then each reopen re-runs this scan.
fn scan_reserved_values<B: PersistentBackend>(
    backend: &mut B,
    levels: &[Option<Region>],
) -> Result<()> {
    let slots = backend.slots();
    for region in levels.iter().flatten() {
        region.walk(
            0..region.buckets,
            slots,
            |id| backend.read(id),
            |_, _, block| match block.items().iter().find(|it| it.is_delete_marker()) {
                Some(item) => Err(ExtMemError::BadConfig(format!(
                    "store format v1 holds value u64::MAX for key {} — this version \
                     reserves that value as the deletion marker; refusing to \
                     reinterpret it (reopen with the binary that wrote the store)",
                    item.key
                ))),
                None => Ok(()),
            },
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::fs;

    use dxh_extmem::{FileDisk, StorageBackend, Value};
    use dxh_tables::ExternalDictionary;

    use super::super::manifest::{MAGIC, MAGIC_V1};
    use super::super::tests::*;
    use super::*;
    use crate::config::CoreConfig;
    use crate::media::{CLEAN, DATA, MANIFEST};

    #[test]
    fn crash_after_unsynced_growth_recovers_to_last_sync_point() {
        let dir = tmp_dir("crash");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open(&dir, cfg(), 12).unwrap();
        for k in 0..300u64 {
            s.insert(k, k).unwrap();
        }
        s.sync().unwrap();
        // Keep inserting past the sync: H0 flushes grow the block file,
        // but no manifest records the growth. Then "crash" (no Drop).
        for k in 300..900u64 {
            s.insert(k, k).unwrap();
        }
        crash(s);
        // Reopen recovers to the sync point instead of refusing to open.
        let mut s = KvStore::open(&dir, cfg(), 12).unwrap();
        for k in 0..300u64 {
            assert_eq!(s.lookup(k).unwrap(), Some(k), "synced key {k} survives the crash");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_without_file_growth_is_not_misread_as_clean() {
        // A crash can land after writes that only touched existing or
        // recycled slots (file length unchanged). The slot count then
        // matches the manifest, but the absent CLEAN marker must still
        // force recovery mode: the stale free list is not trusted —
        // instead the region walk recomputes liveness exactly.
        let dir = tmp_dir("no-growth");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open(&dir, cfg(), 22).unwrap();
        for k in 0..600u64 {
            s.insert(k, k).unwrap();
        }
        s.sync().unwrap();
        let manifest = fs::read(dir.join(MANIFEST)).unwrap();
        // Simulate the crash window: marker gone (a mutation began), no
        // newer manifest, file length unchanged.
        fs::remove_file(dir.join(CLEAN)).unwrap();
        crash(s);
        let mut s = KvStore::open(&dir, cfg(), 22).unwrap();
        let backend = s.table().disk().backend();
        assert_eq!(
            backend.live_blocks() as usize + backend.free_count(),
            backend.slots() as usize,
            "every slot is either walked live or reclaimed"
        );
        for k in (0..600u64).step_by(17) {
            assert_eq!(s.lookup(k).unwrap(), Some(k));
        }
        let recovered_free = s.table().disk().backend().free_list();
        drop(s);
        // The recovered handle was never mutated, but the marker its drop
        // leaves may only follow a manifest carrying its own free list:
        // same regions, the *recovered* list, and `CLEAN` over them.
        let before = Manifest::parse(std::str::from_utf8(&manifest).unwrap()).unwrap();
        let after = Manifest::parse(&fs::read_to_string(dir.join(MANIFEST)).unwrap()).unwrap();
        assert_eq!(after.levels, before.levels, "nothing moved");
        assert_eq!(after.free, recovered_free);
        assert!(dir.join(CLEAN).exists());
        // Marker present and slot count unchanged: this reopen trusts it.
        let s = KvStore::open(&dir, cfg(), 22).unwrap();
        let backend = s.table().disk().backend();
        assert_eq!(backend.slots(), after.slots);
        assert_eq!(backend.free_list(), after.free);
        assert_every_slot_accounted(&s);
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression: a handle that recovered from a crash and was dropped
    /// untouched used to write `CLEAN` over the *pre-crash* manifest,
    /// whose free list predates the in-place merges that linked
    /// once-free slots into manifest-referenced chains — and the next
    /// reopen trusted it (`unallocated block id B5646`: the store no
    /// longer opened).
    #[test]
    fn a_recovered_handle_dropped_untouched_reopens() {
        let dir = tmp_dir("recovered-drop");
        let _ = fs::remove_dir_all(&dir);
        let cfg = CoreConfig::lemma5(4, 96, 2).unwrap();
        let mut s = KvStore::open(&dir, cfg.clone(), 22).unwrap();
        for k in 0..2600u64 {
            s.insert(k, k).unwrap();
        }
        s.sync().unwrap();
        for k in 2600..2650u64 {
            s.insert(k, k).unwrap();
        }
        crash(s);
        drop(KvStore::open(&dir, cfg.clone(), 22).unwrap()); // recovers; never touched
        assert!(dir.join(CLEAN).exists(), "an untouched drop still closes cleanly");
        let mut s = KvStore::open(&dir, cfg, 22).unwrap();
        assert_every_slot_accounted(&s);
        for k in 0..2600u64 {
            assert_eq!(s.lookup(k).unwrap(), Some(k), "synced key {k}");
        }
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_recovery_gc_returns_orphans_and_recycles_them_before_growth() {
        let dir = tmp_dir("gc");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open(&dir, cfg(), 41).unwrap();
        for k in 0..300u64 {
            s.insert(k, k).unwrap();
        }
        s.sync().unwrap();
        // Unsynced growth: merges rebuild regions into fresh slots and
        // quarantine the old ones; none of it reaches a manifest.
        for k in 300..1200u64 {
            s.insert(k, k).unwrap();
        }
        crash(s);
        let mut s = KvStore::open(&dir, cfg(), 41).unwrap();
        let backend = s.table().disk().backend();
        let slots_after_recovery = backend.slots();
        let orphans = backend.free_count();
        assert!(orphans > 0, "the crash stranded unreferenced blocks");
        assert_eq!(
            backend.live_blocks() + orphans as u64,
            slots_after_recovery,
            "GC accounts for every slot"
        );
        // Everything from the sync point is still there.
        for k in 0..300u64 {
            assert_eq!(s.lookup(k).unwrap(), Some(k), "synced key {k}");
        }
        // New work recycles the orphans before the file grows: with
        // hundreds of reclaimed slots, this round of inserts (plus its
        // region rebuilds) fits entirely in recycled space.
        for k in 2000..2100u64 {
            s.insert(k, k).unwrap();
        }
        assert_eq!(
            s.table().disk().backend().slots(),
            slots_after_recovery,
            "orphans are reallocated before the file grows"
        );
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_recovery_gc_matches_manifest_free_list_when_nothing_moved() {
        // If the crash happened before any post-sync write, the region
        // walk must rediscover exactly the manifest's free list.
        let dir = tmp_dir("gc-exact");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open(&dir, cfg(), 43).unwrap();
        for k in 0..800u64 {
            s.insert(k, k).unwrap();
        }
        s.sync().unwrap();
        let text = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        let manifest_free = Manifest::parse(&text).unwrap().free;
        fs::remove_file(dir.join(CLEAN)).unwrap();
        crash(s);
        let s = KvStore::open(&dir, cfg(), 43).unwrap();
        let mut walked = s.table().disk().backend().free_list();
        walked.sort_unstable();
        let mut expected = manifest_free;
        expected.sort_unstable();
        assert_eq!(walked, expected, "region walk rediscovers the free list exactly");
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_manifest_without_reserved_values_reopens_and_upgrades() {
        let dir = tmp_dir("v1-upgrade");
        let _ = fs::remove_dir_all(&dir);
        {
            let mut s = KvStore::open(&dir, cfg(), 77).unwrap();
            for k in 0..300u64 {
                s.insert(k, k + 1).unwrap();
            }
        } // drop syncs
          // Rewrite the manifest as the pre-deletion format.
        let path = dir.join(MANIFEST);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace(MAGIC, MAGIC_V1)).unwrap();
        {
            let mut s = KvStore::open(&dir, cfg(), 77).unwrap();
            assert_eq!(s.lookup(5).unwrap(), Some(6));
            s.insert(1000, 1).unwrap();
            s.sync().unwrap();
        }
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(MAGIC), "upgraded to v2 at the next sync");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_store_holding_the_reserved_value_is_refused() {
        use dxh_extmem::VALUE_TOMBSTONE;
        let dir = tmp_dir("v1-reserved");
        let _ = fs::remove_dir_all(&dir);
        {
            let mut s = KvStore::open(&dir, cfg(), 78).unwrap();
            for k in 0..300u64 {
                s.insert(k, k + 1).unwrap();
            }
        }
        // Doctor one persisted value to u64::MAX — legal data under a
        // v1 (no-deletion) binary, reserved by this one.
        let manifest = Manifest::parse(&fs::read_to_string(dir.join(MANIFEST)).unwrap()).unwrap();
        let mut backend = FileDisk::open(&dir.join(DATA), cfg().b).unwrap();
        let mut occupied = None;
        for region in manifest.levels.iter().flatten() {
            let (buckets, slots) = (0..region.buckets, backend.slots());
            region
                .walk(
                    buckets,
                    slots,
                    |id| backend.read(id),
                    |_, id, blk| {
                        if occupied.is_none() && !blk.items().is_empty() {
                            occupied = Some((id, blk.clone()));
                        }
                        Ok(())
                    },
                )
                .unwrap();
        }
        let (id, mut blk) = occupied.expect("store has at least one persisted item");
        blk.items_mut()[0].value = VALUE_TOMBSTONE;
        backend.write(id, &blk).unwrap();
        backend.sync().unwrap();
        drop(backend);
        let path = dir.join(MANIFEST);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace(MAGIC, MAGIC_V1)).unwrap();
        let err = match KvStore::open(&dir, cfg(), 78) {
            Err(e) => e,
            Ok(_) => panic!("v1 store holding u64::MAX must be refused"),
        };
        assert!(err.to_string().contains("reserves that value"), "got: {err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_data_file_from_interrupted_compaction_is_removed_on_reopen() {
        let dir = tmp_dir("stray");
        let _ = fs::remove_dir_all(&dir);
        {
            let mut s = KvStore::open(&dir, cfg(), 53).unwrap();
            s.insert(1, 1).unwrap();
        }
        // A compaction that died before its manifest commit leaves the
        // next generation's file behind.
        fs::write(dir.join("store.1.blk"), vec![0u8; 1024]).unwrap();
        let mut s = KvStore::open(&dir, cfg(), 53).unwrap();
        assert_eq!(s.lookup(1).unwrap(), Some(1));
        assert!(!dir.join("store.1.blk").exists(), "stray removed");
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_crash_recovers_to_the_last_sync_point() {
        use crate::media::SimMedia;
        use dxh_extmem::{FaultPlan, SimEnv};
        let env = SimEnv::new();
        let mut s = KvStore::open_on(SimMedia::open(&env).unwrap(), cfg(), 62).unwrap();
        for k in 0..300u64 {
            s.insert(k, k).unwrap();
        }
        s.sync().unwrap();
        env.set_plan(FaultPlan::crash(env.ops() + 200, 9));
        let mut died = false;
        for k in 300..2000u64 {
            if s.insert(k, k).is_err() {
                died = true;
                break;
            }
        }
        assert!(died, "the crash point fires inside the unsynced churn");
        drop(s); // best-effort drop sync fails quietly on the dead machine
        env.power_cycle();
        let mut s = KvStore::open_on(SimMedia::open(&env).unwrap(), cfg(), 62).unwrap();
        for k in 0..300u64 {
            assert_eq!(s.lookup(k).unwrap(), Some(k), "synced key {k} survives");
        }
        let backend = s.table().disk().backend();
        assert_eq!(
            backend.live_blocks() + backend.free_count() as u64,
            backend.slots(),
            "recovery accounts for every slot"
        );
    }

    /// Keys and values of the upgrade-fold scenario: `0..120` are under
    /// the marker-setting manifest, `120..200` only in the chain's frame.
    const FOLD_KEYS: u64 = 200;

    /// Builds what an earlier version left behind when it was killed with
    /// one checkpoint outstanding: a marker-setting `MANIFEST`, and the
    /// later state as frame 1 of a `MANIFEST.DELTA` chain (the state
    /// lines of this version's own checkpoint manifest, hand-framed).
    /// Returns the epoch the chain extends.
    fn legacy_store_with_an_outstanding_chain(env: &dxh_extmem::SimEnv) -> u64 {
        let mut s = sim_store(env);
        for k in 0..120u64 {
            s.insert(k, 1).unwrap();
        }
        s.set_replay_watermark(4);
        s.sync().unwrap();
        let base_text = manifest_text(env);
        for k in 120..FOLD_KEYS {
            s.insert(k, 2).unwrap();
        }
        s.set_replay_watermark(9);
        s.harden(false).unwrap();
        let later_text = manifest_text(env);
        sim_crash(env, s, 3);
        let (base, later) =
            (Manifest::parse(&base_text).unwrap(), Manifest::parse(&later_text).unwrap());
        let mut frame = format!("delta {} 1\n", base.epoch);
        for line in later_text.lines() {
            let key = line.split(' ').next().unwrap();
            if ["blob", "watermark", "slots", "levels", "level"].contains(&key) {
                frame.push_str(line);
                frame.push('\n');
            }
        }
        for (k, region) in base.levels.iter().enumerate() {
            if region.is_some() && later.levels.get(k).copied().flatten().is_none() {
                frame.push_str(&format!("clearlevel {k}\n"));
            }
        }
        assert!(frame.contains("\nlevel "), "{frame}");
        put_file(env, MANIFEST, base_text.as_bytes());
        put_file(env, MANIFEST_DELTA, &delta_frame(&frame));
        base.epoch
    }

    /// What a reopened fold-scenario store answers and where it keeps it.
    fn fold_state(s: &mut KvStore<crate::SimMedia>) -> (Vec<Option<Value>>, Vec<Option<Region>>) {
        let answers = (0..FOLD_KEYS).map(|k| s.lookup(k).unwrap()).collect();
        (answers, s.table.persisted_levels().to_vec())
    }

    /// Reopens the fold scenario and checks it came through: every
    /// hardened key, no chain, a manifest past the chain's epoch.
    fn assert_folded(env: &dxh_extmem::SimEnv, base_epoch: u64, what: &str) {
        let mut s = sim_store(env);
        let (answers, _) = fold_state(&mut s);
        for (k, got) in answers.iter().enumerate() {
            assert_eq!(*got, Some(1 + (k as u64 >= 120) as u64), "{what}: key {k}");
        }
        assert_eq!(s.replay_watermark(), 9, "{what}");
        assert_every_slot_accounted(&s);
        assert!(env.read_file(MANIFEST_DELTA).unwrap().is_none(), "{what}: chain left behind");
        assert!(Manifest::parse(&manifest_text(env)).unwrap().epoch > base_epoch, "{what}");
        sim_crash(env, s, 4);
    }

    /// The upgrade of a store an earlier version left with an outstanding
    /// chain: the first reopen serves every hardened key, commits the
    /// folded state as an ordinary manifest at a later epoch and removes
    /// the chain; the fold never happens twice, whichever of its I/Os
    /// fails or is cut off by a crash.
    #[test]
    fn a_parent_written_chain_is_folded_once() {
        use dxh_extmem::{FaultPlan, IoEvent, SimEnv};
        let env = SimEnv::new();
        let base_epoch = legacy_store_with_an_outstanding_chain(&env);
        let start = env.ops();
        assert_folded(&env, base_epoch, "first reopen");
        let mut s = sim_store(&env);
        let state = fold_state(&mut s);
        sim_crash(&env, s, 4);
        assert_eq!(fold_state(&mut sim_store(&env)), state, "a second crash-reopen");
        let removals = env
            .take_trace()
            .iter()
            .filter(|e| matches!(e, IoEvent::Meta { label, .. } if label == "file-remove MANIFEST.DELTA"))
            .count();
        assert_eq!(removals, 1, "three reopens, one fold");
        // The folding reopen's own I/Os, measured on a twin.
        let twin = SimEnv::new();
        legacy_store_with_an_outstanding_chain(&twin);
        let s = sim_store(&twin);
        let window = twin.ops() - start;
        drop(s);

        // Every I/O of the folding reopen fails once (the unlink among
        // them), or is where the machine dies: the next reopen finds the
        // chain folded already — stale by its epoch — or folds it then.
        let mut stale_chains_skipped = 0;
        for k in 0..window {
            for crash_seed in [None, Some(0), Some(1), Some(2)] {
                let env = SimEnv::new();
                let base_epoch = legacy_store_with_an_outstanding_chain(&env);
                assert_eq!(env.ops(), start, "the scenario is deterministic");
                env.set_plan(match crash_seed {
                    Some(seed) => FaultPlan::crash(start + k, seed),
                    None => FaultPlan { fail_at: vec![start + k], ..Default::default() },
                });
                let opened = crate::SimMedia::open(&env)
                    .and_then(|media| KvStore::open_on(media, cfg(), 84));
                if let Ok(s) = opened {
                    env.set_plan(FaultPlan::crash(env.ops(), 7));
                    drop(s);
                }
                env.power_cycle();
                let chain_survived = env.read_file(MANIFEST_DELTA).unwrap().is_some();
                let committed = Manifest::parse(&manifest_text(&env)).unwrap().epoch > base_epoch;
                stale_chains_skipped += (chain_survived && committed) as u32;
                assert_folded(&env, base_epoch, &format!("I/O {k}, crash seed {crash_seed:?}"));
            }
        }
        assert!(stale_chains_skipped >= 2, "no run left a folded chain behind to be skipped");
    }

    /// A store laid out by the version before levels were sized by
    /// content — every level at the full geometry, as the golden level
    /// lines show — reopens (clean and through the recovery walk),
    /// answers every key and keeps ingesting: its levels are read into
    /// flushes and rebuilt like any other. So do the layouts of the two
    /// versions between (b = 64, where they differ): `H1` at the full
    /// geometry over deeper levels sized by content at load 1/2, then at
    /// the sealed fill. The same manifest with one level field out of
    /// range — no bucket, more than the full geometry, more items than
    /// the capacity — is rejected, not believed: an item count is summed
    /// by `len()` and by every flush's carry walk.
    #[test]
    fn a_full_geometry_store_reopens_and_an_out_of_range_level_field_does_not() {
        use dxh_extmem::SimEnv;
        type Layout<'a> = &'a dyn Fn(u32, &Region) -> u64;
        // `held` keys written under `cfg` leave the levels `sized`; every
        // level is then rebuilt with `layout`'s bucket count, which the
        // `golden` level lines show. That image reopens clean and through
        // the recovery walk, answers, and ingests up to `upto` keys; with
        // its `level 2` line replaced by a mutant it is `Corrupt`.
        let legacy = |cfg: &CoreConfig,
                      (held, upto): (u64, u64),
                      sized: &[(usize, u64)],
                      layout: Layout,
                      golden: &[&str],
                      mutants: &[&str]| {
            let open = |env: &SimEnv| {
                crate::SimMedia::open(env).and_then(|m| KvStore::open_on(m, cfg.clone(), 84))
            };
            let written = || {
                let env = SimEnv::new();
                let mut s = open(&env).unwrap();
                for k in 0..held {
                    s.insert(k, k + 1).unwrap();
                }
                s.sync().unwrap();
                assert_eq!(s.table.level_geometry()[1..], *sized);
                s.mark_dirty().unwrap();
                s.table.rebuild_levels(layout).unwrap();
                drop(s);
                let text = manifest_text(&env);
                let levels: Vec<&str> = text.lines().filter(|l| l.starts_with("level ")).collect();
                assert_eq!(levels, golden);
                (env, text)
            };
            for clean in [true, false] {
                let (env, _) = written();
                if !clean {
                    env.remove_file(CLEAN).unwrap();
                    env.sync_dir("").unwrap();
                }
                let mut s = open(&env).unwrap();
                assert_eq!(s.len() as u64, held);
                for k in held..upto {
                    s.insert(k, k + 1).unwrap();
                }
                for k in 0..upto {
                    assert_eq!(s.lookup(k).unwrap(), Some(k + 1), "clean = {clean}, key {k}");
                }
                drop(s);
                let mut s = open(&env).unwrap();
                for k in (0..upto).step_by(49) {
                    assert_eq!(s.lookup(k).unwrap(), Some(k + 1), "clean = {clean}, key {k} again");
                }
            }
            let (env, text) = written();
            let level_2 =
                golden.iter().find(|l| l.starts_with("level 2 ")).expect("H2 is occupied");
            for mutant in mutants {
                put_file(&env, MANIFEST, text.replace(level_2, mutant).as_bytes());
                match open(&env) {
                    Err(ExtMemError::Corrupt(_)) => {}
                    Err(e) => panic!("{mutant}: {e}"),
                    Ok(_) => panic!("{mutant} opened"),
                }
            }
        };

        // Every level at the full geometry, m/b · 2^k buckets. `cfg()`: H2
        // has 64 buckets at most and holds at most 256 items.
        legacy(
            &cfg(),
            (900, 2_500),
            &[(0, 0), (132, 33), (0, 0), (768, 192)],
            &|k, _| cfg().level_buckets(k),
            &["level 2 0 64 132", "level 4 64 256 768"],
            &[
                "level 2 0 64 18446744073709551615",
                "level 2 0 64 257",
                "level 2 0 0 132",
                "level 2 0 65 132",
            ],
        );
        // The deployed geometry. Nine flushes leave an H2 of three H0s
        // and an H3 of six, the sync's an H1 of 1 568 items: 33, 128 and
        // 256 buckets at 48 items each. The two versions before built H1
        // with all its 128 buckets, and the earlier of them H2 and H3 at
        // load 1/2, 192 and 384. H2 has 256 buckets at most and holds at
        // most 8 192 items.
        let big = CoreConfig::lemma5(64, 4096, 2).unwrap();
        let sized = [(1_568, 33), (6_144, 128), (12_288, 256)];
        let mutants = ["level 2 128 0 6144", "level 2 128 257 6144", "level 2 128 192 8193"];
        legacy(
            &big,
            (20_000, 50_000),
            &sized,
            &|k, r| {
                if k == 1 {
                    big.level_buckets(k)
                } else {
                    (2 * r.items).div_ceil(big.b) as u64
                }
            },
            &["level 1 0 128 1568", "level 2 128 192 6144", "level 3 941 384 12288"],
            &mutants,
        );
        legacy(
            &big,
            (20_000, 50_000),
            &sized,
            &|k, r| if k == 1 { big.level_buckets(k) } else { r.buckets },
            &["level 1 0 128 1568", "level 2 128 128 6144", "level 3 941 256 12288"],
            &mutants,
        );
    }

    /// Total accounted I/Os of looking every key of `0..n` up (each is
    /// present, with value `key + 1`).
    fn probe_cost<M: StoreMedia>(s: &mut KvStore<M>, n: u64) -> u64 {
        let before = s.total_ios();
        for key in 0..n {
            assert_eq!(s.lookup(key).unwrap(), Some(key + 1), "key {key}");
        }
        s.total_ios() - before
    }

    /// Blocks (primaries and chains) of the levels that carry a filter —
    /// what a reopen reads to rebuild them — and how many such levels
    /// are occupied. Walked behind the accounting.
    fn filtered_blocks<M: StoreMedia>(s: &mut KvStore<M>) -> (u64, usize) {
        let filtered = s.table.filter_plan().levels();
        let levels = s.table.persisted_levels().to_vec();
        let (mut blocks, mut occupied) = (0, 0);
        for region in levels.iter().skip(1).take(filtered).flatten() {
            occupied += 1;
            region.inspect(s.table.disk_mut(), |_, _, _| blocks += 1).unwrap();
        }
        (blocks, occupied)
    }

    /// Filters are never persisted: reopen (clean and crash-path)
    /// rebuilds them with one accounted scan of the filtered levels, and
    /// `compact` fills the dense level's as it writes the level — after
    /// which lookups cost exactly what they cost the handle that wrote
    /// the data.
    #[test]
    fn a_reopened_store_probes_as_cheaply_as_the_handle_that_wrote_it() {
        use crate::media::SimMedia;
        use dxh_extmem::SimEnv;
        // Four filtered levels (`cfg()`'s m = 128 has room for none).
        let cfg = CoreConfig::lemma5(8, 1024, 2).unwrap();
        let n = 8_000u64; // within H4's capacity: compaction lands in a filtered level
        let dir = tmp_dir("filter-rebuild");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open(&dir, cfg.clone(), 31).unwrap();
        for key in 0..n {
            s.insert(key, key + 1).unwrap();
        }
        s.sync().unwrap();
        let (blocks, occupied) = filtered_blocks(&mut s);
        assert!(occupied >= 2, "{occupied} filtered levels occupied");
        let cost = probe_cost(&mut s, n);
        let stats = s.table().filter_stats();
        assert!(stats.skipped > 10 * stats.false_positives, "the writer's filters work: {stats:?}");
        drop(s);
        let mut s = KvStore::open(&dir, cfg.clone(), 31).unwrap();
        assert_eq!(s.disk_stats().reads, blocks, "the rebuild reads each filtered block once");
        assert_eq!(probe_cost(&mut s, n), cost, "clean reopen");

        // Compaction lands everything in one (filtered) level of a fresh
        // disk, whose counters start with the level's blocks written
        // once; its filter was filled on the way, without a read.
        s.compact().unwrap();
        let (blocks, occupied) = filtered_blocks(&mut s);
        assert_eq!(occupied, 1);
        let dense = s.table.persisted_levels().iter().flatten().next().copied().expect("one level");
        let mut written = 0;
        dense
            .inspect(s.table.disk_mut(), |_, _, blk| written += u64::from(!blk.is_empty()))
            .unwrap();
        assert!(written <= blocks && blocks - written < blocks / 50, "few buckets drew nothing");
        let io = s.disk_stats();
        assert_eq!((io.reads, io.writes), (0, written), "compact fills the filter as items land");
        for key in n..n + 2_000 {
            s.insert(key, key + 1).unwrap();
        }
        s.sync().unwrap();
        let cost = probe_cost(&mut s, n + 2_000);
        drop(s);
        let mut s = KvStore::open(&dir, cfg.clone(), 31).unwrap();
        assert_eq!(probe_cost(&mut s, n + 2_000), cost, "reopen after compact");
        drop(s);
        let _ = fs::remove_dir_all(&dir);

        // The crash path: a marker-less harden, power loss, recovery walk.
        let env = SimEnv::new();
        let mut s = KvStore::open_on(SimMedia::open(&env).unwrap(), cfg.clone(), 31).unwrap();
        for key in 0..n {
            s.insert(key, key + 1).unwrap();
        }
        s.harden(false).unwrap();
        let (blocks, _) = filtered_blocks(&mut s);
        let cost = probe_cost(&mut s, n);
        sim_crash(&env, s, 31);
        let mut s = KvStore::open_on(SimMedia::open(&env).unwrap(), cfg, 31).unwrap();
        assert_eq!(s.disk_stats().reads, blocks, "crash-path reopen rebuilds too");
        assert_eq!(probe_cost(&mut s, n), cost, "crash-path reopen");
    }

    /// One `next` pointer rotted into a self-loop (blocks carry no
    /// checksum) in `H1` of the deployed geometry, a filtered level: the
    /// probe that follows it, and the reopen that re-reads the level for
    /// its filter — over `CLEAN`, or behind the recovery walk — each give
    /// up as `Corrupt` within two reads per slot of the file. Neither
    /// spins, and the open handle serves every other bucket.
    #[test]
    fn a_cyclic_chain_is_corrupt_to_the_probe_and_the_reopen_that_meet_it() {
        use dxh_extmem::{IoEvent, SimEnv};
        use std::time::Duration;
        let cfg = CoreConfig::lemma5(64, 4096, 2).unwrap();
        let open = |env: &SimEnv| {
            crate::SimMedia::open(env).and_then(|m| KvStore::open_on(m, cfg.clone(), 33))
        };
        let block_reads = |env: &SimEnv| {
            env.take_trace().iter().filter(|e| matches!(e, IoEvent::Read { .. })).count()
        };
        for clean in [true, false] {
            let env = SimEnv::new();
            let mut s = open(&env).unwrap();
            for k in 0..4_000u64 {
                s.insert(k, k + 1).unwrap();
            }
            s.sync().unwrap();
            let h1 = s.table.persisted_levels()[1].expect("4 000 keys sit in H1");
            let backend = s.table.disk_mut().backend_mut();
            let slots = backend.slots() as usize;
            // Primary 0 points at itself, and loses a key its level's
            // filter still lets through.
            let mut blk = backend.read(h1.block_of(0)).unwrap();
            let (lost, kept) = (blk.items()[0].key, blk.items()[1].key);
            blk.remove(lost);
            blk.set_next(Some(h1.block_of(0)));
            backend.write(h1.block_of(0), &blk).unwrap();
            backend.sync().unwrap();
            env.take_trace();
            let probe = s.lookup(lost);
            assert!(matches!(probe, Err(ExtMemError::Corrupt(_))), "clean = {clean}: {probe:?}");
            let reads = block_reads(&env);
            assert!(
                (2..=2 * slots).contains(&reads),
                "clean = {clean}: the probe read {reads} blocks"
            );
            assert_eq!(s.lookup(kept).unwrap(), Some(kept + 1), "that call alone");
            assert_eq!(s.lookup(3_999).unwrap(), Some(4_000), "other buckets serve");
            sim_crash(&env, s, 2);
            if !clean {
                env.remove_file(CLEAN).unwrap();
                env.sync_dir("").unwrap();
            }
            env.take_trace();
            // On a thread: an open that followed the loop forever would
            // hang the suite instead of failing it.
            let (tx, rx) = std::sync::mpsc::channel();
            let (env_there, cfg_there) = (env.clone(), cfg.clone());
            let opener = dxh_sync::thread::spawn(move || {
                let opened = crate::SimMedia::open(&env_there)
                    .and_then(|m| KvStore::open_on(m, cfg_there, 33))
                    .map(drop);
                let _ = tx.send(opened);
            });
            let opened = rx.recv_timeout(Duration::from_secs(60)).expect("the open never returned");
            opener.join().unwrap();
            assert!(matches!(opened, Err(ExtMemError::Corrupt(_))), "clean = {clean}: {opened:?}");
            let reads = block_reads(&env);
            assert!(
                (2..=2 * slots).contains(&reads),
                "clean = {clean}: the open read {reads} blocks"
            );
        }
    }
}
