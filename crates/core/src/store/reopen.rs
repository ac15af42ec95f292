//! Reopen: the manifest's claims checked against the creation
//! parameters and the files it names, the one-time legacy-chain fold,
//! and the removal of every file it does not name. The same code after
//! a crash and after a clean close: there is nothing to tell them apart
//! by, and nothing to do differently.

use dxh_extmem::{BlobLog, Disk, ExtMemError, Result, StorageBackend};
use dxh_hashfn::IdealFn;

use super::manifest::{apply_manifest_deltas, corrupt, Manifest};
use super::payload::blob_file_name;
use super::{KvStore, LevelFiles, ManifestIoStats};
use crate::log_method::LogMethodTable;
use crate::media::{best_effort, is_blob_file, is_data_file, StoreMedia, CLEAN, MANIFEST_DELTA};
use crate::stream::Region;

/// The single data file of generation `gen` in which earlier versions
/// kept every level ("file 0" of [`LevelFiles`]): the original name for
/// generation 0, generation-suffixed after their compactions.
pub(super) fn legacy_data_file_name(gen: u64) -> String {
    if gen == 0 {
        "store.blk".to_string()
    } else {
        format!("store.{gen}.blk")
    }
}

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
        }
        // (Capacities saturate at deep levels, so the bound above alone
        // does not keep the sum in range.)
        if m.levels.iter().flatten().try_fold(0usize, |n, r| n.checked_add(r.items)).is_none() {
            return Err(corrupt("level item counts overflow"));
        }
        // The files the level lines name, each region inside its file.
        let legacy = legacy_data_file_name(m.data_gen);
        let mut files = LevelFiles::open(media.view(), m.cfg.b, &legacy, &m.levels)?;
        if m.v1 {
            // Pre-deletion store: prove it holds no value this version
            // would misread as the deletion marker.
            scan_reserved_values(&mut files, &m.levels)?;
        }
        let disk = Disk::new(files, m.cfg.b, m.cfg.cost);
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
        // Everything else is a stray, and removing it is all the
        // recovery there is: a level a flush built but no commit named,
        // one a commit dropped but whose unlink was lost, what an
        // interrupted compaction left on either side of its commit, an
        // earlier version's `CLEAN` marker. Best-effort and idempotent —
        // a reopen cut short here is finished by the next.
        for name in media.names() {
            let stray = match &name {
                n if is_data_file(n) => !table.disk().backend().holds(n),
                n if is_blob_file(n) => blob.is_some() && *n != blob_name,
                n => n == CLEAN,
            };
            if stray {
                best_effort(media.remove(&name));
            }
        }
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
            manifest_len: text.len() as u64,
            media,
        };
        if chain.is_some() {
            if folded {
                // The next epoch makes the folded frames stale, so the
                // fold stays one-time even if the unlink below is lost.
                store.write_manifest(true)?;
            }
            store.media.remove(MANIFEST_DELTA)?;
            store.media.sync_dir()?;
        }
        Ok(store)
    }
}

/// Walks every region's buckets and chains of a **format v1** store
/// looking for a live value equal to [`VALUE_TOMBSTONE`]. v1 binaries
/// had no deletion, so `u64::MAX` was an ordinary value; this version
/// reserves it as the deletion marker, and silently reinterpreting such
/// a store would turn those keys into permanent deletions at the next
/// merge. Refusing the open keeps the data intact (the binary that wrote
/// the store still reads it). A clean v1 store upgrades to v2 at its
/// next manifest write; until then each reopen re-runs this scan.
fn scan_reserved_values<B: StorageBackend>(
    backend: &mut B,
    levels: &[Option<Region>],
) -> Result<()> {
    let hops = backend.live_blocks();
    for region in levels.iter().flatten() {
        region.walk(
            0..region.buckets,
            hops,
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

    use dxh_extmem::{BlockId, FileDisk, StorageBackend, Value, BLOB_TAG};
    use dxh_tables::ExternalDictionary;

    use super::super::levels::level_file_name;
    use super::super::manifest::{MAGIC, MAGIC_V1};
    use super::super::tests::*;
    use super::*;
    use crate::config::CoreConfig;
    use crate::media::{SimMedia, MANIFEST};
    use dxh_extmem::SimEnv;

    #[test]
    fn crash_after_unsynced_growth_recovers_to_last_sync_point() {
        let dir = tmp_dir("crash");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open(&dir, cfg(), 12).unwrap();
        for k in 0..300u64 {
            s.insert(k, k).unwrap();
        }
        s.sync().unwrap();
        // Keep inserting past the sync: H0 flushes build level files no
        // manifest names. Then "crash" (no Drop).
        for k in 300..900u64 {
            s.insert(k, k).unwrap();
        }
        crash(s);
        // Reopen recovers to the sync point instead of refusing to open.
        let mut s = KvStore::open(&dir, cfg(), 12).unwrap();
        for k in 0..300u64 {
            assert_eq!(s.lookup(k).unwrap(), Some(k), "synced key {k} survives the crash");
        }
        assert_eq!(s.len(), 300);
        assert_eq!(dir_files(&dir), named_files(&s), "what the crash stranded is gone");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A handle that recovered from a crash and was dropped untouched
    /// commits nothing — there is nothing of its own to record — and the
    /// next reopen finds what it found.
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
        let manifest = fs::read(dir.join(MANIFEST)).unwrap();
        for k in 2600..2650u64 {
            s.insert(k, k).unwrap();
        }
        crash(s);
        drop(KvStore::open(&dir, cfg.clone(), 22).unwrap()); // recovers; never touched
        assert_eq!(fs::read(dir.join(MANIFEST)).unwrap(), manifest);
        let mut s = KvStore::open(&dir, cfg, 22).unwrap();
        assert_eq!(dir_files(&dir), named_files(&s));
        for k in 0..2600u64 {
            assert_eq!(s.lookup(k).unwrap(), Some(k), "synced key {k}");
        }
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
        let region = manifest.levels.iter().flatten().next().expect("a level");
        let file = level_file_name(region.base.raw() >> 32);
        let mut backend = FileDisk::open(&dir.join(file), cfg().b).unwrap();
        let occupied = (0..region.buckets).map(BlockId).find_map(|id| {
            let blk = backend.read(id).unwrap();
            (!blk.is_empty()).then_some((id, blk))
        });
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
        // A flush or compaction that died before its manifest commit
        // leaves the level it was building behind; an earlier version's
        // compaction, the next generation of its one data file.
        fs::write(dir.join("level-99.blk"), vec![0u8; 1024]).unwrap();
        fs::write(dir.join("store.1.blk"), vec![0u8; 1024]).unwrap();
        let mut s = KvStore::open(&dir, cfg(), 53).unwrap();
        assert_eq!(s.lookup(1).unwrap(), Some(1));
        assert_eq!(dir_files(&dir), named_files(&s), "strays removed");
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
        assert_eq!(sim_files(&env), named_files(&s), "recovery leaves no file unaccounted for");
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
        s.harden().unwrap();
        let later_text = manifest_text(env);
        sim_crash(env, s, 3);
        let (base, later) =
            (Manifest::parse(&base_text).unwrap(), Manifest::parse(&later_text).unwrap());
        let mut frame = format!("delta {} 1\n", base.epoch);
        for line in later_text.lines() {
            let key = line.split(' ').next().unwrap();
            if ["blob", "watermark", "levels", "level"].contains(&key) {
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
        assert!(sim_files(env).is_superset(&named_files(&s)), "{what}");
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
    /// shapes show — reopens, answers every key and keeps ingesting: its
    /// levels are read into
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
        // `golden` level lines show as `(k, buckets, items)` — where a
        // level starts is allocation history. That image reopens,
        // answers, and ingests up to `upto` keys; with its `level 2` line
        // replaced by a mutant it is `Corrupt`.
        let legacy = |cfg: &CoreConfig,
                      (held, upto): (u64, u64),
                      sized: &[(usize, u64)],
                      layout: Layout,
                      golden: &[(u64, u64, u64)],
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
                let levels = text.lines().filter_map(|l| l.strip_prefix("level "));
                let shape = |l: &str| {
                    let n: Vec<u64> = l.split(' ').map(|n| n.parse().unwrap()).collect();
                    (n[0], n[2], n[3])
                };
                assert_eq!(levels.map(shape).collect::<Vec<_>>(), golden);
                (env, text)
            };
            let (env, _) = written();
            let mut s = open(&env).unwrap();
            assert_eq!(s.len() as u64, held);
            for k in held..upto {
                s.insert(k, k + 1).unwrap();
            }
            for k in 0..upto {
                assert_eq!(s.lookup(k).unwrap(), Some(k + 1), "key {k}");
            }
            drop(s);
            let mut s = open(&env).unwrap();
            for k in (0..upto).step_by(49) {
                assert_eq!(s.lookup(k).unwrap(), Some(k + 1), "key {k} again");
            }
            drop(s);
            let (env, text) = written();
            let level_2 = text.lines().find(|l| l.starts_with("level 2 ")).expect("H2 is occupied");
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
            &[(2, 64, 132), (4, 256, 768)],
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
            &[(1, 128, 1568), (2, 192, 6144), (3, 384, 12288)],
            &mutants,
        );
        legacy(
            &big,
            (20_000, 50_000),
            &sized,
            &|k, r| if k == 1 { big.level_buckets(k) } else { r.buckets },
            &[(1, 128, 1568), (2, 128, 6144), (3, 256, 12288)],
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

    /// Filters are never persisted: reopen (after a close or a crash)
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

        // Compaction lands everything in one (filtered) level: every old
        // block read once, the level's blocks written once; its filter
        // was filled on the way, without reading the level back.
        let (old_blocks, before) = (level_blocks(&mut s), s.disk_stats());
        s.compact().unwrap();
        let (blocks, occupied) = filtered_blocks(&mut s);
        assert_eq!(occupied, 1);
        let dense = s.table.persisted_levels().iter().flatten().next().copied().expect("one level");
        let mut written = 0;
        dense
            .inspect(s.table.disk_mut(), |_, _, blk| written += u64::from(!blk.is_empty()))
            .unwrap();
        assert!(written <= blocks && blocks - written < blocks / 50, "few buckets drew nothing");
        let io = s.disk_stats().since(&before);
        assert_eq!(
            (io.reads, io.writes),
            (old_blocks, written),
            "compact fills the filter as items land"
        );
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

        // The same after a harden and a power loss.
        let env = SimEnv::new();
        let mut s = KvStore::open_on(SimMedia::open(&env).unwrap(), cfg.clone(), 31).unwrap();
        for key in 0..n {
            s.insert(key, key + 1).unwrap();
        }
        s.harden().unwrap();
        let (blocks, _) = filtered_blocks(&mut s);
        let cost = probe_cost(&mut s, n);
        sim_crash(&env, s, 31);
        let mut s = KvStore::open_on(SimMedia::open(&env).unwrap(), cfg, 31).unwrap();
        assert_eq!(s.disk_stats().reads, blocks, "a reopen after a crash rebuilds too");
        assert_eq!(probe_cost(&mut s, n), cost, "reopen after a crash");
    }

    /// One `next` pointer rotted into a self-loop (blocks carry no
    /// checksum) in `H1` of the deployed geometry, a filtered level: the
    /// probe that follows it, and the reopen that re-reads the level for
    /// its filter, each give up as `Corrupt` within two reads per block
    /// of the store. Neither spins, and the open handle serves every
    /// other bucket.
    #[test]
    fn a_cyclic_chain_is_corrupt_to_the_probe_and_the_reopen_that_meet_it() {
        use std::time::Duration;
        let cfg = CoreConfig::lemma5(64, 4096, 2).unwrap();
        let open = |env: &SimEnv| {
            crate::SimMedia::open(env).and_then(|m| KvStore::open_on(m, cfg.clone(), 33))
        };
        let env = SimEnv::new();
        let mut s = open(&env).unwrap();
        for k in 0..4_000u64 {
            s.insert(k, k + 1).unwrap();
        }
        s.sync().unwrap();
        let h1 = s.table.persisted_levels()[1].expect("4 000 keys sit in H1");
        let blocks = s.table.disk().live_blocks();
        // Primary 0 points at itself, and loses a key its level's filter
        // still lets through. The store itself refuses to write a level
        // its manifest names: the rot comes in behind its back.
        let head = h1.block_of(0);
        let mut blk = s.table.disk_mut().backend_mut().read(head).unwrap();
        let (lost, kept) = (blk.items()[0].key, blk.items()[1].key);
        blk.remove(lost);
        blk.set_next(Some(head));
        let refused = s.table.disk_mut().backend_mut().write(head, &blk);
        assert!(matches!(refused, Err(ExtMemError::BadConfig(_))), "{refused:?}");
        let mut file = env.open_disk(&level_file_name(head.raw() >> 32), cfg.b).unwrap();
        file.write(BlockId(0), &blk).unwrap();
        file.sync().unwrap();
        env.take_trace();
        let probe = s.lookup(lost);
        assert!(matches!(probe, Err(ExtMemError::Corrupt(_))), "{probe:?}");
        let reads = block_reads(&env);
        assert!((2..=2 * blocks).contains(&reads), "the probe read {reads} blocks");
        assert_eq!(s.lookup(kept).unwrap(), Some(kept + 1), "that call alone");
        assert_eq!(s.lookup(3_999).unwrap(), Some(4_000), "other buckets serve");
        sim_crash(&env, s, 2);
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
        assert!(matches!(opened, Err(ExtMemError::Corrupt(_))), "{opened:?}");
        let reads = block_reads(&env);
        assert!((2..=2 * blocks).contains(&reads), "the open read {reads} blocks");
    }

    /// Four filtered levels, so a reopen has blocks to read.
    fn legacy_cfg() -> CoreConfig {
        CoreConfig::lemma5(8, 1024, 2).unwrap()
    }

    /// Keys `0..LEGACY_KEYS` hold `key + 1` (their payload, in payload
    /// mode) in a legacy store.
    const LEGACY_KEYS: u64 = 8_000;

    /// What the version before this one left in a directory: every level
    /// in the one `store.blk`, its slots recycled through a free list
    /// (dead ones sit between the levels), a manifest carrying that
    /// allocator's `slots` and `free` lines — the bytes
    /// `manifest_bytes_are_pinned_and_the_previous_layout_still_parses`
    /// keeps — and, closed cleanly, `CLEAN`. Killed instead, there is no
    /// marker and the free list on disk is stale: it names slots a level
    /// occupies, which that version's recovery walk would have found out.
    /// Returns the blob log's bytes (payload mode).
    fn write_legacy_store(env: &SimEnv, payloads: bool, clean: bool) -> Option<Vec<u8>> {
        let (cfg, seed) = (legacy_cfg(), 84);
        let mut media = SimMedia::open(env).unwrap();
        let disk = Disk::new(media.create_data("store.blk", cfg.b).unwrap(), cfg.b, cfg.cost);
        let mut table = LogMethodTable::new_on(disk, cfg.clone(), seed).unwrap();
        let mut blob =
            payloads.then(|| BlobLog::create(media.create_file("store.blob").unwrap()).unwrap());
        for k in 0..LEGACY_KEYS {
            let word = match blob.as_mut() {
                Some(log) => BLOB_TAG | log.append(&payload_for(k)).unwrap().0,
                None => k + 1,
            };
            table.insert(k, word).unwrap();
        }
        table.flush_memory().unwrap();
        table.disk_mut().flush().unwrap();
        let levels = table.persisted_levels().to_vec();
        let slots = table.disk().backend().slots();
        assert!(table.disk().live_blocks() < slots / 2, "the heap is mostly dead slots");
        let mut free = vec![true; slots as usize];
        for region in levels.iter().flatten() {
            region.inspect(table.disk_mut(), |_, id, _| free[id.raw() as usize] = false).unwrap();
        }
        let deepest = levels.iter().flatten().last().expect("levels");
        let free: Vec<String> = match clean {
            true => (0..slots).filter(|&id| free[id as usize]).map(|id| id.to_string()).collect(),
            false => (0..16).map(|q| deepest.block_of(q).raw().to_string()).collect(),
        };
        let mut text = format!(
            "dxh-store v2\nb {}\nm {}\ngamma 2\nbeta 2\ncost seek\nseed {seed}\nepoch 5\ndata 0\n",
            cfg.b, cfg.m
        );
        if let Some(log) = blob.as_mut() {
            log.sync().unwrap();
            text.push_str(&format!("blob {}\n", log.len()));
        }
        text.push_str(&format!(
            "slots {slots}\nfree {}\nlevels {}\n",
            free.join(","),
            levels.len()
        ));
        for (k, r) in levels.iter().enumerate() {
            if let Some(r) = r {
                text.push_str(&format!("level {k} {} {} {}\n", r.base.raw(), r.buckets, r.items));
            }
        }
        put_file(env, MANIFEST, text.as_bytes());
        if clean {
            put_file(env, CLEAN, b"clean\n");
        }
        env.read_file("store.blob").unwrap()
    }

    fn open_legacy(env: &SimEnv, payloads: bool) -> KvStore<SimMedia> {
        let media = SimMedia::open(env).unwrap();
        match payloads {
            true => KvStore::open_payload_on(media, legacy_cfg(), 84).unwrap(),
            false => KvStore::open_on(media, legacy_cfg(), 84).unwrap(),
        }
    }

    fn assert_serves_the_legacy_keys(s: &mut KvStore<SimMedia>, when: &str) {
        for k in 0..LEGACY_KEYS {
            match s.payload_mode() {
                true => {
                    assert_eq!(s.get_bytes(k).unwrap(), Some(&payload_for(k)[..]), "{when}: {k}")
                }
                false => assert_eq!(s.lookup(k).unwrap(), Some(k + 1), "{when}: key {k}"),
            }
        }
    }

    /// A store of the previous layout — closed cleanly, or killed and
    /// left with a stale free list — opens as it is: all its levels in
    /// "file 0", nothing read but the filtered levels, `CLEAN` and the
    /// allocator lines not believed but ignored. The first commit writes
    /// an ordinary manifest; ordinary flushes carry the levels out of
    /// `store.blk` one by one, and the commit after the last of them
    /// unlinks it. A payload-mode store goes the same way and its blob
    /// log is not touched.
    #[test]
    fn a_store_of_the_previous_layout_opens_as_file_0_and_carries_itself_out_of_it() {
        for (payloads, clean) in [(false, true), (false, false), (true, true), (true, false)] {
            let when = format!("payloads: {payloads}, clean: {clean}");
            let env = SimEnv::new();
            let blob = write_legacy_store(&env, payloads, clean);
            env.take_trace();
            let mut s = open_legacy(&env, payloads);
            let reads = block_reads(&env);
            assert_eq!(reads, filtered_blocks(&mut s).0, "{when}: the filtered levels, no walk");
            let footprint = s.footprint().unwrap();
            let in_file_0 = |r: &Region| r.base.raw() >> 32 == 0;
            assert!(footprint.levels.len() >= 3, "{when}");
            assert!(s.table.persisted_levels().iter().flatten().all(in_file_0), "{when}");
            let whole = env.file_len("store.blk");
            assert!(footprint.levels.iter().all(|l| l.file_bytes == whole), "{when}");
            assert_eq!(footprint.data_bytes, env.file_len("store.blk"), "{when}: counted once");
            assert!(!sim_files(&env).contains(CLEAN), "{when}: the marker is a stray");
            assert_serves_the_legacy_keys(&mut s, &when);

            // The first commit: the new manifest, whatever was there.
            let mut next = LEGACY_KEYS;
            let mut put = |s: &mut KvStore<SimMedia>| {
                match s.payload_mode() {
                    true => s.put_bytes(next, &payload_for(next)).unwrap(),
                    false => s.insert(next, next + 1).unwrap(),
                }
                next += 1;
            };
            put(&mut s);
            s.sync().unwrap();
            let text = manifest_text(&env);
            assert!(!text.contains("\nslots ") && !text.contains("\nfree "), "{when}: {text}");
            assert_eq!(sim_files(&env), named_files(&s), "{when}");
            assert!(sim_files(&env).contains("store.blk"), "{when}: levels still live in it");

            // Ingest until the last level has left it.
            let mut commits = 0;
            while sim_files(&env).contains("store.blk") {
                (0..500).for_each(|_| put(&mut s));
                s.sync().unwrap();
                commits += 1;
                assert!(commits < 100, "{when}: store.blk never retires");
                assert_eq!(sim_files(&env), named_files(&s), "{when}: commit {commits}");
            }
            assert!(!s.table.persisted_levels().iter().flatten().any(in_file_0), "{when}");
            assert_serves_the_legacy_keys(&mut s, &when);
            drop(s);
            let mut s = open_legacy(&env, payloads);
            assert_serves_the_legacy_keys(&mut s, &when);
            if let Some(blob) = blob {
                let now = env.read_file("store.blob").unwrap().expect("the log");
                assert!(now.starts_with(&blob), "{when}: the blob log is appended to, no more");
            }
        }
    }

    /// The same stores, upgraded by one `compact` instead: one level in
    /// a file of its own, `store.blk` gone with the commit; in payload
    /// mode the blob log's next generation beside it.
    #[test]
    fn one_compact_carries_a_store_of_the_previous_layout_out_of_file_0() {
        for (payloads, clean) in [(false, true), (false, false), (true, false)] {
            let when = format!("payloads: {payloads}, clean: {clean}");
            let env = SimEnv::new();
            write_legacy_store(&env, payloads, clean);
            let mut s = open_legacy(&env, payloads);
            let heap = env.file_len("store.blk");
            let stats = s.compact().unwrap();
            assert_eq!(stats.live_items as u64, LEGACY_KEYS, "{when}");
            assert_eq!(stats.bytes_before, heap, "{when}");
            assert!(stats.bytes_after < stats.bytes_before / 2, "{when}: {stats:?}");
            let footprint = s.footprint().unwrap();
            assert_eq!(footprint.levels.len(), 1, "{when}");
            assert_eq!(footprint.data_bytes, stats.bytes_after, "{when}");
            assert_eq!(sim_files(&env), named_files(&s), "{when}");
            assert!(!sim_files(&env).contains("store.blk"), "{when}");
            assert_eq!(sim_files(&env).contains("store.1.blob"), payloads, "{when}");
            assert_serves_the_legacy_keys(&mut s, &when);
            sim_crash(&env, s, 3);
            let mut s = open_legacy(&env, payloads);
            assert_serves_the_legacy_keys(&mut s, &when);
            s.compact().unwrap();
            assert_serves_the_legacy_keys(&mut s, &when);
        }
    }
}
