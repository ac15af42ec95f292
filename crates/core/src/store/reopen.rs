//! Reopen: the manifest's claims checked against the creation
//! parameters and the files it names, and the removal of every file it
//! does not name. The same code after a crash and after a clean close:
//! there is nothing to tell them apart by, and nothing to do
//! differently. A store in an older layout is refused before anything
//! is written or removed.

use dxh_extmem::{BlobLog, Disk, ExtMemError, IoCostModel, Result};

use super::manifest::{corrupt, Manifest};
use super::payload::blob_file_name;
use super::{KvStore, LevelFiles, ManifestIoStats};
use crate::log_method::LogMethodTable;
use crate::media::{
    best_effort, is_blob_file, is_data_file, older_layout, StoreMedia, MANIFEST_DELTA,
};

impl<M: StoreMedia> KvStore<M> {
    pub(super) fn reopen(
        mut media: M,
        text: &str,
        expected_b: usize,
        payloads: bool,
    ) -> Result<Self> {
        let m = Manifest::parse(text)?;
        // Its frames may hold commits newer than the manifest, whose
        // commit-log records are gone: opening without them loses them.
        if media.open_file(MANIFEST_DELTA)?.is_some() {
            return Err(older_layout(&format!("a {MANIFEST_DELTA} chain beside the manifest")));
        }
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
        // `fresh_level_buckets`), and a compaction of a few live items,
        // or an older build's harden that flushed a partial `H0`, may
        // land a handful — and holds at most the level's
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
        // `H0`'s image holds what a commit found in `H0`: at least one
        // item (an empty `H0` gets no line), at most `m/2`, `b` to a block.
        if let Some(r) = m.h0 {
            let items = 1..=m.cfg.h0_capacity();
            if !items.contains(&r.items) || r.buckets != r.items.div_ceil(m.cfg.b) as u64 {
                return Err(corrupt("H0 image does not match the creation parameters"));
            }
        }
        // (Capacities saturate at deep levels, so the bound above alone
        // does not keep the sum in range.)
        let named: Vec<_> = m.levels.iter().chain([&m.h0]).copied().collect();
        if named.iter().flatten().try_fold(0usize, |n, r| n.checked_add(r.items)).is_none() {
            return Err(corrupt("level item counts overflow"));
        }
        // The files the level lines and the image name, each region
        // inside its file.
        let files = LevelFiles::open(media.view(), m.cfg.b, &named)?;
        let disk = Disk::new(files, m.cfg.b, IoCostModel::SeekDominated);
        let table = LogMethodTable::from_parts(disk, m.cfg, m.seed, m.levels, m.h0)?;
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
        let mut store = KvStore {
            table,
            blob,
            seed: m.seed,
            data_gen: m.data_gen,
            dirty: false,
            poisoned: None,
            watermark: m.watermark,
            image: m.h0,
            manifest_io: ManifestIoStats::default(),
            manifest_len: text.len() as u64,
            media,
        };
        store.remove_strays();
        Ok(store)
    }

    /// Removes every level, image or blob file the store does not hold,
    /// and removing them is all the recovery there is: a level a flush
    /// built but no commit named, one a commit dropped but whose unlink
    /// was lost, what an interrupted compaction left on either side of
    /// its commit — and, in a directory with no manifest, everything a
    /// handle wrote before its first commit. Best-effort and idempotent:
    /// an open cut short here is finished by the next.
    pub(super) fn remove_strays(&mut self) {
        let live_blob = self.blob.is_some().then(|| blob_file_name(self.data_gen));
        for name in self.media.names() {
            let stray = match &name {
                n if is_data_file(n) => !self.table.disk().backend().holds(n),
                n if is_blob_file(n) => live_blob.as_ref() != Some(n),
                _ => false,
            };
            if stray {
                best_effort(self.media.remove(&name));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::fs;

    use dxh_extmem::{BlockId, SimDisk, SimEnv, StorageBackend};
    use dxh_tables::{ExternalDictionary, Region};

    use super::super::levels::level_file_name;
    use super::super::manifest::MAGIC;
    use super::super::tests::*;
    use super::*;
    use crate::config::CoreConfig;
    use crate::media::{SimMedia, MANIFEST};

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

    /// A store of format v1 — written before deletion existed, when
    /// `u64::MAX` was an ordinary value — is refused by name at parse,
    /// and nothing in the directory changes.
    #[test]
    fn a_v1_store_is_refused_touching_nothing() {
        let env = SimEnv::new();
        let mut s = sim_store(&env);
        for k in 0..300u64 {
            s.insert(k, k + 1).unwrap();
        }
        drop(s);
        put_file(&env, MANIFEST, manifest_text(&env).replace(MAGIC, "dxh-store v1").as_bytes());
        assert_refused(&env, "dxh-store v1", "a883dab", || {
            SimMedia::open(&env).and_then(|m| KvStore::open_on(m, cfg(), 84))
        });
    }

    /// A `MANIFEST.DELTA` chain beside the manifest — where an older
    /// layout appended its checkpoint commits — is refused by name: its
    /// frames may commit state the manifest lacks. Nothing changes, not
    /// even a level file no manifest names, which an open removes.
    #[test]
    fn a_store_with_a_manifest_delta_chain_is_refused_touching_nothing() {
        let env = SimEnv::new();
        let mut s = sim_store(&env);
        for k in 0..300u64 {
            s.insert(k, k + 1).unwrap();
        }
        drop(s);
        let stray = env.create_file("level-99.blk").unwrap();
        let mut stray = SimDisk::from_file(stray, cfg().b).unwrap();
        stray.allocate_contiguous(4).unwrap();
        stray.sync().unwrap();
        let mut chain = Vec::new();
        dxh_extmem::frame::push_frame(&mut chain, b"delta 2 1\nwatermark 9\n");
        put_file(&env, MANIFEST_DELTA, &chain);
        assert_refused(&env, MANIFEST_DELTA, "a883dab", || {
            SimMedia::open(&env).and_then(|m| KvStore::open_on(m, cfg(), 84))
        });
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
        // leaves the level it was building behind; any other block file
        // no level line names goes the same way.
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

        // Every level at the full geometry, m/b · 2^k buckets. `cfg()`: 15
        // flushes leave an H2 of three H0s and an H4 of twelve, 40 items
        // in H0; H2 has 64 buckets at most and holds at most 256 items.
        legacy(
            &cfg(),
            (1_000, 2_500),
            &[(0, 0), (192, 48), (0, 0), (768, 192)],
            &|k, _| cfg().level_buckets(k),
            &[(2, 64, 192), (4, 256, 768)],
            &[
                "level 2 0 64 18446744073709551615",
                "level 2 0 64 257",
                "level 2 0 0 192",
                "level 2 0 65 192",
            ],
        );
        // The deployed geometry. Ten flushes leave an H1 of one H0, an H2
        // of three and an H3 of six: 43, 128 and 256 buckets at 48 items
        // each, and 1 568 items in H0. The two versions before built H1
        // with all its 128 buckets, and the earlier of them H2 and H3 at
        // load 1/2, 192 and 384. H2 has 256 buckets at most and holds at
        // most 8 192 items.
        let big = CoreConfig::lemma5(64, 4096, 2).unwrap();
        let sized = [(2_048, 43), (6_144, 128), (12_288, 256)];
        let mutants = ["level 2 128 0 6144", "level 2 128 257 6144", "level 2 128 192 8193"];
        legacy(
            &big,
            (22_048, 50_000),
            &sized,
            &|k, r| {
                if k == 1 {
                    big.level_buckets(k)
                } else {
                    (2 * r.items).div_ceil(big.b) as u64
                }
            },
            &[(1, 128, 2048), (2, 192, 6144), (3, 384, 12288)],
            &mutants,
        );
        legacy(
            &big,
            (22_048, 50_000),
            &sized,
            &|k, r| if k == 1 { big.level_buckets(k) } else { r.buckets },
            &[(1, 128, 2048), (2, 128, 6144), (3, 256, 12288)],
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
    /// which the store holds the filters of the handle that wrote the
    /// data, and lookups cost exactly what they cost that handle: every
    /// builder lends by the one rule.
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
        let cost = (probe_cost(&mut s, n), s.table().level_filter_held());
        let stats = s.table().filter_stats();
        assert!(stats.skipped > 10 * stats.false_positives, "the writer's filters work: {stats:?}");
        drop(s);
        let mut s = KvStore::open(&dir, cfg.clone(), 31).unwrap();
        let image = image_blocks(&s);
        assert!(image > 0, "{n} keys leave H0 non-empty");
        let reads = s.disk_stats().reads;
        assert_eq!(reads, blocks + image, "the rebuild and H0's image, each block once");
        let reopened = (probe_cost(&mut s, n), s.table().level_filter_held());
        assert_eq!(reopened, cost, "clean reopen");

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
        let cost = (probe_cost(&mut s, n + 2_000), s.table().level_filter_held());
        drop(s);
        let mut s = KvStore::open(&dir, cfg.clone(), 31).unwrap();
        let reopened = (probe_cost(&mut s, n + 2_000), s.table().level_filter_held());
        assert_eq!(reopened, cost, "reopen after compact");
        drop(s);
        let _ = fs::remove_dir_all(&dir);

        // The same after a harden and a power loss.
        let env = SimEnv::new();
        let mut s = KvStore::open_on(SimMedia::open(&env).unwrap(), cfg.clone(), 31).unwrap();
        for key in 0..n {
            s.insert(key, key + 1).unwrap();
        }
        s.harden().unwrap();
        let (blocks, image) = (filtered_blocks(&mut s).0, image_blocks(&s));
        let cost = (probe_cost(&mut s, n), s.table().level_filter_held());
        sim_crash(&env, s, 31);
        let mut s = KvStore::open_on(SimMedia::open(&env).unwrap(), cfg, 31).unwrap();
        let reads = s.disk_stats().reads;
        assert_eq!(reads, blocks + image, "a reopen after a crash rebuilds and reloads too");
        let reopened = (probe_cost(&mut s, n), s.table().level_filter_held());
        assert_eq!(reopened, cost, "reopen after a crash");
    }

    /// One `next` pointer rotted into a self-loop (blocks carry no
    /// checksum) in `H1` of the deployed geometry, a filtered level: the
    /// probe that follows it, and the reopen that re-reads the level for
    /// its filter, each give up as `Corrupt` within two reads per block
    /// of the store. Neither loops forever, and the open handle serves every
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
        let file = env.open_file(&level_file_name(head.raw() >> 32)).unwrap().unwrap();
        let mut file = SimDisk::from_file(file, cfg.b).unwrap();
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
}
