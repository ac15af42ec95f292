//! A persistent key-value store: the logarithmic-method table with
//! every disk level in a file of its own ([`LevelFiles`]), with
//! open-or-create / reopen semantics on a [`StoreMedia`] — a real
//! directory by default ([`DirMedia`]), or the deterministic
//! crash-simulation environment ([`crate::SimMedia`]) that the torture
//! harness sweeps.
//!
//! This is the "production front-end" over the paper's machinery: the
//! construction itself is exactly [`LogMethodTable`] (Lemma 5 — chosen
//! over the bootstrapped table because a store workload *updates* keys,
//! and the log-method's shallow-first lookup gives newest-wins upserts),
//! and the persistence layer adds only what the model deliberately
//! abstracts away — where the blocks live between processes.
//!
//! ## On-disk layout
//!
//! A store directory holds:
//!
//! * `level-<n>.blk` — one block file per non-empty disk level: the
//!   level's buckets at slots `0..buckets`, its few chain blocks behind
//!   them, nothing else. A file is created by the flush that builds the
//!   level, `fdatasync`ed once before the manifest that first names it,
//!   never written again, and unlinked after the manifest that stops
//!   naming it is durable (see [`LevelFiles`]). `<n>` only ever grows;
//!   a block id is `n << 32 | slot`;
//! * one more `level-<n>.blk` when the last commit found `H0` non-empty:
//!   `H0`'s **image**, its items packed `b` to a block in `⌈|H0|/b⌉`
//!   blocks. The commit writes it, and it lives like any level file: the
//!   next commit writes a new one (or none) and unlinks it;
//! * `MANIFEST` — a small text file with the model parameters `(b, m,
//!   γ)`, the hash seed, the blob-log generation, an `h0 <base> <blocks>
//!   <items>` line naming the image (none when `H0` was empty) and one
//!   line per disk level: the block id of its first bucket (hence its
//!   file), its bucket and item counts. O(log n) lines, a couple of
//!   hundred bytes at any table size. Written atomically (tmp + rename,
//!   then a directory fsync so the rename itself is durable) by every
//!   commit — the single commit point of the store;
//! * `store.blob` / `store.<gen>.blob` — payload mode only: the blob log
//!   the table's value words point into; [`KvStore::compact`] rewrites
//!   its live part as the next generation, which the manifest names;
//! * `LOCK` — mutual exclusion for the directory. Ownership is an OS
//!   advisory lock held on the file for the handle's lifetime, so a
//!   second live handle fails fast instead of silently overwriting the
//!   manifest, and the kernel releases a dead process's lock with it —
//!   a crash can never wedge the store. The pid written inside is
//!   informational (error messages, humans inspecting the directory).
//!
//! The manifest's first line is `dxh-store v3`. A `dxh-store v2`
//! manifest — the same lines, never an `h0` one — opens as a store whose
//! `H0` is empty, and its next commit writes `v3`. A binary that
//! predates the image reads only `v2` and refuses a `v3` manifest at its
//! first line, as `Corrupt` ("bad magic"), before it writes or removes
//! anything — so it never opens an imaged store without its `H0` and
//! then deletes the image as a stray. An older layout still is refused
//! by name as [`ExtMemError::BadConfig`], likewise touching nothing: a
//! `dxh-store v1` manifest, a `MANIFEST.DELTA` chain beside the
//! manifest, a level in the single `store.blk` all levels once shared
//! ("file 0"). The build at `a883dab` opens each of them; one
//! [`KvStore::compact`] there, and a close, leaves a `v2` layout.
//!
//! [`KvStore::sync`] writes the memory-resident `H0` as an image — it
//! stays in memory, and reaches the levels only when it fills, as in
//! Lemma 5 — then `fdatasync`s the level files written since the last
//! commit, the image among them, then rewrites the manifest — after it
//! returns, a reopened store sees every item inserted so far. Dropping
//! the store syncs best-effort, and a handle that made no modifications
//! skips the manifest rewrite entirely.
//!
//! Between syncs nothing a committed manifest names is touched, so a
//! process that dies there loses exactly what it had not synced: reopen
//! — after a crash or a clean close, the same code — opens the files
//! the manifest's level and `h0` lines name and removes every other
//! block file (a level built but never committed, one carried away but
//! not yet unlinked, an image a later commit replaced) as a stray.
//! There is no free list to restore, no walk over the table and nothing
//! to detect; only the levels that carry a filter are read, to rebuild
//! it, and the image, to reload `H0`. The paper's bounds say nothing about
//! durability, and the store keeps that separation honest: I/O
//! accounting sits above the backend and never sees a file.
//!
//! What the directory holds is therefore the live levels and `H0`'s
//! image: bytes on disk ÷ bytes of live items is the sealed fill's own
//! `1048 / (48 · 16)` at `b = 64` (an image is denser, `1048 / (64 ·
//! 16)` a full block). [`KvStore::compact`] no longer shrinks anything a flush
//! would not; it purges what only a merge into the deepest level can —
//! shadowed copies, deletion markers, and in payload mode the blob
//! log's dead records — by merging every level into one.
//!
//! I/O counters start from zero at every open; they measure the current
//! process's accounted transfers, not the lifetime of the files.

use std::path::Path;

use dxh_extmem::{
    check_key, check_value, BlobLog, Disk, ExtMemError, IoCostModel, IoSnapshot, Key, Result, Value,
};
use dxh_tables::ExternalDictionary;

use crate::config::CoreConfig;
use crate::log_method::LogMethodTable;
use crate::media::{read_text, DirMedia, StoreMedia, MANIFEST};
use crate::stream::Region;

mod compaction;
mod levels;
mod manifest;
mod payload;
mod reopen;

pub use compaction::CompactionStats;
pub use levels::LevelFiles;
pub use manifest::ManifestIoStats;
use manifest::{plausible_creation_params, MAX_GAMMA, MAX_M};
use payload::blob_file_name;

/// A persistent external hash table bound to a [`StoreMedia`] — a real
/// directory by default.
///
/// ```no_run
/// use dxh_core::{CoreConfig, ExternalDictionary, KvStore};
///
/// let dir = std::env::temp_dir().join("my-store");
/// let cfg = CoreConfig::lemma5(64, 1024, 2)?;
/// {
///     let mut store = KvStore::open(&dir, cfg.clone(), 42)?;
///     store.insert(7, 700)?;
/// } // drop syncs
/// let mut store = KvStore::open(&dir, cfg, 42)?; // reopens, cfg from MANIFEST
/// assert_eq!(store.lookup(7)?, Some(700));
/// # Ok::<(), dxh_extmem::ExtMemError>(())
/// ```
///
/// The same protocol runs on the crash-simulation environment, which is
/// how the recovery path is torture-tested:
///
/// ```
/// use dxh_core::{CoreConfig, ExternalDictionary, KvStore, SimMedia};
/// use dxh_extmem::SimEnv;
///
/// let env = SimEnv::new();
/// let cfg = CoreConfig::lemma5(8, 128, 2)?;
/// let mut store = KvStore::open_on(SimMedia::open(&env)?, cfg, 42)?;
/// store.insert(7, 700)?;
/// store.sync()?;
/// assert_eq!(store.lookup(7)?, Some(700));
/// # Ok::<(), dxh_extmem::ExtMemError>(())
/// ```
pub struct KvStore<M: StoreMedia = DirMedia> {
    table: LogMethodTable<LevelFiles<M>>,
    /// The payload blob log — `Some` exactly when the store runs in
    /// **payload mode** ([`KvStore::open_payload`]): the table is then an
    /// index whose value words are `BLOB_TAG | offset` into this log,
    /// and the byte API ([`KvStore::put_bytes`] / [`KvStore::get_bytes`])
    /// is the way in. A raw store (`open`) has no log and keeps the
    /// paper's pure-u64 representation bit-for-bit.
    blob: Option<BlobLog<M::File>>,
    seed: u64,
    /// Generation of the blob log (bumped by each payload-mode
    /// [`KvStore::compact`]; see `blob_file_name`).
    data_gen: u64,
    /// Whether anything changed since the last manifest write. A clean
    /// handle's drop must not rewrite the manifest (it could clobber a
    /// newer sync made through another, later handle).
    dirty: bool,
    /// Set when a failed compaction drained the in-memory table: the
    /// handle can no longer represent the store, so sync/drop must not
    /// commit its state over the intact last manifest. Reopen recovers.
    poisoned: bool,
    /// Highest per-shard commit-log sequence number whose effects this
    /// store's manifest covers (0 = none; a store outside a service
    /// never moves it). The service stamps it with every batch it
    /// applies, so every manifest carries exactly its newest batch, and
    /// its reopen-time replay skips log records at or below it —
    /// without the watermark, a log that outlived a checkpoint would
    /// reapply *older* logged batches over a *newer*
    /// manifest-committed fold and tear the batch boundary (G4).
    watermark: u64,
    /// Where the last manifest written put `H0`'s image (`None`: `H0`
    /// was empty).
    image: Option<Region>,
    /// Manifest-commit byte accounting (see [`KvStore::manifest_io`]).
    manifest_io: ManifestIoStats,
    /// Length in bytes of the manifest the directory holds.
    manifest_len: u64,
    /// The persistence environment; holds the store's mutual-exclusion
    /// lock for the handle's lifetime. Declared last so the lock is
    /// released only after the table (and its level files) is gone.
    media: M,
}

impl KvStore<DirMedia> {
    /// Opens the store at `dir`, creating it (directory and manifest)
    /// when no manifest exists. On reopen the **persisted**
    /// parameters and seed win — they are baked into the block layout —
    /// and the caller's `cfg`/`seed` are only consulted to reject an
    /// incompatible `b` (the block size cannot change under a file).
    pub fn open(dir: impl AsRef<Path>, cfg: CoreConfig, seed: u64) -> Result<Self> {
        Self::open_on(DirMedia::open(dir)?, cfg, seed)
    }

    /// [`KvStore::open`] in **payload mode**: values are arbitrary byte
    /// strings in an append-only blob log, the u64 table is the index
    /// over it, and the store speaks [`KvStore::put_bytes`] /
    /// [`KvStore::get_bytes`]. The mode is recorded in the manifest and
    /// checked on reopen — a store never silently switches
    /// representation.
    pub fn open_payload(dir: impl AsRef<Path>, cfg: CoreConfig, seed: u64) -> Result<Self> {
        Self::open_payload_on(DirMedia::open(dir)?, cfg, seed)
    }

    /// The directory this store lives in.
    pub fn path(&self) -> &Path {
        self.media.dir()
    }
}

impl<M: StoreMedia> KvStore<M> {
    /// Opens the store living on `media` — the backend-generic twin of
    /// [`KvStore::open`]. The media's mutual exclusion is already held
    /// (it was acquired when `media` was constructed) and travels with
    /// the returned handle.
    pub fn open_on(media: M, cfg: CoreConfig, seed: u64) -> Result<Self> {
        Self::open_inner(media, cfg, seed, false)
    }

    /// [`KvStore::open_payload`] on caller-provided media — the
    /// backend-generic payload-mode open (the sharded service and the
    /// torture harness both come through here on the sim media).
    pub fn open_payload_on(media: M, cfg: CoreConfig, seed: u64) -> Result<Self> {
        Self::open_inner(media, cfg, seed, true)
    }

    /// Shared open; `payloads` is the mode the caller asked for, and the
    /// manifest's recorded mode must agree on reopen.
    fn open_inner(mut media: M, cfg: CoreConfig, seed: u64, payloads: bool) -> Result<Self> {
        match read_text(&mut media, MANIFEST)? {
            Some(text) => Self::reopen(media, &text, cfg.b, payloads),
            None => {
                if !plausible_creation_params(&cfg) {
                    return Err(ExtMemError::BadConfig(format!(
                        "a store takes m ≤ {MAX_M} and gamma ≤ {MAX_GAMMA}"
                    )));
                }
                let disk = Disk::new(
                    LevelFiles::new(media.view(), cfg.b),
                    cfg.b,
                    IoCostModel::SeekDominated,
                );
                let table = LogMethodTable::new_on(disk, cfg, seed)?;
                let blob = if payloads {
                    Some(BlobLog::create(media.create_file(&blob_file_name(0))?)?)
                } else {
                    None
                };
                let mut store = KvStore {
                    table,
                    blob,
                    seed,
                    data_gen: 0,
                    dirty: false,
                    poisoned: false,
                    watermark: 0,
                    image: None,
                    manifest_io: ManifestIoStats::default(),
                    manifest_len: 0,
                    media,
                };
                store.write_manifest(false)?; // a crash before the first sync can still reopen
                Ok(store)
            }
        }
    }

    /// Writes `H0` as an image (`⌈|H0|/b⌉` block writes; `H0` stays in
    /// memory and nothing migrates), `fdatasync`s it and the level files
    /// written since the last commit, and atomically rewrites the
    /// manifest. After `sync` returns, a reopen sees every item inserted
    /// so far. A no-op when nothing changed since the last sync (or
    /// since the reopen).
    pub fn sync(&mut self) -> Result<()> {
        dxh_sync::assert_sync_allowed("KvStore::sync");
        self.commit(false)
    }

    /// [`KvStore::sync`] as the service's committers issue it, once per
    /// checkpoint round: the same commit, counted apart (the `delta_*`
    /// half of [`KvStore::manifest_io`]).
    pub(crate) fn harden(&mut self) -> Result<()> {
        dxh_sync::assert_sync_allowed("KvStore::harden");
        self.commit(true)
    }

    fn commit(&mut self, checkpoint: bool) -> Result<()> {
        self.check_poisoned()?;
        if !self.dirty {
            return Ok(());
        }
        // The fsyncs that make every append and block write since the
        // last commit durable: the blob log's here, **before** the index
        // can commit (`blob-sync-before-index-commit`: the index words a
        // manifest commits — `H0`'s image among them — point into the
        // log, so a crash must never find committed offsets dangling);
        // the level files' and `H0`'s image's inside the commit.
        self.blob_sync()?;
        self.write_manifest(checkpoint)?;
        self.dirty = false;
        Ok(())
    }

    /// Stamps the commit-log replay watermark the next manifest write
    /// persists: every service log record with `seq <= w` for this
    /// shard is covered by that manifest and must be skipped at replay.
    /// Called by the service committer under its store lock as each
    /// batch finishes applying, and by replay; meaningless outside a
    /// service.
    pub(crate) fn set_replay_watermark(&mut self, w: u64) {
        self.watermark = w;
    }

    /// The persisted (or just-stamped) commit-log replay watermark.
    pub(crate) fn replay_watermark(&self) -> u64 {
        self.watermark
    }

    /// The regions the manifest names, each in a file of its own: the
    /// disk levels, then `H0`'s image.
    fn named_regions(&self) -> Vec<Option<Region>> {
        let mut named = self.table.persisted_levels().to_vec();
        named.push(self.image);
        named
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned {
            return Err(ExtMemError::BadConfig(
                "store handle poisoned by a failed compaction; drop it and reopen".into(),
            ));
        }
        Ok(())
    }

    /// Notes, before a mutation, that the next sync has something to
    /// commit.
    fn mark_dirty(&mut self) -> Result<()> {
        self.check_poisoned()?;
        self.dirty = true;
        Ok(())
    }

    /// What the store occupies on its media, level by level: one call
    /// instead of a directory walk, on any media. Errors on a poisoned
    /// handle (its table no longer stands for the store).
    pub fn footprint(&self) -> Result<Footprint> {
        self.check_poisoned()?;
        let files = self.table.disk().backend();
        let footprint = |k, r: &Region| {
            let file_bytes = files.file_bytes(Some(r.base));
            LevelFootprint { k, items: r.items, buckets: r.buckets, file_bytes }
        };
        let levels = self.table.persisted_levels().iter().enumerate();
        let levels = levels.filter_map(|(k, region)| Some(footprint(k, region.as_ref()?)));
        Ok(Footprint {
            levels: levels.collect(),
            image: self.image.map(|r| footprint(0, &r)),
            data_bytes: files.file_bytes(None),
            blob_bytes: self.blob_len(),
            manifest_bytes: self.manifest_len,
        })
    }

    /// The backing table (tq/tu measurement, level diagnostics).
    pub fn table(&self) -> &LogMethodTable<LevelFiles<M>> {
        &self.table
    }

    /// Poisons the handle: every further method errors, and drop must
    /// not sync. The group-commit service uses this when a batch fails
    /// partway through being applied — the in-memory table then holds a
    /// partial batch that must never reach a manifest (a later sync, or
    /// the drop's best-effort sync, would commit a durable half-batch
    /// and break batch atomicity). The last committed manifest stays
    /// authoritative; reopening the media recovers to it.
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }
}

/// What one level of a [`KvStore`] holds and occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelFootprint {
    /// The level's index (`H_k`).
    pub k: usize,
    /// Items stored, shadowed copies and deletion markers included.
    pub items: usize,
    /// Buckets (primary blocks).
    pub buckets: u64,
    /// Length of the level's file in bytes: buckets plus chain blocks,
    /// times the slot size.
    pub file_bytes: u64,
}

/// What a [`KvStore`] occupies on its media ([`KvStore::footprint`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Footprint {
    /// The non-empty disk levels, shallowest first.
    pub levels: Vec<LevelFootprint>,
    /// `H0`'s image as the last commit wrote it, as `k = 0` with its
    /// blocks for buckets; `None` when that commit found `H0` empty.
    pub image: Option<LevelFootprint>,
    /// Bytes of block files, each once: the levels' files and the image's,
    /// plus — between two commits — those of levels a flush has carried
    /// away that the last manifest still names.
    pub data_bytes: u64,
    /// Length of the blob log (0 on a raw store).
    pub blob_bytes: u64,
    /// Length of the manifest.
    pub manifest_bytes: u64,
}

impl Footprint {
    /// Every byte the store keeps: block files, blob log and manifest.
    #[cfg(test)]
    fn total_bytes(&self) -> u64 {
        self.data_bytes + self.blob_bytes + self.manifest_bytes
    }
}

impl<M: StoreMedia> Drop for KvStore<M> {
    /// Best-effort sync; call [`KvStore::sync`] explicitly to observe
    /// errors. Never panics — a poisoned handle (or a dead simulated
    /// machine) makes the sync a quiet no-op, leaving the last committed
    /// manifest authoritative.
    fn drop(&mut self) {
        crate::media::best_effort(self.sync());
    }
}

/// The word an 8-byte payload holds — how a payload-mode store, and the
/// service's overlay above one, answers a word lookup. A payload of any
/// other length errors: use the byte API.
pub(crate) fn word_of_payload(key: Key, payload: &[u8]) -> Result<Value> {
    let bytes: [u8; 8] = payload.try_into().map_err(|_| {
        ExtMemError::BadConfig(format!(
            "key {key} holds a {}-byte payload, not a word; use get_bytes",
            payload.len()
        ))
    })?;
    Ok(u64::from_le_bytes(bytes))
}

impl<M: StoreMedia> ExternalDictionary for KvStore<M> {
    /// Inserts `key`. The reserved-sentinel checks run **before** the
    /// handle is marked dirty: a rejected insert mutates nothing, so a
    /// handle whose every mutation was rejected stays clean, and its
    /// next `sync` (or drop) is a no-op instead of a manifest rewrite
    /// and a directory fsync.
    ///
    /// On a payload-mode store the word is stored as its 8-byte
    /// little-endian payload, so the **full** value domain — including
    /// `u64::MAX`, rejected on the raw path below — round-trips (the
    /// deletion marker is out-of-band there; see the sentinel-domain
    /// note on [`dxh_extmem::VALUE_TOMBSTONE`]).
    fn insert(&mut self, key: Key, value: Value) -> Result<()> {
        if self.blob.is_some() {
            return self.put_bytes(key, &value.to_le_bytes());
        }
        check_key(key)?;
        check_value(value)?;
        self.mark_dirty()?;
        self.table.insert(key, value)
    }

    /// Errors on a handle poisoned by a failed [`KvStore::compact`]:
    /// the in-memory table was drained into the aborted pass, so
    /// answering from it would report every synced key as absent.
    ///
    /// On a payload-mode store this decodes the 8-byte payload written
    /// by the word-insert above; a payload of any other length errors —
    /// use [`KvStore::get_bytes`] for the byte API.
    fn lookup(&mut self, key: Key) -> Result<Option<Value>> {
        self.check_poisoned()?;
        if self.blob.is_none() {
            return self.table.lookup(key);
        }
        let Some(payload) = self.get_bytes(key)? else {
            return Ok(None);
        };
        word_of_payload(key, payload).map(Some)
    }

    /// Deletes through the log method's deletion-marker path (see
    /// [`LogMethodTable::delete`]); the key stays absent across sync and
    /// reopen, and its space is reclaimed by level merges and
    /// [`KvStore::compact`]. A miss leaves the handle clean — it is
    /// marked dirty only once the table confirms it will write a marker.
    fn delete(&mut self, key: Key) -> Result<bool> {
        self.check_poisoned()?;
        let dirty = &mut self.dirty;
        self.table.delete_with_hook(key, &mut || {
            *dirty = true;
            Ok(())
        })
    }

    /// On a handle poisoned by a failed [`KvStore::compact`] this
    /// reports the drained in-memory table (typically 0), not the
    /// store's durable contents — the trait signature cannot error.
    /// Reopen the directory for the real count.
    fn len(&self) -> usize {
        self.table.len()
    }

    fn disk_stats(&self) -> IoSnapshot {
        self.table.disk_stats()
    }

    fn memory_used(&self) -> usize {
        self.table.memory_used()
    }

    fn block_capacity(&self) -> usize {
        self.table.block_capacity()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::{BTreeMap, BTreeSet};
    use std::fs;
    use std::path::PathBuf;

    use dxh_extmem::{Block, FaultPlan, IoEvent, SimEnv};

    use super::levels::{level_file_name, mutant};
    use super::manifest::Manifest;
    use super::*;
    use crate::media::{is_data_file, SimMedia, LOCK, MANIFEST};

    /// The clean-shutdown marker of an older layout; nothing writes it.
    const CLEAN: &str = "CLEAN";

    // What the test modules of `store` share: scratch directories, the
    // deployed configuration in miniature, crash helpers for both media.

    pub(super) fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dxh-store-{tag}-{}", std::process::id()))
    }

    pub(super) fn cfg() -> CoreConfig {
        CoreConfig::lemma5(8, 128, 2).unwrap()
    }

    /// Simulates a process crash: the handle's Drop never runs. A real
    /// crash also releases the OS lock (the kernel closes the dead
    /// process's descriptors); `mem::forget` instead *leaks* the
    /// descriptor, so this process would still hold the lock. Unlinking
    /// the file lets the reopen create and lock a fresh inode.
    pub(super) fn crash(s: KvStore) {
        let lock = s.path().join(LOCK);
        std::mem::forget(s);
        let _ = fs::remove_file(lock);
    }

    /// A deterministic payload whose length varies with the key, so a
    /// mis-indexed read cannot accidentally produce the right bytes.
    pub(super) fn payload_for(k: u64) -> Vec<u8> {
        let len = 1 + (k as usize * 7) % 90;
        (0..len).map(|i| (k as u8).wrapping_mul(31).wrapping_add(i as u8)).collect()
    }

    /// Opens the (word-mode) store on `env`'s root.
    pub(super) fn sim_store(env: &dxh_extmem::SimEnv) -> KvStore<crate::SimMedia> {
        KvStore::open_on(crate::SimMedia::open(env).unwrap(), cfg(), 84).unwrap()
    }

    /// Crashes `env` at its next I/O, drops `s` over the dead machine and
    /// brings it back up.
    pub(super) fn sim_crash(env: &dxh_extmem::SimEnv, s: KvStore<crate::SimMedia>, seed: u64) {
        env.set_plan(dxh_extmem::FaultPlan::crash(env.ops(), seed));
        drop(s);
        env.power_cycle();
    }

    /// Durably installs byte file `name` on `env`'s root.
    pub(super) fn put_file(env: &dxh_extmem::SimEnv, name: &str, bytes: &[u8]) {
        use dxh_extmem::BlobFile;
        let mut f = env.create_file(name).unwrap();
        f.append(bytes).unwrap();
        f.sync().unwrap();
        env.sync_dir("").unwrap();
    }

    pub(super) fn manifest_text(env: &dxh_extmem::SimEnv) -> String {
        String::from_utf8(env.read_file(MANIFEST).unwrap().unwrap()).unwrap()
    }

    /// The files `s`'s directory holds when nothing is in flight: the
    /// manifest, one block file per non-empty level, `H0`'s image when
    /// the last commit found `H0` non-empty and, in payload mode, the
    /// blob log.
    pub(super) fn named_files<M: StoreMedia>(s: &KvStore<M>) -> BTreeSet<String> {
        let regions = s.named_regions().into_iter().flatten();
        let mut files: BTreeSet<String> =
            regions.map(|r| level_file_name(r.base.raw() >> 32)).collect();
        files.insert(MANIFEST.to_string());
        files.extend(s.payload_mode().then(|| blob_file_name(s.data_gen)));
        files
    }

    /// Every file of `env`'s root directory.
    pub(super) fn sim_files(env: &SimEnv) -> BTreeSet<String> {
        env.file_names().into_iter().filter(|name| !name.contains('/')).collect()
    }

    /// The bytes of every file of `env`.
    fn sim_image(env: &SimEnv) -> BTreeMap<String, Vec<u8>> {
        let image = |name: String| {
            let bytes = env.read_file(&name).unwrap().unwrap();
            (name, bytes)
        };
        env.file_names().into_iter().map(image).collect()
    }

    /// What an open of an older on-disk layout must do: fail as
    /// `BadConfig` naming `shape` and the build that migrates it, having
    /// created, written, synced, renamed, truncated and removed nothing —
    /// every file of `env` keeps its bytes.
    pub(crate) fn assert_refused<T>(env: &SimEnv, shape: &str, open: impl FnOnce() -> Result<T>) {
        let before = sim_image(env);
        env.take_trace();
        match open().map(drop) {
            Err(ExtMemError::BadConfig(why)) => {
                assert!(why.contains(shape) && why.contains("a883dab"), "{shape}: {why}")
            }
            other => panic!("{shape}: {other:?}"),
        }
        let mutations: Vec<IoEvent> = env
            .take_trace()
            .into_iter()
            .filter(|e| match e {
                IoEvent::ReadAt { .. } => false,
                IoEvent::Meta { label, .. } => {
                    let ops = [
                        "file-create",
                        "file-rename",
                        "file-remove",
                        "file-truncate",
                        "file-extend",
                    ];
                    label.starts_with("dir-sync") || ops.iter().any(|op| label.starts_with(op))
                }
                _ => true,
            })
            .collect();
        assert_eq!(mutations, [], "{shape}");
        assert!(sim_image(env) == before, "{shape}: a file changed");
    }

    /// Every file of `dir` but the lock.
    pub(super) fn dir_files(dir: &std::path::Path) -> BTreeSet<String> {
        let names =
            fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name().into_string().unwrap());
        names.filter(|name| name != LOCK).collect()
    }

    /// Every block (primaries and chains) of every level of `s`, walked
    /// behind the accounting.
    pub(super) fn level_blocks<M: StoreMedia>(s: &mut KvStore<M>) -> u64 {
        let chains: u64 = s.table.level_chain_blocks().unwrap().iter().sum();
        chains + s.table.level_geometry().iter().skip(1).map(|l| l.1).sum::<u64>()
    }

    #[test]
    fn create_insert_reopen_lookup() {
        let dir = tmp_dir("roundtrip");
        let _ = fs::remove_dir_all(&dir);
        {
            let mut s = KvStore::open(&dir, cfg(), 5).unwrap();
            for k in 0..1000u64 {
                s.insert(k, k * 7).unwrap();
            }
            assert_eq!(s.len(), 1000);
        } // drop syncs
        let mut s = KvStore::open(&dir, cfg(), 999).unwrap(); // seed ignored on reopen
        assert_eq!(s.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(s.lookup(k).unwrap(), Some(k * 7), "key {k}");
        }
        assert_eq!(s.lookup(77_777).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_store_keeps_accepting_inserts() {
        let dir = tmp_dir("continue");
        let _ = fs::remove_dir_all(&dir);
        {
            let mut s = KvStore::open(&dir, cfg(), 6).unwrap();
            for k in 0..500u64 {
                s.insert(k, 1).unwrap();
            }
        }
        {
            let mut s = KvStore::open(&dir, cfg(), 6).unwrap();
            for k in 500..1500u64 {
                s.insert(k, 1).unwrap();
            }
            // Upserts across the generation boundary still win.
            for k in 0..100u64 {
                s.insert(k, 2).unwrap();
            }
        }
        let mut s = KvStore::open(&dir, cfg(), 6).unwrap();
        // len counts physical items: re-inserted keys leave shadowed
        // copies in deeper levels until a merge dedups them (the same
        // upsert semantics as the in-memory LogMethodTable).
        assert!(s.len() >= 1500, "all live keys present: {}", s.len());
        for k in 0..100u64 {
            assert_eq!(s.lookup(k).unwrap(), Some(2), "newest value wins after reopen");
        }
        for k in 100..1500u64 {
            assert_eq!(s.lookup(k).unwrap(), Some(1));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_sync_persists_without_drop() {
        let dir = tmp_dir("sync");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open(&dir, cfg(), 7).unwrap();
        s.insert(1, 10).unwrap();
        s.sync().unwrap();
        // The first process "crashes" after sync: its Drop never runs.
        crash(s);
        let mut s2 = KvStore::open(&dir, cfg(), 7).unwrap();
        assert_eq!(s2.lookup(1).unwrap(), Some(10));
        drop(s2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// What closes G4's window: between two manifest commits no byte of
    /// a file the committed manifest names changes, and none of them is
    /// unlinked. A flush builds its destination in a file of its own and
    /// only reads the levels it takes: a crash at any point finds the
    /// committed state byte for byte.
    #[test]
    fn no_file_a_committed_manifest_names_changes_before_the_next_commit() {
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        let deployed = CoreConfig::lemma5(64, 4096, 2).unwrap();
        for (tag, c, rounds) in [("small", cfg(), 7), ("deployed", deployed, 4)] {
            // One H0 in H1 over deeper levels: the next flush finds room
            // in a level the manifest names.
            let held = (3 * rounds + 1) * c.h0_capacity() as u64;
            let dir = tmp_dir(&format!("immutable-{tag}"));
            let _ = fs::remove_dir_all(&dir);
            let mut s = KvStore::open(&dir, c.clone(), 31).unwrap();
            for k in 0..held {
                s.insert(k, k).unwrap();
            }
            s.sync().unwrap();
            let text = fs::read_to_string(dir.join(MANIFEST)).unwrap();
            let committed = Manifest::parse(&text).unwrap();
            assert_eq!(committed.levels[1].map(|r| r.items), Some(c.h0_capacity()));
            let named: Vec<String> =
                named_files(&s).into_iter().filter(|f| is_data_file(f)).collect();
            assert!(named.len() >= 2, "{tag}: {named:?}");
            let image = |dir: &std::path::Path| -> Vec<Vec<u8>> {
                named.iter().map(|f| fs::read(dir.join(f)).unwrap()).collect()
            };
            let before = image(&dir);
            let blocks: usize = before.iter().map(|f| f.len() / Block::encoded_len(c.b)).sum();
            assert!(blocks as u64 >= held / c.b as u64);
            let mut rng = StdRng::seed_from_u64(31);
            for step in 0..6 * c.h0_capacity() as u64 {
                let key = rng.next_u64() % (2 * held);
                match rng.next_u64() % 4 {
                    0 => drop(s.delete(key).unwrap()),
                    _ => s.insert(key, step).unwrap(),
                }
            }
            assert_ne!(s.table.persisted_levels(), &committed.levels[..], "{tag}: no flush ran");
            assert!(before == image(&dir), "{tag}: a committed file was written");
            crash(s);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn rejected_insert_leaves_the_store_clean_and_sync_a_noop() {
        // Regression: `insert` used to mark the handle dirty before
        // validating the reserved sentinels, so a rejected insert made
        // the next sync rewrite the manifest — pure wasted fsyncs, one
        // per batch in the group-commit path. A mutation that changes
        // nothing must leave the store clean.
        let dir = tmp_dir("clean-reject");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open(&dir, cfg(), 14).unwrap();
        s.insert(1, 1).unwrap();
        s.sync().unwrap();
        let manifest = fs::read(dir.join(MANIFEST)).unwrap();
        assert!(s.insert(u64::MAX, 5).is_err(), "reserved key rejected");
        assert!(s.insert(5, u64::MAX).is_err(), "reserved value rejected");
        s.sync().unwrap();
        assert_eq!(
            fs::read(dir.join(MANIFEST)).unwrap(),
            manifest,
            "sync after rejected mutations must not rewrite the manifest"
        );
        drop(s);
        assert_eq!(fs::read(dir.join(MANIFEST)).unwrap(), manifest, "drop stays a no-op too");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_handle_drop_does_not_rewrite_manifest() {
        let dir = tmp_dir("clean-drop");
        let _ = fs::remove_dir_all(&dir);
        {
            let mut s = KvStore::open(&dir, cfg(), 13).unwrap();
            for k in 0..400u64 {
                s.insert(k, k).unwrap();
            }
        }
        let before = fs::read(dir.join(MANIFEST)).unwrap();
        {
            let mut s = KvStore::open(&dir, cfg(), 13).unwrap();
            assert_eq!(s.lookup(1).unwrap(), Some(1)); // reads only
        }
        let after = fs::read(dir.join(MANIFEST)).unwrap();
        assert_eq!(before, after, "a read-only handle must not touch the manifest");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_live_handle_fails_fast() {
        let dir = tmp_dir("lock");
        let _ = fs::remove_dir_all(&dir);
        let s = KvStore::open(&dir, cfg(), 1).unwrap();
        let err = match KvStore::open(&dir, cfg(), 1) {
            Err(e) => e,
            Ok(_) => panic!("second live handle must fail"),
        };
        assert!(err.to_string().contains("locked by pid"), "got: {err}");
        drop(s);
        // The lock is released with the handle.
        drop(KvStore::open(&dir, cfg(), 1).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_file_of_a_dead_process_is_reclaimed() {
        let dir = tmp_dir("stale-lock");
        let _ = fs::remove_dir_all(&dir);
        drop(KvStore::open(&dir, cfg(), 1).unwrap());
        // A crash leaves the LOCK file behind, but the kernel released
        // the dead process's OS lock with its descriptors — ownership is
        // the lock, not the file, so reopening succeeds no matter what
        // the file says (its pid content is informational only).
        fs::write(dir.join(LOCK), "4194304999\n").unwrap();
        drop(KvStore::open(&dir, cfg(), 1).unwrap());
        fs::write(dir.join(LOCK), "???\n").unwrap();
        drop(KvStore::open(&dir, cfg(), 1).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_persists_across_sync_and_reopen() {
        let dir = tmp_dir("delete");
        let _ = fs::remove_dir_all(&dir);
        {
            let mut s = KvStore::open(&dir, cfg(), 31).unwrap();
            for k in 0..500u64 {
                s.insert(k, k + 1).unwrap();
            }
            for k in (0..500u64).step_by(2) {
                assert!(s.delete(k).unwrap(), "key {k}");
            }
            // Reinsert a few deleted keys with new values.
            for k in (0..100u64).step_by(10) {
                s.insert(k, 9000 + k).unwrap();
            }
        } // drop syncs
        let mut s = KvStore::open(&dir, cfg(), 31).unwrap();
        for k in 0..500u64 {
            let expect = if k < 100 && k % 10 == 0 {
                Some(9000 + k)
            } else if k % 2 == 0 {
                None
            } else {
                Some(k + 1)
            };
            assert_eq!(s.lookup(k).unwrap(), expect, "key {k} after reopen");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_block_size_rejected() {
        let dir = tmp_dir("badb");
        let _ = fs::remove_dir_all(&dir);
        drop(KvStore::open(&dir, cfg(), 8).unwrap());
        let other = CoreConfig::lemma5(16, 256, 2).unwrap();
        assert!(KvStore::open(&dir, other, 8).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kv_store_round_trips_on_the_sim_media() {
        use crate::media::SimMedia;
        use dxh_extmem::SimEnv;
        let env = SimEnv::new();
        {
            let mut s = KvStore::open_on(SimMedia::open(&env).unwrap(), cfg(), 61).unwrap();
            for k in 0..800u64 {
                s.insert(k, k * 3).unwrap();
            }
            for k in (0..800u64).step_by(4) {
                assert!(s.delete(k).unwrap());
            }
        } // drop syncs, releases the sim lock
        let mut s = KvStore::open_on(SimMedia::open(&env).unwrap(), cfg(), 61).unwrap();
        for k in 0..800u64 {
            let expect = (k % 4 != 0).then_some(k * 3);
            assert_eq!(s.lookup(k).unwrap(), expect, "key {k} after sim reopen");
        }
        let stats = s.compact().unwrap();
        assert_eq!(stats.live_items, 600);
        assert_eq!(s.footprint().unwrap().levels.len(), 1, "one level, on any media");
        for k in (1..800u64).step_by(13) {
            let expect = (k % 4 != 0).then_some(k * 3);
            assert_eq!(s.lookup(k).unwrap(), expect, "key {k} after sim compact");
        }
    }

    fn deployed() -> CoreConfig {
        CoreConfig::lemma5(64, 4096, 2).unwrap()
    }

    /// Block reads `env` traced since its trace was last taken: the
    /// positional reads of level files.
    pub(super) fn block_reads(env: &SimEnv) -> u64 {
        let trace = env.take_trace();
        let reads = trace
            .iter()
            .filter(|e| matches!(e, IoEvent::ReadAt { file, .. } if is_data_file(file)));
        reads.count() as u64
    }

    /// Blocks of `H0`'s image the last commit wrote: what a reopen reads
    /// to reload `H0`.
    pub(super) fn image_blocks<M: StoreMedia>(s: &KvStore<M>) -> u64 {
        s.image.map_or(0, |r| r.buckets)
    }

    /// Blocks (primaries and chains) of the levels that carry a filter —
    /// what a reopen reads to rebuild them — and how many such levels
    /// are occupied. Walked behind the accounting.
    pub(super) fn filtered_blocks<M: StoreMedia>(s: &mut KvStore<M>) -> (u64, usize) {
        let filtered = s.table.filter_plan().levels();
        let levels = s.table.persisted_levels().to_vec();
        let (mut blocks, mut occupied) = (0, 0);
        for region in levels.iter().skip(1).take(filtered).flatten() {
            occupied += 1;
            region.inspect(s.table.disk_mut(), |_, _, _| blocks += 1).unwrap();
        }
        (blocks, occupied)
    }

    /// There is one reopen. After a power cycle in the middle of a run
    /// it opens the files the last commit's manifest names, reads the
    /// levels that carry a filter and `H0`'s image — nothing else: no
    /// walk over the table, no free list to rebuild — removes what the
    /// crash left behind, and serves exactly the committed state.
    #[test]
    fn crash_reopen_is_the_clean_reopen() {
        let open = |env: &SimEnv| KvStore::open_on(SimMedia::open(env).unwrap(), deployed(), 7);
        let env = SimEnv::new();
        let mut s = open(&env).unwrap();
        let (hardened, written) = (70_000u64, 90_000u64);
        for k in 0..hardened {
            s.insert(k, k + 1).unwrap();
        }
        s.harden().unwrap();
        let committed = named_files(&s);
        let filtered = s.table.filter_plan().levels();
        let deepest = s.footprint().unwrap().levels.last().expect("levels").k;
        assert!(deepest > filtered, "H{deepest} carries no filter");
        for k in hardened..written {
            s.insert(k, k + 1).unwrap();
        }
        assert_ne!(named_files(&s), committed, "flushes ran past the commit");
        assert!(sim_files(&env).is_superset(&committed), "what the commit names is still there");
        sim_crash(&env, s, 5);
        env.take_trace();
        let mut s = open(&env).unwrap();
        let reads = block_reads(&env);
        assert_eq!(reads, s.disk_stats().reads, "every read of the open is accounted");
        let (rebuilt, image) = (filtered_blocks(&mut s).0, image_blocks(&s));
        assert!(image > 0, "{hardened} keys leave H0 non-empty");
        assert_eq!(reads, rebuilt + image, "the filtered levels and the image, once per block");
        assert!(reads < level_blocks(&mut s), "and not the table");
        assert_eq!(named_files(&s), committed, "the last commit's levels");
        assert_eq!(sim_files(&env), committed, "and no file it does not name");
        assert_eq!(s.len() as u64, hardened);
        for k in 0..hardened {
            assert_eq!(s.lookup(k).unwrap(), Some(k + 1), "hardened key {k}");
        }
        for k in (hardened..written).step_by(101) {
            assert_eq!(s.lookup(k).unwrap(), None, "key {k} was never committed");
        }
        // A clean close and reopen does the same, to the read.
        drop(s);
        env.take_trace();
        let mut s = open(&env).unwrap();
        assert_eq!(block_reads(&env), filtered_blocks(&mut s).0 + image_blocks(&s));
        assert_eq!(sim_files(&env), committed, "nothing changed, nothing was rewritten");
    }

    /// One lifecycle with every kind of leftover: a commit, flushes past
    /// it that carry committed levels away, then a second commit cut
    /// short. Returns what each commit held.
    fn two_commits(env: &SimEnv) -> [Vec<Option<Value>>; 2] {
        let answers = |s: &mut KvStore<SimMedia>| (0..900).map(|k| s.lookup(k).unwrap()).collect();
        let mut s = sim_store(env);
        for k in 0..400u64 {
            s.insert(k, k + 1).unwrap();
        }
        s.sync().unwrap();
        let first = answers(&mut s);
        for k in 300..900u64 {
            s.insert(k, k + 2).unwrap();
        }
        for k in (0..300u64).step_by(3) {
            assert!(s.delete(k).unwrap());
        }
        let second = answers(&mut s);
        drop(s); // the second commit, if the machine lives that long
        [first, second]
    }

    /// Reopening is idempotent and needs no luck: wherever a crash cuts
    /// the second commit, and wherever a second crash then cuts the
    /// reopen itself, the next reopen serves exactly one of the two
    /// committed states and leaves no file the manifest does not name.
    #[test]
    fn a_crash_anywhere_in_a_commit_or_in_the_reopen_after_it_recovers_to_a_commit() {
        let clean = SimEnv::new();
        let states = two_commits(&clean);
        let lifecycle_ops = clean.ops();
        let (mut old, mut new, mut strays_met) = (0, 0, 0);
        for k in lifecycle_ops - 40..=lifecycle_ops {
            for reopen_crash in [None, Some(2u64), Some(9), Some(17)] {
                let env = SimEnv::new();
                env.set_plan(FaultPlan::crash(k, k ^ 0xC0FFEE));
                let died = std::panic::catch_unwind(|| two_commits(&env)).is_err();
                assert_eq!(died || env.crashed(), k < lifecycle_ops, "crash_at {k}");
                env.power_cycle();
                strays_met += usize::from(sim_files(&env).contains(CLEAN));
                if let Some(after) = reopen_crash {
                    env.set_plan(FaultPlan::crash(env.ops() + after, after));
                    drop(SimMedia::open(&env).and_then(|m| KvStore::open_on(m, cfg(), 84)));
                    env.power_cycle();
                }
                let mut s = sim_store(&env);
                let got: Vec<Option<Value>> = (0..900).map(|k| s.lookup(k).unwrap()).collect();
                let which = states.iter().position(|state| *state == got);
                let which = which.unwrap_or_else(|| panic!("crash_at {k}: neither commit"));
                old += usize::from(which == 0);
                new += usize::from(which == 1);
                let when = format!("crash_at {k}, reopen crash {reopen_crash:?}");
                assert_eq!(sim_files(&env), named_files(&s), "{when}");
                assert!(dxh_dura::check_trace(&env.take_trace()).is_empty(), "{when}");
            }
        }
        assert!(old > 0 && new > 0, "the sweep straddles the commit point: {old} / {new}");
        assert_eq!(strays_met, 0, "nothing ever writes {CLEAN}");
    }

    /// What a directory holds is the live levels. After any number of
    /// inserts and a sync: `MANIFEST`, one block file per non-empty
    /// level — buckets plus chain blocks, times the slot size, to the
    /// byte — and nothing else; at the deployed geometry that is within
    /// 1.45 of the live items' own bytes (the sealed fill alone costs
    /// 1048 / (48 · 16) = 1.36; the block heap this replaces sat at 2.7).
    /// `footprint` reports the same figures without touching the media.
    #[test]
    fn the_directory_holds_the_live_levels_and_nothing_else() {
        const N: u64 = 250_000;
        fn census<M: StoreMedia>(
            s: &mut KvStore<M>,
            files: &dyn Fn(&str) -> u64,
            listing: BTreeSet<String>,
        ) {
            let slot = Block::encoded_len(64) as u64;
            assert_eq!(listing, named_files(s));
            let footprint = s.footprint().unwrap();
            assert_eq!(footprint.levels.len(), s.table().active_levels());
            let chains = s.table.level_chain_blocks().unwrap();
            for level in &footprint.levels {
                assert_eq!((level.items, level.buckets), s.table().level_geometry()[level.k]);
                assert_eq!(level.file_bytes, (level.buckets + chains[level.k]) * slot);
                let file = s.table.persisted_levels()[level.k].expect("occupied").base.raw() >> 32;
                assert_eq!(files(&level_file_name(file)), level.file_bytes, "H{}", level.k);
            }
            let image = footprint.image.expect("n is no multiple of m/2: H0 is imaged");
            let geometry = s.table().level_geometry();
            assert_eq!((image.k, image.items, image.buckets), (0, geometry[0].0, image_blocks(s)));
            let file = s.image.expect("imaged").base.raw() >> 32;
            assert_eq!(files(&level_file_name(file)), image.file_bytes, "H0's image");
            assert_eq!(image.file_bytes, image.buckets * slot, "dense: no chain block");
            assert_eq!(footprint.data_bytes, (level_blocks(s) + image.buckets) * slot);
            assert_eq!(footprint.manifest_bytes, files(MANIFEST));
            let on_disk: u64 = listing.iter().map(|f| files(f)).sum();
            assert_eq!(footprint.total_bytes(), on_disk);
            let amp = on_disk as f64 / (16 * s.len()) as f64;
            assert!(s.len() as u64 == N && amp <= 1.45, "space_amp {amp:.3}");
        }
        let n = N;
        let dir = tmp_dir("census");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open(&dir, deployed(), 11).unwrap();
        for k in 0..n {
            s.insert(k, k).unwrap();
        }
        s.sync().unwrap();
        let len = |f: &str| fs::metadata(dir.join(f)).unwrap().len();
        census(&mut s, &len, dir_files(&dir));
        drop(s);
        let _ = fs::remove_dir_all(&dir);

        let env = SimEnv::new();
        let mut s = KvStore::open_on(SimMedia::open(&env).unwrap(), deployed(), 11).unwrap();
        for k in 0..n {
            s.insert(k, k).unwrap();
        }
        s.sync().unwrap();
        census(&mut s, &|f: &str| env.file_len(f), sim_files(&env));
    }

    /// Slots of block files present, replayed from a trace: creates,
    /// growth and unlinks.
    #[derive(Default)]
    struct Present(std::collections::BTreeMap<String, u64>);

    impl Present {
        /// Applies `events`; returns the peak of the total and how many
        /// block files were created.
        fn replay(&mut self, events: &[IoEvent]) -> (u64, usize) {
            let (mut peak, mut created) = (self.total(), 0);
            for event in events {
                if let IoEvent::Meta { label, fingerprint } = event {
                    if let Some(file) = label.strip_prefix("file-extend ") {
                        let slots = fingerprint / Block::encoded_len(cfg().b) as u64;
                        self.0.insert(file.to_string(), slots);
                    }
                    if let Some(file) = label.strip_prefix("file-remove ") {
                        self.0.remove(file);
                    }
                    created += usize::from(label.starts_with("file-create level-"));
                }
                peak = peak.max(self.total());
            }
            (peak, created)
        }

        fn total(&self) -> u64 {
            self.0.values().sum()
        }
    }

    /// A flush never holds more than its sources and its destination: the
    /// only file that appears while it runs is the level it builds. And
    /// between two commits the directory holds the files of the current
    /// levels and of the last commit's, nothing else — a level built and
    /// carried away since the commit is gone the moment its last block is
    /// read.
    #[test]
    fn a_flush_adds_its_destination_and_a_level_consumed_before_a_commit_is_gone() {
        let env = SimEnv::new();
        let mut s = sim_store(&env);
        let mut present = Present::default();
        let mut committed = named_files(&s);
        let (mut flushes, mut consumed_uncommitted) = (0, 0);
        for k in 0..6_000u64 {
            let before = (s.table.persisted_levels().to_vec(), present.total());
            s.insert(k, k).unwrap();
            if k % 1_700 == 1_699 {
                s.sync().unwrap();
                committed = named_files(&s);
                present.replay(&env.take_trace());
                assert_eq!(sim_files(&env), committed, "after the commit at {k}");
                continue;
            }
            if s.table.persisted_levels() == &before.0[..] {
                continue;
            }
            flushes += 1;
            let built = s.footprint().unwrap();
            let built = built.levels.first().expect("the flush landed somewhere");
            let (peak, created) = present.replay(&env.take_trace());
            let slots = built.file_bytes / Block::encoded_len(cfg().b) as u64;
            let when = format!("flush {flushes} into H{}", built.k);
            assert_eq!(created, 1, "{when}: the destination and no other file");
            assert!(before.1 + built.buckets <= peak && peak <= before.1 + slots, "{when}");
            let current = named_files(&s);
            let listing = sim_files(&env);
            let expected: BTreeSet<String> = current.union(&committed).cloned().collect();
            assert_eq!(listing, expected, "flush {flushes}");
            consumed_uncommitted +=
                usize::from(present.total() < peak && !current.is_subset(&committed));
        }
        assert!(flushes > 80 && consumed_uncommitted > 20, "{flushes} / {consumed_uncommitted}");
    }

    /// One store lifecycle on `env`: commits, flushes that carry
    /// committed levels away between them, a compaction. `Err` when the
    /// machine died on the way.
    fn mutant_lifecycle(env: &SimEnv) -> Result<()> {
        let mut s = SimMedia::open(env).and_then(|m| KvStore::open_on(m, cfg(), 84))?;
        for round in 0..4u64 {
            for k in round * 300..(round + 1) * 300 {
                s.insert(k, k + 1)?;
            }
            s.sync()?;
        }
        s.compact().map(drop)
    }

    /// Whether the store on `env` opens and holds what `upto` committed
    /// keys demand.
    fn holds_a_commit(env: &SimEnv) -> bool {
        let Ok(mut s) = SimMedia::open(env).and_then(|m| KvStore::open_on(m, cfg(), 84)) else {
            return false;
        };
        let rounds = s.len() as u64 / 300;
        (s.len() as u64).is_multiple_of(300)
            && (0..rounds * 300).all(|k| s.lookup(k).ok() == Some(Some(k + 1)))
            && (rounds * 300..1_200).all(|k| s.lookup(k).ok() == Some(None))
    }

    /// The two ways to get the file lifecycle wrong, seeded: unlink a
    /// carried level's file before the manifest that drops it is durable;
    /// leave one level file unsynced under a manifest that names it.
    /// Each is caught twice — by a crash sweep (some crash index leaves a
    /// store that does not open, or not to a commit) and by its rule of
    /// the trace automaton on the crash-free run — and with both off the
    /// same sweep and the same automaton find nothing.
    #[test]
    fn both_lifecycle_mutants_are_caught_by_a_sweep_and_by_their_trace_rule() {
        let run = |switch: Option<&'static std::thread::LocalKey<std::cell::Cell<bool>>>| {
            let arm = |on: bool| switch.into_iter().for_each(|switch| switch.set(on));
            let env = SimEnv::new();
            arm(true);
            mutant_lifecycle(&env).unwrap();
            let rules: BTreeSet<&str> =
                dxh_dura::check_trace(&env.take_trace()).iter().map(|v| v.rule).collect();
            let mut broken = 0;
            for k in (0..env.ops()).step_by(2) {
                for seed in [1, 2] {
                    let env = SimEnv::new();
                    env.set_tracing(false);
                    env.set_plan(FaultPlan::crash(k, seed * 0x9e37 + k));
                    arm(true);
                    let _ = mutant_lifecycle(&env);
                    arm(false);
                    env.power_cycle();
                    broken += usize::from(!holds_a_commit(&env));
                }
            }
            (rules, broken)
        };
        let (rules, broken) = run(None);
        assert!(rules.is_empty() && broken == 0, "{rules:?}, {broken} broken");
        let (rules, broken) = run(Some(&mutant::UNLINK_BEFORE_COMMIT));
        assert_eq!(rules, BTreeSet::from(["unlink-after-manifest-commit"]));
        assert!(broken > 0, "no crash exposed the early unlink");
        let (rules, broken) = run(Some(&mutant::SKIP_ONE_SYNC));
        assert_eq!(rules, BTreeSet::from(["rename-after-data-fsync"]));
        assert!(broken > 0, "no crash exposed the missing fdatasync");
    }

    /// A commit images `H0` and migrates nothing, so a store committed
    /// every `C` inserts holds, at every `C`, the levels of a table that
    /// was never committed — and the same `H0`, after the commit and
    /// again after a reopen, where a get of a key it holds reads no
    /// block.
    #[test]
    fn the_levels_are_the_models_whatever_the_commit_cadence() {
        const N: u64 = 125_000;
        let mut model = LogMethodTable::new(deployed(), 19).unwrap();
        for k in 0..N {
            model.insert(k, k + 1).unwrap();
        }
        let (levels, h0) = (model.level_geometry(), model.memory_items());
        assert_eq!(h0.len() as u64, N % deployed().h0_capacity() as u64);
        let resident = h0[h0.len() / 2].key;
        let get_reads = |s: &mut KvStore<SimMedia>| {
            let before = s.disk_stats().reads;
            assert_eq!(s.lookup(resident).unwrap(), Some(resident + 1));
            s.disk_stats().reads - before
        };
        for cadence in [1_000u64, 7_777, 52_000] {
            let env = SimEnv::new();
            let open = || KvStore::open_on(SimMedia::open(&env).unwrap(), deployed(), 19).unwrap();
            let mut s = open();
            for k in 0..N {
                s.insert(k, k + 1).unwrap();
                if (k + 1) % cadence == 0 {
                    s.sync().unwrap();
                }
            }
            s.sync().unwrap();
            assert_eq!(s.table().level_geometry(), levels, "C = {cadence}");
            assert!(s.table().memory_items() == h0, "C = {cadence}: H0 is the model's");
            assert_eq!(get_reads(&mut s), 0, "C = {cadence}");
            drop(s);
            let mut s = open();
            assert_eq!(s.table().level_geometry(), levels, "C = {cadence}, reopened");
            assert!(s.table().memory_items() == h0, "C = {cadence}: H0 reloaded");
            assert_eq!(get_reads(&mut s), 0, "C = {cadence}, reopened");
        }
    }

    /// The second commit of [`image_lifecycle`].
    #[derive(Clone, Copy, Debug)]
    enum SecondCommit {
        /// Deletes two keys `H0` holds and adds 20: a sync whose image
        /// replaces a non-empty one.
        Replace,
        /// Adds the 28 keys that fill `H0`, which migrates: a sync that
        /// finds `H0` empty and drops the image.
        Migrate,
        /// A compaction, which drains `H0` into its one level and drops
        /// the image.
        Compact,
    }

    /// Keys `0..100` committed — the first 64 migrated to `H1` on the
    /// way, 36 left in `H0` and imaged — then, unless `second` is `None`,
    /// its changes and commit. Returns the I/O index the second commit
    /// starts at.
    fn image_lifecycle(env: &SimEnv, second: Option<SecondCommit>) -> Result<u64> {
        let mut s = SimMedia::open(env).and_then(|m| KvStore::open_on(m, cfg(), 84))?;
        for k in 0..100 {
            s.insert(k, k + 1)?;
        }
        s.sync()?;
        let added = match second {
            None => return Ok(env.ops()),
            Some(SecondCommit::Replace) => {
                assert!(s.delete(70)? && s.delete(71)?);
                100..120
            }
            Some(SecondCommit::Migrate) => 100..128,
            Some(SecondCommit::Compact) => 100..100,
        };
        for k in added {
            s.insert(k, k + 1)?;
        }
        let start = env.ops();
        match second {
            Some(SecondCommit::Compact) => drop(s.compact()?),
            _ => s.sync()?,
        }
        Ok(start)
    }

    /// What a reopened store holds: its answers for keys `0..140` and
    /// its level geometry, `H0`'s item count first.
    fn held(s: &mut KvStore<SimMedia>) -> (Vec<Option<Value>>, Vec<(usize, u64)>) {
        let answers = (0..140).map(|k| s.lookup(k).unwrap()).collect();
        (answers, s.table().level_geometry())
    }

    /// A crash at every I/O of a commit that replaces a non-empty image
    /// of `H0`, of one that drops it after a migration, and of a
    /// compaction's: each reopen holds exactly the state of the commit
    /// before or of the one cut short, and the directory holds the files
    /// its manifest names — no stray `.blk`, image or level.
    #[test]
    fn a_crash_anywhere_in_a_commit_that_replaces_or_drops_the_image_recovers_to_a_commit() {
        let reopened = |env: &SimEnv| {
            let mut s = sim_store(env);
            // (A `MANIFEST.tmp` the crash cut short may outlive it: the next
            // commit writes it afresh, and no open reads it.)
            let blocks = |files: BTreeSet<String>| -> BTreeSet<String> {
                files.into_iter().filter(|f| is_data_file(f)).collect()
            };
            assert_eq!(blocks(sim_files(env)), blocks(named_files(&s)), "no stray .blk");
            held(&mut s)
        };
        let clean = SimEnv::new();
        image_lifecycle(&clean, None).unwrap();
        let first = reopened(&clean);
        assert_eq!(first.1[..2], [(36, 16), (64, 16)], "36 keys imaged, 64 in H1");
        for second in [SecondCommit::Replace, SecondCommit::Migrate, SecondCommit::Compact] {
            let clean = SimEnv::new();
            let start = image_lifecycle(&clean, Some(second)).unwrap();
            let end = clean.ops();
            let imaged = manifest_text(&clean).contains("\nh0 ");
            assert_eq!(imaged, matches!(second, SecondCommit::Replace), "{second:?}");
            let last = reopened(&clean);
            assert_ne!(last, first, "{second:?}");
            let (mut old, mut new) = (0, 0);
            for k in start..end {
                let env = SimEnv::new();
                env.set_plan(FaultPlan::crash(k, k ^ 0x1A6E));
                // (The commit may return `Ok` with the machine down: the
                // unlinks after its rename are best-effort.)
                let _ = image_lifecycle(&env, Some(second));
                assert!(env.crashed(), "{second:?} at {k}");
                env.power_cycle();
                let got = reopened(&env);
                assert!(got == first || got == last, "{second:?}, crash at {k}: {got:?}");
                old += usize::from(got == first);
                new += usize::from(got == last);
                let when = format!("{second:?}, crash at {k}");
                assert!(dxh_dura::check_trace(&env.take_trace()).is_empty(), "{when}");
            }
            assert!(old > 0 && new > 0, "{second:?}: the sweep straddles the commit: {old}/{new}");
        }
    }
}
