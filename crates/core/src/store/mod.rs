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
//!   commit — the single commit point of the store. Open writes none: a
//!   directory without one is an **empty store**, whose level, image and
//!   blob files are strays the open removes, and the first commit with
//!   something to commit writes the first manifest — binding the
//!   parameters and the mode, which until then are the opener's;
//! * `store.blob` / `store.<gen>.blob` — payload mode only: the blob log
//!   the table's value words point into; [`KvStore::compact`] rewrites
//!   its live part as the next generation, which the manifest names.
//!
//! Nothing else: mutual exclusion is an OS advisory lock on the
//! directory itself, held for the handle's lifetime, so a second live
//! handle fails fast instead of silently overwriting the manifest, and
//! the kernel releases a dead process's lock with it — a crash can
//! never wedge the store. Taking it creates, writes and syncs no file;
//! a `LOCK` file an older build left is ignored (docs/GUARANTEES.md G6).
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
//! One poison rule: a mutation (`insert`, `put_bytes`, a delete past
//! its presence probe, `compact`) or a commit that fails poisons the
//! handle, because the table may be half changed — a Lemma 5 flush
//! drains `H0` and takes the levels it merges out of the table before it
//! writes the level that replaces them. Every later method fails with
//! an [`ExtMemError::Io`] naming the failure, and no commit, the drop's
//! included, writes the table over the last manifest: reopen recovers
//! to it. A validation error (a reserved sentinel, a payload out of
//! bounds, the wrong mode) and a failed read poison nothing.
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
use dxh_tables::{ExternalDictionary, Region};

use crate::config::CoreConfig;
use crate::log_method::LogMethodTable;
use crate::media::{read_text, DirMedia, StoreMedia, MANIFEST};

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
    /// Why the handle no longer represents the store, once it does not.
    /// Every method then fails, and sync/drop must not commit the
    /// handle's state over the intact last manifest. Reopen recovers.
    poisoned: Option<Poison>,
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
    /// Opens the store at `dir`, creating it (the directory; the
    /// manifest waits for the first commit) when no manifest exists. On
    /// reopen the **persisted** parameters and seed win — they are baked
    /// into the block layout — and the caller's `cfg`/`seed` are only
    /// consulted to reject an incompatible `b` (the block size cannot
    /// change under a file).
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
                    poisoned: None,
                    watermark: 0,
                    image: None,
                    manifest_io: ManifestIoStats::default(),
                    manifest_len: 0,
                    media,
                };
                // No manifest: the store is empty, and whatever an
                // earlier handle left here before its first commit is a
                // stray. That commit writes the first manifest.
                store.remove_strays();
                Ok(store)
            }
        }
    }

    /// Writes `H0` as an image (`⌈|H0|/b⌉` block writes; `H0` stays in
    /// memory and nothing migrates), `fdatasync`s it and the level files
    /// written since the last commit, and atomically rewrites the
    /// manifest. After `sync` returns, a reopen sees every item inserted
    /// so far. A no-op when nothing changed since the last sync (or
    /// since the reopen). A failed sync poisons the handle: a retry
    /// could commit a table a half-failed write left behind, or trust an
    /// fsync that already failed once. Reopen recovers to the last
    /// commit.
    pub fn sync(&mut self) -> Result<()> {
        dxh_sync::assert_sync_allowed("KvStore::sync");
        self.commit(false)
    }

    /// [`KvStore::sync`] as the service's coordinator issues it, once per
    /// shard and checkpoint: the same commit, counted apart (the
    /// `delta_*` half of [`KvStore::manifest_io`]).
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
        let committed = self.blob_sync().and_then(|()| self.write_manifest(checkpoint));
        self.poison_on_failure(committed)?;
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
        match &self.poisoned {
            None => Ok(()),
            Some(Poison::Failed(why) | Poison::Wedged(why)) => {
                Err(ExtMemError::Io(std::io::Error::other(why.clone())))
            }
        }
    }

    /// Notes, before a mutation, that the next sync has something to
    /// commit.
    fn mark_dirty(&mut self) -> Result<()> {
        self.check_poisoned()?;
        self.dirty = true;
        Ok(())
    }

    /// The one poison rule: `result` is what a mutation or a commit
    /// returned once the handle was dirty, and an error there poisons the
    /// handle (see the module docs) — its table may no longer stand for
    /// the store, so nothing may answer from it or commit it. Validation
    /// errors and reads never come through here.
    fn poison_on_failure<T>(&mut self, result: Result<T>) -> Result<T> {
        if let Err(e) = &result {
            self.poisoned = Some(Poison::Failed(format!(
                "store handle poisoned by a failed write or commit (drop it and reopen to \
                 recover the last commit): {e}"
            )));
        }
        result
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

    /// Poisons the handle with the wedge cause `why`: every further
    /// method fails with an `Io` error of that text, and drop must not
    /// sync. The group-commit service poisons a shard's store when it
    /// wedges the shard — its in-memory table then holds batches whose
    /// writers were told they failed, which must never reach a manifest
    /// (a later sync, or the drop's best-effort sync, would make them
    /// durable). The cause supersedes the store's own failure, so every
    /// caller of the shard gets the wedge's text; a handle already
    /// wedged keeps its first cause, whose text this returns. The last
    /// committed manifest stays authoritative; reopening the media
    /// recovers to it.
    pub(crate) fn poison(&mut self, why: String) -> &str {
        let cause = match self.poisoned.take() {
            Some(Poison::Wedged(first)) => first,
            _ => why,
        };
        match self.poisoned.insert(Poison::Wedged(cause)) {
            Poison::Failed(cause) | Poison::Wedged(cause) => cause,
        }
    }
}

/// Why a [`KvStore`] handle no longer represents its store; every method
/// then fails with an `Io` error of the text.
enum Poison {
    /// A mutation or a commit of the handle failed (the poison rule,
    /// `KvStore::poison_on_failure`).
    Failed(String),
    /// The service owning the store wedged its shard with this cause.
    Wedged(String),
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

impl<M: StoreMedia> ExternalDictionary for KvStore<M> {
    /// Inserts `key`. The reserved-sentinel checks run **before** the
    /// handle is marked dirty: a rejected insert mutates nothing, so a
    /// handle whose every mutation was rejected stays clean, and its
    /// next `sync` (or drop) is a no-op instead of a manifest rewrite
    /// and a directory fsync. An insert that fails after them poisons
    /// the handle: it may have failed inside a flush that had already
    /// drained part of `H0`.
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
        let inserted = self.table.insert(key, value);
        self.poison_on_failure(inserted)
    }

    /// Errors on a poisoned handle: a failed mutation may have drained
    /// the in-memory table (a flush, a compaction), so answering from it
    /// would report synced keys as absent.
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
        let bytes: [u8; 8] = payload.try_into().map_err(|_| {
            ExtMemError::BadConfig(format!(
                "key {key} holds a {}-byte payload, not a word; use get_bytes",
                payload.len()
            ))
        })?;
        Ok(Some(u64::from_le_bytes(bytes)))
    }

    /// Deletes through the log method's deletion-marker path (see
    /// [`LogMethodTable::delete`]); the key stays absent across sync and
    /// reopen, and its space is reclaimed by level merges and
    /// [`KvStore::compact`]. A miss leaves the handle clean — it is
    /// marked dirty only once the table confirms it will write a marker —
    /// and so does a failed presence probe; a failure past it poisons the
    /// handle (the marker may fill `H0` and start a flush).
    fn delete(&mut self, key: Key) -> Result<bool> {
        self.check_poisoned()?;
        let mut marking = false;
        let deleted = self.table.delete_with_hook(key, &mut || {
            marking = true;
            Ok(())
        });
        if !marking {
            return deleted;
        }
        self.dirty = true;
        self.poison_on_failure(deleted)
    }

    /// On a poisoned handle this reports the in-memory table, which a
    /// failed flush or compaction may have drained, not the store's
    /// durable contents — the trait signature cannot error. Reopen the
    /// directory for the real count.
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
    use crate::media::{is_data_file, SimMedia, MANIFEST};

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
    /// descriptor, so this process would still hold the lock on the
    /// directory. The directory is therefore recreated under its own
    /// path with a copy of every file the dead handle left: the reopen
    /// locks the fresh directory and reads what the crash left.
    pub(super) fn crash(s: KvStore) {
        let dir = s.path().to_path_buf();
        std::mem::forget(s);
        let files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|path| (path.file_name().unwrap().to_owned(), fs::read(&path).unwrap()))
            .collect();
        fs::remove_dir_all(&dir).unwrap();
        fs::create_dir(&dir).unwrap();
        for (name, bytes) in files {
            fs::write(dir.join(name), bytes).unwrap();
        }
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
    /// manifest once a commit wrote one, one block file per non-empty
    /// level, `H0`'s image when the last commit found `H0` non-empty
    /// and, in payload mode, the blob log.
    pub(super) fn named_files<M: StoreMedia>(s: &KvStore<M>) -> BTreeSet<String> {
        let regions = s.named_regions().into_iter().flatten();
        let mut files: BTreeSet<String> =
            regions.map(|r| level_file_name(r.base.raw() >> 32)).collect();
        files.extend((s.manifest_len > 0).then(|| MANIFEST.to_string()));
        files.extend(s.payload_mode().then(|| blob_file_name(s.data_gen)));
        files
    }

    /// Every file of `env`'s root directory.
    pub(super) fn sim_files(env: &SimEnv) -> BTreeSet<String> {
        env.file_names().into_iter().filter(|name| !name.contains('/')).collect()
    }

    /// The bytes of every file of `env`.
    pub(crate) fn sim_image(env: &SimEnv) -> BTreeMap<String, Vec<u8>> {
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
    pub(crate) fn assert_refused<T>(
        env: &SimEnv,
        shape: &str,
        build: &str,
        open: impl FnOnce() -> Result<T>,
    ) {
        let before = sim_image(env);
        env.take_trace();
        match open().map(drop) {
            Err(ExtMemError::BadConfig(why)) => {
                assert!(why.contains(shape) && why.contains(build), "{shape}: {why}")
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

    /// Every name in `dir`.
    pub(super) fn dir_files(dir: &std::path::Path) -> BTreeSet<String> {
        fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name().into_string().unwrap()).collect()
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

    /// The store on `env`, raw or in payload mode.
    fn open_sim(env: &SimEnv, payloads: bool) -> KvStore<SimMedia> {
        let media = SimMedia::open(env).unwrap();
        match payloads {
            true => KvStore::open_payload_on(media, cfg(), 85),
            false => KvStore::open_on(media, cfg(), 85),
        }
        .unwrap()
    }

    /// [`open_sim`], then the synced keys `0..300` (key `k` has value
    /// `k + 1`).
    fn with_300_synced(env: &SimEnv, payloads: bool) -> KvStore<SimMedia> {
        let mut s = open_sim(env, payloads);
        for k in 0..300u64 {
            s.insert(k, k + 1).unwrap();
        }
        s.sync().unwrap();
        s
    }

    /// The poison rule on a standalone store, raw and in payload mode:
    /// 300 synced keys, then one transient fault at each of the next 12
    /// I/Os while writing on until a write fails. That write may have
    /// failed inside a flush that had drained part of `H0`, so the handle
    /// answers every synced key with an error (never `None`), refuses to
    /// sync, and its drop commits nothing: the reopen holds the synced
    /// state and nothing else.
    #[test]
    fn a_failed_write_poisons_the_handle_and_the_reopen_holds_the_synced_state() {
        for payloads in [false, true] {
            for offset in 0..12 {
                let when = format!("payloads {payloads}, fault at +{offset}");
                let env = SimEnv::new();
                let mut s = with_300_synced(&env, payloads);
                env.set_plan(FaultPlan { fail_at: vec![env.ops() + offset], ..Default::default() });
                let failed = (1000..100_000u64).find(|&k| s.insert(k, k + 1).is_err());
                let failed = failed.unwrap_or_else(|| panic!("{when}: no write failed"));
                for k in 0..300u64 {
                    assert!(s.lookup(k).is_err(), "{when}: synced key {k} answered");
                }
                assert!(s.sync().is_err(), "{when}: a poisoned handle synced");
                drop(s);
                let mut s = open_sim(&env, payloads);
                for k in 0..300u64 {
                    assert_eq!(s.lookup(k).unwrap(), Some(k + 1), "{when}: synced key {k}");
                }
                for k in 1000..=failed {
                    assert_eq!(s.lookup(k).unwrap(), None, "{when}: unsynced key {k}");
                }
            }
        }
    }

    /// The rule's delete half, raw and in payload mode: 300 synced keys,
    /// one transient fault at each of the next 52 I/Os, then deletes of
    /// the synced keys in order until one fails. Each of the first 20
    /// deletes probes a disk level (two reads); the 20th marker fills
    /// `H0`, whose flush starts at the 41st I/O. A fault in a probe is a
    /// failed read: the handle is not poisoned, answers every key, and
    /// syncs exactly the deletes that returned. A fault in the flush
    /// poisons it like a failed insert, and the reopen holds the synced
    /// state. The sweep meets both.
    #[test]
    fn a_failed_delete_poisons_the_handle_only_past_its_presence_probe() {
        for payloads in [false, true] {
            let (mut probes, mut flushes) = (0, 0);
            for offset in 0..52 {
                let when = format!("payloads {payloads}, fault at +{offset}");
                let env = SimEnv::new();
                let mut s = with_300_synced(&env, payloads);
                env.set_plan(FaultPlan { fail_at: vec![env.ops() + offset], ..Default::default() });
                let failed = (0..300u64).find(|&k| s.delete(k).is_err());
                let failed = failed.unwrap_or_else(|| panic!("{when}: no delete failed"));
                // Keys below `failed` were deleted; a probe's fault left
                // the rest in place.
                let after_probe = |k: u64| (k >= failed).then_some(k + 1);
                let poisoned = s.lookup(failed).is_err();
                if poisoned {
                    flushes += 1;
                    assert!(s.sync().is_err(), "{when}: a poisoned handle synced");
                } else {
                    probes += 1;
                    for k in 0..300u64 {
                        assert_eq!(s.lookup(k).unwrap(), after_probe(k), "{when}: key {k}");
                    }
                    s.sync().unwrap();
                }
                drop(s);
                let mut s = open_sim(&env, payloads);
                for k in 0..300u64 {
                    let want = if poisoned { Some(k + 1) } else { after_probe(k) };
                    assert_eq!(s.lookup(k).unwrap(), want, "{when}: reopened key {k}");
                }
            }
            assert!(probes > 0 && flushes > 0, "payloads {payloads}: {probes} / {flushes}");
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

    /// Locks `dir` as another live handle would: a descriptor of the
    /// directory itself under an OS lock, released when it drops.
    fn hold(dir: &std::path::Path) -> fs::File {
        let held = fs::File::open(dir).unwrap();
        held.try_lock().unwrap();
        held
    }

    fn assert_locked<T>(open: Result<T>) {
        let Err(err) = open else { panic!("an open beside a live handle must fail") };
        assert!(err.to_string().contains("locked by a live handle"), "got: {err}");
    }

    #[test]
    fn second_live_handle_fails_fast() {
        let dir = tmp_dir("lock");
        let _ = fs::remove_dir_all(&dir);
        let s = KvStore::open(&dir, cfg(), 1).unwrap();
        assert_locked(KvStore::open(&dir, cfg(), 1));
        // The store's lock is the directory's: another holder is refused.
        let other = fs::File::open(&dir).unwrap();
        assert!(matches!(other.try_lock(), Err(fs::TryLockError::WouldBlock)));
        drop(s);
        // The lock is released with the handle.
        other.try_lock().unwrap();
        drop(other);
        drop(KvStore::open(&dir, cfg(), 1).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The kernel releases a dead process's lock with its descriptors:
    /// an open is refused while another holder has the directory, and
    /// succeeds once it lets go — nothing is left behind to reclaim.
    #[test]
    fn a_held_directory_refuses_an_open_until_its_holder_lets_go() {
        let dir = tmp_dir("held-lock");
        let _ = fs::remove_dir_all(&dir);
        drop(KvStore::open(&dir, cfg(), 1).unwrap());
        for payloads in [false, true] {
            let held = hold(&dir);
            let open = || match payloads {
                false => KvStore::open(&dir, cfg(), 1),
                true => KvStore::open_payload(&dir, cfg(), 1),
            };
            assert_locked(open());
            drop(held);
            drop(open().unwrap());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A service takes one lock per shard and none at the root: a held
    /// shard refuses the service's open, a held root does not.
    #[test]
    fn a_held_shard_refuses_the_services_open_and_a_held_root_does_not() {
        let root = tmp_dir("held-shard");
        let _ = fs::remove_dir_all(&root);
        drop(crate::ShardedKvStore::open(&root, 4, cfg(), 1).unwrap());
        let held = hold(&root.join("shard-002"));
        assert_locked(crate::ShardedKvStore::open(&root, 4, cfg(), 1));
        drop(held);
        let held = hold(&root);
        drop(crate::ShardedKvStore::open(&root, 4, cfg(), 1).unwrap());
        drop(held);
        let _ = fs::remove_dir_all(&root);
    }

    /// The lock creates no name: a fresh store's directory, and a fresh
    /// service's root and shards, hold what their commits wrote and
    /// nothing else, while open and after the close.
    #[test]
    fn a_fresh_open_creates_no_lock_file() {
        let names =
            |items: &[&str]| -> BTreeSet<String> { items.iter().map(|s| s.to_string()).collect() };
        let shards = ["shard-000", "shard-001", "shard-002", "shard-003"];
        let root_names = names(&[&["SERVICE", "COMMITLOG"][..], &shards[..]].concat());
        for payloads in [false, true] {
            let data = if payloads { names(&["store.blob"]) } else { names(&[]) };
            let dir = tmp_dir(&format!("no-lock-file-{payloads}"));
            let _ = fs::remove_dir_all(&dir);
            let s = match payloads {
                false => KvStore::open(&dir, cfg(), 1).unwrap(),
                true => KvStore::open_payload(&dir, cfg(), 1).unwrap(),
            };
            assert_eq!(dir_files(&dir), data, "payloads: {payloads}, open");
            drop(s);
            assert_eq!(dir_files(&dir), data, "payloads: {payloads}, closed");
            fs::remove_dir_all(&dir).unwrap();

            let service = |when: &str| {
                assert_eq!(dir_files(&dir), root_names, "payloads: {payloads}, {when}");
                for shard in shards {
                    let held = dir_files(&dir.join(shard));
                    assert_eq!(held, data, "payloads: {payloads}, {when}: {shard}");
                }
            };
            let svc = match payloads {
                false => crate::ShardedKvStore::open(&dir, 4, cfg(), 1).unwrap(),
                true => crate::ShardedKvStore::open_payload(&dir, 4, cfg(), 1).unwrap(),
            };
            service("open");
            drop(svc);
            service("closed");
            fs::remove_dir_all(&dir).unwrap();
        }
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
        KvStore::open(&dir, cfg(), 8).unwrap().insert(1, 1).unwrap();
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
    /// Every crash state is forked from one run.
    #[test]
    fn a_crash_anywhere_in_a_commit_or_in_the_reopen_after_it_recovers_to_a_commit() {
        let clean = SimEnv::new();
        let states = two_commits(&clean);
        let lifecycle_ops = clean.ops();
        let (mut old, mut new, mut strays_met, mut checked) = (0, 0, 0, 0);
        let crashes: Vec<(u64, u64)> =
            (lifecycle_ops - 40..=lifecycle_ops).map(|k| (k, k ^ 0xC0FFEE)).collect();
        for reopen_crash in [None, Some(2u64), Some(9), Some(17)] {
            let env = SimEnv::new();
            env.sweep_crashes(
                crashes.clone(),
                || two_commits(&env),
                |crash| {
                    let env = crash.env;
                    strays_met += usize::from(sim_files(&env).contains(CLEAN));
                    if let Some(after) = reopen_crash {
                        env.set_plan(FaultPlan::crash(env.ops() + after, after));
                        drop(SimMedia::open(&env).and_then(|m| KvStore::open_on(m, cfg(), 84)));
                        env.power_cycle();
                    }
                    let when = format!("crash_at {}, reopen crash {reopen_crash:?}", crash.at);
                    let mut s = sim_store(&env);
                    let got: Vec<Option<Value>> = (0..900).map(|k| s.lookup(k).unwrap()).collect();
                    let which = states.iter().position(|state| *state == got);
                    let which = which.unwrap_or_else(|| panic!("{when}: neither commit"));
                    old += usize::from(which == 0);
                    new += usize::from(which == 1);
                    assert_eq!(sim_files(&env), named_files(&s), "{when}");
                    assert!(dxh_dura::check_trace(&env.take_trace()).is_empty(), "{when}");
                    checked += 1;
                },
            );
            assert!(dxh_dura::check_trace(&env.take_trace()).is_empty(), "the recorded run");
        }
        assert_eq!(checked, 4 * crashes.len(), "one state per crash index and reopen crash");
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

    /// The rules `check_trace` finds broken in the crash-free run of
    /// [`mutant_lifecycle`] with `switch` armed, and at how many crash
    /// indices (every second one, two crash seeds each) the store does
    /// not reopen to a commit — each crash state forked from one armed
    /// run, and reopened with no mutant armed.
    fn lifecycle_sweep(
        switch: Option<&'static std::thread::LocalKey<std::cell::Cell<bool>>>,
    ) -> (BTreeSet<&'static str>, usize) {
        let arm = |on: bool| switch.into_iter().for_each(|switch| switch.set(on));
        let armed = |env: &SimEnv| {
            arm(true);
            mutant_lifecycle(env).unwrap();
            arm(false);
        };
        let env = SimEnv::new();
        armed(&env);
        let rules = dxh_dura::check_trace(&env.take_trace()).iter().map(|v| v.rule).collect();
        let crashes = (0..env.ops()).step_by(2).flat_map(|k| [1, 2].map(|s| (k, s * 0x9e37 + k)));
        let (mut broken, mut pairs, mut states) = (0, 0, BTreeSet::new());
        let env = SimEnv::new();
        env.set_tracing(false);
        env.sweep_crashes(
            crashes,
            || armed(&env),
            |crash| {
                pairs += 1;
                states.insert(crash.state);
                broken += usize::from(!holds_a_commit(&crash.env));
            },
        );
        println!("{pairs} (crash index, seed) pairs from {} pre-crash states", states.len());
        (rules, broken)
    }

    /// The two ways to get the file lifecycle wrong, seeded: unlink a
    /// carried level's file before the manifest that drops it is durable;
    /// leave one level file unsynced under a manifest that names it.
    /// Each is caught twice — by a crash sweep (some crash index leaves a
    /// store that does not open, or not to a commit) and by its rule of
    /// the trace automaton on the crash-free run. With both off the same
    /// sweep and the same automaton find nothing
    /// (`the_lifecycle_sweep_finds_nothing_without_a_mutant`).
    #[test]
    fn both_lifecycle_mutants_are_caught_by_a_sweep_and_by_their_trace_rule() {
        let (rules, broken) = lifecycle_sweep(Some(&mutant::UNLINK_BEFORE_COMMIT));
        assert_eq!(rules, BTreeSet::from(["unlink-after-manifest-commit"]));
        assert!(broken > 0, "no crash exposed the early unlink");
        let (rules, broken) = lifecycle_sweep(Some(&mutant::SKIP_ONE_SYNC));
        assert_eq!(rules, BTreeSet::from(["rename-after-data-fsync"]));
        assert!(broken > 0, "no crash exposed the missing fdatasync");
    }

    /// The mutant sweep's control: with no mutant armed, the lifecycle's
    /// trace keeps every rule and every crash reopens to a commit. That
    /// is what the torture harness's exhaustive sync and compact windows
    /// check on every seed, so the PR gate leaves this repeat to the
    /// nightly run.
    #[test]
    #[ignore = "repeats the torture sweep; run by torture-nightly"]
    fn the_lifecycle_sweep_finds_nothing_without_a_mutant() {
        let (rules, broken) = lifecycle_sweep(None);
        assert!(rules.is_empty() && broken == 0, "{rules:?}, {broken} broken");
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
    /// compaction's, each forked from one run: each reopen holds exactly
    /// the state of the commit before or of the one cut short, and the
    /// directory holds the files its manifest names — no stray `.blk`,
    /// image or level.
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
            let env = SimEnv::new();
            let crashes = (start..end).map(|k| (k, k ^ 0x1A6E));
            env.sweep_crashes(
                crashes,
                || image_lifecycle(&env, Some(second)).unwrap(),
                |crash| {
                    let got = reopened(&crash.env);
                    let when = format!("{second:?}, crash at {}", crash.at);
                    assert!(got == first || got == last, "{when}: {got:?}");
                    old += usize::from(got == first);
                    new += usize::from(got == last);
                    assert!(dxh_dura::check_trace(&crash.env.take_trace()).is_empty(), "{when}");
                },
            );
            assert!(dxh_dura::check_trace(&env.take_trace()).is_empty(), "{second:?}");
            assert!(old > 0 && new > 0, "{second:?}: the sweep straddles the commit: {old}/{new}");
        }
    }

    /// A crash state forked from one run of `lifecycle` is the state a
    /// re-run leaves: at six seeded crash indices, the power-cycled fork
    /// holds every name and every byte, at the same I/O clock, of a fresh
    /// machine that re-ran the lifecycle crashed there and power-cycled.
    fn forks_are_re_runs(name: &str, lifecycle: impl Fn(&SimEnv)) {
        let state = |env: &SimEnv| (env.ops(), sim_image(env));
        let clean = SimEnv::new();
        lifecycle(&clean);
        let total = clean.ops();
        let crashes: Vec<(u64, u64)> = (1..=6u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ total)
            .map(|h| (h % total, h))
            .collect();
        let (env, mut forked) = (SimEnv::new(), Vec::new());
        env.sweep_crashes(
            crashes.clone(),
            || lifecycle(&env),
            |crash| {
                forked.push((crash.at, crash.seed, state(&crash.env)));
            },
        );
        assert_eq!(forked.len(), crashes.len(), "{name}");
        for (at, seed, forked) in forked {
            let rerun = SimEnv::new();
            rerun.set_plan(FaultPlan::crash(at, seed));
            lifecycle(&rerun);
            rerun.power_cycle();
            assert!(state(&rerun) == forked, "{name}: the states a crash at {at} leaves differ");
        }
    }

    /// Every lifecycle the store's sweeps fork from forks what a re-run
    /// leaves ([`forks_are_re_runs`]).
    #[test]
    fn a_forked_crash_state_is_the_state_a_re_run_leaves() {
        forks_are_re_runs("mutant_lifecycle", |env| drop(mutant_lifecycle(env)));
        forks_are_re_runs("two_commits", |env| {
            drop(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| two_commits(env))));
        });
        for second in [SecondCommit::Replace, SecondCommit::Migrate, SecondCommit::Compact] {
            let name = format!("image_lifecycle {second:?}");
            forks_are_re_runs(&name, |env| drop(image_lifecycle(env, Some(second))));
        }
    }
}
