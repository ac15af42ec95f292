//! A persistent key-value store: the logarithmic-method table over any
//! [`PersistentBackend`], with open-or-create / reopen semantics on a
//! [`StoreMedia`] — a real directory by default ([`DirMedia`] over
//! [`dxh_extmem::FileDisk`]), or the deterministic crash-simulation
//! environment ([`crate::SimMedia`] over [`dxh_extmem::SimDisk`]) that
//! the torture harness sweeps.
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
//! * `store.blk` — the flat block file of the [`FileDisk`]. After a
//!   [`KvStore::compact`] the data file is generation-named
//!   (`store.<gen>.blk`); the manifest records which generation is
//!   authoritative, so the swap commits atomically with the manifest;
//! * `MANIFEST` — a small text file with the model parameters `(b, m,
//!   γ)`, the hash seed, the data-file generation, the allocator state
//!   (high-water mark and free list), and one line per disk level
//!   region. Written atomically (tmp + rename, then a directory fsync so
//!   the rename itself is durable) by every commit. The level lines are
//!   O(log n); the free list — one decimal id per free slot — is the
//!   table-sized part, and it is written only by a commit that also
//!   sets `CLEAN` ([`KvStore::sync`], compaction), because only under
//!   that marker does reopen read it. A marker-less checkpoint commit
//!   (`harden(false)`, the service committers' steady state) is the
//!   same file without that one line: a couple of hundred bytes;
//! * `MANIFEST.DELTA` — legacy, read once at reopen, never written.
//!   Earlier versions appended checkpoint commits to this chain of
//!   checksummed frames ([`dxh_extmem::frame`]) instead of rewriting
//!   the manifest. A store they left with an outstanding chain (killed
//!   without a clean close) is upgraded by its first reopen: the intact
//!   frames are folded over the manifest, the result is committed as an
//!   ordinary manifest, and the chain is removed;
//! * `CLEAN` — a marker present exactly while no block write has
//!   happened since the last manifest (unlinked before the first
//!   mutation, rewritten at each sync). Reopen trusts the manifest's
//!   free list only when it sees this marker, and the marker is only
//!   ever written, in the same call, right after a manifest carrying
//!   the committing handle's own free list;
//! * `LOCK` — mutual exclusion for the directory. Ownership is an OS
//!   advisory lock held on the file for the handle's lifetime, so a
//!   second live handle fails fast instead of silently overwriting the
//!   manifest, and the kernel releases a dead process's lock with it —
//!   a crash can never wedge the store. The pid written inside is
//!   informational (error messages, humans inspecting the directory).
//!
//! [`KvStore::sync`] first migrates the memory-resident `H0` to the disk
//! levels, then `fdatasync`s the block file, then rewrites the manifest —
//! after a **clean shutdown** (explicit `sync` or drop) a reopened store
//! sees every item inserted so far. Dropping the store syncs
//! best-effort, and a handle that opened a cleanly closed store and made
//! no modifications skips the manifest rewrite entirely (one that
//! recovered from a crash commits once even if untouched, so the marker
//! it leaves sits over its own free list).
//!
//! This is a clean-shutdown persistence story (manifest + data written
//! at sync points), not crash-consistent journaling: the paper's bounds
//! say nothing about durability, and the store keeps that separation
//! honest. If a process dies *between* syncs, reopen recovers from the
//! last manifest: items inserted after that sync point are lost (their
//! `H0` copies died with the process), while items synced before it are
//! found through the manifest's regions — blocks those regions reference
//! are never recycled between syncs (the [`FileDisk`] quarantines frees
//! until each manifest commits). Recovery then walks the manifest's
//! regions (primaries plus overflow chains) to compute the **exact**
//! live-block set and returns every other slot to the free list, so
//! blocks orphaned by the crash are recycled by subsequent allocations
//! before the file grows. If the walk itself fails (torn metadata), it
//! falls back to keeping every slot live — space, never correctness.
//! What recovery cannot shrink is the file itself; an explicit
//! [`KvStore::compact`] rewrites the data file densely (live blocks
//! only, deletion markers purged) and commits the swap through the
//! manifest.
//!
//! I/O counters start from zero at every open (and restart after a
//! [`KvStore::compact`], which rebuilds the store onto a fresh disk);
//! they measure the current process's accounted transfers, not the
//! lifetime of the file.

use std::path::{Path, PathBuf};

use dxh_extmem::{
    BlobLog, Disk, ExtMemError, IoCostModel, IoSnapshot, Key, PersistentBackend, Result, Value,
    KEY_TOMBSTONE, VALUE_TOMBSTONE,
};
use dxh_hashfn::IdealFn;
use dxh_tables::ExternalDictionary;

use crate::config::CoreConfig;
use crate::log_method::LogMethodTable;
// The CLEAN marker is present exactly while no block write has happened
// since the last manifest: written after each manifest commit, unlinked
// before the first mutation after it. Its absence at reopen forces
// recovery mode — the data file's slot count alone cannot detect a
// crash, because post-sync flushes can build whole levels in recycled
// slots without growing the file.
use crate::media::{
    clean_marker, clear_clean_marker, read_text, DirMedia, StoreMedia, DATA, MANIFEST,
};

mod compaction;
mod manifest;
mod payload;
mod reopen;

pub use compaction::CompactionStats;
pub use manifest::ManifestIoStats;
use manifest::{plausible_creation_params, MAX_GAMMA, MAX_M};
use payload::blob_file_name;

/// The authoritative data file of generation `gen`: the original name
/// for generation 0 (every pre-compaction store), generation-suffixed
/// after that. Compaction writes the next generation under its final
/// name and commits the swap through the manifest — no data-file rename
/// is ever needed, so the manifest rename stays the single commit point.
fn data_file_name(gen: u64) -> String {
    if gen == 0 {
        DATA.to_string()
    } else {
        format!("store.{gen}.blk")
    }
}

/// The body of [`KvStore::mark_dirty`], over disjoint field borrows so
/// the delete path can run it from inside the table's mutation hook.
fn transition_dirty<M: StoreMedia>(media: &mut M, dirty: &mut bool) -> Result<()> {
    if *dirty {
        return Ok(());
    }
    clear_clean_marker(media)?;
    *dirty = true;
    Ok(())
}

/// Creates (truncating) the data file `name` on `media` with frees
/// quarantined until the next manifest commit — the shape every store
/// generation is born in (initial create and both compaction targets).
fn fresh_gen_disk<M: StoreMedia>(
    media: &mut M,
    name: &str,
    cfg: &CoreConfig,
) -> Result<Disk<M::Backend>> {
    let mut backend = media.create_data(name, cfg.b)?;
    // Quarantine frees between syncs: blocks the last manifest's regions
    // reference must stay physically intact until the next manifest
    // (which lists them as free) is durable.
    backend.set_defer_recycling(true);
    Ok(Disk::new(backend, cfg.b, cfg.cost))
}

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
    table: LogMethodTable<IdealFn, M::Backend>,
    /// The payload blob log — `Some` exactly when the store runs in
    /// **payload mode** ([`KvStore::open_payload`]): the table is then an
    /// index whose value words are `BLOB_TAG | offset` into this log,
    /// and the byte API ([`KvStore::put_bytes`] / [`KvStore::get_bytes`])
    /// is the way in. A raw store (`open`) has no log and keeps the
    /// paper's pure-u64 representation bit-for-bit.
    blob: Option<BlobLog<M::File>>,
    seed: u64,
    /// Generation of the authoritative data file (bumped by each
    /// [`KvStore::compact`]; see [`data_file_name`]).
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
    /// never moves it). The service stamps it before each manifest
    /// harden and its reopen-time replay skips log records at or below
    /// it — without the watermark, a staggered checkpoint's replay
    /// would reapply *older* logged batches over a *newer*
    /// manifest-committed fold and tear the batch boundary (G4).
    watermark: u64,
    /// Manifest epoch: bumped by every manifest commit. Written and
    /// bumped for one reader only — the frames of a legacy
    /// `MANIFEST.DELTA` chain quote the epoch they extend, so a chain
    /// whose removal was lost is recognized as stale at reopen.
    epoch: u64,
    /// Manifest-commit byte accounting (see [`KvStore::manifest_io`]).
    manifest_io: ManifestIoStats,
    /// The persistence environment; holds the store's mutual-exclusion
    /// lock for the handle's lifetime. Declared last so the lock is
    /// released only after the table (and its backend) is gone.
    media: M,
}

impl KvStore<DirMedia> {
    /// Opens the store at `dir`, creating it (directory, block file,
    /// manifest) when no manifest exists. On reopen the **persisted**
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
                let disk = fresh_gen_disk(&mut media, DATA, &cfg)?;
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
                    epoch: 0,
                    manifest_io: ManifestIoStats::default(),
                    media,
                };
                store.write_manifest(true)?; // a crash before the first sync can still reopen
                Ok(store)
            }
        }
    }

    /// Flushes `H0` to the disk levels, `fdatasync`s the block file, and
    /// atomically rewrites the manifest. After `sync` returns, a reopen
    /// sees every item inserted so far. A no-op when nothing changed
    /// since the last sync (or since a clean reopen).
    pub fn sync(&mut self) -> Result<()> {
        self.harden(true)
    }

    /// The "make durable" half of a commit, split from "apply + write":
    /// mutations applied since the last durability point become
    /// crash-recoverable, but the `CLEAN` marker — a shutdown-quality
    /// claim, not a durability one — is written back only when
    /// `set_marker` is true.
    ///
    /// `harden(true)` is exactly [`KvStore::sync`]. `harden(false)` is
    /// the service committers' steady-state durability point: every
    /// batch still commits at the manifest rename, but the marker stays
    /// absent between batches, saving the unlink + rewrite (two
    /// directory fsyncs) that per-batch marker churn would cost. A
    /// reopen after `harden(false)` takes the recovery path (region
    /// walk, G3), which reconstructs exactly the hardened manifest's
    /// state — the marker only selects *how* the live set is recomputed,
    /// never *what* it is.
    ///
    /// Both forms are one commit — the atomic manifest rewrite — and
    /// differ only in the marker and the free list it alone licenses:
    /// reopen reads a free list only under `CLEAN`, so a marker-less
    /// commit leaves that table-sized line out. `CLEAN` in turn is only
    /// ever written right after a manifest carrying this handle's own
    /// free list: a handle that recovered from a crash and was never
    /// dirtied still owes that commit, because the manifest it found
    /// carries the crashed process's list, not the one its own recovery
    /// walk computed.
    pub fn harden(&mut self, set_marker: bool) -> Result<()> {
        self.check_poisoned()?;
        if !self.dirty && (!set_marker || clean_marker(&mut self.media)?) {
            return Ok(());
        }
        if self.dirty {
            // `H0` to the disk levels (buffered writes), then the fsyncs
            // that make them — and every append and block write since the
            // last commit — durable: the blob log's here, **before** the
            // index can commit (`blob-sync-before-index-commit`: the
            // index words a manifest commits point into the log, so a
            // crash must never find committed offsets dangling), the
            // data file's inside the commit.
            self.table.flush_memory()?;
            self.blob_sync()?;
        }
        // The commit point.
        self.write_manifest(set_marker)?;
        // The new commit is durable; quarantined slots may now be
        // recycled: no region the manifest records references one.
        self.table.disk_mut().backend_mut().commit_frees();
        self.dirty = false;
        Ok(())
    }

    /// Stamps the commit-log replay watermark the next manifest write
    /// persists: every service log record with `seq <= w` for this
    /// shard is covered by that manifest and must be skipped at replay.
    /// Called by the service committer (under its store lock) right
    /// before the harden; meaningless outside a service.
    pub(crate) fn set_replay_watermark(&mut self, w: u64) {
        self.watermark = w;
    }

    /// The persisted (or just-stamped) commit-log replay watermark.
    pub(crate) fn replay_watermark(&self) -> u64 {
        self.watermark
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned {
            return Err(ExtMemError::BadConfig(
                "store handle poisoned by a failed compaction; drop it and reopen".into(),
            ));
        }
        Ok(())
    }

    /// Transitions into the dirty state before the first mutation after a
    /// clean point: the marker must be gone from disk before any block
    /// write lands, or a crash would be misread as a clean shutdown.
    fn mark_dirty(&mut self) -> Result<()> {
        self.check_poisoned()?;
        transition_dirty(&mut self.media, &mut self.dirty)
    }

    /// The authoritative data file (generation-named after a
    /// [`KvStore::compact`]) — what to `stat` for the on-disk footprint.
    /// Errors on a poisoned handle (the generation it would name was
    /// never committed) and on media without filesystem paths.
    pub fn data_path(&self) -> Result<PathBuf> {
        self.check_poisoned()?;
        self.media
            .file_path(&data_file_name(self.data_gen))
            .ok_or_else(|| ExtMemError::BadConfig("store media has no filesystem paths".into()))
    }

    /// The backing table (tq/tu measurement, level diagnostics).
    pub fn table(&self) -> &LogMethodTable<IdealFn, M::Backend> {
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

    /// Whether `key` is currently present (not absent, not deleted):
    /// one index probe, no payload decode, valid in both raw and
    /// payload mode. The service's coalescing committer uses it to
    /// answer a batch-opening delete whose table effect is shadowed by
    /// a later put on the same key in the same batch.
    pub(crate) fn contains(&mut self, key: Key) -> Result<bool> {
        self.check_poisoned()?;
        Ok(self.table.lookup(key)?.is_some())
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
    /// dirty transition: a rejected insert mutates nothing, so it must
    /// not dirty the store — a handle whose every mutation was rejected
    /// stays clean, and its next `sync` (or drop) is a no-op instead of
    /// a manifest rewrite plus two directory fsyncs.
    ///
    /// On a payload-mode store the word is stored as its 8-byte
    /// little-endian payload, so the **full** value domain — including
    /// `u64::MAX`, rejected on the raw path below — round-trips (the
    /// deletion marker is out-of-band there; see the sentinel-domain
    /// note on [`VALUE_TOMBSTONE`]).
    fn insert(&mut self, key: Key, value: Value) -> Result<()> {
        if self.blob.is_some() {
            return self.put_bytes(key, &value.to_le_bytes());
        }
        if key == KEY_TOMBSTONE {
            return Err(ExtMemError::BadConfig("key u64::MAX is reserved".into()));
        }
        if value == VALUE_TOMBSTONE {
            return Err(ExtMemError::BadConfig(
                "value u64::MAX is reserved as the deletion marker".into(),
            ));
        }
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
    /// [`KvStore::compact`]. A miss leaves the handle clean — the dirty
    /// transition runs only once the table confirms it will write a
    /// marker.
    fn delete(&mut self, key: Key) -> Result<bool> {
        self.check_poisoned()?;
        let media = &mut self.media;
        let dirty = &mut self.dirty;
        self.table.delete_with_hook(key, &mut || transition_dirty(media, dirty))
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

    fn cost_model(&self) -> IoCostModel {
        self.table.cost_model()
    }

    fn memory_used(&self) -> usize {
        self.table.memory_used()
    }

    fn block_capacity(&self) -> usize {
        self.table.block_capacity()
    }
}

#[cfg(test)]
mod tests {
    use std::fs;

    use dxh_extmem::frame::push_frame;
    use dxh_extmem::StorageBackend;

    use super::manifest::Manifest;
    use super::reopen::scan_region_free;
    use super::*;
    use crate::media::{CLEAN, LOCK, MANIFEST};

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

    /// Frames a delta payload exactly like the legacy chain writer did.
    pub(super) fn delta_frame(text: &str) -> Vec<u8> {
        let mut frame = Vec::new();
        push_frame(&mut frame, text.as_bytes());
        frame
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

    pub(super) fn assert_every_slot_accounted<M: StoreMedia>(s: &KvStore<M>) {
        let backend = s.table().disk().backend();
        assert_eq!(backend.live_blocks() + backend.free_count() as u64, backend.slots());
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

    #[test]
    fn clean_marker_tracks_mutation_state() {
        let dir = tmp_dir("marker");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open(&dir, cfg(), 21).unwrap();
        assert!(dir.join(CLEAN).exists(), "fresh store starts clean");
        assert!(!s.delete(99).unwrap());
        assert!(dir.join(CLEAN).exists(), "a miss-delete writes nothing, stays clean");
        s.insert(1, 1).unwrap();
        assert!(!dir.join(CLEAN).exists(), "first mutation unlinks the marker");
        s.sync().unwrap();
        assert!(dir.join(CLEAN).exists(), "sync rewrites the marker");
        assert!(s.delete(1).unwrap());
        assert!(!dir.join(CLEAN).exists(), "a real delete is a mutation");
        let _ = fs::remove_dir_all(&dir);
    }

    /// What closes G4's window: between two manifest commits no block
    /// the committed manifest names — primaries and chains, everything
    /// the recovery walk reaches — is written at all. A flush builds its
    /// destination in free slots, the levels it read are quarantined
    /// until the next commit, and nothing is merged into in place: a
    /// crash at any point finds the committed state byte for byte.
    #[test]
    fn no_block_a_committed_manifest_names_is_written_before_the_next_commit() {
        use dxh_extmem::Block;
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
            let backend = s.table.disk_mut().backend_mut();
            let mut named = vec![true; committed.slots as usize];
            for id in scan_region_free(backend, &committed.levels).unwrap() {
                named[id as usize] = false;
            }
            assert!(named.iter().filter(|&&n| n).count() as u64 >= held / c.b as u64);
            let data = s.data_path().unwrap();
            let before = fs::read(&data).unwrap();
            let mut rng = StdRng::seed_from_u64(31);
            for step in 0..6 * c.h0_capacity() as u64 {
                let key = rng.next_u64() % (2 * held);
                match rng.next_u64() % 4 {
                    0 => drop(s.delete(key).unwrap()),
                    _ => s.insert(key, step).unwrap(),
                }
            }
            assert_ne!(s.table.persisted_levels(), &committed.levels[..], "{tag}: no flush ran");
            let after = fs::read(&data).unwrap();
            let slot = Block::encoded_len(c.b);
            for id in (0..named.len()).filter(|&id| named[id]) {
                let bytes = id * slot..(id + 1) * slot;
                assert!(before[bytes.clone()] == after[bytes], "{tag}: block {id} was written");
            }
            crash(s);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn rejected_insert_leaves_the_store_clean_and_sync_a_noop() {
        // Regression: `insert` used to run the dirty transition before
        // validating the reserved sentinels, so a rejected insert
        // unlinked the CLEAN marker and made the next sync rewrite the
        // manifest — pure wasted fsyncs, one per batch in the
        // group-commit path. A mutation that changes nothing must leave
        // the store clean.
        let dir = tmp_dir("clean-reject");
        let _ = fs::remove_dir_all(&dir);
        let mut s = KvStore::open(&dir, cfg(), 14).unwrap();
        s.insert(1, 1).unwrap();
        s.sync().unwrap();
        let manifest = fs::read(dir.join(MANIFEST)).unwrap();
        assert!(s.insert(u64::MAX, 5).is_err(), "reserved key rejected");
        assert!(s.insert(5, u64::MAX).is_err(), "reserved value rejected");
        assert!(dir.join(CLEAN).exists(), "rejected inserts never dirty the store");
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
        assert!(s.data_path().is_err(), "sim media has no filesystem paths");
        for k in (1..800u64).step_by(13) {
            let expect = (k % 4 != 0).then_some(k * 3);
            assert_eq!(s.lookup(k).unwrap(), expect, "key {k} after sim compact");
        }
    }
}
