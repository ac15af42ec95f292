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

use dxh_extmem::frame::Frames;
use dxh_extmem::{
    BlobLog, BlockId, Disk, ExtMemError, IoCostModel, IoSnapshot, Key, PersistentBackend, Result,
    Value, BLOB_TAG, KEY_TOMBSTONE, VALUE_TOMBSTONE,
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
    clean_marker, clear_clean_marker, commit_file_atomic, read_text, remove_stale_generations,
    set_clean_marker, DirMedia, StoreMedia, DATA, MANIFEST, MANIFEST_DELTA,
};
use crate::stream::{compact_across, MergeStats, Region, Source};

const MAGIC: &str = "dxh-store v2";
/// Format v1: written before deletion existed. Readable, but `u64::MAX`
/// was an ordinary value then — see [`scan_reserved_values`].
const MAGIC_V1: &str = "dxh-store v1";

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

/// The payload blob log of generation `gen` — gen-named exactly like
/// [`data_file_name`], swapped at the same manifest commit, so index
/// words and the log they point into always come from one generation.
fn blob_file_name(gen: u64) -> String {
    if gen == 0 {
        "store.blob".to_string()
    } else {
        format!("store.{gen}.blob")
    }
}

/// Strips [`BLOB_TAG`] from a payload-mode index word. An untagged word
/// in a payload-mode table can only mean index/log disagreement —
/// corruption, never a user error.
fn untag(word: Value) -> Result<u64> {
    if word & BLOB_TAG == 0 {
        return Err(ExtMemError::Corrupt(format!(
            "payload-mode index word {word:#x} lacks the blob tag"
        )));
    }
    Ok(word & !BLOB_TAG)
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

    fn reopen(mut media: M, text: &str, expected_b: usize, payloads: bool) -> Result<Self> {
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

    /// The append choke point of the payload write path — every byte
    /// entering the blob log goes through here (a volatile-write sink in
    /// the durability lint's classification; [`KvStore::blob_sync`] is
    /// its fsync counterpart).
    fn blob_append(&mut self, payload: &[u8]) -> Result<u64> {
        let log = self
            .blob
            .as_mut()
            .ok_or_else(|| ExtMemError::BadConfig("store has no payload log; use insert".into()))?;
        let (offset, _len) = log.append(payload)?;
        Ok(offset)
    }

    /// The sync choke point of the payload write path: `fdatasync`s the
    /// blob log (no-op on a raw store). Ordered before every index
    /// commit by [`KvStore::harden`] and [`KvStore::compact`].
    fn blob_sync(&mut self) -> Result<()> {
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
    /// after the next [`KvStore::sync`] / harden.
    pub fn put_bytes(&mut self, key: Key, payload: &[u8]) -> Result<()> {
        if self.blob.is_none() {
            return Err(ExtMemError::BadConfig(
                "store was opened without payload mode; use insert".into(),
            ));
        }
        if key == KEY_TOMBSTONE {
            return Err(ExtMemError::BadConfig("key u64::MAX is reserved".into()));
        }
        self.mark_dirty()?;
        let offset = self.blob_append(payload)?;
        self.table.insert(key, BLOB_TAG | offset)
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

    /// Transitions into the dirty state before the first mutation after a
    /// clean point: the marker must be gone from disk before any block
    /// write lands, or a crash would be misread as a clean shutdown.
    fn mark_dirty(&mut self) -> Result<()> {
        self.check_poisoned()?;
        transition_dirty(&mut self.media, &mut self.dirty)
    }

    /// The commit point: atomically replaces `MANIFEST` with the table's
    /// current state at the next epoch — with `set_marker`, including
    /// the allocator's free list and followed by `CLEAN` (see
    /// [`KvStore::harden`]). Lines older parsers do not know are ignored
    /// by them (forward-compatible), so optional ones are simply left
    /// out: `blob` is present exactly in payload mode, `watermark` only
    /// on service-managed stores (see `set_replay_watermark`).
    fn write_manifest(&mut self, set_marker: bool) -> Result<()> {
        let cfg = self.table.config();
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!(
            "b {}\nm {}\ngamma {}\nbeta {}\n",
            cfg.b, cfg.m, cfg.gamma, cfg.beta
        ));
        out.push_str(&format!(
            "cost {}\n",
            match cfg.cost {
                IoCostModel::SeekDominated => "seek",
                IoCostModel::Strict => "strict",
            }
        ));
        out.push_str(&format!("seed {}\n", self.seed));
        // Older parsers ignore the line (forward-compatible); this one
        // needs it only to recognize a stale legacy chain.
        out.push_str(&format!("epoch {}\n", self.epoch + 1));
        out.push_str(&format!("data {}\n", self.data_gen));
        // Presence of the `blob` line ⟺ payload mode; its value is the
        // committed payload length — reopen truncates the log back to it
        // (crash-tail discard) and verifies the prefix. Callers order a
        // blob sync before this commit (`blob-sync-before-index-commit`).
        if let Some(log) = &self.blob {
            out.push_str(&format!("blob {}\n", log.len()));
        }
        if self.watermark > 0 {
            out.push_str(&format!("watermark {}\n", self.watermark));
        }
        let backend = self.table.disk_mut().backend_mut();
        out.push_str(&format!("slots {}\n", backend.slots()));
        if set_marker {
            let ids: Vec<String> = backend.free_list().iter().map(|id| id.to_string()).collect();
            out.push_str(&format!("free {}\n", ids.join(",")));
        }
        let levels = self.table.persisted_levels();
        out.push_str(&format!("levels {}\n", levels.len()));
        for (k, r) in levels.iter().enumerate() {
            if let Some(r) = r {
                out.push_str(&format!("level {k} {} {} {}\n", r.base.raw(), r.buckets, r.items));
            }
        }
        // Atomic and durable (tmp + fsync + rename + dir fsync), with the
        // data fsync before the rename. A crash between the two finds
        // new blocks durable under the *old* manifest, which is harmless:
        // none of them is a block that manifest names (every level is
        // built in fresh slots, never merged into), so the old state is
        // intact and log replay above the old watermark lands on a batch
        // boundary.
        let (table, dirty) = (&mut self.table, self.dirty);
        let sync_data = || if dirty { table.disk_mut().flush() } else { Ok(()) };
        commit_file_atomic(&mut self.media, MANIFEST, &out, sync_data)?;
        self.epoch += 1;
        if set_marker {
            self.manifest_io.full_commits += 1;
            self.manifest_io.full_bytes += out.len() as u64;
            set_clean_marker(&mut self.media)?;
        } else {
            self.manifest_io.delta_commits += 1;
            self.manifest_io.delta_bytes += out.len() as u64;
        }
        Ok(())
    }

    /// Manifest-commit I/O accounting since this handle opened: how many
    /// bytes the index-commit path wrote, split between marker-setting
    /// and marker-less (checkpoint) commits. A service shard in steady
    /// state accumulates almost all its commits — a couple of hundred
    /// bytes each — on the checkpoint side; the torture harness and the
    /// bench assert exactly that through these counters.
    pub fn manifest_io(&self) -> ManifestIoStats {
        self.manifest_io
    }

    /// Rewrites the data file densely: every live item (deletion markers
    /// and shadowed duplicates purged) streams into one region of the
    /// smallest level that holds it, in a fresh generation-named
    /// file; the manifest commit then atomically swaps the store over to
    /// it and the old file is unlinked. Afterwards the file holds
    /// exactly the live data footprint (plus that region's slack —
    /// "within one level-region"). The region is sized like any freshly
    /// built level ([`CoreConfig::fresh_level_buckets`]): by its content,
    /// at the sealed fill ([`CoreConfig::sealed_fill`]).
    ///
    /// The pass first streams through a region sized by the physical
    /// item count (markers and shadowed copies included — the live count
    /// is unknowable in O(1) memory until the purge has run). When the
    /// purge reveals that a smaller level suffices — a delete-heavy
    /// store — one more streaming pass right-sizes the file (a store
    /// whose every item was deleted right-sizes to an empty file); an
    /// insert-mostly store pays a single pass.
    ///
    /// Crash-safe at every step: the manifest rename is the single
    /// commit point, and an interrupted pass leaves either the old or
    /// the new (file, manifest) pair fully intact plus stray files that
    /// the next reopen removes. If the streaming itself fails the handle
    /// is poisoned (further use errors; the directory reopens to the
    /// last synced state).
    ///
    /// I/O counters restart from zero: the store now sits on a fresh
    /// accounting disk.
    pub fn compact(&mut self) -> Result<CompactionStats> {
        self.mark_dirty()?;
        let bytes_before = self.media.data_len(&data_file_name(self.data_gen));
        let items_before = self.table.len();
        let cfg = self.table.config().clone();
        let k1 = self.table.compaction_level(items_before);
        let mut new_gen = self.data_gen + 1;
        let mut new_name = data_file_name(new_gen);
        let fail = |this: &mut Self, e: ExtMemError, names: &[&str]| {
            this.poisoned = true;
            for n in names {
                let _ = this.media.remove(n);
            }
            Err(e)
        };
        // Note: an error creating the new file leaves the handle usable
        // (nothing has been drained yet).
        let mut new_disk = fresh_gen_disk(&mut self.media, &new_name, &cfg)?;
        let (mut levels, mut stats) = if items_before == 0 {
            (vec![None], MergeStats::default())
        } else {
            match self.table.compact_into(&mut new_disk, k1) {
                Ok(x) => x,
                Err(e) => return fail(self, e, &[&new_name]),
            }
        };
        // Right-size when the purge dropped enough dead weight that a
        // shallower level holds the survivors.
        let k2 = self.table.compaction_level(stats.items);
        if stats.items == 0 && items_before > 0 {
            // The purge ate every item: pass 1's region is sized for the
            // pre-purge physical count but holds nothing. Commit a
            // genuinely empty store (same shape as the `items_before ==
            // 0` branch); the pass-1 file becomes a stray.
            let pass1_name = new_name.clone();
            new_gen += 1;
            new_name = data_file_name(new_gen);
            new_disk = match fresh_gen_disk(&mut self.media, &new_name, &cfg) {
                Ok(d) => d,
                Err(e) => return fail(self, e, &[&pass1_name]),
            };
            levels = vec![None];
        } else if stats.items > 0 && k2 < k1 {
            let pass1_name = new_name.clone();
            new_gen += 1;
            new_name = data_file_name(new_gen);
            let mut dense_disk = match fresh_gen_disk(&mut self.media, &new_name, &cfg) {
                Ok(d) => d,
                Err(e) => return fail(self, e, &[&pass1_name]),
            };
            let region = levels[k1].take().expect("pass 1 built this level");
            let hash = IdealFn::from_seed(self.seed);
            let (region, pass2) = match compact_across(
                &mut new_disk,
                &mut dense_disk,
                &hash,
                vec![Source::from_region(region)],
                cfg.fresh_level_buckets(k2 as u32, stats.items),
                true,
            ) {
                Ok(x) => x,
                Err(e) => return fail(self, e, &[&pass1_name, &new_name]),
            };
            debug_assert_eq!(pass2.items, stats.items, "pass 1 already purged everything");
            stats.shadowed += pass2.shadowed;
            stats.purged += pass2.purged;
            levels = vec![None; k2 + 1];
            levels[k2] = Some(region);
            new_disk = dense_disk;
        }
        if let Err(e) = new_disk.flush() {
            return fail(self, e, &[&new_name]);
        }
        let table = match LogMethodTable::from_parts(
            new_disk,
            cfg,
            IdealFn::from_seed(self.seed),
            levels,
        ) {
            Ok(t) => t,
            Err(e) => return fail(self, e, &[&new_name]),
        };
        self.table = table; // old table (and its file handle) dropped here
        self.data_gen = new_gen;
        // Payload mode: rewrite the live prefix of the blob log into a
        // fresh generation — only payloads the rebuilt index still
        // references survive (deleted and superseded ones are the log's
        // dead weight). The index walk remaps every tagged word to its
        // new offset, old log to new log one record at a time, and the
        // new log is fdatasync'd before the manifest commit can
        // reference it (`blob-sync-before-index-commit`).
        if let Some(mut old_log) = self.blob.take() {
            let new_blob_name = blob_file_name(new_gen);
            let blob_fail = |this: &mut Self, e: ExtMemError| {
                this.poisoned = true;
                let _ = this.media.remove(&new_blob_name);
                let _ = this.media.remove(&new_name);
                Err(e)
            };
            let mut new_log = match self.media.create_file(&new_blob_name).and_then(BlobLog::create)
            {
                Ok(l) => l,
                Err(e) => return blob_fail(self, e),
            };
            let mut remap = |word: Value| -> Result<Value> {
                let payload = old_log.get(untag(word)?)?;
                let (offset, _len) = new_log.append(payload)?;
                Ok(BLOB_TAG | offset)
            };
            if let Err(e) = self.table.rewrite_values(&mut remap) {
                return blob_fail(self, e);
            }
            self.blob = Some(new_log);
            if let Err(e) = self.blob_sync() {
                return blob_fail(self, e);
            }
        }
        // Commit point: a crash before this rename leaves the old
        // manifest + old file authoritative (the newer files are strays);
        // after it, the new pair is.
        self.write_manifest(true)?;
        self.dirty = false;
        let blob_name = blob_file_name(new_gen);
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

/// Cumulative manifest-commit I/O of one [`KvStore`] handle since it
/// opened, split by the commit's form: a marker-setting commit
/// (`full_*`) lists the allocator's free list, whose bytes scale with
/// the table; a marker-less checkpoint commit (`delta_*`) is the same
/// manifest without it — O(log n) level lines. The `delta_*` names
/// predate that form: checkpoint commits used to be frames appended to
/// a `MANIFEST.DELTA` chain, and the counters track the same quantity.
#[derive(Clone, Copy, Debug, Default)]
pub struct ManifestIoStats {
    /// Bytes written by marker-setting manifest commits.
    pub full_bytes: u64,
    /// Marker-setting manifest commits (sync, compaction, creation).
    pub full_commits: u64,
    /// Bytes written by marker-less (checkpoint) manifest commits.
    pub delta_bytes: u64,
    /// Marker-less (checkpoint) manifest commits.
    pub delta_commits: u64,
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

/// Computes the free-slot list of `backend` by walking every region's
/// buckets and overflow chains: reachable ⇒ live, everything else free.
/// Errors (out-of-range ids, undecodable blocks) abort the walk so the
/// caller can fall back to all-live. Shared or cyclic chain tails (only
/// possible under corruption) terminate via the visited check and err on
/// the side of liveness.
fn scan_region_free<B: PersistentBackend>(
    backend: &mut B,
    levels: &[Option<Region>],
) -> Result<Vec<u64>> {
    let slots = backend.slots();
    let mut live = vec![false; slots as usize];
    for region in levels.iter().flatten() {
        for q in 0..region.buckets {
            let mut cur = Some(region.block_of(q));
            while let Some(id) = cur {
                if id.raw() >= slots {
                    return Err(ExtMemError::Corrupt(format!(
                        "chain pointer {id:?} outside the data file"
                    )));
                }
                let idx = id.raw() as usize;
                if live[idx] {
                    break;
                }
                live[idx] = true;
                cur = backend.read(id)?.next();
            }
        }
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
        for q in 0..region.buckets {
            let mut cur = Some(region.block_of(q));
            let mut hops = 0u64;
            while let Some(id) = cur {
                let block = backend.read(id)?;
                if let Some(item) = block.items().iter().find(|it| it.is_delete_marker()) {
                    return Err(ExtMemError::BadConfig(format!(
                        "store format v1 holds value u64::MAX for key {} — this version \
                         reserves that value as the deletion marker; refusing to \
                         reinterpret it (reopen with the binary that wrote the store)",
                        item.key
                    )));
                }
                cur = block.next();
                hops += 1;
                if hops > slots {
                    // Corrupt cycle; reopen's own walks handle this case.
                    break;
                }
            }
        }
    }
    Ok(())
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

/// Splits a manifest line into its key, first value and the remaining
/// fields; `None` for a line with fewer than two fields.
fn split_line(line: &str) -> Option<(&str, &str, std::str::SplitWhitespace<'_>)> {
    let mut parts = line.split_whitespace();
    Some((parts.next()?, parts.next()?, parts))
}

/// Parses a delta frame's `delta <epoch> <seq>` head line.
fn parse_delta_head(line: &str) -> Option<(u64, u64)> {
    let ("delta", epoch, mut rest) = split_line(line)? else { return None };
    Some((epoch.parse().ok()?, rest.next()?.parse().ok()?))
}

/// Folds a legacy `MANIFEST.DELTA` chain (see the module docs) into a
/// parsed base manifest. Frames apply in order while they are intact
/// (length and checksum verify), quote the base's epoch, and carry
/// sequence numbers running 1, 2, …; the first torn or out-of-sequence
/// frame ends the chain — everything at and behind it was never
/// acknowledged as committed. Frames quoting a *different* epoch are
/// stale survivors of a lost chain removal and are skipped without
/// ending the chain. An intact in-sequence frame is a commit point and
/// must apply in full: a state line in it that does not parse is
/// [`ExtMemError::Corrupt`], never a half-applied frame. Returns the
/// number of frames applied; when any did, the base's free list has
/// been cleared — it predates the chain and must not be trusted.
fn apply_manifest_deltas(m: &mut Manifest, chain: &[u8]) -> Result<u64> {
    let payload_mode = m.blob.is_some();
    let mut applied = 0u64;
    for (_, payload) in Frames::new(chain) {
        let Ok(text) = std::str::from_utf8(payload) else { break };
        let mut lines = text.lines();
        let Some((epoch, seq)) = lines.next().and_then(parse_delta_head) else { break };
        if epoch == m.epoch {
            if seq != applied + 1 {
                break;
            }
            for line in lines {
                m.apply_line(line)?;
            }
            if m.blob.is_some() != payload_mode {
                return Err(ExtMemError::Corrupt(
                    "manifest: a delta frame cannot switch the store's representation".into(),
                ));
            }
            applied += 1;
        }
    }
    if applied > 0 {
        m.free.clear();
    }
    Ok(applied)
}

/// Parsed manifest contents.
struct Manifest {
    cfg: CoreConfig,
    seed: u64,
    /// Data-file generation (0 = `store.blk`, the only value ever
    /// written before compaction existed — absent lines parse as 0).
    data_gen: u64,
    slots: u64,
    free: Vec<u64>,
    levels: Vec<Option<Region>>,
    /// Written by a pre-deletion binary (format v1): `u64::MAX` was an
    /// ordinary value then, so reopen must prove none is stored before
    /// this version may treat it as the deletion marker.
    v1: bool,
    /// Commit-log replay watermark (absent lines parse as 0 — stores
    /// outside a service never write one).
    watermark: u64,
    /// Committed blob-log length in bytes. Presence of the line ⟺ the
    /// store runs in payload mode; recovery truncates the log here.
    blob: Option<u64>,
    /// Epoch this manifest committed at (absent lines parse as 0 —
    /// stores older than the legacy chain). Legacy delta frames quote
    /// the epoch they extend; frames quoting any other are stale and
    /// skipped.
    epoch: u64,
}

fn corrupt(why: &str) -> ExtMemError {
    ExtMemError::Corrupt(format!("manifest: {why}"))
}

/// Largest memory budget a manifest may state, in items: 4 GiB worth,
/// 65 536 times the deployed `m`. Reopen sizes `H0` and the level
/// filters from the persisted `m`, so a corrupt one must be rejected
/// before it is believed — like the `levels` count below.
const MAX_M: usize = 1 << 28;

/// Largest growth factor a manifest may state. The first migration
/// sizes a level of `γ · m/b` buckets; the paper's tradeoff has no use
/// for `γ` beyond `b`, and deployed values are 2–16.
const MAX_GAMMA: u64 = 1 << 16;

/// Whether a store may carry `cfg`'s creation parameters. Checked where
/// a store is created as well as where a manifest is parsed, so a store
/// this code creates always reopens.
fn plausible_creation_params(cfg: &CoreConfig) -> bool {
    cfg.m <= MAX_M && cfg.gamma <= MAX_GAMMA
}

impl Manifest {
    fn parse(text: &str) -> Result<Self> {
        let mut lines = text.lines();
        let v1 = match lines.next() {
            Some(l) if l == MAGIC => false,
            Some(l) if l == MAGIC_V1 => true,
            _ => return Err(corrupt("bad magic")),
        };
        // The creation-time parameters, which only a manifest states;
        // the state lines go through the parser legacy delta frames
        // share, below.
        let mut b = None;
        let mut m = None;
        let mut gamma = None;
        let mut beta = None;
        let mut cost = IoCostModel::SeekDominated;
        let mut seed = None;
        let mut data_gen = 0u64;
        let mut epoch = 0u64;
        let mut has_slots = false;
        for (key, v, _) in lines.clone().filter_map(split_line) {
            match key {
                "b" => b = v.parse().ok(),
                "m" => m = v.parse().ok(),
                "gamma" => gamma = v.parse().ok(),
                "beta" => beta = v.parse().ok(),
                "cost" => {
                    cost = match v {
                        "seek" => IoCostModel::SeekDominated,
                        "strict" => IoCostModel::Strict,
                        _ => return Err(corrupt("unknown cost model")),
                    }
                }
                "seed" => seed = v.parse().ok(),
                "data" => data_gen = v.parse().map_err(|_| corrupt("bad data generation"))?,
                "epoch" => epoch = v.parse().map_err(|_| corrupt("bad epoch"))?,
                "slots" => has_slots = true,
                _ => {}
            }
        }
        let (Some(b), Some(m), Some(gamma), Some(beta), Some(seed), true) =
            (b, m, gamma, beta, seed, has_slots)
        else {
            return Err(corrupt("missing required field"));
        };
        let cfg = CoreConfig::custom(b, m, gamma, beta)?.cost_model(cost);
        if !plausible_creation_params(&cfg) {
            return Err(corrupt("implausible creation parameters"));
        }
        let mut manifest = Manifest {
            cfg,
            seed,
            data_gen,
            slots: 0,
            free: Vec::new(),
            levels: Vec::new(),
            v1,
            watermark: 0,
            blob: None,
            epoch,
        };
        for line in lines {
            manifest.apply_line(line)?;
        }
        Ok(manifest)
    }

    /// Applies one state line — the one parser behind the manifest and
    /// every legacy delta frame (whose `clearlevel` no manifest uses). A
    /// known key whose fields do not parse is [`ExtMemError::Corrupt`];
    /// unknown keys (and lines too short to carry a value) are ignored
    /// (forward-compatible).
    fn apply_line(&mut self, line: &str) -> Result<()> {
        let Some((key, v, rest)) = split_line(line) else { return Ok(()) };
        let level_index = |levels: &[Option<Region>]| match v.parse::<usize>() {
            Ok(k) if k > 0 && k < levels.len() => Ok(k),
            _ => Err(corrupt("level index out of range")),
        };
        match key {
            "watermark" => self.watermark = v.parse().map_err(|_| corrupt("bad watermark"))?,
            "blob" => self.blob = Some(v.parse().map_err(|_| corrupt("bad blob length"))?),
            "slots" => self.slots = v.parse().map_err(|_| corrupt("bad slot count"))?,
            "free" => {
                for id in v.split(',').filter(|s| !s.is_empty()) {
                    self.free.push(id.parse().map_err(|_| corrupt("bad free id"))?);
                }
            }
            "levels" => {
                let n: usize = v.parse().map_err(|_| corrupt("bad level count"))?;
                // Levels grow geometrically (γ ≥ 2), so even a store
                // holding every key in the 63-bit space needs < 64 of
                // them; anything larger is corruption, not scale.
                if n > 64 {
                    return Err(corrupt("implausible level count"));
                }
                self.levels.resize(n.max(1), None);
            }
            "level" => {
                let k = level_index(&self.levels)?;
                let nums: Vec<u64> = rest
                    .map(|p| p.parse().map_err(|_| corrupt("bad level field")))
                    .collect::<Result<_>>()?;
                let [base, buckets, items] = nums[..] else {
                    return Err(corrupt("level needs base/buckets/items"));
                };
                self.levels[k] =
                    Some(Region { base: BlockId(base), buckets, items: items as usize });
            }
            "clearlevel" => {
                let k = level_index(&self.levels)?;
                self.levels[k] = None;
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::fs;

    use dxh_extmem::frame::push_frame;
    use dxh_extmem::{FileDisk, StorageBackend};

    use super::*;
    use crate::media::{CLEAN, LOCK, MANIFEST};

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dxh-store-{tag}-{}", std::process::id()))
    }

    fn cfg() -> CoreConfig {
        CoreConfig::lemma5(8, 128, 2).unwrap()
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

    /// Simulates a process crash: the handle's Drop never runs. A real
    /// crash also releases the OS lock (the kernel closes the dead
    /// process's descriptors); `mem::forget` instead *leaks* the
    /// descriptor, so this process would still hold the lock. Unlinking
    /// the file lets the reopen create and lock a fresh inode.
    fn crash(s: KvStore) {
        let lock = s.path().join(LOCK);
        std::mem::forget(s);
        let _ = fs::remove_file(lock);
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
        let mut doctored = false;
        'outer: for region in manifest.levels.iter().flatten() {
            for q in 0..region.buckets {
                let mut cur = Some(region.block_of(q));
                while let Some(id) = cur {
                    let mut blk = backend.read(id).unwrap();
                    cur = blk.next();
                    if !blk.items().is_empty() {
                        blk.items_mut()[0].value = VALUE_TOMBSTONE;
                        backend.write(id, &blk).unwrap();
                        doctored = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(doctored, "store has at least one persisted item");
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
    fn implausible_level_count_rejected_without_allocating() {
        let text = format!(
            "{MAGIC}\nb 8\nm 128\ngamma 2\nbeta 2\nseed 1\nslots 0\nfree \nlevels 99999999999999\n"
        );
        assert!(Manifest::parse(&text).is_err());
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
    fn corrupt_manifest_rejected() {
        let dir = tmp_dir("corrupt");
        let _ = fs::remove_dir_all(&dir);
        drop(KvStore::open(&dir, cfg(), 9).unwrap());
        fs::write(dir.join(MANIFEST), "not a manifest\n").unwrap();
        assert!(KvStore::open(&dir, cfg(), 9).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_parse_round_trips_all_fields() {
        let text = format!(
            "{MAGIC}\nb 8\nm 128\ngamma 2\nbeta 2\ncost strict\nseed 42\ndata 3\nslots 10\n\
             free 3,7\nlevels 3\nlevel 1 0 2 5\nlevel 2 2 4 9\n"
        );
        let m = Manifest::parse(&text).unwrap();
        assert_eq!(m.cfg.b, 8);
        assert_eq!(m.cfg.cost, IoCostModel::Strict);
        assert_eq!(m.seed, 42);
        assert_eq!(m.data_gen, 3);
        assert_eq!(m.slots, 10);
        assert_eq!(m.free, vec![3, 7]);
        assert_eq!(m.levels.len(), 3);
        let r = m.levels[2].unwrap();
        assert_eq!((r.base.raw(), r.buckets, r.items), (2, 4, 9));
        assert!(m.levels[1].is_some());
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
    fn manifest_without_data_line_defaults_to_generation_zero() {
        // Pre-compaction manifests (earlier stores) have no `data` line.
        let text = format!("{MAGIC}\nb 8\nm 128\ngamma 2\nbeta 2\nseed 1\nslots 0\nfree \n");
        assert_eq!(Manifest::parse(&text).unwrap().data_gen, 0);
        assert_eq!(data_file_name(0), DATA);
        assert_eq!(data_file_name(2), "store.2.blk");
    }

    /// A deterministic payload whose length varies with the key, so a
    /// mis-indexed read cannot accidentally produce the right bytes.
    fn payload_for(k: u64) -> Vec<u8> {
        let len = 1 + (k as usize * 7) % 90;
        (0..len).map(|i| (k as u8).wrapping_mul(31).wrapping_add(i as u8)).collect()
    }

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
        drop(KvStore::open_payload(&dir, cfg(), 22).unwrap());
        let Err(err) = KvStore::open(&dir, cfg(), 22) else {
            panic!("raw open of a payload store must fail");
        };
        assert!(matches!(err, ExtMemError::BadConfig(_)), "got: {err}");
        let _ = fs::remove_dir_all(&dir);
        drop(KvStore::open(&dir, cfg(), 22).unwrap());
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

    /// Opens the (word-mode) store on `env`'s root.
    fn sim_store(env: &dxh_extmem::SimEnv) -> KvStore<crate::SimMedia> {
        KvStore::open_on(crate::SimMedia::open(env).unwrap(), cfg(), 84).unwrap()
    }

    /// Crashes `env` at its next I/O, drops `s` over the dead machine and
    /// brings it back up.
    fn sim_crash(env: &dxh_extmem::SimEnv, s: KvStore<crate::SimMedia>, seed: u64) {
        env.set_plan(dxh_extmem::FaultPlan::crash(env.ops(), seed));
        drop(s);
        env.power_cycle();
    }

    /// Frames a delta payload exactly like the legacy chain writer did.
    fn delta_frame(text: &str) -> Vec<u8> {
        let mut frame = Vec::new();
        push_frame(&mut frame, text.as_bytes());
        frame
    }

    /// Durably installs byte file `name` on `env`'s root.
    fn put_file(env: &dxh_extmem::SimEnv, name: &str, bytes: &[u8]) {
        use dxh_extmem::BlobFile;
        let mut f = env.create_file(name).unwrap();
        f.append(bytes).unwrap();
        f.sync().unwrap();
        env.sync_dir("").unwrap();
    }

    fn manifest_text(env: &dxh_extmem::SimEnv) -> String {
        String::from_utf8(env.read_file(MANIFEST).unwrap().unwrap()).unwrap()
    }

    fn assert_every_slot_accounted<M: StoreMedia>(s: &KvStore<M>) {
        let backend = s.table().disk().backend();
        assert_eq!(backend.live_blocks() + backend.free_count() as u64, backend.slots());
    }

    /// A marker-less commit is the ordinary manifest without the one
    /// table-sized line nobody reads back: its size does not follow the
    /// allocator's free list, and a reopen over it recomputes liveness
    /// by the recovery walk.
    #[test]
    fn a_checkpoint_commit_carries_no_free_list() {
        use dxh_extmem::SimEnv;
        let dir = tmp_dir("checkpoint-commit");
        let _ = fs::remove_dir_all(&dir);
        let read = |dir: &Path| fs::read_to_string(dir.join(MANIFEST)).unwrap();
        let mut s = KvStore::open(&dir, cfg(), 81).unwrap();
        for k in 0..600u64 {
            s.insert(k, k + 1).unwrap();
        }
        s.sync().unwrap();
        assert!(read(&dir).contains("\nfree "), "a marker-setting commit lists the free slots");
        let base = s.manifest_io();
        for k in 600..900u64 {
            s.insert(k, k + 1).unwrap();
        }
        s.harden(false).unwrap();
        let first = read(&dir);
        assert!(!first.contains("\nfree"), "{first}");
        assert!(Manifest::parse(&first).unwrap().free.is_empty());
        assert!(!dir.join(CLEAN).exists(), "marker-less harden leaves the marker down");

        // Two otherwise equal hardens around a free list grown 10×: the
        // slots are allocated before the first and freed before the second.
        let free_before = s.table().disk().backend().free_count();
        assert!(free_before > 0);
        let n = 10 * free_before;
        let run = s.table.disk_mut().backend_mut().allocate_contiguous(n).unwrap();
        s.mark_dirty().unwrap();
        s.harden(false).unwrap();
        let small = read(&dir);
        for i in 0..n as u64 {
            s.table.disk_mut().backend_mut().free(BlockId(run.raw() + i)).unwrap();
        }
        s.mark_dirty().unwrap();
        s.harden(false).unwrap();
        let big = read(&dir);
        assert!(s.table().disk().backend().free_count() >= 10 * free_before);
        assert_eq!(small.len(), big.len(), "{small}\nvs\n{big}");

        let io = s.manifest_io();
        assert_eq!(io.full_commits, base.full_commits, "hardens are not marker-setting commits");
        assert_eq!(io.delta_commits - base.delta_commits, 3, "one checkpoint commit per harden");
        assert_eq!(
            io.delta_bytes - base.delta_bytes,
            (first.len() + small.len() + big.len()) as u64
        );
        crash(s);
        let mut s = KvStore::open(&dir, cfg(), 81).unwrap();
        // No marker and no list: only the recovery walk can have found these.
        assert!(s.table().disk().backend().free_count() >= n);
        assert_every_slot_accounted(&s);
        for k in 0..900u64 {
            assert_eq!(s.lookup(k).unwrap(), Some(k + 1), "hardened key {k}");
        }
        drop(s);
        let _ = fs::remove_dir_all(&dir);

        // The same across a simulated power cycle.
        let env = SimEnv::new();
        let mut s = sim_store(&env);
        for k in 0..300u64 {
            s.insert(k, k + 1).unwrap();
        }
        s.harden(false).unwrap();
        assert!(!manifest_text(&env).contains("\nfree"));
        sim_crash(&env, s, 5);
        let mut s = sim_store(&env);
        assert_every_slot_accounted(&s);
        for k in 0..300u64 {
            assert_eq!(s.lookup(k).unwrap(), Some(k + 1), "hardened key {k}");
        }
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

    /// Every numeric token of a valid manifest, replaced by each of a
    /// table of boundary values: `open` answers `Ok` or `Err` — it never
    /// panics, aborts on an allocation or hangs — and a manifest rejected
    /// for its creation parameters is rejected before the data file is
    /// even opened, so before anything is sized from them.
    #[test]
    fn no_mutated_manifest_token_can_abort_an_open() {
        use dxh_extmem::{IoEvent, SimEnv};
        // Around 0, 2^6, 2^32, 2^63 and 2^64; not a number; no token.
        let mutants: Vec<&str> = "0 1 2 63 64 65 4294967295 4294967296 9223372036854775807 \
                                  18446744073709551615 18446744073709551616 -1 x "
            .split(' ')
            .collect();
        let touches_data = |trace: &[IoEvent]| {
            trace.iter().any(|e| match e {
                IoEvent::Meta { label, .. } => label.contains(DATA),
                IoEvent::Read { file, .. } => file == DATA,
                _ => false,
            })
        };
        let open =
            |env: &SimEnv| crate::SimMedia::open(env).and_then(|m| KvStore::open_on(m, cfg(), 84));
        let install = |env: &SimEnv, text: &str, clean: bool| {
            put_file(env, MANIFEST, text.as_bytes());
            if clean {
                put_file(env, CLEAN, b"clean\n");
            } else {
                env.remove_file(CLEAN).unwrap();
                env.sync_dir("").unwrap();
            }
            env.take_trace();
        };

        let env = SimEnv::new();
        let mut s = sim_store(&env);
        for k in 0..900u64 {
            s.insert(k, k + 1).unwrap();
        }
        drop(s);
        let text = manifest_text(&env);
        let lines: Vec<&str> = text.lines().collect();
        let (mut opened, mut rejected) = (0, 0);
        for (li, line) in lines.iter().enumerate().skip(1) {
            let (key, values) = line.split_once(' ').unwrap();
            let sep = if key == "free" { ',' } else { ' ' };
            let tokens: Vec<&str> = values.split(sep).collect();
            // The free list is long: its first, middle and last id.
            let picks: Vec<usize> = match key {
                "cost" => continue,
                "free" => vec![0, tokens.len() / 2, tokens.len() - 1],
                _ => (0..tokens.len()).collect(),
            };
            for ti in picks {
                for &mutant in &mutants {
                    let mut tokens = tokens.clone();
                    tokens[ti] = mutant;
                    let mut lines = lines.clone();
                    let line = format!("{key} {}", tokens.join(&sep.to_string()));
                    lines[li] = &line;
                    let mutated = lines.join("\n") + "\n";
                    let _ = Manifest::parse(&mutated);
                    for clean in [true, false] {
                        install(&env, &mutated, clean);
                        match open(&env) {
                            Ok(mut s) => {
                                opened += 1;
                                for k in (0..900u64).step_by(97) {
                                    let _ = s.lookup(k);
                                }
                                sim_crash(&env, s, 1); // leave the image as installed
                            }
                            Err(_) => {
                                rejected += 1;
                                if ["b", "m", "gamma", "beta"].contains(&key) {
                                    let trace = env.take_trace();
                                    assert!(!touches_data(&trace), "{line:?}: {trace:?}");
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(opened > 100 && rejected > 100, "{opened} opened, {rejected} rejected");
        install(&env, &text, true);
        let mut s = open(&env).unwrap();
        assert_eq!(s.lookup(899).unwrap(), Some(900), "the image survived the table");
        drop(s);

        // An empty store has no level region to hold `m` and `gamma`
        // against: there the bounds alone reject what cannot be a store.
        let env = SimEnv::new();
        drop(sim_store(&env));
        let text = manifest_text(&env);
        for (line, mutant, ok) in [
            ("m 128", "m 4294967295", false),
            ("m 128", "m 268435457", false),
            ("m 128", "m 4096", true),
            ("gamma 2", "gamma 4294967295", false),
            ("gamma 2", "gamma 65537", false),
            ("gamma 2", "gamma 65", true),
        ] {
            install(&env, &text.replace(line, mutant), true);
            match open(&env) {
                Ok(s) => {
                    assert!(ok, "{mutant} opened");
                    sim_crash(&env, s, 1);
                }
                Err(e) => {
                    assert!(!ok && matches!(e, ExtMemError::Corrupt(_)), "{mutant}: {e}");
                    assert!(!touches_data(&env.take_trace()), "{mutant}");
                }
            }
        }
        let huge = CoreConfig::custom(8, MAX_M + 1, 2, 2.0).unwrap();
        let created = KvStore::open_on(crate::SimMedia::open(&SimEnv::new()).unwrap(), huge, 1);
        assert!(
            matches!(created, Err(ExtMemError::BadConfig(_))),
            "what cannot reopen is not created"
        );
    }

    #[test]
    fn delta_chain_replay_filters_stale_epochs_and_stops_on_gaps() {
        let text = format!(
            "{MAGIC}\nb 8\nm 128\ngamma 2\nbeta 2\nseed 1\nepoch 3\nslots 4\nfree 1,2\n\
             levels 2\nlevel 1 0 2 5\n"
        );
        let mut m = Manifest::parse(&text).unwrap();
        assert_eq!(m.epoch, 3);
        let mut chain = Vec::new();
        // Stale survivor of a cleared chain: skipped, not a stop.
        chain.extend_from_slice(&delta_frame("delta 2 1\nslots 99\n"));
        chain.extend_from_slice(&delta_frame("delta 3 1\nslots 7\nwatermark 11\n"));
        // Sequence gap (2 missing): the chain's own order is broken —
        // nothing past this point was acknowledged in this order.
        chain.extend_from_slice(&delta_frame("delta 3 3\nslots 8\n"));
        assert_eq!(apply_manifest_deltas(&mut m, &chain).unwrap(), 1);
        assert_eq!(m.slots, 7, "frame 1 applied, stale and gapped frames discarded");
        assert_eq!(m.watermark, 11);
        assert!(m.free.is_empty(), "an applied chain invalidates the base free list");

        // Level edits: resize, replace, clear.
        let mut m = Manifest::parse(&text).unwrap();
        let chain = delta_frame("delta 3 1\nslots 12\nlevels 3\nlevel 2 4 8 9\nclearlevel 1\n");
        assert_eq!(apply_manifest_deltas(&mut m, &chain).unwrap(), 1);
        assert_eq!(m.levels.len(), 3);
        assert!(m.levels[1].is_none(), "clearlevel drops the region");
        let r = m.levels[2].unwrap();
        assert_eq!((r.base.raw(), r.buckets, r.items), (4, 8, 9));
    }

    /// A checksum-valid, in-sequence frame is a commit point: a state
    /// line in it that does not parse fails the reopen instead of being
    /// silently half-applied. Unknown keys stay ignored.
    #[test]
    fn malformed_line_in_an_intact_delta_frame_is_corrupt_not_half_applied() {
        let text = format!(
            "{MAGIC}\nb 8\nm 128\ngamma 2\nbeta 2\nseed 1\nepoch 3\nslots 4\nfree 1,2\n\
             levels 2\nlevel 1 0 2 5\n"
        );
        for bad in [
            "slots 9\nlevel 1 0 x 5\n", // the shown case: slots applied, level dropped
            "level 7 0 2 5\n",
            "level 1 0 2\n",
            "clearlevel 0\n",
            "levels 65\n",
            "slots many\n",
            "watermark -1\n",
            "blob 10\n", // a raw store cannot turn into a payload store
        ] {
            let mut m = Manifest::parse(&text).unwrap();
            let chain = delta_frame(&format!("delta 3 1\n{bad}"));
            let r = apply_manifest_deltas(&mut m, &chain);
            assert!(matches!(r, Err(ExtMemError::Corrupt(_))), "{bad:?} must be corrupt");
        }
        let mut m = Manifest::parse(&text).unwrap();
        let chain = delta_frame("delta 3 1\nslots 9\nfuture-key 1 2 3\n");
        assert_eq!(apply_manifest_deltas(&mut m, &chain).unwrap(), 1);
        assert_eq!(m.slots, 9);
    }

    proptest::proptest! {
        /// Arbitrary chains, and arbitrary text inside an intact
        /// in-sequence frame, fold or fail — never panic.
        #[test]
        fn delta_chain_replay_is_total(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..120),
        ) {
            let base = format!("{MAGIC}\nb 8\nm 128\ngamma 2\nbeta 2\nseed 1\nslots 4\nlevels 2\n");
            let _ = apply_manifest_deltas(&mut Manifest::parse(&base).unwrap(), &bytes);
            let text = format!("delta 0 1\n{}", String::from_utf8_lossy(&bytes));
            let chain = delta_frame(&text);
            let _ = apply_manifest_deltas(&mut Manifest::parse(&base).unwrap(), &chain);
        }
    }

    /// The manifest bytes of both commit forms for one fixed state: on-disk
    /// formats are checked, not claimed. The marker-setting half is as
    /// recorded before the legacy chain writer was deleted (its *state* —
    /// slot count, free list, region bases: an allocation history — was
    /// re-recorded when level migration became one pass, and its slots,
    /// bases and bucket counts again when sealed levels became
    /// content-sized: 150 items in `⌈300/8⌉ = 38` buckets where `H2` has
    /// 64, 342 in 86 where `H3` has 128; and slots, free list and bases
    /// once more when `H1` stopped being merged into in place — it is
    /// built in 16 buckets, then in 32, and both runs are free by the
    /// time `H2` is built); the marker-less half is the
    /// state the chain's first frame used to carry, written as a whole
    /// manifest without the free list.
    #[test]
    fn manifest_and_delta_frame_bytes_are_pinned() {
        use crate::media::SimMedia;
        use dxh_extmem::SimEnv;
        let env = SimEnv::new();
        let mut s = KvStore::open_payload_on(SimMedia::open(&env).unwrap(), cfg(), 7).unwrap();
        for k in 0..150u64 {
            s.put_bytes(k, &payload_for(k)).unwrap();
        }
        s.set_replay_watermark(5);
        s.sync().unwrap();
        let free = "0,1,2,3,4,5,16,6,7,8,9,17,10,11,12,13,14,15,18,19,20,21,22,23,24,25,26,27,\
                    28,29,50,30,31,32,33,34,35,36,51,37,38,39,40,41,42,43,44,45,46,47,48,49";
        assert_eq!(
            read_text(&mut s.media, MANIFEST).unwrap().unwrap(),
            format!(
                "dxh-store v2\nb 8\nm 128\ngamma 2\nbeta 2\ncost seek\nseed 7\nepoch 2\ndata 0\n\
                 blob 8445\nwatermark 5\nslots 91\nfree {free}\nlevels 3\nlevel 2 52 38 150\n"
            )
        );
        for k in 150..400u64 {
            s.put_bytes(k, &payload_for(k)).unwrap();
        }
        s.set_replay_watermark(9);
        s.harden(false).unwrap();
        assert_eq!(
            read_text(&mut s.media, MANIFEST).unwrap().unwrap(),
            "dxh-store v2\nb 8\nm 128\ngamma 2\nbeta 2\ncost seek\nseed 7\nepoch 3\ndata 0\n\
             blob 22900\nwatermark 9\nslots 192\nlevels 4\nlevel 1 177 15 58\n\
             level 3 91 86 342\n"
        );
        assert!(s.media.read_file(MANIFEST_DELTA).unwrap().is_none(), "nothing writes the chain");
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
            for q in 0..region.buckets {
                let mut cur = Some(region.block_of(q));
                while let Some(id) = cur {
                    blocks += 1;
                    cur = s.table.disk_mut().backend_mut().read(id).unwrap().next();
                }
            }
        }
        (blocks, occupied)
    }

    /// Filters are never persisted: reopen (clean and crash-path) and
    /// `compact` rebuild them with one accounted scan of the filtered
    /// levels, after which lookups cost exactly what they cost the
    /// handle that wrote the data.
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
        // disk, whose counters start with the rebuild's scan.
        s.compact().unwrap();
        let (blocks, occupied) = filtered_blocks(&mut s);
        assert_eq!(occupied, 1);
        assert_eq!(s.disk_stats().reads, blocks, "compact rebuilds the dense level's filter");
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
        assert!(!s.dirty && !s.poisoned, "a failed read changes nothing");
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
            assert!(!s.dirty && !s.poisoned, "a failed read changes nothing");
            assert_eq!(s.get_bytes(k).unwrap(), Some(payload_for(k).as_slice()), "the retry");
        }
        assert!(clean_marker(&mut s.media).unwrap(), "reads, failed or not, leave CLEAN in place");
        s.put_bytes(999, b"not yet synced").unwrap();
        assert_eq!(s.get_bytes(999).unwrap(), Some(&b"not yet synced"[..]));
    }
}
