//! The block side of a store directory: every sealed level in a file of
//! its own, and no allocator.
//!
//! A level of the store's table is a static hash table — built once by
//! the flush that lands in it, probed, read once more by the flush that
//! carries it away, never written into. [`LevelFiles`] is the
//! [`StorageBackend`] that shape asks for: the contiguous run a flush
//! allocates for its destination *is* a fresh file, the rare chain block
//! is appended to the file being built, and a block freed is a block of
//! a file on its way out. A block id is `(file number, slot)`; there is
//! no free list, nothing is recycled, and what the disk holds beyond the
//! live levels is only what a flush in progress has read but not yet
//! finished replacing.
//!
//! Each level file is an ordinary file of the store's media — the kind
//! its manifest and logs are — with its blocks laid over it by a
//! [`BlockFile`]: block `slot` is read at `slot × B`, where `B` is the
//! encoded block size.
//!
//! A file lives exactly as long as a level names it:
//!
//! * one created and fully consumed between two manifest commits (a
//!   shallow level a later flush of the same commit interval carried
//!   away) is unlinked as its last block is freed;
//! * one the last durable manifest names is **never written** and is
//!   unlinked only after a manifest that no longer names it is durable
//!   ([`LevelFiles::unlink_unnamed`]) — a crash at any point finds every
//!   file of the committed state intact;
//! * every file written since the last commit is `fdatasync`ed before
//!   the manifest rename ([`StorageBackend::sync`]). Its directory entry
//!   becomes durable with the rename's: both are entries of the one
//!   directory that commit fsyncs, and the create came first — the one
//!   thing asked of the file system beyond POSIX's letter, that a
//!   directory's entries reach the disk in the order they were made (as
//!   under any journal, and as `SimEnv` models).
//!
//! A commit's image of `H0` is one more such file — a contiguous run of
//! dense blocks the commit allocates, writes and, like any file written
//! since the last commit, `fdatasync`s before its manifest — and lives
//! by the same rules: never written again, unlinked once a later
//! manifest that no longer names it is durable.
//!
//! So every level a manifest names, and its image, starts at slot 0 of a
//! file no other line names, and file numbers start at 1. A level line
//! in "file 0" is the shared `store.blk` of an older layout, refused by
//! name.

use std::collections::BTreeMap;

use dxh_extmem::{Block, BlockFile, BlockId, ExtMemError, Result, StorageBackend};
use dxh_tables::Region;

use super::manifest::corrupt;
use crate::media::{best_effort, older_layout, StoreMedia};

/// Low bits of a block id: the slot inside its file. The bits above are
/// the file's number.
const SLOT_BITS: u32 = 32;

fn file_of(id: BlockId) -> u64 {
    id.raw() >> SLOT_BITS
}

fn slot_of(id: BlockId) -> BlockId {
    BlockId(id.raw() & ((1 << SLOT_BITS) - 1))
}

pub(super) fn level_file_name(file: u64) -> String {
    format!("level-{file}.blk")
}

struct LevelFile<F> {
    disk: BlockFile<F>,
    name: String,
    /// Named by the last durable manifest — if not, created since.
    committed: bool,
}

/// The store's block backend: a block id is a slot of a level file (see
/// the module docs). Generic over the [`StoreMedia`] seam, so the real
/// directory and the crash simulator run the one implementation.
pub struct LevelFiles<M: StoreMedia> {
    files: BTreeMap<u64, LevelFile<M::File>>,
    /// Number of the next file to create; numbers are never reused while
    /// a file that bore them may still exist.
    next_file: u64,
    /// The file the last [`StorageBackend::allocate_contiguous`] created,
    /// which a chain block joins.
    building: Option<u64>,
    live: u64,
    b: usize,
    /// An unlocked view of the store's directory; the store holds the
    /// lock beside it.
    media: M,
}

impl<M: StoreMedia> LevelFiles<M> {
    /// The block side of a store with no level yet.
    pub(super) fn new(media: M, b: usize) -> Self {
        LevelFiles { files: BTreeMap::new(), next_file: 1, building: None, live: 0, b, media }
    }

    /// Opens the files `levels` name with every slot live, and checks
    /// that each region lies inside its file. Each level must start at
    /// slot 0 of a file of its own — checked before any file is opened.
    /// Nothing is read.
    pub(super) fn open(media: M, b: usize, levels: &[Option<Region>]) -> Result<Self> {
        let files: Vec<u64> = levels.iter().flatten().map(|r| file_of(r.base)).collect();
        for (i, region) in levels.iter().flatten().enumerate() {
            if files[i] == 0 {
                return Err(older_layout("a level in the shared store.blk (file 0)"));
            }
            if slot_of(region.base).raw() != 0 || files[..i].contains(&files[i]) {
                return Err(corrupt(&format!("{region:?} does not start a level file of its own")));
            }
        }
        let mut this = Self::new(media, b);
        for (region, file) in levels.iter().flatten().zip(files) {
            let name = level_file_name(file);
            let missing = || ExtMemError::Corrupt("no such file".into());
            let disk = this
                .media
                .open_file(&name)
                .and_then(|f| BlockFile::from_file(f.ok_or_else(missing)?, b))
                .map_err(|e| corrupt(&format!("names level file {name}: {e}")))?;
            if region.buckets > disk.slots() {
                return Err(corrupt(&format!("{region:?} lies outside {name}")));
            }
            this.live += disk.live_blocks();
            this.next_file = this.next_file.max(file + 1);
            this.files.insert(file, LevelFile { disk, name, committed: true });
        }
        Ok(this)
    }

    fn file_mut(&mut self, id: BlockId) -> Result<&mut LevelFile<M::File>> {
        self.files.get_mut(&file_of(id)).ok_or(ExtMemError::BadBlockId(id))
    }

    /// Closes and unlinks `file`. Best-effort: a file that outlives its
    /// unlink is a stray no manifest names, and the next reopen's to
    /// remove.
    fn unlink(&mut self, file: u64) {
        let Some(f) = self.files.remove(&file) else { return };
        self.live -= f.disk.live_blocks();
        if self.building == Some(file) {
            self.building = None;
        }
        best_effort(self.media.remove(&f.name));
    }

    fn unlink_where(&mut self, doomed: impl Fn(u64, &LevelFile<M::File>) -> bool) {
        let files = self.files.iter().filter(|(&file, f)| doomed(file, f));
        let doomed: Vec<u64> = files.map(|(&file, _)| file).collect();
        doomed.into_iter().for_each(|file| self.unlink(file));
    }

    /// Call once a manifest whose levels are `named` is durable: every
    /// other file — each level a flush carried away since the commit
    /// before — is unlinked, and the
    /// files that stay are from now on never written.
    pub(super) fn unlink_unnamed(&mut self, named: &[Option<Region>]) {
        let named: Vec<u64> = named.iter().flatten().map(|r| file_of(r.base)).collect();
        self.unlink_where(|file, _| !named.contains(&file));
        self.files.values_mut().for_each(|f| f.committed = true);
    }

    /// Unlinks every file created since the last commit: what a failed
    /// compaction was building.
    pub(super) fn unlink_uncommitted(&mut self) {
        self.unlink_where(|_, f| !f.committed);
    }

    /// Whether `name` is one of the open files.
    pub(super) fn holds(&self, name: &str) -> bool {
        self.files.values().any(|f| f.name == name)
    }

    /// Length in bytes of the file block `id` lives in — of all the open
    /// files together, for `None`.
    pub(super) fn file_bytes(&self, id: Option<BlockId>) -> u64 {
        let in_file = |&(file, _): &(&u64, _)| id.is_none_or(|id| *file == file_of(id));
        let slots: u64 = self.files.iter().filter(in_file).map(|(_, f)| f.disk.slots()).sum();
        slots * Block::encoded_len(self.b) as u64
    }

    /// Number of open level files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }
}

impl<M: StoreMedia> StorageBackend for LevelFiles<M> {
    fn block_capacity(&self) -> usize {
        self.b
    }

    fn read(&mut self, id: BlockId) -> Result<Block> {
        self.file_mut(id)?.disk.read(slot_of(id))
    }

    fn write(&mut self, id: BlockId, block: &Block) -> Result<()> {
        let f = self.file_mut(id)?;
        if f.committed {
            return Err(ExtMemError::BadConfig(format!(
                "{} is named by the committed manifest and never written again",
                f.name
            )));
        }
        f.disk.write(slot_of(id), block)
    }

    /// One more block at the end of the file being built (a fresh file
    /// when none is).
    fn allocate(&mut self) -> Result<BlockId> {
        let Some(file) = self.building else { return self.allocate_contiguous(1) };
        let f = self.files.get_mut(&file).expect("the file being built is open");
        if f.disk.slots() >> SLOT_BITS != 0 {
            return Err(ExtMemError::BadConfig(format!("{} is full", f.name)));
        }
        let slot = f.disk.allocate()?;
        debug_assert_eq!(slot.raw() + 1, f.disk.slots(), "a file being built only grows");
        self.live += 1;
        Ok(BlockId(file << SLOT_BITS | slot.raw()))
    }

    /// A fresh file of `n` zero slots — `n` empty blocks, no byte written.
    fn allocate_contiguous(&mut self, n: usize) -> Result<BlockId> {
        let file = self.next_file;
        if file >> (64 - SLOT_BITS) != 0 || (n as u64) >> SLOT_BITS != 0 {
            return Err(ExtMemError::BadConfig(format!(
                "level file {file} of {n} blocks is out of the block-id range"
            )));
        }
        let name = level_file_name(file);
        let mut disk = BlockFile::from_file(self.media.create_file(&name)?, self.b)?;
        let base = disk.allocate_contiguous(n)?;
        debug_assert_eq!(base.raw(), 0, "a fresh file starts at slot 0");
        self.next_file += 1;
        self.live += n as u64;
        self.building = Some(file);
        self.files.insert(file, LevelFile { disk, name, committed: false });
        Ok(BlockId(file << SLOT_BITS))
    }

    /// Frees the block; the last one of a file created since the last
    /// commit takes the file with it.
    fn free(&mut self, id: BlockId) -> Result<()> {
        let f = self.file_mut(id)?;
        f.disk.free(slot_of(id))?;
        let consumed = f.disk.live_blocks() == 0;
        #[allow(unused_mut)]
        let mut unlink_now = !f.committed;
        #[cfg(test)]
        {
            unlink_now |= mutant::UNLINK_BEFORE_COMMIT.get();
        }
        self.live -= 1;
        if consumed && unlink_now {
            self.unlink(file_of(id));
        }
        Ok(())
    }

    fn live_blocks(&self) -> u64 {
        self.live
    }

    /// `fdatasync`s every file created since the last commit — the only
    /// ones written since: the data half of the next.
    fn sync(&mut self) -> Result<()> {
        for f in self.files.values_mut().filter(|f| !f.committed) {
            #[cfg(test)]
            if mutant::SKIP_ONE_SYNC.replace(false) {
                continue;
            }
            f.disk.sync()?;
        }
        Ok(())
    }
}

/// The two seeded mutants of the file lifecycle, compiled into this
/// crate's own tests only: the crash sweeps and the `dxh-dura` trace
/// rules must each notice them (`store::tests`).
#[cfg(test)]
pub(super) mod mutant {
    use std::cell::Cell;

    thread_local! {
        /// Unlink a consumed level's file at once, although the last
        /// durable manifest still names it.
        pub(in crate::store) static UNLINK_BEFORE_COMMIT: Cell<bool> = const { Cell::new(false) };
        /// Leave the next dirty level file to be synced unsynced.
        pub(in crate::store) static SKIP_ONE_SYNC: Cell<bool> = const { Cell::new(false) };
    }
}
