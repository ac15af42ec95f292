//! The store's persistence seam: *where* a [`crate::KvStore`]'s (or a
//! [`crate::ShardedKvStore`]'s) directory lives.
//!
//! [`StoreMedia`] is a **file-altitude** seam: files (create / open /
//! read / rename / remove), a directory sync, a listing and child
//! directories — the system calls, nothing more. Two implementations sit
//! below it: a real directory ([`DirMedia`], the default) and the
//! deterministic crash-simulation environment ([`SimMedia`]). Every
//! durable *protocol* is written once above it, as generic code: the
//! tmp + fsync + rename + dir-fsync commit ([`commit_file_atomic`], for
//! the store manifest and the service manifest alike, in this module),
//! the store's level files (`store/levels.rs`, blocks laid over the
//! media's files by `dxh_extmem::BlockFile`) and the commit log
//! (`commitlog.rs`). The crash sweeps therefore run the code that ships,
//! down to each fsync, rename and unlink.

use std::fs;
use std::path::{Path, PathBuf};

use dxh_extmem::{BlobFile, ExtMemError, FileBlob, Result};

/// Manifest file name inside a store directory.
pub(crate) const MANIFEST: &str = "MANIFEST";
/// The checkpoint chain an older layout appended beside its manifest.
/// Its frames may commit state no manifest holds, so a store that has
/// one is refused, never opened without it.
pub(crate) const MANIFEST_DELTA: &str = "MANIFEST.DELTA";

/// The error an open returns for a store (or service root) in an older
/// on-disk layout, named by `shape`: the data is intact, this build
/// just does not read it.
pub(crate) fn older_layout(shape: &str) -> ExtMemError {
    older_layout_fixed_by(
        shape,
        "open it with the build at a883dab, compact() it, close it, then reopen here",
    )
}

/// [`older_layout`] for a shape that `fix` — steps through an older
/// build — brings into this build's layout.
pub(crate) fn older_layout_fixed_by(shape: &str, fix: &str) -> ExtMemError {
    ExtMemError::BadConfig(format!(
        "{shape}: an older on-disk layout, which this build does not read; {fix}"
    ))
}

/// Whether `name` is a block file of a store (a level file).
pub(crate) fn is_data_file(name: &str) -> bool {
    name.ends_with(".blk")
}

/// Whether `name` is a store blob-log file (any generation).
pub(crate) fn is_blob_file(name: &str) -> bool {
    name.starts_with("store") && name.ends_with(".blob")
}

/// One directory of a persistence environment: the file system calls
/// the durable protocols are built from. Names are plain file names
/// inside the directory.
///
/// Contract (what the protocols above assume of every implementation):
///
/// * **Mutual exclusion** of a store directory is acquired when its
///   media handle is constructed ([`DirMedia::open`], [`SimMedia::open`],
///   [`StoreMedia::sub`]) and released when it drops — at most one live
///   handle per store, with a crashed owner's lock released by the
///   environment, never reclaimed by guesswork.
/// * **Nothing is durable by itself.** A file's writes are durable after
///   its [`BlobFile::sync`]; a create, rename or remove is durable after
///   the directory's [`StoreMedia::sync_dir`] — a file's own sync does
///   not persist its name.
/// * [`StoreMedia::rename`] is atomic: at any crash the target names the
///   whole old file or the whole new one.
/// * A file [`StoreMedia::create_file`] makes starts empty, and a
///   growing [`BlobFile::set_len`] reads back as zeros — what lets a
///   level file grow by empty blocks without writing a byte.
pub trait StoreMedia: Sized {
    /// An open file of this media — a level file under its blocks (see
    /// `dxh_extmem::BlockFile`), the payload log's storage (see
    /// `dxh_extmem::BlobLog`) and the handle under every metadata
    /// protocol. `Send` so a store can live behind the service's
    /// per-shard committer threads.
    type File: BlobFile + Send;

    /// Creates (truncating) file `name`.
    fn create_file(&mut self, name: &str) -> Result<Self::File>;

    /// Opens existing file `name` without truncating; `None` when
    /// absent.
    fn open_file(&mut self, name: &str) -> Result<Option<Self::File>>;

    /// Reads the whole of file `name`; `None` when absent.
    fn read_file(&mut self, name: &str) -> Result<Option<Vec<u8>>>;

    /// Atomically renames `from` over `to`.
    fn rename(&mut self, from: &str, to: &str) -> Result<()>;

    /// Removes file `name`; `false` when it was absent.
    fn remove(&mut self, name: &str) -> Result<bool>;

    /// Makes every create, rename and remove in this directory durable.
    fn sync_dir(&mut self) -> Result<()>;

    /// The file names in this directory (empty when it cannot be read —
    /// only best-effort cleanup consumes the listing).
    fn names(&mut self) -> Vec<String>;

    /// Opens (creating if needed) child directory `name` as a store
    /// directory of its own, acquiring its exclusive lock.
    fn sub(&self, name: &str) -> Result<Self>;

    /// A second handle on this directory that takes no lock, for the
    /// holder of `self` to keep beside it (a store hands one to its
    /// level files): good only while `self`'s lock is held.
    fn view(&self) -> Self;
}

/// The one sanctioned sink for a deliberately discarded `Result`: this
/// crate denies clippy's `let_underscore_must_use` and
/// `unused_result_ok`, so a swallowed sync error cannot slip in as a
/// `let _ =` or an `.ok()`; every discard routes through here — named,
/// greppable, and documented at each call site.
pub(crate) fn best_effort<T, E>(_: std::result::Result<T, E>) {}

/// Atomically replaces `name` on `media` with `text`: write a tmp file,
/// fdatasync it, rename it over `name`, fsync the directory — the commit
/// primitive behind every durable metadata file (the store manifest,
/// the service manifest). After it returns a reopen sees the new
/// contents; interrupted, a reopen sees the old ones — never a mix.
/// Whatever the new contents vouch for (the store's level files) must
/// be durable before the call.
pub(crate) fn commit_file_atomic<M: StoreMedia>(
    media: &mut M,
    name: &str,
    text: &str,
) -> Result<()> {
    let tmp = format!("{name}.tmp");
    let mut f = media.create_file(&tmp)?;
    f.append(text.as_bytes())?;
    f.sync()?;
    drop(f);
    media.rename(&tmp, name)?;
    // The rename is only durable once the directory entry is: fsync the
    // dir, or a power failure could resurrect the old contents under
    // data written after the commit.
    media.sync_dir()
}

/// Reads metadata file `name` as text; `None` when it was never
/// committed.
pub(crate) fn read_text<M: StoreMedia>(media: &mut M, name: &str) -> Result<Option<String>> {
    match media.read_file(name)? {
        Some(bytes) => String::from_utf8(bytes)
            .map(Some)
            .map_err(|_| ExtMemError::Corrupt(format!("{name} is not UTF-8"))),
        None => Ok(None),
    }
}

/// The exclusive lock of a store directory, held for the lifetime of a
/// media handle: an **OS advisory lock on the directory itself**, taken
/// on a read-only handle of it. Nothing is created, written or removed
/// to take it, so an open pays no inode for its lock and a close
/// unlinks nothing. The kernel releases it when the descriptor closes —
/// including when the owning process dies — so a crash leaves no lock
/// to reclaim and no owner to judge.
///
/// A `LOCK` file an older build left in the directory is ignored, and
/// left where it is. Such a build locks that file, not the directory, so
/// it and this build do not exclude each other: close every handle of
/// the older build before opening the store here.
struct DirLock {
    /// Keeps the OS lock alive; closing the descriptor releases it.
    _dir: fs::File,
}

impl DirLock {
    /// Locks `dir`; fails fast while another live handle holds it.
    /// `None` on a non-unix target, which cannot open a directory as a
    /// file and takes no lock: there, two handles on one store are not
    /// excluded.
    fn acquire(dir: &Path) -> Result<Option<Self>> {
        if cfg!(not(unix)) {
            return Ok(None);
        }
        let dir = fs::File::open(dir)?;
        match dir.try_lock() {
            Ok(()) => Ok(Some(DirLock { _dir: dir })),
            Err(fs::TryLockError::WouldBlock) => Err(ExtMemError::BadConfig(
                "store is locked by a live handle (the OS releases the lock when that process \
                 exits)"
                    .into(),
            )),
            Err(fs::TryLockError::Error(e)) => Err(e.into()),
        }
    }
}

/// The real thing: a directory on the local filesystem, exactly the
/// on-disk layout documented on [`crate::KvStore`]. [`DirMedia::open`]
/// locks the directory itself and creates nothing in it; dropping the
/// media releases the lock.
pub struct DirMedia {
    dir: PathBuf,
    /// Held for the media's lifetime; the OS releases it with the
    /// process on a crash. `None` for a service root, whose mutual
    /// exclusion rides its shards' locks, and on a non-unix target.
    _lock: Option<DirLock>,
}

impl DirMedia {
    /// Locks `dir` (creating it first if needed) and returns the media.
    /// Fails fast when another live handle holds the lock.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let mut media = Self::unlocked(dir)?;
        media._lock = DirLock::acquire(&media.dir)?;
        Ok(media)
    }

    /// A handle on `dir` (created if needed) that takes **no lock** — a
    /// service root: the service opens every shard ([`StoreMedia::sub`],
    /// each behind its own lock) before it touches the root's commit log.
    pub fn unlocked(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        Ok(DirMedia { dir: dir.to_path_buf(), _lock: None })
    }

    /// The directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// `Ok(None)` for a `NotFound`, the error otherwise.
fn absent_is_none<T>(r: std::io::Result<T>) -> Result<Option<T>> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

impl StoreMedia for DirMedia {
    type File = FileBlob;

    fn create_file(&mut self, name: &str) -> Result<FileBlob> {
        FileBlob::create(self.dir.join(name))
    }

    fn open_file(&mut self, name: &str) -> Result<Option<FileBlob>> {
        match FileBlob::open(self.dir.join(name)) {
            Ok(f) => Ok(Some(f)),
            Err(ExtMemError::Io(e)) => absent_is_none(Err(e)),
            Err(e) => Err(e),
        }
    }

    fn read_file(&mut self, name: &str) -> Result<Option<Vec<u8>>> {
        absent_is_none(fs::read(self.dir.join(name)))
    }

    /// The one place a bare `fs::rename` is allowed (clippy's
    /// disallowed-methods ban points everyone else at the protocols
    /// above, which owe the fsync before and the dir-fsync after).
    #[allow(clippy::disallowed_methods)]
    fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        Ok(fs::rename(self.dir.join(from), self.dir.join(to))?)
    }

    fn remove(&mut self, name: &str) -> Result<bool> {
        Ok(absent_is_none(fs::remove_file(self.dir.join(name)))?.is_some())
    }

    /// Fsyncs the directory so a just-renamed (created, unlinked) entry
    /// survives power loss — `rename(2)` alone only orders against the
    /// file's own data.
    fn sync_dir(&mut self) -> Result<()> {
        #[cfg(unix)]
        fs::File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    fn names(&mut self) -> Vec<String> {
        let Ok(entries) = fs::read_dir(&self.dir) else { return Vec::new() };
        entries.flatten().filter_map(|e| e.file_name().into_string().ok()).collect()
    }

    fn sub(&self, name: &str) -> Result<Self> {
        DirMedia::open(self.dir.join(name))
    }

    fn view(&self) -> Self {
        DirMedia { dir: self.dir.clone(), _lock: None }
    }
}

/// The crash-simulation media: one directory (a name prefix) of a
/// [`dxh_extmem::SimEnv`] — simulated files with dirent durability, and
/// the environment's exclusive locks. Every
/// primitive is one tick of the environment's I/O clock, so a
/// [`dxh_extmem::FaultPlan`] can crash the store between *any* two
/// system calls of open/sync/recover/compact — the seam the torture
/// harness sweeps exhaustively.
///
/// One environment can host many stores: [`StoreMedia::sub`] scopes a
/// handle to a child prefix (the simulated twin of a subdirectory),
/// which is how a sharded service puts every shard on one machine under
/// one I/O clock — a single crash index takes all of them down together.
pub struct SimMedia {
    env: dxh_extmem::SimEnv,
    /// This directory's name prefix inside the environment (`""` for the
    /// machine's root, else ending in `/`).
    prefix: String,
    /// Epoch of this handle's lock acquisition (`None` for an unlocked
    /// service root); quoting it on release makes the drop owner-scoped
    /// (a crashed handle dropped after a power cycle must not free a
    /// newer handle's lock).
    lock_epoch: Option<u64>,
}

impl SimMedia {
    /// Acquires the environment's default store lock and returns the
    /// root directory's media. Fails fast while another live handle
    /// holds it; a crashed owner's lock is released by
    /// [`dxh_extmem::SimEnv::power_cycle`].
    pub fn open(env: &dxh_extmem::SimEnv) -> Result<Self> {
        Self::unlocked(env).locked()
    }

    /// The root directory of `env` with **no lock** taken — a service
    /// root, the simulated twin of [`DirMedia::unlocked`].
    pub fn unlocked(env: &dxh_extmem::SimEnv) -> Self {
        SimMedia { env: env.clone(), prefix: String::new(), lock_epoch: None }
    }

    fn locked(mut self) -> Result<Self> {
        self.lock_epoch = Some(self.env.lock_named(&self.prefix)?);
        Ok(self)
    }

    fn scoped(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }
}

impl Drop for SimMedia {
    fn drop(&mut self) {
        if let Some(epoch) = self.lock_epoch {
            self.env.unlock_named(&self.prefix, epoch);
        }
    }
}

impl StoreMedia for SimMedia {
    type File = dxh_extmem::SimBlob;

    fn create_file(&mut self, name: &str) -> Result<dxh_extmem::SimBlob> {
        self.env.create_file(&self.scoped(name))
    }

    fn open_file(&mut self, name: &str) -> Result<Option<dxh_extmem::SimBlob>> {
        self.env.open_file(&self.scoped(name))
    }

    fn read_file(&mut self, name: &str) -> Result<Option<Vec<u8>>> {
        self.env.read_file(&self.scoped(name))
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        self.env.rename_file(&self.scoped(from), &self.scoped(to))
    }

    fn remove(&mut self, name: &str) -> Result<bool> {
        self.env.remove_file(&self.scoped(name))
    }

    fn sync_dir(&mut self) -> Result<()> {
        self.env.sync_dir(&self.prefix)
    }

    fn names(&mut self) -> Vec<String> {
        // Only this directory's own files: a child directory's (a
        // sibling shard's) are not strays, whatever their generation.
        let local = |name: String| {
            name.strip_prefix(&self.prefix).filter(|l| !l.contains('/')).map(str::to_string)
        };
        self.env.file_names().into_iter().filter_map(local).collect()
    }

    fn sub(&self, name: &str) -> Result<Self> {
        let mut child = Self::unlocked(&self.env);
        child.prefix = self.scoped(&format!("{name}/"));
        child.locked()
    }

    fn view(&self) -> Self {
        SimMedia { env: self.env.clone(), prefix: self.prefix.clone(), lock_epoch: None }
    }
}
