//! Deterministic crash simulation: a storage environment whose unsynced
//! writes are volatile, driven by a seeded [`FaultPlan`], recording a
//! full I/O trace for replay.
//!
//! ## The machine model
//!
//! A [`SimEnv`] is one simulated machine: one namespace of names over
//! inodes of one kind — a byte file, served through a [`SimBlob`] handle
//! (manifests, markers, logs, payload blobs, and the level files a
//! [`crate::SimDisk`] lays blocks over) — named store locks, and a single
//! global **I/O clock** that every operation ticks. Like a descriptor, a
//! handle follows its inode: renaming or unlinking the name does not
//! redirect or close it, and an unnamed inode lives until the next power
//! cycle. The clock index is the coordinate system of the whole crate:
//! fault plans name indices, the trace records them, and a crash "at
//! index k" means ops `0..k` happened and op `k` did not.
//!
//! Durability is modeled at the altitude of the system calls the real
//! path issues, so the protocols above (`dxh-core`'s tmp + fsync +
//! rename + dir-fsync commit, its append-and-sync logs, its level files)
//! run unchanged on the simulator and a crash sweep exercises exactly
//! what ships:
//!
//! * **Writes are volatile until the file's `sync`.** A file is its
//!   durable bytes plus one ordered list of the writes made since its
//!   last sync; an append is a write at the end. Reads see every write
//!   (a process reads its own page cache).
//! * **A length change is durable at once** (`set_len`: a growth
//!   zero-fills, a shrink cuts the writes past the new end too) — a
//!   file's *name* is not: it is a directory entry like any other
//!   (below).
//! * **A name is durable only after its directory is synced.** Creating,
//!   renaming and unlinking a file take effect at once for the running
//!   process, but each directory (a name's prefix up to its last `/`)
//!   keeps the ordered list of namespace operations made since its last
//!   [`SimEnv::sync_dir`], and a crash keeps only a seeded *prefix* of
//!   that list: a file created since can vanish whole, one unlinked
//!   since can come back. `rename` is atomic — the target names the old
//!   file or the new one, never a mix — and a file's own `sync` does
//!   **not** persist its directory entry: a fully synced file whose
//!   create was never dir-synced can vanish whole.
//! * **At a power cycle** each file's unsynced writes meet one lottery,
//!   chosen by the plan's crash seed: a write that lands inside the
//!   length the file had at its last sync reverts exactly — the synced
//!   bytes under it survive — and every write past that length
//!   independently survives whole, **tears** (half its bytes, then
//!   `0xFF`) or is lost. A lost write leaves a hole that reads as zeros
//!   when a later write survives past it. The trace records what the
//!   lottery undid (`crash-undo …`, `crash-tear …`, `crash-drop …`), so a
//!   sweep can assert which windows it really hit.
//!
//! The lottery admits every tail a real disk can leave behind an append
//! log — a prefix of the appends, a torn last one — and more: appends
//! land out of order, so a log's reader must stop at its first torn
//! frame, a zero-filled hole included. What it does **not** model is
//! partial survival of an unsynced rewrite of synced bytes. The store
//! never makes one: every level is a static table built in a fresh file
//! of its own, synced once and never written again, and a log only
//! appends.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};

use crate::blob::BlobFile;
use crate::error::{ExtMemError, Result};
use crate::frame::fnv1a64;

/// When and how a [`SimEnv`] fails. All indices are global I/O-clock
/// values (see [`SimEnv::ops`]).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Crash the process model at this I/O index: the op at the index
    /// fails, every later op fails too, and the next
    /// [`SimEnv::power_cycle`] applies the crash write-survival policy.
    pub crash_at: Option<u64>,
    /// Burn the fuse: every op at index ≥ this fails with a transient
    /// [`ExtMemError::Io`] while leaving state intact — the classic
    /// "disk starts erroring" schedule (the shape the fault-injection
    /// suite sweeps).
    pub fail_from: Option<u64>,
    /// Exact indices that fail once with a transient [`ExtMemError::Io`]
    /// (the op does not take effect; later ops proceed normally).
    pub fail_at: Vec<u64>,
    /// Seeds the write-survival lottery for unsynced writes at the power
    /// cycle following a crash.
    pub crash_seed: u64,
    /// Allow torn images (half new bytes, half garbage) among the
    /// unsynced writes the lottery lets survive.
    pub tear: bool,
}

impl FaultPlan {
    /// A plan that crashes at I/O index `k`, with write survival driven
    /// by `seed` and torn writes enabled.
    pub fn crash(k: u64, seed: u64) -> Self {
        FaultPlan { crash_at: Some(k), crash_seed: seed, tear: true, ..Default::default() }
    }
}

/// One recorded I/O operation. Traces of two runs with the same seed and
/// workload compare equal event-for-event — byte content is folded into
/// `fingerprint` fields so equality is content-sensitive without storing
/// every image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IoEvent {
    /// A positional write; `fingerprint` folds the written bytes.
    Write {
        /// File that was written.
        file: String,
        /// First byte written (a block write's slot × slot size, an
        /// append's end of file).
        offset: u64,
        /// FNV-1a of the written bytes.
        fingerprint: u64,
    },
    /// A positional read: `len` bytes at `offset` (one slot, for a
    /// block read).
    ReadAt {
        /// File that was read.
        file: String,
        /// First byte read.
        offset: u64,
        /// Bytes read.
        len: u64,
    },
    /// A sync barrier: `flushed` unsynced writes became durable.
    Sync {
        /// File that was synced.
        file: String,
        /// Unsynced writes made durable by this barrier.
        flushed: u64,
    },
    /// A namespace or bookkeeping operation (file create/open/read/
    /// rename/remove, a length change, directory sync, lock acquisition,
    /// power cycle and what its crash lottery undid).
    Meta {
        /// What happened, e.g. `"file-rename MANIFEST.tmp -> MANIFEST"`.
        label: String,
        /// Content fingerprint where meaningful (a length change's new
        /// length), 0 otherwise.
        fingerprint: u64,
    },
}

/// SplitMix64 step — drives the crash write-survival lottery without
/// pulling a hash-crate dependency into the substrate.
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Writes `bytes` into `file` at `offset`, zero-filling any gap before
/// it.
pub(crate) fn put(file: &mut Vec<u8>, offset: u64, bytes: &[u8]) {
    let at = offset as usize;
    let end = at + bytes.len();
    if file.len() < end {
        file.resize(end, 0);
    }
    file[at..end].copy_from_slice(bytes);
}

/// Fills `buf` from `file` at `offset`; errors when the range runs past
/// the end.
pub(crate) fn get(file: &[u8], offset: u64, buf: &mut [u8]) -> Result<()> {
    let src = usize::try_from(offset)
        .ok()
        .and_then(|at| file.get(at..at.checked_add(buf.len())?))
        .ok_or_else(|| ExtMemError::Io(std::io::ErrorKind::UnexpectedEof.into()))?;
    buf.copy_from_slice(src);
    Ok(())
}

/// One file of the machine (an inode): what the running process reads,
/// what the platter holds, and the writes in between.
#[derive(Clone, Default)]
struct SimFile {
    /// The bytes a read sees: `durable` with every unsynced write on top.
    image: Vec<u8>,
    /// The bytes on the platter: the image at the last sync, with every
    /// length change since.
    durable: Vec<u8>,
    /// The length at the last sync, cut by every shrink since: a write
    /// inside it reverts at a crash, one past it meets the lottery.
    synced_len: usize,
    /// Unsynced writes, oldest first, as `(offset, bytes)`.
    unsynced: Vec<(u64, Vec<u8>)>,
}

impl SimFile {
    fn write_at(&mut self, offset: u64, bytes: &[u8]) {
        put(&mut self.image, offset, bytes);
        self.unsynced.push((offset, bytes.to_vec()));
    }

    fn set_len(&mut self, len: u64) {
        let len = len as usize;
        self.image.resize(len, 0);
        self.durable.resize(len, 0);
        self.synced_len = self.synced_len.min(len);
        // What a shrink cut no longer exists to be written back.
        self.unsynced.retain_mut(|(offset, bytes)| {
            bytes.truncate(len.saturating_sub(*offset as usize));
            !bytes.is_empty()
        });
    }

    /// Makes every unsynced write durable; returns how many there were.
    fn sync(&mut self) -> u64 {
        let flushed = self.unsynced.len() as u64;
        for (offset, bytes) in self.unsynced.drain(..) {
            put(&mut self.durable, offset, &bytes);
        }
        self.synced_len = self.durable.len();
        flushed
    }

    /// The crash: the platter keeps what the lottery drawn from `rng`
    /// lets through (module docs), noted under `name` in `notes`.
    fn power_cycle(&mut self, rng: &mut u64, tear: bool, name: &str, notes: &mut Vec<String>) {
        for (offset, mut bytes) in std::mem::take(&mut self.unsynced) {
            if (offset as usize) < self.synced_len {
                continue; // the synced bytes under it survive exactly
            }
            match splitmix_next(rng) % 3 {
                // The write-back cache got this one out whole.
                0 => {}
                // Torn mid-write: half the new bytes, garbage tail.
                1 if tear => {
                    let half = bytes.len() / 2;
                    bytes[half..].fill(0xFF);
                    notes.push(format!("crash-tear {name}"));
                }
                _ => {
                    notes.push(format!("crash-drop {name}"));
                    continue;
                }
            }
            put(&mut self.durable, offset, &bytes);
        }
        self.synced_len = self.durable.len();
        self.image.clone_from(&self.durable);
    }
}

/// One namespace operation its directory has not been synced past, with
/// what a crash needs to undo it.
#[derive(Clone)]
enum DirOp {
    /// `name` was created (it named nothing before).
    Create { name: String },
    /// `from` was renamed over `to`, displacing the inode `to` named.
    Rename { from: String, to: String, displaced: Option<u64> },
    /// `name` was unlinked from inode `ino`.
    Unlink { name: String, ino: u64 },
}

impl DirOp {
    /// The trace label of the operation (shared by the op's own event
    /// and the `crash-undo` note of a power cycle that reverts it).
    fn label(&self) -> String {
        match self {
            DirOp::Create { name } => format!("file-create {name}"),
            DirOp::Rename { from, to, .. } => format!("file-rename {from} -> {to}"),
            DirOp::Unlink { name, .. } => format!("file-remove {name}"),
        }
    }
}

/// A namespace or bookkeeping event of the trace.
fn meta(label: String) -> IoEvent {
    IoEvent::Meta { label, fingerprint: 0 }
}

/// The directory of `name`: everything up to and including its last
/// `/` (`""` for the machine's root).
fn dir_of(name: &str) -> &str {
    &name[..name.rfind('/').map_or(0, |i| i + 1)]
}

fn not_found(name: &str) -> ExtMemError {
    ExtMemError::Io(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!("sim file {name} does not exist"),
    ))
}

/// The machine behind a [`SimEnv`] handle.
#[derive(Default)]
struct SimEnvState {
    clock: u64,
    plan: FaultPlan,
    crashed: bool,
    tracing: bool,
    trace: Vec<IoEvent>,
    /// The namespace as the running process sees it.
    names: BTreeMap<String, u64>,
    /// File contents by inode; handles follow the inode, so a rename or
    /// unlink never redirects an open [`SimBlob`].
    inodes: BTreeMap<u64, SimFile>,
    next_ino: u64,
    /// Per directory, the namespace operations made since its last
    /// [`SimEnv::sync_dir`], oldest first.
    undurable: BTreeMap<String, Vec<DirOp>>,
    /// Held store locks by name (`""` is the machine's default store; a
    /// sharded service locks one name per shard), each mapped to the
    /// epoch of its current acquisition.
    locks: BTreeMap<String, u64>,
    /// Monotone acquisition counter: each successful
    /// [`SimEnv::lock_named`] stamps the owner with a fresh epoch, so a
    /// stale handle released after a power cycle cannot free a newer
    /// owner's lock.
    lock_epoch: u64,
    power_cycles: u64,
    /// Ops so far that can change the machine (every op but a read): two
    /// crash points with one count fork one state.
    changes: u64,
    /// The crash sweep running on the machine, if any.
    sweep: Option<Sweep>,
}

impl SimEnvState {
    /// Records namespace operation `op` on `name` as not yet durable.
    fn defer(&mut self, name: &str, op: DirOp) {
        self.undurable.entry(dir_of(name).to_string()).or_default().push(op);
    }

    /// The inode `name` names right now.
    fn lookup(&self, name: &str) -> Option<(u64, &SimFile)> {
        let ino = *self.names.get(name)?;
        Some((ino, &self.inodes[&ino]))
    }

    /// The inode an open handle of `name` holds; gone only after a power
    /// cycle, which no process survives.
    fn held(&mut self, ino: u64, name: &str) -> Result<&mut SimFile> {
        let gone = || ExtMemError::Corrupt(format!("sim file {name} vanished"));
        self.inodes.get_mut(&ino).ok_or_else(gone)
    }

    /// An independent machine in the state a crash at `at` leaves once
    /// power-cycled with `seed`'s lottery: a copy of every name and inode
    /// — image, durable bytes, unsynced writes — of the undurable
    /// namespace operations and of the counters, clock at `clock`,
    /// power-cycled under `FaultPlan::crash(at, seed)`. Its trace holds
    /// that power cycle alone.
    fn crash_copy(&self, at: u64, clock: u64, seed: u64) -> SimEnv {
        let env = SimEnv(Arc::new(Mutex::new(SimEnvState {
            clock,
            plan: FaultPlan::crash(at, seed),
            tracing: self.tracing,
            names: self.names.clone(),
            inodes: self.inodes.clone(),
            next_ino: self.next_ino,
            undurable: self.undurable.clone(),
            lock_epoch: self.lock_epoch,
            power_cycles: self.power_cycles,
            changes: self.changes,
            ..Default::default()
        })));
        env.power_cycle();
        env
    }

    /// The crash states due at the op about to run (all of them once
    /// `end`: the run is over, and a crash at or past its last op leaves
    /// the state it ended in), and where to hand them.
    fn due(&mut self, end: bool) -> Option<(Vec<Crash>, SyncSender<Crash>)> {
        let sweep = self.sweep.as_mut()?;
        let points: Vec<(u64, Vec<u64>)> = match end {
            true => std::mem::take(&mut sweep.points).into_iter().collect(),
            false => sweep.points.remove_entry(&self.clock).into_iter().collect(),
        };
        let to = sweep.to.clone();
        // A re-run's clock stands one past the op its crash failed.
        let clock = self.clock + u64::from(!end);
        let crashes = points
            .into_iter()
            .flat_map(|(at, seeds)| seeds.into_iter().map(move |seed| (at, seed)))
            .map(|(at, seed)| Crash {
                at,
                seed,
                state: self.changes,
                env: self.crash_copy(at, clock, seed),
            })
            .collect();
        Some((crashes, to))
    }
}

/// A running [`SimEnv::sweep_crashes`]: the crash points it has yet to
/// fork, each I/O index with its lottery seeds, and where it hands them.
struct Sweep {
    points: BTreeMap<u64, Vec<u64>>,
    to: SyncSender<Crash>,
}

/// One crash state [`SimEnv::sweep_crashes`] forked from its run.
pub struct Crash {
    /// The I/O index of the crash: ops `0..at` happened, op `at` failed.
    pub at: u64,
    /// The crash seed its power cycle's lottery drew from.
    pub seed: u64,
    /// The pre-crash state it forked, as the count of ops before `at`
    /// that can change a machine: crashes with one `state` differ only in
    /// their lottery.
    pub state: u64,
    /// An independent machine, power-cycled: what a fresh machine holds
    /// that re-ran the run under `FaultPlan::crash(at, seed)` and then
    /// power-cycled — every name, every byte, the I/O clock. Its trace
    /// holds that power cycle alone.
    pub env: SimEnv,
}

/// A handle to one simulated machine; cheap to clone, and every clone
/// sees the same state — the harness keeps one while a store owns
/// another, exactly like a file system outliving a process.
#[derive(Clone)]
pub struct SimEnv(Arc<Mutex<SimEnvState>>);

impl Default for SimEnv {
    fn default() -> Self {
        Self::new()
    }
}

impl SimEnv {
    /// A fresh machine: empty namespace, fault-free plan, clock at 0.
    pub fn new() -> Self {
        SimEnv(Arc::new(Mutex::new(SimEnvState { tracing: true, ..Default::default() })))
    }

    fn state(&self) -> std::sync::MutexGuard<'_, SimEnvState> {
        self.0.lock().expect("sim env mutex poisoned")
    }

    /// Installs `plan`; indices are absolute clock values (see
    /// [`SimEnv::ops`] for the current position).
    pub fn set_plan(&self, plan: FaultPlan) {
        self.state().plan = plan;
    }

    /// The I/O clock: how many operations have been attempted so far.
    pub fn ops(&self) -> u64 {
        self.state().clock
    }

    /// Convenience: burn the fuse after `okay` further successful
    /// operations — [`FaultPlan::fail_from`] anchored at the current
    /// clock, preserving the rest of the installed plan.
    pub fn fail_after(&self, okay: u64) {
        let mut st = self.state();
        st.plan.fail_from = Some(st.clock.saturating_add(okay));
    }

    /// Whether the plan's crash point has fired (every op fails until
    /// [`SimEnv::power_cycle`]).
    pub fn crashed(&self) -> bool {
        self.state().crashed
    }

    /// Enables or disables trace recording (on by default).
    pub fn set_tracing(&self, on: bool) {
        self.state().tracing = on;
    }

    /// Drains and returns the recorded trace.
    pub fn take_trace(&self) -> Vec<IoEvent> {
        std::mem::take(&mut self.state().trace)
    }

    /// Simulates the machine coming back up after a crash: reverts a
    /// seeded suffix of every directory's un-synced namespace
    /// operations, drops every inode left unnamed, then runs each
    /// surviving file's write-survival lottery, chosen by the plan's
    /// `crash_seed` (module docs). Then it clears the crash flag and the
    /// store locks (the kernel releases a dead process's lock), and
    /// resets the plan to fault-free so recovery runs clean. The I/O
    /// clock and the trace carry on — a replay is one timeline.
    pub fn power_cycle(&self) {
        let mut st = self.state();
        let st = &mut *st;
        let plan = std::mem::take(&mut st.plan);
        let mut rng = plan.crash_seed ^ st.power_cycles.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut notes: Vec<String> = Vec::new();
        // Directory entries reach the platter in order: each directory
        // keeps a seeded prefix of its un-synced namespace operations,
        // and the rest are reverted newest-first.
        for (_, mut ops) in std::mem::take(&mut st.undurable) {
            let keep = (splitmix_next(&mut rng) % (ops.len() as u64 + 1)) as usize;
            for op in ops.drain(keep..).rev() {
                notes.push(format!("crash-undo {}", op.label()));
                match op {
                    DirOp::Create { name } => {
                        st.names.remove(&name);
                    }
                    DirOp::Rename { from, to, displaced } => {
                        if let Some(ino) = st.names.remove(&to) {
                            st.names.insert(from, ino);
                        }
                        if let Some(ino) = displaced {
                            st.names.insert(to, ino);
                        }
                    }
                    DirOp::Unlink { name, ino } => {
                        st.names.insert(name, ino);
                    }
                }
            }
        }
        // No process survives to hold an unnamed file open.
        let names = &st.names;
        st.inodes.retain(|ino, _| names.values().any(|n| n == ino));
        for (name, ino) in &st.names {
            let file = st.inodes.get_mut(ino).expect("a named inode exists");
            file.power_cycle(&mut rng, plan.tear, name, &mut notes);
        }
        st.crashed = false;
        st.locks.clear();
        st.power_cycles += 1;
        if st.tracing {
            st.trace.extend(notes.into_iter().map(meta));
            st.trace
                .push(IoEvent::Meta { label: "power-cycle".into(), fingerprint: st.power_cycles });
        }
    }

    /// Acquires the lock of the store named `name` (one I/O op; `""` is
    /// the machine's default store) and returns this acquisition's
    /// epoch. One machine hosts many independent stores (a sharded
    /// service locks one name per shard), each with its own exclusive
    /// lock, which errors while another live handle holds it — the
    /// simulated twin of a store directory's OS lock, which fails fast.
    /// Release with [`SimEnv::unlock_named`], quoting the name and epoch.
    pub fn lock_named(&self, name: &str) -> Result<u64> {
        self.guarded(
            false,
            |_| meta(format!("lock {name}")),
            |st| {
                if st.locks.contains_key(name) {
                    return Err(ExtMemError::BadConfig(format!(
                        "sim store {name:?} is locked by a live handle (drop it, or \
                         power-cycle after a crash)"
                    )));
                }
                st.lock_epoch += 1;
                st.locks.insert(name.to_string(), st.lock_epoch);
                Ok(st.lock_epoch)
            },
        )
    }

    /// Releases the lock of the store named `name` **if** `epoch` still
    /// names the current acquisition. Infallible and un-clocked: the
    /// kernel releases a dead process's lock without that process doing
    /// I/O. The epoch check makes the release owner-scoped, like an OS
    /// lock dying with its own descriptor: a crashed handle dropped
    /// *after* a power cycle (which already released the lock) must not
    /// free a newer owner's acquisition.
    pub fn unlock_named(&self, name: &str, epoch: u64) {
        let mut st = self.state();
        if st.locks.get(name) == Some(&epoch) {
            st.locks.remove(name);
        }
    }

    /// Size in bytes file `name` would report to a `stat` — what the
    /// running process sees; 0 when absent. Un-clocked diagnostic.
    pub fn file_len(&self, name: &str) -> u64 {
        self.state().lookup(name).map_or(0, |(_, f)| f.image.len() as u64)
    }

    /// Every name on the machine (diagnostic listing, un-clocked).
    pub fn file_names(&self) -> Vec<String> {
        self.state().names.keys().cloned().collect()
    }

    /// Creates file `name` — truncating it in place when it exists — and
    /// returns a handle to it (one I/O op). A new name is not durable
    /// until its directory is synced ([`SimEnv::sync_dir`]).
    pub fn create_file(&self, name: &str) -> Result<SimBlob> {
        let ino = self.guarded(
            false,
            |_| meta(format!("file-create {name}")),
            |st| {
                let ino = match st.names.get(name) {
                    Some(&ino) => ino,
                    None => {
                        st.next_ino += 1;
                        st.names.insert(name.to_string(), st.next_ino);
                        st.defer(name, DirOp::Create { name: name.to_string() });
                        st.next_ino
                    }
                };
                st.inodes.insert(ino, SimFile::default());
                Ok(ino)
            },
        )?;
        Ok(SimBlob { env: self.clone(), name: name.to_string(), ino })
    }

    /// Opens file `name` without truncating (one I/O op); `None` when
    /// absent. The trace records a hit as `file-open`, a miss as
    /// `file-absent`.
    pub fn open_file(&self, name: &str) -> Result<Option<SimBlob>> {
        let ino = self.guarded(
            true,
            |ino: &Option<_>| {
                meta(format!("{} {name}", if ino.is_some() { "file-open" } else { "file-absent" }))
            },
            |st| Ok(st.lookup(name).map(|(ino, _)| ino)),
        )?;
        Ok(ino.map(|ino| SimBlob { env: self.clone(), name: name.to_string(), ino }))
    }

    /// Reads the whole of file `name` (one I/O op); `None` when absent.
    /// A process reads its own unsynced writes.
    pub fn read_file(&self, name: &str) -> Result<Option<Vec<u8>>> {
        self.guarded(
            true,
            |img: &Option<_>| {
                meta(format!("{} {name}", if img.is_some() { "file-read" } else { "file-absent" }))
            },
            |st| Ok(st.lookup(name).map(|(_, f)| f.image.clone())),
        )
    }

    /// Atomically renames file `from` over `to` within one directory
    /// (one I/O op). Durable once the directory is synced; until then a
    /// crash may revert it — to the old `to`, never a mix.
    pub fn rename_file(&self, from: &str, to: &str) -> Result<()> {
        if dir_of(from) != dir_of(to) {
            return Err(ExtMemError::BadConfig(format!(
                "sim rename {from} -> {to} crosses directories"
            )));
        }
        self.guarded(
            false,
            |_| meta(format!("file-rename {from} -> {to}")),
            |st| {
                let ino = st.names.remove(from).ok_or_else(|| not_found(from))?;
                let displaced = st.names.insert(to.to_string(), ino);
                st.defer(
                    to,
                    DirOp::Rename { from: from.to_string(), to: to.to_string(), displaced },
                );
                Ok(())
            },
        )
    }

    /// Unlinks file `name` (one I/O op), and reports whether it existed.
    /// An open handle keeps reading and writing the unnamed inode. The
    /// unlink is durable once the directory is synced. Nothing counts
    /// handles, so the unnamed inode's contents stay in memory until the
    /// next [`SimEnv::power_cycle`] — even after its unlink is durable
    /// and its last handle is dropped.
    pub fn remove_file(&self, name: &str) -> Result<bool> {
        self.guarded(
            false,
            |&hit| meta(format!("{} {name}", if hit { "file-remove" } else { "file-absent" })),
            |st| {
                let ino = st.names.remove(name);
                if let Some(ino) = ino {
                    st.defer(name, DirOp::Unlink { name: name.to_string(), ino });
                }
                Ok(ino.is_some())
            },
        )
    }

    /// Syncs directory `dir` (a name prefix ending in `/`, or `""` for
    /// the root; one I/O op): every create, rename and unlink made in it
    /// so far becomes durable.
    pub fn sync_dir(&self, dir: &str) -> Result<()> {
        self.guarded(
            false,
            |_| meta(format!("dir-sync {dir}")),
            |st| {
                st.undurable.remove(dir);
                Ok(())
            },
        )
    }

    /// The clock-tick-plus-fault-check wrapper every operation goes
    /// through: hands a running sweep the crash states due before the op,
    /// assigns the op its index, consults the plan, applies `apply` on
    /// success — counting it a change unless it `reads` — and records the
    /// event `event` makes of its result. `event` is a closure so untraced
    /// runs pay no per-op String allocation for events that would be
    /// dropped anyway.
    fn guarded<T>(
        &self,
        reads: bool,
        event: impl FnOnce(&T) -> IoEvent,
        apply: impl FnOnce(&mut SimEnvState) -> Result<T>,
    ) -> Result<T> {
        self.hand_over(false);
        let mut st = self.state();
        let st = &mut *st;
        if st.crashed {
            return Err(ExtMemError::Io(std::io::Error::other(
                "simulated machine is down (crash point already fired)",
            )));
        }
        let idx = st.clock;
        st.clock += 1;
        if st.plan.crash_at == Some(idx) {
            st.crashed = true;
            return Err(ExtMemError::Io(std::io::Error::other(format!(
                "simulated crash at I/O index {idx}"
            ))));
        }
        if st.plan.fail_from.is_some_and(|from| idx >= from) {
            return Err(ExtMemError::Io(std::io::Error::other(format!(
                "injected fault (fuse burnt, I/O index {idx})"
            ))));
        }
        if st.plan.fail_at.contains(&idx) {
            return Err(ExtMemError::Io(std::io::Error::other(format!(
                "injected transient fault at I/O index {idx}"
            ))));
        }
        let out = apply(st)?;
        st.changes += u64::from(!reads);
        if st.tracing {
            st.trace.push(event(&out));
        }
        Ok(out)
    }

    /// Forks the crash states due (see [`SimEnvState::due`]) and hands
    /// them to the sweep's check, outside the lock: the check may use any
    /// machine, this one included.
    fn hand_over(&self, end: bool) {
        let Some((crashes, to)) = self.state().due(end) else { return };
        for crash in crashes {
            // A check that hung up has failed: the run goes on alone.
            if to.send(crash).is_err() {
                break;
            }
        }
    }

    /// The crash sweep driver: runs `run` once on this machine and hands
    /// `check`, for each `(at, seed)` of `crashes`, the machine a crash at
    /// I/O index `at` leaves once power-cycled with `seed`'s lottery.
    ///
    /// A crash at `at` depends only on the machine before op `at` and on
    /// the seed: op `at` and every op after it fail and change nothing.
    /// So just before op `at` runs, the driver copies the machine — its
    /// names, each inode's image, durable bytes and unsynced writes, the
    /// namespace operations no directory sync has covered, the counters —
    /// and power-cycles the copy under `FaultPlan::crash(at, seed)`: every
    /// name and byte a re-run crashed at `at` holds after its power cycle
    /// (`sweep_crashes_forks_what_a_re_run_leaves` pins it). A point at
    /// or past the run's last op forks the state the run ends in. One run
    /// of `K` ops yields every crash state, where re-running the prefix
    /// for each costs O(`K²`) ops.
    ///
    /// `check` runs on a thread of its own, one crash at a time, while
    /// the run goes on; at most one crash waits for it. What the run
    /// itself does after a crash — a failing drop, best-effort cleanup —
    /// only a re-run exercises. Returns what `run` returns; a panic in
    /// either closure is the caller's.
    pub fn sweep_crashes<T>(
        &self,
        crashes: impl IntoIterator<Item = (u64, u64)>,
        run: impl FnOnce() -> T,
        check: impl FnMut(Crash) + Send,
    ) -> T {
        let mut points: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (at, seed) in crashes {
            points.entry(at).or_default().push(seed);
        }
        let (to, from) = sync_channel(0);
        self.state().sweep = Some(Sweep { points, to });
        std::thread::scope(|scope| {
            let checker = scope.spawn(move || from.into_iter().for_each(check));
            let out = catch_unwind(AssertUnwindSafe(run));
            if out.is_ok() {
                self.hand_over(true);
            }
            self.state().sweep = None;
            if let Err(panic) = checker.join() {
                resume_unwind(panic);
            }
            out.unwrap_or_else(|panic| resume_unwind(panic))
        })
    }
}

/// A handle to one open file of a [`SimEnv`] — the crash-faithful
/// [`BlobFile`] every durable-file protocol runs on under torture:
/// writes are volatile until sync, and a power cycle runs the
/// write-survival lottery over the unsynced ones. Like a descriptor, the
/// handle follows the file it opened: renaming or unlinking the name
/// does not redirect it.
pub struct SimBlob {
    env: SimEnv,
    /// The name the file was opened under (trace labels only).
    name: String,
    ino: u64,
}

impl SimBlob {
    /// The environment this file lives in (fault plan, clock, trace).
    pub fn env(&self) -> SimEnv {
        self.env.clone()
    }

    /// Runs `apply` against this handle's file under the environment's
    /// clock-and-fault guard.
    fn file_op<T>(
        &self,
        reads: bool,
        event: impl FnOnce(&T) -> IoEvent,
        apply: impl FnOnce(&mut SimFile) -> Result<T>,
    ) -> Result<T> {
        self.env.guarded(reads, event, |st| apply(st.held(self.ino, &self.name)?))
    }
}

impl BlobFile for SimBlob {
    /// One I/O op, volatile until [`BlobFile::sync`]; traced as a
    /// `Write`.
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> Result<()> {
        let fp = fnv1a64(bytes);
        self.file_op(
            false,
            |_| IoEvent::Write { file: self.name.clone(), offset, fingerprint: fp },
            |f| {
                f.write_at(offset, bytes);
                Ok(())
            },
        )
    }

    /// One I/O op, fault-injectable like any other; traced as a
    /// `ReadAt`.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let len = buf.len() as u64;
        self.file_op(
            true,
            |_| IoEvent::ReadAt { file: self.name.clone(), offset, len },
            |f| get(&f.image, offset, buf),
        )
    }

    /// One I/O op, durable at once. Traced as `file-truncate` when it
    /// shrinks the file — the unsynced writes it cuts are gone — and as
    /// `file-extend` otherwise; the new length is the fingerprint.
    fn set_len(&mut self, len: u64) -> Result<()> {
        self.file_op(
            false,
            |&shrunk| {
                let op = if shrunk { "file-truncate" } else { "file-extend" };
                IoEvent::Meta { label: format!("{op} {}", self.name), fingerprint: len }
            },
            |f| {
                let shrunk = len < f.image.len() as u64;
                f.set_len(len);
                Ok(shrunk)
            },
        )
        .map(drop)
    }

    /// Sync barrier (one I/O op): every prior write becomes durable —
    /// the file's content, not its directory entry.
    fn sync(&mut self) -> Result<()> {
        self.file_op(
            false,
            |&flushed| IoEvent::Sync { file: self.name.clone(), flushed },
            |f| Ok(f.sync()),
        )
        .map(drop)
    }

    /// Visible length (what a `stat` from this process sees); un-clocked.
    fn len(&self) -> u64 {
        self.env.state().inodes.get(&self.ino).map_or(0, |f| f.image.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StorageBackend;
    use crate::block::Block;
    use crate::item::Item;
    use crate::SimDisk;

    fn item_block(cap: usize, k: u64, v: u64) -> Block {
        let mut b = Block::new(cap);
        b.push(Item::new(k, v)).unwrap();
        b
    }

    /// A block disk over file `name` of `env`: a fresh one, or the
    /// existing one with every slot live.
    fn create_blocks(env: &SimEnv, name: &str) -> SimDisk {
        SimDisk::from_file(env.create_file(name).unwrap(), 4).unwrap()
    }

    fn open_blocks(env: &SimEnv, name: &str) -> Result<SimDisk> {
        SimDisk::from_file(env.open_file(name)?.ok_or_else(|| not_found(name))?, 4)
    }

    #[test]
    fn unsynced_writes_vanish_at_a_power_cycle_synced_ones_survive() {
        let env = SimEnv::new();
        let mut d = create_blocks(&env, "t.blk");
        env.sync_dir("").unwrap();
        let a = d.allocate().unwrap();
        d.write(a, &item_block(4, 1, 10)).unwrap();
        d.sync().unwrap();
        d.write(a, &item_block(4, 1, 99)).unwrap(); // unsynced rewrite
        env.set_plan(FaultPlan::crash(env.ops(), 42));
        assert!(d.read(a).is_err(), "crash point fires");
        env.power_cycle();
        let mut d = open_blocks(&env, "t.blk").unwrap();
        assert_eq!(d.read(a).unwrap().find(1), Some(10), "synced image survives exactly");
    }

    #[test]
    fn never_synced_slots_survive_the_lottery_but_synced_reads_never_tear() {
        // Allocate past the synced length, write, crash: the
        // torn/kept/dropped lottery only touches those slots; slots
        // inside the synced length revert exactly.
        let env = SimEnv::new();
        let mut d = create_blocks(&env, "t.blk");
        env.sync_dir("").unwrap();
        let synced = d.allocate().unwrap();
        d.write(synced, &item_block(4, 5, 50)).unwrap();
        d.sync().unwrap();
        let fresh: Vec<_> = (0..20).map(|_| d.allocate().unwrap()).collect();
        for (i, &id) in fresh.iter().enumerate() {
            d.write(id, &item_block(4, i as u64, 1)).unwrap();
        }
        d.write(synced, &item_block(4, 5, 999)).unwrap();
        env.set_plan(FaultPlan::crash(env.ops(), 7));
        assert!(d.sync().is_err(), "crash fires at the sync");
        env.power_cycle();
        let mut d = open_blocks(&env, "t.blk").unwrap();
        assert_eq!(d.slots(), 21, "growth is durable at once");
        assert_eq!(d.read(synced).unwrap().find(5), Some(50), "synced slot reverted exactly");
        // Never-synced slots hold zeros, the written image, or torn
        // garbage — all three must be *readable or cleanly erroring*,
        // never panicking.
        let mut kept = 0;
        let mut dropped = 0;
        let mut torn = 0;
        for &id in &fresh {
            match d.read(id) {
                Ok(blk) if blk.is_empty() => dropped += 1,
                Ok(_) => kept += 1,
                Err(ExtMemError::Corrupt(_)) => torn += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(kept + dropped + torn, fresh.len());
        assert!(kept > 0 && dropped > 0, "lottery mixes outcomes: {kept}/{dropped}/{torn}");
    }

    #[test]
    fn fuse_schedule_matches_failing_disk_semantics() {
        let mut d = SimDisk::new(4);
        let env = d.env();
        env.fail_after(3);
        let id = d.allocate().unwrap(); // 1
        let _ = d.read(id).unwrap(); // 2
        d.write(id, &Block::new(4)).unwrap(); // 3 — fuse burnt
        assert!(matches!(d.read(id), Err(ExtMemError::Io(_))));
        assert!(matches!(d.allocate(), Err(ExtMemError::Io(_))));
        assert!(matches!(d.sync(), Err(ExtMemError::Io(_))));
    }

    #[test]
    fn transient_fault_leaves_state_intact_and_heals() {
        let mut d = SimDisk::new(4);
        let env = d.env();
        let id = d.allocate().unwrap();
        d.write(id, &item_block(4, 3, 30)).unwrap();
        env.set_plan(FaultPlan { fail_at: vec![env.ops()], ..Default::default() });
        assert!(matches!(d.read(id), Err(ExtMemError::Io(_))), "scheduled index faults once");
        assert_eq!(d.read(id).unwrap().find(3), Some(30), "next op heals, data intact");
    }

    /// A failed growth leaves the allocator untouched, and a freed slot
    /// comes back by a header reset — one write, clocked like any other.
    #[test]
    fn a_faulted_growth_allocates_nothing_and_a_recycled_slot_is_reset_by_one_write() {
        let mut d = SimDisk::new(4);
        let env = d.env();
        env.set_plan(FaultPlan { fail_at: vec![env.ops()], ..Default::default() });
        assert!(d.allocate().is_err());
        assert_eq!((d.slots(), d.live_blocks()), (0, 0));
        let id = d.allocate().unwrap();
        d.write(id, &item_block(4, 3, 30)).unwrap();
        let at = env.ops();
        d.free(id).unwrap();
        assert_eq!(env.ops(), at, "a free is no I/O");
        env.take_trace();
        assert_eq!(d.allocate().unwrap(), id);
        assert!(d.read(id).unwrap().is_empty());
        let trace = env.take_trace();
        assert!(
            matches!(&trace[..], [IoEvent::Write { offset: 0, .. }, IoEvent::ReadAt { .. }]),
            "{trace:?}"
        );
    }

    #[test]
    fn trace_is_deterministic_and_content_sensitive() {
        let run = |value: u64| {
            let env = SimEnv::new();
            let mut d = create_blocks(&env, "t.blk");
            let id = d.allocate().unwrap();
            d.write(id, &item_block(4, 1, value)).unwrap();
            d.sync().unwrap();
            env.take_trace()
        };
        assert_eq!(run(10), run(10), "same workload, identical trace");
        assert_ne!(run(10), run(11), "different written bytes, different fingerprints");
        let slot = Block::encoded_len(4) as u64;
        assert_eq!(
            labels(&run(10)),
            ["file-create t.blk", "file-extend t.blk"],
            "a growth is its own event"
        );
        assert!(
            run(10)
                .iter()
                .any(|e| matches!(e, IoEvent::Meta { fingerprint, .. } if *fingerprint == slot)),
            "and carries the new length"
        );
        assert!(
            run(10).iter().any(|e| matches!(e, IoEvent::Sync { flushed, .. } if *flushed == 1)),
            "the sync barrier records how many writes it made durable"
        );
    }

    #[test]
    fn lock_excludes_second_holder_until_power_cycle() {
        let env = SimEnv::new();
        let stale = env.lock_named("").unwrap();
        assert!(env.lock_named("").is_err(), "second live handle fails fast");
        env.power_cycle();
        let owned = env.lock_named("").unwrap();
        // The pre-power-cycle epoch is dead: releasing it must not free
        // the new owner's lock.
        env.unlock_named("", stale);
        assert!(env.lock_named("").is_err(), "stale epoch cannot steal the lock");
        env.unlock_named("", owned);
        env.lock_named("").unwrap();
    }

    /// A file whose name is already durable: create + dir-sync.
    fn durable_file(env: &SimEnv, name: &str) -> SimBlob {
        let f = env.create_file(name).unwrap();
        env.sync_dir(dir_of(name)).unwrap();
        f
    }

    /// Crashes the machine at its next op and brings it back up.
    fn crash(env: &SimEnv, seed: u64) {
        env.set_plan(FaultPlan::crash(env.ops(), seed));
        assert!(env.sync_dir("").is_err(), "crash point fires");
        env.power_cycle();
    }

    /// Everything `file` holds, through one ranged read.
    fn contents(file: &SimBlob) -> Vec<u8> {
        let mut buf = vec![0; file.len() as usize];
        file.read_at(0, &mut buf).unwrap();
        buf
    }

    fn labels(trace: &[IoEvent]) -> Vec<&str> {
        trace
            .iter()
            .filter_map(|e| match e {
                IoEvent::Meta { label, .. } => Some(label.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn appends_are_volatile_until_sync() {
        let env = SimEnv::new();
        let mut b = durable_file(&env, "t.blob");
        b.append(b"synced").unwrap();
        b.sync().unwrap();
        b.append(b" unsynced").unwrap();
        assert_eq!(b.len(), 15, "a process sees its own appends");
        crash(&env, 3);
        let img = env.read_file("t.blob").unwrap().unwrap();
        assert_eq!(&img[..6], b"synced", "durable prefix survives exactly");
    }

    /// Many unsynced appends, then a crash: the synced prefix survives
    /// exactly, and each append past it independently lands whole, torn
    /// (half its bytes, then `0xFF`) or not at all — a lost one reads as
    /// zeros where a later one landed past it, and the file ends with
    /// the last one that landed.
    #[test]
    fn each_unsynced_append_survives_whole_torn_or_as_zeros() {
        let (mut torn, mut dropped, mut holes) = (0, 0, 0);
        for seed in 0..16u64 {
            let env = SimEnv::new();
            let mut b = durable_file(&env, "t.blob");
            b.append(b"AAAA").unwrap();
            b.sync().unwrap();
            for _ in 0..8 {
                b.append(b"BBBB").unwrap();
            }
            crash(&env, seed);
            let img = env.read_file("t.blob").unwrap().unwrap();
            assert_eq!(&img[..4], b"AAAA");
            let tail = &img[4..];
            assert!(tail.len().is_multiple_of(4) && tail.len() <= 32);
            for (i, c) in tail.chunks(4).enumerate() {
                assert!(matches!(c, b"BBBB" | b"BB\xFF\xFF" | [0, 0, 0, 0]), "append {i}: {c:?}");
            }
            assert_ne!(tail.chunks(4).last(), Some(&[0u8; 4][..]), "the file ends at a landing");
            holes += tail.chunks(4).filter(|c| *c == [0; 4]).count();
            let trace = env.take_trace();
            torn += labels(&trace).iter().filter(|l| **l == "crash-tear t.blob").count();
            dropped += labels(&trace).iter().filter(|l| **l == "crash-drop t.blob").count();
        }
        assert!(torn > 0 && dropped > 0 && holes > 0, "{torn} torn, {dropped} lost, {holes} holes");
    }

    /// A ranged read sees the durable bytes and the handle's own
    /// unsynced writes as one file; it is clocked, traced with its
    /// extent, fault-injectable, and a range past the end is an error
    /// that reads nothing.
    #[test]
    fn ranged_reads_span_durable_and_unsynced_bytes() {
        let env = SimEnv::new();
        let mut b = env.create_file("t.blob").unwrap();
        b.append(b"dura").unwrap();
        b.sync().unwrap();
        b.append(b"ble").unwrap();
        b.append(b"").unwrap();
        b.append(b"+tail").unwrap();
        let image = b"durable+tail";
        for from in 0..=image.len() {
            for to in from..=image.len() {
                let mut buf = vec![0; to - from];
                b.read_at(from as u64, &mut buf).unwrap();
                assert_eq!(buf, image[from..to], "{from}..{to}");
            }
        }
        assert!(b.read_at(10, &mut [0; 3]).is_err(), "past the end");
        assert!(b.read_at(u64::MAX, &mut [0; 1]).is_err());
        env.take_trace();
        let at = env.ops();
        env.set_plan(FaultPlan { fail_at: vec![at], ..Default::default() });
        assert!(b.read_at(0, &mut [0; 4]).is_err(), "the injected fault fails the read");
        let mut buf = [0; 4];
        b.read_at(3, &mut buf).unwrap();
        assert_eq!(&buf, b"able", "and the retry succeeds");
        assert_eq!(env.ops(), at + 2, "each read is one tick of the I/O clock");
        assert_eq!(
            env.take_trace(),
            vec![IoEvent::ReadAt { file: "t.blob".into(), offset: 3, len: 4 }]
        );
    }

    /// A shrink discards the unsynced writes it cuts, durably: what it
    /// cut neither reads back nor returns at a crash.
    #[test]
    fn a_shrink_discards_the_crash_tail() {
        let env = SimEnv::new();
        let mut b = durable_file(&env, "t.blob");
        b.append(b"keepkeep").unwrap();
        b.sync().unwrap();
        b.append(b"crashtail").unwrap();
        b.set_len(8).unwrap();
        assert_eq!(contents(&b), b"keepkeep");
        b.append(b"abcdef").unwrap();
        b.set_len(11).unwrap();
        assert_eq!(contents(&b), b"keepkeepabc", "a cut inside a write keeps its head");
        b.set_len(13).unwrap();
        assert_eq!(contents(&b), b"keepkeepabc\0\0", "and grows back as zeros");
        let trace = env.take_trace();
        assert_eq!(
            labels(&trace)[labels(&trace).len() - 3..],
            ["file-truncate t.blob", "file-truncate t.blob", "file-extend t.blob"]
        );
        for seed in 0..8 {
            crash(&env, seed);
            let img = env.read_file("t.blob").unwrap().unwrap();
            assert!(img.starts_with(b"keepkeep") && img.len() == 13, "{img:?}");
            assert!(!img.windows(4).any(|w| w == b"tail" || w == b"def\0"), "{img:?}");
        }
    }

    #[test]
    fn byte_and_block_files_share_one_listing_and_the_trace() {
        let env = SimEnv::new();
        let _d = create_blocks(&env, "store.blk");
        let mut b = env.create_file("store.blob").unwrap();
        b.append(b"payload").unwrap();
        b.sync().unwrap();
        assert_eq!(env.file_names(), vec!["store.blk".to_string(), "store.blob".to_string()]);
        assert_eq!(env.file_len("store.blob"), 7, "a file's stat is its visible bytes");
        let trace = env.take_trace();
        assert!(trace.iter().any(
            |e| matches!(e, IoEvent::Write { file, offset, .. } if file == "store.blob" && *offset == 0)
        ));
        assert!(trace
            .iter()
            .any(|e| matches!(e, IoEvent::Sync { file, flushed } if file == "store.blob" && *flushed == 1)));
        assert!(env.remove_file("store.blob").unwrap());
        assert!(!env.remove_file("store.blob").unwrap(), "already gone");
        assert!(env.remove_file("store.blk").unwrap(), "one removal covers block files too");
        assert!(env.file_names().is_empty());
        assert!(env.open_file("store.blob").unwrap().is_none());
    }

    /// A block-file handle keeps reading and writing its inode after the
    /// name is unlinked — durably — and a new file takes the name, as an
    /// open fd does; a power cycle, which no process survives, drops the
    /// unnamed inode.
    #[test]
    fn a_disk_handle_follows_its_inode_past_the_unlink_of_its_name() {
        let env = SimEnv::new();
        let mut d = create_blocks(&env, "level-1.blk");
        let id = d.allocate().unwrap();
        d.write(id, &item_block(4, 1, 10)).unwrap();
        d.sync().unwrap();
        env.sync_dir("").unwrap();
        assert!(env.remove_file("level-1.blk").unwrap());
        env.sync_dir("").unwrap();
        assert!(env.file_names().is_empty());
        assert!(open_blocks(&env, "level-1.blk").is_err(), "the name is gone");
        assert_eq!(d.read(id).unwrap().find(1), Some(10), "the handle reads on");
        let fresh = create_blocks(&env, "level-1.blk");
        d.write(id, &item_block(4, 1, 11)).unwrap();
        assert_eq!(d.read(id).unwrap().find(1), Some(11), "and writes its own inode");
        assert_eq!(fresh.slots(), 0);
        assert_eq!(env.file_len("level-1.blk"), 0, "the new file is not the old inode");
        env.power_cycle();
        assert!(matches!(d.read(id), Err(ExtMemError::Corrupt(_))), "gone with the process");
    }

    /// A created name is lost without `sync_dir` for some crash seed —
    /// even when the file's own content was synced — and survives every
    /// seed with it.
    #[test]
    fn a_created_name_is_durable_only_after_its_directory_syncs() {
        let mut lost = 0;
        for seed in 0..16u64 {
            let env = SimEnv::new();
            let mut f = env.create_file("d/NEW").unwrap();
            f.append(b"synced content").unwrap();
            f.sync().unwrap();
            crash(&env, seed);
            match env.read_file("d/NEW").unwrap() {
                Some(img) => assert_eq!(img, b"synced content"),
                None => {
                    lost += 1;
                    assert!(labels(&env.take_trace()).contains(&"crash-undo file-create d/NEW"));
                }
            }
            let env = SimEnv::new();
            durable_file(&env, "d/NEW");
            crash(&env, seed);
            assert!(env.read_file("d/NEW").unwrap().is_some(), "dir-synced name survives");
        }
        assert!(lost > 0, "a synced file whose dirent was never synced can vanish");
    }

    /// `rename` is atomic and dir-sync-durable: after a crash the target
    /// names the whole old file or the whole new one, the source exists
    /// exactly when the rename was lost, and both outcomes occur.
    #[test]
    fn rename_is_never_observed_half_done() {
        let (mut kept, mut reverted) = (0, 0);
        for seed in 0..16u64 {
            let env = SimEnv::new();
            let mut old = durable_file(&env, "MANIFEST");
            old.append(b"old").unwrap();
            old.sync().unwrap();
            let mut tmp = durable_file(&env, "MANIFEST.tmp");
            tmp.append(b"new").unwrap();
            tmp.sync().unwrap();
            env.rename_file("MANIFEST.tmp", "MANIFEST").unwrap();
            assert_eq!(env.read_file("MANIFEST").unwrap().unwrap(), b"new");
            assert_eq!(contents(&old), b"old", "an open handle follows its file");
            crash(&env, seed);
            let target = env.read_file("MANIFEST").unwrap().unwrap();
            let source = env.read_file("MANIFEST.tmp").unwrap();
            if target == b"new" {
                kept += 1;
                assert_eq!(source, None);
            } else {
                reverted += 1;
                assert_eq!(target, b"old");
                assert_eq!(source.unwrap(), b"new");
            }
            // With the directory synced the rename always survives.
            let env = SimEnv::new();
            durable_file(&env, "MANIFEST");
            durable_file(&env, "MANIFEST.tmp").append(b"new").unwrap();
            env.rename_file("MANIFEST.tmp", "MANIFEST").unwrap();
            env.sync_dir("").unwrap();
            crash(&env, seed);
            assert_eq!(env.read_file("MANIFEST.tmp").unwrap(), None);
        }
        assert!(kept > 0 && reverted > 0, "both outcomes occur: {kept}/{reverted}");
    }

    /// Un-synced namespace operations survive as a prefix, per
    /// directory: a later one never lands without every earlier one —
    /// byte files and block files in one order. A block file created
    /// since the last dir-sync can vanish whole, synced content and all;
    /// one unlinked since can come back, holding what it had synced.
    #[test]
    fn undurable_namespace_ops_survive_as_a_prefix() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            let env = SimEnv::new();
            durable_file(&env, "a/OLD");
            let mut old = create_blocks(&env, "a/old.blk");
            let id = old.allocate().unwrap();
            old.write(id, &item_block(4, 1, 10)).unwrap();
            old.sync().unwrap();
            env.sync_dir("a/").unwrap();
            old.write(id, &item_block(4, 1, 99)).unwrap(); // unsynced
            drop(old);
            env.create_file("a/ONE").unwrap();
            assert!(env.remove_file("a/OLD").unwrap());
            let mut new = create_blocks(&env, "a/new.blk");
            let fresh = new.allocate().unwrap();
            new.write(fresh, &item_block(4, 2, 20)).unwrap();
            new.sync().unwrap();
            assert!(env.remove_file("a/old.blk").unwrap());
            env.create_file("b/OTHER").unwrap();
            crash(&env, seed);
            let has = |n: &str| env.file_names().iter().any(|f| f == n);
            let state = (has("a/ONE"), !has("a/OLD"), has("a/new.blk"), !has("a/old.blk"));
            assert!(
                matches!(
                    state,
                    (false, false, false, false)
                        | (true, false, false, false)
                        | (true, true, false, false)
                        | (true, true, true, false)
                        | (true, true, true, true)
                ),
                "seed {seed}: not a prefix: {state:?}"
            );
            if state.2 {
                let mut new = open_blocks(&env, "a/new.blk").unwrap();
                assert_eq!(new.read(fresh).unwrap().find(2), Some(20), "synced under a kept name");
            }
            if !state.3 {
                let mut old = open_blocks(&env, "a/old.blk").unwrap();
                assert_eq!(old.read(id).unwrap().find(1), Some(10), "back as it was synced");
            }
            seen.insert(state);
        }
        assert_eq!(seen.len(), 5, "every prefix length occurs: {seen:?}");
    }

    /// A lifecycle with every kind of op: creates and appends, synced and
    /// not, a rename over a file, unlinks and directory syncs, reads.
    fn churn(env: &SimEnv) -> Result<()> {
        let mut log = env.create_file("d/LOG")?;
        log.append(b"synced")?;
        log.sync()?;
        env.sync_dir("d/")?;
        log.append(b" and not")?;
        let mut tmp = env.create_file("d/NEW.tmp")?;
        tmp.append(b"new")?;
        tmp.sync()?;
        env.rename_file("d/NEW.tmp", "d/LOG")?;
        log.read_at(0, &mut [0; 6])?;
        log.append(b" still")?;
        let mut blocks = env.create_file("d/level-1.blk")?;
        blocks.set_len(64)?;
        blocks.write_at(8, b"block")?;
        env.remove_file("d/level-1.blk")?;
        env.sync_dir("d/")?;
        env.read_file("d/LOG")?;
        env.create_file("e/OTHER")?.append(b"other")
    }

    /// What a machine holds: its clock, then every name and its bytes.
    fn held(env: &SimEnv) -> (u64, Vec<(String, Vec<u8>)>) {
        let clock = env.ops();
        let files = env.file_names().into_iter().map(|f| (env.read_file(&f), f));
        (clock, files.map(|(bytes, f)| (f, bytes.unwrap().unwrap())).collect())
    }

    /// Every crash state the driver forks from one run — at every index,
    /// under two lotteries, and past the run's end — is the state a fresh
    /// machine re-run crashed there holds after its power cycle: every
    /// name, every byte, the clock and what the power cycle undid. A
    /// crash before a read forks the state the crash before it does.
    #[test]
    fn sweep_crashes_forks_what_a_re_run_leaves() {
        let clean = SimEnv::new();
        churn(&clean).unwrap();
        let (end, ops) = (clean.ops(), clean.take_trace());
        let crashes: Vec<(u64, u64)> = (0..end + 2).flat_map(|k| [(k, k), (k, !k)]).collect();
        let (env, mut forked) = (SimEnv::new(), Vec::new());
        let out = env.sweep_crashes(
            crashes.clone(),
            || churn(&env),
            |crash| {
                let trace = crash.env.take_trace();
                forked.push((crash.at, crash.seed, crash.state, trace, held(&crash.env)));
            },
        );
        out.unwrap();
        assert_eq!(forked.len(), crashes.len());
        let mut undone = 0;
        for (at, seed, _, trace, held_then) in &forked {
            let rerun = SimEnv::new();
            rerun.set_plan(FaultPlan::crash(*at, *seed));
            assert_eq!(churn(&rerun).is_err(), *at < end);
            rerun.power_cycle();
            assert!(rerun.take_trace().ends_with(trace), "crash at {at}: the power cycle");
            assert_eq!(held(&rerun), *held_then, "crash at {at}, seed {seed}");
            undone += usize::from(labels(trace).iter().any(|l| l.starts_with("crash-undo")));
        }
        assert!(undone > 0, "some crash reverts a namespace operation");
        let state = |k: u64| forked.iter().find(|f| f.0 == k).expect("forked").2;
        let read = |op: &IoEvent| match op {
            IoEvent::Meta { label, .. } => label.starts_with("file-read"),
            op => matches!(op, IoEvent::ReadAt { .. }),
        };
        assert_eq!(ops.iter().filter(|op| read(op)).count(), 2);
        for k in 1..end {
            let op = &ops[k as usize - 1];
            assert_eq!(state(k) == state(k - 1), read(op), "after {op:?}");
        }
    }
}
