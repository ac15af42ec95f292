//! Deterministic crash simulation: a storage environment whose unsynced
//! writes are volatile, driven by a seeded [`FaultPlan`], recording a
//! full I/O trace for replay.
//!
//! ## The machine model
//!
//! A [`SimEnv`] is one simulated machine: named block files (each served
//! through a [`SimDisk`] handle), a small metadata namespace (manifests,
//! markers), an exclusive store lock, and a single global **I/O clock**
//! that every operation ticks. The clock index is the coordinate system
//! of the whole crate: fault plans name indices, the trace records them,
//! and a crash "at index k" means ops `0..k` happened and op `k` did not.
//!
//! Durability is modeled the way the store's own protocol assumes it:
//!
//! * **Block writes are volatile until `sync`.** Each file keeps a
//!   durable image (the state at its last completed sync) plus an
//!   overlay of unsynced writes. Reads see the overlay (a process reads
//!   its own page cache); a crash discards it.
//! * **File growth is durable immediately** (zero-filled slots, exactly
//!   like `FileDisk`'s `set_len` extension — an all-zero slot decodes as
//!   an empty block).
//! * **Metadata ops are atomic and durable at their index.** This is
//!   the contract the store's media layer must honor, not an optimism:
//!   the real directory media fsyncs both the manifest rename and the
//!   clean-marker unlink (a lost unlink would resurrect trust in a
//!   stale manifest — the one direction a lost metadata op is *not*
//!   recoverable).
//! * **At a power cycle**, slots below the synced high-water mark revert
//!   exactly to their durable image, and never-synced slots (allocated
//!   since the last sync) independently keep, lose, or hold a **torn**
//!   image of their unsynced content, chosen by the plan's crash seed —
//!   block-granular write-survival for exactly the slots whose content
//!   no committed manifest may reference.
//!
//! What this deliberately does **not** model is partial survival of
//! unsynced rewrites of previously synced blocks (a power loss tearing
//! the middle of an in-place level merge): the store's guarantees are
//! sync-point guarantees, and its in-place merges rewrite referenced
//! blocks between syncs, so sub-sync write-back reordering is outside
//! the protocol's contract. The torture harness documents that boundary
//! instead of silently assuming it away.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::backend::{PersistentBackend, SlotAllocator, StorageBackend};
use crate::blob::BlobFile;
use crate::block::{Block, BlockId};
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
    /// Seeds the write-survival lottery for never-synced slots at the
    /// power cycle following a crash.
    pub crash_seed: u64,
    /// Allow torn images (half new bytes, half garbage) among the
    /// never-synced slots that the lottery lets survive.
    pub tear: bool,
}

impl FaultPlan {
    /// A plan that crashes at I/O index `k`, with write survival driven
    /// by `seed` and torn blocks enabled.
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
    /// A block read.
    Read {
        /// File the block lives in.
        file: String,
        /// Slot index.
        id: u64,
    },
    /// A block write; `fingerprint` folds the encoded bytes.
    Write {
        /// File the block lives in.
        file: String,
        /// Slot index.
        id: u64,
        /// FNV-1a of the encoded block image.
        fingerprint: u64,
    },
    /// An allocation of `n` consecutive slots starting at `base`.
    Alloc {
        /// File the slots live in.
        file: String,
        /// First allocated slot.
        base: u64,
        /// Number of slots.
        n: u64,
    },
    /// A slot returned to the allocator.
    Free {
        /// File the slot lives in.
        file: String,
        /// Slot index.
        id: u64,
    },
    /// A sync barrier: `flushed` overlay entries became durable.
    Sync {
        /// File that was synced.
        file: String,
        /// Unsynced writes made durable by this barrier.
        flushed: u64,
    },
    /// A metadata operation (manifest commit, marker write/clear, file
    /// create/open/remove, lock acquisition, power cycle).
    Meta {
        /// What happened, e.g. `"manifest-write MANIFEST"`.
        label: String,
        /// Content fingerprint where meaningful, 0 otherwise.
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

/// One simulated block file: durable image + unsynced overlay.
struct SimFileState {
    block_bytes: usize,
    block_capacity: usize,
    /// High-water mark (growth is durable immediately, zero-filled).
    slots: u64,
    /// High-water mark at the last completed sync: slots at or above it
    /// have never held synced content, so the crash lottery may keep,
    /// drop, or tear their unsynced images.
    synced_slots: u64,
    /// Synced images by slot (absent = zeros = empty block).
    durable: BTreeMap<u64, Vec<u8>>,
    /// Unsynced writes by slot; discarded (modulo the lottery) at crash.
    overlay: BTreeMap<u64, Vec<u8>>,
}

/// One simulated append-only blob file: a durable prefix plus the
/// unsynced appends made since the last sync barrier, kept append-
/// granular so the crash lottery can keep a *prefix* of them (appends
/// reach the platter in order) and tear the first casualty.
struct SimBlobState {
    /// Bytes durable as of the last completed sync.
    durable: Vec<u8>,
    /// Unsynced appends, in order; discarded (modulo the prefix-survival
    /// lottery) at a crash.
    tail: Vec<Vec<u8>>,
}

impl SimBlobState {
    fn visible_len(&self) -> u64 {
        self.durable.len() as u64 + self.tail.iter().map(|t| t.len() as u64).sum::<u64>()
    }
}

/// The machine behind a [`SimEnv`] handle.
struct SimEnvState {
    clock: u64,
    plan: FaultPlan,
    crashed: bool,
    tracing: bool,
    trace: Vec<IoEvent>,
    files: BTreeMap<String, SimFileState>,
    blobs: BTreeMap<String, SimBlobState>,
    meta: BTreeMap<String, Vec<u8>>,
    /// Held store locks by name (`""` is the machine's default store; a
    /// sharded service locks one name per shard), each mapped to the
    /// epoch of its current acquisition.
    locks: BTreeMap<String, u64>,
    /// Monotone acquisition counter: each successful [`SimEnv::lock`]
    /// stamps the owner with a fresh epoch, so a stale handle released
    /// after a power cycle cannot free a newer owner's lock.
    lock_epoch: u64,
    power_cycles: u64,
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
        SimEnv(Arc::new(Mutex::new(SimEnvState {
            clock: 0,
            plan: FaultPlan::default(),
            crashed: false,
            tracing: true,
            trace: Vec::new(),
            files: BTreeMap::new(),
            blobs: BTreeMap::new(),
            meta: BTreeMap::new(),
            locks: BTreeMap::new(),
            lock_epoch: 0,
            power_cycles: 0,
        })))
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

    /// Simulates the machine coming back up after a crash: applies the
    /// block-granular write-survival policy (slots below each file's
    /// synced high-water mark revert exactly to their durable image;
    /// never-synced slots keep, lose, or hold a torn copy of their
    /// unsynced content, chosen by the plan's `crash_seed`), clears the
    /// crash flag and the store lock (the kernel releases a dead
    /// process's lock), and resets the plan to fault-free so recovery
    /// runs clean. The I/O clock and the trace carry on — a replay is
    /// one timeline.
    pub fn power_cycle(&self) {
        let mut st = self.state();
        let st = &mut *st;
        let plan = std::mem::take(&mut st.plan);
        let mut rng = plan.crash_seed ^ st.power_cycles.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for file in st.files.values_mut() {
            let overlay = std::mem::take(&mut file.overlay);
            for (id, bytes) in overlay {
                if id < file.synced_slots {
                    // Synced content survives exactly; the unsynced
                    // rewrite is dropped whole.
                    continue;
                }
                match splitmix_next(&mut rng) % 3 {
                    0 => {
                        // The write-back cache got this one out whole.
                        file.durable.insert(id, bytes);
                    }
                    1 if plan.tear => {
                        // Torn mid-block: half the new bytes, garbage
                        // tail. No committed manifest references a
                        // never-synced slot, so recovery must never
                        // need to decode this.
                        let mut torn = bytes;
                        let half = torn.len() / 2;
                        for b in &mut torn[half..] {
                            *b = 0xFF;
                        }
                        file.durable.insert(id, torn);
                    }
                    _ => {} // dropped: the slot reads back as zeros
                }
            }
        }
        for blob in st.blobs.values_mut() {
            // Appends reach the platter in order, so survival is
            // prefix-shaped: each unsynced append in turn survives
            // whole, tears (half its bytes then garbage — the last
            // write the head got to), or is lost — and the first
            // casualty ends the prefix.
            let tail = std::mem::take(&mut blob.tail);
            for bytes in tail {
                match splitmix_next(&mut rng) % 3 {
                    0 => blob.durable.extend_from_slice(&bytes),
                    1 if plan.tear => {
                        let half = bytes.len() / 2;
                        blob.durable.extend_from_slice(&bytes[..half]);
                        blob.durable.extend(std::iter::repeat_n(0xFF, bytes.len() - half));
                        break;
                    }
                    _ => break,
                }
            }
        }
        st.crashed = false;
        st.locks.clear();
        st.power_cycles += 1;
        if st.tracing {
            st.trace
                .push(IoEvent::Meta { label: "power-cycle".into(), fingerprint: st.power_cycles });
        }
    }

    /// Acquires the machine's default store lock (one I/O op) and
    /// returns this acquisition's epoch. Errors while another live
    /// handle holds it — the simulated twin of the directory `LOCK`'s
    /// fail-fast behavior. Release with [`SimEnv::unlock`], quoting the
    /// epoch.
    pub fn lock(&self) -> Result<u64> {
        self.lock_named("")
    }

    /// [`SimEnv::lock`] for the store named `name`: one machine hosts
    /// many independent stores (a sharded service locks one name per
    /// shard), each with its own fail-fast exclusive lock. Release with
    /// [`SimEnv::unlock_named`], quoting the name and epoch.
    pub fn lock_named(&self, name: &str) -> Result<u64> {
        self.guarded(
            || IoEvent::Meta { label: format!("lock {name}"), fingerprint: 0 },
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

    /// Releases the default store lock **if** `epoch` still names the
    /// current acquisition. Infallible and un-clocked: the kernel
    /// releases a dead process's lock without that process doing I/O.
    /// The epoch check makes the release owner-scoped, like an OS lock
    /// dying with its own descriptor: a crashed handle dropped *after* a
    /// power cycle (which already released the lock) must not free a
    /// newer owner's acquisition.
    pub fn unlock(&self, epoch: u64) {
        self.unlock_named("", epoch);
    }

    /// [`SimEnv::unlock`] for the store named `name`.
    pub fn unlock_named(&self, name: &str, epoch: u64) {
        let mut st = self.state();
        if st.locks.get(name) == Some(&epoch) {
            st.locks.remove(name);
        }
    }

    /// Reads metadata file `name` (one I/O op); `None` when absent.
    pub fn meta_read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        self.guarded(
            || IoEvent::Meta { label: format!("meta-read {name}"), fingerprint: 0 },
            |st| Ok(st.meta.get(name).cloned()),
        )
    }

    /// Atomically writes metadata file `name` (one I/O op, durable at
    /// its index — the simulated fsync'd tmp-plus-rename).
    pub fn meta_write(&self, name: &str, bytes: &[u8]) -> Result<()> {
        // The fold is allocation-free, so computing it eagerly costs
        // nothing an untraced run needs to avoid; only the event's
        // String is deferred.
        let fp = fnv1a64(bytes);
        let owned = bytes.to_vec();
        self.guarded(
            || IoEvent::Meta { label: format!("meta-write {name}"), fingerprint: fp },
            move |st| {
                st.meta.insert(name.to_string(), owned);
                Ok(())
            },
        )
    }

    /// Removes metadata file `name` (one I/O op; absent is not an error,
    /// matching `remove_file` + `NotFound` tolerance on the real path).
    pub fn meta_remove(&self, name: &str) -> Result<()> {
        self.guarded(
            || IoEvent::Meta { label: format!("meta-remove {name}"), fingerprint: 0 },
            |st| {
                st.meta.remove(name);
                Ok(())
            },
        )
    }

    /// Creates (truncating) block file `name` and returns a handle to it
    /// (one I/O op).
    pub fn create_disk(&self, name: &str, block_capacity: usize) -> Result<SimDisk> {
        assert!(block_capacity > 0, "block capacity must be positive");
        let block_bytes = Block::encoded_len(block_capacity);
        self.guarded(
            || IoEvent::Meta { label: format!("file-create {name}"), fingerprint: 0 },
            |st| {
                st.files.insert(
                    name.to_string(),
                    SimFileState {
                        block_bytes,
                        block_capacity,
                        slots: 0,
                        synced_slots: 0,
                        durable: BTreeMap::new(),
                        overlay: BTreeMap::new(),
                    },
                );
                Ok(())
            },
        )?;
        Ok(SimDisk::handle(self.clone(), name, block_capacity, 0))
    }

    /// Opens existing block file `name` **without truncating**; every
    /// slot is initially live, exactly like `FileDisk::open` (one I/O
    /// op). Restore the persisted free list to resume allocation.
    pub fn open_disk(&self, name: &str, block_capacity: usize) -> Result<SimDisk> {
        assert!(block_capacity > 0, "block capacity must be positive");
        let slots = self.guarded(
            || IoEvent::Meta { label: format!("file-open {name}"), fingerprint: 0 },
            |st| match st.files.get(name) {
                Some(f) if f.block_capacity == block_capacity => Ok(f.slots),
                Some(f) => Err(ExtMemError::BadConfig(format!(
                    "sim file {name} was created with block capacity {}, caller asked for \
                     {block_capacity}",
                    f.block_capacity
                ))),
                None => Err(ExtMemError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("sim file {name} does not exist"),
                ))),
            },
        )?;
        Ok(SimDisk::handle(self.clone(), name, block_capacity, slots))
    }

    /// Removes block file `name` (one I/O op; absent is not an error).
    pub fn remove_file(&self, name: &str) -> Result<()> {
        self.guarded(
            || IoEvent::Meta { label: format!("file-remove {name}"), fingerprint: 0 },
            |st| {
                st.files.remove(name);
                Ok(())
            },
        )
    }

    /// Names of the block files currently in the namespace (diagnostic
    /// listing, un-clocked).
    pub fn file_names(&self) -> Vec<String> {
        self.state().files.keys().cloned().collect()
    }

    /// Size in bytes file `name` would report to a `stat` (slots × slot
    /// size); 0 when absent. Un-clocked diagnostic.
    pub fn file_len(&self, name: &str) -> u64 {
        let st = self.state();
        st.files.get(name).map_or(0, |f| f.slots * f.block_bytes as u64)
    }

    /// Creates (truncating) append-only blob file `name` and returns a
    /// handle to it (one I/O op) — the blob-file namespace every
    /// torture/crash sweep drives, so torn appends are covered by the
    /// same fault plans as block files.
    pub fn create_blob(&self, name: &str) -> Result<SimBlob> {
        self.guarded(
            || IoEvent::Meta { label: format!("file-create {name}"), fingerprint: 0 },
            |st| {
                st.blobs.insert(
                    name.to_string(),
                    SimBlobState { durable: Vec::new(), tail: Vec::new() },
                );
                Ok(())
            },
        )?;
        Ok(SimBlob { env: self.clone(), name: name.to_string() })
    }

    /// Opens existing blob file `name` without truncating (one I/O op).
    pub fn open_blob(&self, name: &str) -> Result<SimBlob> {
        self.guarded(
            || IoEvent::Meta { label: format!("file-open {name}"), fingerprint: 0 },
            |st| match st.blobs.get(name) {
                Some(_) => Ok(()),
                None => Err(ExtMemError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("sim blob {name} does not exist"),
                ))),
            },
        )?;
        Ok(SimBlob { env: self.clone(), name: name.to_string() })
    }

    /// Removes blob file `name` (one I/O op; absent is not an error).
    pub fn remove_blob(&self, name: &str) -> Result<()> {
        self.guarded(
            || IoEvent::Meta { label: format!("file-remove {name}"), fingerprint: 0 },
            |st| {
                st.blobs.remove(name);
                Ok(())
            },
        )
    }

    /// Names of the blob files currently in the namespace (diagnostic
    /// listing, un-clocked).
    pub fn blob_names(&self) -> Vec<String> {
        self.state().blobs.keys().cloned().collect()
    }

    /// Visible length of blob `name` in bytes (durable prefix plus
    /// unsynced appends — what a `stat` from this process sees); 0 when
    /// absent. Un-clocked diagnostic.
    pub fn blob_len(&self, name: &str) -> u64 {
        self.state().blobs.get(name).map_or(0, |b| b.visible_len())
    }

    /// Appends `bytes` to blob `name` (one I/O op, volatile until
    /// [`SimEnv::blob_sync`]). The trace records it as a `Write` whose
    /// `id` is the append's byte offset.
    pub fn blob_append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let fp = fnv1a64(bytes);
        let owned = bytes.to_vec();
        // The event is built before the apply closure runs (same pattern
        // as the sync barrier's flushed count): peek the offset up front.
        let offset = self.state().blobs.get(name).map_or(0, |b| b.visible_len());
        self.guarded(
            || IoEvent::Write { file: name.to_string(), id: offset, fingerprint: fp },
            move |st| {
                let b = st
                    .blobs
                    .get_mut(name)
                    .ok_or_else(|| ExtMemError::Corrupt(format!("sim blob {name} vanished")))?;
                b.tail.push(owned);
                Ok(())
            },
        )
    }

    /// Sync barrier for blob `name` (one I/O op): every prior append
    /// becomes durable.
    pub fn blob_sync(&self, name: &str) -> Result<()> {
        let flushed = {
            let st = self.state();
            st.blobs.get(name).map_or(0, |b| b.tail.len() as u64)
        };
        self.guarded(
            || IoEvent::Sync { file: name.to_string(), flushed },
            |st| {
                let b = st
                    .blobs
                    .get_mut(name)
                    .ok_or_else(|| ExtMemError::Corrupt(format!("sim blob {name} vanished")))?;
                for chunk in b.tail.drain(..) {
                    b.durable.extend_from_slice(&chunk);
                }
                Ok(())
            },
        )
    }

    /// Reads the whole of blob `name` (one I/O op) — a process reads its
    /// own unsynced appends, so the image is durable prefix + tail.
    pub fn blob_read_all(&self, name: &str) -> Result<Vec<u8>> {
        self.guarded(
            || IoEvent::Meta { label: format!("blob-read {name}"), fingerprint: 0 },
            |st| {
                let b = st
                    .blobs
                    .get(name)
                    .ok_or_else(|| ExtMemError::Corrupt(format!("sim blob {name} vanished")))?;
                let mut out = b.durable.clone();
                for chunk in &b.tail {
                    out.extend_from_slice(chunk);
                }
                Ok(out)
            },
        )
    }

    /// Truncates blob `name` to `len` visible bytes (one I/O op) —
    /// recovery's crash-tail discard. Truncating into the durable prefix
    /// is itself durable (like `set_len`); a cut inside the unsynced
    /// tail trims the volatile appends.
    pub fn blob_truncate(&self, name: &str, len: u64) -> Result<()> {
        self.guarded(
            || IoEvent::Meta { label: format!("blob-truncate {name}"), fingerprint: len },
            |st| {
                let b = st
                    .blobs
                    .get_mut(name)
                    .ok_or_else(|| ExtMemError::Corrupt(format!("sim blob {name} vanished")))?;
                let durable_len = b.durable.len() as u64;
                if len <= durable_len {
                    b.durable.truncate(len as usize);
                    b.tail.clear();
                } else {
                    let mut keep = len - durable_len;
                    let mut trimmed = Vec::new();
                    for chunk in b.tail.drain(..) {
                        if keep == 0 {
                            break;
                        }
                        let take = (chunk.len() as u64).min(keep) as usize;
                        keep -= take as u64;
                        trimmed.push(chunk[..take].to_vec());
                    }
                    b.tail = trimmed;
                }
                Ok(())
            },
        )
    }

    /// The clock-tick-plus-fault-check wrapper every operation goes
    /// through: assigns the op its index, consults the plan, applies
    /// `apply` on success, and records the event. `event` is a closure
    /// so untraced runs (the exhaustive sweeps) pay no per-op String
    /// allocation for events that would be dropped anyway.
    fn guarded<T>(
        &self,
        event: impl FnOnce() -> IoEvent,
        apply: impl FnOnce(&mut SimEnvState) -> Result<T>,
    ) -> Result<T> {
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
        if st.tracing {
            st.trace.push(event());
        }
        Ok(out)
    }
}

/// A crash-simulation storage backend: block I/O against one named file
/// of a [`SimEnv`], with `FileDisk`-identical allocator policy (LIFO
/// recycling, lowest-first-fit contiguous runs, deferred-recycling
/// quarantine) so block ids stay backend-deterministic.
///
/// The allocator state lives in the handle — exactly as `FileDisk` keeps
/// it in process memory — so a crash (dropping the handle) loses it, and
/// recovery must rebuild it from persisted metadata or a region walk.
pub struct SimDisk {
    env: SimEnv,
    file: String,
    block_capacity: usize,
    block_bytes: usize,
    /// The shared allocator state machine — the same implementation
    /// `FileDisk` runs, so the torture harness certifies crash-safety of
    /// exactly the allocator the real store uses. Kept in the handle
    /// (not the env), exactly as `FileDisk` keeps it in process memory:
    /// a crash loses it, and recovery rebuilds it from persisted
    /// metadata or a region walk. Its high-water mark stays in step with
    /// the file's, which this handle alone mutates while it lives.
    alloc: SlotAllocator,
}

impl SimDisk {
    /// A standalone disk on a fresh private [`SimEnv`] — the drop-in
    /// replacement for an in-memory test backend when the test wants a
    /// fault schedule (configure it via [`SimDisk::env`]).
    pub fn new(block_capacity: usize) -> Self {
        SimEnv::new().create_disk("sim.blk", block_capacity).expect("fresh env cannot fault")
    }

    fn handle(env: SimEnv, file: &str, block_capacity: usize, slots: u64) -> Self {
        SimDisk {
            env,
            file: file.to_string(),
            block_capacity,
            block_bytes: Block::encoded_len(block_capacity),
            alloc: SlotAllocator::with_all_live(slots),
        }
    }

    /// The environment this disk lives in (fault plan, clock, trace).
    pub fn env(&self) -> SimEnv {
        self.env.clone()
    }

    fn check_live(&self, id: BlockId) -> Result<()> {
        if self.alloc.is_dead(id.raw()) {
            return Err(ExtMemError::BadBlockId(id));
        }
        Ok(())
    }

    /// Runs `apply` against this disk's file under the environment's
    /// clock-and-fault guard.
    fn file_op<T>(
        &self,
        event: impl FnOnce() -> IoEvent,
        apply: impl FnOnce(&mut SimFileState) -> Result<T>,
    ) -> Result<T> {
        let name = &self.file;
        self.env.guarded(event, |st| {
            let f = st
                .files
                .get_mut(name)
                .ok_or_else(|| ExtMemError::Corrupt(format!("sim file {name} vanished")))?;
            apply(f)
        })
    }
}

impl StorageBackend for SimDisk {
    fn block_capacity(&self) -> usize {
        self.block_capacity
    }

    fn read(&mut self, id: BlockId) -> Result<Block> {
        self.check_live(id)?;
        let cap = self.block_capacity;
        self.file_op(
            || IoEvent::Read { file: self.file.clone(), id: id.raw() },
            |f| {
                match f.overlay.get(&id.raw()).or_else(|| f.durable.get(&id.raw())) {
                    Some(bytes) => Block::decode_from(cap, bytes),
                    // Absent image = zero-filled slot = a valid empty block.
                    None => Ok(Block::new(cap)),
                }
            },
        )
    }

    fn write(&mut self, id: BlockId, block: &Block) -> Result<()> {
        self.check_live(id)?;
        debug_assert_eq!(block.capacity(), self.block_capacity);
        let mut buf = vec![0u8; self.block_bytes];
        block.encode_into(&mut buf);
        // Allocation-free fold, computed eagerly; the event String is
        // deferred to traced runs.
        let fp = fnv1a64(&buf);
        self.file_op(
            || IoEvent::Write { file: self.file.clone(), id: id.raw(), fingerprint: fp },
            move |f| {
                f.overlay.insert(id.raw(), buf);
                Ok(())
            },
        )
    }

    fn allocate(&mut self) -> Result<BlockId> {
        let idx = match self.alloc.peek_recycle() {
            Some(idx) => {
                // Recycled slot: reset the stale image (a volatile write,
                // like FileDisk's header reset) *before* the allocator
                // state changes, so a faulted op leaves the slot safely
                // on the free list.
                let zeros = vec![0u8; self.block_bytes];
                self.file_op(
                    || IoEvent::Alloc { file: self.file.clone(), base: idx, n: 1 },
                    move |f| {
                        f.overlay.insert(idx, zeros);
                        Ok(())
                    },
                )?;
                self.alloc.commit_recycle(idx);
                idx
            }
            None => {
                let idx = self.alloc.slots();
                self.file_op(
                    || IoEvent::Alloc { file: self.file.clone(), base: idx, n: 1 },
                    |f| {
                        // Growth is durable immediately (zero-filled).
                        f.slots = idx + 1;
                        Ok(())
                    },
                )?;
                self.alloc.commit_grow(1)
            }
        };
        Ok(BlockId(idx))
    }

    fn allocate_contiguous(&mut self, n: usize) -> Result<BlockId> {
        // Identical recycling policy to FileDisk/MemDisk: the lowest
        // committed free run of ≥ n wins, reset by one (volatile) zero
        // fill; otherwise grow.
        if let Some(base) = self.alloc.peek_run(n) {
            let end = base + n as u64;
            let bytes = self.block_bytes;
            self.file_op(
                || IoEvent::Alloc { file: self.file.clone(), base, n: n as u64 },
                move |f| {
                    for id in base..end {
                        f.overlay.insert(id, vec![0u8; bytes]);
                    }
                    Ok(())
                },
            )?;
            self.alloc.commit_run(base, n);
            return Ok(BlockId(base));
        }
        let base = self.alloc.slots();
        let new_slots = base + n as u64;
        self.file_op(
            || IoEvent::Alloc { file: self.file.clone(), base, n: n as u64 },
            |f| {
                f.slots = new_slots;
                Ok(())
            },
        )?;
        Ok(BlockId(self.alloc.commit_grow(n as u64)))
    }

    fn free(&mut self, id: BlockId) -> Result<()> {
        self.check_live(id)?;
        self.file_op(|| IoEvent::Free { file: self.file.clone(), id: id.raw() }, |_| Ok(()))?;
        self.alloc.release(id.raw());
        Ok(())
    }

    fn live_blocks(&self) -> u64 {
        self.alloc.live()
    }

    fn sync(&mut self) -> Result<()> {
        // The event is built before the apply closure runs, so read the
        // about-to-be-flushed count up front (nothing else can touch the
        // overlay between the peek and the barrier — the handle is the
        // file's only writer).
        let flushed = {
            let st = self.env.state();
            st.files.get(&self.file).map_or(0, |f| f.overlay.len() as u64)
        };
        self.file_op(
            || IoEvent::Sync { file: self.file.clone(), flushed },
            |f| {
                let overlay = std::mem::take(&mut f.overlay);
                for (id, bytes) in overlay {
                    f.durable.insert(id, bytes);
                }
                f.synced_slots = f.slots;
                Ok(())
            },
        )
    }
}

/// The persistence surface — the same protocol as `FileDisk`'s inherent
/// methods, so a store generic over [`PersistentBackend`] behaves
/// identically on both.
impl PersistentBackend for SimDisk {
    fn slots(&self) -> u64 {
        self.alloc.slots()
    }

    fn free_list(&self) -> Vec<u64> {
        self.alloc.free_list()
    }

    fn free_count(&self) -> usize {
        self.alloc.free_count()
    }

    fn set_defer_recycling(&mut self, defer: bool) {
        self.alloc.set_defer_recycling(defer);
    }

    fn commit_frees(&mut self) {
        self.alloc.commit_frees();
    }

    fn restore_free_list(&mut self, free: Vec<u64>) -> Result<()> {
        self.alloc.restore_free_list(free)
    }
}

/// A handle to one named blob file of a [`SimEnv`] — the crash-faithful
/// [`BlobFile`] a `BlobLog` runs on under torture: appends are volatile
/// until sync, and a power cycle applies the prefix-survival lottery
/// (keep / tear / drop) to the unsynced tail.
pub struct SimBlob {
    env: SimEnv,
    name: String,
}

impl SimBlob {
    /// The environment this blob lives in (fault plan, clock, trace).
    pub fn env(&self) -> SimEnv {
        self.env.clone()
    }
}

impl BlobFile for SimBlob {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.env.blob_append(&self.name, bytes)
    }

    fn sync(&mut self) -> Result<()> {
        self.env.blob_sync(&self.name)
    }

    fn len(&self) -> u64 {
        self.env.blob_len(&self.name)
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        self.env.blob_read_all(&self.name)
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        self.env.blob_truncate(&self.name, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;

    fn item_block(cap: usize, k: u64, v: u64) -> Block {
        let mut b = Block::new(cap);
        b.push(Item::new(k, v)).unwrap();
        b
    }

    #[test]
    fn round_trip_and_allocator_mirror_file_disk() {
        let mut d = SimDisk::new(4);
        let a = d.allocate().unwrap();
        let blk = d.read(a).unwrap();
        assert!(blk.is_empty());
        d.write(a, &item_block(4, 7, 70)).unwrap();
        assert_eq!(d.read(a).unwrap().find(7), Some(70));
        d.free(a).unwrap();
        assert!(d.read(a).is_err());
        let b = d.allocate().unwrap();
        assert_eq!(a, b, "LIFO recycling");
        assert!(d.read(b).unwrap().is_empty(), "recycled slot reads empty");
    }

    #[test]
    fn unsynced_writes_vanish_at_a_power_cycle_synced_ones_survive() {
        let env = SimEnv::new();
        let mut d = env.create_disk("t.blk", 4).unwrap();
        let a = d.allocate().unwrap();
        d.write(a, &item_block(4, 1, 10)).unwrap();
        d.sync().unwrap();
        d.write(a, &item_block(4, 1, 99)).unwrap(); // unsynced rewrite
        env.set_plan(FaultPlan::crash(env.ops(), 42));
        assert!(d.read(a).is_err(), "crash point fires");
        env.power_cycle();
        let mut d = env.open_disk("t.blk", 4).unwrap();
        assert_eq!(d.read(a).unwrap().find(1), Some(10), "synced image survives exactly");
    }

    #[test]
    fn never_synced_slots_survive_the_lottery_but_synced_reads_never_tear() {
        // Allocate past the synced high-water mark, write, crash: the
        // torn/kept/dropped lottery only touches those slots; slots
        // below the mark revert exactly.
        let env = SimEnv::new();
        let mut d = env.create_disk("t.blk", 4).unwrap();
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
        let mut d = env.open_disk("t.blk", 4).unwrap();
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

    #[test]
    fn trace_is_deterministic_and_content_sensitive() {
        let run = |value: u64| {
            let env = SimEnv::new();
            let mut d = env.create_disk("t.blk", 4).unwrap();
            let id = d.allocate().unwrap();
            d.write(id, &item_block(4, 1, value)).unwrap();
            d.sync().unwrap();
            env.take_trace()
        };
        assert_eq!(run(10), run(10), "same workload, identical trace");
        assert_ne!(run(10), run(11), "different written bytes, different fingerprints");
        assert!(
            run(10).iter().any(|e| matches!(e, IoEvent::Sync { flushed, .. } if *flushed == 1)),
            "the sync barrier records how many writes it made durable"
        );
    }

    #[test]
    fn lock_excludes_second_holder_until_power_cycle() {
        let env = SimEnv::new();
        let stale = env.lock().unwrap();
        assert!(env.lock().is_err(), "second live handle fails fast");
        env.power_cycle();
        let owned = env.lock().unwrap();
        // The pre-power-cycle epoch is dead: releasing it must not free
        // the new owner's lock.
        env.unlock(stale);
        assert!(env.lock().is_err(), "stale epoch cannot steal the lock");
        env.unlock(owned);
        env.lock().unwrap();
    }

    #[test]
    fn meta_files_round_trip_and_survive_crash() {
        let env = SimEnv::new();
        env.meta_write("MANIFEST", b"v1").unwrap();
        env.set_plan(FaultPlan::crash(env.ops() + 1, 0));
        env.meta_write("CLEAN", b"clean").unwrap();
        assert!(env.meta_write("MANIFEST", b"v2").is_err(), "crash point blocks the commit");
        env.power_cycle();
        assert_eq!(env.meta_read("MANIFEST").unwrap().as_deref(), Some(&b"v1"[..]));
        assert_eq!(env.meta_read("CLEAN").unwrap().as_deref(), Some(&b"clean"[..]));
        env.meta_remove("CLEAN").unwrap();
        assert_eq!(env.meta_read("CLEAN").unwrap(), None);
    }

    #[test]
    fn deferred_recycling_quarantines_until_commit() {
        let mut d = SimDisk::new(2);
        d.set_defer_recycling(true);
        let a = d.allocate().unwrap();
        d.write(a, &item_block(2, 5, 50)).unwrap();
        d.free(a).unwrap();
        assert!(d.read(a).is_err());
        let b = d.allocate().unwrap();
        assert_ne!(a, b, "quarantined slot must not be recycled");
        assert_eq!(d.free_list(), vec![a.raw()]);
        d.commit_frees();
        let c = d.allocate().unwrap();
        assert_eq!(a, c, "committed slot is recyclable");
    }

    #[test]
    fn contiguous_runs_recycle_identically_to_file_disk() {
        let mut d = SimDisk::new(2);
        let _anchor = d.allocate().unwrap();
        let ids: Vec<_> = (0..6).map(|_| d.allocate().unwrap()).collect();
        for &i in &[3usize, 1, 5, 2, 4] {
            d.free(ids[i]).unwrap();
        }
        let base = d.allocate_contiguous(5).unwrap();
        assert_eq!(base, ids[1], "the coalesced run is recycled, not the device grown");
        assert_eq!(PersistentBackend::slots(&d), 7, "no growth");
        for k in 0..5 {
            assert!(d.read(BlockId(base.raw() + k)).unwrap().is_empty());
        }
    }

    #[test]
    fn restore_free_list_rejects_bad_ids() {
        let mut d = SimDisk::new(2);
        let _ = d.allocate().unwrap();
        assert!(d.restore_free_list(vec![5]).is_err(), "out of range");
        assert!(d.restore_free_list(vec![0, 0]).is_err(), "duplicate");
        assert!(d.restore_free_list(vec![0]).is_ok());
    }

    #[test]
    fn blob_appends_are_volatile_until_sync() {
        let env = SimEnv::new();
        let mut b = env.create_blob("t.blob").unwrap();
        b.append(b"synced").unwrap();
        b.sync().unwrap();
        b.append(b" unsynced").unwrap();
        assert_eq!(b.len(), 15, "a process sees its own appends");
        env.set_plan(FaultPlan::crash(env.ops(), 3));
        assert!(b.append(b"x").is_err(), "crash point fires");
        env.power_cycle();
        let mut b = env.open_blob("t.blob").unwrap();
        assert_eq!(&b.read_all().unwrap()[..6], b"synced", "durable prefix survives exactly");
    }

    #[test]
    fn blob_crash_survival_is_prefix_shaped() {
        // Many unsynced appends, then a crash: whatever survives must be
        // a prefix of the append sequence — a later append never lands
        // without every earlier one (appends hit the platter in order).
        for seed in 0..16u64 {
            let env = SimEnv::new();
            let mut b = env.create_blob("t.blob").unwrap();
            b.append(b"AAAA").unwrap();
            b.sync().unwrap();
            for _ in 0..8 {
                b.append(b"BBBB").unwrap();
            }
            env.set_plan(FaultPlan::crash(env.ops(), seed));
            assert!(b.sync().is_err(), "crash fires at the sync");
            env.power_cycle();
            let img = env.open_blob("t.blob").unwrap().read_all().unwrap();
            assert_eq!(&img[..4], b"AAAA");
            // After the durable prefix: zero or more whole appends, then
            // optionally one torn append (4 bytes, garbage tail), then
            // nothing.
            let tail = &img[4..];
            assert!(tail.len().is_multiple_of(4) && tail.len() <= 32);
            let whole = tail.chunks(4).take_while(|c| *c == b"BBBB").count();
            if let Some(c) = tail.chunks(4).nth(whole + 1) {
                panic!("bytes after a non-intact append: {c:?}");
            }
        }
    }

    #[test]
    fn blob_truncate_discards_the_crash_tail() {
        let env = SimEnv::new();
        let mut b = env.create_blob("t.blob").unwrap();
        b.append(b"keepkeep").unwrap();
        b.sync().unwrap();
        b.append(b"crashtail").unwrap();
        b.truncate(8).unwrap();
        assert_eq!(b.read_all().unwrap(), b"keepkeep");
        // A cut inside the unsynced tail trims the volatile appends.
        b.append(b"abcdef").unwrap();
        b.truncate(11).unwrap();
        assert_eq!(b.read_all().unwrap(), b"keepkeepabc");
    }

    #[test]
    fn blob_namespace_is_disjoint_from_block_files_and_traced() {
        let env = SimEnv::new();
        let _d = env.create_disk("store.blk", 4).unwrap();
        let mut b = env.create_blob("store.blob").unwrap();
        b.append(b"payload").unwrap();
        b.sync().unwrap();
        assert_eq!(env.file_names(), vec!["store.blk".to_string()]);
        assert_eq!(env.blob_names(), vec!["store.blob".to_string()]);
        let trace = env.take_trace();
        assert!(trace.iter().any(
            |e| matches!(e, IoEvent::Write { file, id, .. } if file == "store.blob" && *id == 0)
        ));
        assert!(trace
            .iter()
            .any(|e| matches!(e, IoEvent::Sync { file, flushed } if file == "store.blob" && *flushed == 1)));
        env.remove_blob("store.blob").unwrap();
        assert!(env.blob_names().is_empty());
        assert!(env.open_blob("store.blob").is_err());
    }
}
