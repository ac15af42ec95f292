//! The storage-backend abstraction behind [`crate::Disk`].

use std::collections::{BTreeMap, HashSet};

use crate::block::{Block, BlockId};
use crate::error::Result;

/// Raw block storage: an unbounded array of fixed-capacity blocks.
///
/// The media backends are dumb — they neither count I/Os nor cache:
/// counting lives in [`crate::Disk`], so that accounting is uniform
/// across backends, and caching is a backend of its own,
/// [`crate::Cached`], which serves an inner `Disk` through an LRU pool.
pub trait StorageBackend {
    /// Block capacity in items (the model's `b`); constant per backend.
    fn block_capacity(&self) -> usize;

    /// Reads block `id` into an owned [`Block`].
    fn read(&mut self, id: BlockId) -> Result<Block>;

    /// Overwrites block `id`.
    fn write(&mut self, id: BlockId, block: &Block) -> Result<()>;

    /// Allocates a fresh (empty) block and returns its id. Freed ids may
    /// be recycled.
    fn allocate(&mut self) -> Result<BlockId>;

    /// Allocates `n` blocks with **consecutive** ids and returns the first.
    ///
    /// Contiguity is what lets a hash table compute a bucket's block
    /// address from `(base, bucket)` alone — an address function that fits
    /// in O(1) words of internal memory, as the paper's model requires —
    /// instead of keeping a per-bucket pointer table. A contiguous run of
    /// freed ids may be recycled (region frees return whole ranges, so
    /// runs are the common case); every built-in backend runs the one
    /// internal slot allocator and its lowest-first-fit policy (the
    /// `FreeRuns` interval set), so the same workload produces the same
    /// ids on every backend.
    fn allocate_contiguous(&mut self, n: usize) -> Result<BlockId>;

    /// Returns block `id` to the allocator. Reading a freed id is an error
    /// until it is re-allocated.
    fn free(&mut self, id: BlockId) -> Result<()>;

    /// Number of live (allocated) blocks.
    fn live_blocks(&self) -> u64;

    /// Flushes any OS-level buffering (no-op for in-memory backends).
    fn sync(&mut self) -> Result<()>;
}

/// Free block ids as a coalesced interval set (`start → end`,
/// end-exclusive, maximal runs), maintained incrementally by the
/// allocator alongside its LIFO recycle stack.
///
/// This is the shared policy behind every backend's
/// [`StorageBackend::allocate_contiguous`] — the **lowest** maximal run
/// of at least `n` consecutive free ids wins — so block ids stay
/// backend-deterministic. Keeping the runs coalesced as frees arrive
/// makes the run search `O(runs)` with no allocation (after a region
/// free the returned ranges coalesce into a handful of runs), where re-deriving it from the flat free list cost a clone plus an
/// `O(F log F)` sort on every region rebuild — even the ones that found
/// nothing and fell through to file growth.
#[derive(Debug, Default)]
pub(crate) struct FreeRuns {
    runs: BTreeMap<u64, u64>,
}

impl FreeRuns {
    /// Marks `id` free, coalescing with adjacent runs. `id` must not
    /// already be free (callers guard with their liveness checks).
    pub(crate) fn insert(&mut self, id: u64) {
        // Absorb a run starting right after id, then either extend a run
        // ending right at id or open a new one.
        let end = self.runs.remove(&(id + 1)).unwrap_or(id + 1);
        if let Some((_, e)) = self.runs.range_mut(..=id).next_back() {
            debug_assert!(*e <= id, "id {id} already free");
            if *e == id {
                *e = end;
                return;
            }
        }
        self.runs.insert(id, end);
    }

    /// Un-frees a single `id` (the LIFO `allocate` path), splitting the
    /// run containing it.
    pub(crate) fn remove(&mut self, id: u64) {
        let (&s, &e) = self.runs.range(..=id).next_back().expect("id must be free");
        debug_assert!(id < e, "id {id} not free");
        self.runs.remove(&s);
        if s < id {
            self.runs.insert(s, id);
        }
        if id + 1 < e {
            self.runs.insert(id + 1, e);
        }
    }

    /// Un-frees `[base, end)`, which must lie within one run (as returned
    /// by [`FreeRuns::first_run_of`]).
    pub(crate) fn remove_range(&mut self, base: u64, end: u64) {
        let (&s, &e) = self.runs.range(..=base).next_back().expect("run must be free");
        debug_assert!(base >= s && end <= e, "[{base},{end}) not within a free run");
        self.runs.remove(&s);
        if s < base {
            self.runs.insert(s, base);
        }
        if end < e {
            self.runs.insert(end, e);
        }
    }

    /// The start of the lowest maximal run of at least `n` consecutive
    /// free ids, if any.
    pub(crate) fn first_run_of(&self, n: usize) -> Option<u64> {
        if n == 0 {
            return None;
        }
        let n = n as u64;
        self.runs.iter().find(|&(&s, &e)| e - s >= n).map(|(&s, _)| s)
    }
}

/// The allocator state machine shared by [`crate::MemDisk`] and
/// [`crate::BlockFile`] (over a real file or a simulated one): LIFO
/// single-slot recycling, lowest-first-fit contiguous runs
/// ([`FreeRuns`]) and O(1) liveness. One implementation — not one per
/// backend — is what keeps block ids backend-deterministic by
/// construction.
///
/// Device I/O (header resets, file growth) happens in the backend
/// *between* a `peek_*` and its `commit_*`: the peek chooses without
/// mutating, so a failed device op leaves the allocator state untouched
/// (the slot stays safely on the free list).
#[derive(Debug, Default)]
pub(crate) struct SlotAllocator {
    /// High-water mark: total slots ever allocated (free ones included).
    slots: u64,
    /// Recycle stack: freed ids, reused LIFO.
    free: Vec<u64>,
    /// `free` as coalesced intervals, for O(runs) contiguous-run search.
    runs: FreeRuns,
    /// `free` as a set, for O(1) liveness checks.
    free_set: HashSet<u64>,
    live: u64,
}

impl SlotAllocator {
    /// An allocator over `[0, slots)` with every slot live — the reopen
    /// shape and, with `slots == 0`, the fresh-device shape.
    pub(crate) fn with_all_live(slots: u64) -> Self {
        SlotAllocator { slots, live: slots, ..Default::default() }
    }

    /// High-water mark.
    pub(crate) fn slots(&self) -> u64 {
        self.slots
    }

    /// Live (allocated) slots.
    pub(crate) fn live(&self) -> u64 {
        self.live
    }

    /// Whether `id` is out of range or on the free list.
    pub(crate) fn is_dead(&self, id: u64) -> bool {
        id >= self.slots || self.free_set.contains(&id)
    }

    /// The slot the next single-slot recycle would take, without taking
    /// it (the backend resets the slot's device image first).
    pub(crate) fn peek_recycle(&self) -> Option<u64> {
        self.free.last().copied()
    }

    /// Takes `id` — which must be the current [`SlotAllocator::peek_recycle`]
    /// answer — off the free list.
    pub(crate) fn commit_recycle(&mut self, id: u64) {
        let popped = self.free.pop();
        debug_assert_eq!(popped, Some(id), "commit must follow peek");
        self.runs.remove(id);
        self.free_set.remove(&id);
        self.live += 1;
    }

    /// The lowest free run of at least `n` slots, without taking it.
    pub(crate) fn peek_run(&self, n: usize) -> Option<u64> {
        self.runs.first_run_of(n)
    }

    /// Takes the run `[base, base + n)` — as returned by
    /// [`SlotAllocator::peek_run`] — off the free list.
    pub(crate) fn commit_run(&mut self, base: u64, n: usize) {
        let end = base + n as u64;
        self.free.retain(|&id| !(base..end).contains(&id));
        self.runs.remove_range(base, end);
        for id in base..end {
            self.free_set.remove(&id);
        }
        self.live += n as u64;
    }

    /// Extends the high-water mark by `n` fresh live slots (the backend
    /// has already grown the device) and returns the first new id.
    pub(crate) fn commit_grow(&mut self, n: u64) -> u64 {
        let base = self.slots;
        self.slots += n;
        self.live += n;
        base
    }

    /// Returns live `id` to the allocator.
    pub(crate) fn release(&mut self, id: u64) {
        self.free.push(id);
        self.runs.insert(id);
        self.free_set.insert(id);
        self.live -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::FreeRuns;

    /// The policy predecessor: sort the flat list, return the lowest
    /// maximal run of ≥ n. `FreeRuns` must agree with it exactly.
    fn reference_run(free: &[u64], n: usize) -> Option<u64> {
        if n == 0 || free.len() < n {
            return None;
        }
        let mut sorted = free.to_vec();
        sorted.sort_unstable();
        let mut run_start = 0usize;
        for i in 1..=sorted.len() {
            if i == sorted.len() || sorted[i] != sorted[i - 1] + 1 {
                if i - run_start >= n {
                    return Some(sorted[run_start]);
                }
                run_start = i;
            }
        }
        None
    }

    #[test]
    fn matches_the_sort_based_reference_policy() {
        // Out-of-order frees with gaps: runs [2,5), [7,8), [10,14).
        let ids = [12, 2, 10, 7, 4, 13, 3, 11];
        let mut runs = FreeRuns::default();
        ids.iter().for_each(|&id| runs.insert(id));
        for n in 0..6 {
            assert_eq!(runs.first_run_of(n), reference_run(&ids, n), "n = {n}");
        }
    }

    /// The reference model: a naive `BTreeSet` of free ids. Every query
    /// `FreeRuns` answers must agree with a linear scan of the set.
    fn model_first_run_of(model: &std::collections::BTreeSet<u64>, n: usize) -> Option<u64> {
        if n == 0 {
            return None;
        }
        let mut run_start: Option<u64> = None;
        let mut prev: Option<u64> = None;
        let mut len = 0usize;
        for &id in model {
            if prev == Some(id.wrapping_sub(1)) {
                len += 1;
            } else {
                run_start = Some(id);
                len = 1;
            }
            if len >= n {
                return run_start;
            }
            prev = Some(id);
        }
        None
    }

    mod properties {
        use std::collections::BTreeSet;

        use proptest::prelude::*;

        use super::super::FreeRuns;
        use super::model_first_run_of;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// Interleaved insert / remove / remove-range against the
            /// naive set model: after every mutation the coalesced
            /// interval set answers `first_run_of` exactly like a linear
            /// scan of the flat free set, for every run length that can
            /// occur: the agreement is checked exhaustively rather
            /// than on a few hand-picked shapes.
            #[test]
            fn free_runs_matches_a_btreeset_model(
                ops in proptest::collection::vec((0u8..4, 0u64..48, 1u64..6), 1..250),
            ) {
                let mut runs = FreeRuns::default();
                let mut model: BTreeSet<u64> = BTreeSet::new();
                for (sel, id, n) in ops {
                    match sel {
                        // Free an id (skip ids already free — the real
                        // allocators guard with their liveness checks).
                        0 | 1 => {
                            if model.insert(id) {
                                runs.insert(id);
                            }
                        }
                        // Re-allocate a single free id (LIFO allocate).
                        2 => {
                            if model.remove(&id) {
                                runs.remove(id);
                            }
                        }
                        // Contiguous allocation: take the lowest run of
                        // at least n, exactly as the backends do.
                        _ => {
                            let got = runs.first_run_of(n as usize);
                            prop_assert_eq!(
                                got,
                                model_first_run_of(&model, n as usize),
                                "first_run_of({}) diverged from the model", n
                            );
                            if let Some(base) = got {
                                runs.remove_range(base, base + n);
                                for i in base..base + n {
                                    model.remove(&i);
                                }
                            }
                        }
                    }
                    for probe in 1..8usize {
                        prop_assert_eq!(
                            runs.first_run_of(probe),
                            model_first_run_of(&model, probe),
                            "probe length {} diverged after an op", probe
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn insert_coalesces_and_remove_splits() {
        let mut runs = FreeRuns::default();
        runs.insert(5);
        runs.insert(7);
        assert_eq!(runs.first_run_of(2), None);
        runs.insert(6); // bridges [5,6) and [7,8) into [5,8)
        assert_eq!(runs.first_run_of(3), Some(5));
        runs.remove(6); // splits back
        assert_eq!(runs.first_run_of(2), None);
        assert_eq!(runs.first_run_of(1), Some(5));
        runs.insert(6);
        runs.remove_range(5, 7); // leaves [7,8)
        assert_eq!(runs.first_run_of(1), Some(7));
        runs.remove(7);
        assert_eq!(runs.first_run_of(1), None);
    }
}
