//! The storage-backend abstraction behind [`crate::Disk`].

use std::collections::BTreeMap;

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
    /// runs are the common case); [`crate::BlockFile`] recycles the
    /// lowest run that fits (the `FreeRuns` interval set), so the same
    /// workload produces the same ids whatever byte file holds the
    /// blocks.
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
/// end-exclusive, maximal runs): the allocator's one free set.
///
/// It answers both of the allocator's questions — is this id free
/// ([`FreeRuns::contains`]), and where is the **lowest** maximal run of
/// at least `n` consecutive free ids ([`FreeRuns::first_run_of`]) — in
/// `O(log runs)` and `O(runs)` with no allocation: after a region free
/// the returned ranges coalesce into a handful of runs.
#[derive(Debug, Default)]
pub(crate) struct FreeRuns {
    runs: BTreeMap<u64, u64>,
}

impl FreeRuns {
    /// Marks `id` free, coalescing with adjacent runs. `id` must not
    /// already be free (the allocator checks liveness first).
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

    /// Whether `id` is free.
    pub(crate) fn contains(&self, id: u64) -> bool {
        self.runs.range(..=id).next_back().is_some_and(|(_, &e)| id < e)
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

/// The slot allocator of [`crate::BlockFile`], whatever byte file it
/// runs on: a high-water mark, one free set ([`FreeRuns`]) and a live
/// count. Every allocation — a single slot is a run of one — takes the
/// lowest free run that fits, else grows; so block ids depend on the
/// workload alone, never on which file holds the blocks.
///
/// Device I/O (header resets, file growth) happens in the block file
/// *between* a `peek_run` and its `commit_*`: the peek chooses without
/// mutating, so a failed device op leaves the allocator state untouched
/// (the slots stay safely free).
#[derive(Debug, Default)]
pub(crate) struct SlotAllocator {
    /// High-water mark: total slots ever allocated (free ones included).
    slots: u64,
    /// The free slots below the high-water mark.
    runs: FreeRuns,
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

    /// Whether `id` is out of range or free.
    pub(crate) fn is_dead(&self, id: u64) -> bool {
        id >= self.slots || self.runs.contains(id)
    }

    /// The lowest free run of at least `n` slots, without taking it.
    pub(crate) fn peek_run(&self, n: usize) -> Option<u64> {
        self.runs.first_run_of(n)
    }

    /// Takes the run `[base, base + n)` — as returned by
    /// [`SlotAllocator::peek_run`] — out of the free set.
    pub(crate) fn commit_run(&mut self, base: u64, n: usize) {
        self.runs.remove_range(base, base + n as u64);
        self.live += n as u64;
    }

    /// Extends the high-water mark by `n` fresh live slots (the block
    /// file has already grown the device) and returns the first new id.
    pub(crate) fn commit_grow(&mut self, n: u64) -> u64 {
        let base = self.slots;
        self.slots += n;
        self.live += n;
        base
    }

    /// Returns live `id` to the free set.
    pub(crate) fn release(&mut self, id: u64) {
        self.runs.insert(id);
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

            /// Interleaved insert / single remove / run remove against
            /// the naive set model: after every mutation the coalesced
            /// interval set answers `contains` for every id and
            /// `first_run_of` for every run length that can occur
            /// exactly like the flat free set: the agreement is checked
            /// exhaustively rather than on a few hand-picked shapes.
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
                        // Re-allocate a single free id.
                        2 => {
                            if model.remove(&id) {
                                runs.remove_range(id, id + 1);
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
                    for p in 0..48 {
                        prop_assert_eq!(
                            runs.contains(p),
                            model.contains(&p),
                            "contains({}) diverged after an op", p
                        );
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
        runs.remove_range(6, 7); // splits back
        assert_eq!(runs.first_run_of(2), None);
        assert_eq!(runs.first_run_of(1), Some(5));
        runs.insert(6);
        runs.remove_range(5, 7); // leaves [7,8)
        assert_eq!(runs.first_run_of(1), Some(7));
        runs.remove_range(7, 8);
        assert_eq!(runs.first_run_of(1), None);
    }
}
