//! Workload families.

use std::collections::HashSet;

use dxh_extmem::Key;
use dxh_hashfn::SplitMix64;

use crate::trace::{Op, Trace};
use crate::zipf::ZipfSampler;

/// A reproducible workload: `generate(seed)` always yields the same
/// trace for the same seed.
pub trait Workload {
    /// Builds the operation trace.
    fn generate(&self, seed: u64) -> Trace;

    /// Short name for experiment output.
    fn name(&self) -> &'static str;
}

/// A request the workload generators cannot satisfy, reported as a typed
/// error instead of a panic so harnesses can skip or reconfigure.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadError {
    /// An operation-class ratio is outside its documented range.
    BadRatio {
        /// Which parameter was rejected.
        param: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The requested operation mix cannot be generated (e.g. deletes
    /// from a workload family defined as insert-only).
    UnsupportedMix {
        /// The workload family that rejected the request.
        workload: &'static str,
        /// What was asked of it.
        why: &'static str,
    },
}

impl core::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WorkloadError::BadRatio { param, value } => {
                write!(f, "workload ratio {param} = {value} out of range")
            }
            WorkloadError::UnsupportedMix { workload, why } => {
                write!(f, "workload {workload} cannot generate the requested mix: {why}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

fn fresh_key(rng: &mut SplitMix64, used: &mut HashSet<Key>) -> Key {
    loop {
        let k = rng.next_u64() >> 1;
        if used.insert(k) {
            return k;
        }
    }
}

/// The paper's model: `n` insertions of independent uniform items, no
/// queries (queries are measured separately by the harness).
#[derive(Clone, Copy, Debug)]
pub struct UniformInserts {
    /// Number of insertions.
    pub n: usize,
}

impl Workload for UniformInserts {
    fn generate(&self, seed: u64) -> Trace {
        let mut rng = SplitMix64::new(seed);
        let mut used = HashSet::with_capacity(self.n);
        let ops = (0..self.n)
            .map(|_| {
                let k = fresh_key(&mut rng, &mut used);
                Op::Insert(k, k)
            })
            .collect();
        Trace { ops }
    }

    fn name(&self) -> &'static str {
        "uniform-inserts"
    }
}

/// A mixed stream: each step inserts with probability `insert_ratio`,
/// otherwise looks up a uniformly chosen previously inserted key.
#[derive(Clone, Copy, Debug)]
pub struct InsertLookupMix {
    /// Total operations.
    pub ops: usize,
    /// Fraction of operations that are insertions, in `(0, 1]`.
    pub insert_ratio: f64,
}

impl Workload for InsertLookupMix {
    fn generate(&self, seed: u64) -> Trace {
        assert!(self.insert_ratio > 0.0 && self.insert_ratio <= 1.0);
        let mut rng = SplitMix64::new(seed);
        let mut used = HashSet::new();
        let mut inserted: Vec<Key> = Vec::new();
        let mut ops = Vec::with_capacity(self.ops);
        for _ in 0..self.ops {
            let coin = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            if inserted.is_empty() || coin < self.insert_ratio {
                let k = fresh_key(&mut rng, &mut used);
                inserted.push(k);
                ops.push(Op::Insert(k, k));
            } else {
                let k = inserted[rng.below(inserted.len() as u64) as usize];
                ops.push(Op::Lookup(k));
            }
        }
        Trace { ops }
    }

    fn name(&self) -> &'static str {
        "insert-lookup-mix"
    }
}

/// A churn stream: inserts, deletes, and lookups interleaved, the
/// workload family the persistent store's deletion and compaction paths
/// are measured under. Each step inserts a fresh key with probability
/// `insert_ratio`, deletes a uniformly chosen **live** key with
/// probability `delete_ratio`, and otherwise looks up a uniformly chosen
/// previously inserted key (live or deleted — deleted keys exercise the
/// deletion-marker miss path). Steps with no eligible target fall back
/// to an insert, so the trace always has exactly `ops` operations.
#[derive(Clone, Copy, Debug)]
pub struct ChurnMix {
    /// Total operations.
    pub ops: usize,
    /// Fraction of operations that are insertions, in `(0, 1]`.
    pub insert_ratio: f64,
    /// Fraction of operations that are deletions, in `[0, 1]`;
    /// `insert_ratio + delete_ratio ≤ 1`.
    pub delete_ratio: f64,
}

impl ChurnMix {
    /// Validates the mix. Ratios outside their ranges are
    /// [`WorkloadError::BadRatio`]; deletes without inserts to target
    /// are a genuinely unsupported request —
    /// [`WorkloadError::UnsupportedMix`].
    pub fn new(ops: usize, insert_ratio: f64, delete_ratio: f64) -> Result<Self, WorkloadError> {
        if !(0.0..=1.0).contains(&insert_ratio) {
            return Err(WorkloadError::BadRatio { param: "insert_ratio", value: insert_ratio });
        }
        if !(0.0..=1.0).contains(&delete_ratio) {
            return Err(WorkloadError::BadRatio { param: "delete_ratio", value: delete_ratio });
        }
        if insert_ratio + delete_ratio > 1.0 {
            return Err(WorkloadError::BadRatio {
                param: "insert_ratio + delete_ratio",
                value: insert_ratio + delete_ratio,
            });
        }
        if delete_ratio > 0.0 && insert_ratio == 0.0 {
            return Err(WorkloadError::UnsupportedMix {
                workload: "churn-mix",
                why: "deletes need inserts to target",
            });
        }
        Ok(ChurnMix { ops, insert_ratio, delete_ratio })
    }
}

impl Workload for ChurnMix {
    fn generate(&self, seed: u64) -> Trace {
        let mut rng = SplitMix64::new(seed);
        let mut used = HashSet::new();
        let mut inserted: Vec<Key> = Vec::new(); // every key ever inserted
        let mut live: Vec<Key> = Vec::new(); // currently live keys
        let mut ops = Vec::with_capacity(self.ops);
        for _ in 0..self.ops {
            let coin = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            if coin < self.insert_ratio + self.delete_ratio && coin >= self.insert_ratio {
                if let Some(idx) = (!live.is_empty()).then(|| rng.below(live.len() as u64)) {
                    ops.push(Op::Delete(live.swap_remove(idx as usize)));
                    continue;
                }
            } else if coin >= self.insert_ratio + self.delete_ratio && !inserted.is_empty() {
                let k = inserted[rng.below(inserted.len() as u64) as usize];
                ops.push(Op::Lookup(k));
                continue;
            }
            // Insert — also the fallback when a delete or lookup has no
            // eligible target yet.
            let k = fresh_key(&mut rng, &mut used);
            inserted.push(k);
            live.push(k);
            ops.push(Op::Insert(k, k));
        }
        Trace { ops }
    }

    fn name(&self) -> &'static str {
        "churn-mix"
    }
}

/// The concurrent twin of [`ChurnMix`]: one churn trace **per writer
/// thread**, with per-thread key namespaces that are disjoint *by
/// construction* (thread id in the key's top tag bits, below the sign
/// bit), not merely by seed luck. Disjointness is what makes the
/// concurrent run checkable: each thread can verify its own operations
/// against a private shadow model with no cross-thread ordering to
/// reason about, while the service under test still sees the threads
/// interleave on shared shards.
///
/// [`Workload::generate`] returns the round-robin interleaving of all
/// thread traces — the deterministic serialization a single-threaded
/// twin can replay for an equivalence check.
#[derive(Clone, Copy, Debug)]
pub struct ConcurrentChurn {
    /// Number of writer threads (≤ 256: the namespace tag is 8 bits).
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Fraction of each thread's operations that are insertions.
    pub insert_ratio: f64,
    /// Fraction that are deletions; `insert_ratio + delete_ratio ≤ 1`.
    pub delete_ratio: f64,
}

/// Bit position of the 8-bit thread tag inside a [`ConcurrentChurn`]
/// key: bits 55–62, leaving bit 63 clear (keys stay 63-bit, like every
/// generator's) and 55 bits of per-thread entropy.
const THREAD_TAG_SHIFT: u32 = 55;

impl ConcurrentChurn {
    /// Validates the shape ([`ChurnMix::new`] rules plus the thread
    /// bounds).
    pub fn new(
        threads: usize,
        ops_per_thread: usize,
        insert_ratio: f64,
        delete_ratio: f64,
    ) -> Result<Self, WorkloadError> {
        if threads == 0 || threads > 256 {
            return Err(WorkloadError::BadRatio { param: "threads", value: threads as f64 });
        }
        // Reuse ChurnMix's ratio validation verbatim.
        ChurnMix::new(ops_per_thread, insert_ratio, delete_ratio)?;
        Ok(ConcurrentChurn { threads, ops_per_thread, insert_ratio, delete_ratio })
    }

    /// Thread `t`'s trace: churn-mix semantics (fresh-key inserts,
    /// live-key deletes, ever-inserted lookups) inside thread `t`'s
    /// private key namespace. Deterministic in `(self, t, seed)`.
    ///
    /// # Panics
    ///
    /// Panics when `t >= self.threads`.
    pub fn thread_trace(&self, t: usize, seed: u64) -> Trace {
        assert!(t < self.threads, "thread {t} out of range ({} threads)", self.threads);
        let tag = (t as u64) << THREAD_TAG_SHIFT;
        let mut rng = SplitMix64::new(seed ^ (t as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let mut used = HashSet::new();
        let mut inserted: Vec<Key> = Vec::new();
        let mut live: Vec<Key> = Vec::new();
        let mut ops = Vec::with_capacity(self.ops_per_thread);
        for _ in 0..self.ops_per_thread {
            let coin = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            if coin < self.insert_ratio + self.delete_ratio && coin >= self.insert_ratio {
                if let Some(idx) = (!live.is_empty()).then(|| rng.below(live.len() as u64)) {
                    ops.push(Op::Delete(live.swap_remove(idx as usize)));
                    continue;
                }
            } else if coin >= self.insert_ratio + self.delete_ratio && !inserted.is_empty() {
                let k = inserted[rng.below(inserted.len() as u64) as usize];
                ops.push(Op::Lookup(k));
                continue;
            }
            // Insert — also the fallback when a delete or lookup has no
            // eligible target yet. Fresh within the thread's namespace.
            let k = loop {
                let k = tag | (rng.next_u64() >> (64 - THREAD_TAG_SHIFT));
                if used.insert(k) {
                    break k;
                }
            };
            inserted.push(k);
            live.push(k);
            ops.push(Op::Insert(k, k));
        }
        Trace { ops }
    }
}

impl Workload for ConcurrentChurn {
    fn generate(&self, seed: u64) -> Trace {
        let threads: Vec<Trace> = (0..self.threads).map(|t| self.thread_trace(t, seed)).collect();
        let mut ops = Vec::with_capacity(self.threads * self.ops_per_thread);
        for i in 0..self.ops_per_thread {
            for t in &threads {
                ops.push(t.ops[i]);
            }
        }
        Trace { ops }
    }

    fn name(&self) -> &'static str {
        "concurrent-churn"
    }
}

/// The hot-key write stream: every thread hammers Zipf(θ)-popular keys
/// inside its own private namespace (same 8-bit thread tag as
/// [`ConcurrentChurn`]). Unlike every other family, keys **repeat** —
/// this is the workload the commit log's newest-wins fold exists for,
/// and its uncoalesced twin is simply [`ConcurrentChurn`] with
/// `insert_ratio = 1.0` (same op count, all keys distinct, nothing to
/// coalesce).
#[derive(Clone, Copy, Debug)]
pub struct ZipfWrites {
    /// Number of writer threads (≤ 256: the namespace tag is 8 bits).
    pub threads: usize,
    /// Write operations per thread.
    pub ops_per_thread: usize,
    /// Distinct keys per thread namespace; rank 0 is the hottest.
    pub universe: usize,
    /// Zipf skew, in `(0, 1)`.
    pub theta: f64,
}

impl ZipfWrites {
    /// Validates the shape: thread bounds as [`ConcurrentChurn`], a
    /// non-empty universe, and θ inside the sampler's `(0, 1)` domain.
    pub fn new(
        threads: usize,
        ops_per_thread: usize,
        universe: usize,
        theta: f64,
    ) -> Result<Self, WorkloadError> {
        if threads == 0 || threads > 256 {
            return Err(WorkloadError::BadRatio { param: "threads", value: threads as f64 });
        }
        if universe == 0 {
            return Err(WorkloadError::BadRatio { param: "universe", value: 0.0 });
        }
        if !(theta > 0.0 && theta < 1.0) {
            return Err(WorkloadError::BadRatio { param: "theta", value: theta });
        }
        Ok(ZipfWrites { threads, ops_per_thread, universe, theta })
    }

    /// Thread `t`'s trace: `ops_per_thread` puts of Zipf-ranked keys in
    /// thread `t`'s namespace, values distinct per step so newest-wins
    /// coalescing is observable. Deterministic in `(self, t, seed)`.
    ///
    /// # Panics
    ///
    /// Panics when `t >= self.threads`.
    pub fn thread_trace(&self, t: usize, seed: u64) -> Trace {
        assert!(t < self.threads, "thread {t} out of range ({} threads)", self.threads);
        let tag = (t as u64) << THREAD_TAG_SHIFT;
        let mut rng = SplitMix64::new(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let zipf = ZipfSampler::new(self.universe as u64, self.theta);
        let ops = (0..self.ops_per_thread)
            .map(|i| Op::Insert(tag | zipf.sample(&mut rng), i as u64))
            .collect();
        Trace { ops }
    }
}

impl Workload for ZipfWrites {
    fn generate(&self, seed: u64) -> Trace {
        let threads: Vec<Trace> = (0..self.threads).map(|t| self.thread_trace(t, seed)).collect();
        let mut ops = Vec::with_capacity(self.threads * self.ops_per_thread);
        for i in 0..self.ops_per_thread {
            for t in &threads {
                ops.push(t.ops[i]);
            }
        }
        Trace { ops }
    }

    fn name(&self) -> &'static str {
        "zipf-writes"
    }
}

/// The introduction's motivating scenario: *archival data management* —
/// long runs of insertions (log records arriving) punctuated by rare
/// point lookups, skewed toward recently archived records.
#[derive(Clone, Copy, Debug)]
pub struct ArchivalStream {
    /// Total insertions.
    pub inserts: usize,
    /// One lookup is issued after every `lookup_every` insertions.
    pub lookup_every: usize,
    /// Fraction of lookups aimed at the most recent 10% of records.
    pub recent_bias: f64,
}

impl Workload for ArchivalStream {
    fn generate(&self, seed: u64) -> Trace {
        assert!(self.lookup_every > 0);
        assert!((0.0..=1.0).contains(&self.recent_bias));
        let mut rng = SplitMix64::new(seed);
        let mut used = HashSet::with_capacity(self.inserts);
        let mut inserted: Vec<Key> = Vec::with_capacity(self.inserts);
        let mut ops = Vec::with_capacity(self.inserts + self.inserts / self.lookup_every);
        for i in 0..self.inserts {
            let k = fresh_key(&mut rng, &mut used);
            inserted.push(k);
            ops.push(Op::Insert(k, i as u64));
            if (i + 1) % self.lookup_every == 0 {
                let coin = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let idx = if coin < self.recent_bias {
                    // Recent 10% window.
                    let window = (inserted.len() / 10).max(1);
                    inserted.len() - 1 - rng.below(window as u64) as usize
                } else {
                    rng.below(inserted.len() as u64) as usize
                };
                ops.push(Op::Lookup(inserted[idx]));
            }
        }
        Trace { ops }
    }

    fn name(&self) -> &'static str {
        "archival-stream"
    }
}

/// Insert `inserts` keys, then issue `queries` lookups with Zipf(θ)
/// popularity over the inserted keys (hot-key read phase).
#[derive(Clone, Copy, Debug)]
pub struct ZipfQueries {
    /// Keys inserted in the load phase.
    pub inserts: usize,
    /// Lookups issued in the query phase.
    pub queries: usize,
    /// Zipf skew, in `(0, 1)`.
    pub theta: f64,
}

impl Workload for ZipfQueries {
    fn generate(&self, seed: u64) -> Trace {
        let mut rng = SplitMix64::new(seed);
        let mut used = HashSet::with_capacity(self.inserts);
        let mut inserted = Vec::with_capacity(self.inserts);
        let mut ops = Vec::with_capacity(self.inserts + self.queries);
        for _ in 0..self.inserts {
            let k = fresh_key(&mut rng, &mut used);
            inserted.push(k);
            ops.push(Op::Insert(k, k));
        }
        let zipf = ZipfSampler::new(self.inserts.max(1) as u64, self.theta);
        for _ in 0..self.queries {
            let rank = zipf.sample(&mut rng) as usize;
            ops.push(Op::Lookup(inserted[rank]));
        }
        Trace { ops }
    }

    fn name(&self) -> &'static str {
        "zipf-queries"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_inserts_are_distinct_and_reproducible() {
        let w = UniformInserts { n: 1000 };
        let a = w.generate(5);
        let b = w.generate(5);
        assert_eq!(a, b, "same seed, same trace");
        let (inserts, lookups, deletes) = a.histogram();
        assert_eq!((inserts, lookups, deletes), (1000, 0, 0), "inserts only, by construction");
        let keys: HashSet<_> = a
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Insert(k, _) => Some(*k),
                _ => None,
            })
            .collect();
        assert_eq!(keys.len(), 1000, "keys are distinct");
        assert_ne!(a, w.generate(6), "different seed, different trace");
    }

    #[test]
    fn mix_respects_ratio_roughly() {
        let w = InsertLookupMix { ops: 10_000, insert_ratio: 0.3 };
        let t = w.generate(1);
        let (ins, looks, dels) = t.histogram();
        assert_eq!(dels, 0);
        assert_eq!(ins + looks, 10_000);
        let ratio = ins as f64 / 10_000.0;
        assert!((ratio - 0.3).abs() < 0.03, "insert ratio {ratio}");
    }

    #[test]
    fn mix_lookups_hit_inserted_keys_only() {
        let w = InsertLookupMix { ops: 2000, insert_ratio: 0.5 };
        let t = w.generate(2);
        let mut seen = HashSet::new();
        for op in &t.ops {
            match op {
                Op::Insert(k, _) => {
                    seen.insert(*k);
                }
                Op::Lookup(k) => assert!(seen.contains(k), "lookup of never-inserted key"),
                Op::Delete(_) => unreachable!(),
            }
        }
    }

    #[test]
    fn churn_mix_validates_its_ratios() {
        assert!(matches!(
            ChurnMix::new(10, 1.5, 0.0),
            Err(WorkloadError::BadRatio { param: "insert_ratio", .. })
        ));
        assert!(matches!(
            ChurnMix::new(10, 0.7, 0.7),
            Err(WorkloadError::BadRatio { param: "insert_ratio + delete_ratio", .. })
        ));
        assert!(matches!(
            ChurnMix::new(10, 0.0, 0.3),
            Err(WorkloadError::UnsupportedMix { workload: "churn-mix", .. })
        ));
        assert!(ChurnMix::new(10, 0.5, 0.3).is_ok());
    }

    #[test]
    fn churn_mix_deletes_live_keys_only_and_is_reproducible() {
        let w = ChurnMix::new(10_000, 0.5, 0.2).unwrap();
        let a = w.generate(7);
        assert_eq!(a, w.generate(7), "same seed, same trace");
        assert_eq!(a.len(), 10_000);
        let mut live = HashSet::new();
        let mut ever = HashSet::new();
        for op in &a.ops {
            match op {
                Op::Insert(k, _) => {
                    assert!(ever.insert(*k), "fresh keys only");
                    live.insert(*k);
                }
                Op::Delete(k) => {
                    assert!(live.remove(k), "deletes target a live key");
                }
                Op::Lookup(k) => {
                    assert!(ever.contains(k), "lookups target inserted keys (live or deleted)");
                }
            }
        }
        let (ins, looks, dels) = a.histogram();
        assert_eq!(ins + looks + dels, 10_000);
        assert!(dels > 1000, "deletes materialize: {dels}");
        assert!((ins as f64 / 10_000.0 - 0.5).abs() < 0.05, "insert ratio ≈ 0.5: {ins}");
        assert!(looks > 1000, "lookups materialize: {looks}");
    }

    #[test]
    fn concurrent_churn_namespaces_are_disjoint_and_reproducible() {
        let w = ConcurrentChurn::new(8, 500, 0.5, 0.2).unwrap();
        let mut namespaces: Vec<HashSet<u64>> = Vec::new();
        for t in 0..8 {
            let a = w.thread_trace(t, 9);
            assert_eq!(a, w.thread_trace(t, 9), "same seed, same trace");
            assert_ne!(a, w.thread_trace(t, 10), "different seed, different trace");
            // Churn-mix invariants hold per thread.
            let mut live = HashSet::new();
            let mut ever = HashSet::new();
            for op in &a.ops {
                match op {
                    Op::Insert(k, _) => {
                        assert!(*k < 1 << 63, "keys stay 63-bit");
                        assert!(ever.insert(*k), "fresh keys only");
                        live.insert(*k);
                    }
                    Op::Delete(k) => assert!(live.remove(k), "deletes target a live key"),
                    Op::Lookup(k) => assert!(ever.contains(k), "lookups target inserted keys"),
                }
            }
            namespaces.push(ever);
        }
        for (i, a) in namespaces.iter().enumerate() {
            for b in namespaces.iter().skip(i + 1) {
                assert!(a.is_disjoint(b), "thread namespaces overlap");
            }
        }
    }

    #[test]
    fn concurrent_churn_generate_interleaves_all_threads() {
        let w = ConcurrentChurn::new(4, 100, 0.6, 0.1).unwrap();
        let t = w.generate(3);
        assert_eq!(t.len(), 400);
        // Round-robin: the first `threads` ops are each thread's op 0.
        for (i, tt) in (0..4).map(|i| (i, w.thread_trace(i, 3))).collect::<Vec<_>>() {
            assert_eq!(t.ops[i], tt.ops[0]);
        }
    }

    #[test]
    fn concurrent_churn_validates_its_shape() {
        assert!(ConcurrentChurn::new(0, 10, 0.5, 0.1).is_err(), "zero threads");
        assert!(ConcurrentChurn::new(257, 10, 0.5, 0.1).is_err(), "tag bits overflow");
        assert!(ConcurrentChurn::new(2, 10, 1.5, 0.0).is_err(), "bad ratio");
        assert!(ConcurrentChurn::new(2, 10, 0.5, 0.1).is_ok());
    }

    #[test]
    fn zipf_writes_repeat_hot_keys_in_disjoint_namespaces() {
        let w = ZipfWrites::new(4, 2000, 64, 0.99).unwrap();
        let mut namespaces: Vec<HashSet<u64>> = Vec::new();
        for t in 0..4 {
            let a = w.thread_trace(t, 11);
            assert_eq!(a, w.thread_trace(t, 11), "same seed, same trace");
            assert_ne!(a, w.thread_trace(t, 12), "different seed, different trace");
            assert_eq!(a.len(), 2000);
            let keys: HashSet<u64> = a
                .ops
                .iter()
                .map(|op| match op {
                    Op::Insert(k, _) => {
                        assert!(*k < 1 << 63, "keys stay 63-bit");
                        *k
                    }
                    _ => panic!("zipf-writes is puts only"),
                })
                .collect();
            assert!(keys.len() <= 64, "keys come from the {}-key universe", 64);
            assert!(keys.len() < 2000 / 4, "hot keys repeat: {} distinct", keys.len());
            namespaces.push(keys);
        }
        for (i, a) in namespaces.iter().enumerate() {
            for b in namespaces.iter().skip(i + 1) {
                assert!(a.is_disjoint(b), "thread namespaces overlap");
            }
        }
        assert!(ZipfWrites::new(0, 10, 64, 0.9).is_err(), "zero threads");
        assert!(ZipfWrites::new(2, 10, 0, 0.9).is_err(), "empty universe");
        assert!(ZipfWrites::new(2, 10, 64, 1.0).is_err(), "theta out of range");
    }

    #[test]
    fn archival_stream_is_insert_heavy() {
        let w = ArchivalStream { inserts: 5000, lookup_every: 100, recent_bias: 0.8 };
        let t = w.generate(3);
        let (ins, looks, _) = t.histogram();
        assert_eq!(ins, 5000);
        assert_eq!(looks, 50);
    }

    #[test]
    fn archival_lookups_are_valid_and_biased_recent() {
        let w = ArchivalStream { inserts: 10_000, lookup_every: 10, recent_bias: 1.0 };
        let t = w.generate(4);
        let mut inserted: Vec<Key> = Vec::new();
        let mut recent_hits = 0usize;
        let mut total = 0usize;
        for op in &t.ops {
            match op {
                Op::Insert(k, _) => inserted.push(*k),
                Op::Lookup(k) => {
                    let pos = inserted.iter().position(|x| x == k).expect("inserted");
                    total += 1;
                    if pos + inserted.len() / 10 + 1 >= inserted.len() {
                        recent_hits += 1;
                    }
                }
                Op::Delete(_) => unreachable!(),
            }
        }
        assert_eq!(recent_hits, total, "bias 1.0 ⇒ all lookups in recent window");
    }

    #[test]
    fn zipf_queries_follow_skew() {
        let w = ZipfQueries { inserts: 100, queries: 50_000, theta: 0.9 };
        let t = w.generate(5);
        // Count lookups of the single most popular key.
        let mut counts = std::collections::HashMap::new();
        for op in &t.ops {
            if let Op::Lookup(k) = op {
                *counts.entry(*k).or_insert(0u64) += 1;
            }
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > 50_000 / 100 * 3, "hot key dominates: {max}");
    }
}
