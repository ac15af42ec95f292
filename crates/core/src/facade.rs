//! A façade that picks the right construction for a target point on the
//! Figure 1 tradeoff curve.

use dxh_extmem::{
    mem_disk, BlockId, Disk, IoSnapshot, Key, MemDisk, Result, StorageBackend, Value,
};
use dxh_hashfn::IdealFn;
use dxh_tables::{
    ChainingConfig, ChainingTable, ExternalDictionary, LayoutInspect, LayoutSnapshot,
};

use crate::bootstrap::BootstrappedTable;
use crate::config::CoreConfig;
use crate::log_method::LogMethodTable;

/// Where on the query–insertion tradeoff (Figure 1) the caller wants to
/// sit. Each variant names the regime of Theorem 1/2 it realizes.
#[derive(Clone, Copy, Debug)]
pub enum TradeoffTarget {
    /// `tq = 1 + 1/2^Ω(b)` (the `c > 1` regime): the standard chaining
    /// table. Theorem 1 says insertions then cost `1 − o(1)` I/Os — and
    /// they do.
    QueryOptimal,
    /// `tq = 1 + O(1/b)`, `tu = ε` (the boundary `c = 1`): bootstrapped
    /// table with `β = Θ(εb)`.
    Boundary {
        /// Target amortized insertion cost.
        eps: f64,
    },
    /// `tq = 1 + O(1/b^c)`, `tu = O(b^(c−1))` for `0 < c < 1`:
    /// bootstrapped table with `β = b^c`.
    InsertOptimal {
        /// The tradeoff exponent.
        c: f64,
    },
    /// `tq = O(log_γ(n/m))`, `tu = O((γ/b) log(n/m))`: the plain
    /// logarithmic method (Lemma 5) — maximal buffering, no `tq ≈ 1`
    /// guarantee.
    LogMethod {
        /// Level growth factor.
        gamma: u64,
    },
}

/// A dynamic external hash table configured by [`TradeoffTarget`].
///
/// All variants share the [`ExternalDictionary`] and [`LayoutInspect`]
/// interfaces, so experiments can sweep the whole tradeoff curve with one
/// code path. The facade is generic over the [`StorageBackend`]: the
/// default `B = MemDisk` is the simulator the experiments use, and
/// [`DynamicHashTable::for_target_on`] runs the identical constructions
/// on any other backend (e.g. [`dxh_extmem::FileDisk`]).
pub enum DynamicHashTable<B: StorageBackend = MemDisk> {
    /// Standard chaining table (query-optimal endpoint).
    Standard(ChainingTable<IdealFn, B>),
    /// Plain logarithmic method.
    Log(LogMethodTable<B>),
    /// Bootstrapped table (Theorem 2).
    Boot(BootstrappedTable<B>),
}

impl DynamicHashTable {
    /// Builds the construction matching `target` over a fresh in-memory
    /// disk, with model parameters `(b, m)` and an ideal hash function
    /// derived from `seed`.
    pub fn for_target(target: TradeoffTarget, b: usize, m: usize, seed: u64) -> Result<Self> {
        Self::for_target_on(target, mem_disk(b), m, seed)
    }
}

impl<B: StorageBackend> DynamicHashTable<B> {
    /// Builds the construction matching `target` over a caller-provided
    /// disk (any [`StorageBackend`]): the backend-generic twin of
    /// [`DynamicHashTable::for_target`]. The block capacity `b` is taken
    /// from the disk; `m` is the internal-memory budget in items.
    ///
    /// ## Backend-independent guarantees
    ///
    /// Every bound the constructions promise — Theorem 2's
    /// `tu = O(b^(c−1))` amortized insertions and `tq = 1 + O(1/b^c)`
    /// expected successful lookups, Lemma 5's `O((γ/b)·log(n/m))` /
    /// `O(log_γ(n/m))`, and chaining's `1 + 1/2^Ω(b)` — is a statement
    /// about the number of *accounted block transfers*, which depends
    /// only on `(b, m)`, the hash function, and the operation sequence.
    /// The [`Disk`] wrapper charges I/Os at its own boundary, so the same
    /// seed and workload produce **identical I/O counts, layouts, and
    /// lookup results on every backend**; only wall-clock time differs.
    /// What the backend *does* change: durability (`sync` is a real
    /// `fdatasync` on [`dxh_extmem::FileDisk`], a no-op on [`MemDisk`])
    /// and the latency of each transfer.
    pub fn for_target_on(
        target: TradeoffTarget,
        disk: Disk<B>,
        m: usize,
        seed: u64,
    ) -> Result<Self> {
        let b = disk.b();
        Ok(match target {
            TradeoffTarget::QueryOptimal => {
                // Load factor 1/2 keeps chains (and hence tq − 1)
                // exponentially small in b.
                let mut cfg = ChainingConfig::new(b, m);
                cfg.max_load = 0.5;
                DynamicHashTable::Standard(ChainingTable::with_disk(
                    disk,
                    cfg,
                    IdealFn::from_seed(seed),
                )?)
            }
            TradeoffTarget::Boundary { eps } => DynamicHashTable::Boot(BootstrappedTable::new_on(
                disk,
                CoreConfig::boundary(b, m, eps)?,
                seed,
            )?),
            TradeoffTarget::InsertOptimal { c } => DynamicHashTable::Boot(
                BootstrappedTable::new_on(disk, CoreConfig::theorem2(b, m, c)?, seed)?,
            ),
            TradeoffTarget::LogMethod { gamma } => DynamicHashTable::Log(LogMethodTable::new_on(
                disk,
                CoreConfig::lemma5(b, m, gamma)?,
                seed,
            )?),
        })
    }

    /// A short name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            DynamicHashTable::Standard(_) => "chaining",
            DynamicHashTable::Log(_) => "log-method",
            DynamicHashTable::Boot(_) => "bootstrapped",
        }
    }
}

macro_rules! delegate {
    ($self:ident, $t:ident => $e:expr) => {
        match $self {
            DynamicHashTable::Standard($t) => $e,
            DynamicHashTable::Log($t) => $e,
            DynamicHashTable::Boot($t) => $e,
        }
    };
}

impl<B: StorageBackend> ExternalDictionary for DynamicHashTable<B> {
    fn insert(&mut self, key: Key, value: Value) -> Result<()> {
        delegate!(self, t => t.insert(key, value))
    }

    fn lookup(&mut self, key: Key) -> Result<Option<Value>> {
        delegate!(self, t => t.lookup(key))
    }

    /// Deletion support follows the variant: chaining deletes physically,
    /// the log method via deletion markers; the bootstrapped table
    /// rejects it (Theorem 2's invariant is insertion-counting).
    fn delete(&mut self, key: Key) -> Result<bool> {
        delegate!(self, t => t.delete(key))
    }

    fn len(&self) -> usize {
        delegate!(self, t => t.len())
    }

    fn disk_stats(&self) -> IoSnapshot {
        delegate!(self, t => t.disk_stats())
    }

    fn memory_used(&self) -> usize {
        delegate!(self, t => t.memory_used())
    }

    fn block_capacity(&self) -> usize {
        delegate!(self, t => t.block_capacity())
    }
}

impl<B: StorageBackend> LayoutInspect for DynamicHashTable<B> {
    fn layout_snapshot(&mut self) -> Result<LayoutSnapshot> {
        delegate!(self, t => t.layout_snapshot())
    }

    fn address_of(&self, key: Key) -> Option<BlockId> {
        delegate!(self, t => t.address_of(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_targets_build_and_work() {
        let targets = [
            TradeoffTarget::QueryOptimal,
            TradeoffTarget::Boundary { eps: 0.25 },
            TradeoffTarget::InsertOptimal { c: 0.5 },
            TradeoffTarget::LogMethod { gamma: 2 },
        ];
        for target in targets {
            let mut t = DynamicHashTable::for_target(target, 32, 512, 3).unwrap();
            for k in 0..2000u64 {
                t.insert(k, k).unwrap();
            }
            for k in (0..2000u64).step_by(37) {
                assert_eq!(t.lookup(k).unwrap(), Some(k), "{} key {k}", t.name());
            }
            assert_eq!(t.lookup(1_000_000).unwrap(), None);
        }
    }

    #[test]
    fn query_optimal_pays_one_io_per_insert_but_boot_does_not() {
        let n = 10_000u64;
        let run = |target| {
            let mut t = DynamicHashTable::for_target(target, 64, 1024, 4).unwrap();
            for k in 0..n {
                t.insert(k, k).unwrap();
            }
            t.total_ios() as f64 / n as f64
        };
        let standard = run(TradeoffTarget::QueryOptimal);
        let boot = run(TradeoffTarget::InsertOptimal { c: 0.5 });
        assert!(standard > 0.95, "standard table ≈ 1 I/O per insert: {standard}");
        assert!(boot < 0.5 * standard, "bootstrapped beats it: {boot} vs {standard}");
    }

    #[test]
    fn for_target_on_runs_every_target_on_a_file_disk() {
        use dxh_extmem::{FileDisk, IoCostModel};
        let targets = [
            TradeoffTarget::QueryOptimal,
            TradeoffTarget::Boundary { eps: 0.25 },
            TradeoffTarget::InsertOptimal { c: 0.5 },
            TradeoffTarget::LogMethod { gamma: 2 },
        ];
        for target in targets {
            let disk = Disk::new(FileDisk::temp(32).unwrap(), 32, IoCostModel::SeekDominated);
            let mut file = DynamicHashTable::for_target_on(target, disk, 512, 3).unwrap();
            let mut mem = DynamicHashTable::for_target(target, 32, 512, 3).unwrap();
            for k in 0..1500u64 {
                file.insert(k, k).unwrap();
                mem.insert(k, k).unwrap();
            }
            for k in (0..1500u64).step_by(23) {
                assert_eq!(file.lookup(k).unwrap(), Some(k), "{} key {k}", file.name());
                assert_eq!(mem.lookup(k).unwrap(), Some(k), "{} key {k}", mem.name());
            }
            assert_eq!(
                file.total_ios(),
                mem.total_ios(),
                "{}: accounting is backend-independent",
                file.name()
            );
        }
    }

    #[test]
    fn delete_support_follows_the_variant() {
        use dxh_extmem::{FileDisk, IoCostModel};
        // Chaining and log-method delete; bootstrapped rejects.
        for target in [TradeoffTarget::QueryOptimal, TradeoffTarget::LogMethod { gamma: 2 }] {
            let disk = Disk::new(FileDisk::temp(16).unwrap(), 16, IoCostModel::SeekDominated);
            let mut t = DynamicHashTable::for_target_on(target, disk, 256, 8).unwrap();
            for k in 0..800u64 {
                t.insert(k, k).unwrap();
            }
            for k in (0..800u64).step_by(3) {
                assert!(t.delete(k).unwrap(), "{} key {k}", t.name());
            }
            for k in 0..800u64 {
                let expect = (k % 3 != 0).then_some(k);
                assert_eq!(t.lookup(k).unwrap(), expect, "{} key {k}", t.name());
            }
        }
        let mut boot =
            DynamicHashTable::for_target(TradeoffTarget::InsertOptimal { c: 0.5 }, 16, 256, 8)
                .unwrap();
        boot.insert(1, 1).unwrap();
        assert!(boot.delete(1).is_err(), "bootstrapped table still rejects deletion");
    }

    #[test]
    fn names_are_stable() {
        let t = DynamicHashTable::for_target(TradeoffTarget::QueryOptimal, 32, 512, 5).unwrap();
        assert_eq!(t.name(), "chaining");
    }
}
