//! I/O accounting: the complexity measure of the external memory model.

/// How a read-modify-write of a single block is priced.
///
/// Footnote 2 of the paper: "since disk I/Os are dominated by the seek
/// time, writing a block immediately after reading it can be considered as
/// one I/O". All of the paper's bounds (`1 + 1/2^Ω(b)` insertions for the
/// standard table, etc.) use that convention.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IoCostModel {
    /// Read-then-write-back of one block costs **1** I/O (paper's model).
    #[default]
    SeekDominated,
    /// Every block transfer costs 1 I/O, so a read-modify-write costs **2**.
    Strict,
}

impl IoCostModel {
    /// Cost charged for one read-modify-write under this model.
    #[inline]
    pub fn rmw_cost(self) -> u64 {
        match self {
            IoCostModel::SeekDominated => 1,
            IoCostModel::Strict => 2,
        }
    }
}

/// Monotone counters of block transfers performed by a [`crate::Disk`].
///
/// `reads` and `writes` count plain transfers; `rmws` counts combined
/// read-modify-write operations, priced by the [`IoCostModel`].
#[derive(Clone, Debug, Default)]
pub struct IoStats {
    reads: u64,
    writes: u64,
    rmws: u64,
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn record_read(&mut self) {
        self.reads += 1;
    }

    #[inline]
    pub(crate) fn record_write(&mut self) {
        self.writes += 1;
    }

    #[inline]
    pub(crate) fn record_rmw(&mut self) {
        self.rmws += 1;
    }

    /// Plain block reads.
    #[inline]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Plain block writes.
    #[inline]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Combined read-modify-write operations.
    #[inline]
    pub fn rmws(&self) -> u64 {
        self.rmws
    }

    /// Total I/Os under `model`.
    #[inline]
    pub fn total(&self, model: IoCostModel) -> u64 {
        self.reads + self.writes + model.rmw_cost() * self.rmws
    }

    /// An immutable copy of the counters, for epoch/delta measurements.
    #[inline]
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot { reads: self.reads, writes: self.writes, rmws: self.rmws }
    }
}

/// A point-in-time copy of [`IoStats`] counters.
///
/// Experiments measure phases as deltas between two snapshots:
///
/// ```
/// use dxh_extmem::{mem_disk, IoCostModel};
/// let mut d = mem_disk(4);
/// let before = d.stats().snapshot();
/// let id = d.allocate().unwrap();
/// let _ = d.read(id).unwrap();
/// let delta = d.stats().snapshot().since(&before);
/// assert_eq!(delta.total(IoCostModel::SeekDominated), 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Plain reads at snapshot time.
    pub reads: u64,
    /// Plain writes at snapshot time.
    pub writes: u64,
    /// Read-modify-writes at snapshot time.
    pub rmws: u64,
}

impl IoSnapshot {
    /// Counter-wise difference `self − earlier`. Panics in debug builds if
    /// `earlier` is not actually earlier (counters are monotone).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        debug_assert!(self.reads >= earlier.reads && self.writes >= earlier.writes);
        IoSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            rmws: self.rmws - earlier.rmws,
        }
    }

    /// Total I/Os in this snapshot/delta under `model`.
    #[inline]
    pub fn total(&self, model: IoCostModel) -> u64 {
        self.reads + self.writes + model.rmw_cost() * self.rmws
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_respect_cost_model() {
        let mut s = IoStats::new();
        s.record_read();
        s.record_write();
        s.record_rmw();
        s.record_rmw();
        assert_eq!(s.total(IoCostModel::SeekDominated), 1 + 1 + 2);
        assert_eq!(s.total(IoCostModel::Strict), 1 + 1 + 4);
    }

    #[test]
    fn snapshot_delta() {
        let mut s = IoStats::new();
        s.record_read();
        let a = s.snapshot();
        s.record_write();
        s.record_rmw();
        let d = s.snapshot().since(&a);
        assert_eq!(d.reads, 0);
        assert_eq!(d.writes, 1);
        assert_eq!(d.rmws, 1);
        assert_eq!(d.total(IoCostModel::SeekDominated), 2);
    }

    #[test]
    fn default_model_is_seek_dominated() {
        assert_eq!(IoCostModel::default(), IoCostModel::SeekDominated);
        assert_eq!(IoCostModel::default().rmw_cost(), 1);
    }
}
