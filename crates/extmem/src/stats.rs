//! I/O accounting: the complexity measure of the external memory model.

/// The I/O pricing convention — there is one.
///
/// Footnote 2 of the paper: "since disk I/Os are dominated by the seek
/// time, writing a block immediately after reading it can be considered as
/// one I/O". All of the paper's bounds (`1 + 1/2^Ω(b)` insertions for the
/// standard table, etc.) use that convention, and so does every
/// [`IoStats::total`] here. The literal count of block transfers, a
/// read-modify-write as two, is [`IoSnapshot::transfers`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoCostModel {
    /// Read-then-write-back of one block costs **1** I/O (paper's model).
    SeekDominated,
}

/// Monotone counters of block transfers performed by a [`crate::Disk`].
///
/// `reads` and `writes` count plain transfers; `rmws` counts combined
/// read-modify-write operations, one I/O each (footnote 2).
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

    /// Total I/Os, a read-modify-write as one (footnote 2).
    #[inline]
    pub fn total(&self) -> u64 {
        self.snapshot().total()
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
/// use dxh_extmem::mem_disk;
/// let mut d = mem_disk(4);
/// let before = d.stats().snapshot();
/// let id = d.allocate().unwrap();
/// let _ = d.read(id).unwrap();
/// d.read_modify_write(id, |_| ()).unwrap();
/// let delta = d.stats().snapshot().since(&before);
/// assert_eq!(delta.total(), 2); // footnote 2: the read-modify-write is one I/O
/// assert_eq!(delta.transfers(), 3); // ... and two block transfers
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

    /// Total I/Os in this snapshot/delta, a read-modify-write as one
    /// (footnote 2): the measure of every bound, gate and metric.
    #[inline]
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.rmws
    }

    /// The literal number of block transfers, a read-modify-write as two.
    #[inline]
    pub fn transfers(&self) -> u64 {
        self.reads + self.writes + 2 * self.rmws
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_counts_a_rmw_once_and_transfers_twice() {
        let mut s = IoStats::new();
        s.record_read();
        s.record_write();
        s.record_rmw();
        s.record_rmw();
        assert_eq!(s.total(), 1 + 1 + 2);
        assert_eq!(s.snapshot().transfers(), 1 + 1 + 4);
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
        assert_eq!(d.total(), 2);
    }
}
