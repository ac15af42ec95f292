//! Replayable operation traces.

use dxh_extmem::{Key, Value};

/// One dictionary operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Insert (or upsert) `key ↦ value`.
    Insert(Key, Value),
    /// Point lookup.
    Lookup(Key),
    /// Delete.
    Delete(Key),
}

/// A sequence of operations, replayable against any dictionary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// The operations, in execution order.
    pub ops: Vec<Op>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Counts per operation class `(inserts, lookups, deletes)`.
    pub fn histogram(&self) -> (usize, usize, usize) {
        let mut h = (0, 0, 0);
        for op in &self.ops {
            match op {
                Op::Insert(..) => h.0 += 1,
                Op::Lookup(_) => h.1 += 1,
                Op::Delete(_) => h.2 += 1,
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            ops: vec![
                Op::Insert(1, 10),
                Op::Lookup(1),
                Op::Delete(1),
                Op::Insert(u64::MAX - 1, u64::MAX),
                Op::Lookup(999),
            ],
        }
    }

    #[test]
    fn histogram_counts() {
        assert_eq!(sample().histogram(), (2, 2, 1));
    }
}
