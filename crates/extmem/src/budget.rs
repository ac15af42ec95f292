//! The internal-memory budget `m`.
//!
//! The paper's whole question is what a structure can do with `m` items of
//! internal memory. To keep experiments honest, every structure in this
//! workspace charges its memory-resident state — in items, the same unit
//! as `m` — to a [`MemoryBudget`], and a reservation that would exceed
//! `m` is refused with [`ExtMemError::OutOfBudget`].

use crate::error::{ExtMemError, Result};

/// Tracks internal-memory usage (in items) against a capacity `m`.
#[derive(Clone, Debug)]
pub struct MemoryBudget {
    capacity: usize,
    used: usize,
}

impl MemoryBudget {
    /// A budget of `m` items.
    pub fn new(m: usize) -> Self {
        MemoryBudget { capacity: m, used: 0 }
    }

    /// The capacity `m` in items.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently reserved.
    #[inline]
    pub fn used(&self) -> usize {
        self.used
    }

    /// Items still available.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.capacity - self.used
    }

    /// Reserves `n` items, or returns [`ExtMemError::OutOfBudget`] (usage
    /// unchanged) if that would exceed the capacity.
    pub fn reserve(&mut self, n: usize) -> Result<()> {
        if n > self.remaining() {
            return Err(ExtMemError::OutOfBudget {
                requested: n,
                used: self.used,
                capacity: self.capacity,
            });
        }
        self.used += n;
        Ok(())
    }

    /// Releases `n` previously reserved items. Panics (debug) on underflow —
    /// releasing more than was reserved is always a bug in the structure.
    pub fn release(&mut self, n: usize) {
        debug_assert!(n <= self.used, "budget underflow: release {n} with {} used", self.used);
        self.used = self.used.saturating_sub(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let mut b = MemoryBudget::new(10);
        b.reserve(4).unwrap();
        assert_eq!(b.used(), 4);
        assert_eq!(b.remaining(), 6);
        b.release(1);
        assert_eq!(b.used(), 3);
    }

    #[test]
    fn a_reservation_beyond_capacity_is_refused() {
        let mut b = MemoryBudget::new(2);
        b.reserve(2).unwrap();
        let e = b.reserve(1).unwrap_err();
        assert!(matches!(e, ExtMemError::OutOfBudget { requested: 1, used: 2, capacity: 2 }));
        assert_eq!(b.used(), 2, "failed reservation does not change usage");
    }
}
