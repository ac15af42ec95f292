//! Lock ranks: the commit path's lock order, checked where the code runs.
//!
//! Every [`Mutex`](crate::Mutex) is built with a [`Rank`]. In debug and
//! `model` builds each thread keeps the set of guards it holds, and
//! three rules are asserted against it; a break panics:
//!
//! 1. **Lock order.** A lock may be acquired while another is held only
//!    as `Buf → Cell`: a batch's answer cell is filled under its shard's
//!    buffer lock, which is what makes a writer's check-then-park
//!    race-free. Any other nesting, a second lock of the same rank
//!    included, panics at the inner `lock()` before it can block.
//! 2. **Wait hygiene.** A `Condvar::wait` or `wait_timeout` holds the
//!    waited-on guard and nothing else: a thread parked while holding a
//!    second lock deadlocks whoever needs that lock to wake it.
//! 3. **No sync under a hot guard.** [`assert_sync_allowed`], called at
//!    every physical sync of the commit path, panics if the thread holds
//!    a guard whose rank may not span a sync. Only `Store` may: the store
//!    lock is the store's own serialization and spans its hardens.
//!
//! The held set follows the code across function boundaries, so every
//! test and every schedule the model checker explores runs these checks
//! on whatever the code really nests. Release builds compile it out.

/// Which lock of the commit path a [`Mutex`](crate::Mutex) is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rank {
    /// The sync coordinator's state: dirty set, epoch, shutdown.
    Coord,
    /// A shard's store.
    Store,
    /// A shard's buffer: its pending queue, overlay and drained batches.
    Buf,
    /// One batch's answer cell.
    Cell,
}

#[cfg(any(debug_assertions, feature = "model"))]
pub(crate) use held::Held;

/// Asserts that the calling thread holds no guard whose rank may not be
/// held across a physical sync (every rank but [`Rank::Store`]); `site`
/// names the sync in the panic. A no-op in release builds.
pub fn assert_sync_allowed(site: &str) {
    #[cfg(any(debug_assertions, feature = "model"))]
    held::assert_sync_allowed(site);
    #[cfg(not(any(debug_assertions, feature = "model")))]
    let _ = site;
}

#[cfg(any(debug_assertions, feature = "model"))]
mod held {
    use super::Rank;
    use std::cell::RefCell;

    impl Rank {
        /// Whether `inner` may be acquired while a guard of this rank is
        /// held.
        fn may_nest(self, inner: Rank) -> bool {
            matches!((self, inner), (Rank::Buf, Rank::Cell))
        }

        /// Whether a guard of this rank may be held across a physical
        /// sync.
        fn may_span_sync(self) -> bool {
            self == Rank::Store
        }
    }

    thread_local! {
        /// The guards this thread holds, oldest first: each one's rank
        /// and its lock's address.
        static HELD: RefCell<Vec<(Rank, usize)>> = const { RefCell::new(Vec::new()) };
    }

    /// A guard's entry in its thread's held set. Dropping it leaves the
    /// set, in whatever order the guards go: an early `drop`, a wrapper
    /// guard, an unwind.
    #[derive(Debug)]
    pub(crate) struct Held {
        rank: Rank,
        lock: usize,
    }

    impl Held {
        /// Asserts that a `rank` lock may be acquired now, then enters
        /// the lock at address `lock` in the held set.
        pub(crate) fn acquire(rank: Rank, lock: usize) -> Held {
            let outer = HELD.with_borrow(|h| h.iter().map(|e| e.0).find(|o| !o.may_nest(rank)));
            if let Some(outer) = outer {
                panic!(
                    "lock order: acquiring a {rank:?} lock while holding a {outer:?} lock \
                     (only Buf → Cell may nest)"
                );
            }
            HELD.with_borrow_mut(|h| h.push((rank, lock)));
            Held { rank, lock }
        }

        /// Asserts that this guard is the only one its thread holds: a
        /// condvar wait parks holding nothing else.
        pub(crate) fn assert_alone(&self) {
            let others: Vec<Rank> =
                HELD.with_borrow(|h| h.iter().filter(|e| e.1 != self.lock).map(|e| e.0).collect());
            assert!(
                others.is_empty(),
                "condvar wait on a {:?} guard while also holding {others:?}",
                self.rank
            );
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            // `try_with`: a guard dropped during thread teardown may
            // outlive the set.
            let _ = HELD.try_with(|h| {
                let mut h = h.borrow_mut();
                if let Some(i) = h.iter().rposition(|e| e.1 == self.lock) {
                    h.remove(i);
                }
            });
        }
    }

    pub(super) fn assert_sync_allowed(site: &str) {
        let hot = HELD.with_borrow(|h| h.iter().map(|e| e.0).find(|r| !r.may_span_sync()));
        if let Some(hot) = hot {
            panic!(
                "{site}: a physical sync while holding a {hot:?} lock (only Store may span one)"
            );
        }
    }
}

#[cfg(all(test, any(debug_assertions, feature = "model")))]
mod tests {
    use super::*;
    use crate::{Condvar, Mutex};

    #[test]
    #[should_panic(expected = "acquiring a Buf lock while holding a Buf lock")]
    fn a_same_rank_nesting_panics() {
        let (a, b) = (Mutex::new(Rank::Buf, ()), Mutex::new(Rank::Buf, ()));
        let _a = a.lock();
        let _b = b.lock();
    }

    #[test]
    #[should_panic(expected = "acquiring a Buf lock while holding a Cell lock")]
    fn a_cell_to_buf_nesting_panics() {
        let (buf, cell) = (Mutex::new(Rank::Buf, ()), Mutex::new(Rank::Cell, ()));
        let _cell = cell.lock();
        let _buf = buf.lock();
    }

    /// `Buf → Cell` nests, so the wait is the one rule broken here.
    #[test]
    #[should_panic(expected = "condvar wait on a Cell guard while also holding [Buf]")]
    fn a_wait_holding_a_second_guard_panics() {
        let (buf, cell, cv) =
            (Mutex::new(Rank::Buf, ()), Mutex::new(Rank::Cell, ()), Condvar::new());
        let _buf = buf.lock();
        let g = cell.lock();
        let _ = cv.wait_timeout(g, std::time::Duration::from_millis(1));
    }

    /// A sync panics under every rank but `Store`. Guards dropped out of
    /// order, and by an unwind, leave the held set.
    #[test]
    fn a_sync_under_any_guard_but_store_panics() {
        for rank in [Rank::Buf, Rank::Coord, Rank::Cell, Rank::Store] {
            let m = Mutex::new(rank, ());
            let sync_under_it = std::panic::catch_unwind(|| {
                let _g = m.lock();
                assert_sync_allowed("the sync");
            });
            assert_eq!(sync_under_it.is_err(), rank != Rank::Store, "{rank:?}");
        }
        let (buf, cell) = (Mutex::new(Rank::Buf, ()), Mutex::new(Rank::Cell, ()));
        let b = buf.lock();
        let c = cell.lock();
        drop(b);
        drop(c);
        assert_sync_allowed("after out-of-order drops");
    }
}
