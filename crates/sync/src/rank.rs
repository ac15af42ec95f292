//! Lock ranks: the commit path's lock discipline, checked where the code
//! runs.
//!
//! Every [`Mutex`](crate::Mutex) is built with a [`Rank`]. In debug and
//! `model` builds each thread keeps the rank of the one guard it may
//! hold in a slot, and two rules are asserted against it; a break
//! panics:
//!
//! 1. **No nesting.** No lock is acquired while another is held, a
//!    second lock of the same rank included: the inner `lock()` panics
//!    before it can block. A thread therefore holds at most one guard,
//!    so a `Condvar::wait` parks holding nothing but the guard it
//!    releases, and no thread can sleep on a lock the waker needs.
//! 2. **No sync under a hot guard.** [`assert_sync_allowed`], called at
//!    every physical sync of the commit path, panics if the thread holds
//!    a guard whose rank may not span a sync. Only `Store` may: the store
//!    lock is the store's own serialization and spans its hardens.
//!
//! The held slot follows the code across function boundaries, so every
//! test and every schedule the model checker explores runs these checks
//! on whatever the code really holds. Release builds compile it out.

/// Which lock of the commit path a [`Mutex`](crate::Mutex) is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rank {
    /// The sync coordinator's state: dirty set, epoch, shutdown,
    /// checkpoint threshold and counters.
    Coord,
    /// A shard's store.
    Store,
    /// A shard's buffer: its pending queue and drained batches, each
    /// batch's outcome cell included.
    Buf,
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
    use std::cell::Cell;

    thread_local! {
        /// The rank of the guard this thread holds, if any.
        static HELD: Cell<Option<Rank>> = const { Cell::new(None) };
    }

    /// A guard's claim on its thread's held slot. Dropping it empties the
    /// slot, however the guard goes: an early `drop`, a wrapper guard, an
    /// unwind. No other guard can be in the slot: acquiring one while
    /// this one lives panics.
    #[derive(Debug)]
    pub(crate) struct Held(());

    impl Held {
        /// Asserts that the thread holds no guard, then enters a `rank`
        /// lock in its held slot.
        pub(crate) fn acquire(rank: Rank) -> Held {
            if let Some(outer) = HELD.get() {
                panic!(
                    "lock order: acquiring a {rank:?} lock while holding a {outer:?} lock \
                     (no lock nests)"
                );
            }
            HELD.set(Some(rank));
            Held(())
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            // `try_with`: a guard dropped during thread teardown may
            // outlive the slot.
            let _ = HELD.try_with(|h| h.set(None));
        }
    }

    pub(super) fn assert_sync_allowed(site: &str) {
        if let Some(hot) = HELD.get().filter(|&r| r != Rank::Store) {
            panic!(
                "{site}: a physical sync while holding a {hot:?} lock (only Store may span one)"
            );
        }
    }
}

#[cfg(all(test, any(debug_assertions, feature = "model")))]
mod tests {
    use super::*;
    use crate::Mutex;

    const RANKS: [Rank; 3] = [Rank::Coord, Rank::Store, Rank::Buf];

    /// Every ordered pair of ranks, same rank included, panics at the
    /// inner acquire, and the outer guard's unwind empties the slot.
    #[test]
    fn every_nesting_panics() {
        for outer in RANKS {
            for inner in RANKS {
                let (a, b) = (Mutex::new(outer, ()), Mutex::new(inner, ()));
                let nested = std::panic::catch_unwind(|| {
                    let _a = a.lock();
                    let _b = b.lock();
                });
                let msg = nested.expect_err("a nesting must panic");
                let msg = msg.downcast_ref::<String>().expect("a formatted panic");
                let expected = format!(
                    "lock order: acquiring a {inner:?} lock while holding a {outer:?} lock \
                     (no lock nests)"
                );
                assert_eq!(*msg, expected, "{outer:?} → {inner:?}");
                drop(b.lock());
            }
        }
    }

    /// A sync panics under every rank but `Store`. Guards dropped in
    /// turn, and by an unwind, leave the slot empty.
    #[test]
    fn a_sync_under_any_guard_but_store_panics() {
        for rank in RANKS {
            let m = Mutex::new(rank, ());
            let sync_under_it = std::panic::catch_unwind(|| {
                let _g = m.lock();
                assert_sync_allowed("the sync");
            });
            assert_eq!(sync_under_it.is_err(), rank != Rank::Store, "{rank:?}");
        }
        let (buf, coord) = (Mutex::new(Rank::Buf, ()), Mutex::new(Rank::Coord, ()));
        drop(buf.lock());
        drop(coord.lock());
        assert_sync_allowed("after both guards dropped");
    }
}
