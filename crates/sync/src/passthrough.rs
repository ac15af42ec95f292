//! Passthrough backend: `std::sync` with poison swallowed, and in debug
//! builds the lock ranks of [`crate::rank`] checked.
//!
//! The commit path's panic story is wedging at the protocol layer (a
//! dead committer fails every queued op explicitly; see
//! `docs/COMMIT_PATH.md` § failure matrix), so lock poisoning — std's
//! panic story — is deliberately neutralized here with
//! `PoisonError::into_inner`. Under the model backend the same swallow
//! is an explicit *checked event* (`Report::poison_swallows`), which is
//! how the model checks of the real service show a committer panic
//! cannot strand a parked writer.

use std::sync::{self as std_sync, PoisonError};
use std::time::Duration;

#[cfg(debug_assertions)]
use crate::rank::Held;
use crate::rank::Rank;

/// A mutual-exclusion lock. Identical to [`std::sync::Mutex`] except
/// that it carries a [`Rank`] and [`lock`](Mutex::lock) returns the
/// guard directly, swallowing poison instead of propagating it. Debug
/// builds check the rank at every acquire ([`crate::rank`]).
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: Rank,
    inner: std_sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`].
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std_sync::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    held: Held,
}

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex of rank `rank` holding `value`.
    pub const fn new(rank: Rank, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Self {
            #[cfg(debug_assertions)]
            rank,
            inner: std_sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available. Poison from a
    /// previous panicking holder is swallowed.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            #[cfg(debug_assertions)]
            held: Held::acquire(self.rank),
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Returns a mutable reference to the protected value without
    /// locking (possible because `&mut self` proves unique access).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Result of a [`Condvar::wait_timeout`]: whether the wait ended by
/// timeout rather than notification.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    pub(crate) timed_out: bool,
}

impl WaitTimeoutResult {
    /// `true` if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable paired with a [`Mutex`]. Wait methods swallow
/// poison, mirroring [`Mutex::lock`].
#[derive(Debug, Default)]
pub struct Condvar(std_sync::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self(std_sync::Condvar::new())
    }

    /// Atomically releases `guard` and blocks until notified. Callers
    /// must re-check their predicate in a loop: spurious wakeups are
    /// allowed (and the model backend injects them on purpose).
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        MutexGuard {
            inner: self.0.wait(guard.inner).unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            held: guard.held,
        }
    }

    /// Like [`wait`](Condvar::wait) but also returns after `dur`.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let (inner, r) =
            self.0.wait_timeout(guard.inner, dur).unwrap_or_else(PoisonError::into_inner);
        let guard = MutexGuard {
            inner,
            #[cfg(debug_assertions)]
            held: guard.held,
        };
        (guard, WaitTimeoutResult { timed_out: r.timed_out() })
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Thread spawning and scoped threads — `std::thread` re-surfaced so
/// callers never name `std::thread::spawn` directly (the clippy
/// disallowed-methods gate in `crates/core/clippy.toml` enforces this
/// for `dxh-core`).
pub mod thread {
    use std::io;

    /// Result of joining a thread: `Err` carries the panic payload.
    pub type Result<T> = std::thread::Result<T>;

    /// Handle to a spawned thread; join to retrieve its result.
    #[derive(Debug)]
    pub struct JoinHandle<T>(std::thread::JoinHandle<T>);

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish, returning its result.
        pub fn join(self) -> Result<T> {
            self.0.join()
        }
    }

    /// Thread factory mirroring [`std::thread::Builder`] (name only —
    /// the subset the commit path uses).
    #[derive(Debug, Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        /// Creates a builder with no name set.
        pub fn new() -> Self {
            Self::default()
        }

        /// Names the thread (shows up in panic messages and debuggers).
        pub fn name(mut self, name: String) -> Self {
            self.name = Some(name);
            self
        }

        /// Spawns the thread.
        pub fn spawn<F, T>(self, f: F) -> io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            let mut b = std::thread::Builder::new();
            if let Some(n) = self.name {
                b = b.name(n);
            }
            b.spawn(f).map(JoinHandle)
        }
    }

    /// Spawns an unnamed thread. See [`std::thread::spawn`].
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        JoinHandle(std::thread::spawn(f))
    }

    /// Yields the current thread's timeslice. Under the model backend
    /// this is an explicit scheduling point.
    pub fn yield_now() {
        std::thread::yield_now();
    }

    /// Scope for spawning threads that borrow from the enclosing frame.
    /// Mirrors [`std::thread::scope`]; the closure receives `&Scope`
    /// (an extra indirection over std's invariant `Scope`) because a
    /// newtype cannot reproduce std's exact signature — call sites
    /// look identical in practice.
    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
    {
        std::thread::scope(|s| f(&Scope { inner: s }))
    }

    /// Scope handle passed to the closure of [`scope`].
    #[derive(Debug)]
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Handle to a thread spawned inside a [`scope`].
    #[derive(Debug)]
    pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Waits for the thread to finish, returning its result.
        pub fn join(self) -> Result<T> {
            self.0.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread; it is joined automatically when the
        /// scope closes if its handle was dropped.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            ScopedJoinHandle(self.inner.spawn(f))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(Rank::Buf, 7);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 8);
        assert_eq!(m.into_inner(), 8);
    }

    #[test]
    fn condvar_wait_notify() {
        use std::sync::Arc;
        let pair = Arc::new((Mutex::new(Rank::Buf, false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        while !*g {
            g = cv.wait(g);
        }
        drop(g);
        h.join().unwrap();
    }

    #[test]
    fn wait_timeout_times_out() {
        let m = Mutex::new(Rank::Coord, ());
        let cv = Condvar::new();
        let (_g, r) = cv.wait_timeout(m.lock(), std::time::Duration::from_millis(1));
        assert!(r.timed_out());
    }

    #[test]
    fn poison_is_swallowed() {
        use std::sync::Arc;
        let m = Arc::new(Mutex::new(Rank::Store, 41));
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison me");
        });
        assert!(h.join().is_err());
        // The poisoned lock still hands out its value.
        assert_eq!(*m.lock(), 41);
    }

    #[test]
    fn scoped_threads_borrow() {
        let data = [1u64, 2, 3, 4];
        let total: u64 = thread::scope(|s| {
            let hs: Vec<_> =
                data.chunks(2).map(|c| s.spawn(move || c.iter().sum::<u64>())).collect();
            hs.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, 10);
    }

    #[test]
    fn builder_names_thread() {
        let h = thread::Builder::new()
            .name("dxh-test".into())
            .spawn(|| std::thread::current().name().map(str::to_owned))
            .unwrap();
        assert_eq!(h.join().unwrap().as_deref(), Some("dxh-test"));
    }
}
