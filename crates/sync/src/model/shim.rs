//! Model-mode primitives: same API as the passthrough backend, but
//! every operation is a scheduling point reported to the cooperative
//! scheduler in [`super::sched`].
//!
//! Each primitive keeps its protected value inside a real
//! `std::sync::Mutex` — the scheduler guarantees the std lock is
//! uncontended whenever it is actually taken, so no unsafe interior
//! mutability is needed. Blocking and condvar waits are simulated
//! entirely at the scheduler level. Lock ranks are checked at every
//! acquire, a wait's re-acquire included, inside a checker run or not
//! ([`crate::rank`]).
//!
//! Used from a thread that is *not* a model task (no checker running),
//! every primitive falls back to plain std behavior, so builds with
//! the `model` feature unified in still work outside checker tests.

use super::sched::{self, TaskCtx};
use crate::rank::{Held, Rank};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, PoisonError};
use std::time::Duration;

/// Lazily binds an object to a per-execution resource id. Objects can
/// outlive (or predate) executions; the id is re-assigned on first use
/// within each execution by comparing serials.
#[derive(Debug)]
struct ResourceCell(StdMutex<(u64, usize)>);

#[derive(Clone, Copy)]
enum ResKind {
    Lock,
    Cv,
}

impl Default for ResourceCell {
    fn default() -> Self {
        Self::new()
    }
}

impl ResourceCell {
    const fn new() -> Self {
        ResourceCell(StdMutex::new((0, 0)))
    }

    /// The resource id of this object within `ctx`'s execution,
    /// registering it on first use.
    fn id_for(&self, ctx: &TaskCtx, kind: ResKind) -> usize {
        let mut cell = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if cell.0 != ctx.exec.serial {
            let id = match kind {
                ResKind::Lock => ctx.exec.register_lock(),
                ResKind::Cv => ctx.exec.register_cv(),
            };
            *cell = (ctx.exec.serial, id);
        }
        cell.1
    }
}

// ---------------------------------------------------------------------------
// Mutex

/// Model-mode mutual-exclusion lock; see the passthrough `Mutex` for
/// the API contract.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    rank: Rank,
    rid: ResourceCell,
    inner: StdMutex<T>,
}

/// Guard returned by [`Mutex::lock`].
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so the std guard can be dropped *before* the scheduler
    // release (otherwise the next grantee would block for real) and so
    // `Condvar::wait` can dismantle the guard without triggering the
    // release in `Drop`.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    owner: &'a Mutex<T>,
    model: Option<(TaskCtx, usize)>,
    defused: bool,
    /// This guard's claim on the thread's held slot, given up on drop.
    _held: Held,
}

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex of rank `rank` holding `value`.
    pub const fn new(rank: Rank, value: T) -> Self {
        Mutex { rank, rid: ResourceCell::new(), inner: StdMutex::new(value) }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock through the scheduler (a blocking scheduling
    /// point). Swallows std poison; under a checker run the swallow is
    /// recorded as an explicit event (`Report::poison_swallows`).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = Held::acquire(self.rank);
        let model = sched::ctx().map(|ctx| {
            let id = self.rid.id_for(&ctx, ResKind::Lock);
            sched::op_lock_acquire(&ctx, id);
            (ctx, id)
        });
        let inner = self.inner.lock().unwrap_or_else(|e| {
            if let Some((ctx, _)) = &model {
                sched::note_poison_swallow(ctx);
            }
            e.into_inner()
        });
        MutexGuard { inner: Some(inner), owner: self, model, defused: false, _held: held }
    }

    /// Returns a mutable reference without locking (`&mut self` proves
    /// unique access).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard dismantled")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard dismantled")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the std lock first so the scheduler can hand the
        // model lock to another task without a real block.
        drop(self.inner.take());
        if self.defused {
            return;
        }
        if let Some((ctx, id)) = &self.model {
            sched::op_lock_release(ctx, *id);
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar

/// Result of a [`Condvar::wait_timeout`].
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// `true` if the wait ended because the (modeled) timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Model-mode condition variable. In a checker run the wait parks at
/// the scheduler level (never on the std condvar), wakeups are
/// scheduling choices, and spurious wakeups are injected on purpose.
#[derive(Debug, Default)]
pub struct Condvar {
    rid: ResourceCell,
    // Used only by the non-model fallback path.
    std_cv: StdCondvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar { rid: ResourceCell::new(), std_cv: StdCondvar::new() }
    }

    fn wait_inner<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Option<Duration>,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let mut guard = guard;
        let owner = guard.owner;
        match guard.model.clone() {
            Some((ctx, lock_id)) => {
                let cv_id = self.rid.id_for(&ctx, ResKind::Cv);
                // Dismantle the guard: drop the std lock, suppress the
                // scheduler release (op_cv_wait releases atomically).
                guard.defused = true;
                drop(guard.inner.take());
                drop(guard);
                let timed_out = sched::op_cv_wait(&ctx, cv_id, lock_id, timeout.is_some());
                // The scheduler granted us the model lock back; the
                // std lock underneath is uncontended by construction.
                let inner = owner.inner.lock().unwrap_or_else(|e| {
                    sched::note_poison_swallow(&ctx);
                    e.into_inner()
                });
                (
                    MutexGuard {
                        inner: Some(inner),
                        owner,
                        model: Some((ctx, lock_id)),
                        defused: false,
                        _held: Held::acquire(owner.rank),
                    },
                    WaitTimeoutResult { timed_out },
                )
            }
            None => {
                guard.defused = true;
                let std_guard = guard.inner.take().expect("guard dismantled");
                drop(guard);
                let (std_guard, timed_out) = match timeout {
                    Some(dur) => {
                        let (g, r) = self
                            .std_cv
                            .wait_timeout(std_guard, dur)
                            .unwrap_or_else(PoisonError::into_inner);
                        (g, r.timed_out())
                    }
                    None => {
                        (self.std_cv.wait(std_guard).unwrap_or_else(PoisonError::into_inner), false)
                    }
                };
                (
                    MutexGuard {
                        inner: Some(std_guard),
                        owner,
                        model: None,
                        defused: false,
                        _held: Held::acquire(owner.rank),
                    },
                    WaitTimeoutResult { timed_out },
                )
            }
        }
    }

    /// Atomically releases `guard` and parks until notified (or woken
    /// spuriously — the model injects those). Re-check the predicate
    /// in a loop.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.wait_inner(guard, None).0
    }

    /// Like [`wait`](Condvar::wait) but may also end by timeout. Under
    /// the model, time is abstract: the timeout is simply *allowed* to
    /// fire at any point the mutex is free, so both outcomes are
    /// explored (bound it with `Checker::timeout_budget`).
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        self.wait_inner(guard, Some(dur))
    }

    /// Wakes one waiter (FIFO under the model).
    pub fn notify_one(&self) {
        match sched::ctx() {
            Some(ctx) => {
                let cv_id = self.rid.id_for(&ctx, ResKind::Cv);
                sched::op_cv_notify(&ctx, cv_id, false);
            }
            None => self.std_cv.notify_one(),
        }
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        match sched::ctx() {
            Some(ctx) => {
                let cv_id = self.rid.id_for(&ctx, ResKind::Cv);
                sched::op_cv_notify(&ctx, cv_id, true);
            }
            None => self.std_cv.notify_all(),
        }
    }
}

// ---------------------------------------------------------------------------
// Threads

/// Model-mode thread spawning and scoped threads. Inside a checker
/// run, spawns become scheduler tasks; outside, plain std threads.
pub mod thread {
    use super::super::sched::{self, AbortToken, InjectedPanic, TaskCtx};
    use std::io;
    use std::marker::PhantomData;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::{Arc, Mutex as StdMutex, PoisonError};

    /// Result of joining a thread: `Err` carries the panic payload.
    pub type Result<T> = std::thread::Result<T>;

    fn died<T>() -> Result<T> {
        Err(Box::new("model task died before producing a value".to_string()))
    }

    enum HandleInner<T> {
        Std(std::thread::JoinHandle<T>),
        Model { ctx: TaskCtx, task: usize, slot: Arc<StdMutex<Option<T>>> },
    }

    /// Handle to a spawned thread; join to retrieve its result.
    pub struct JoinHandle<T>(HandleInner<T>);

    impl<T> std::fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("JoinHandle(..)")
        }
    }

    impl<T> JoinHandle<T> {
        /// Waits (at the scheduler level, under the model) for the
        /// thread to finish, returning its result.
        pub fn join(self) -> Result<T> {
            match self.0 {
                HandleInner::Std(h) => h.join(),
                HandleInner::Model { ctx, task, slot } => {
                    sched::op_join(&ctx, task);
                    match slot.lock().unwrap_or_else(PoisonError::into_inner).take() {
                        Some(v) => Ok(v),
                        None => died(),
                    }
                }
            }
        }
    }

    fn spawn_model<F, T>(ctx: &TaskCtx, name: Option<String>, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let slot = Arc::new(StdMutex::new(None));
        let task = sched::op_alloc_task(ctx);
        let exec = Arc::clone(&ctx.exec);
        let slot2 = Arc::clone(&slot);
        let real = std::thread::Builder::new()
            .name(name.unwrap_or_else(|| format!("dxh-model-{task}")))
            .spawn(move || {
                sched::run_task(exec, task, move || {
                    let v = f();
                    *slot2.lock().unwrap_or_else(PoisonError::into_inner) = Some(v);
                })
            })
            .expect("spawn model task");
        sched::op_register_thread(ctx, real);
        // The spawn itself is a preemptible scheduling point: the
        // child may run before the spawner's next line.
        sched::op_yield(ctx, true);
        JoinHandle(HandleInner::Model { ctx: ctx.clone(), task, slot })
    }

    /// Thread factory mirroring `std::thread::Builder` (name only).
    #[derive(Debug, Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        /// Creates a builder with no name set.
        pub fn new() -> Self {
            Self::default()
        }

        /// Names the thread.
        pub fn name(mut self, name: String) -> Self {
            self.name = Some(name);
            self
        }

        /// Spawns the thread (a scheduler task under the model).
        pub fn spawn<F, T>(self, f: F) -> io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            match sched::ctx() {
                Some(ctx) => Ok(spawn_model(&ctx, self.name, f)),
                None => {
                    let mut b = std::thread::Builder::new();
                    if let Some(n) = self.name {
                        b = b.name(n);
                    }
                    b.spawn(f).map(|h| JoinHandle(HandleInner::Std(h)))
                }
            }
        }
    }

    /// Spawns an unnamed thread.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match sched::ctx() {
            Some(ctx) => spawn_model(&ctx, None, f),
            None => JoinHandle(HandleInner::Std(std::thread::spawn(f))),
        }
    }

    /// Yields — under the model, a *voluntary* (free) scheduling
    /// point, so spin-yield loops don't burn preemption budget.
    pub fn yield_now() {
        match sched::ctx() {
            Some(ctx) => sched::op_yield(&ctx, false),
            None => std::thread::yield_now(),
        }
    }

    struct ModelScope {
        ctx: TaskCtx,
        // Arc rather than a borrow: a reference would have to live for
        // the universally-quantified `'scope`, which no local can.
        children: Arc<StdMutex<Vec<usize>>>,
    }

    /// Scope handle passed to the closure of [`scope`].
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
        model: Option<ModelScope>,
    }

    impl std::fmt::Debug for Scope<'_, '_> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Scope(..)")
        }
    }

    enum ScopedInner<'scope, T> {
        Std(std::thread::ScopedJoinHandle<'scope, T>),
        Model {
            ctx: TaskCtx,
            task: usize,
            slot: Arc<StdMutex<Option<T>>>,
            _scope: PhantomData<&'scope ()>,
        },
    }

    /// Handle to a thread spawned inside a [`scope`].
    pub struct ScopedJoinHandle<'scope, T>(ScopedInner<'scope, T>);

    impl<T> std::fmt::Debug for ScopedJoinHandle<'_, T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("ScopedJoinHandle(..)")
        }
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Waits for the thread to finish, returning its result.
        pub fn join(self) -> Result<T> {
            match self.0 {
                ScopedInner::Std(h) => h.join(),
                ScopedInner::Model { ctx, task, slot, .. } => {
                    sched::op_join(&ctx, task);
                    match slot.lock().unwrap_or_else(PoisonError::into_inner).take() {
                        Some(v) => Ok(v),
                        None => died(),
                    }
                }
            }
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread; under the model it is
        /// scheduler-joined automatically when the scope closes.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            match &self.model {
                None => ScopedJoinHandle(ScopedInner::Std(self.inner.spawn(f))),
                Some(ms) => {
                    let slot = Arc::new(StdMutex::new(None));
                    let task = sched::op_alloc_task(&ms.ctx);
                    ms.children.lock().unwrap_or_else(PoisonError::into_inner).push(task);
                    let exec = Arc::clone(&ms.ctx.exec);
                    let slot2 = Arc::clone(&slot);
                    // The real scoped handle is dropped: the std scope
                    // joins the thread at scope exit, after we have
                    // scheduler-joined it (so the real join is instant).
                    self.inner.spawn(move || {
                        sched::run_task(exec, task, move || {
                            let v = f();
                            *slot2.lock().unwrap_or_else(PoisonError::into_inner) = Some(v);
                        });
                    });
                    sched::op_yield(&ms.ctx, true);
                    ScopedJoinHandle(ScopedInner::Model {
                        ctx: ms.ctx.clone(),
                        task,
                        slot,
                        _scope: PhantomData,
                    })
                }
            }
        }
    }

    /// Scope for spawning threads that borrow from the enclosing
    /// frame; mirrors `std::thread::scope` (see the passthrough
    /// backend for the extra-lifetime note). Under the model, children
    /// are scheduler-joined before the scope closes, and a panic in
    /// the scope body is routed through the scheduler *before* the std
    /// scope joins — otherwise the real join would hang on children
    /// still waiting for the scheduler token.
    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
    {
        let ctx = sched::ctx();
        match ctx {
            None => std::thread::scope(|s| f(&Scope { inner: s, model: None })),
            Some(ctx) => {
                let children = Arc::new(StdMutex::new(Vec::new()));
                let outcome = std::thread::scope(|s| {
                    let wrapper = Scope {
                        inner: s,
                        model: Some(ModelScope {
                            ctx: ctx.clone(),
                            children: Arc::clone(&children),
                        }),
                    };
                    let r = panic::catch_unwind(AssertUnwindSafe(|| f(&wrapper)));
                    match &r {
                        Ok(_) => {
                            // Normal exit: scheduler-join every child so
                            // the std scope's real joins return instantly.
                            let kids =
                                children.lock().unwrap_or_else(PoisonError::into_inner).clone();
                            for task in kids {
                                sched::op_join(&ctx, task);
                            }
                        }
                        Err(p) if p.downcast_ref::<AbortToken>().is_some() => {
                            // Execution already aborting; children are
                            // waking up and bailing out on their own.
                        }
                        Err(p) if p.downcast_ref::<InjectedPanic>().is_some() => {
                            // The scope owner "crashed": let the children
                            // run to completion (std semantics: scope
                            // joins before repanicking), then resume.
                            let kids =
                                children.lock().unwrap_or_else(PoisonError::into_inner).clone();
                            for task in kids {
                                sched::op_join(&ctx, task);
                            }
                        }
                        Err(p) => {
                            // A real (non-injected) panic: record it as a
                            // violation and abort so blocked children wake
                            // up instead of deadlocking the real join.
                            let msg = p
                                .downcast_ref::<&str>()
                                .map(|s| (*s).to_string())
                                .or_else(|| p.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic payload".into());
                            sched::record_violation(&ctx, sched::RawViolation::Panic(msg));
                        }
                    }
                    r
                });
                match outcome {
                    Ok(v) => v,
                    Err(p) => panic::resume_unwind(p),
                }
            }
        }
    }
}
