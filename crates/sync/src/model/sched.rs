//! The cooperative scheduler behind the model backend.
//!
//! Every model "thread" is a real OS thread, but a token-passing
//! protocol serializes them: a task runs only while it holds the token
//! (`current == my_id && !runner_turn`), and every synchronization
//! operation hands the token back to the runner, which consults the
//! exploration strategy to decide who steps next. Blocking (lock
//! contention, condvar waits, joins) is simulated entirely at this
//! level — blocked tasks park on the scheduler's own condvar, never on
//! the primitive they appear to block on — so the runner sees the full
//! wait graph and can detect deadlocks exactly (a lost wakeup manifests
//! as a deadlock: the waiter's notify never comes and nothing else can
//! run).
//!
//! Preemption accounting follows CHESS: a switch away from a task that
//! yielded at a *non-blocking* point (unlock, notify, spawn) costs one unit of the preemption budget; switches at
//! voluntary or blocking points are free. Bounding preemptions keeps
//! the DFS tractable while catching most real concurrency bugs.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Bumped once per execution; primitives created outside the current
/// execution re-register lazily when they observe a stale serial.
static EXEC_SERIAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CTX: RefCell<Option<TaskCtx>> = const { RefCell::new(None) };
}

/// Panic payload used to tear down tasks after an abort. Caught (and
/// swallowed) by the task wrapper.
pub(crate) struct AbortToken;

/// Panic payload produced by [`crate::model::inject_panic`]. The task
/// wrapper treats it as ordinary task death, not a violation — it
/// models "this thread panicked" without failing the check.
pub(crate) struct InjectedPanic;

/// The calling task's identity: which execution it belongs to and its
/// task id within it.
#[derive(Clone, Debug)]
pub(crate) struct TaskCtx {
    pub(crate) exec: Arc<Execution>,
    pub(crate) id: usize,
}

/// Returns the model context of the calling thread, if it is a task of
/// a live execution. `None` means the caller is an ordinary thread and
/// all primitives fall back to plain std behavior.
pub(crate) fn ctx() -> Option<TaskCtx> {
    CTX.with(|c| c.borrow().clone())
}

/// Per-execution knobs, set by the `Checker` builder methods.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RunCfg {
    pub(crate) preemption_bound: u32,
    pub(crate) spurious_budget: u32,
    pub(crate) timeout_budget: u32,
    pub(crate) max_steps: u64,
}

/// One recorded scheduling decision: which candidate was chosen out of
/// how many. The sequence of these is the schedule trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChoiceRec {
    pub(crate) chosen: u8,
    pub(crate) n: u8,
}

/// What a violation was, before the `Checker` dresses it up with the
/// trace string and fingerprint.
#[derive(Clone, Debug)]
pub(crate) enum RawViolation {
    /// No task can take a step but not all have finished.
    Deadlock(String),
    /// The step budget ran out — some tasks never settle.
    Livelock(String),
    /// A task panicked with a payload the model did not inject.
    Panic(String),
    /// A replayed trace diverged from the execution it claims to drive.
    ReplayMismatch(String),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// Can take its next step. `preemptible` records whether the task
    /// yielded at a non-blocking point (switching away costs budget).
    Runnable {
        preemptible: bool,
    },
    WantLock(usize),
    WaitCv {
        cv: usize,
        lock: usize,
        timed: bool,
        notified: bool,
    },
    Joining(usize),
    Finished,
}

#[derive(Debug)]
struct Task {
    state: TaskState,
    /// How the last condvar wait ended (for `wait_timeout`'s result).
    woke_by_timeout: bool,
}

#[derive(Debug, Default)]
struct LockRes {
    owner: Option<usize>,
}

#[derive(Debug, Default)]
struct CvRes {
    /// Waiters in arrival order; `notify_one` marks them FIFO.
    queue: Vec<usize>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flavor {
    Run,
    Lock,
    CvNotified,
    CvTimeout,
    CvSpurious,
    Join,
}

#[derive(Clone, Copy, Debug)]
struct Cand {
    tid: usize,
    flavor: Flavor,
}

struct ExecState {
    tasks: Vec<Task>,
    locks: Vec<LockRes>,
    cvs: Vec<CvRes>,
    current: usize,
    last_running: usize,
    runner_turn: bool,
    aborted: bool,
    violation: Option<RawViolation>,
    choices: Vec<ChoiceRec>,
    preemptions: u32,
    spurious_used: u32,
    timeouts_used: u32,
    steps: u64,
    poison_swallows: u64,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// One model execution: the scheduler state plus the handshake condvar
/// every task (and the runner) parks on.
pub(crate) struct Execution {
    pub(crate) serial: u64,
    cfg: RunCfg,
    m: StdMutex<ExecState>,
    cv: StdCondvar,
}

impl std::fmt::Debug for Execution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Execution").field("serial", &self.serial).finish()
    }
}

/// Result of one execution, consumed by the `Checker`.
pub(crate) struct ExecOutcome {
    pub(crate) violation: Option<RawViolation>,
    pub(crate) choices: Vec<ChoiceRec>,
    pub(crate) poison_swallows: u64,
    pub(crate) spurious_injected: u64,
}

/// The exploration strategy: maps (depth, candidate count) to a choice.
pub(crate) trait Chooser {
    /// Picks a candidate index in `0..n` for the decision at `depth`.
    /// `Err` aborts the execution as a replay mismatch.
    fn choose(&mut self, depth: usize, n: usize) -> Result<usize, String>;
}

fn lock_state(m: &StdMutex<ExecState>) -> StdMutexGuard<'_, ExecState> {
    // The scheduler lock is poisoned only if the runner itself
    // panicked; swallowing lets tasks still tear down.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Execution {
    fn new(cfg: RunCfg) -> Self {
        Execution {
            serial: EXEC_SERIAL.fetch_add(1, Ordering::Relaxed) + 1,
            cfg,
            m: StdMutex::new(ExecState {
                tasks: vec![Task {
                    state: TaskState::Runnable { preemptible: false },
                    woke_by_timeout: false,
                }],
                locks: Vec::new(),
                cvs: Vec::new(),
                current: 0,
                last_running: 0,
                runner_turn: true,
                aborted: false,
                violation: None,
                choices: Vec::new(),
                preemptions: 0,
                spurious_used: 0,
                timeouts_used: 0,
                steps: 0,
                poison_swallows: 0,
                threads: Vec::new(),
            }),
            cv: StdCondvar::new(),
        }
    }

    /// Registers a new lock resource (called lazily on first use of a
    /// mutex within this execution).
    pub(crate) fn register_lock(&self) -> usize {
        let mut st = lock_state(&self.m);
        st.locks.push(LockRes::default());
        st.locks.len() - 1
    }

    /// Registers a new condvar resource.
    pub(crate) fn register_cv(&self) -> usize {
        let mut st = lock_state(&self.m);
        st.cvs.push(CvRes::default());
        st.cvs.len() - 1
    }

    /// Core task-side primitive: applies `effect` under the scheduler
    /// lock, hands the turn to the runner, and blocks until the runner
    /// grants this task the token again. Returns `false` if the
    /// execution aborted while the caller was parked (in which case the
    /// caller must unwind — or, if already unwinding, just bail out).
    fn yield_with(&self, me: usize, effect: impl FnOnce(&mut ExecState)) -> bool {
        let mut st = lock_state(&self.m);
        if st.aborted {
            return false;
        }
        effect(&mut st);
        st.runner_turn = true;
        self.cv.notify_all();
        loop {
            if st.aborted {
                return false;
            }
            if st.current == me && !st.runner_turn {
                return true;
            }
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn candidates(&self, st: &ExecState) -> Vec<Cand> {
        let mut v = Vec::new();
        for (tid, t) in st.tasks.iter().enumerate() {
            match t.state {
                TaskState::Runnable { .. } => v.push(Cand { tid, flavor: Flavor::Run }),
                TaskState::WantLock(r) => {
                    if st.locks[r].owner.is_none() {
                        v.push(Cand { tid, flavor: Flavor::Lock });
                    }
                }
                TaskState::WaitCv { lock, timed, notified, .. } => {
                    if st.locks[lock].owner.is_none() {
                        if notified {
                            v.push(Cand { tid, flavor: Flavor::CvNotified });
                        } else {
                            // Branching timeouts are budget-limited: an
                            // unlimited budget would let the explorer
                            // take "timer fires, recheck, wait again"
                            // forever — an unfair infinite schedule no
                            // real clock produces. Once the budget is
                            // spent, timeouts fire only as a last
                            // resort (below).
                            if timed && st.timeouts_used < self.cfg.timeout_budget {
                                v.push(Cand { tid, flavor: Flavor::CvTimeout });
                            }
                            if st.spurious_used < self.cfg.spurious_budget {
                                v.push(Cand { tid, flavor: Flavor::CvSpurious });
                            }
                        }
                    }
                }
                TaskState::Joining(target) => {
                    if st.tasks[target].state == TaskState::Finished {
                        v.push(Cand { tid, flavor: Flavor::Join });
                    }
                }
                TaskState::Finished => {}
            }
        }
        // Last resort: nothing else can run, but a timed waiter's
        // timer *will* eventually fire. Waking it here (not counted
        // against the budget — it is forced, not a branch) avoids
        // reporting a false deadlock for timeout-driven polling loops.
        // With `timeout_budget(0)` timeouts never fire at all, which is
        // how a protocol is proven deadlock-free without relying on its
        // timeout escape hatches.
        if v.is_empty() && self.cfg.timeout_budget > 0 {
            for (tid, t) in st.tasks.iter().enumerate() {
                if let TaskState::WaitCv { lock, timed: true, notified: false, .. } = t.state {
                    if st.locks[lock].owner.is_none() {
                        v.push(Cand { tid, flavor: Flavor::CvTimeout });
                    }
                }
            }
        }
        // Deterministic order: the task that just ran first (so DFS
        // choice 0 means "keep running it"), then by task id, then by
        // wake flavor.
        let last = st.last_running;
        v.sort_by_key(|c| (usize::from(c.tid != last), c.tid, c.flavor as u8));
        // Bounded preemption: once the budget is spent, a task that
        // yielded at a non-blocking point must keep running.
        if st.preemptions >= self.cfg.preemption_bound
            && st.tasks[last].state == (TaskState::Runnable { preemptible: true })
            && v.iter().any(|c| c.tid == last)
        {
            v.retain(|c| c.tid == last);
        }
        v
    }

    fn apply(&self, st: &mut ExecState, c: Cand) {
        let last = st.last_running;
        if c.tid != last && st.tasks[last].state == (TaskState::Runnable { preemptible: true }) {
            st.preemptions += 1;
        }
        let prior = st.tasks[c.tid].state;
        match c.flavor {
            Flavor::Run | Flavor::Join => {}
            Flavor::Lock => {
                let TaskState::WantLock(r) = prior else { unreachable!("flavor/state mismatch") };
                st.locks[r].owner = Some(c.tid);
            }
            Flavor::CvNotified | Flavor::CvTimeout | Flavor::CvSpurious => {
                let (cv, lock) = match prior {
                    TaskState::WaitCv { cv, lock, .. } => (cv, lock),
                    _ => unreachable!("flavor/state mismatch"),
                };
                st.cvs[cv].queue.retain(|&w| w != c.tid);
                st.locks[lock].owner = Some(c.tid);
                st.tasks[c.tid].woke_by_timeout = c.flavor == Flavor::CvTimeout;
                match c.flavor {
                    Flavor::CvTimeout => st.timeouts_used += 1,
                    Flavor::CvSpurious => st.spurious_used += 1,
                    _ => {}
                }
            }
        }
        st.tasks[c.tid].state = TaskState::Runnable { preemptible: false };
        st.current = c.tid;
        st.last_running = c.tid;
        st.runner_turn = false;
    }

    fn describe_stuck(&self, st: &ExecState) -> String {
        let mut parts = Vec::new();
        for (tid, t) in st.tasks.iter().enumerate() {
            let s = match t.state {
                TaskState::Finished => continue,
                TaskState::Runnable { .. } => continue,
                TaskState::WantLock(r) => match st.locks[r].owner {
                    Some(o) => format!("task {tid} blocked locking m{r} (held by task {o})"),
                    None => format!("task {tid} blocked locking m{r}"),
                },
                TaskState::WaitCv { cv, lock, notified, .. } => {
                    if notified {
                        format!("task {tid} notified on c{cv} but m{lock} never freed")
                    } else {
                        format!("task {tid} waiting on c{cv} (m{lock}), never notified")
                    }
                }
                TaskState::Joining(t2) => format!("task {tid} joining task {t2}"),
            };
            parts.push(s);
        }
        if parts.is_empty() {
            "no runnable task".into()
        } else {
            parts.join("; ")
        }
    }

    fn abort_locked(&self, st: &mut ExecState, v: Option<RawViolation>) {
        if st.violation.is_none() {
            st.violation = v;
        }
        st.aborted = true;
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Task-side operations (called from the shim primitives).

fn current_or_bail(ctx: &TaskCtx, granted: bool) {
    // `yield_with` returned false: the execution aborted while we were
    // parked. Unwind with the abort token — unless this thread is
    // already unwinding (a guard drop during a panic), where a second
    // panic would abort the process; then just keep going, the wrapper
    // swallows everything during teardown.
    if !granted && !std::thread::panicking() {
        let _ = ctx;
        // resume_unwind, not panic_any: same unwind, same catch, but
        // the default panic hook stays silent — teardown of dozens of
        // tasks per execution must not spam stderr.
        panic::resume_unwind(Box::new(AbortToken));
    }
}

/// A plain scheduling point (`yield_now`, post-spawn).
pub(crate) fn op_yield(ctx: &TaskCtx, preemptible: bool) {
    let me = ctx.id;
    let granted = ctx.exec.yield_with(me, |st| {
        st.tasks[me].state = TaskState::Runnable { preemptible };
    });
    current_or_bail(ctx, granted);
}

/// Blocks until the scheduler grants exclusive ownership of lock `r`.
pub(crate) fn op_lock_acquire(ctx: &TaskCtx, r: usize) {
    let me = ctx.id;
    let granted = ctx.exec.yield_with(me, |st| {
        st.tasks[me].state = TaskState::WantLock(r);
    });
    current_or_bail(ctx, granted);
}

/// Releases lock `r`; a non-blocking point, so the switch (if any) is
/// a preemption.
pub(crate) fn op_lock_release(ctx: &TaskCtx, r: usize) {
    let me = ctx.id;
    let granted = ctx.exec.yield_with(me, |st| {
        st.locks[r].owner = None;
        st.tasks[me].state = TaskState::Runnable { preemptible: true };
    });
    current_or_bail(ctx, granted);
}

/// Atomically releases lock `lock` and parks on condvar `cv`. Returns
/// `true` if the wait ended by (modeled) timeout. On return the lock
/// is owned by the caller again at the model level; the caller then
/// re-acquires the (uncontended) std mutex underneath.
pub(crate) fn op_cv_wait(ctx: &TaskCtx, cv: usize, lock: usize, timed: bool) -> bool {
    let me = ctx.id;
    let granted = ctx.exec.yield_with(me, |st| {
        st.locks[lock].owner = None;
        st.cvs[cv].queue.push(me);
        st.tasks[me].state = TaskState::WaitCv { cv, lock, timed, notified: false };
    });
    current_or_bail(ctx, granted);
    if !granted {
        return false;
    }
    let st = lock_state(&ctx.exec.m);
    st.tasks[me].woke_by_timeout
}

/// Marks waiters on `cv` notified (FIFO for `notify_one`).
pub(crate) fn op_cv_notify(ctx: &TaskCtx, cv: usize, all: bool) {
    let me = ctx.id;
    let granted = ctx.exec.yield_with(me, |st| {
        let queue = st.cvs[cv].queue.clone();
        for w in queue {
            if let TaskState::WaitCv { notified, .. } = &mut st.tasks[w].state {
                if !*notified {
                    *notified = true;
                    if !all {
                        break;
                    }
                }
            }
        }
        st.tasks[me].state = TaskState::Runnable { preemptible: true };
    });
    current_or_bail(ctx, granted);
}

/// Blocks until task `target` finishes.
pub(crate) fn op_join(ctx: &TaskCtx, target: usize) {
    let me = ctx.id;
    let granted = ctx.exec.yield_with(me, |st| {
        st.tasks[me].state = TaskState::Joining(target);
    });
    current_or_bail(ctx, granted);
}

/// Allocates a task id for a child about to be spawned. No scheduling
/// point by itself — the spawner still holds the token; callers follow
/// up with [`op_yield`] once the real thread exists.
pub(crate) fn op_alloc_task(ctx: &TaskCtx) -> usize {
    let mut st = lock_state(&ctx.exec.m);
    st.tasks
        .push(Task { state: TaskState::Runnable { preemptible: false }, woke_by_timeout: false });
    st.tasks.len() - 1
}

/// Hands the runner a real thread handle to join at teardown.
pub(crate) fn op_register_thread(ctx: &TaskCtx, h: std::thread::JoinHandle<()>) {
    let mut st = lock_state(&ctx.exec.m);
    st.threads.push(h);
}

/// Records a poison-swallow: a model-mode `lock()` observed (and
/// recovered from) std poison left by a panicking prior holder. An
/// explicit checked event — see `Report::poison_swallows`.
pub(crate) fn note_poison_swallow(ctx: &TaskCtx) {
    let mut st = lock_state(&ctx.exec.m);
    st.poison_swallows += 1;
}

/// Records a violation (first one wins) and aborts the execution.
pub(crate) fn record_violation(ctx: &TaskCtx, v: RawViolation) {
    let mut st = lock_state(&ctx.exec.m);
    ctx.exec.abort_locked(&mut st, Some(v));
    st.runner_turn = true;
    ctx.exec.cv.notify_all();
}

fn payload_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// The wrapper every model task's real thread runs: waits for its
/// first grant, runs the body, classifies any panic, and marks the
/// task finished.
pub(crate) fn run_task(exec: Arc<Execution>, id: usize, f: impl FnOnce()) {
    let ctx = TaskCtx { exec: Arc::clone(&exec), id };
    CTX.with(|c| *c.borrow_mut() = Some(ctx.clone()));

    // Wait for the first grant (the runner picks us as a Run candidate).
    let mut started = false;
    {
        let mut st = lock_state(&exec.m);
        loop {
            if st.aborted {
                break;
            }
            if st.current == id && !st.runner_turn {
                started = true;
                break;
            }
            st = exec.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    if started {
        match panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(()) => {}
            Err(p) if p.downcast_ref::<AbortToken>().is_some() => {}
            Err(p) if p.downcast_ref::<InjectedPanic>().is_some() => {}
            Err(p) => {
                record_violation(&ctx, RawViolation::Panic(payload_msg(p.as_ref())));
            }
        }
    }

    let mut st = lock_state(&exec.m);
    st.tasks[id].state = TaskState::Finished;
    st.runner_turn = true;
    exec.cv.notify_all();
    drop(st);
    CTX.with(|c| *c.borrow_mut() = None);
}

// ---------------------------------------------------------------------------
// The runner.

/// Runs one complete execution of `f` under the scheduler, driving
/// scheduling decisions through `chooser`.
pub(crate) fn run_execution(
    cfg: RunCfg,
    chooser: &mut dyn Chooser,
    f: Arc<dyn Fn() + Send + Sync>,
) -> ExecOutcome {
    let exec = Arc::new(Execution::new(cfg));

    // Task 0: the test body itself.
    let handle = {
        let exec2 = Arc::clone(&exec);
        std::thread::Builder::new()
            .name("dxh-model-0".into())
            .spawn(move || run_task(exec2, 0, move || f()))
            .expect("spawn model task 0")
    };
    {
        let mut st = lock_state(&exec.m);
        st.threads.push(handle);
    }

    // Drive the schedule.
    let mut st = lock_state(&exec.m);
    loop {
        while !st.runner_turn && !st.aborted {
            st = exec.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if st.aborted {
            break;
        }
        if st.tasks.iter().all(|t| t.state == TaskState::Finished) {
            break;
        }
        st.steps += 1;
        if st.steps > cfg.max_steps {
            let msg = format!(
                "execution exceeded {} steps; tasks never settle ({})",
                cfg.max_steps,
                exec.describe_stuck(&st)
            );
            exec.abort_locked(&mut st, Some(RawViolation::Livelock(msg)));
            break;
        }
        let cands = exec.candidates(&st);
        if cands.is_empty() {
            let msg = format!("deadlock: {}", exec.describe_stuck(&st));
            exec.abort_locked(&mut st, Some(RawViolation::Deadlock(msg)));
            break;
        }
        let depth = st.choices.len();
        let chosen = match chooser.choose(depth, cands.len()) {
            Ok(i) => i,
            Err(e) => {
                exec.abort_locked(&mut st, Some(RawViolation::ReplayMismatch(e)));
                break;
            }
        };
        st.choices.push(ChoiceRec {
            chosen: u8::try_from(chosen).unwrap_or(u8::MAX),
            n: u8::try_from(cands.len()).unwrap_or(u8::MAX),
        });
        exec.apply(&mut st, cands[chosen]);
        exec.cv.notify_all();
    }

    // Teardown: wake everyone, wait until every task has exited its
    // body, then join the real threads.
    st.aborted = true;
    exec.cv.notify_all();
    while !st.tasks.iter().all(|t| t.state == TaskState::Finished) {
        st = exec.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    let threads = std::mem::take(&mut st.threads);
    let outcome = ExecOutcome {
        violation: st.violation.clone(),
        choices: std::mem::take(&mut st.choices),
        poison_swallows: st.poison_swallows,
        spurious_injected: u64::from(st.spurious_used),
    };
    drop(st);
    for h in threads {
        let _ = h.join();
    }
    outcome
}
