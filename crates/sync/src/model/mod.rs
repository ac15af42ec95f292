//! The model checker: schedule exploration over the cooperative
//! scheduler in [`sched`], plus the model-mode primitives in [`shim`].
//!
//! ```no_run
//! use dxh_sync::model::Checker;
//! use dxh_sync::{thread, Condvar, Mutex, Rank};
//! use std::sync::Arc;
//!
//! let report = Checker::new()
//!     .preemption_bound(2)
//!     .check(|| {
//!         let pair = Arc::new((Mutex::new(Rank::Buf, 0u32), Condvar::new()));
//!         let p2 = Arc::clone(&pair);
//!         let h = thread::spawn(move || {
//!             *p2.0.lock() += 1;
//!             p2.1.notify_all();
//!         });
//!         let (m, cv) = &*pair;
//!         let mut g = m.lock();
//!         while *g == 0 {
//!             g = cv.wait(g); // `while`, not `if`: spurious wakeups are injected
//!         }
//!         drop(g);
//!         h.join().unwrap();
//!     })
//!     .expect("no violation");
//! assert!(report.schedules > 1);
//! ```
//!
//! On violation, [`Violation`] carries a replayable trace: pass
//! [`Violation::trace`] to [`Checker::replay`] to re-run the exact
//! failing interleaving under a debugger or with extra logging.

pub(crate) mod sched;
pub mod shim;

use sched::{ChoiceRec, Chooser, RawViolation, RunCfg};
use std::collections::HashSet;
use std::sync::Arc;

/// What kind of property the checker saw violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// No task could take a step, but not all had finished. Lost
    /// wakeups surface here: the waiter's notify never comes.
    Deadlock,
    /// The per-execution step budget ran out.
    Livelock,
    /// A task panicked with a payload the model did not inject.
    Panic,
    /// A replayed trace diverged from the execution it was meant to
    /// drive (stale trace, or code changed since it was recorded).
    ReplayMismatch,
}

/// A failed check: the violation, plus everything needed to reproduce
/// the exact interleaving that exposed it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// Human-readable description (who was blocked on what).
    pub message: String,
    /// fnv1a64 fingerprint of the schedule trace (same style as the
    /// `IoEvent` trace fingerprints in `dxh-extmem`).
    pub fingerprint: u64,
    /// The schedule trace: one base-36 digit per scheduling decision.
    /// Feed to [`Checker::replay`] to re-run this interleaving.
    pub trace: String,
    /// Number of scheduling decisions in the failing execution.
    pub schedule_len: usize,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "model violation ({:?}): {}", self.kind, self.message)?;
        writeln!(
            f,
            "schedule: {} decisions, fingerprint {:#018x}",
            self.schedule_len, self.fingerprint
        )?;
        write!(f, "replay with: Checker::replay(\"{}\", ..)", self.trace)
    }
}

impl std::error::Error for Violation {}

/// Aggregate statistics from a successful (violation-free) check.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Executions run.
    pub schedules: u64,
    /// Distinct schedule fingerprints seen (for DFS every execution is
    /// distinct by construction; for random walks this deduplicates).
    pub distinct: u64,
    /// DFS only: the bounded schedule space was fully explored.
    pub exhausted: bool,
    /// Poison-swallow events: a model `lock()` recovered from std
    /// poison left by a panicking holder (dxh-core's service model tests
    /// count these when a committer dies holding its buffer lock).
    pub poison_swallows: u64,
    /// Spurious condvar wakeups the scheduler injected.
    pub spurious_injected: u64,
    /// Per-execution schedule fingerprints, in execution order. Two
    /// runs with the same seed must produce byte-identical vectors.
    pub fingerprints: Vec<u64>,
}

/// FNV-1a 64-bit over a byte stream — a schedule fingerprint, not an
/// on-disk checksum (that one is `dxh_extmem::frame::fnv1a64`). Kept
/// local because `dxh-sync` is deliberately dependency-free.
fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fingerprint_of(choices: &[ChoiceRec]) -> u64 {
    fnv1a64(choices.iter().flat_map(|c| [c.chosen, c.n]))
}

const TRACE_ALPHABET: &[u8; 36] = b"0123456789abcdefghijklmnopqrstuvwxyz";

fn encode_trace(choices: &[ChoiceRec]) -> String {
    choices
        .iter()
        .map(|c| {
            if (c.chosen as usize) < TRACE_ALPHABET.len() {
                TRACE_ALPHABET[c.chosen as usize] as char
            } else {
                '?'
            }
        })
        .collect()
}

fn decode_trace(trace: &str) -> Result<Vec<usize>, String> {
    trace
        .chars()
        .map(|ch| {
            TRACE_ALPHABET
                .iter()
                .position(|&a| a as char == ch)
                .ok_or_else(|| format!("invalid trace character {ch:?}"))
        })
        .collect()
}

/// Injects a panic with a payload the model recognizes: the task dies
/// (dropping its guards, poisoning its std mutexes) but the check does
/// not fail. This is how dxh-core's service model tests crash a
/// committer. Panics unconditionally; only meaningful inside a
/// [`Checker`] execution.
pub fn inject_panic() -> ! {
    // resume_unwind keeps the default panic hook silent: the injected
    // death is expected, and a hook line per schedule would drown real
    // output. Guards still drop and std mutexes still poison.
    std::panic::resume_unwind(Box::new(sched::InjectedPanic))
}

// ---------------------------------------------------------------------------
// Exploration strategies.

/// Depth-first systematic exploration with backtracking.
struct DfsChooser {
    /// One frame per decision depth of the current execution prefix.
    stack: Vec<(usize, usize)>, // (chosen, n)
}

impl DfsChooser {
    /// Advances to the next unexplored schedule; `false` when the
    /// space is exhausted.
    fn advance(&mut self) -> bool {
        while let Some(&(chosen, n)) = self.stack.last() {
            if chosen + 1 < n {
                self.stack.last_mut().expect("nonempty").0 = chosen + 1;
                return true;
            }
            self.stack.pop();
        }
        false
    }
}

impl Chooser for DfsChooser {
    fn choose(&mut self, depth: usize, n: usize) -> Result<usize, String> {
        if depth < self.stack.len() {
            let (chosen, recorded_n) = self.stack[depth];
            if recorded_n != n {
                return Err(format!(
                    "DFS replay prefix diverged at depth {depth}: {recorded_n} candidates before, {n} now (nondeterministic body?)"
                ));
            }
            Ok(chosen)
        } else {
            self.stack.push((0, n));
            Ok(0)
        }
    }
}

/// splitmix64 — tiny, deterministic, seedable.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

struct RandomChooser(SplitMix64);

impl Chooser for RandomChooser {
    fn choose(&mut self, _depth: usize, n: usize) -> Result<usize, String> {
        Ok((self.0.next() % n as u64) as usize)
    }
}

struct ReplayChooser(Vec<usize>);

impl Chooser for ReplayChooser {
    fn choose(&mut self, depth: usize, n: usize) -> Result<usize, String> {
        match self.0.get(depth) {
            Some(&c) if c < n => Ok(c),
            Some(&c) => {
                Err(format!("trace wants candidate {c} at depth {depth} but only {n} exist"))
            }
            None => {
                Err(format!("trace exhausted at depth {depth}; execution needs more decisions"))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The checker.

/// Explores thread interleavings of a closure built on the model-mode
/// primitives. Construct, set bounds, then [`check`](Checker::check)
/// (exhaustive bounded DFS), [`check_random`](Checker::check_random)
/// (seeded random walk), or [`replay`](Checker::replay) (one exact
/// schedule).
#[derive(Clone, Debug)]
pub struct Checker {
    preemption_bound: u32,
    spurious_budget: u32,
    timeout_budget: u32,
    max_steps: u64,
    max_schedules: u64,
}

impl Default for Checker {
    fn default() -> Self {
        Self::new()
    }
}

impl Checker {
    /// Defaults: preemption bound 2, one injected spurious wakeup and
    /// two branching modeled timeouts per execution, 20k steps per
    /// execution, 200k schedules per DFS check.
    pub fn new() -> Self {
        Checker {
            preemption_bound: 2,
            spurious_budget: 1,
            timeout_budget: 2,
            max_steps: 20_000,
            max_schedules: 200_000,
        }
    }

    /// CHESS-style preemption budget: max switches away from a task at
    /// a non-blocking point, per execution.
    pub fn preemption_bound(mut self, n: u32) -> Self {
        self.preemption_bound = n;
        self
    }

    /// Max injected spurious condvar wakeups per execution.
    pub fn spurious_budget(mut self, n: u32) -> Self {
        self.spurious_budget = n;
        self
    }

    /// Max *branching* `wait_timeout` expiries per execution (after
    /// the budget, timeouts still fire as a last resort when nothing
    /// else can run, so timeout-driven polling never falsely
    /// deadlocks). Set to 0 to disable timeouts entirely and prove a
    /// protocol deadlock-free *without* its timeout escape hatches.
    pub fn timeout_budget(mut self, n: u32) -> Self {
        self.timeout_budget = n;
        self
    }

    /// Per-execution step cap; exceeding it is a [`ViolationKind::Livelock`].
    pub fn max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Cap on DFS executions (the check reports `exhausted: false` if
    /// it stops here).
    pub fn max_schedules(mut self, n: u64) -> Self {
        self.max_schedules = n;
        self
    }

    fn cfg(&self) -> RunCfg {
        RunCfg {
            preemption_bound: self.preemption_bound,
            spurious_budget: self.spurious_budget,
            timeout_budget: self.timeout_budget,
            max_steps: self.max_steps,
        }
    }

    fn violation_of(raw: RawViolation, choices: &[ChoiceRec]) -> Violation {
        let (kind, message) = match raw {
            RawViolation::Deadlock(m) => (ViolationKind::Deadlock, m),
            RawViolation::Livelock(m) => (ViolationKind::Livelock, m),
            RawViolation::Panic(m) => (ViolationKind::Panic, m),
            RawViolation::ReplayMismatch(m) => (ViolationKind::ReplayMismatch, m),
        };
        Violation {
            kind,
            message,
            fingerprint: fingerprint_of(choices),
            trace: encode_trace(choices),
            schedule_len: choices.len(),
        }
    }

    fn run_loop<C: Chooser>(
        &self,
        f: Arc<dyn Fn() + Send + Sync>,
        chooser: &mut C,
        budget: u64,
        mut advance: impl FnMut(&mut C) -> bool,
    ) -> Result<Report, Violation> {
        let mut report = Report::default();
        let mut seen = HashSet::new();
        loop {
            let outcome = sched::run_execution(self.cfg(), chooser, Arc::clone(&f));
            if let Some(raw) = outcome.violation {
                return Err(Self::violation_of(raw, &outcome.choices));
            }
            let fp = fingerprint_of(&outcome.choices);
            report.schedules += 1;
            if seen.insert(fp) {
                report.distinct += 1;
            }
            report.fingerprints.push(fp);
            report.poison_swallows += outcome.poison_swallows;
            report.spurious_injected += outcome.spurious_injected;
            if report.schedules >= budget {
                return Ok(report);
            }
            if !advance(chooser) {
                report.exhausted = true;
                return Ok(report);
            }
        }
    }

    /// Systematic bounded-preemption DFS over the schedule space.
    /// Returns the first violation found, or a [`Report`] once the
    /// space (or the schedule budget) is exhausted.
    pub fn check<F>(&self, f: F) -> Result<Report, Violation>
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let mut chooser = DfsChooser { stack: Vec::new() };
        self.run_loop(f, &mut chooser, self.max_schedules, DfsChooser::advance)
    }

    /// Seeded random walk: `schedules` executions with choices drawn
    /// from splitmix64(seed). Same seed ⇒ byte-identical
    /// `Report::fingerprints`; violations carry the same replayable
    /// trace as DFS finds.
    pub fn check_random<F>(&self, seed: u64, schedules: u64, f: F) -> Result<Report, Violation>
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let mut chooser = RandomChooser(SplitMix64(seed));
        self.run_loop(f, &mut chooser, schedules.max(1), |_| true)
    }

    /// Re-runs the single exact interleaving recorded in `trace`
    /// (produced by [`Violation::trace`]).
    pub fn replay<F>(&self, trace: &str, f: F) -> Result<Report, Violation>
    where
        F: Fn() + Send + Sync + 'static,
    {
        let choices = decode_trace(trace).map_err(|e| Violation {
            kind: ViolationKind::ReplayMismatch,
            message: e,
            fingerprint: 0,
            trace: trace.to_string(),
            schedule_len: 0,
        })?;
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let mut chooser = ReplayChooser(choices);
        self.run_loop(f, &mut chooser, 1, |_| false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{thread, Condvar, Mutex, Rank};
    use std::sync::Arc;

    #[test]
    fn dfs_explores_multiple_schedules() {
        let report = Checker::new()
            .check(|| {
                let m = Arc::new(Mutex::new(Rank::Buf, 0u32));
                let m2 = Arc::clone(&m);
                let h = thread::spawn(move || {
                    *m2.lock() += 1;
                });
                *m.lock() += 1;
                h.join().unwrap();
                assert_eq!(*m.lock(), 2);
            })
            .expect("no violation");
        assert!(report.exhausted, "small space should exhaust");
        assert!(report.schedules >= 2, "got {} schedules", report.schedules);
        assert_eq!(report.distinct, report.schedules);
    }

    /// An ABBA pair nests on both sides, so the rank check reports it,
    /// as a panic, before any schedule deadlocks.
    #[test]
    fn detects_abba_as_a_lock_order_inversion() {
        let v = Checker::new()
            .check(|| {
                let a = Arc::new(Mutex::new(Rank::Buf, ()));
                let b = Arc::new(Mutex::new(Rank::Store, ()));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let h = thread::spawn(move || {
                    let _g1 = b2.lock();
                    let _g2 = a2.lock();
                });
                let _g1 = a.lock();
                let _g2 = b.lock();
                drop((_g2, _g1));
                let _ = h.join();
            })
            .expect_err("ABBA nests one lock inside another");
        assert_eq!(v.kind, ViolationKind::Panic, "{v}");
        assert!(v.message.contains("lock order: acquiring a"), "{v}");
        assert!(!v.trace.is_empty());
    }

    #[test]
    fn detects_lost_wakeup_missing_notify() {
        let v = Checker::new()
            .spurious_budget(0)
            .check(|| {
                let pair = Arc::new((Mutex::new(Rank::Buf, false), Condvar::new()));
                let p2 = Arc::clone(&pair);
                let h = thread::spawn(move || {
                    *p2.0.lock() = true;
                    // BUG: no notify — the waiter is stranded.
                });
                let mut g = pair.0.lock();
                while !*g {
                    g = pair.1.wait(g);
                }
                drop(g);
                let _ = h.join();
            })
            .expect_err("missing notify must strand the waiter");
        assert_eq!(v.kind, ViolationKind::Deadlock, "{v}");
        assert!(v.message.contains("never notified"), "{v}");
    }

    #[test]
    fn detects_if_instead_of_while_via_spurious_wakeup() {
        let v = Checker::new()
            .spurious_budget(1)
            .check(|| {
                let pair = Arc::new((Mutex::new(Rank::Buf, false), Condvar::new()));
                let p2 = Arc::clone(&pair);
                let h = thread::spawn(move || {
                    *p2.0.lock() = true;
                    p2.1.notify_all();
                });
                let mut g = pair.0.lock();
                // BUG: `if` instead of `while` — a spurious wakeup falls
                // through with the predicate still false.
                if !*g {
                    g = pair.1.wait(g);
                }
                assert!(*g, "woke with predicate false");
                drop(g);
                h.join().unwrap();
            })
            .expect_err("spurious wakeup must expose the if-recheck bug");
        assert_eq!(v.kind, ViolationKind::Panic, "{v}");
        assert!(v.message.contains("predicate false"), "{v}");
    }

    #[test]
    fn while_recheck_survives_spurious_wakeups() {
        let report = Checker::new()
            .spurious_budget(2)
            .check(|| {
                let pair = Arc::new((Mutex::new(Rank::Buf, false), Condvar::new()));
                let p2 = Arc::clone(&pair);
                let h = thread::spawn(move || {
                    *p2.0.lock() = true;
                    p2.1.notify_all();
                });
                let mut g = pair.0.lock();
                while !*g {
                    g = pair.1.wait(g);
                }
                drop(g);
                h.join().unwrap();
            })
            .expect("while-recheck is correct");
        assert!(report.spurious_injected > 0, "spurious wakeups were explored");
    }

    #[test]
    fn replay_reproduces_exact_violation() {
        let body = || {
            let a = Arc::new(Mutex::new(Rank::Buf, ()));
            let b = Arc::new(Mutex::new(Rank::Store, ()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let h = thread::spawn(move || {
                let _g1 = b2.lock();
                let _g2 = a2.lock();
            });
            let _g1 = a.lock();
            let _g2 = b.lock();
            drop((_g2, _g1));
            let _ = h.join();
        };
        let v = Checker::new().check(body).expect_err("nests one lock inside another");
        let v2 =
            Checker::new().replay(&v.trace, body).expect_err("replay must hit the same violation");
        assert_eq!(v2.kind, v.kind);
        assert_eq!(v2.fingerprint, v.fingerprint);
        assert_eq!(v2.trace, v.trace);
        // The same trace against the fixed body (one lock at a time): a
        // stale trace is a replay mismatch, not a hang or a mis-blame.
        let fixed = || {
            let a = Arc::new(Mutex::new(Rank::Buf, ()));
            let b = Arc::new(Mutex::new(Rank::Store, ()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let h = thread::spawn(move || {
                drop(b2.lock());
                drop(a2.lock());
            });
            drop(a.lock());
            drop(b.lock());
            let _ = h.join();
        };
        let stale = Checker::new().replay(&v.trace, fixed).expect_err("the trace no longer fits");
        assert_eq!(stale.kind, ViolationKind::ReplayMismatch, "{stale}");
    }

    #[test]
    fn injected_panic_poisons_and_is_swallowed() {
        let report = Checker::new()
            .max_schedules(500)
            .check(|| {
                let m = Arc::new(Mutex::new(Rank::Buf, 0u32));
                let m2 = Arc::clone(&m);
                let h = thread::spawn(move || {
                    let _g = m2.lock();
                    inject_panic();
                });
                let _ = h.join();
                // The victim's poison must be swallowed, not propagated.
                *m.lock() += 1;
            })
            .expect("injected panic is not a violation");
        assert!(report.poison_swallows > 0, "some schedule must observe the poison ({report:?})");
    }

    #[test]
    fn scoped_threads_model_join() {
        let report = Checker::new()
            .check(|| {
                let m = Mutex::new(Rank::Buf, 0u32);
                thread::scope(|s| {
                    for _ in 0..2 {
                        s.spawn(|| {
                            *m.lock() += 1;
                        });
                    }
                });
                assert_eq!(m.into_inner(), 2);
            })
            .expect("no violation");
        assert!(report.schedules >= 2);
    }

    #[test]
    fn random_walk_same_seed_identical_fingerprints() {
        let body = || {
            let m = Arc::new(Mutex::new(Rank::Buf, 0u32));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let m2 = Arc::clone(&m);
                    thread::spawn(move || {
                        *m2.lock() += 1;
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
        };
        let r1 = Checker::new().check_random(42, 50, body).expect("ok");
        let r2 = Checker::new().check_random(42, 50, body).expect("ok");
        assert_eq!(r1.fingerprints, r2.fingerprints);
        let r3 = Checker::new().check_random(43, 50, body).expect("ok");
        assert_ne!(r1.fingerprints, r3.fingerprints, "different seeds diverge");
        // DFS order is a pure function of the body: two runs agree
        // schedule for schedule.
        let d1 = Checker::new().check(body).expect("ok");
        let d2 = Checker::new().check(body).expect("ok");
        assert!(d1.schedules > 1, "{d1:?}");
        assert_eq!(d1.fingerprints, d2.fingerprints);
    }

    #[test]
    fn timeout_budget_zero_forces_notify_dependence() {
        // A waiter that relies on wait_timeout to escape: with the
        // timeout budget off and no notify, it must deadlock.
        let v = Checker::new()
            .timeout_budget(0)
            .spurious_budget(0)
            .check(|| {
                let pair = Arc::new((Mutex::new(Rank::Buf, false), Condvar::new()));
                let p2 = Arc::clone(&pair);
                let h = thread::spawn(move || {
                    *p2.0.lock() = true;
                });
                let mut g = pair.0.lock();
                while !*g {
                    let (g2, _timed_out) =
                        pair.1.wait_timeout(g, std::time::Duration::from_millis(1));
                    g = g2;
                }
                drop(g);
                let _ = h.join();
            })
            .expect_err("no timeout escape allowed");
        assert_eq!(v.kind, ViolationKind::Deadlock, "{v}");
    }

    #[test]
    fn timeout_escape_explored_when_allowed() {
        // Same protocol with the timeout budget on: the modeled
        // timeout lets the waiter recheck and exit. No violation.
        let report = Checker::new()
            .spurious_budget(0)
            .check(|| {
                let pair = Arc::new((Mutex::new(Rank::Buf, false), Condvar::new()));
                let p2 = Arc::clone(&pair);
                let h = thread::spawn(move || {
                    *p2.0.lock() = true;
                });
                let mut g = pair.0.lock();
                while !*g {
                    let (g2, _timed_out) =
                        pair.1.wait_timeout(g, std::time::Duration::from_millis(1));
                    g = g2;
                }
                drop(g);
                let _ = h.join();
            })
            .expect("timeout escape avoids the deadlock");
        assert!(report.schedules >= 2);
    }

    #[test]
    fn fallback_outside_checker_behaves_like_std() {
        // No checker running: primitives must work as plain std.
        let m = Mutex::new(Rank::Coord, 5u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        let pair = Arc::new((Mutex::new(Rank::Buf, false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = thread::spawn(move || {
            *p2.0.lock() = true;
            p2.1.notify_all();
        });
        let mut g = pair.0.lock();
        while !*g {
            g = pair.1.wait(g);
        }
        drop(g);
        h.join().unwrap();
    }
}
