//! The crash-run skeleton both crash harnesses ([`crate::torture`] and
//! [`crate::service`]) run on: a traced [`SimEnv`] with a seeded crash
//! plan, the rule that sorts a failed step into "the crash fired" or "a
//! violation", the power cycle, and the trace-conformance suffix of
//! every report.

use std::fmt::Display;
use std::sync::Mutex;

use dxh_extmem::{FaultPlan, IoEvent, SimEnv};

/// One crash run in progress: the machine it drives and the violations
/// seen so far. Writer threads share it by reference.
pub(crate) struct CrashRun {
    /// The simulated machine of the run, tracing from its first op.
    pub env: SimEnv,
    violations: Mutex<Vec<String>>,
}

impl CrashRun {
    /// A fresh machine that crashes at I/O index `crash_at`, if any,
    /// with a write-survival lottery seeded from `seed` and the index.
    pub fn new(seed: u64, crash_at: Option<u64>) -> Self {
        let env = SimEnv::new();
        env.set_tracing(true);
        if let Some(k) = crash_at {
            env.set_plan(FaultPlan::crash(k, seed ^ k.rotate_left(17)));
        }
        CrashRun { env, violations: Mutex::default() }
    }

    /// Records an invariant violation.
    pub fn violation(&self, what: String) {
        self.violations.lock().expect("violation list poisoned").push(what);
    }

    /// Passes `Ok` through. An error is the crash itself once the crash
    /// point has fired, and a violation otherwise; either way `None`
    /// tells the caller to stop its phase.
    pub fn check<T>(&self, what: impl Display, result: Result<T, impl Display>) -> Option<T> {
        result
            .map_err(|e| {
                if !self.env.crashed() {
                    self.violation(format!("{what} failed without a crash: {e}"));
                }
            })
            .ok()
    }

    /// Ends the crash phase: reports whether the crash fired — read
    /// before the power cycle clears it, since a crash inside a
    /// best-effort step (stray cleanup, a drop's sync) lets its phase
    /// succeed — and power-cycles the machine with faults cleared.
    pub fn power_cycle(&self) -> bool {
        let crashed = self.env.crashed();
        self.env.power_cycle();
        crashed
    }

    /// Ends the run: its violations, then one for each durability rule
    /// the whole I/O trace broke (`dxh_dura::check_trace`), and the
    /// trace.
    pub fn finish(self) -> (Vec<String>, Vec<IoEvent>) {
        let trace = self.env.take_trace();
        let mut violations = self.violations.into_inner().expect("violation list poisoned");
        violations
            .extend(dxh_dura::check_trace(&trace).iter().map(|v| format!("durability trace: {v}")));
        (violations, trace)
    }
}
