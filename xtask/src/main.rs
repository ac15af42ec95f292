//! Repo automation tasks, invoked as `cargo run -p xtask -- <cmd>`.
//!
//! Commands:
//!
//! * `lint-locks` — static lock-discipline checker for the commit path
//!   (see `docs/CONCURRENCY.md`). Verifies, against the actual guard
//!   acquisition sites in `crates/core/src/service.rs`, that
//!
//!   1. the lock-order hierarchy is respected (buf → store never
//!      inverted; only the whitelisted nestings appear),
//!   2. no fsync-class call runs while a buffer/coordinator/cell/barrier
//!      guard is live, and
//!   3. no `Condvar::wait` happens while a *second* guard is held.
//!
//! * `lint-durability` — static durability-order checker for the
//!   persistence paths (see `docs/DURABILITY.md`). Classifies every
//!   I/O-effectful call site in the store/media/service/disk sources
//!   into effect classes, builds per-function effect summaries, inlines
//!   them through the commit/recovery entry points, and rejects any
//!   ordering the `dxh-dura` protocol rule table forbids (rename
//!   without a preceding data fsync or a following dir fsync, an ack
//!   released before the round's fsync, a recovery-visible unlink
//!   without its dir fsync, a discarded fsync-class `Result`).
//!
//! Both exit non-zero with `file:line` diagnostics on violation, so CI
//! can gate on them.

mod lint_durability;
mod lint_locks;
mod scan;

use std::process::ExitCode;

const USAGE: &str = "usage: cargo run -p xtask -- <lint-locks|lint-durability> [repo-root]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint-locks") => lint_locks::run(args.next().as_deref()),
        Some("lint-durability") => lint_durability::run(args.next().as_deref()),
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
