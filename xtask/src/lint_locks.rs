//! `lint-locks`: static lock-discipline checker for the commit path.
//!
//! The model checker (`crates/sync`, `--features model`) runs the real
//! service on bounded instances (`cargo test -p dxh-core --features
//! model`); this pass pins the *source* to the lock discipline for every
//! schedule, explored or not. It scans the real guard
//! acquisition sites in `crates/core/src/service.rs` and enforces, per
//! function body:
//!
//! 1. **Lock-order hierarchy.** Acquiring a guard while another is
//!    live is only legal for the one whitelisted nesting, `Buf → Cell`
//!    (batch cells are filled under the buffer lock — that is what makes
//!    the writers' check-then-park race-free). Everything else — above
//!    all `Buf → Store` or its inversion — is a violation.
//!
//! 2. **No fsync-class call under a hot guard.** `Buf`, `CoordState`
//!    and `Cell` guards are on the writers' latency path; a physical
//!    sync (`log.commit`, `log.truncate()`, `store.sync()`,
//!    `store.harden`) must never run while one is live. The `Store`
//!    guard *is* the store's own serialization and legitimately spans
//!    its hardens.
//!
//! 3. **Wait hygiene.** `Condvar::wait`/`wait_timeout` may only be
//!    reached with the waited-on guard live — parking while holding a
//!    second lock deadlocks whoever needs it to produce the wakeup.
//!
//! The checker is a line scanner, not a compiler: strings and comments
//! are stripped, brace depth scopes named guards (`let [mut] g =
//! recv.lock();`), `drop(g)` releases early, `g = cv.wait(g)`
//! rebindings keep the guard live, and bare `recv.lock()` temporaries
//! live to the end of their line. It is intraprocedural by design —
//! cross-function interleavings are the model checker's half of the
//! bargain. Any `.lock()` whose receiver it cannot classify is itself
//! an error, so the catalog below can never silently rot.

use std::fmt;
use std::path::Path;
use std::process::ExitCode;

use crate::scan::{clean_source, ident_after, named_binding, receiver_before};

/// Which mutex a guard came from, classified by the receiver path's
/// suffix (`shard.buf`, `coord.state`, `cell.0`, ...).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum GuardClass {
    /// `Shard::buf` — enqueue/ack buffer (`BufState`).
    Buf,
    /// `Shard::store` — the `KvStore` under the shard.
    Store,
    /// `SyncCoordinator::state` — dirty set, epoch, shutdown.
    Coord,
    /// `BatchCell::0` — the ack slot every writer of one batch waits on.
    Cell,
}

impl fmt::Display for GuardClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GuardClass::Buf => "Buf",
            GuardClass::Store => "Store",
            GuardClass::Coord => "CoordState",
            GuardClass::Cell => "Cell",
        };
        f.write_str(s)
    }
}

/// The only guard pair allowed to nest (outer, inner).
const ALLOWED_NESTINGS: &[(GuardClass, GuardClass)] = &[(GuardClass::Buf, GuardClass::Cell)];

/// Calls that reach a physical sync (or frame one): forbidden while
/// any hot-path guard is live.
const FSYNC_TOKENS: &[&str] = &[".commit(", ".truncate()", ".sync()", ".harden("];

/// Guards that must never span an fsync-class call.
fn fsync_forbidden(class: GuardClass) -> bool {
    matches!(class, GuardClass::Buf | GuardClass::Coord | GuardClass::Cell)
}

fn classify(recv: &str) -> Option<GuardClass> {
    let recv = recv.trim_start_matches(['&', '*']);
    if recv.ends_with(".0") {
        Some(GuardClass::Cell)
    } else if recv.ends_with("buf") {
        Some(GuardClass::Buf)
    } else if recv.ends_with("store") {
        Some(GuardClass::Store)
    } else if recv.ends_with("state") {
        Some(GuardClass::Coord)
    } else {
        None
    }
}

#[derive(Debug)]
struct Violation {
    line: usize,
    what: String,
}

struct LiveGuard {
    name: String,
    class: GuardClass,
    depth: usize,
    line: usize,
}

fn scan_source(src: &str) -> (Vec<Violation>, usize) {
    let cleaned = clean_source(src);
    let mut violations = Vec::new();
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;
    let mut sites = 0usize;

    for (ln0, text) in cleaned.lines().enumerate() {
        let ln = ln0 + 1;
        let chars: Vec<char> = text.chars().collect();
        let named = named_binding(text);
        let mut temps: Vec<(String, GuardClass)> = Vec::new();

        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match c {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                }
                _ => {}
            }

            let rest: String = chars[i..].iter().collect();

            if rest.starts_with(".lock()") {
                sites += 1;
                let recv = receiver_before(&chars, i);
                match classify(&recv) {
                    None => violations.push(Violation {
                        line: ln,
                        what: format!(
                            "unclassified lock receiver `{recv}` — add it to the \
                             guard catalog in xtask/src/lint_locks.rs"
                        ),
                    }),
                    Some(class) => {
                        let rebind = named
                            .as_ref()
                            .is_some_and(|(n, _)| guards.iter().any(|g| g.name == *n));
                        for (outer_name, outer) in guards
                            .iter()
                            .map(|g| (g.name.as_str(), g.class))
                            .chain(temps.iter().map(|(n, c)| (n.as_str(), *c)))
                        {
                            if rebind && named.as_ref().is_some_and(|(n, _)| n == outer_name) {
                                continue;
                            }
                            if !ALLOWED_NESTINGS.contains(&(outer, class)) {
                                violations.push(Violation {
                                    line: ln,
                                    what: format!(
                                        "{outer} guard `{outer_name}` still live while \
                                         acquiring {class} (`{recv}`): only \
                                         Buf→Cell may nest"
                                    ),
                                });
                            }
                        }
                        match &named {
                            Some((name, pos)) if *pos == i => {
                                guards.retain(|g| g.name != *name);
                                guards.push(LiveGuard {
                                    name: name.clone(),
                                    class,
                                    depth,
                                    line: ln,
                                });
                            }
                            _ => temps.push((recv, class)),
                        }
                    }
                }
                i += ".lock()".len();
                continue;
            }

            if rest.starts_with("drop(") {
                let name = ident_after(text, i + "drop(".len());
                guards.retain(|g| g.name != name);
                i += "drop(".len();
                continue;
            }

            for pat in [".wait(", ".wait_timeout("] {
                if rest.starts_with(pat) {
                    let arg = ident_after(text, i + pat.len());
                    for g in guards.iter().filter(|g| g.name != arg) {
                        violations.push(Violation {
                            line: ln,
                            what: format!(
                                "{} guard `{}` (acquired line {}) held across a \
                                 condvar wait on `{arg}` — a parked thread must \
                                 hold only the guard it waits on",
                                g.class, g.name, g.line
                            ),
                        });
                    }
                }
            }

            for pat in FSYNC_TOKENS {
                if rest.starts_with(pat) {
                    for (name, class) in guards
                        .iter()
                        .map(|g| (g.name.as_str(), g.class))
                        .chain(temps.iter().map(|(n, c)| (n.as_str(), *c)))
                    {
                        if fsync_forbidden(class) {
                            violations.push(Violation {
                                line: ln,
                                what: format!(
                                    "fsync-class call `{}...)` while {class} guard \
                                     `{name}` is live — syncs must never run on \
                                     the writers' lock path",
                                    &pat[..pat.len() - 1]
                                ),
                            });
                        }
                    }
                }
            }

            i += 1;
        }
    }
    (violations, sites)
}

/// The files under discipline, relative to the repo root.
const TARGETS: &[&str] = &["crates/core/src/service.rs"];

/// Runs the checker against `root` (defaults to the current directory).
pub fn run(root: Option<&str>) -> ExitCode {
    let root = Path::new(root.unwrap_or("."));
    let mut total = 0usize;
    let mut sites = 0usize;
    for rel in TARGETS {
        let path = root.join(rel);
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("lint-locks: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let (violations, n) = scan_source(&src);
        sites += n;
        for v in &violations {
            eprintln!("{rel}:{}: {}", v.line, v.what);
        }
        total += violations.len();
    }
    if total > 0 {
        eprintln!("lint-locks: {total} violation(s) across {} file(s)", TARGETS.len());
        ExitCode::FAILURE
    } else {
        println!("lint-locks: ok ({sites} lock sites checked, 0 violations)");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Violation> {
        scan_source(src).0
    }

    #[test]
    fn strings_and_comments_are_invisible() {
        let src = r#"
            fn f(s: &S) {
                // let g = s.buf.lock(); s.store.harden(true);
                let msg = "holding buf.lock() across .commit( here";
                let why = 'x';
            }
        "#;
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn buf_to_cell_nesting_is_allowed() {
        let src = "
            fn f(s: &S) {
                let mut buf = s.buf.lock();
                *q.cell.0.lock() = Some(Err(why.clone()));
            }
        ";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn buf_store_inversion_is_caught() {
        let src = "
            fn f(s: &S) {
                let mut store = s.store.lock();
                let buf = s.buf.lock();
            }
        ";
        let v = scan(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].what.contains("Store guard `store` still live"), "{v:?}");
    }

    #[test]
    fn scope_exit_releases_the_guard() {
        let src = "
            fn f(s: &S) {
                {
                    let buf = s.buf.lock();
                }
                let mut store = s.store.lock();
                store.harden(false)?;
            }
        ";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let src = "
            fn f(s: &S) {
                let buf = s.buf.lock();
                drop(buf);
                log.commit(&bytes)?;
            }
        ";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn fsync_under_buf_guard_is_caught() {
        let src = "
            fn f(s: &S) {
                let mut buf = s.buf.lock();
                log.commit(&bytes)?;
            }
        ";
        let v = scan(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].what.contains("fsync-class call `.commit"), "{v:?}");
    }

    #[test]
    fn fsync_under_store_guard_is_fine() {
        let src = "
            fn f(s: &S) {
                let mut store = s.store.lock();
                store.harden(set_marker)?;
            }
        ";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn temporary_guard_spans_only_its_line() {
        let src = "
            fn f(s: &S) {
                if s.buf.lock().wedged.is_some() { return; }
                log.commit(&bytes)?;
            }
        ";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn fsync_on_a_temporary_buf_guard_is_caught() {
        let src = "
            fn f(s: &S) {
                s.buf.lock().history.commit(x);
            }
        ";
        let v = scan(src);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn wait_with_second_guard_is_caught() {
        let src = "
            fn f(s: &S) {
                let mut store = s.store.lock();
                let mut buf = s.buf.lock();
                buf = s.ack_cv.wait(buf);
            }
        ";
        let v = scan(src);
        // The illegal nesting AND the illegal wait both fire.
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[1].what.contains("held across a condvar wait"), "{v:?}");
    }

    #[test]
    fn wait_rebinding_keeps_the_guard_live() {
        let src = "
            fn f(s: &S) {
                let mut st = s.state.lock();
                st = s.cv.wait(st);
                st = s.cv.wait(st);
            }
        ";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn reacquisition_after_drop_is_not_a_nesting() {
        let src = "
            fn f(s: &S) {
                let mut buf = s.buf.lock();
                drop(buf);
                buf = s.buf.lock();
            }
        ";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn unknown_receiver_is_an_error() {
        let src = "
            fn f(s: &S) {
                let g = s.mystery.lock();
            }
        ";
        let v = scan(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].what.contains("unclassified lock receiver"), "{v:?}");
    }

    #[test]
    fn real_commit_path_passes() {
        // The actual discipline holds on the actual sources — the same
        // invocation CI gates on, runnable from the workspace root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for rel in TARGETS {
            let src = std::fs::read_to_string(root.join(rel)).unwrap();
            let (v, sites) = scan_source(&src);
            assert!(sites > 5, "{rel}: only {sites} lock sites found — scanner broken?");
            assert!(v.is_empty(), "{rel}: {v:#?}");
        }
    }
}
