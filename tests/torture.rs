//! Recovery torture: exhaustive crash-index sweeps over the persistent
//! store's commit windows, scattered crashes across whole lifecycles,
//! and byte-identical replay — everything deterministic in one seed, and
//! every seed run in both store modes: raw words and payload bytes (the
//! latter sweeps the blob append, its sync and the blob-log rewrite of a
//! payload compaction).
//!
//! Iteration counts are bounded for PR CI and scaled up by the scheduled
//! long run via `TORTURE_SEEDS` (see `.github/workflows/`). Every
//! assertion message carries the failing seed, mode (and crash index),
//! so a red run is reproduced by plugging that seed back into
//! `TortureSpec::small` or `TortureSpec::small_payload` — or `cargo run
//! -p dxh-bench --bin torture -- --seed <seed>`, which runs both.

use dyn_ext_hash::core::SimMedia;
use dyn_ext_hash::workloads::torture::{
    sweep_crash_indices, torture_run, torture_run_on, TortureReport, TortureSpec,
};

mod lying_media;
use lying_media::{Lie, Lying};

fn env_count(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// `seed`'s scenario in both modes: raw, then payload.
fn both_modes(seed: u64) -> [TortureSpec; 2] {
    [TortureSpec::small(seed), TortureSpec::small_payload(seed)]
}

fn mode(spec: &TortureSpec) -> &'static str {
    if spec.payloads {
        "payload"
    } else {
        "raw"
    }
}

fn summarize(failures: &[TortureReport]) -> String {
    failures
        .iter()
        .take(3)
        .map(|r| {
            format!(
                "[seed {} crash_at {:?}: {}]",
                r.seed,
                r.crash_at,
                r.violations.first().map(String::as_str).unwrap_or("?")
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The acceptance gate: crash at **every** I/O index of one small final
/// sync and one small compaction, in both modes. The commit-point
/// reasoning (manifest rename is the single commit point; a level file
/// or blob log it names is never rewritten and outlives it; a blob
/// append is synced before the index commit that points at it; recovery
/// opens what the manifest names and removes the rest) is checked
/// exhaustively, not anecdotally.
#[test]
fn exhaustive_crash_sweep_over_one_sync_and_one_compact() {
    for spec in both_modes(0xD15A57E5) {
        let mode = mode(&spec);
        let clean = torture_run(&spec, None);
        assert!(
            clean.violations.is_empty(),
            "seed {} ({mode}): crash-free lifecycle must pass: {:?}",
            spec.seed,
            clean.violations
        );
        let m = clean.markers.expect("crash-free run reports its commit windows");
        for (window, (lo, hi)) in [("sync", m.final_sync), ("compact", m.compact)] {
            let failures = sweep_crash_indices(&spec, lo, hi);
            assert!(
                failures.is_empty(),
                "seed {} ({mode}): {} of {} {window}-window crash indices violated invariants: {}",
                spec.seed,
                failures.len(),
                hi - lo,
                summarize(&failures)
            );
        }
    }
}

/// Non-vacuity, with no production knob: the same exhaustive sweep over
/// media that silently drop every directory sync, or every file sync,
/// must fail in both modes — both in the recovered state (a commit that
/// "completed" is gone, or a torn manifest refuses to open) and in the
/// run's I/O trace (`dxh_dura::check_trace`).
#[test]
fn sweep_catches_media_that_drop_a_sync() {
    for spec in both_modes(0xD15A57E5) {
        let m = torture_run(&spec, None).markers.expect("markers");
        for lie in [Lie::DirSync, Lie::FileSync] {
            let open = |env: &_| SimMedia::open(env).map(|inner| Lying { inner, lie });
            let (mut state, mut trace) = (0, 0);
            for k in (m.final_sync.0..m.final_sync.1).chain(m.compact.0..m.compact.1) {
                for v in torture_run_on(&spec, Some(k), open).violations {
                    if v.starts_with("durability trace:") {
                        trace += 1;
                    } else {
                        state += 1;
                    }
                }
            }
            let mode = mode(&spec);
            assert!(state > 0, "{lie:?} ({mode}): no crash exposed the lie in the recovered state");
            assert!(
                trace > 0,
                "{lie:?} ({mode}): the trace checker never noticed the missing sync"
            );
        }
    }
}

/// A level file is a file of the media like any other, so media that
/// drop every file sync drop its fdatasync too: the sweep finds a
/// manifest committed over a level file's unsynced writes, by name.
#[test]
fn a_file_sync_lie_reaches_the_level_files() {
    let spec = TortureSpec::small(0xD15A57E5);
    let m = torture_run(&spec, None).markers.expect("markers");
    let open = |env: &_| SimMedia::open(env).map(|inner| Lying { inner, lie: Lie::FileSync });
    let mut windows = (m.final_sync.0..m.final_sync.1).chain(m.compact.0..m.compact.1);
    let named = windows.find_map(|k| {
        let violations = torture_run_on(&spec, Some(k), open).violations;
        violations.into_iter().find(|v| {
            v.starts_with("durability trace:")
                && v.contains("[rename-after-data-fsync]")
                && v.contains("level-")
                && v.contains(".blk")
        })
    });
    assert!(named.is_some(), "no violation of the sweep names a level file");
}

/// Seed-scattered crashes across entire lifecycles — open, churn,
/// periodic syncs, tail, compaction — not just the two commit windows.
/// `TORTURE_SEEDS` scales the seed count (PR CI keeps it small; the
/// scheduled long run raises it).
#[test]
fn scattered_crashes_across_whole_lifecycles() {
    let seeds = env_count("TORTURE_SEEDS", 4);
    let per_seed = env_count("TORTURE_POINTS", 12);
    for s in 0..seeds {
        let seed = 0x7012_7012u64.wrapping_add(s.wrapping_mul(0x9e37_79b9));
        for spec in both_modes(seed) {
            let mode = mode(&spec);
            let clean = torture_run(&spec, None);
            assert!(
                clean.violations.is_empty(),
                "seed {seed} ({mode}): crash-free lifecycle must pass: {:?}",
                clean.violations
            );
            let total = clean.markers.expect("markers").total_ops;
            for p in 0..per_seed {
                // Deterministic spread with a seed-dependent phase, so
                // different seeds probe different alignments.
                let k = (p * total) / per_seed + (seed % (total / per_seed).max(1));
                let report = torture_run(&spec, Some(k.min(total.saturating_sub(1))));
                assert!(
                    report.violations.is_empty(),
                    "seed {seed} ({mode}) crash_at {k}: {:?}",
                    report.violations
                );
            }
        }
    }
}

/// The determinism acceptance test: same seed + same workload ⇒
/// byte-identical I/O trace and identical crash outcome on consecutive
/// runs (the property that makes a printed failing seed sufficient to
/// reproduce any red run).
#[test]
fn replay_is_fully_deterministic() {
    for spec in both_modes(0x5EED) {
        let mode = mode(&spec);
        for crash_at in [None, Some(60), Some(200)] {
            let a = torture_run(&spec, crash_at);
            let b = torture_run(&spec, crash_at);
            assert_eq!(a.crashed, b.crashed, "{mode}: crash outcome at {crash_at:?}");
            assert_eq!(
                a.state_fingerprint, b.state_fingerprint,
                "{mode}: recovered state at {crash_at:?} must be identical"
            );
            assert_eq!(
                a.trace, b.trace,
                "{mode}: I/O trace at {crash_at:?} must be byte-identical event for event"
            );
            assert_eq!(a.violations, b.violations);
            assert!(!a.trace.is_empty(), "the trace actually recorded the run");
        }
    }
}

/// Different seeds produce genuinely different workloads and traces —
/// the sweep is not re-testing one frozen scenario.
#[test]
fn different_seeds_diverge() {
    for (one, two) in both_modes(1).into_iter().zip(both_modes(2)) {
        let a = torture_run(&one, None);
        let b = torture_run(&two, None);
        assert!(a.violations.is_empty() && b.violations.is_empty());
        assert_ne!(a.trace, b.trace, "different seeds, different I/O traces");
        assert_ne!(a.state_fingerprint, b.state_fingerprint);
    }
}
