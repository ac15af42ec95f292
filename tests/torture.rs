//! Recovery torture: exhaustive crash-index sweeps over the persistent
//! store's commit windows, scattered crashes across whole lifecycles,
//! and byte-identical replay — everything deterministic in one seed, and
//! every seed run in both store modes: raw words and payload bytes (the
//! latter sweeps the blob append, its sync and the blob-log rewrite of a
//! payload compaction).
//!
//! Both sweeps — the exhaustive commit windows and the scattered
//! crashes — run a fixed seed plus `TORTURE_SEEDS` more (4 when unset:
//! PR CI's count; the scheduled long run raises it, see
//! `.github/workflows/`). A failing sweep prints the seed, mode and
//! crash index, and the command that replays that one seed through both
//! sweeps in both modes:
//!
//! ```text
//! TORTURE_SEED=<decimal or 0x-hex> cargo test --release --test torture
//! ```

use dyn_ext_hash::core::SimMedia;
use dyn_ext_hash::workloads::torture::{
    sweep_crash_indices, torture_run, torture_run_on, TortureReport, TortureSpec,
};

mod lying_media;
use lying_media::{Lie, Lying};

fn env_count(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// A seed in decimal or `0x`-hex: the form a failure prints, and the
/// form one is usually copied from.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// The seeds a sweep runs: `TORTURE_SEED` alone when it is set, else
/// `fixed` and then `TORTURE_SEEDS` seeds of the sequence from `base`.
fn sweep_seeds(fixed: &[u64], base: u64) -> Vec<u64> {
    if let Ok(s) = std::env::var("TORTURE_SEED") {
        let seed = parse_seed(&s).unwrap_or_else(|| {
            panic!("TORTURE_SEED takes a number (decimal or 0x-hex), got {s:?}")
        });
        return vec![seed];
    }
    let n = env_count("TORTURE_SEEDS", 4);
    let sequence = (0..n).map(|i| base.wrapping_add(i.wrapping_mul(0x9e37_79b9)));
    fixed.iter().copied().chain(sequence).collect()
}

/// The command that replays `seed` alone, through both sweeps in both
/// modes.
fn replay(seed: u64) -> String {
    format!("replay: TORTURE_SEED={seed:#x} cargo test --release --test torture")
}

/// A failure's replay command names its seed in a form the sweeps read
/// back, so pasting it reruns exactly that seed.
#[test]
fn a_replay_command_parses_back_to_its_seed() {
    for seed in [0, 0xD15A57E5, u64::MAX] {
        let cmd = replay(seed);
        let arg = cmd.split_whitespace().find_map(|w| w.strip_prefix("TORTURE_SEED="));
        assert_eq!(arg.and_then(parse_seed), Some(seed), "{cmd}");
    }
    assert_eq!(parse_seed("3512358885"), Some(0xD15A57E5), "decimal too");
    assert_eq!(parse_seed("0xnope"), None);
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
                "[seed {:#x} crash_at {:?}: {}]",
                r.seed,
                r.crash_at,
                r.violations.first().map(String::as_str).unwrap_or("?")
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The acceptance gate: crash at **every** I/O index of one small final
/// sync and one small compaction, in both modes, for `0xD15A57E5` and
/// `TORTURE_SEEDS` seeds from `0xBAD5_EED0`. The commit-point
/// reasoning (manifest rename is the single commit point; a level file
/// or blob log it names is never rewritten and outlives it; a blob
/// append is synced before the index commit that points at it; recovery
/// opens what the manifest names and removes the rest) is checked
/// exhaustively, not anecdotally.
#[test]
fn exhaustive_crash_sweep_over_one_sync_and_one_compact() {
    for seed in sweep_seeds(&[0xD15A57E5], 0xBAD5_EED0) {
        for spec in both_modes(seed) {
            let mode = mode(&spec);
            let clean = torture_run(&spec, None);
            assert!(
                clean.violations.is_empty(),
                "seed {seed:#x} ({mode}): crash-free lifecycle must pass: {:?}\n{}",
                clean.violations,
                replay(seed)
            );
            let m = clean.markers.expect("crash-free run reports its commit windows");
            for (window, (lo, hi)) in [("sync", m.final_sync), ("compact", m.compact)] {
                let failures = sweep_crash_indices(&spec, lo, hi);
                assert!(
                    failures.is_empty(),
                    "seed {seed:#x} ({mode}): {} of {} {window}-window crash indices violated \
                     invariants: {}\n{}",
                    failures.len(),
                    hi - lo,
                    summarize(&failures),
                    replay(seed)
                );
            }
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
/// periodic syncs, tail, compaction — not just the two commit windows:
/// `TORTURE_SEEDS` seeds from `0x7012_7012`, `TORTURE_POINTS` crashes
/// each.
#[test]
fn scattered_crashes_across_whole_lifecycles() {
    let per_seed = env_count("TORTURE_POINTS", 12);
    for seed in sweep_seeds(&[], 0x7012_7012) {
        for spec in both_modes(seed) {
            let mode = mode(&spec);
            let clean = torture_run(&spec, None);
            assert!(
                clean.violations.is_empty(),
                "seed {seed:#x} ({mode}): crash-free lifecycle must pass: {:?}\n{}",
                clean.violations,
                replay(seed)
            );
            let total = clean.markers.expect("markers").total_ops;
            for p in 0..per_seed {
                // Deterministic spread with a seed-dependent phase, so
                // different seeds probe different alignments.
                let k = (p * total) / per_seed + (seed % (total / per_seed).max(1));
                let report = torture_run(&spec, Some(k.min(total.saturating_sub(1))));
                assert!(
                    report.violations.is_empty(),
                    "seed {seed:#x} ({mode}) crash_at {k}: {:?}\n{}",
                    report.violations,
                    replay(seed)
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
