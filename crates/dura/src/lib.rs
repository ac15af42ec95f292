//! The durability-protocol spec: **one** declarative rule table encoding
//! the commit protocols `docs/GUARANTEES.md` promises (manifest commit:
//! write tmp → fdatasync every level file written → rename → dir-fsync →
//! unlink the level files dropped; blob appends synced before the index
//! commits them), checked by the **trace automaton** [`check_trace`],
//! which validates the `SimEnv` [`IoEvent`] stream of every
//! torture/service crash sweep against the rules — conformance of the
//! *observed* I/O.
//!
//! The simulator runs the same system-call sequence as the real path
//! (create, append, sync, rename, remove, dir-sync are each one traced
//! event), so every file-level ordering is trace-visible. The two
//! guarantees that are not file orderings are checked elsewhere: an
//! acknowledged write surviving a crash by the service's crash sweeps,
//! and no discarded sync `Result` by clippy. `docs/DURABILITY.md` maps
//! each rule to its checks.

use std::collections::HashMap;

use dxh_extmem::IoEvent;

/// One protocol rule of the trace automaton.
#[derive(Debug)]
pub struct Rule {
    /// Stable rule id, quoted in every trace violation.
    pub name: &'static str,
    /// The documented guarantee the rule encodes.
    pub why: &'static str,
}

/// The durability-protocol rule table [`check_trace`] implements. Every
/// entry is proven fireable by a seeded mutant trace in this crate's
/// tests.
pub const RULES: &[Rule] = &[
    Rule {
        name: "rename-after-data-fsync",
        why: "the manifest rename is the commit point; every level file it names that the \
              last one did not must be fdatasync'd first, or a durable manifest could name \
              unwritten data (G1)",
    },
    Rule {
        name: "rename-then-dir-fsync",
        why: "rename(2) is durable only once the directory entry is; without the dir \
              fsync a power loss can resurrect the old manifest (G1)",
    },
    Rule {
        name: "unlink-after-manifest-commit",
        why: "a level file the last durable manifest names must outlive that manifest: \
              unlinked before the manifest that drops it is durable, a crash leaves a \
              committed level without its blocks (G1)",
    },
    Rule {
        name: "blob-sync-before-index-commit",
        why: "the manifest commits index words that may point into the blob log; a \
              durable index referencing unsynced payload bytes would serve torn or \
              missing payloads after a crash (G8)",
    },
];

/// Looks a rule up by name (panics on a typo — the table is static).
pub fn rule(name: &str) -> &'static Rule {
    RULES.iter().find(|r| r.name == name).unwrap_or_else(|| panic!("unknown rule {name:?}"))
}

/// One conformance violation found in an I/O trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceViolation {
    /// Index of the offending event in the checked trace.
    pub at: usize,
    /// Name of the violated [`Rule`].
    pub rule: &'static str,
    /// Human-readable description (file names, state).
    pub what: String,
}

impl std::fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event {}: [{}] {}", self.at, self.rule, self.what)
    }
}

/// Whether `name` is a store block file (a level file) — mirroring the
/// store layer's naming, `level-N.blk`.
fn is_data_file(name: &str) -> bool {
    name.ends_with(".blk")
}

/// Whether `name` is a store blob log (any generation) — mirrors the
/// store layer's naming scheme (`store.blob`, `store.N.blob`).
fn is_blob_file(name: &str) -> bool {
    name.starts_with("store") && name.ends_with(".blob")
}

/// Splits a simulated file name into `(store prefix, local name)` at
/// the last `/` — `"shard-002/MANIFEST"` → `("shard-002/", "MANIFEST")`,
/// `"level-7.blk"` → `("", "level-7.blk")`.
fn split_name(name: &str) -> (&str, &str) {
    match name.rfind('/') {
        Some(i) => name.split_at(i + 1),
        None => ("", name),
    }
}

/// Splits a [`IoEvent::Meta`] label into `(op, name)` — e.g.
/// `"file-create shard-000/MANIFEST.tmp"` → `("file-create",
/// "shard-000/MANIFEST.tmp")`.
fn split_label(label: &str) -> (&str, &str) {
    match label.split_once(' ') {
        Some((op, name)) => (op, name),
        None => (label, ""),
    }
}

/// What the automaton tracks per store directory.
#[derive(Default)]
struct StoreState<'a> {
    /// Block files a completed manifest commit found in the directory:
    /// the level files the last durable manifest may name.
    covered: Vec<&'a str>,
    /// The latest rename no `dir-sync` has covered yet.
    undurable_rename: Option<&'a str>,
    /// A manifest rename awaits its `dir-sync`.
    committing: bool,
    /// A manifest commit completed and the store has created or written
    /// no block file since: the one window in which covered files go.
    quiet: bool,
    /// The current blob log (payload-mode stores only).
    blob: Option<&'a str>,
}

/// The trace automaton: validates a `SimEnv` [`IoEvent`] stream against
/// every rule of [`RULES`]. Returns every violation found
/// (empty = conformant).
///
/// The anchors are file-level: a **manifest commit** is the
/// `file-rename …MANIFEST.tmp -> …MANIFEST` and completes at the
/// directory's next `dir-sync`.
///
/// State tracked per store prefix (the simulated twin of a store
/// directory): the block files in it and their unsynced-write counts —
/// every one of them is a level file the next manifest may name, since a
/// level built and carried away between two commits is unlinked before
/// the second — the block files the last completed commit covered, the
/// current blob log, and the directory's last un-dir-synced rename.
/// Every check fires *at its anchor event*, never at end-of-trace — the
/// "followed by a dir-fsync" rule fires at the directory's next write —
/// so a crash-truncated trace can never false-positive, exactly the
/// property the crash sweeps need.
pub fn check_trace(events: &[IoEvent]) -> Vec<TraceViolation> {
    let mut out = Vec::new();
    // Unsynced write count per file (block writes and byte-file appends
    // alike — both land in the same `Write`/`Sync` event vocabulary).
    let mut unsynced: HashMap<&str, u64> = HashMap::new();
    let mut stores: HashMap<&str, StoreState> = HashMap::new();

    for (at, ev) in events.iter().enumerate() {
        match ev {
            IoEvent::Write { file, .. } => {
                let (prefix, local) = split_name(file);
                let store = stores.entry(prefix).or_default();
                if is_data_file(local) {
                    store.quiet = false;
                }
                if let Some(rename) = store.undurable_rename.take() {
                    out.push(TraceViolation {
                        at,
                        rule: "rename-then-dir-fsync",
                        what: format!(
                            "write to {file} after `{rename}` with no dir-sync of {prefix:?} in \
                             between — a crash could revert the rename under the new data"
                        ),
                    });
                }
                *unsynced.entry(file).or_insert(0) += 1;
            }
            IoEvent::Sync { file, .. } => {
                unsynced.insert(file, 0);
            }
            IoEvent::ReadAt { .. } => {}
            IoEvent::Meta { label, .. } => {
                let (op, name) = split_label(label);
                let (prefix, local) = split_name(name);
                match op {
                    "power-cycle" => {
                        // The write-back state is gone — whatever of it
                        // the crash lottery kept is simply the new disk
                        // image — and which names survived is unknown
                        // until the reopening process looks.
                        unsynced.clear();
                        stores.clear();
                    }
                    "file-rename" => {
                        let Some((from, to)) = name.split_once(" -> ") else { continue };
                        let (prefix, local) = split_name(to);
                        let store = stores.entry(prefix).or_default();
                        if let Some(n) = unsynced.remove(from).filter(|&n| n > 0) {
                            out.push(TraceViolation {
                                at,
                                rule: "rename-after-data-fsync",
                                what: format!(
                                    "`{label}` while {from} has {n} unsynced append(s) — the \
                                     renamed file's own fdatasync must precede the rename"
                                ),
                            });
                        }
                        if local == "MANIFEST" {
                            // The index commit point: every level file
                            // it may name, and the blob log, must be
                            // durable first.
                            let mut pending: Vec<(&str, u64)> = unsynced
                                .iter()
                                .filter(|(file, n)| {
                                    let (p, l) = split_name(file);
                                    **n > 0 && p == prefix && is_data_file(l)
                                })
                                .map(|(file, n)| (*file, *n))
                                .collect();
                            pending.sort_unstable();
                            for (data, n) in pending {
                                out.push(TraceViolation {
                                    at,
                                    rule: "rename-after-data-fsync",
                                    what: format!(
                                        "manifest commit `{label}` while {data} has {n} unsynced \
                                         block write(s) — every level file written since the last \
                                         commit must be fdatasync'd before the commit point"
                                    ),
                                });
                            }
                            let blob = store.blob.and_then(|b| Some((b, *unsynced.get(b)?)));
                            if let Some((blob, n)) = blob.filter(|(_, n)| *n > 0) {
                                out.push(TraceViolation {
                                    at,
                                    rule: "blob-sync-before-index-commit",
                                    what: format!(
                                        "manifest commit `{label}` while {blob} has {n} unsynced \
                                         blob append(s) — the payload fdatasync must precede the \
                                         index commit point"
                                    ),
                                });
                            }
                            store.committing = true;
                        }
                        store.undurable_rename = Some(label);
                    }
                    "dir-sync" => {
                        let store = stores.entry(name).or_default();
                        store.undurable_rename = None;
                        if std::mem::take(&mut store.committing) {
                            store.quiet = true;
                            store.covered = unsynced
                                .keys()
                                .copied()
                                .filter(|file| {
                                    let (p, l) = split_name(file);
                                    p == name && is_data_file(l)
                                })
                                .collect();
                        }
                    }
                    "file-create" | "file-open" => {
                        if op == "file-create" {
                            unsynced.insert(name, 0);
                        } else {
                            unsynced.entry(name).or_insert(0);
                        }
                        let store = stores.entry(prefix).or_default();
                        if is_data_file(local) && op == "file-create" {
                            store.quiet = false;
                        }
                        if is_blob_file(local) {
                            store.blob = Some(name);
                        }
                    }
                    "file-remove" => {
                        unsynced.remove(name);
                        let store = stores.entry(prefix).or_default();
                        if store.blob == Some(name) {
                            store.blob = None;
                        }
                        let covered = store.covered.iter().position(|file| *file == name);
                        if let Some(i) = covered {
                            store.covered.swap_remove(i);
                            if !store.quiet {
                                out.push(TraceViolation {
                                    at,
                                    rule: "unlink-after-manifest-commit",
                                    what: format!(
                                        "{name}, which a completed manifest commit covered, was \
                                         unlinked after the store went on to build other levels \
                                         and before the next commit completed — a crash here \
                                         leaves the durable manifest naming a missing file"
                                    ),
                                });
                            }
                        }
                    }
                    "file-truncate" => {
                        // Recovery (or open) discarded the unsynced
                        // tail: the appends it covered no longer exist,
                        // so they owe no sync before the next commit. A
                        // growth (`file-extend`) cuts nothing and
                        // discharges nothing.
                        unsynced.insert(name, 0);
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxh_extmem::SimEnv;

    fn meta(label: &str) -> IoEvent {
        IoEvent::Meta { label: label.into(), fingerprint: 0 }
    }

    fn write(file: &str) -> IoEvent {
        IoEvent::Write { file: file.into(), offset: 0, fingerprint: 0 }
    }

    fn sync(file: &str) -> IoEvent {
        IoEvent::Sync { file: file.into(), flushed: 1 }
    }

    /// The event sequence of `commit_file_atomic` on `{prefix}MANIFEST`,
    /// ending at the rename (the dir-sync is the caller's to add or drop).
    fn manifest_rename(prefix: &str) -> Vec<IoEvent> {
        let tmp = format!("{prefix}MANIFEST.tmp");
        vec![
            meta(&format!("file-create {tmp}")),
            write(&tmp),
            sync(&tmp),
            meta(&format!("file-rename {tmp} -> {prefix}MANIFEST")),
        ]
    }

    /// A whole conformant manifest commit.
    fn manifest_commit(prefix: &str) -> Vec<IoEvent> {
        let mut events = manifest_rename(prefix);
        events.push(meta(&format!("dir-sync {prefix}")));
        events
    }

    fn trace(parts: Vec<Vec<IoEvent>>) -> Vec<IoEvent> {
        parts.into_iter().flatten().collect()
    }

    #[test]
    fn every_rule_is_implemented_by_the_automaton() {
        // The automaton hand-implements the table; this pins the one to
        // the other so a new rule cannot silently no-op.
        let implemented = [
            "rename-after-data-fsync",
            "rename-then-dir-fsync",
            "unlink-after-manifest-commit",
            "blob-sync-before-index-commit",
        ];
        let names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        assert_eq!(names, implemented);
    }

    #[test]
    fn every_rule_names_a_distinct_id() {
        for (i, a) in RULES.iter().enumerate() {
            for b in &RULES[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate rule id");
            }
        }
    }

    #[test]
    fn conformant_commit_sequence_passes() {
        let events = trace(vec![
            vec![meta("file-create level-1.blk"), write("level-1.blk"), write("level-1.blk")],
            vec![sync("level-1.blk")],
            manifest_commit(""),
        ]);
        assert_eq!(check_trace(&events), vec![]);
    }

    /// Seeded mutant: manifest commit with the data fsync dropped — of
    /// the only level file written since the last commit, or of one
    /// among several.
    #[test]
    fn rename_before_fsync_mutant_is_caught() {
        let events = trace(vec![
            vec![meta("file-create level-1.blk"), write("level-1.blk")],
            manifest_rename(""),
        ]);
        let v = check_trace(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "rename-after-data-fsync");
        assert_eq!(v[0].at, 5);
        let events = trace(vec![
            vec![meta("file-create s/level-1.blk"), write("s/level-1.blk")],
            vec![meta("file-create s/level-2.blk"), write("s/level-2.blk")],
            vec![meta("file-create t/level-2.blk"), write("t/level-2.blk")],
            vec![sync("s/level-2.blk")],
            manifest_rename("s/"),
        ]);
        let v = check_trace(&events);
        assert_eq!(v.len(), 1, "a sibling store's files are its own business: {v:?}");
        assert!(v[0].what.contains("s/level-1.blk"), "{v:?}");
    }

    /// A level built and carried away between two commits is unlinked
    /// before the second: it owes the commit no sync.
    #[test]
    fn a_file_consumed_before_the_commit_owes_it_nothing() {
        let events = trace(vec![
            vec![meta("file-create level-1.blk"), write("level-1.blk")],
            vec![meta("file-create level-2.blk"), write("level-2.blk")],
            vec![meta("file-remove level-1.blk"), sync("level-2.blk")],
            manifest_commit(""),
        ]);
        assert_eq!(check_trace(&events), vec![]);
    }

    /// Seeded mutant: a level file a completed commit covered, unlinked
    /// once the flush that read it is done instead of after the commit
    /// that drops it. After that commit — and before the store builds
    /// anything else — is the one place it may go.
    #[test]
    fn unlink_before_the_manifest_commit_mutant_is_caught() {
        let committed = trace(vec![
            vec![meta("file-create level-1.blk"), write("level-1.blk"), sync("level-1.blk")],
            manifest_commit(""),
        ]);
        let flush = vec![meta("file-create level-2.blk"), write("level-2.blk")];
        let bad = trace(vec![
            committed.clone(),
            flush.clone(),
            vec![meta("file-remove level-1.blk"), sync("level-2.blk")],
            manifest_commit(""),
        ]);
        let v = check_trace(&bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "unlink-after-manifest-commit");
        assert_eq!(v[0].at, 10);
        let good = trace(vec![
            committed.clone(),
            flush.clone(),
            vec![sync("level-2.blk")],
            manifest_commit(""),
            vec![meta("file-remove level-1.blk")],
        ]);
        assert_eq!(check_trace(&good), vec![]);
        // Not between the rename and its dir-sync either.
        let early = trace(vec![
            committed,
            flush,
            vec![sync("level-2.blk")],
            manifest_rename(""),
            vec![meta("file-remove level-1.blk")],
        ]);
        assert_eq!(check_trace(&early).len(), 1);
        // A reopen's stray removal follows a power cycle: nothing is
        // known to be covered, and nothing is indicted.
        let strays = vec![
            meta("file-create level-1.blk"),
            meta("power-cycle"),
            meta("file-open level-2.blk"),
            meta("file-remove level-1.blk"),
        ];
        assert_eq!(check_trace(&strays), vec![]);
    }

    /// Seeded mutant: the tmp file's own fdatasync dropped before the
    /// rename — a durable `MANIFEST` could name a torn manifest.
    #[test]
    fn rename_of_an_unsynced_tmp_mutant_is_caught() {
        let events = vec![
            meta("file-create MANIFEST.tmp"),
            write("MANIFEST.tmp"),
            meta("file-rename MANIFEST.tmp -> MANIFEST"),
        ];
        let v = check_trace(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "rename-after-data-fsync");
        assert_eq!(v[0].at, 2);
    }

    /// Seeded mutant: the dir-sync after the manifest rename dropped —
    /// caught at the directory's next write (here the marker's), never
    /// at end-of-trace.
    #[test]
    fn rename_without_dir_fsync_mutant_is_caught() {
        let mut events = manifest_rename("shard-000/");
        assert_eq!(check_trace(&events), vec![], "a crash right after the rename is conformant");
        events.extend([meta("file-create shard-000/level-1.blk"), write("shard-000/level-1.blk")]);
        let v = check_trace(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "rename-then-dir-fsync");
        assert_eq!(v[0].at, 5);
        // A sibling directory's dir-sync does not discharge it; its own does.
        let mut events = manifest_rename("shard-000/");
        events.extend([meta("dir-sync shard-001/"), write("shard-000/level-1.blk")]);
        assert_eq!(check_trace(&events).len(), 1);
        let mut events = manifest_commit("shard-000/");
        events.push(write("shard-000/level-1.blk"));
        assert_eq!(check_trace(&events), vec![]);
    }

    /// Seeded mutant: index commit with the blob fdatasync dropped. A
    /// manifest pointing at payload bytes still in the page cache would
    /// resurrect dangling index entries after a crash.
    #[test]
    fn index_commit_before_blob_sync_mutant_is_caught() {
        let events = trace(vec![
            vec![meta("file-create store.blob"), write("store.blob")],
            manifest_rename(""),
        ]);
        let v = check_trace(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "blob-sync-before-index-commit");
        assert_eq!(v[0].at, 5);
        // With the sync in place the same sequence is conformant.
        let events = trace(vec![
            vec![meta("file-create store.blob"), write("store.blob"), sync("store.blob")],
            manifest_rename(""),
        ]);
        assert_eq!(check_trace(&events), vec![]);
    }

    /// Recovery's tail truncation discharges the sync obligation: the
    /// torn appends it drops no longer gate the next commit.
    #[test]
    fn truncate_discharges_unsynced_appends() {
        let events = trace(vec![
            vec![meta("file-open store.blob"), write("store.blob")],
            vec![meta("file-truncate store.blob")],
            manifest_rename(""),
        ]);
        assert_eq!(check_trace(&events), vec![]);
    }

    /// Seeded mutant: a level file written, then grown, then committed
    /// with no fdatasync between. A growth is no truncation: it cuts no
    /// unsynced write, so it must not discharge one — were it traced as
    /// `file-truncate`, this commit would pass.
    #[test]
    fn a_growth_does_not_discharge_unsynced_writes() {
        let events = trace(vec![
            vec![meta("file-create level-1.blk"), write("level-1.blk")],
            vec![meta("file-extend level-1.blk")],
            manifest_rename(""),
        ]);
        let v = check_trace(&events);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "rename-after-data-fsync");
        assert_eq!(v[0].at, 6);
    }

    /// A power cycle drops the overlay: the next process's manifest
    /// commit is not indicted by pre-crash unsynced writes — nor by a
    /// pre-crash rename the crash cut off from its dir-sync.
    #[test]
    fn power_cycle_resets_unsynced_state() {
        let events = trace(vec![
            vec![meta("file-create level-1.blk"), write("level-1.blk")],
            vec![meta("file-rename a.tmp -> a")],
            vec![meta("power-cycle"), meta("file-open level-1.blk")],
            manifest_commit(""),
        ]);
        assert_eq!(check_trace(&events), vec![]);
    }

    /// End-of-trace is never an anchor: a crash-truncated trace (writes
    /// in flight, no manifest yet) is conformant.
    #[test]
    fn truncated_trace_has_no_end_obligations() {
        let events =
            vec![meta("file-create level-1.blk"), write("level-1.blk"), write("level-1.blk")];
        assert_eq!(check_trace(&events), vec![]);
    }

    /// The automaton accepts a real store lifecycle end to end: create,
    /// write, sync, commit — driven through an actual [`SimEnv`], not
    /// synthetic events.
    #[test]
    fn real_sim_disk_lifecycle_is_conformant() {
        use dxh_extmem::{BlobFile, Block, SimDisk, StorageBackend};
        let env = SimEnv::new();
        env.set_tracing(true);
        let mut disk = SimDisk::from_file(env.create_file("level-1.blk").unwrap(), 4).unwrap();
        let id = disk.allocate().unwrap();
        let mut b = Block::new(4);
        b.push(dxh_extmem::Item { key: 1, value: 2 }).unwrap();
        disk.write(id, &b).unwrap();
        let commit = || {
            let mut tmp = env.create_file("MANIFEST.tmp").unwrap();
            tmp.append(b"...").unwrap();
            tmp.sync().unwrap();
            env.rename_file("MANIFEST.tmp", "MANIFEST").unwrap();
            env.sync_dir("").unwrap();
        };
        commit(); // BEFORE the data sync: must fire
        disk.sync().unwrap();
        commit(); // after: conformant
        let trace = env.take_trace();
        let v = check_trace(&trace);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "rename-after-data-fsync");
    }
}
