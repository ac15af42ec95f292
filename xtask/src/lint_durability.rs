//! `lint-durability` — the static half of the durability-protocol
//! checker (the runtime half is `dxh_dura::check_trace`; the shared
//! rule table is `dxh_dura::RULES`).
//!
//! A line scanner over cleaned source, not a compiler (the scanner core
//! is shared with `lint-locks`, see `scan.rs`). Per function it:
//!
//! 1. classifies every I/O-effectful call site into a
//!    [`dxh_dura::EffectClass`] using the table's source tokens
//!    ([`dxh_dura::SINKS`], [`dxh_dura::ACK_FILL`],
//!    [`dxh_dura::COMMITTED_UNLINK`], [`dxh_dura::DIR_FSYNC_FNS`])
//!    — the byte-file tokens are the `StoreMedia` / `BlobFile` primitive
//!    names, because every protocol is written once above that seam,
//! 2. records calls to other scanned functions and inlines their effect
//!    summaries to a fixpoint (cycle-safe; where the two primitive impls
//!    share a method name, the real one binds), and
//! 3. checks each function's resolved effect sequence against every
//!    lint-enabled rule, reporting `file:line` at the anchor site.
//!
//! The corpus is a list of **modules** ([`TARGETS`]): a module is its
//! `<path>.rs`, every `.rs` file under `<path>/`, or both — splitting a
//! file into a directory of submodules changes nothing here.
//!
//! Check semantics per rule (deliberately conservative, pinned by the
//! seeded-mutant tests below):
//!
//! * `rename-after-data-fsync` — the **nearest** write-class effect
//!   before each rename must be a data fsync; an anchor with no prior
//!   write-class effect is vacuously ordered (nothing volatile can be
//!   swapped past it — the shape of moving aside a file whose every
//!   byte an earlier call already fsynced).
//! * `ack-after-fsync` — **existence**: some data fsync must appear
//!   before the ack in the path (not "nearest", because failure-path
//!   rollbacks like `CommitLog::commit`'s truncate legitimately sit
//!   between the round's fsync and the acks). A function that other
//!   scanned functions call (`ack_through`) does not answer for its own
//!   acks: each caller does, where it inlines the call.
//! * `rename-then-dir-fsync` — a directory fsync must follow the
//!   rename before its function's sequence ends.
//! * `unlink-after-manifest-commit` — the effect **right before** the
//!   unlink of committed level files (`LevelFiles::unlink_unnamed`) must
//!   be a directory fsync: the manifest commit's, with nothing — no
//!   write, no other fsync, no rename — between the two.
//! * `no-discarded-sync-result` — no `let _ =` / `.ok();` on a line
//!   calling a sync-class API; the single sanctioned sink is
//!   `media::best_effort(..)` (each site documents why).

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::process::ExitCode;

use dxh_dura::{
    Check, EffectClass, ACK_FILL, COMMITTED_UNLINK, DIR_FSYNC_FNS, RULES, SINKS, SYNC_RESULT_TOKENS,
};

use crate::scan::{clean_source, split_functions};

/// The persistence-path modules under the durability discipline, as
/// source paths relative to the repo root without the `.rs`.
const TARGETS: &[&str] = &[
    "crates/core/src/store",
    "crates/core/src/media",
    "crates/core/src/service",
    "crates/core/src/commitlog",
    "crates/core/src/facade",
    "crates/extmem/src/blob",
    "crates/extmem/src/frame",
    "crates/extmem/src/block_file",
    "crates/extmem/src/sim_disk",
];

/// The source files of module `module` under `root` — `<module>.rs`
/// and, sorted, the `.rs` files of `<module>/` — as `(path relative to
/// root, text)`. A module with no source at all is an error: the corpus
/// must not shrink silently.
fn module_sources(root: &Path, module: &str) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let flat = format!("{module}.rs");
    if root.join(&flat).is_file() {
        files.push(flat);
    }
    if let Ok(entries) = std::fs::read_dir(root.join(module)) {
        for entry in entries {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if name.ends_with(".rs") {
                files.push(format!("{module}/{name}"));
            }
        }
    }
    if files.is_empty() {
        return Err(std::io::Error::other(format!("module {module} has no source")));
    }
    files.sort();
    files
        .into_iter()
        .map(|rel| std::fs::read_to_string(root.join(&rel)).map(|text| (rel, text)))
        .collect()
}

/// Every source file of every [`TARGETS`] module under `root`.
fn corpus(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for module in TARGETS {
        files.extend(module_sources(root, module)?);
    }
    Ok(files)
}

/// When a called name is defined by several scanned functions (the
/// real and the simulated impl of one primitive, usually), inlining
/// binds the one whose `impl` target appears earliest here: the real
/// impl's system calls are the intended summary.
const CANONICAL_IMPLS: &[&str] = &["DirMedia", "BlockFile", "FileDisk", "KvStore", "DirLock"];

/// Call names never inlined: they collide with std idioms (`drop(g)`
/// releases a guard, `.open(`/`.write(`/`.read(` are ubiquitous std
/// I/O methods), so binding them to a scanned function of the same
/// name would inject phantom effects into unrelated sequences — and a
/// phantom fsync could *mask* a real violation.
const UNBOUND_CALLS: &[&str] = &["drop", "open", "new", "write", "read"];

/// The one sanctioned discard sink for sync-class `Result`s.
const DISCARD_EXEMPT: &str = "best_effort(";

/// One durability-order violation, anchored at a source line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Violation {
    /// Index into the scanned source list (the [`corpus`] order in
    /// `run`).
    pub file: usize,
    /// 1-based anchor line.
    pub line: usize,
    /// The violated rule's id in `dxh_dura::RULES`.
    pub rule: &'static str,
    /// Human-readable description.
    pub what: String,
}

/// Anchor/effect counts across the scanned corpus — `run` enforces
/// floors on these so a scanner regression (sinks renamed, token
/// drift) cannot silently turn the lint vacuous.
#[derive(Debug, Default)]
pub(crate) struct ScanStats {
    pub fns: usize,
    pub renames: usize,
    pub acks: usize,
    pub committed_unlinks: usize,
    pub data_fsyncs: usize,
    pub dir_fsyncs: usize,
}

/// A classified site: where it is, in which scanned file.
#[derive(Debug, Clone, Copy)]
struct Site {
    file: usize,
    line: usize,
}

/// One entry of a function's raw (pre-inline) effect sequence.
#[derive(Debug, Clone)]
enum Item {
    Eff(EffectClass, Site),
    /// A call to another scanned function, by index.
    Call(usize),
}

/// One scanned function: identity plus cleaned body lines.
struct FnInfo {
    name: String,
    imp: Option<String>,
    file: usize,
    body: Vec<(usize, String)>,
}

/// Every `needle` occurrence in `hay`, by byte offset.
fn occurrences(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(i) = hay[at..].find(needle) {
        out.push(at + i);
        at += i + needle.len().max(1);
    }
    out
}

/// Whether a call-name match at `col..col+len` is a standalone
/// identifier followed directly by `(`.
fn call_boundary_ok(text: &str, col: usize, len: usize) -> bool {
    let prev_ok = col == 0
        || text[..col].chars().next_back().is_some_and(|c| !(c.is_alphanumeric() || c == '_'));
    prev_ok && text[col + len..].starts_with('(')
}

/// Scans one cleaned body line into classified items (sinks, ack
/// fills, committed-file unlinks, calls into the corpus), ordered by
/// column. Call matches never overlap a sink match — `fs::write(`
/// classifies as the sink, not as a call to a scanned `write`.
fn line_items(
    text: &str,
    site: Site,
    in_dir_fsync_fn: bool,
    call_of: &HashMap<&str, usize>,
    out: &mut Vec<Item>,
) {
    let mut found: Vec<(usize, usize, Item)> = Vec::new();
    for &(tok, class) in SINKS {
        for col in occurrences(text, tok) {
            let class =
                if tok == ".sync_all(" && in_dir_fsync_fn { EffectClass::DirFsync } else { class };
            found.push((col, col + tok.len(), Item::Eff(class, site)));
        }
    }
    for col in occurrences(text, ACK_FILL) {
        found.push((col, col + ACK_FILL.len(), Item::Eff(EffectClass::AckRelease, site)));
    }
    for col in occurrences(text, COMMITTED_UNLINK) {
        let end = col + COMMITTED_UNLINK.len();
        found.push((col, end, Item::Eff(EffectClass::CommittedUnlink, site)));
    }
    for (&name, &idx) in call_of {
        for col in occurrences(text, name) {
            if !call_boundary_ok(text, col, name.len()) {
                continue;
            }
            let span = (col, col + name.len() + 1);
            if found.iter().any(|&(s, e, _)| span.0 < e && s < span.1) {
                continue;
            }
            found.push((span.0, span.1, Item::Call(idx)));
        }
    }
    found.sort_by_key(|&(col, _, _)| col);
    out.extend(found.into_iter().map(|(_, _, it)| it));
}

/// Resolves function `i`'s effect sequence: its own effects with every
/// call inlined to a fixpoint. Cycles resolve to the empty sequence at
/// the back edge (recursion adds no *new* ordering evidence).
fn resolve(
    i: usize,
    items: &[Vec<Item>],
    memo: &mut Vec<Option<Vec<(EffectClass, Site)>>>,
    on_stack: &mut Vec<bool>,
) -> Vec<(EffectClass, Site)> {
    if let Some(seq) = &memo[i] {
        return seq.clone();
    }
    if on_stack[i] {
        return Vec::new();
    }
    on_stack[i] = true;
    let mut seq = Vec::new();
    for it in &items[i] {
        match it {
            Item::Eff(class, site) => seq.push((*class, *site)),
            Item::Call(j) => seq.extend(resolve(*j, items, memo, on_stack)),
        }
    }
    on_stack[i] = false;
    memo[i] = Some(seq.clone());
    seq
}

/// Checks one function's resolved sequence against every lint-enabled
/// ordering rule of the table. Rules anchor only on the effect sites
/// flagged `own`: the function's own, while inlined callees' effects are
/// context — they satisfy preceded/followed obligations but are not
/// re-anchored here (each callee anchors its own sites in its own
/// evaluation, where its local ordering holds; re-anchoring them in
/// every caller would indict e.g. a write-free rename with a caller's
/// unrelated earlier buffered write). Acks are the exception,
/// decided by the caller of this function: an ack helper's fills are
/// anchored where the helper is inlined, not in the helper.
fn eval_sequence(seq: &[(EffectClass, Site, bool)], out: &mut BTreeSet<Violation>) {
    for rule in RULES.iter().filter(|r| r.lint) {
        match rule.check {
            Check::Preceded(want) => {
                for (i, &(class, site, own)) in seq.iter().enumerate() {
                    if !own || class != rule.anchor {
                        continue;
                    }
                    let bad = if rule.anchor == EffectClass::Rename {
                        // Nearest write-class predecessor must be the
                        // fsync; no predecessor is vacuously ordered.
                        matches!(
                            seq[..i].iter().rev().find(|(c, _, _)| {
                                matches!(c, EffectClass::VolatileWrite | EffectClass::DataFsync)
                            }),
                            Some((EffectClass::VolatileWrite, _, _))
                        )
                    } else {
                        // Ack: some fsync must exist earlier in the path.
                        !seq[..i].iter().any(|(c, _, _)| *c == want)
                    };
                    if bad {
                        out.insert(Violation {
                            file: site.file,
                            line: site.line,
                            rule: rule.name,
                            what: format!(
                                "{} not preceded by {} — {}",
                                rule.anchor.name(),
                                want.name(),
                                rule.why
                            ),
                        });
                    }
                }
            }
            Check::Followed(want) => {
                for (i, &(class, site, own)) in seq.iter().enumerate() {
                    if !own || class != rule.anchor {
                        continue;
                    }
                    if !seq[i + 1..].iter().any(|(c, _, _)| *c == want) {
                        out.insert(Violation {
                            file: site.file,
                            line: site.line,
                            rule: rule.name,
                            what: format!(
                                "{} not followed by {} — {}",
                                rule.anchor.name(),
                                want.name(),
                                rule.why
                            ),
                        });
                    }
                }
            }
            Check::DirectlyAfter(want) => {
                for (i, &(class, site, own)) in seq.iter().enumerate() {
                    if !own || class != rule.anchor {
                        continue;
                    }
                    if seq[..i].last().map(|(c, _, _)| *c) != Some(want) {
                        out.insert(Violation {
                            file: site.file,
                            line: site.line,
                            rule: rule.name,
                            what: format!(
                                "{} not directly after {} — {}",
                                rule.anchor.name(),
                                want.name(),
                                rule.why
                            ),
                        });
                    }
                }
            }
            // Trace-only / handled by the per-line discard check.
            Check::NoDiscardedSyncResult | Check::BlobSyncedAtCommit => {}
        }
    }
}

/// The per-line discard check (`no-discarded-sync-result`): a sync-class
/// call's `Result` dropped with `let _ =` or `.ok();`, outside the
/// sanctioned `best_effort(..)` sink.
fn eval_discards(f: &FnInfo, out: &mut BTreeSet<Violation>) {
    for (line, text) in &f.body {
        if text.contains(DISCARD_EXEMPT) {
            continue;
        }
        if !(text.contains("let _ =") || text.contains(".ok();")) {
            continue;
        }
        if let Some(tok) = SYNC_RESULT_TOKENS.iter().find(|t| text.contains(**t)) {
            out.insert(Violation {
                file: f.file,
                line: *line,
                rule: "no-discarded-sync-result",
                what: format!(
                    "`{tok}` result discarded — {} (route a deliberate best-effort \
                     sync through media::best_effort and document why)",
                    dxh_dura::rule("no-discarded-sync-result").why
                ),
            });
        }
    }
}

/// Scans a corpus of cleaned-to-be sources (indexed as [`corpus`] in
/// `run`, arbitrarily in tests) and returns the deduped violations plus
/// the anchor census.
pub(crate) fn scan_sources(srcs: &[&str]) -> (Vec<Violation>, ScanStats) {
    // Pass 1: recover every production function in the corpus.
    let mut fns: Vec<FnInfo> = Vec::new();
    for (file, src) in srcs.iter().enumerate() {
        let cleaned = clean_source(src);
        for f in split_functions(&cleaned) {
            fns.push(FnInfo { name: f.name, imp: f.imp, file, body: f.body });
        }
    }
    // Bind each callable name to one function: the canonical impl on a
    // collision, the sole definition otherwise, nothing if ambiguous.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    let mut call_of: HashMap<&str, usize> = HashMap::new();
    for (name, cands) in &by_name {
        if UNBOUND_CALLS.contains(name) {
            continue;
        }
        let pick = if cands.len() == 1 {
            Some(cands[0])
        } else {
            CANONICAL_IMPLS
                .iter()
                .find_map(|ci| cands.iter().find(|&&i| fns[i].imp.as_deref() == Some(ci)))
                .copied()
        };
        if let Some(i) = pick {
            call_of.insert(name, i);
        }
    }
    // Pass 2: per-function raw effect sequences.
    let mut items: Vec<Vec<Item>> = Vec::with_capacity(fns.len());
    let mut stats = ScanStats { fns: fns.len(), ..ScanStats::default() };
    for f in &fns {
        let in_dir_fsync_fn = DIR_FSYNC_FNS.contains(&f.name.as_str());
        let mut seq = Vec::new();
        for (line, text) in &f.body {
            line_items(
                text,
                Site { file: f.file, line: *line },
                in_dir_fsync_fn,
                &call_of,
                &mut seq,
            );
        }
        for it in &seq {
            if let Item::Eff(class, _) = it {
                match class {
                    EffectClass::Rename => stats.renames += 1,
                    EffectClass::AckRelease => stats.acks += 1,
                    EffectClass::CommittedUnlink => stats.committed_unlinks += 1,
                    EffectClass::DataFsync => stats.data_fsyncs += 1,
                    EffectClass::DirFsync => stats.dir_fsyncs += 1,
                    EffectClass::VolatileWrite => {}
                }
            }
        }
        items.push(seq);
    }
    // Pass 3: inline to fixpoint and check every rule. Each function is
    // evaluated on its own sites with callee summaries as context —
    // except that an ack answers to whoever made its batch durable: a
    // function some scanned function calls leaves its acks to its
    // callers, which anchor them where they inline the call (an ack an
    // fsync precedes in the callee has it before it in every caller
    // too, so this indicts nothing that was conformant).
    let mut called = vec![false; fns.len()];
    for it in items.iter().flatten() {
        if let Item::Call(j) = it {
            called[*j] = true;
        }
    }
    let mut memo = vec![None; fns.len()];
    let mut on_stack = vec![false; fns.len()];
    let mut out = BTreeSet::new();
    for i in 0..fns.len() {
        let mut seq: Vec<(EffectClass, Site, bool)> = Vec::new();
        for it in &items[i] {
            match it {
                Item::Eff(class, site) => {
                    seq.push((*class, *site, !(called[i] && *class == EffectClass::AckRelease)))
                }
                Item::Call(j) => seq.extend(
                    resolve(*j, &items, &mut memo, &mut on_stack)
                        .into_iter()
                        .map(|(c, s)| (c, s, c == EffectClass::AckRelease)),
                ),
            }
        }
        eval_sequence(&seq, &mut out);
        eval_discards(&fns[i], &mut out);
    }
    (out.into_iter().collect(), stats)
}

/// Anchor floors, pinned to what the real corpus has: the manifest
/// commit's rename, the one ack site both commit paths share
/// (`ack_through`), the one unlink of committed level files
/// (the manifest commit's), the harden / log / blob-log / block-file
/// fsyncs and the two byte-file `sync` primitives', and the dir fsyncs
/// of the commit, the fresh log and the two `sync_dir` primitives.
/// Fewer means the scanner lost its tokens, not that the code got
/// cleaner.
fn floors_ok(stats: &ScanStats) -> bool {
    stats.renames >= 1
        && stats.acks >= 1
        && stats.committed_unlinks >= 1
        && stats.data_fsyncs >= 16
        && stats.dir_fsyncs >= 4
}

/// Runs the checker against `root` (defaults to the current directory).
pub fn run(root: Option<&str>) -> ExitCode {
    let root = Path::new(root.unwrap_or("."));
    let files = match corpus(root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("lint-durability: cannot read the corpus: {e}");
            return ExitCode::FAILURE;
        }
    };
    let srcs: Vec<&str> = files.iter().map(|(_, text)| text.as_str()).collect();
    let (violations, stats) = scan_sources(&srcs);
    for v in &violations {
        eprintln!("{}:{}: [{}] {}", files[v.file].0, v.line, v.rule, v.what);
    }
    if !floors_ok(&stats) {
        eprintln!("lint-durability: anchor census below floor ({stats:?}) — scanner broken?");
        return ExitCode::FAILURE;
    }
    if !violations.is_empty() {
        eprintln!("lint-durability: {} violation(s)", violations.len());
        return ExitCode::FAILURE;
    }
    println!(
        "lint-durability: ok ({} fns; {} rename / {} ack / {} unlink anchors, \
         {} data + {} dir fsyncs; 0 violations)",
        stats.fns,
        stats.renames,
        stats.acks,
        stats.committed_unlinks,
        stats.data_fsyncs,
        stats.dir_fsyncs,
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Violation> {
        scan_sources(&[src]).0
    }

    fn rules_of(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    /// The full manifest-commit shape (the real `commit_file_atomic`)
    /// is conformant, and the real `sync_dir` primitive's `sync_all` is
    /// reclassified as a dir fsync.
    #[test]
    fn conformant_commit_protocol_passes() {
        let src = "
            fn commit_file_atomic(media: &mut M, name: &str, text: &str) -> Result<()> {
                let mut f = media.create_file(&tmp)?;
                f.append(text.as_bytes())?;
                f.sync()?;
                media.rename(&tmp, name)?;
                media.sync_dir()
            }
            impl StoreMedia for DirMedia {
                fn sync_dir(&mut self) -> Result<()> {
                    fs::File::open(&self.dir)?.sync_all()?;
                    Ok(())
                }
            }
        ";
        let (v, stats) = scan_sources(&[src]);
        assert_eq!(v, vec![]);
        assert_eq!((stats.renames, stats.data_fsyncs, stats.dir_fsyncs), (1, 1, 2));
    }

    /// Seeded mutant: the data fsync dropped before the rename.
    #[test]
    fn rename_without_data_fsync_is_caught() {
        let src = "
            fn commit(media: &mut M) -> Result<()> {
                f.append(text)?;
                media.rename(a, b)?;
                media.sync_dir()
            }
        ";
        let v = scan(src);
        assert_eq!(rules_of(&v), vec!["rename-after-data-fsync"], "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    /// Seeded mutant: the dir fsync dropped after the rename.
    #[test]
    fn rename_without_dir_fsync_is_caught() {
        let src = "
            fn commit(media: &mut M) -> Result<()> {
                f.append(text)?;
                f.sync()?;
                media.rename(a, b)?;
                Ok(())
            }
        ";
        let v = scan(src);
        assert_eq!(rules_of(&v), vec!["rename-then-dir-fsync"], "{v:?}");
    }

    /// A rename with no prior write-class effect is vacuously ordered —
    /// moving aside a log whose every byte the commit that appended it
    /// already fsynced.
    #[test]
    fn write_free_rename_is_vacuously_ordered() {
        let src = "
            fn set_aside(&mut self) -> Result<()> {
                self.root.rename(a, b)?;
                self.root.sync_dir()?;
                Ok(())
            }
        ";
        assert_eq!(scan(src), vec![]);
    }

    /// Seeded mutant: an answer cell filled with `Ok` before any fsync.
    #[test]
    fn ack_before_fsync_is_caught() {
        let src = "
            fn commit_round(q: &Q) {
                *q.cell.0.lock() = Some(Ok(n));
            }
        ";
        let v = scan(src);
        assert_eq!(rules_of(&v), vec!["ack-after-fsync"], "{v:?}");
    }

    /// The conformant ack shape: the round's fsync arrives via the
    /// *inlined* `log.commit(..)` summary, and the failure-path
    /// roll-back after the fsync does not re-indict the ack
    /// (existence semantics, not nearest).
    #[test]
    fn inlined_log_fsync_satisfies_the_ack_rule() {
        let src = "
            impl<M: StoreMedia> CommitLog<M> {
                fn commit(&mut self, bytes: &[u8]) -> Result<()> {
                    self.file.append(bytes)?;
                    self.file.sync()?;
                    if failed {
                        self.file.set_len(len)?;
                    }
                    Ok(())
                }
            }
            fn commit_round(q: &Q, log: &mut CommitLog<M>) {
                log.commit(&bytes)?;
                *q.cell.0.lock() = Some(Ok(n));
            }
        ";
        assert_eq!(scan(src), vec![]);
    }

    /// An ack helper (the real `ack_through`) answers at its call sites:
    /// after the round's fsync it is conformant, and the seeded mutant —
    /// the helper called before the harden — is caught.
    #[test]
    fn an_ack_helper_is_anchored_where_it_is_called() {
        let helper = "
            fn ack_through(shard: &Shard, seq: u64) {
                *b.cell.0.lock() = Some(Ok(answers));
            }
            impl KvStore {
                fn harden(&mut self) -> Result<()> {
                    self.file.sync_data()
                }
            }
        ";
        let good = "
            fn harden_shard(shard: &Shard) {
                store.harden()?;
                ack_through(shard, covered);
            }
        ";
        assert_eq!(scan(&format!("{helper}{good}")), vec![]);
        let bad = "
            fn harden_shard(shard: &Shard) {
                ack_through(shard, covered);
                store.harden()?;
            }
        ";
        let v = scan(&format!("{helper}{good}{}", bad.replace("harden_shard", "eager_shard")));
        assert_eq!(rules_of(&v), vec!["ack-after-fsync"], "{v:?}");
        // Uncalled, the helper answers for itself like any function.
        assert_eq!(rules_of(&scan(helper)), vec!["ack-after-fsync"]);
    }

    /// Seeded mutants: committed level files unlinked before the
    /// manifest that drops them is durable — ahead of the commit, and
    /// between its rename and its dir fsync. Directly after the commit
    /// (the real `write_manifest`'s shape) is conformant.
    #[test]
    fn unlink_of_committed_files_before_the_commit_is_durable_is_caught() {
        let commit = "
            fn commit_file_atomic(media: &mut M, name: &str, text: &str) -> Result<()> {
                let mut f = media.create_file(&tmp)?;
                f.append(text.as_bytes())?;
                f.sync()?;
                media.rename(&tmp, name)?;
                media.sync_dir()
            }
        ";
        let good = "
            fn write_manifest(&mut self) -> Result<()> {
                commit_file_atomic(&mut self.media, MANIFEST, &out)?;
                self.table.disk_mut().backend_mut().unlink_unnamed(&levels);
                Ok(())
            }
        ";
        let (v, stats) = scan_sources(&[&format!("{commit}{good}")]);
        assert_eq!((v, stats.committed_unlinks), (vec![], 1));
        let early = "
            fn write_manifest(&mut self) -> Result<()> {
                self.table.disk_mut().backend_mut().unlink_unnamed(&levels);
                commit_file_atomic(&mut self.media, MANIFEST, &out)?;
                Ok(())
            }
        ";
        let v = scan(&format!("{commit}{early}"));
        assert_eq!(rules_of(&v), vec!["unlink-after-manifest-commit"], "{v:?}");
        let mid = "
            fn write_manifest(&mut self) -> Result<()> {
                self.media.rename(&tmp, MANIFEST)?;
                self.table.disk_mut().backend_mut().unlink_unnamed(&levels);
                self.media.sync_dir()
            }
        ";
        let v = scan(mid);
        assert_eq!(rules_of(&v), vec!["unlink-after-manifest-commit"], "{v:?}");
    }

    /// Seeded mutants: discarded sync-class results, each discard
    /// spelling; the sanctioned sink is exempt.
    #[test]
    fn discarded_sync_results_are_caught() {
        let src = "
            fn sloppy(&mut self) {
                let _ = self.file.sync_data();
                self.log.commit(&bytes).ok();
                best_effort(self.file.sync_data());
            }
        ";
        let v = scan(src);
        assert_eq!(
            rules_of(&v),
            vec!["no-discarded-sync-result", "no-discarded-sync-result"],
            "{v:?}"
        );
        assert_eq!(v[0].line, 3);
        assert_eq!(v[1].line, 4);
    }

    /// Non-vacuity, lint layer: every lint-enabled rule of the shared
    /// table fires on at least one seeded mutant.
    #[test]
    fn every_lint_rule_fires_on_a_seeded_mutant() {
        let mutants: &[(&str, &str)] = &[
            ("rename-after-data-fsync", "fn f() { g.append(b)?; m.rename(a, b)?; m.sync_dir()?; }"),
            ("rename-then-dir-fsync", "fn f() { g.sync()?; m.rename(a, b)?; }"),
            ("ack-after-fsync", "fn f(q: &Q) { *q.cell.0.lock() = Some(Ok(1)); }"),
            ("unlink-after-manifest-commit", "fn f(b: &mut B) { b.unlink_unnamed(&levels); }"),
            ("no-discarded-sync-result", "fn f(g: &File) { let _ = g.sync_data(); }"),
        ];
        for rule in RULES.iter().filter(|r| r.lint) {
            let (_, src) = mutants
                .iter()
                .find(|(name, _)| *name == rule.name)
                .unwrap_or_else(|| panic!("no seeded mutant for lint rule {}", rule.name));
            let v = scan(src);
            assert!(
                v.iter().any(|x| x.rule == rule.name),
                "mutant for {} did not fire it: {v:?}",
                rule.name
            );
        }
    }

    /// Inlining binds real over sim on a name collision: the simulated
    /// primitive's effect-free body must not stand in for the real
    /// one's system calls.
    #[test]
    fn name_collisions_bind_the_canonical_impl() {
        let src = "
            impl StoreMedia for SimMedia {
                fn publish(&mut self, bytes: &[u8]) -> Result<()> {
                    self.env.put(bytes)
                }
            }
            impl StoreMedia for DirMedia {
                fn publish(&mut self, bytes: &[u8]) -> Result<()> {
                    self.file.write_all(bytes)?;
                    self.file.sync_data()
                }
            }
            fn commit_round(q: &Q, media: &mut M) {
                media.publish(&bytes)?;
                *q.cell.0.lock() = Some(Ok(n));
            }
        ";
        assert_eq!(scan(src), vec![]);
    }

    /// A wedge fill (`Some(Err(..))`) is a failure, not an ack: no
    /// durability promise, no anchor.
    #[test]
    fn error_fills_are_not_acks() {
        let src = "
            fn wedge(q: &Q, why: &str) {
                *q.cell.0.lock() = Some(Err(why.clone()));
            }
        ";
        assert_eq!(scan(src), vec![]);
    }

    /// The real persistence paths pass the lint — the same invocation
    /// CI gates on — and the anchor census clears its floors, so the
    /// pass is provably non-vacuous on the real corpus.
    #[test]
    fn real_persistence_paths_pass() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let files = corpus(&root).unwrap();
        assert!(
            files.iter().any(|(rel, _)| rel.starts_with("crates/core/src/store/")),
            "{files:?}"
        );
        let srcs: Vec<&str> = files.iter().map(|(_, text)| text.as_str()).collect();
        let (v, stats) = scan_sources(&srcs);
        let pretty: Vec<String> = v
            .iter()
            .map(|x| format!("{}:{}: [{}] {}", files[x.file].0, x.line, x.rule, x.what))
            .collect();
        assert!(pretty.is_empty(), "{pretty:#?}");
        assert!(floors_ok(&stats), "{stats:?}");
    }
}
