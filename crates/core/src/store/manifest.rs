//! The manifest: its codec (one text file, written whole by every
//! commit) and the bounds a persisted parameter must respect before it
//! is believed.

use dxh_extmem::{BlockId, ExtMemError, Result};

use super::KvStore;
use crate::config::CoreConfig;
use crate::media::{commit_file_atomic, older_layout, StoreMedia, MANIFEST};
use crate::stream::Region;

pub(super) const MAGIC: &str = "dxh-store v3";

/// The magic of the layout before `H0` was imaged: the same lines, none
/// of them `h0`. Such a manifest opens as a store whose `H0` is empty.
const MAGIC_V2: &str = "dxh-store v2";

impl<M: StoreMedia> KvStore<M> {
    /// The commit: writes `H0`'s image into a fresh level file,
    /// `fdatasync`s it and the level files written since the last
    /// commit, atomically replaces `MANIFEST` with the table's current
    /// state — the commit point — and only then unlinks the files the
    /// new manifest no longer names (the image the last commit wrote
    /// among them). Optional lines are simply left out: `h0` when `H0` is
    /// empty, `blob` outside payload mode, `watermark` outside a service
    /// (see `set_replay_watermark`). `checkpoint` picks the counter the
    /// commit's bytes are added to, nothing else.
    pub(super) fn write_manifest(&mut self, checkpoint: bool) -> Result<()> {
        // `H0` stays in memory; its image is a level file like any
        // other to the fsync, the rename and the unlink below.
        self.image = self.table.write_memory_image()?;
        let cfg = self.table.config();
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!(
            "b {}\nm {}\ngamma {}\nbeta {}\n",
            cfg.b, cfg.m, cfg.gamma, cfg.beta
        ));
        // Footnote 2's accounting, the only one; the line stays so that
        // the format is the one every earlier build wrote.
        out.push_str("cost seek\n");
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("data {}\n", self.data_gen));
        // Presence of the `blob` line ⟺ payload mode; its value is the
        // committed payload length — reopen truncates the log back to it
        // (crash-tail discard) and verifies the prefix. Callers order a
        // blob sync before this commit (`blob-sync-before-index-commit`).
        if let Some(log) = &self.blob {
            out.push_str(&format!("blob {}\n", log.len()));
        }
        if self.watermark > 0 {
            out.push_str(&format!("watermark {}\n", self.watermark));
        }
        // A level's base names its file: block id = file << 32 | slot.
        // `H0`'s image is named the same way, its blocks in place of
        // buckets.
        if let Some(r) = self.image {
            out.push_str(&format!("h0 {} {} {}\n", r.base.raw(), r.buckets, r.items));
        }
        let levels = self.table.persisted_levels();
        out.push_str(&format!("levels {}\n", levels.len()));
        for (k, r) in levels.iter().enumerate() {
            if let Some(r) = r {
                out.push_str(&format!("level {k} {} {} {}\n", r.base.raw(), r.buckets, r.items));
            }
        }
        // The level files' fsync, then the manifest, atomic and durable
        // (tmp + fsync + rename + dir fsync). A crash between the two
        // finds new files durable beside the *old* manifest, which is
        // harmless: none of them is a file that manifest names, so the
        // old state is intact and log replay above the old watermark
        // lands on a batch boundary.
        self.table.disk_mut().flush()?;
        commit_file_atomic(&mut self.media, MANIFEST, &out)?;
        // The new commit is durable: no level it names lives in a file a
        // flush carried away or in the image it replaced, so those files
        // may go.
        let named = self.named_regions();
        self.table.disk_mut().backend_mut().unlink_unnamed(&named);
        self.manifest_len = out.len() as u64;
        let io = &mut self.manifest_io;
        let (commits, bytes) = match checkpoint {
            true => (&mut io.delta_commits, &mut io.delta_bytes),
            false => (&mut io.full_commits, &mut io.full_bytes),
        };
        *commits += 1;
        *bytes += out.len() as u64;
        Ok(())
    }

    /// Manifest-commit I/O accounting since this handle opened: how many
    /// bytes the index-commit path wrote, split by who asked for the
    /// commit. A service shard in steady state accumulates almost all
    /// its commits — a couple of hundred bytes each — on the checkpoint
    /// side; the torture harness and the bench hold them to that through
    /// these counters.
    pub fn manifest_io(&self) -> ManifestIoStats {
        self.manifest_io
    }
}

/// Cumulative manifest-commit I/O of one [`KvStore`] handle since it
/// opened. Every commit writes the same manifest — O(log n) level lines
/// — and the split is by caller: `full_*` counts the commits of
/// [`KvStore::sync`], compaction and creation, `delta_*` the checkpoint
/// hardens of a service's committers. The names predate that: a `full`
/// commit used to carry the table-sized free list of the block
/// allocator, and checkpoint commits were once frames appended to a
/// `MANIFEST.DELTA` chain.
#[derive(Clone, Copy, Debug, Default)]
pub struct ManifestIoStats {
    /// Bytes written by the manifest commits of sync, compaction and
    /// creation.
    pub full_bytes: u64,
    /// Manifest commits of sync, compaction and creation.
    pub full_commits: u64,
    /// Bytes written by checkpoint manifest commits.
    pub delta_bytes: u64,
    /// Checkpoint manifest commits.
    pub delta_commits: u64,
}

/// Splits a manifest line into its key, first value and the remaining
/// fields; `None` for a line with fewer than two fields.
fn split_line(line: &str) -> Option<(&str, &str, std::str::SplitWhitespace<'_>)> {
    let mut parts = line.split_whitespace();
    Some((parts.next()?, parts.next()?, parts))
}

/// Parsed manifest contents.
pub(super) struct Manifest {
    pub(super) cfg: CoreConfig,
    pub(super) seed: u64,
    /// Generation of the blob log (0 = `store.blob`; absent lines parse
    /// as 0).
    pub(super) data_gen: u64,
    pub(super) levels: Vec<Option<Region>>,
    /// `H0`'s image: its file's blocks in place of buckets (`None`: `H0`
    /// was empty, or the manifest predates images).
    pub(super) h0: Option<Region>,
    /// Commit-log replay watermark (absent lines parse as 0 — stores
    /// outside a service never write one).
    pub(super) watermark: u64,
    /// Committed blob-log length in bytes. Presence of the line ⟺ the
    /// store runs in payload mode; recovery truncates the log here.
    pub(super) blob: Option<u64>,
}

pub(super) fn corrupt(why: &str) -> ExtMemError {
    ExtMemError::Corrupt(format!("manifest: {why}"))
}

/// Largest memory budget a manifest may state, in items: 4 GiB worth,
/// 65 536 times the deployed `m`. Reopen sizes `H0` and the level
/// filters from the persisted `m`, so a corrupt one must be rejected
/// before it is believed — like the `levels` count below.
pub(super) const MAX_M: usize = 1 << 28;

/// Largest growth factor a manifest may state. The first migration
/// sizes a level of `γ · m/b` buckets; the paper's tradeoff has no use
/// for `γ` beyond `b`, and deployed values are 2–16.
pub(super) const MAX_GAMMA: u64 = 1 << 16;

/// Whether a store may carry `cfg`'s creation parameters. Checked where
/// a store is created as well as where a manifest is parsed, so a store
/// this code creates always reopens.
pub(super) fn plausible_creation_params(cfg: &CoreConfig) -> bool {
    cfg.m <= MAX_M && cfg.gamma <= MAX_GAMMA
}

impl Manifest {
    pub(super) fn parse(text: &str) -> Result<Self> {
        let mut lines = text.lines();
        match lines.next() {
            Some(MAGIC | MAGIC_V2) => {}
            // Written before deletion existed, when `u64::MAX` was an
            // ordinary value and not yet the deletion marker.
            Some("dxh-store v1") => return Err(older_layout("a `dxh-store v1` manifest")),
            _ => return Err(corrupt("bad magic")),
        }
        // The creation-time parameters first, then the state lines.
        let mut b = None;
        let mut m = None;
        let mut gamma = None;
        let mut beta = None;
        let mut seed = None;
        let mut data_gen = 0u64;
        for (key, v, _) in lines.clone().filter_map(split_line) {
            match key {
                "b" => b = v.parse().ok(),
                "m" => m = v.parse().ok(),
                "gamma" => gamma = v.parse().ok(),
                "beta" => beta = v.parse().ok(),
                // Footnote 2's pricing is the only one a store is built by;
                // the literal one, `strict`, is refused by name.
                "cost" if v == "strict" => {
                    return Err(corrupt("`cost strict`: a read-modify-write is one I/O here"))
                }
                "cost" if v != "seek" => return Err(corrupt("unknown cost model")),
                "seed" => seed = v.parse().ok(),
                "data" => data_gen = v.parse().map_err(|_| corrupt("bad data generation"))?,
                _ => {}
            }
        }
        let (Some(b), Some(m), Some(gamma), Some(beta), Some(seed)) = (b, m, gamma, beta, seed)
        else {
            return Err(corrupt("missing required field"));
        };
        let cfg = CoreConfig::custom(b, m, gamma, beta)
            .map_err(|_| corrupt("invalid creation parameters"))?;
        if !plausible_creation_params(&cfg) {
            return Err(corrupt("implausible creation parameters"));
        }
        let levels = Vec::new();
        let mut manifest =
            Manifest { cfg, seed, data_gen, levels, h0: None, watermark: 0, blob: None };
        for line in lines {
            manifest.apply_line(line)?;
        }
        Ok(manifest)
    }

    /// Applies one state line. A known key whose fields do not parse is
    /// [`ExtMemError::Corrupt`]; unknown keys (and lines too short to
    /// carry a value) are ignored (forward-compatible) — among them the
    /// `epoch` line of the build before this one and the `slots` and
    /// `free` lines of the block allocator of the one before that.
    fn apply_line(&mut self, line: &str) -> Result<()> {
        let Some((key, v, rest)) = split_line(line) else { return Ok(()) };
        match key {
            "watermark" => self.watermark = v.parse().map_err(|_| corrupt("bad watermark"))?,
            "blob" => self.blob = Some(v.parse().map_err(|_| corrupt("bad blob length"))?),
            "levels" => {
                let n: usize = v.parse().map_err(|_| corrupt("bad level count"))?;
                // Levels grow geometrically (γ ≥ 2), so even a store
                // holding every key in the 63-bit space needs < 64 of
                // them; anything larger is corruption, not scale.
                if n > 64 {
                    return Err(corrupt("implausible level count"));
                }
                self.levels.resize(n.max(1), None);
            }
            "level" => {
                let k = match v.parse::<usize>() {
                    Ok(k) if k > 0 && k < self.levels.len() => k,
                    _ => return Err(corrupt("level index out of range")),
                };
                let [base, buckets, items] = fields(rest)?;
                self.levels[k] = Some(region(base, buckets, items)?);
            }
            "h0" => {
                let [blocks, items] = fields(rest)?;
                let base = v.parse().map_err(|_| corrupt("bad h0 field"))?;
                self.h0 = Some(region(base, blocks, items)?);
            }
            _ => {}
        }
        Ok(())
    }
}

/// Exactly `N` numeric fields.
fn fields<const N: usize>(rest: std::str::SplitWhitespace<'_>) -> Result<[u64; N]> {
    let nums: Vec<u64> =
        rest.map(|p| p.parse().map_err(|_| corrupt("bad field"))).collect::<Result<_>>()?;
    nums.try_into().map_err(|_| corrupt("wrong number of fields"))
}

fn region(base: u64, buckets: u64, items: u64) -> Result<Region> {
    let items = usize::try_from(items).map_err(|_| corrupt("item count out of range"))?;
    Ok(Region { base: BlockId(base), buckets, items })
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::Path;

    use dxh_tables::ExternalDictionary;

    use super::super::tests::*;
    use super::super::{blob_file_name, KvStore};
    use super::*;
    use crate::media::{read_text, MANIFEST_DELTA};

    /// A manifest this build writes, `H0`'s image included.
    const IMAGED: &str = "dxh-store v3\nb 8\nm 128\ngamma 2\nbeta 2\ncost seek\nseed 7\n\
                          data 0\nblob 8445\nwatermark 5\nh0 12884901888 3 22\nlevels 2\n\
                          level 1 8589934592 32 128\n";

    /// What a manifest line may be made of: every key the parser knows,
    /// ones it does not, the older magics, and tokens around the edges
    /// of every field's range, `,`-separated.
    const KEYS: &str = "b,m,gamma,beta,cost,seed,data,blob,watermark,levels,level,h0,epoch,\
                        dxh-store v1,dxh-store v2,";
    const TOKENS: &str = "0,1,2,8,63,64,128,4294967296,9223372036854775807,\
                          18446744073709551615,18446744073709551616,-1,nan";

    /// [`Manifest::parse`] of `bytes`, as an open reads them: text or
    /// `Corrupt`.
    fn parse_bytes(bytes: &[u8]) -> Result<Manifest> {
        let text = std::str::from_utf8(bytes).map_err(|_| corrupt("not UTF-8"))?;
        Manifest::parse(text)
    }

    /// The parser's verdicts: `Ok`, `Corrupt`, or — for a first line
    /// naming the older layout it refuses — that refusal.
    fn total(bytes: &[u8]) -> std::result::Result<(), String> {
        let v1 = std::str::from_utf8(bytes).is_ok_and(|t| t.lines().next() == Some("dxh-store v1"));
        match parse_bytes(bytes) {
            Ok(_) | Err(ExtMemError::Corrupt(_)) => Ok(()),
            Err(ExtMemError::BadConfig(why)) if v1 && why.contains("dxh-store v1") => Ok(()),
            Err(e) => Err(format!("{e:?}")),
        }
    }

    proptest::proptest! {
        /// The manifest parser is total on arbitrary bytes: whatever it
        /// is handed — noise, noise spliced into a manifest this build
        /// wrote, or that manifest with lines replaced by any key over
        /// any tokens, the `h0` line among them — it answers `Ok` or
        /// `Corrupt`, and never panics.
        #[test]
        fn the_parser_answers_any_bytes_ok_or_corrupt(
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..160),
            at in 0usize..200,
            edits in proptest::collection::vec(
                (
                    0usize..16,
                    0usize..15,
                    proptest::collection::vec(0usize..14, 0..5),
                    proptest::prelude::any::<u64>(),
                ),
                0..6,
            ),
        ) {
            let (keys, tokens): (Vec<&str>, Vec<&str>) =
                (KEYS.split(',').collect(), TOKENS.split(',').collect());
            proptest::prop_assert!(total(&noise).is_ok(), "{:?}", total(&noise));
            let mut spliced = IMAGED.as_bytes().to_vec();
            let at = at.min(spliced.len());
            spliced.splice(at..at, noise.iter().copied());
            proptest::prop_assert!(total(&spliced).is_ok(), "{:?}", total(&spliced));
            // Lines past the manifest's 13 are appended; a token past the
            // table is the random word.
            let mut lines: Vec<String> = IMAGED.lines().map(String::from).collect();
            for (line, key, picks, word) in edits {
                let word = word.to_string();
                let fields = picks.iter().map(|&t| tokens.get(t).copied().unwrap_or(&word));
                let edited = std::iter::once(keys[key]).chain(fields).collect::<Vec<_>>().join(" ");
                match lines.get_mut(line) {
                    Some(slot) => *slot = edited,
                    None => lines.push(edited),
                }
            }
            let edited = lines.join("\n").into_bytes();
            proptest::prop_assert!(total(&edited).is_ok(), "{:?}", total(&edited));
        }
    }

    #[test]
    fn every_line_of_an_imaged_manifest_parses() {
        let m = Manifest::parse(IMAGED).unwrap();
        let h0 = m.h0.expect("the h0 line");
        assert_eq!((h0.base.raw(), h0.buckets, h0.items), (3 << 32, 3, 22));
        assert_eq!(m.levels[1].map(|r| (r.buckets, r.items)), Some((32, 128)));
        let v2 = IMAGED.replace("v3", "v2").replace("h0 12884901888 3 22\n", "");
        assert!(Manifest::parse(&v2).unwrap().h0.is_none(), "a v2 manifest: H0 is empty");
        for line in ["h0 12884901888 3", "h0 12884901888 3 22 1", "h0 x 3 22", "h0 1 3 -1"] {
            let text = IMAGED.replace("h0 12884901888 3 22", line);
            assert!(matches!(Manifest::parse(&text), Err(ExtMemError::Corrupt(_))), "{line}");
        }
    }

    #[test]
    fn implausible_level_count_rejected_without_allocating() {
        let text = format!(
            "{MAGIC}\nb 8\nm 128\ngamma 2\nbeta 2\nseed 1\nslots 0\nfree \nlevels 99999999999999\n"
        );
        assert!(Manifest::parse(&text).is_err());
    }

    #[test]
    fn corrupt_manifest_rejected() {
        let dir = tmp_dir("corrupt");
        let _ = fs::remove_dir_all(&dir);
        drop(KvStore::open(&dir, cfg(), 9).unwrap());
        fs::write(dir.join(MANIFEST), "not a manifest\n").unwrap();
        assert!(KvStore::open(&dir, cfg(), 9).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_parse_round_trips_all_fields() {
        let text = format!(
            "{MAGIC}\nb 8\nm 128\ngamma 2\nbeta 2\ncost seek\nseed 42\ndata 3\nslots 10\n\
             free 3,7\nlevels 3\nlevel 1 0 2 5\nlevel 2 2 4 9\n"
        );
        let m = Manifest::parse(&text).unwrap();
        assert_eq!(m.cfg.b, 8);
        assert_eq!(m.seed, 42);
        assert_eq!(m.data_gen, 3);
        assert_eq!(m.levels.len(), 3, "the allocator lines of earlier versions are skipped");
        let r = m.levels[2].unwrap();
        assert_eq!((r.base.raw(), r.buckets, r.items), (2, 4, 9));
        assert!(m.levels[1].is_some());
    }

    /// One accounting: a manifest without a `cost` line, or with `cost
    /// seek`, opens as today; `cost strict` is refused by name, and any
    /// other price is corrupt.
    #[test]
    fn a_strict_cost_line_is_refused_by_name() {
        let seek = Manifest::parse(IMAGED).unwrap();
        let absent = Manifest::parse(&IMAGED.replace("cost seek\n", "")).unwrap();
        assert_eq!((seek.cfg.b, seek.seed), (absent.cfg.b, absent.seed));
        match Manifest::parse(&IMAGED.replace("cost seek", "cost strict")) {
            Err(ExtMemError::Corrupt(why)) => assert!(why.contains("strict"), "{why}"),
            other => panic!("cost strict: {:?}", other.map(|m| m.seed)),
        }
        let other = Manifest::parse(&IMAGED.replace("cost seek", "cost free"));
        assert!(matches!(other, Err(ExtMemError::Corrupt(_))));
    }

    #[test]
    fn manifest_without_data_line_defaults_to_generation_zero() {
        // Pre-compaction manifests (earlier stores) have no `data` line.
        let text = format!("{MAGIC}\nb 8\nm 128\ngamma 2\nbeta 2\nseed 1\nslots 0\nfree \n");
        assert_eq!(Manifest::parse(&text).unwrap().data_gen, 0);
        assert_eq!(
            (blob_file_name(0), blob_file_name(2)),
            ("store.blob".into(), "store.2.blob".into())
        );
    }

    /// Every commit writes the same manifest: a few level lines and at
    /// most one `h0` line, whatever the table holds and whoever asked —
    /// no allocator state (there is no allocator), no marker beside it. `sync` and the service's
    /// `harden` differ in the counter they feed, and a reopen after
    /// either, cleanly closed or not, is the same reopen.
    #[test]
    fn a_commit_is_a_few_level_lines_whoever_asks_for_it() {
        use dxh_extmem::SimEnv;
        let dir = tmp_dir("commit-forms");
        let _ = fs::remove_dir_all(&dir);
        let read = |dir: &Path| fs::read_to_string(dir.join(MANIFEST)).unwrap();
        let mut s = KvStore::open(&dir, cfg(), 81).unwrap();
        let created = s.manifest_io();
        assert_eq!((created.full_commits, created.delta_commits), (1, 0));
        let mut sizes = Vec::new();
        for round in 0..6u64 {
            for k in round * 300..(round + 1) * 300 {
                s.insert(k, k + 1).unwrap();
            }
            match round % 2 {
                0 => s.sync().unwrap(),
                _ => s.harden().unwrap(),
            }
            let text = read(&dir);
            let keys: Vec<&str> =
                text.lines().skip(1).map(|l| l.split(' ').next().unwrap()).collect();
            let known =
                ["b", "m", "gamma", "beta", "cost", "seed", "data", "h0", "levels", "level"];
            assert!(keys.iter().all(|key| known.contains(key)), "round {round}: {text}");
            assert_eq!(dir_files(&dir), named_files(&s), "round {round}");
            sizes.push(text.len() as u64);
        }
        assert!(sizes.iter().all(|&bytes| bytes < 232), "{sizes:?}");
        let io = s.manifest_io();
        assert_eq!((io.full_commits, io.delta_commits), (1 + 3, 3));
        let synced = sizes[0] + sizes[2] + sizes[4];
        assert_eq!(io.full_bytes - created.full_bytes, synced);
        assert_eq!(io.delta_bytes, sizes.iter().sum::<u64>() - synced);
        crash(s);
        let mut s = KvStore::open(&dir, cfg(), 81).unwrap();
        for k in 0..1_800u64 {
            assert_eq!(s.lookup(k).unwrap(), Some(k + 1), "committed key {k}");
        }
        drop(s);
        let _ = fs::remove_dir_all(&dir);

        // The same across a simulated power cycle.
        let env = SimEnv::new();
        let mut s = sim_store(&env);
        for k in 0..300u64 {
            s.insert(k, k + 1).unwrap();
        }
        s.harden().unwrap();
        sim_crash(&env, s, 5);
        let mut s = sim_store(&env);
        assert_eq!(sim_files(&env), named_files(&s));
        for k in 0..300u64 {
            assert_eq!(s.lookup(k).unwrap(), Some(k + 1), "hardened key {k}");
        }
    }

    /// Every numeric token of a valid manifest, replaced by each of a
    /// table of boundary values: `open` answers `Ok` or `Err` — it never
    /// panics, aborts on an allocation or hangs — and a manifest rejected
    /// for its creation parameters is rejected before a level file is
    /// even opened, so before anything is sized from them.
    #[test]
    fn no_mutated_manifest_token_can_abort_an_open() {
        use dxh_extmem::{IoEvent, SimEnv};
        // Around 0, 2^6, 2^32, 2^63 and 2^64; not a number; no token.
        let mutants: Vec<&str> = "0 1 2 63 64 65 4294967295 4294967296 9223372036854775807 \
                                  18446744073709551615 18446744073709551616 -1 x "
            .split(' ')
            .collect();
        let touches_data = |trace: &[IoEvent]| {
            trace.iter().any(|e| match e {
                IoEvent::Meta { label, .. } => label.ends_with(".blk"),
                IoEvent::ReadAt { file, .. } => file.ends_with(".blk"),
                _ => false,
            })
        };
        let open =
            |env: &SimEnv| crate::SimMedia::open(env).and_then(|m| KvStore::open_on(m, cfg(), 84));
        let install = |env: &SimEnv, text: &str| {
            put_file(env, MANIFEST, text.as_bytes());
            env.take_trace();
        };

        let env = SimEnv::new();
        let mut s = sim_store(&env);
        for k in 0..900u64 {
            s.insert(k, k + 1).unwrap();
        }
        drop(s);
        let text = manifest_text(&env);
        let lines: Vec<&str> = text.lines().collect();
        let (mut opened, mut rejected) = (0, 0);
        for (li, line) in lines.iter().enumerate().skip(1) {
            let (key, values) = line.split_once(' ').unwrap();
            let tokens: Vec<&str> = values.split(' ').collect();
            for ti in 0..tokens.len() {
                for &mutant in &mutants {
                    let mut tokens = tokens.clone();
                    tokens[ti] = mutant;
                    let mut lines = lines.clone();
                    let line = format!("{key} {}", tokens.join(" "));
                    lines[li] = &line;
                    let mutated = lines.join("\n") + "\n";
                    let _ = Manifest::parse(&mutated);
                    install(&env, &mutated);
                    match open(&env) {
                        Ok(mut s) => {
                            opened += 1;
                            for k in (0..900u64).step_by(97) {
                                let _ = s.lookup(k);
                            }
                            sim_crash(&env, s, 1); // leave the image as installed
                        }
                        Err(_) => {
                            rejected += 1;
                            if ["b", "m", "gamma", "beta", "cost"].contains(&key) {
                                let trace = env.take_trace();
                                assert!(!touches_data(&trace), "{line:?}: {trace:?}");
                            }
                        }
                    }
                }
            }
        }
        assert!(opened > 50 && rejected > 50, "{opened} opened, {rejected} rejected");
        install(&env, &text);
        let mut s = open(&env).unwrap();
        assert_eq!(s.lookup(899).unwrap(), Some(900), "the image survived the table");
        drop(s);

        // An empty store has no level region to hold `m` and `gamma`
        // against: there the bounds alone reject what cannot be a store.
        let env = SimEnv::new();
        drop(sim_store(&env));
        let text = manifest_text(&env);
        for (line, mutant, ok) in [
            ("m 128", "m 4294967295", false),
            ("m 128", "m 268435457", false),
            ("m 128", "m 4096", true),
            ("gamma 2", "gamma 4294967295", false),
            ("gamma 2", "gamma 65537", false),
            ("gamma 2", "gamma 65", true),
        ] {
            install(&env, &text.replace(line, mutant));
            match open(&env) {
                Ok(s) => {
                    assert!(ok, "{mutant} opened");
                    sim_crash(&env, s, 1);
                }
                Err(e) => {
                    assert!(!ok && matches!(e, ExtMemError::Corrupt(_)), "{mutant}: {e}");
                    assert!(!touches_data(&env.take_trace()), "{mutant}");
                }
            }
        }
        let huge = CoreConfig::custom(8, MAX_M + 1, 2, 2.0).unwrap();
        let created = KvStore::open_on(crate::SimMedia::open(&SimEnv::new()).unwrap(), huge, 1);
        assert!(
            matches!(created, Err(ExtMemError::BadConfig(_))),
            "what cannot reopen is not created"
        );
    }

    /// Every level file is built by one flush with its level at slot 0,
    /// and no two levels share one. A level line naming another slot, or
    /// a file another line names, is `Corrupt` before any level file is
    /// opened — even where the region would fit inside the file it names.
    #[test]
    fn a_level_off_slot_0_or_in_a_file_another_level_names_is_corrupt_before_a_file_opens() {
        use dxh_extmem::{IoEvent, SimEnv};
        let open = |env: &SimEnv| {
            crate::SimMedia::open(env).and_then(|m| KvStore::open_on(m, cfg(), 84)).map(drop)
        };
        let env = SimEnv::new();
        let mut s = sim_store(&env);
        for k in 0..900u64 {
            s.insert(k, k + 1).unwrap();
        }
        drop(s);
        let text = manifest_text(&env);
        let levels: Vec<&str> = text.lines().filter(|l| l.starts_with("level ")).collect();
        let (shallow, deep) = (levels[0], levels[levels.len() - 1]);
        let field = |line: &str, i: usize| line.split(' ').nth(i).unwrap().parse::<u64>().unwrap();
        assert!(levels.len() >= 2 && field(shallow, 3) <= field(deep, 3), "{text}");
        let based = |line: &str, base: u64| {
            let mut fields: Vec<String> = line.split(' ').map(String::from).collect();
            fields[2] = base.to_string();
            fields.join(" ")
        };
        for (line, mutant) in
            [(deep, based(deep, field(deep, 2) + 1)), (shallow, based(shallow, field(deep, 2)))]
        {
            put_file(&env, MANIFEST, text.replace(line, &mutant).as_bytes());
            env.take_trace();
            let opened = open(&env);
            assert!(matches!(opened, Err(ExtMemError::Corrupt(_))), "{mutant}: {opened:?}");
            let files_opened = env.take_trace().into_iter().filter(|e| {
                matches!(e, IoEvent::Meta { label, .. } if label.starts_with("file-open level-"))
            });
            assert_eq!(files_opened.count(), 0, "{mutant}");
        }
        put_file(&env, MANIFEST, text.as_bytes());
        open(&env).unwrap();
    }

    /// The history the pinned bytes record, on a payload store: 150 puts
    /// committed by a sync at watermark 5, 250 more by a harden at
    /// watermark 9. Returns the manifest after each commit.
    fn pinned_history(s: &mut KvStore<crate::SimMedia>) -> [String; 2] {
        let mut commits = Vec::new();
        for (keys, watermark) in [(0..150u64, 5), (150..400, 9)] {
            for k in keys {
                s.put_bytes(k, &payload_for(k)).unwrap();
            }
            s.set_replay_watermark(watermark);
            match watermark {
                5 => s.sync().unwrap(),
                _ => s.harden().unwrap(),
            }
            commits.push(read_text(&mut s.media, MANIFEST).unwrap().unwrap());
        }
        commits.try_into().unwrap()
    }

    /// The manifest bytes of one fixed history, pinned: on-disk formats
    /// are checked, not claimed. A base is `file << 32`: `H1` is the
    /// second file this store built and the first commit's image of `H0`
    /// (22 items, 3 blocks) the third; `H3` is the seventh and the second
    /// image (16 items) the eighth. Re-recorded twice: when the `epoch`
    /// line went (the build before wrote `epoch 2` and `epoch 3` after the
    /// seed), and when commits began to image `H0` instead of migrating
    /// it (`dxh-store v2` then ended in `levels 3`, `level 2 12884901888
    /// 38 150`, and in `levels 4`, `level 1 30064771072 15 58`, `level 3
    /// 25769803776 86 342`). What the layout before both wrote for the
    /// same history —
    /// every level in one shared `store.blk`, "file 0", behind the block
    /// allocator's `slots` and `free` lines, a `CLEAN` marker beside — is
    /// refused by name, and nothing in the directory changes.
    #[test]
    fn manifest_bytes_are_pinned_and_the_file_0_layout_is_refused() {
        use crate::media::SimMedia;
        use dxh_extmem::{SimDisk, SimEnv, StorageBackend};
        let env = SimEnv::new();
        let mut s = KvStore::open_payload_on(SimMedia::open(&env).unwrap(), cfg(), 7).unwrap();
        let [first, second] = pinned_history(&mut s);
        assert_eq!(
            first,
            "dxh-store v3\nb 8\nm 128\ngamma 2\nbeta 2\ncost seek\nseed 7\ndata 0\n\
             blob 8445\nwatermark 5\nh0 12884901888 3 22\nlevels 2\nlevel 1 8589934592 32 128\n"
        );
        assert_eq!(
            second,
            "dxh-store v3\nb 8\nm 128\ngamma 2\nbeta 2\ncost seek\nseed 7\ndata 0\n\
             blob 22900\nwatermark 9\nh0 34359738368 2 16\nlevels 4\nlevel 3 30064771072 96 384\n"
        );
        assert!(s.media.read_file(MANIFEST_DELTA).unwrap().is_none(), "nothing writes the chain");

        let free = "0,1,2,3,4,5,16,6,7,8,9,17,10,11,12,13,14,15,18,19,20,21,22,23,24,25,26,27,\
                    28,29,50,30,31,32,33,34,35,36,51,37,38,39,40,41,42,43,44,45,46,47,48,49";
        let file_0 = [
            format!(
                "dxh-store v2\nb 8\nm 128\ngamma 2\nbeta 2\ncost seek\nseed 7\nepoch 2\ndata 0\n\
                 blob 8445\nwatermark 5\nslots 91\nfree {free}\nlevels 3\nlevel 2 52 38 150\n"
            ),
            "dxh-store v2\nb 8\nm 128\ngamma 2\nbeta 2\ncost seek\nseed 7\nepoch 3\ndata 0\n\
             blob 22900\nwatermark 9\nslots 192\nlevels 4\nlevel 1 177 15 58\n\
             level 3 91 86 342\n"
                .to_string(),
        ];
        for text in file_0 {
            let env = SimEnv::new();
            let file = env.create_file("store.blk").unwrap();
            let mut heap = SimDisk::from_file(file, cfg().b).unwrap();
            heap.allocate_contiguous(192).unwrap();
            heap.sync().unwrap();
            put_file(&env, MANIFEST, text.as_bytes());
            put_file(&env, "CLEAN", b"clean\n");
            assert_refused(&env, "file 0", || {
                SimMedia::open(&env).and_then(|m| KvStore::open_payload_on(m, cfg(), 7))
            });
        }
    }

    /// A `dxh-store v2` manifest exactly as an earlier build wrote it —
    /// its bytes recorded by that build after the pinned history and a
    /// compaction — opens as a store whose `H0` is empty: the `epoch`
    /// line is skipped like any unknown key. The store serves every
    /// payload of the blob log's generation 1, takes more, and its next
    /// commit is this build's manifest.
    #[test]
    fn a_manifest_the_build_before_wrote_opens_serves_and_commits() {
        use dxh_extmem::SimEnv;
        const BEFORE: &str = "dxh-store v2\nb 8\nm 128\ngamma 2\nbeta 2\ncost seek\nseed 7\n\
                              epoch 4\ndata 1\nblob 22900\nwatermark 9\nlevels 4\n\
                              level 3 34359738368 100 400\n";
        let env = SimEnv::new();
        let open = || {
            crate::SimMedia::open(&env).and_then(|m| KvStore::open_payload_on(m, cfg(), 7)).unwrap()
        };
        let mut s = open();
        pinned_history(&mut s);
        s.compact().unwrap();
        drop(s);
        // This build's commits image `H0`, so its compaction builds the
        // ninth level file where that build's built the eighth — and a
        // chain block's `next` names its file — so the level line is
        // installed naming file 9, the rest byte for byte.
        let ours = manifest_text(&env);
        let before = BEFORE.replace("34359738368", "38654705664");
        let theirs = before.replace("epoch 4\n", "").replace("v2", "v3");
        assert_eq!(ours, theirs, "the magic and the epoch line");
        put_file(&env, MANIFEST, before.as_bytes());
        let mut s = open();
        assert_eq!(s.replay_watermark(), 9);
        assert!(s.table().memory_items().is_empty() && s.image.is_none(), "no image, empty H0");
        for k in 0..400u64 {
            assert_eq!(s.get_bytes(k).unwrap(), Some(&payload_for(k)[..]), "key {k}");
        }
        for k in 400..500u64 {
            s.put_bytes(k, &payload_for(k)).unwrap();
        }
        s.sync().unwrap();
        let committed = manifest_text(&env);
        assert!(committed.starts_with(&ours[..ours.find("blob").unwrap()]), "{committed}");
        assert_eq!(sim_files(&env), named_files(&s));
        drop(s);
        let mut s = open();
        for k in 0..500u64 {
            assert_eq!(s.get_bytes(k).unwrap(), Some(&payload_for(k)[..]), "key {k} again");
        }
    }
}
