//! The layer ladder of a traced run. The workload's op stream — the
//! part `ShardedKvStore::shard_of` routes to shard 0 — is replayed on one
//! thread at each layer in turn: `hashfn`, `LogMethodTable` on `MemDisk`,
//! on `FileDisk`, `BootstrappedTable`, `KvStore`, and a one-shard
//! `ShardedKvStore`. Only calls into public functions are timed, so a
//! layer's own cost is its rung minus the rung below, and accounted
//! I/Os × measured ns per I/O (the `extmem` probe) predicts the
//! `FileDisk` rung from the `MemDisk` one.

use std::hint::black_box;
use std::path::Path;

use dxh_core::{
    BootstrappedTable, ExternalDictionary, KvStore, LogMethodTable, ShardedKvStore, WriteOp,
};
use dxh_extmem::{
    BlobLog, Block, BlockId, Disk, FileBlob, FileDisk, IoCostModel, IoSnapshot, Item, MemDisk,
    Result as ExtResult, StorageBackend,
};
use dxh_hashfn::{prefix_bucket, HashFn, IdealFn, SplitMix64};

use crate::e2e::open_service;
use crate::gen::{merged_stream, payload_matches, payload_of, value_of, LadderOp};
use crate::host::{self, RunDir};
use crate::report::{median_ns, percentile_ns, Metrics};
use crate::spec::{
    bootstrap_config, core_config, Sizes, Workload, B, BLOB_LEN, CHUNK, SHARDS, STORE_SYNC_EVERY,
    WINDOW,
};
use crate::trace::{Epoch, Trace};

const INSERT: usize = 0;
const LOOKUP: usize = 1;
const DELETE: usize = 2;
const PUT_BYTES: usize = 3;
const GET_BYTES: usize = 4;
const SYNC: usize = 5;

/// What one rung's replay measured: per-call durations by class, the
/// accounted I/Os by class, and the answers that were wrong.
#[derive(Default)]
struct Replay {
    ns: [Vec<u64>; 6],
    insert_ios: u64,
    lookup_ios: u64,
    attempted: u64,
    failed: u64,
}

impl Replay {
    fn mean(&self, class: usize) -> f64 {
        let v = &self.ns[class];
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64
        }
    }

    fn total_ns(&self) -> f64 {
        self.ns.iter().flatten().sum::<u64>() as f64
    }

    fn per(&self, ios: u64, class: usize) -> f64 {
        ios as f64 / self.ns[class].len().max(1) as f64
    }
}

/// What a rung must offer the replay. Table rungs store `value_of(key)`
/// as the index word of a byte put; the store rung stores the payload.
trait Rung {
    fn insert(&mut self, key: u64, value: u64) -> ExtResult<()>;
    fn lookup(&mut self, key: u64) -> ExtResult<Option<u64>>;
    fn delete(&mut self, key: u64) -> ExtResult<bool>;
    fn ios(&self) -> u64;
    fn put_bytes(&mut self, key: u64) -> ExtResult<()> {
        self.insert(key, value_of(key))
    }
    fn get_bytes_ok(&mut self, key: u64) -> ExtResult<bool> {
        Ok(self.lookup(key)? == Some(value_of(key)))
    }
    /// Called after every write; a rung with a sync cadence returns the
    /// duration of the sync it ran, if it ran one.
    fn after_write(&mut self, _epoch: Epoch) -> ExtResult<Option<u64>> {
        Ok(None)
    }
}

struct TableRung<T>(T);

impl<T: ExternalDictionary> Rung for TableRung<T> {
    fn insert(&mut self, key: u64, value: u64) -> ExtResult<()> {
        self.0.insert(key, value)
    }
    fn lookup(&mut self, key: u64) -> ExtResult<Option<u64>> {
        self.0.lookup(key)
    }
    fn delete(&mut self, key: u64) -> ExtResult<bool> {
        self.0.delete(key)
    }
    fn ios(&self) -> u64 {
        self.0.total_ios()
    }
}

struct StoreRung {
    store: KvStore,
    unsynced: u64,
}

impl Rung for StoreRung {
    fn insert(&mut self, key: u64, value: u64) -> ExtResult<()> {
        self.store.insert(key, value)
    }
    fn lookup(&mut self, key: u64) -> ExtResult<Option<u64>> {
        self.store.lookup(key)
    }
    fn delete(&mut self, key: u64) -> ExtResult<bool> {
        self.store.delete(key)
    }
    fn ios(&self) -> u64 {
        self.store.total_ios()
    }
    fn put_bytes(&mut self, key: u64) -> ExtResult<()> {
        self.store.put_bytes(key, &payload_of(key))
    }
    fn get_bytes_ok(&mut self, key: u64) -> ExtResult<bool> {
        Ok(self.store.get_bytes(key)?.is_some_and(|bytes| payload_matches(key, bytes)))
    }
    fn after_write(&mut self, epoch: Epoch) -> ExtResult<Option<u64>> {
        self.unsynced += 1;
        if self.unsynced < STORE_SYNC_EVERY {
            return Ok(None);
        }
        self.unsynced = 0;
        let t0 = epoch.now_ns();
        self.store.sync()?;
        Ok(Some(epoch.now_ns() - t0))
    }
}

/// The spans of one rung: the rung itself and a child per `WINDOW` ops.
struct RungSpans<'a> {
    trace: &'a mut Trace,
    epoch: Epoch,
    rung: usize,
    window_start: u64,
    in_window: usize,
}

impl<'a> RungSpans<'a> {
    fn open(trace: &'a mut Trace, epoch: Epoch, name: &str, root: Option<usize>) -> Self {
        let now = epoch.now_ns();
        let rung = trace.open(&format!("rung:{name}"), now, root);
        RungSpans { trace, epoch, rung, window_start: now, in_window: 0 }
    }

    fn op_done(&mut self) {
        self.in_window += 1;
        if self.in_window == WINDOW {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let now = self.epoch.now_ns();
        if self.in_window > 0 {
            self.trace.push("window", self.window_start, now, Some(self.rung));
        }
        self.window_start = now;
        self.in_window = 0;
    }

    fn close(mut self) {
        self.close_window();
        self.trace.close(self.rung, self.epoch.now_ns());
    }
}

fn replay(rung: &mut dyn Rung, ops: &[LadderOp], mut spans: RungSpans<'_>) -> Replay {
    let epoch = spans.epoch;
    let mut out = Replay::default();
    for op in ops {
        let ios0 = rung.ios();
        let t0 = epoch.now_ns();
        let (class, ok) = match *op {
            LadderOp::Insert(k, v) => (INSERT, rung.insert(k, v).is_ok()),
            LadderOp::Lookup(k, e) => (LOOKUP, matches!(rung.lookup(k), Ok(got) if got == e)),
            LadderOp::Delete(k, e) => (DELETE, matches!(rung.delete(k), Ok(got) if got == e)),
            LadderOp::PutBytes(k) => (PUT_BYTES, rung.put_bytes(k).is_ok()),
            LadderOp::GetBytes(k) => (GET_BYTES, matches!(rung.get_bytes_ok(k), Ok(true))),
        };
        out.ns[class].push(epoch.now_ns() - t0);
        let ios = rung.ios() - ios0;
        match class {
            INSERT | PUT_BYTES => out.insert_ios += ios,
            LOOKUP | GET_BYTES => out.lookup_ios += ios,
            _ => {}
        }
        out.attempted += 1;
        out.failed += u64::from(!ok);
        if op.is_write() {
            match rung.after_write(epoch) {
                Ok(Some(ns)) => out.ns[SYNC].push(ns),
                Ok(None) => {}
                Err(_) => out.failed += 1,
            }
        }
        spans.op_done();
    }
    spans.close();
    out
}

/// The one-shard, one-client service rung: writes gather into `CHUNK`-op
/// submits and go out before the next read, so answers stay serial.
fn replay_service(svc: &ShardedKvStore, ops: &[LadderOp], mut spans: RungSpans<'_>) -> Replay {
    let epoch = spans.epoch;
    let mut out = Replay::default();
    let mut chunk: Vec<WriteOp> = Vec::with_capacity(CHUNK);
    let mut expect: Vec<bool> = Vec::with_capacity(CHUNK);
    let flush = |chunk: &mut Vec<WriteOp>, expect: &mut Vec<bool>, out: &mut Replay| {
        if chunk.is_empty() {
            return;
        }
        let t0 = epoch.now_ns();
        let answer = svc.submit(chunk);
        // One sample per op, so the class mean is ns per write op.
        let each = (epoch.now_ns() - t0) / chunk.len() as u64;
        out.ns[INSERT].extend(std::iter::repeat_n(each, chunk.len()));
        out.attempted += chunk.len() as u64;
        out.failed += match answer {
            Ok(got) => got.iter().zip(expect.iter()).filter(|(g, e)| g != e).count() as u64,
            Err(_) => chunk.len() as u64,
        };
        chunk.clear();
        expect.clear();
    };
    for op in ops {
        match *op {
            LadderOp::Insert(k, v) => {
                chunk.push(WriteOp::Put(k, v));
                expect.push(true);
            }
            LadderOp::Delete(k, e) => {
                chunk.push(WriteOp::Delete(k));
                expect.push(e);
            }
            LadderOp::Lookup(k, e) => {
                flush(&mut chunk, &mut expect, &mut out);
                let t0 = epoch.now_ns();
                let answer = svc.get(k);
                out.ns[LOOKUP].push(epoch.now_ns() - t0);
                out.attempted += 1;
                out.failed += u64::from(!matches!(answer, Ok(got) if got == e));
            }
            LadderOp::PutBytes(k) => {
                let payload = payload_of(k);
                let t0 = epoch.now_ns();
                let answer = svc.put_bytes(k, &payload);
                out.ns[PUT_BYTES].push(epoch.now_ns() - t0);
                out.attempted += 1;
                out.failed += u64::from(answer.is_err());
            }
            LadderOp::GetBytes(k) => {
                let t0 = epoch.now_ns();
                let answer = svc.get_bytes(k);
                out.ns[GET_BYTES].push(epoch.now_ns() - t0);
                out.attempted += 1;
                out.failed +=
                    u64::from(!matches!(answer, Ok(Some(bytes)) if payload_matches(k, &bytes)));
            }
        }
        if chunk.len() == CHUNK {
            flush(&mut chunk, &mut expect, &mut out);
        }
        spans.op_done();
    }
    flush(&mut chunk, &mut expect, &mut out);
    spans.close();
    out
}

/// Mean ns per I/O class on one backend, from random block ids over a
/// region sized like one `lookup` shard.
struct DiskCosts {
    read_ns: f64,
    write_ns: f64,
    rmw_ns: f64,
}

const PROBE_OPS: usize = 20_000;

/// Fills `blocks` fresh blocks of `disk` and times the three I/O classes
/// on random ones. Returns the costs and the first block's id.
fn probe_disk<S: StorageBackend>(
    disk: &mut Disk<S>,
    blocks: u64,
    seed: u64,
    epoch: Epoch,
) -> ExtResult<(DiskCosts, u64)> {
    let base = disk.allocate_contiguous(blocks as usize)?.raw();
    let mut full = Block::new(B);
    for i in 0..B / 2 {
        full.push(Item::new(i as u64, i as u64))?;
    }
    for i in 0..blocks {
        disk.write(BlockId(base + i), &full)?;
    }
    let mut rng = SplitMix64::new(seed ^ 0xD15C);
    let mut timed = |f: &mut dyn FnMut(BlockId) -> ExtResult<()>| -> ExtResult<f64> {
        let t0 = epoch.now_ns();
        for _ in 0..PROBE_OPS {
            f(BlockId(base + rng.below(blocks)))?;
        }
        Ok((epoch.now_ns() - t0) as f64 / PROBE_OPS as f64)
    };
    let read_ns = timed(&mut |id| disk.read(id).map(|b| drop(black_box(b))))?;
    let write_ns = timed(&mut |id| disk.write(id, &full))?;
    let rmw_ns = timed(&mut |id| disk.read_modify_write(id, |b| b.set_tag(b.tag() + 1)))?;
    Ok((DiskCosts { read_ns, write_ns, rmw_ns }, base))
}

const FLUSH_BLOCKS: u64 = 64;
const FLUSH_REPS: usize = 16;
const BLOB_APPENDS: usize = 4096;
const BLOB_SYNC_EVERY: usize = 32;

/// The `extmem` probe: block I/O on both backends, a 64-dirty-block
/// flush, and the blob log at the `blob` workload's payload size.
fn probe_extmem(
    dir: &Path,
    sizes: &Sizes,
    seed: u64,
    epoch: Epoch,
) -> ExtResult<(Metrics, DiskCosts, DiskCosts)> {
    // Items of one shard at load 1/2, twice over for the deeper levels.
    let blocks = (sizes.lookup_preload / SHARDS as u64 * 4 / B as u64).max(FLUSH_BLOCKS);
    let mut file =
        Disk::new(FileDisk::create(&dir.join("probe.blk"), B)?, B, IoCostModel::SeekDominated);
    let (file_costs, base) = probe_disk(&mut file, blocks, seed, epoch)?;
    let mut flush_ns = Vec::with_capacity(FLUSH_REPS);
    let mut rng = SplitMix64::new(seed ^ 0xF1A5);
    let dirty = Block::new(B);
    for _ in 0..FLUSH_REPS {
        for _ in 0..FLUSH_BLOCKS {
            file.write(BlockId(base + rng.below(blocks)), &dirty)?;
        }
        let t0 = epoch.now_ns();
        file.flush()?;
        flush_ns.push(epoch.now_ns() - t0);
    }
    drop(file);
    let mut mem = Disk::new(MemDisk::new(B), B, IoCostModel::SeekDominated);
    let (mem_costs, _) = probe_disk(&mut mem, blocks, seed, epoch)?;

    let mut log = BlobLog::create(FileBlob::create(dir.join("probe.blob"))?)?;
    let payload = vec![0xA5u8; BLOB_LEN];
    let mut offsets = Vec::with_capacity(BLOB_APPENDS);
    let (mut append_ns, mut sync_ns) = (0u64, Vec::new());
    for i in 0..BLOB_APPENDS {
        let t0 = epoch.now_ns();
        offsets.push(log.append(&payload)?.0);
        let t1 = epoch.now_ns();
        append_ns += t1 - t0;
        if (i + 1) % BLOB_SYNC_EVERY == 0 {
            log.sync()?;
            sync_ns.push(epoch.now_ns() - t1);
        }
    }
    let t0 = epoch.now_ns();
    for _ in 0..PROBE_OPS {
        let at = offsets[rng.below(offsets.len() as u64) as usize];
        black_box(log.get(at)?);
    }
    let get_ns = (epoch.now_ns() - t0) as f64 / PROBE_OPS as f64;
    let metrics = vec![
        ("extmem.file_read_ns", file_costs.read_ns),
        ("extmem.file_write_ns", file_costs.write_ns),
        ("extmem.file_rmw_ns", file_costs.rmw_ns),
        ("extmem.mem_read_ns", mem_costs.read_ns),
        ("extmem.mem_write_ns", mem_costs.write_ns),
        ("extmem.mem_rmw_ns", mem_costs.rmw_ns),
        ("extmem.file_flush_us", median_ns(&flush_ns) / 1e3),
        ("extmem.blob_append_ns", append_ns as f64 / BLOB_APPENDS as f64),
        ("extmem.blob_get_ns", get_ns),
        ("extmem.blob_sync_us", median_ns(&sync_ns) / 1e3),
    ];
    Ok((metrics, file_costs, mem_costs))
}

/// Share of insert wall time spent in calls slower than ten times the
/// median call: migrations running in the foreground.
fn merge_time_frac(insert_ns: &[u64]) -> f64 {
    let total: u64 = insert_ns.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let cut = (median_ns(insert_ns) * 10.0) as u64;
    insert_ns.iter().filter(|&&ns| ns > cut).sum::<u64>() as f64 / total as f64
}

/// What the ladder adds to a traced run.
pub struct LadderRun {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// `gen::stream_hash` of the whole merged op stream (before the shard filter).
    pub stream_hash: u64,
}

/// The paper-model counts of one table over the shard-0 sub-stream, which
/// repeat exactly for one seed: `(tu, tq)`.
pub fn table_counts(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    bootstrap: bool,
) -> Result<(f64, f64), String> {
    let ext = |e: dxh_extmem::ExtMemError| e.to_string();
    let dir = RunDir::create(&host::default_out_dir(), "counts").map_err(|e| e.to_string())?;
    let ops = shard0_stream(workload, seed, sizes, dir.path())?.0;
    let mut trace = Trace::default();
    let spans = RungSpans::open(&mut trace, Epoch::start(), "counts", None);
    let r = if bootstrap {
        let table = BootstrappedTable::new(bootstrap_config(), seed).map_err(ext)?;
        replay(&mut TableRung(table), &ops, spans)
    } else {
        let table = LogMethodTable::new(core_config(), seed).map_err(ext)?;
        replay(&mut TableRung(table), &ops, spans)
    };
    if r.failed > 0 {
        return Err(format!("{} wrong answers", r.failed));
    }
    Ok((r.per(r.insert_ios, INSERT), r.per(r.lookup_ios, LOOKUP)))
}

/// The merged stream's shard-0 part and the whole stream's hash. Routing
/// is the service's own: a service is opened just to ask `shard_of`.
fn shard0_stream(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
) -> Result<(Vec<LadderOp>, u64), String> {
    let (all, _setup) = merged_stream(workload, seed, sizes);
    let hash = crate::gen::stream_hash(&all);
    let router =
        open_service(&dir.join("router"), workload, SHARDS, seed).map_err(|e| e.to_string())?;
    let ops = all.into_iter().filter(|op| router.shard_of(op.key()) == 0).collect();
    Ok((ops, hash))
}

pub fn run(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    out_dir: &Path,
    epoch: Epoch,
    trace: &mut Trace,
) -> Result<LadderRun, String> {
    let ext = |e: dxh_extmem::ExtMemError| format!("ladder: {e}");
    let io = |e: std::io::Error| format!("ladder: {e}");
    let dir = RunDir::create(out_dir, &format!("{}-ladder", workload.name())).map_err(io)?;
    let root = trace.open(&format!("ladder:{}", workload.name()), epoch.now_ns(), None);
    let (ops, stream_hash) = shard0_stream(workload, seed, sizes, dir.path())?;
    let mut metrics = Metrics::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut tally = |r: &Replay| {
        attempted += r.attempted;
        failed += r.failed;
    };

    // hashfn: route every key the way a table picks a bucket.
    let hash = IdealFn::from_seed(seed);
    let mut spans = RungSpans::open(trace, epoch, "hashfn", Some(root));
    let t0 = epoch.now_ns();
    for op in &ops {
        black_box(prefix_bucket(hash.hash64(black_box(op.key())), SHARDS as u64));
        spans.op_done();
    }
    let route_ns = (epoch.now_ns() - t0) as f64 / ops.len().max(1) as f64;
    spans.close();
    metrics.push(("hashfn.route_ns", route_ns));

    let probe_start = epoch.now_ns();
    let (extmem, file_costs, mem_costs) =
        probe_extmem(dir.path(), sizes, seed, epoch).map_err(ext)?;
    trace.push("rung:extmem", probe_start, epoch.now_ns(), Some(root));
    metrics.extend(extmem);

    // log_method on MemDisk, then the same table on a FileDisk.
    let mut mem_rung = TableRung(LogMethodTable::new(core_config(), seed).map_err(ext)?);
    let mem =
        replay(&mut mem_rung, &ops, RungSpans::open(trace, epoch, "log_method.mem", Some(root)));
    tally(&mem);
    let disk = Disk::new(
        FileDisk::create(&dir.sub("log_method.blk"), B).map_err(ext)?,
        B,
        IoCostModel::SeekDominated,
    );
    let mut file_rung = TableRung(LogMethodTable::new_on(disk, core_config(), seed).map_err(ext)?);
    let file =
        replay(&mut file_rung, &ops, RungSpans::open(trace, epoch, "log_method.file", Some(root)));
    tally(&file);
    let io_counts: IoSnapshot = file_rung.0.disk_stats();
    let extra = |n: u64, on_file: f64, on_mem: f64| n as f64 * (on_file - on_mem);
    let predicted = mem.total_ns()
        + extra(io_counts.reads, file_costs.read_ns, mem_costs.read_ns)
        + extra(io_counts.writes, file_costs.write_ns, mem_costs.write_ns)
        + extra(io_counts.rmws, file_costs.rmw_ns, mem_costs.rmw_ns);
    let write_class = if workload.payloads() { PUT_BYTES } else { INSERT };
    let read_class = if workload.payloads() { GET_BYTES } else { LOOKUP };
    metrics.extend([
        ("log_method.mem_insert_ns", mem.mean(write_class)),
        ("log_method.mem_lookup_ns", mem.mean(read_class)),
        ("log_method.file_insert_ns", file.mean(write_class)),
        ("log_method.file_lookup_ns", file.mean(read_class)),
        ("log_method.tu", mem.per(mem.insert_ios, write_class)),
        ("log_method.tq", mem.per(mem.lookup_ios, read_class)),
        ("log_method.levels", mem_rung.0.active_levels() as f64),
        ("log_method.merge_time_frac", merge_time_frac(&mem.ns[write_class])),
        ("log_method.model_residual", 1.0 - predicted / file.total_ns().max(1.0)),
    ]);
    drop((mem_rung, file_rung));

    // bootstrap: Theorem 2 on the same stream. It has no delete, and the
    // issue wants it as the paper's reference for the two table-bound
    // workloads only.
    const BOOTSTRAP: [&str; 4] =
        ["bootstrap.tu", "bootstrap.tq", "bootstrap.mem_insert_ns", "bootstrap.mem_lookup_ns"];
    if matches!(workload, Workload::Ingest | Workload::Lookup) {
        let mut rung = TableRung(BootstrappedTable::new(bootstrap_config(), seed).map_err(ext)?);
        let r = replay(&mut rung, &ops, RungSpans::open(trace, epoch, "bootstrap", Some(root)));
        tally(&r);
        let values = [
            r.per(r.insert_ios, INSERT),
            r.per(r.lookup_ios, LOOKUP),
            r.mean(INSERT),
            r.mean(LOOKUP),
        ];
        metrics.extend(BOOTSTRAP.into_iter().zip(values));
    } else {
        metrics.extend(BOOTSTRAP.map(|name| (name, 0.0)));
    }

    // store: KvStore on a real directory, syncing every STORE_SYNC_EVERY writes.
    let store_dir = dir.sub("store");
    let open_store = || {
        if workload.payloads() {
            KvStore::open_payload(&store_dir, core_config(), seed)
        } else {
            KvStore::open(&store_dir, core_config(), seed)
        }
    };
    let mut rung = StoreRung { store: open_store().map_err(ext)?, unsynced: 0 };
    let store = replay(&mut rung, &ops, RungSpans::open(trace, epoch, "store", Some(root)));
    tally(&store);
    rung.store.sync().map_err(ext)?;
    let writes = ops.iter().filter(|op| op.is_write()).count().max(1) as f64;
    let manifest = rung.store.manifest_io();
    let items = rung.store.len().max(1) as f64;
    drop(rung);
    let store_bytes = host::dir_bytes(&store_dir).map_err(io)?;
    let t0 = epoch.now_ns();
    drop(open_store().map_err(ext)?);
    let reopen_ms = (epoch.now_ns() - t0) as f64 / 1e6;
    metrics.extend([
        ("store.insert_ns", store.mean(INSERT)),
        ("store.lookup_ns", store.mean(LOOKUP)),
        ("store.delete_ns", store.mean(DELETE)),
        ("store.put_bytes_ns", store.mean(PUT_BYTES)),
        ("store.get_bytes_ns", store.mean(GET_BYTES)),
        ("store.sync_p50_us", median_ns(&store.ns[SYNC]) / 1e3),
        ("store.sync_p99_us", percentile_ns(&store.ns[SYNC], 0.99) / 1e3),
        (
            "store.manifest_bytes_per_kop",
            (manifest.full_bytes + manifest.delta_bytes) as f64 / writes * 1e3,
        ),
        ("store.file_bytes_per_item", store_bytes as f64 / items),
        ("store.reopen_ms", reopen_ms),
    ]);

    // service: one shard, one client; its own cost is this rung minus the store's.
    let svc = open_service(&dir.sub("service"), workload, 1, seed).map_err(ext)?;
    let service = replay_service(&svc, &ops, RungSpans::open(trace, epoch, "service", Some(root)));
    tally(&service);
    drop(svc);
    let per_write = |r: &Replay| {
        let ns: u64 = [INSERT, DELETE, PUT_BYTES, SYNC].iter().flat_map(|&c| &r.ns[c]).sum();
        ns as f64 / writes
    };
    metrics.extend([
        ("service.self_write_ns", per_write(&service) - per_write(&store)),
        ("service.self_read_ns", service.mean(read_class) - store.mean(read_class)),
    ]);
    trace.close(root, epoch.now_ns());
    Ok(LadderRun { metrics, attempted, failed, stream_hash })
}
