//! The end-to-end run: one workload through the public `ShardedKvStore`
//! API on a real directory — set-up, timed phase, `sync_all`, close,
//! reopen, sweep — with every answer checked against the generators'
//! shadow model.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dxh_core::{ExternalDictionary, ServiceStats, ShardedKvStore};
use dxh_extmem::Result as ExtResult;

use crate::gen::{payload_matches, payload_of, timed_gen, Call, CallGen, PreloadGen};
use crate::host::{self, RunDir};
use crate::report::{median_ns, percentile_ns, Metrics};
use crate::spec::{core_config, Sizes, Workload, BG_PERIOD_NS, CLIENTS, READ_SAMPLE, SHARDS};
use crate::trace::{CallSpan, Epoch, Trace};

const SUBMIT: u8 = 0;
const GET: u8 = 1;
const PUT_BYTES: u8 = 2;
const GET_BYTES: u8 = 3;

pub fn open_service(
    root: &Path,
    workload: Workload,
    shards: usize,
    seed: u64,
) -> ExtResult<ShardedKvStore> {
    if workload.payloads() {
        ShardedKvStore::open_payload(root, shards, core_config(), seed)
    } else {
        ShardedKvStore::open(root, shards, core_config(), seed)
    }
}

/// What one client did and saw.
#[derive(Default)]
pub struct ClientLog {
    /// Ops attempted (a 32-op submit counts 32).
    pub attempted: u64,
    /// Ops that returned `Err` or an answer the shadow model rejects.
    pub failed: u64,
    /// Write ops acknowledged.
    pub writes: u64,
    /// Reads answered.
    pub reads: u64,
    /// User bytes in the acknowledged writes.
    pub user_bytes: u64,
    /// One sample per durable write call, ns.
    pub write_lat: Vec<u64>,
    /// One sample per timed read, ns.
    pub read_lat: Vec<u64>,
    /// How late the paced client started a call, at worst.
    pub late_max_ns: u64,
    /// Every call, in a traced run.
    pub calls: Vec<CallSpan>,
}

struct Client<'a> {
    svc: &'a ShardedKvStore,
    id: usize,
    epoch: Epoch,
    traced: bool,
    log: ClientLog,
}

impl Client<'_> {
    /// Runs one call. `due_ns` is when an open-loop call was due: its
    /// latency counts from there, so a stall shows in the calls queued
    /// behind it.
    fn exec(&mut self, call: Call<'_>, due_ns: Option<u64>) {
        match call {
            Call::Submit { ops, expect } => {
                let n = ops.len() as u64;
                let t0 = self.epoch.now_ns();
                let answer = self.svc.submit(ops);
                let t1 = self.epoch.now_ns();
                self.log.attempted += n;
                match answer {
                    Ok(got) => {
                        self.log.writes += n;
                        self.log.failed +=
                            got.iter().zip(expect).filter(|(g, e)| g != e).count() as u64;
                        self.log.user_bytes += ops.iter().map(write_bytes).sum::<u64>();
                    }
                    Err(_) => self.log.failed += n,
                }
                self.record_write(SUBMIT, due_ns.unwrap_or(t0), t0, t1);
            }
            Call::PutBytes { key } => {
                let payload = payload_of(key);
                let t0 = self.epoch.now_ns();
                let answer = self.svc.put_bytes(key, &payload);
                let t1 = self.epoch.now_ns();
                self.log.attempted += 1;
                match answer {
                    Ok(()) => {
                        self.log.writes += 1;
                        self.log.user_bytes += 8 + payload.len() as u64;
                    }
                    Err(_) => self.log.failed += 1,
                }
                self.record_write(PUT_BYTES, t0, t0, t1);
            }
            Call::Get { key, expect } => {
                let timed = self.read_is_timed();
                let t0 = if timed { self.epoch.now_ns() } else { 0 };
                let answer = self.svc.get(key);
                self.record_read(GET, timed, t0, matches!(answer, Ok(got) if got == expect));
            }
            Call::GetBytes { key, present } => {
                let timed = self.read_is_timed();
                let t0 = if timed { self.epoch.now_ns() } else { 0 };
                let answer = self.svc.get_bytes(key);
                let ok = match &answer {
                    Ok(Some(bytes)) => present && payload_matches(key, bytes),
                    Ok(None) => !present,
                    Err(_) => false,
                };
                self.record_read(GET_BYTES, timed, t0, ok);
            }
        }
    }

    fn read_is_timed(&self) -> bool {
        self.traced || self.log.reads.is_multiple_of(READ_SAMPLE)
    }

    fn record_write(&mut self, kind: u8, from_ns: u64, t0: u64, t1: u64) {
        self.log.write_lat.push(t1 - from_ns);
        self.log.late_max_ns = self.log.late_max_ns.max(t0 - from_ns);
        if self.traced {
            self.log.calls.push(CallSpan {
                start_ns: from_ns,
                end_ns: t1,
                kind,
                client: self.id as u8,
            });
        }
    }

    fn record_read(&mut self, kind: u8, timed: bool, t0: u64, ok: bool) {
        if timed {
            let t1 = self.epoch.now_ns();
            self.log.read_lat.push(t1 - t0);
            if self.traced {
                self.log.calls.push(CallSpan {
                    start_ns: t0,
                    end_ns: t1,
                    kind,
                    client: self.id as u8,
                });
            }
        }
        self.log.attempted += 1;
        self.log.reads += 1;
        self.log.failed += u64::from(!ok);
    }

    /// Closed loop: the next call goes out when the previous one returns.
    fn run_closed(&mut self, gen: &mut dyn CallGen) {
        while let Some(call) = gen.next_call() {
            self.exec(call, None);
        }
    }

    /// Open loop: one call every `BG_PERIOD_NS`, on schedule whether or
    /// not the previous call was quick, until `stop` is raised.
    fn run_paced(&mut self, gen: &mut dyn CallGen, stop: &AtomicBool) {
        let mut due = self.epoch.now_ns();
        while !stop.load(Ordering::Relaxed) {
            let now = self.epoch.now_ns();
            if now < due {
                std::thread::sleep(Duration::from_nanos(due - now));
                continue;
            }
            let call = gen.next_call().expect("the paced generator is endless");
            self.exec(call, Some(due));
            due += BG_PERIOD_NS;
        }
    }
}

fn write_bytes(op: &dxh_core::WriteOp) -> u64 {
    match op {
        dxh_core::WriteOp::Put(..) => 16,
        dxh_core::WriteOp::Delete(_) => 8,
    }
}

/// Counters read before and after the timed phase.
struct Counters {
    stats: ServiceStats,
    ios: u64,
    cpu_us: u64,
}

impl Counters {
    fn read(svc: &ShardedKvStore) -> std::io::Result<Counters> {
        Ok(Counters {
            stats: svc.stats(),
            ios: (0..svc.shard_count()).map(|i| svc.with_shard(i, |s| s.total_ios())).sum(),
            cpu_us: host::cpu_us()?,
        })
    }
}

/// Everything one end-to-end run produced.
pub struct E2eRun {
    pub attempted: u64,
    pub failed: u64,
    pub wedged_shards: usize,
    pub timed_wall_ns: u64,
    /// The end-to-end metrics.
    pub gated: Metrics,
    /// Wall-clock and CPU results of the timed phase. This host cannot
    /// hold them to a bound (README.md has the spreads), so they are
    /// per-layer metrics of the top layer, reported from an untraced run.
    pub timing: Metrics,
    /// The other `service.*` per-layer metrics this run can compute (all
    /// but the ladder's `self_*_ns`); from the traced run.
    pub service: Metrics,
    /// Sample counts behind the two medians, for the human-readable line.
    pub write_samples: usize,
    pub read_samples: usize,
}

/// Runs `workload` once. With `trace`, every call is timed and recorded.
pub fn run(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    out_dir: &Path,
    epoch: Epoch,
    mut trace: Option<&mut Trace>,
) -> Result<E2eRun, String> {
    let traced = trace.is_some();
    let io = |e: std::io::Error| format!("host counter: {e}");
    let ext = |e: dxh_extmem::ExtMemError| format!("service: {e}");
    let dir = RunDir::create(out_dir, workload.name()).map_err(io)?;
    let root_span = trace
        .as_deref_mut()
        .map(|t| t.open(&format!("workload:{}", workload.name()), epoch.now_ns(), None));
    let phase = |name: &str, start_ns: u64, trace: &mut Option<&mut Trace>| {
        if let Some(t) = trace.as_deref_mut() {
            return Some(t.push(&format!("phase:{name}"), start_ns, epoch.now_ns(), root_span));
        }
        None
    };

    // Set-up, repeated on fresh directories; the last one is the run's.
    // The fastest repeat is reported: on this shared disk other tenants
    // only ever add time, and the median of the repeats drifted by a
    // third between sessions where the minimum moved by a tenth.
    let setup_start = epoch.now_ns();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut ready = None;
    let (mut life_wchar, mut preload_bytes) = (0, 0);
    for rep in 0..workload.setup_reps() {
        drop(ready.take());
        let root = dir.sub(&format!("service-{rep}"));
        life_wchar = host::wchar_bytes().map_err(io)?;
        let t0 = Instant::now();
        let gens: Vec<Box<dyn CallGen>> =
            (0..CLIENTS).map(|c| timed_gen(workload, c, seed, sizes)).collect();
        let svc = open_service(&root, workload, SHARDS, seed).map_err(ext)?;
        let mut failed = 0;
        if workload == Workload::Lookup {
            (failed, preload_bytes) = preload(&svc, seed, sizes, epoch);
        }
        svc.sync_all().map_err(ext)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if failed > 0 {
            return Err(format!("{failed} preload ops failed"));
        }
        if rep > 0 {
            let _ = host::remove_and_settle(&dir.sub(&format!("service-{}", rep - 1)));
        }
        ready = Some((root, svc, gens));
    }
    let (root, svc, mut gens) = ready.expect("at least one set-up");
    phase("setup", setup_start, &mut trace);

    // Timed phase: both clients start together.
    let before = Counters::read(&svc).map_err(io)?;
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let timed_start = epoch.now_ns();
    let logs: Vec<(ClientLog, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(id, gen)| {
                let (svc, barrier, stop) = (&svc, &barrier, &stop);
                s.spawn(move || {
                    let mut client = Client { svc, id, epoch, traced, log: ClientLog::default() };
                    barrier.wait();
                    if workload == Workload::Lookup && id != 0 {
                        client.run_paced(gen.as_mut(), stop);
                    } else {
                        client.run_closed(gen.as_mut());
                        // On `lookup` the reader's end is the run's end.
                        stop.store(true, Ordering::Relaxed);
                    }
                    (client.log, epoch.now_ns())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let timed_end = logs.iter().map(|(_, end)| *end).max().expect("clients ran");
    let after = Counters::read(&svc).map_err(io)?;
    let timed_span = phase("timed", timed_start, &mut trace);
    let timed_wall_ns = timed_end - timed_start;

    // Durability fence, close, footprint, reopen, sweep.
    let verify_start = epoch.now_ns();
    svc.sync_all().map_err(ext)?;
    let levels_max = (0..SHARDS).map(|i| svc.with_shard(i, |s| s.table().active_levels())).max();
    let shard_lens: Vec<usize> = (0..SHARDS).map(|i| svc.with_shard(i, |s| s.len())).collect();
    let close_start = Instant::now();
    drop(svc);
    let close_ms = close_start.elapsed().as_secs_f64() * 1e3;
    let life_wchar = host::wchar_bytes().map_err(io)? - life_wchar;
    let disk_bytes = host::dir_bytes(&root).map_err(io)?;
    phase("verify", verify_start, &mut trace);
    let reopen_start = epoch.now_ns();
    let reopen_t0 = Instant::now();
    let svc = open_service(&root, workload, SHARDS, seed).map_err(ext)?;
    let reopen_ms = reopen_t0.elapsed().as_secs_f64() * 1e3;
    let (swept, sweep_failed) = sweep(&svc, workload, &gens);
    let wedged_shards = svc.stats().wedged_shards.max(after.stats.wedged_shards);
    drop(svc);
    phase("reopen", reopen_start, &mut trace);
    if let (Some(t), Some(root_span)) = (trace, root_span) {
        t.close(root_span, epoch.now_ns());
        t.calls_parent = timed_span;
        for (log, _) in &logs {
            t.calls.extend_from_slice(&log.calls);
        }
    }

    let sum = |f: fn(&ClientLog) -> u64| logs.iter().map(|(l, _)| f(l)).sum::<u64>();
    let (writes, reads) = (sum(|l| l.writes), sum(|l| l.reads));
    let user_bytes = sum(|l| l.user_bytes);
    let live_bytes: u64 = gens.iter().map(|g| g.live_bytes()).sum();
    let write_lat: Vec<u64> = logs.iter().flat_map(|(l, _)| l.write_lat.iter().copied()).collect();
    let read_lat: Vec<u64> = logs.iter().flat_map(|(l, _)| l.read_lat.iter().copied()).collect();
    if write_lat.is_empty() || read_lat.is_empty() || writes == 0 || reads == 0 {
        return Err("a run must complete both reads and writes".into());
    }
    let wall_s = timed_wall_ns as f64 / 1e9;
    let ops = (writes + reads) as f64;
    let kops = writes as f64 / 1e3;
    let d = |f: fn(&ServiceStats) -> u64| (f(&after.stats) - f(&before.stats)) as f64;
    let gated: Metrics = vec![
        ("setup_s", setup_s.iter().copied().fold(f64::INFINITY, f64::min)),
        ("ios_per_op", (after.ios - before.ios) as f64 / ops),
        ("write_amp", life_wchar as f64 / (preload_bytes + user_bytes) as f64),
        ("space_amp", disk_bytes as f64 / live_bytes as f64),
        ("peak_rss_mb", host::peak_rss_mib().map_err(io)?),
    ];
    let timing: Metrics = vec![
        ("service.write_kops", kops / wall_s),
        ("service.read_kops", reads as f64 / 1e3 / wall_s),
        ("service.write_p50_us", median_ns(&write_lat) / 1e3),
        ("service.read_p50_us", median_ns(&read_lat) / 1e3),
        ("service.cpu_us_per_op", (after.cpu_us - before.cpu_us) as f64 / ops),
    ];
    let mean_len = shard_lens.iter().sum::<usize>() as f64 / SHARDS as f64;
    let service: Metrics = vec![
        ("service.write_p99_us", percentile_ns(&write_lat, 0.99) / 1e3),
        ("service.read_p99_us", percentile_ns(&read_lat, 0.99) / 1e3),
        ("service.stall_max_ms", write_lat.iter().copied().max().unwrap_or(0) as f64 / 1e6),
        ("service.avg_batch", d(|s| s.committed_ops) / d(|s| s.committed_batches).max(1.0)),
        ("service.largest_batch", after.stats.largest_batch as f64),
        ("service.rounds_per_kop", d(|s| s.sync_rounds) / kops),
        ("service.hardens_per_mop", d(|s| s.shard_syncs) / kops * 1e3),
        ("service.coalesced_frac", d(|s| s.coalesced_ops) / writes as f64),
        ("service.manifest_delta_bytes_per_kop", d(|s| s.manifest_delta_bytes) / kops),
        ("service.manifest_full_bytes_per_kop", d(|s| s.manifest_full_bytes) / kops),
        ("service.sealed_discard_failures", d(|s| s.sealed_discard_failures)),
        ("service.wedged_shards", wedged_shards as f64),
        (
            "service.shard_imbalance",
            shard_lens.iter().copied().max().unwrap_or(0) as f64 / mean_len.max(1.0),
        ),
        ("service.levels_max", levels_max.unwrap_or(0) as f64),
        ("service.close_ms", close_ms),
        ("service.reopen_ms", reopen_ms),
        (
            "service.bg_late_max_ms",
            logs.iter().map(|(l, _)| l.late_max_ns).max().unwrap_or(0) as f64 / 1e6,
        ),
    ];
    Ok(E2eRun {
        attempted: sum(|l| l.attempted) + swept,
        failed: sum(|l| l.failed) + sweep_failed,
        wedged_shards,
        timed_wall_ns,
        gated,
        timing,
        service,
        write_samples: write_lat.len(),
        read_samples: read_lat.len(),
    })
}

/// `lookup` set-up: both clients insert their half of the key set.
/// Returns the number of failed ops and the user bytes written.
fn preload(svc: &ShardedKvStore, seed: u64, sizes: &Sizes, epoch: Epoch) -> (u64, u64) {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                s.spawn(move || {
                    let mut client =
                        Client { svc, id, epoch, traced: false, log: ClientLog::default() };
                    client.run_closed(&mut PreloadGen::new(id, seed, sizes));
                    (client.log.failed, client.log.user_bytes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("preload thread panicked"))
            .fold((0, 0), |(f, b), (df, db)| (f + df, b + db))
    })
}

/// Reads back what every client's model says must be there after the
/// reopen. Returns `(checked, failed)`.
fn sweep(svc: &ShardedKvStore, workload: Workload, gens: &[Box<dyn CallGen>]) -> (u64, u64) {
    let (mut checked, mut failed) = (0, 0);
    for gen in gens {
        for (key, expect) in gen.sweep(workload.sweep_stride()) {
            let ok = if workload.payloads() {
                match svc.get_bytes(key) {
                    Ok(Some(bytes)) => expect.is_some() && payload_matches(key, &bytes),
                    Ok(None) => expect.is_none(),
                    Err(_) => false,
                }
            } else {
                matches!(svc.get(key), Ok(got) if got == expect)
            };
            checked += 1;
            failed += u64::from(!ok);
        }
    }
    (checked, failed)
}
