//! What the benchmark fixes: the deployment, the four workloads and
//! their sizes, and the metric registry (name, unit, direction, bound).
//! `../BENCHMARK.json` restates the registry for the driver; a test
//! keeps the two in step.

use dxh_core::CoreConfig;

/// Block capacity `b` of every table in the deployment.
pub const B: usize = 64;
/// Memory budget `m` per shard, in items.
pub const M: usize = 4096;
/// Growth factor of the logarithmic method.
pub const GAMMA: u64 = 2;
/// Shards of the service under test.
pub const SHARDS: usize = 4;
/// Load-generating client threads (closed loop unless stated).
pub const CLIENTS: usize = 2;
/// Ops per `submit` call in the timed phase.
pub const CHUNK: usize = 32;
/// Ops per `submit` call while preloading.
pub const PRELOAD_CHUNK: usize = 1024;
/// Every `READ_SAMPLE`-th read is timed in an untraced run.
pub const READ_SAMPLE: u64 = 64;
/// Payload size of the `blob` workload.
pub const BLOB_LEN: usize = 1024;
/// Keys per client of the `hot` workload.
pub const HOT_UNIVERSE: usize = 256;
/// Pace of the `lookup` background writer: one chunk per period.
pub const BG_PERIOD_NS: u64 = 4_000_000;
/// The ladder's store rung syncs after this many writes.
pub const STORE_SYNC_EVERY: u64 = 512;
/// Ladder spans cover windows of this many ops.
pub const WINDOW: usize = 4096;
/// `--seconds` at which the op counts below apply unscaled. Counts scale
/// by `seconds / NOMINAL_SECONDS`, one constant for every workload, so a
/// run stays a fixed amount of work (counts repeat) and still follows
/// the driver's `--seconds`.
pub const NOMINAL_SECONDS: f64 = 20.0;
/// `run_seconds` of `../BENCHMARK.json`: the default `--seconds`.
pub const RUN_SECONDS: f64 = 10.0;
/// `--smoke` scale.
pub const SMOKE_SCALE: f64 = 0.02;

/// The service configuration every workload runs on (README's example).
pub fn core_config() -> CoreConfig {
    CoreConfig::lemma5(B, M, GAMMA).expect("fixed deployment parameters are valid")
}

/// Theorem 2 at `c = 0.5` with the same `b` and `m`: the paper's
/// reference point for the `bootstrap` rung.
pub fn bootstrap_config() -> CoreConfig {
    CoreConfig::theorem2(B, M, 0.5).expect("fixed bootstrap parameters are valid")
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Lookup,
    Hot,
    Blob,
}

impl Workload {
    /// Suite order; `--aa` interleaves in this order.
    pub const ALL: [Workload; 4] =
        [Workload::Ingest, Workload::Lookup, Workload::Hot, Workload::Blob];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Lookup => "lookup",
            Workload::Hot => "hot",
            Workload::Blob => "blob",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the service runs in payload mode.
    pub fn payloads(self) -> bool {
        self == Workload::Blob
    }

    /// The post-reopen sweep checks every `sweep_stride`-th key.
    pub fn sweep_stride(self) -> u64 {
        match self {
            Workload::Ingest | Workload::Lookup => 8,
            Workload::Hot | Workload::Blob => 1,
        }
    }

    /// How many times a run sets up (fresh directory each time); the
    /// reported `setup_s` is the fastest. `lookup` preloads, so it can
    /// afford fewer repeats.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Lookup => 3,
            _ => 25,
        }
    }
}

/// Op counts of one run, derived from one scale.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub scale: f64,
    /// `ingest`: distinct keys inserted per client.
    pub ingest_keys: u64,
    /// `lookup`: keys preloaded in set-up.
    pub lookup_preload: u64,
    /// `lookup`: `get`s of the reading client.
    pub lookup_gets: u64,
    /// `hot`: ops per client.
    pub hot_ops: u64,
    /// `blob`: calls per client.
    pub blob_calls: u64,
}

impl Sizes {
    pub fn at_seconds(seconds: f64) -> Sizes {
        Sizes::at_scale(seconds / NOMINAL_SECONDS)
    }

    pub fn at_scale(scale: f64) -> Sizes {
        let n = |base: f64| ((base * scale).round() as u64).max(64);
        Sizes {
            scale,
            ingest_keys: n(1_000_000.0),
            lookup_preload: n(1_000_000.0),
            lookup_gets: n(5_000_000.0),
            hot_ops: n(2_000_000.0),
            blob_calls: n(150_000.0),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registry row. `bound` is `Some` exactly for end-to-end metrics.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the service sees. Every workload
/// emits every one of them (README.md says what each means where the
/// workload barely exercises it).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ios_per_op", "ios", Lower, 0.15),
    e2e("write_amp", "ratio", Lower, 0.08),
    e2e("space_amp", "ratio", Lower, 0.08),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Per-layer metrics, grouped by the module they measure. A workload a
/// layer does not apply to reports 0 for it (README.md lists which).
pub const PER_LAYER: &[MetricDef] = &[
    layer("hashfn.route_ns", "ns", Lower),
    layer("extmem.file_read_ns", "ns", Lower),
    layer("extmem.file_write_ns", "ns", Lower),
    layer("extmem.file_rmw_ns", "ns", Lower),
    layer("extmem.mem_read_ns", "ns", Lower),
    layer("extmem.mem_write_ns", "ns", Lower),
    layer("extmem.mem_rmw_ns", "ns", Lower),
    layer("extmem.file_flush_us", "us", Lower),
    layer("extmem.blob_append_ns", "ns", Lower),
    layer("extmem.blob_get_ns", "ns", Lower),
    layer("extmem.blob_sync_us", "us", Lower),
    layer("log_method.mem_insert_ns", "ns", Lower),
    layer("log_method.mem_lookup_ns", "ns", Lower),
    layer("log_method.file_insert_ns", "ns", Lower),
    layer("log_method.file_lookup_ns", "ns", Lower),
    layer("log_method.tu", "ios", Lower),
    layer("log_method.tq", "ios", Lower),
    layer("log_method.levels", "count", Lower),
    layer("log_method.merge_time_frac", "ratio", Lower),
    layer("log_method.model_residual", "ratio", Lower),
    layer("bootstrap.tu", "ios", Lower),
    layer("bootstrap.tq", "ios", Lower),
    layer("bootstrap.mem_insert_ns", "ns", Lower),
    layer("bootstrap.mem_lookup_ns", "ns", Lower),
    layer("store.insert_ns", "ns", Lower),
    layer("store.lookup_ns", "ns", Lower),
    layer("store.delete_ns", "ns", Lower),
    layer("store.put_bytes_ns", "ns", Lower),
    layer("store.get_bytes_ns", "ns", Lower),
    layer("store.sync_p50_us", "us", Lower),
    layer("store.sync_p99_us", "us", Lower),
    layer("store.manifest_bytes_per_kop", "B", Lower),
    layer("store.file_bytes_per_item", "B", Lower),
    layer("store.reopen_ms", "ms", Lower),
    layer("service.write_kops", "kops/s", Higher),
    layer("service.read_kops", "kops/s", Higher),
    layer("service.write_p50_us", "us", Lower),
    layer("service.read_p50_us", "us", Lower),
    layer("service.cpu_us_per_op", "us", Lower),
    layer("service.write_p99_us", "us", Lower),
    layer("service.read_p99_us", "us", Lower),
    layer("service.stall_max_ms", "ms", Lower),
    layer("service.avg_batch", "count", Higher),
    layer("service.largest_batch", "count", Higher),
    layer("service.rounds_per_kop", "count", Lower),
    layer("service.hardens_per_mop", "count", Lower),
    layer("service.coalesced_frac", "ratio", Higher),
    layer("service.manifest_delta_bytes_per_kop", "B", Lower),
    layer("service.manifest_full_bytes_per_kop", "B", Lower),
    layer("service.sealed_discard_failures", "count", Lower),
    layer("service.wedged_shards", "count", Lower),
    layer("service.shard_imbalance", "ratio", Lower),
    layer("service.levels_max", "count", Lower),
    layer("service.self_write_ns", "ns", Lower),
    layer("service.self_read_ns", "ns", Lower),
    layer("service.close_ms", "ms", Lower),
    layer("service.reopen_ms", "ms", Lower),
    layer("service.bg_late_max_ms", "ms", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// Looks a metric up in either table.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}
