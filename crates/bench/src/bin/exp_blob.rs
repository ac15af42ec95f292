//! **Blob payload path** — write throughput and read cost vs payload
//! size for the payload-mode [`KvStore`], and the memory gate that says
//! payloads live on disk.
//!
//! The u64 table is the *index*; payloads live in an append-only,
//! length-framed, checksummed log (`dxh_extmem::BlobLog`) and the index
//! word holds a tagged offset (see `docs/DURABILITY.md`). The store
//! keeps the log's length and one record buffer, so its memory does not
//! grow with the payloads it holds:
//!
//! * **memory gate** — in a process of its own (`VmHWM` is a
//!   process-lifetime high-water mark), a payload store is created
//!   empty and the baseline taken; then ≥ 64 MiB of payloads are
//!   loaded, the store is closed, reopened (which verifies the whole
//!   committed prefix), every key is read back and checked, the store
//!   is compacted and read again. `VmHWM` may end at most 8 MiB above
//!   the baseline. A handle that mirrored its log would end 64 MiB
//!   above it;
//! * **write** — `put_bytes` churn with periodic [`KvStore::sync`]s on
//!   a real directory (every sync is a real fdatasync of the blob log
//!   before the index commit): MB/s and kops/s vs payload size;
//! * **read** — [`KvStore::get_bytes`] over the resident set in a
//!   seeded shuffle: µs per read (index probe + one positional read +
//!   checksum; the file sits in the page cache, so this is the
//!   sandbox's syscall, not a device), and the positional reads per
//!   `get_bytes` from [`KvStore::blob_io`] — asserted to be exactly
//!   one, since every record of a sweep has the same length.
//!
//! Output: an aligned table and `results/exp_blob.csv`.
//!
//! Run: `cargo run -p dxh-bench --release --bin exp_blob [--quick]
//! [--seed N]`

use std::path::Path;
use std::time::Instant;

use dxh_analysis::{table::fmt_f, TextTable};
use dxh_bench::{emit, ExpArgs};
use dxh_core::{CoreConfig, KvStore};
use dxh_hashfn::SplitMix64;

/// Sync the store after this many `put_bytes` (a realistic ingest
/// cadence: the blob fdatasync + index commit bill amortizes over it).
const SYNC_EVERY: usize = 512;

/// The memory gate's load: 16 384 payloads of 4 KiB, 64 MiB in all.
const GATE_PAYLOAD: usize = 4096;
const GATE_ITEMS: u64 = 16_384;
const GATE_LOAD_MIB: u64 = (GATE_ITEMS * GATE_PAYLOAD as u64) >> 20;
/// How far `VmHWM` may end above the empty-store baseline.
const GATE_MAX_GROWTH_KIB: u64 = 8 * 1024;

struct Point {
    payload: usize,
    n: usize,
    write_mb_s: f64,
    write_kops_s: f64,
    read_us: f64,
    preads_per_get: f64,
}

/// Deterministic payload bytes for one key.
fn fill(buf: &mut [u8], rng: &mut SplitMix64) {
    for chunk in buf.chunks_mut(8) {
        let w = rng.next_u64().to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&w[..n]);
    }
}

fn config() -> CoreConfig {
    CoreConfig::lemma5(32, 1024, 2).expect("config")
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dxh-exp-blob-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

/// This process's peak resident set in KiB (`VmHWM`); `None` where
/// `/proc` does not say.
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.split_whitespace().next()?.parse().ok()
}

/// The memory gate's body, run in a process of its own (see the module
/// docs): prints `baseline_kib peak_kib` for the parent to judge.
fn memory_gate_child(dir: &Path, seed: u64) {
    let payload_of = |key: u64, buf: &mut [u8]| fill(buf, &mut SplitMix64::new(seed ^ key));
    let mut buf = vec![0u8; GATE_PAYLOAD];
    let mut expect = vec![0u8; GATE_PAYLOAD];
    let mut store = KvStore::open_payload(dir, config(), seed).expect("create payload store");
    store.sync().expect("sync the empty store");
    let baseline = vm_hwm_kib().unwrap_or(0);
    for key in 1..=GATE_ITEMS {
        payload_of(key, &mut buf);
        store.put_bytes(key, &buf).expect("put_bytes");
        if key.is_multiple_of(SYNC_EVERY as u64) {
            store.sync().expect("sync");
        }
    }
    drop(store);
    let mut store = KvStore::open_payload(dir, config(), seed).expect("reopen");
    assert!(store.blob_len() >= GATE_ITEMS * GATE_PAYLOAD as u64, "the load is on disk");
    for pass in ["reopened", "compacted"] {
        for key in 1..=GATE_ITEMS {
            payload_of(key, &mut expect);
            let got = store.get_bytes(key).expect("get_bytes").expect("present");
            assert!(got == &expect[..], "key {key} reads back wrong on the {pass} store");
        }
        if pass == "reopened" {
            store.compact().expect("compact");
        }
    }
    println!("{baseline} {}", vm_hwm_kib().unwrap_or(0));
}

/// Runs the memory gate in a child process and asserts its verdict;
/// skipped where `VmHWM` is not available.
fn memory_gate(seed: u64) {
    if vm_hwm_kib().is_none() {
        return;
    }
    let dir = fresh_dir("gate");
    let exe = std::env::current_exe().expect("own path");
    let out = std::process::Command::new(exe)
        .args(["--memory-gate-child", dir.to_str().expect("utf-8 temp dir")])
        .args(["--seed", &seed.to_string()])
        .output()
        .expect("spawn the memory-gate child");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "memory-gate child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut fields = stdout.split_whitespace().map(|f| f.parse::<u64>().expect("a KiB count"));
    let (baseline, peak) = (fields.next().expect("baseline"), fields.next().expect("peak"));
    assert!(
        peak <= baseline + GATE_MAX_GROWTH_KIB,
        "VmHWM grew {} KiB over the empty-store baseline ({baseline} → {peak} KiB) after \
         loading, reopening, reading and compacting {GATE_LOAD_MIB} MiB of payloads — the store \
         is holding payloads in memory",
        peak - baseline
    );
    println!(
        "memory gate: {GATE_LOAD_MIB} MiB of payloads loaded, reopened, read, compacted, read: \
         VmHWM {baseline} → {peak} KiB (+{} KiB, limit +{GATE_MAX_GROWTH_KIB})",
        peak.saturating_sub(baseline)
    );
}

/// One payload size: write churn through a payload-mode store, then
/// `get_bytes` over the same resident set.
fn run_once(payload: usize, n: usize, reads: usize, seed: u64) -> Point {
    let dir = fresh_dir(&payload.to_string());
    let mut store = KvStore::open_payload(&dir, config(), seed).expect("create payload store");

    let mut rng = SplitMix64::new(seed ^ payload as u64);
    let mut buf = vec![0u8; payload];

    // Write phase: n distinct keys, synced every SYNC_EVERY puts and
    // once at the end, so the measured wall includes the real blob
    // fdatasync + index commit bill.
    let t0 = Instant::now();
    for i in 0..n {
        fill(&mut buf, &mut rng);
        store.put_bytes(i as u64 + 1, &buf).expect("put_bytes");
        if (i + 1) % SYNC_EVERY == 0 {
            store.sync().expect("sync");
        }
    }
    store.sync().expect("final sync");
    let write_s = t0.elapsed().as_secs_f64();

    // Read keys in a seeded shuffle so the sweep is not a sequential
    // walk of the log.
    let mut order: Vec<u64> = (1..=n as u64).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut sink = 0u64;
    let (preads_before, _) = store.blob_io();
    let t0 = Instant::now();
    for r in 0..reads {
        let k = order[r % order.len()];
        let b = store.get_bytes(k).expect("get_bytes").expect("present");
        sink ^= u64::from(b[0]) ^ u64::from(b[b.len() - 1]);
    }
    let read_s = t0.elapsed().as_secs_f64();
    let preads = store.blob_io().0 - preads_before;
    std::hint::black_box(sink);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let mb = (n * payload) as f64 / (1024.0 * 1024.0);
    Point {
        payload,
        n,
        write_mb_s: mb / write_s,
        write_kops_s: n as f64 / write_s / 1e3,
        read_us: read_s * 1e6 / reads as f64,
        preads_per_get: preads as f64 / reads as f64,
    }
}

fn main() {
    let args = ExpArgs::parse();
    let seed: u64 =
        args.get("seed").map(|v| v.parse().expect("--seed takes a number")).unwrap_or(0xB10B);
    if let Some(dir) = args.get("memory-gate-child") {
        return memory_gate_child(Path::new(dir), seed);
    }
    memory_gate(seed);

    let sizes: &[usize] =
        if args.quick { &[16, 256, 4096] } else { &[16, 64, 256, 1024, 4096, 16384] };
    // Per-size item count: bounded total bytes, clamped so small
    // payloads still exercise the index depth.
    let budget = args.scale(16 << 20, 2 << 20);
    let reads = args.scale(400_000, 50_000);

    let mut table = TextTable::new([
        "payload B",
        "items",
        "write MB/s",
        "write kops/s",
        "get_bytes µs",
        "preads/get",
    ]);
    for &payload in sizes {
        let n = (budget / payload.max(1)).clamp(64, 4096);
        let p = run_once(payload, n, reads, seed);
        // Every record of one sweep has the same length, so the read
        // guess is always right: the fetch is one positional read.
        assert!(
            p.preads_per_get == 1.0,
            "{} positional reads per get_bytes at {} B payloads, expected exactly 1",
            p.preads_per_get,
            p.payload
        );
        table.row([
            p.payload.to_string(),
            p.n.to_string(),
            fmt_f(p.write_mb_s, 2),
            fmt_f(p.write_kops_s, 2),
            fmt_f(p.read_us, 3),
            fmt_f(p.preads_per_get, 3),
        ]);
    }
    emit("Blob payload path: write and read cost vs payload size", &table, &args, "exp_blob.csv");

    println!("params: a sync every {SYNC_EVERY} puts, {reads} reads a payload size, seed {seed}");
}
