//! Seeded call generators: one per client and workload. A generator is
//! also its client's shadow model — every call it emits carries the
//! answer the store must give — so the program under test sees only
//! generated calls and every answer is checkable. Same seed, same calls.
//!
//! Clients own disjoint key namespaces (client id in bits 55–62, as
//! `dxh_workloads::ConcurrentChurn` does), so a client's expectations
//! hold under any interleaving with the other client.

use dxh_core::WriteOp;
use dxh_extmem::fnv1a64;
use dxh_hashfn::{splitmix64, SplitMix64};
use dxh_workloads::ZipfSampler;

use crate::spec::{Sizes, Workload, BLOB_LEN, CHUNK, CLIENTS, HOT_UNIVERSE, PRELOAD_CHUNK};

const TAG_SHIFT: u32 = 55;
const LOW55: u64 = (1 << TAG_SHIFT) - 1;

/// Distinct, uniform-looking keys without a dedup set: a bijection of
/// the 55-bit index space (xor, odd multiply and xor-shift are each
/// invertible mod 2^55), tagged with the client's namespace.
pub fn key_of(client: usize, index: u64, seed: u64) -> u64 {
    let mut x = (index ^ splitmix64(seed)) & LOW55;
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) & LOW55;
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9) & LOW55;
    x ^= x >> 32;
    ((client as u64) << TAG_SHIFT) | x
}

/// The word stored under `key` wherever the value is a function of the
/// key (never the reserved `u64::MAX`).
pub fn value_of(key: u64) -> u64 {
    splitmix64(key) >> 1
}

/// The `blob` payload of `key`: the key, then a key-derived word
/// repeated — cheap to regenerate and to check, and a slice cut at the
/// wrong offset or length fails the check.
pub fn payload_of(key: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(BLOB_LEN);
    p.extend_from_slice(&key.to_le_bytes());
    let w = value_of(key).to_le_bytes();
    while p.len() < BLOB_LEN {
        p.extend_from_slice(&w);
    }
    p
}

pub fn payload_matches(key: u64, got: &[u8]) -> bool {
    got.len() == BLOB_LEN
        && got[..8] == key.to_le_bytes()
        && got[8..].chunks_exact(8).all(|c| c == value_of(key).to_le_bytes())
}

fn client_rng(seed: u64, client: usize, stream: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F) ^ stream)
}

fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// One call into the service, with the answer the shadow model expects.
#[derive(Clone, Copy, Debug)]
pub enum Call<'a> {
    /// `submit(ops)`; `expect[i]` is op `i`'s answer (`true` for a put,
    /// was-present for a delete).
    Submit {
        ops: &'a [WriteOp],
        expect: &'a [bool],
    },
    Get {
        key: u64,
        expect: Option<u64>,
    },
    /// `put_bytes(key, payload_of(key))`.
    PutBytes {
        key: u64,
    },
    /// `get_bytes(key)`, expecting `payload_of(key)` when `present`.
    GetBytes {
        key: u64,
        present: bool,
    },
}

/// A client's call stream.
pub trait CallGen: Send {
    fn next_call(&mut self) -> Option<Call<'_>>;

    /// What the post-reopen sweep must find: `(key, value)` pairs, the
    /// value `None` for an absent key. For `blob` the value only says
    /// present/absent; the payload is `payload_of(key)`. Nothing for a
    /// generator that owns no keys (set-up, the `lookup` rewriter).
    fn sweep(&self, _stride: u64) -> Vec<(u64, Option<u64>)> {
        Vec::new()
    }

    /// User bytes live in this client's namespace at the end of the run.
    fn live_bytes(&self) -> u64 {
        0
    }
}

/// `ingest`: distinct uniform keys, insert-only, in `CHUNK`-op submits;
/// after each submit one `get` of an already acknowledged key, so the
/// read metrics exist and read-your-writes is checked under write load.
pub struct IngestGen {
    client: usize,
    seed: u64,
    n: u64,
    next: u64,
    probe_due: bool,
    rng: SplitMix64,
    ops: Vec<WriteOp>,
    expect: Vec<bool>,
}

impl IngestGen {
    pub fn new(client: usize, seed: u64, sizes: &Sizes) -> Self {
        IngestGen {
            client,
            seed,
            n: sizes.ingest_keys,
            next: 0,
            probe_due: false,
            rng: client_rng(seed, client, 1),
            ops: Vec::with_capacity(CHUNK),
            expect: vec![true; CHUNK],
        }
    }
}

impl CallGen for IngestGen {
    fn next_call(&mut self) -> Option<Call<'_>> {
        if self.probe_due {
            self.probe_due = false;
            let key = key_of(self.client, self.rng.below(self.next), self.seed);
            return Some(Call::Get { key, expect: Some(value_of(key)) });
        }
        if self.next == self.n {
            return None;
        }
        let end = (self.next + CHUNK as u64).min(self.n);
        self.ops.clear();
        for i in self.next..end {
            let key = key_of(self.client, i, self.seed);
            self.ops.push(WriteOp::Put(key, value_of(key)));
        }
        self.next = end;
        self.probe_due = true;
        Some(Call::Submit { ops: &self.ops, expect: &self.expect[..self.ops.len()] })
    }

    fn sweep(&self, stride: u64) -> Vec<(u64, Option<u64>)> {
        (0..self.next)
            .step_by(stride as usize)
            .map(|i| {
                let key = key_of(self.client, i, self.seed);
                (key, Some(value_of(key)))
            })
            .collect()
    }

    fn live_bytes(&self) -> u64 {
        self.next * 16
    }
}

/// The preloaded key set of `lookup` lives in namespace 0: client 0
/// reads it, client 1 rewrites it in place.
const LOOKUP_NS: usize = 0;

/// `lookup` set-up: client `c` inserts its half of the preloaded keys in
/// `PRELOAD_CHUNK`-op submits.
pub struct PreloadGen {
    seed: u64,
    next: u64,
    end: u64,
    ops: Vec<WriteOp>,
    expect: Vec<bool>,
}

impl PreloadGen {
    pub fn new(client: usize, seed: u64, sizes: &Sizes) -> Self {
        let n = sizes.lookup_preload;
        let (c, k) = (client as u64, CLIENTS as u64);
        PreloadGen {
            seed,
            next: n * c / k,
            end: n * (c + 1) / k,
            ops: Vec::with_capacity(PRELOAD_CHUNK),
            expect: vec![true; PRELOAD_CHUNK],
        }
    }
}

impl CallGen for PreloadGen {
    fn next_call(&mut self) -> Option<Call<'_>> {
        if self.next == self.end {
            return None;
        }
        let end = (self.next + PRELOAD_CHUNK as u64).min(self.end);
        self.ops.clear();
        for i in self.next..end {
            let key = key_of(LOOKUP_NS, i, self.seed);
            self.ops.push(WriteOp::Put(key, value_of(key)));
        }
        self.next = end;
        Some(Call::Submit { ops: &self.ops, expect: &self.expect[..self.ops.len()] })
    }
}

/// `lookup`, reading client: 90 % uniform hits on the preloaded set,
/// 10 % misses (indices past the preloaded range, so never present).
pub struct LookupGen {
    seed: u64,
    preload: u64,
    left: u64,
    rng: SplitMix64,
}

impl LookupGen {
    pub fn new(seed: u64, sizes: &Sizes) -> Self {
        LookupGen {
            seed,
            preload: sizes.lookup_preload,
            left: sizes.lookup_gets,
            rng: client_rng(seed, 0, 2),
        }
    }
}

impl CallGen for LookupGen {
    fn next_call(&mut self) -> Option<Call<'_>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let hit = self.rng.below(10) != 0;
        let index = self.rng.below(self.preload) + if hit { 0 } else { self.preload };
        let key = key_of(LOOKUP_NS, index, self.seed);
        Some(Call::Get { key, expect: hit.then(|| value_of(key)) })
    }

    fn sweep(&self, stride: u64) -> Vec<(u64, Option<u64>)> {
        (0..self.preload)
            .step_by(stride as usize)
            .map(|i| {
                let key = key_of(LOOKUP_NS, i, self.seed);
                (key, Some(value_of(key)))
            })
            .collect()
    }

    fn live_bytes(&self) -> u64 {
        self.preload * 16
    }
}

/// `lookup`, background writer: an endless stream of `CHUNK`-op upserts
/// of preloaded keys with their unchanged value, so the reader's
/// expectations hold whatever the interleaving.
pub struct LookupBgGen {
    seed: u64,
    preload: u64,
    rng: SplitMix64,
    ops: Vec<WriteOp>,
    expect: Vec<bool>,
}

impl LookupBgGen {
    pub fn new(seed: u64, sizes: &Sizes) -> Self {
        LookupBgGen {
            seed,
            preload: sizes.lookup_preload,
            rng: client_rng(seed, 1, 3),
            ops: Vec::with_capacity(CHUNK),
            expect: vec![true; CHUNK],
        }
    }
}

impl CallGen for LookupBgGen {
    fn next_call(&mut self) -> Option<Call<'_>> {
        self.ops.clear();
        for _ in 0..CHUNK {
            let key = key_of(LOOKUP_NS, self.rng.below(self.preload), self.seed);
            self.ops.push(WriteOp::Put(key, value_of(key)));
        }
        Some(Call::Submit { ops: &self.ops, expect: &self.expect })
    }
}

const HOT_GET: u8 = 0;
const HOT_PUT: u8 = 1;
const HOT_DELETE: u8 = 2;

/// `hot`: Zipf(0.99) over `HOT_UNIVERSE` keys, 50 % get / 40 % put /
/// 10 % delete. Writes gather into `CHUNK`-op submits and reads go out
/// at once, so a read sees the state as of the client's last submit —
/// the generator keeps both that state and the stream-order state (which
/// answers deletes inside a chunk). The stream ends with one put per
/// key, so every run leaves the same number of live keys.
pub struct HotGen {
    keys: Vec<u64>,
    /// `(kind, rank)` per op, drawn in set-up: sampling Zipf costs about
    /// as much as the reads it would otherwise sit between.
    script: Vec<(u8, u8)>,
    at: usize,
    epilogue_at: usize,
    /// State in stream order, ahead of the store by the gathered chunk.
    now: Vec<Option<u64>>,
    /// State as of the last submit: what a `get` must answer.
    acked: Vec<Option<u64>>,
    stamp: u64,
    ops: Vec<WriteOp>,
    expect: Vec<bool>,
    /// Whether `ops` went out as a `Submit` on the previous call.
    handed_out: bool,
}

impl HotGen {
    pub fn new(client: usize, seed: u64, sizes: &Sizes) -> Self {
        let mut rng = client_rng(seed, client, 4);
        let zipf = ZipfSampler::new(HOT_UNIVERSE as u64, 0.99);
        let script = (0..sizes.hot_ops)
            .map(|_| {
                let coin = unit(&mut rng);
                let kind = if coin < 0.5 {
                    HOT_GET
                } else if coin < 0.9 {
                    HOT_PUT
                } else {
                    HOT_DELETE
                };
                (kind, zipf.sample(&mut rng) as u8)
            })
            .collect();
        HotGen {
            keys: (0..HOT_UNIVERSE as u64).map(|r| key_of(client, r, seed)).collect(),
            script,
            at: 0,
            epilogue_at: 0,
            now: vec![None; HOT_UNIVERSE],
            acked: vec![None; HOT_UNIVERSE],
            stamp: 0,
            ops: Vec::with_capacity(CHUNK),
            expect: Vec::with_capacity(CHUNK),
            handed_out: false,
        }
    }

    fn gather(&mut self, kind: u8, rank: usize) {
        if kind == HOT_PUT {
            self.stamp += 1;
            self.ops.push(WriteOp::Put(self.keys[rank], self.stamp));
            self.expect.push(true);
            self.now[rank] = Some(self.stamp);
        } else {
            self.ops.push(WriteOp::Delete(self.keys[rank]));
            self.expect.push(self.now[rank].is_some());
            self.now[rank] = None;
        }
    }
}

impl CallGen for HotGen {
    fn next_call(&mut self) -> Option<Call<'_>> {
        // The chunk handed out last time has been submitted by now.
        if self.handed_out {
            self.handed_out = false;
            self.ops.clear();
            self.expect.clear();
            self.acked.copy_from_slice(&self.now);
        }
        while self.at < self.script.len() {
            let (kind, rank) = self.script[self.at];
            self.at += 1;
            if kind == HOT_GET {
                let rank = rank as usize;
                return Some(Call::Get { key: self.keys[rank], expect: self.acked[rank] });
            }
            self.gather(kind, rank as usize);
            if self.ops.len() == CHUNK {
                self.handed_out = true;
                return Some(Call::Submit { ops: &self.ops, expect: &self.expect });
            }
        }
        while self.epilogue_at < HOT_UNIVERSE && self.ops.len() < CHUNK {
            self.gather(HOT_PUT, self.epilogue_at);
            self.epilogue_at += 1;
        }
        if self.ops.is_empty() {
            None
        } else {
            self.handed_out = true;
            Some(Call::Submit { ops: &self.ops, expect: &self.expect })
        }
    }

    fn sweep(&self, _stride: u64) -> Vec<(u64, Option<u64>)> {
        self.keys.iter().copied().zip(self.now.iter().copied()).collect()
    }

    fn live_bytes(&self) -> u64 {
        self.now.iter().flatten().count() as u64 * 16
    }
}

/// `blob`: 30 % `put_bytes` of a fresh key, 70 % `get_bytes` of a key
/// this client already stored; one durable call at a time.
pub struct BlobGen {
    client: usize,
    seed: u64,
    left: u64,
    puts: u64,
    rng: SplitMix64,
}

impl BlobGen {
    pub fn new(client: usize, seed: u64, sizes: &Sizes) -> Self {
        BlobGen { client, seed, left: sizes.blob_calls, puts: 0, rng: client_rng(seed, client, 5) }
    }
}

impl CallGen for BlobGen {
    fn next_call(&mut self) -> Option<Call<'_>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        if self.puts == 0 || self.rng.below(10) < 3 {
            self.puts += 1;
            Some(Call::PutBytes { key: key_of(self.client, self.puts - 1, self.seed) })
        } else {
            let key = key_of(self.client, self.rng.below(self.puts), self.seed);
            Some(Call::GetBytes { key, present: true })
        }
    }

    fn sweep(&self, _stride: u64) -> Vec<(u64, Option<u64>)> {
        (0..self.puts).map(|i| (key_of(self.client, i, self.seed), Some(0))).collect()
    }

    fn live_bytes(&self) -> u64 {
        self.puts * (8 + BLOB_LEN as u64)
    }
}

/// The timed-phase generator of `client` on `workload`. On `lookup`
/// client 0 reads and client 1 is the paced background writer.
pub fn timed_gen(workload: Workload, client: usize, seed: u64, sizes: &Sizes) -> Box<dyn CallGen> {
    match (workload, client) {
        (Workload::Ingest, c) => Box::new(IngestGen::new(c, seed, sizes)),
        (Workload::Lookup, 0) => Box::new(LookupGen::new(seed, sizes)),
        (Workload::Lookup, _) => Box::new(LookupBgGen::new(seed, sizes)),
        (Workload::Hot, c) => Box::new(HotGen::new(c, seed, sizes)),
        (Workload::Blob, c) => Box::new(BlobGen::new(c, seed, sizes)),
    }
}

/// One table-level op of the ladder's replay, with its expected answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LadderOp {
    Insert(u64, u64),
    /// Key and was-present.
    Delete(u64, bool),
    Lookup(u64, Option<u64>),
    /// `put_bytes` at the store and service rungs; the table rungs insert
    /// `value_of(key)` as the index word.
    PutBytes(u64),
    GetBytes(u64),
}

impl LadderOp {
    pub fn key(&self) -> u64 {
        match *self {
            LadderOp::Insert(k, _)
            | LadderOp::Delete(k, _)
            | LadderOp::Lookup(k, _)
            | LadderOp::PutBytes(k)
            | LadderOp::GetBytes(k) => k,
        }
    }

    pub fn is_write(&self) -> bool {
        !matches!(self, LadderOp::Lookup(..) | LadderOp::GetBytes(_))
    }
}

fn push_call(out: &mut Vec<LadderOp>, call: Call<'_>) {
    match call {
        Call::Submit { ops, expect } => {
            for (op, &e) in ops.iter().zip(expect) {
                out.push(match *op {
                    WriteOp::Put(k, v) => LadderOp::Insert(k, v),
                    WriteOp::Delete(k) => LadderOp::Delete(k, e),
                });
            }
        }
        Call::Get { key, expect } => out.push(LadderOp::Lookup(key, expect)),
        Call::PutBytes { key } => out.push(LadderOp::PutBytes(key)),
        Call::GetBytes { key, .. } => out.push(LadderOp::GetBytes(key)),
    }
}

/// On `lookup` the ladder gives the background writer one chunk per this
/// many reads — the ratio the paced writer runs at when reads take about
/// 4 µs.
const LOOKUP_READS_PER_BG_CHUNK: usize = 1024;

/// The whole workload as one op stream: set-up ops, then the clients'
/// timed-phase calls interleaved call by call. Client expectations hold
/// under any interleaving, so a single-threaded replay can check them.
/// The second value is how many leading ops belong to set-up.
pub fn merged_stream(workload: Workload, seed: u64, sizes: &Sizes) -> (Vec<LadderOp>, usize) {
    let mut out = Vec::new();
    if workload == Workload::Lookup {
        for c in 0..CLIENTS {
            let mut g = PreloadGen::new(c, seed, sizes);
            while let Some(call) = g.next_call() {
                push_call(&mut out, call);
            }
        }
        let setup = out.len();
        let mut reader = LookupGen::new(seed, sizes);
        let mut writer = LookupBgGen::new(seed, sizes);
        let mut reads = 0;
        while let Some(call) = reader.next_call() {
            push_call(&mut out, call);
            reads += 1;
            if reads % LOOKUP_READS_PER_BG_CHUNK == 0 {
                push_call(&mut out, writer.next_call().expect("endless"));
            }
        }
        return (out, setup);
    }
    let mut gens: Vec<_> = (0..CLIENTS).map(|c| timed_gen(workload, c, seed, sizes)).collect();
    let mut live = gens.len();
    while live > 0 {
        live = 0;
        for g in &mut gens {
            if let Some(call) = g.next_call() {
                push_call(&mut out, call);
                live += 1;
            }
        }
    }
    (out, 0)
}

/// A chained hash of the encoded stream (the workspace's `fnv1a64` over
/// the running hash and each op): equal hashes ⇔ byte-identical streams,
/// for the determinism tests and the traced run's header.
pub fn stream_hash(ops: &[LadderOp]) -> u64 {
    ops.iter().fold(0, |h, op| {
        let (tag, k, v): (u64, u64, u64) = match *op {
            LadderOp::Insert(k, v) => (1, k, v),
            LadderOp::Delete(k, e) => (2, k, e as u64),
            LadderOp::Lookup(k, e) => (3, k, e.unwrap_or(u64::MAX)),
            LadderOp::PutBytes(k) => (4, k, 0),
            LadderOp::GetBytes(k) => (5, k, 0),
        };
        let mut buf = [0u8; 32];
        for (chunk, word) in buf.chunks_exact_mut(8).zip([h, tag, k, v]) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        fnv1a64(&buf)
    })
}
