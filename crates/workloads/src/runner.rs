//! Trace execution, `tu`/`tq` measurement, and the parallel trial runner.

use dxh_extmem::{Key, Result};
use dxh_hashfn::SplitMix64;
use dxh_tables::ExternalDictionary;
use parking_lot::Mutex;

use crate::trace::{Op, Trace};

/// Per-class I/O attribution for one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunReport {
    /// Insertions executed.
    pub inserts: u64,
    /// Lookups executed.
    pub lookups: u64,
    /// Deletes executed.
    pub deletes: u64,
    /// I/Os charged to insertions.
    pub insert_ios: u64,
    /// I/Os charged to lookups.
    pub lookup_ios: u64,
    /// I/Os charged to deletes.
    pub delete_ios: u64,
    /// Lookups that found their key.
    pub hits: u64,
}

impl RunReport {
    /// Amortized insertion cost `tu` (I/Os per insert).
    pub fn tu(&self) -> f64 {
        if self.inserts == 0 {
            0.0
        } else {
            self.insert_ios as f64 / self.inserts as f64
        }
    }

    /// Average lookup cost over the trace's own lookups.
    pub fn trace_tq(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.lookup_ios as f64 / self.lookups as f64
        }
    }
}

/// Replays `trace` against `table`, attributing I/O deltas per class.
pub fn run_trace<T: ExternalDictionary + ?Sized>(
    table: &mut T,
    trace: &Trace,
) -> Result<RunReport> {
    let mut report = RunReport::default();
    for op in &trace.ops {
        let before = table.disk_stats();
        match *op {
            Op::Insert(k, v) => {
                table.insert(k, v)?;
                report.inserts += 1;
                report.insert_ios += table.disk_stats().since(&before).total();
            }
            Op::Lookup(k) => {
                let hit = table.lookup(k)?.is_some();
                report.lookups += 1;
                report.hits += hit as u64;
                report.lookup_ios += table.disk_stats().since(&before).total();
            }
            Op::Delete(k) => {
                table.delete(k)?;
                report.deletes += 1;
                report.delete_ios += table.disk_stats().since(&before).total();
            }
        }
    }
    Ok(report)
}

/// Estimates the paper's `tq` — the expected average I/O cost of a
/// **successful** lookup — by sampling `samples` keys uniformly from
/// `inserted` and measuring each lookup's I/O delta.
pub fn measure_tq<T: ExternalDictionary + ?Sized>(
    table: &mut T,
    inserted: &[Key],
    samples: usize,
    seed: u64,
) -> Result<f64> {
    assert!(!inserted.is_empty(), "need inserted keys to sample");
    let mut rng = SplitMix64::new(seed);
    let mut total = 0u64;
    for _ in 0..samples {
        let k = inserted[rng.below(inserted.len() as u64) as usize];
        let before = table.disk_stats();
        let found = table.lookup(k)?;
        debug_assert!(found.is_some(), "sampled key {k} must be present");
        total += table.disk_stats().since(&before).total();
    }
    Ok(total as f64 / samples as f64)
}

/// Estimates the expected I/O cost of an **unsuccessful** lookup by
/// probing keys guaranteed absent (keys with the top usable bit set,
/// which no generator in this workspace produces). The paper notes
/// unsuccessful lookups cost slightly more than successful ones — they
/// must exhaust the probe path instead of stopping at the hit.
pub fn measure_tq_unsuccessful<T: ExternalDictionary + ?Sized>(
    table: &mut T,
    samples: usize,
    seed: u64,
) -> Result<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut total = 0u64;
    for _ in 0..samples {
        // Top bit set, below the tombstone sentinel: never generated by
        // the workload generators (they emit 63-bit keys).
        let k = (rng.next_u64() >> 1) | (1 << 62) | (1 << 63);
        let k = k.min(u64::MAX - 1);
        let before = table.disk_stats();
        let found = table.lookup(k)?;
        debug_assert!(found.is_none(), "probe key {k} unexpectedly present");
        total += table.disk_stats().since(&before).total();
    }
    Ok(total as f64 / samples as f64)
}

/// Runs `trials` independent experiments in parallel (crossbeam scoped
/// threads, at most one per available core), each seeded with
/// `base_seed + trial index`. Results return in trial order.
///
/// The closure must be deterministic in its seed so runs are
/// reproducible regardless of thread scheduling.
pub fn parallel_trials<R, F>(trials: u64, base_seed: u64, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let threads = threads.min(trials.max(1) as usize);
    let results: Mutex<Vec<(u64, R)>> = Mutex::new(Vec::with_capacity(trials as usize));
    let next = std::sync::atomic::AtomicU64::new(0);
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= trials {
                    break;
                }
                let out = run(base_seed.wrapping_add(i));
                results.lock().push((i, out));
            });
        }
    })
    .expect("trial thread panicked");
    let mut results = results.into_inner();
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{InsertLookupMix, UniformInserts, Workload};
    use dxh_hashfn::IdealFn;
    use dxh_tables::{ChainingConfig, ChainingTable};

    fn table() -> ChainingTable<IdealFn> {
        ChainingTable::new(ChainingConfig::fixed(16, 4096, 64), IdealFn::from_seed(1)).unwrap()
    }

    #[test]
    fn run_trace_attributes_ios() {
        let mut t = table();
        let trace = UniformInserts { n: 500 }.generate(2);
        let report = run_trace(&mut t, &trace).unwrap();
        assert_eq!(report.inserts, 500);
        assert!(report.insert_ios >= 500, "≥ 1 I/O per chained insert");
        assert_eq!(report.lookups, 0);
        assert!(report.tu() >= 1.0);
    }

    #[test]
    fn mixed_trace_hits_every_lookup() {
        let mut t = table();
        let trace = InsertLookupMix { ops: 1000, insert_ratio: 0.5 }.generate(3);
        let report = run_trace(&mut t, &trace).unwrap();
        assert_eq!(report.hits, report.lookups, "mix only looks up inserted keys");
        assert!(report.trace_tq() >= 1.0);
    }

    #[test]
    fn measure_tq_is_about_one_for_chaining() {
        let mut t = table();
        let keys: Vec<u64> = (0..512).collect();
        for &k in &keys {
            t.insert(k, k).unwrap();
        }
        let tq = measure_tq(&mut t, &keys, 500, 9).unwrap();
        assert!((1.0..1.2).contains(&tq), "tq = {tq}");
    }

    #[test]
    fn parallel_trials_preserve_order_and_determinism() {
        let a = parallel_trials(8, 100, |seed| seed * 2);
        assert_eq!(a, vec![200, 202, 204, 206, 208, 210, 212, 214]);
        let b = parallel_trials(8, 100, |seed| seed * 2);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_trials_run_real_tables() {
        let tus = parallel_trials(4, 7, |seed| {
            let mut t =
                ChainingTable::new(ChainingConfig::fixed(16, 4096, 64), IdealFn::from_seed(seed))
                    .unwrap();
            let trace = UniformInserts { n: 400 }.generate(seed);
            run_trace(&mut t, &trace).unwrap().tu()
        });
        assert_eq!(tus.len(), 4);
        for tu in tus {
            assert!((1.0..1.5).contains(&tu), "tu = {tu}");
        }
    }

    #[test]
    fn zero_trials_is_empty() {
        let v: Vec<u64> = parallel_trials(0, 0, |s| s);
        assert!(v.is_empty());
    }
}
