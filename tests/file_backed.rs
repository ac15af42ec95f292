//! The file-backed disk is a drop-in replacement: identical contents and
//! identical I/O accounting as the in-memory simulator on the same
//! operation sequence.

use dyn_ext_hash::core::{
    BootstrappedTable, CoreConfig, DynamicHashTable, ExternalDictionary, LogMethodTable,
    TradeoffTarget,
};
use dyn_ext_hash::extmem::{Disk, FileDisk, IoCostModel, MemDisk};
use dyn_ext_hash::hashfn::IdealFn;
use dyn_ext_hash::tables::{ChainingConfig, ChainingTable};

/// All four facade targets through `for_target_on(FileDisk)`: identical
/// lookup results and identical accounted I/O counts as the MemDisk twin
/// under the same seed and key sequence.
#[test]
fn facade_targets_identical_on_both_backends() {
    let targets = [
        TradeoffTarget::QueryOptimal,
        TradeoffTarget::Boundary { eps: 0.25 },
        TradeoffTarget::InsertOptimal { c: 0.5 },
        TradeoffTarget::LogMethod { gamma: 2 },
    ];
    let (b, m, seed) = (16, 256, 0xFACADE);
    for target in targets {
        let file_disk = Disk::new(FileDisk::temp(b).unwrap(), b, IoCostModel::SeekDominated);
        let mem_disk = Disk::new(MemDisk::new(b), b, IoCostModel::SeekDominated);
        let mut file = DynamicHashTable::for_target_on(target, file_disk, m, seed).unwrap();
        let mut mem = DynamicHashTable::for_target_on(target, mem_disk, m, seed).unwrap();
        for k in 0..4000u64 {
            file.insert(k, k.wrapping_mul(31)).unwrap();
            mem.insert(k, k.wrapping_mul(31)).unwrap();
        }
        assert_eq!(file.len(), mem.len(), "{}", file.name());
        assert_eq!(
            file.total_ios(),
            mem.total_ios(),
            "{}: insert-phase accounting is backend-independent",
            file.name()
        );
        for k in (0..4200u64).step_by(13) {
            assert_eq!(file.lookup(k).unwrap(), mem.lookup(k).unwrap(), "{} key {k}", file.name());
        }
        assert_eq!(
            file.total_ios(),
            mem.total_ios(),
            "{}: query-phase accounting is backend-independent",
            file.name()
        );
        let fs = file.disk_stats();
        let ms = mem.disk_stats();
        assert_eq!(
            (fs.reads, fs.writes, fs.rmws),
            (ms.reads, ms.writes, ms.rmws),
            "{}: per-class counters match too",
            file.name()
        );
    }
}

#[test]
fn chaining_identical_on_both_backends() {
    let cfg = ChainingConfig::new(8, 4096);
    let mem_disk = Disk::new(MemDisk::new(8), 8, IoCostModel::SeekDominated);
    let file_disk = Disk::new(FileDisk::temp(8).unwrap(), 8, IoCostModel::SeekDominated);
    let mut a = ChainingTable::with_disk(mem_disk, cfg.clone(), IdealFn::from_seed(1)).unwrap();
    let mut b = ChainingTable::with_disk(file_disk, cfg, IdealFn::from_seed(1)).unwrap();
    for k in 0..2000u64 {
        a.insert(k, k * 3).unwrap();
        b.insert(k, k * 3).unwrap();
    }
    for k in (0..2000u64).step_by(7) {
        assert_eq!(a.lookup(k).unwrap(), b.lookup(k).unwrap());
    }
    for k in (0..2000u64).step_by(3) {
        assert_eq!(a.delete(k).unwrap(), b.delete(k).unwrap());
    }
    assert_eq!(a.len(), b.len());
    assert_eq!(a.total_ios(), b.total_ios(), "accounting is backend-independent");
}

#[test]
fn bootstrapped_identical_on_both_backends() {
    let cfg = CoreConfig::theorem2(8, 128, 0.5).unwrap();
    let mem = Disk::new(MemDisk::new(8), 8, IoCostModel::SeekDominated);
    let file = Disk::new(FileDisk::temp(8).unwrap(), 8, IoCostModel::SeekDominated);
    let mut a = BootstrappedTable::new_on(mem, cfg.clone(), 2).unwrap();
    let mut b = BootstrappedTable::new_on(file, cfg, 2).unwrap();
    for k in 0..3000u64 {
        a.insert(k, k).unwrap();
        b.insert(k, k).unwrap();
    }
    assert_eq!(a.total_ios(), b.total_ios());
    assert_eq!(a.hat_items(), b.hat_items());
    assert_eq!(a.merge_count(), b.merge_count());
    for k in (0..3000u64).step_by(11) {
        assert_eq!(a.lookup(k).unwrap(), Some(k));
        assert_eq!(b.lookup(k).unwrap(), Some(k));
    }
}

#[test]
fn log_method_identical_on_both_backends() {
    let cfg = CoreConfig::lemma5(8, 128, 2).unwrap();
    let mem = Disk::new(MemDisk::new(8), 8, IoCostModel::SeekDominated);
    let file = Disk::new(FileDisk::temp(8).unwrap(), 8, IoCostModel::SeekDominated);
    let mut a = LogMethodTable::new_on(mem, cfg.clone(), 3).unwrap();
    let mut b = LogMethodTable::new_on(file, cfg, 3).unwrap();
    for k in 0..2500u64 {
        a.insert(k, k + 1).unwrap();
        b.insert(k, k + 1).unwrap();
    }
    assert_eq!(a.total_ios(), b.total_ios());
    assert_eq!(a.level_items(), b.level_items());
}
