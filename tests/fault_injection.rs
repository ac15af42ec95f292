//! Failure injection: every structure must surface backend I/O errors as
//! `Err`, never panic, and never corrupt its accounting.
//!
//! The fault schedule is [`SimDisk`]'s fuse plan (`FaultPlan::fail_from`
//! anchored via `SimEnv::fail_after`): after `okay` successful
//! operations every backend op returns `ExtMemError::Io` — the same
//! semantics the old hand-rolled `FailingDisk` wrapper had, now provided
//! by the crash-simulation backend itself.

use dyn_ext_hash::extmem::{Block, Disk, ExtMemError, IoCostModel, SimDisk};

/// A `Disk` over a [`SimDisk`] whose fuse burns out after `okay`
/// successful backend calls.
fn fused_disk(b: usize, okay: u64) -> Disk<SimDisk> {
    let sim = SimDisk::new(b);
    sim.env().fail_after(okay);
    Disk::new(sim, b, IoCostModel::SeekDominated)
}

#[test]
fn disk_operations_propagate_faults() {
    let mut d = fused_disk(4, 3);
    let id = d.allocate().unwrap(); // 1
    let _ = d.read(id).unwrap(); // 2
    d.write(id, &Block::new(4)).unwrap(); // 3 — fuse burnt
    assert!(matches!(d.read(id), Err(ExtMemError::Io(_))));
    assert!(matches!(d.read_modify_write(id, |_| ()), Err(ExtMemError::Io(_))));
    assert!(matches!(d.allocate(), Err(ExtMemError::Io(_))));
}

#[test]
fn chaining_table_fails_cleanly_at_any_fuse_length() {
    use dyn_ext_hash::hashfn::IdealFn;
    use dyn_ext_hash::tables::{ChainingConfig, ChainingTable, ExternalDictionary};
    // Find how many backend ops a full healthy run needs, then re-run
    // with every possible truncation; each must end in Err, not panic.
    let healthy_ops = {
        let disk = fused_disk(4, u64::MAX);
        let mut t =
            ChainingTable::with_disk(disk, ChainingConfig::new(4, 4096), IdealFn::from_seed(1))
                .unwrap();
        for k in 0..200u64 {
            t.insert(k, k).unwrap();
        }
        // Fuse length: every backend op the healthy run clocked, plus slack.
        t.disk().backend().env().ops() + 64
    };
    let mut failures = 0;
    for fuse in (0..healthy_ops).step_by(37) {
        let disk = fused_disk(4, fuse);
        let result =
            ChainingTable::with_disk(disk, ChainingConfig::new(4, 4096), IdealFn::from_seed(1))
                .and_then(|mut t| {
                    for k in 0..200u64 {
                        t.insert(k, k)?;
                    }
                    Ok(())
                });
        if result.is_err() {
            failures += 1;
        }
    }
    assert!(failures > 0, "some truncations must fail");
}

#[test]
fn bootstrapped_table_fails_cleanly_mid_merge() {
    use dyn_ext_hash::core::{BootstrappedTable, CoreConfig, ExternalDictionary};
    // Pick fuses that land inside Ĥ merges (the most stateful phase).
    for fuse in [50u64, 200, 500, 1500, 4000] {
        let cfg = CoreConfig::theorem2(8, 128, 0.5).unwrap();
        let sim = SimDisk::new(8);
        sim.env().fail_after(fuse);
        let disk = Disk::new(sim, 8, IoCostModel::SeekDominated);
        let result = BootstrappedTable::new_on(disk, cfg, 2).and_then(|mut t| {
            for k in 0..3000u64 {
                t.insert(k, k)?;
            }
            Ok(())
        });
        // Either the fuse outlasted the run, or we got a clean error.
        if let Err(e) = result {
            assert!(matches!(e, ExtMemError::Io(_)), "unexpected error kind {e}");
        }
    }
}

#[test]
fn btree_fails_cleanly_mid_split() {
    use dyn_ext_hash::btree::{BPlusTree, BPlusTreeConfig};
    use dyn_ext_hash::tables::ExternalDictionary;
    for fuse in [10u64, 60, 150, 400] {
        let cfg = BPlusTreeConfig::new(4, 4096);
        let sim = SimDisk::new(4);
        sim.env().fail_after(fuse);
        let disk = Disk::new(sim, 4, IoCostModel::SeekDominated);
        let result = BPlusTree::with_disk(disk, cfg).and_then(|mut t| {
            for k in 0..300u64 {
                t.insert(k, k)?;
            }
            Ok(())
        });
        if let Err(e) = result {
            assert!(matches!(e, ExtMemError::Io(_)));
        }
    }
}

#[test]
fn transient_lookup_faults_heal_on_retry() {
    // Beyond the fuse (permanent failure), the fault schedule also
    // injects *transient* errors at exact indices: a read-only lookup
    // fails once with `Io`, the table's state is untouched, and the
    // retried lookup answers exactly.
    use dyn_ext_hash::extmem::FaultPlan;
    use dyn_ext_hash::hashfn::IdealFn;
    use dyn_ext_hash::tables::{ChainingConfig, ChainingTable, ExternalDictionary};
    let sim = SimDisk::new(4);
    let env = sim.env();
    let disk = Disk::new(sim, 4, IoCostModel::SeekDominated);
    let mut t = ChainingTable::with_disk(disk, ChainingConfig::new(4, 4096), IdealFn::from_seed(3))
        .unwrap();
    for k in 0..200u64 {
        t.insert(k, k).unwrap();
    }
    let mut faulted = 0;
    for k in 0..200u64 {
        // Every 10th lookup hits a scheduled one-shot fault on its first
        // backend op.
        if k % 10 == 0 {
            env.set_plan(FaultPlan { fail_at: vec![env.ops()], ..Default::default() });
            match t.lookup(k) {
                Err(ExtMemError::Io(_)) => faulted += 1,
                other => panic!("scheduled fault must surface as Io, got {other:?}"),
            }
        }
        assert_eq!(t.lookup(k).unwrap(), Some(k), "retry answers exactly, key {k}");
    }
    assert_eq!(faulted, 20, "every scheduled transient fault fired exactly once");
}
