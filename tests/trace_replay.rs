//! Replay: a trace replays to identical dictionaries and identical I/O
//! accounting, and every generator's trace runs cleanly on every
//! structure.

use dyn_ext_hash::core::{DynamicHashTable, ExternalDictionary, TradeoffTarget};
use dyn_ext_hash::workloads::{
    run_trace, ArchivalStream, InsertLookupMix, Trace, Workload, ZipfQueries,
};

#[test]
fn replaying_a_trace_twice_gives_identical_accounting() {
    let trace = InsertLookupMix { ops: 3000, insert_ratio: 0.6 }.generate(21);
    let run = |t: &Trace| {
        let mut table =
            DynamicHashTable::for_target(TradeoffTarget::QueryOptimal, 16, 4096, 22).unwrap();
        let r = run_trace(&mut table, t).unwrap();
        (r.insert_ios, r.lookup_ios, r.hits, table.len())
    };
    assert_eq!(run(&trace), run(&trace));
    assert_eq!(run(&trace), run(&InsertLookupMix { ops: 3000, insert_ratio: 0.6 }.generate(21)));
}

#[test]
fn all_generators_replay_cleanly_on_all_structures() {
    let traces = vec![
        InsertLookupMix { ops: 1200, insert_ratio: 0.5 }.generate(31),
        ArchivalStream { inserts: 1200, lookup_every: 25, recent_bias: 0.7 }.generate(32),
        ZipfQueries { inserts: 600, queries: 600, theta: 0.8 }.generate(33),
    ];
    for trace in &traces {
        for target in [
            TradeoffTarget::QueryOptimal,
            TradeoffTarget::InsertOptimal { c: 0.5 },
            TradeoffTarget::LogMethod { gamma: 2 },
        ] {
            let mut table = DynamicHashTable::for_target(target, 16, 512, 34).unwrap();
            let report = run_trace(&mut table, trace).unwrap();
            assert_eq!(report.hits, report.lookups, "all generated lookups are hits");
        }
    }
}
