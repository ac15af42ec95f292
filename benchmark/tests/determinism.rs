//! What must repeat exactly: the generated op streams and the paper-model
//! counts derived from them; and what `BENCHMARK.json` promises the
//! driver: every metric it names is one the benchmark emits.

use std::path::Path;

use dxh_benchmark::gen::{merged_stream, stream_hash};
use dxh_benchmark::ladder::table_counts;
use dxh_benchmark::report::Json;
use dxh_benchmark::spec::{
    MetricDef, Sizes, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, SMOKE_SCALE,
};

fn smoke() -> Sizes {
    Sizes::at_scale(SMOKE_SCALE)
}

fn hash_of(workload: Workload, seed: u64) -> u64 {
    stream_hash(&merged_stream(workload, seed, &smoke()).0)
}

#[test]
fn same_seed_gives_byte_identical_streams_and_another_seed_another_stream() {
    for workload in Workload::ALL {
        assert_eq!(hash_of(workload, 42), hash_of(workload, 42), "{}", workload.name());
        assert_ne!(hash_of(workload, 42), hash_of(workload, 43), "{}", workload.name());
    }
}

#[test]
fn model_counts_repeat_exactly_for_one_seed() {
    for workload in [Workload::Ingest, Workload::Lookup] {
        for bootstrap in [false, true] {
            let first = table_counts(workload, 7, &smoke(), bootstrap).unwrap();
            let again = table_counts(workload, 7, &smoke(), bootstrap).unwrap();
            assert_eq!(first, again, "{} bootstrap={bootstrap}", workload.name());
            assert!(first.0 > 0.0 && first.1 > 0.0, "{}: tu/tq {first:?}", workload.name());
        }
    }
}

#[test]
fn every_generated_expectation_holds_on_a_plain_map() {
    // The generators are the shadow model; replaying their stream on a
    // HashMap checks the model against itself (deletes answer
    // was-present, reads see the last write).
    use dxh_benchmark::gen::{value_of, LadderOp};
    use std::collections::HashMap;
    for workload in Workload::ALL {
        let mut map: HashMap<u64, u64> = HashMap::new();
        for op in merged_stream(workload, 11, &smoke()).0 {
            match op {
                LadderOp::Insert(k, v) => drop(map.insert(k, v)),
                LadderOp::PutBytes(k) => drop(map.insert(k, value_of(k))),
                LadderOp::Delete(k, was) => assert_eq!(map.remove(&k).is_some(), was),
                LadderOp::Lookup(k, want) => assert_eq!(map.get(&k).copied(), want),
                LadderOp::GetBytes(k) => assert!(map.contains_key(&k)),
            }
        }
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut seen = std::collections::HashSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(def.name), "bad metric name {}", def.name);
        assert!(seen.insert(def.name), "metric {} is defined twice", def.name);
    }
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
}

fn same_rows(listed: &Json, registry: &[MetricDef], with_bound: bool) {
    let listed = listed.items();
    assert_eq!(listed.len(), registry.len());
    for (row, def) in listed.iter().zip(registry) {
        assert_eq!(row.get("name").and_then(Json::as_str), Some(def.name));
        assert_eq!(row.get("unit").and_then(Json::as_str), Some(def.unit), "{}", def.name);
        assert_eq!(
            row.get("better").and_then(Json::as_str),
            Some(def.better.as_str()),
            "{}",
            def.name
        );
        assert_eq!(
            row.get("bound").and_then(Json::as_f64),
            def.bound.filter(|_| with_bound),
            "{}",
            def.name
        );
    }
}

#[test]
fn benchmark_json_names_exactly_what_the_registry_emits() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    same_rows(json.get("end_to_end").unwrap(), END_TO_END, true);
    same_rows(json.get("per_layer").unwrap(), PER_LAYER, false);
    let workloads: Vec<_> = json
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    assert_eq!(json.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS));
    let setup = &END_TO_END[0];
    assert_eq!((setup.name, setup.unit, setup.better.as_str()), ("setup_s", "s", "lower"));
}
