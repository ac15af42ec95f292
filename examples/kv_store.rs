//! A persistent key-value store on a real directory: [`KvStore`] runs the
//! logarithmic-method table against a [`FileDisk`](dyn_ext_hash::extmem::FileDisk)
//! and persists its manifest (parameters, allocator, level regions) so a
//! later open resumes exactly where the last sync left off.
//!
//! The store uses the log-method construction (not the bootstrapped
//! table) because a counter workload *updates* keys, and the log-method's
//! shallow-first lookup gives clean newest-wins upsert semantics (the
//! bootstrapped table trades that away for `tq ≈ 1`; see its docs).
//!
//! String keys are hashed to the table's 64-bit key space with the ideal
//! mixer (collisions are astronomically unlikely below ~2^32 keys; a
//! production store would keep the full key in the value payload area).
//!
//! Run: `cargo run --release --example kv_store`

use dyn_ext_hash::core::{CoreConfig, ExternalDictionary, KvStore};
use dyn_ext_hash::hashfn::{fmix64, splitmix64};

/// Hashes a string key into the table's key space.
fn string_key(s: &str) -> u64 {
    let mut acc = 0xD1B5_4A32_D192_ED03u64;
    for chunk in s.as_bytes().chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        acc = fmix64(splitmix64(acc ^ u64::from_le_bytes(w)));
    }
    acc >> 1 // stay clear of the reserved tombstone key
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let b = 64;
    let m = 1024;
    let dir = std::env::temp_dir().join(format!("dxh-kv-{}", std::process::id()));
    println!("store directory: {}", dir.display());
    let cfg = CoreConfig::lemma5(b, m, 2)?;

    // ---- Generation 1: index a synthetic corpus, then drop (= sync). ----
    let corpus: Vec<String> = {
        let words = [
            "external", "hashing", "buffer", "block", "disk", "memory", "query", "insert",
            "tradeoff", "bound",
        ];
        (0..50_000)
            .map(|i| {
                let w = words[(splitmix64(i) % words.len() as u64) as usize];
                format!("{w}-{}", splitmix64(i * 31) % 997)
            })
            .collect()
    };
    {
        let mut store = KvStore::open(&dir, cfg.clone(), 0xCE4)?;
        for word in &corpus {
            let k = string_key(word);
            let count = store.lookup(k)?.unwrap_or(0);
            store.insert(k, count + 1)?;
        }
        // len() counts *physical* entries: updated keys leave shadowed
        // copies in deeper levels until merges dedup them.
        println!("indexed {} word occurrences ({} physical entries)", corpus.len(), store.len());
        let s = store.disk_stats();
        println!(
            "I/O totals: {} reads, {} writes, {} combined — {:.3} I/Os per op",
            s.reads,
            s.writes,
            s.rmws,
            store.total_ios() as f64 / (2 * corpus.len()) as f64
        );
    } // drop syncs: H0 flushed, new level files fdatasync'd, manifest rewritten

    // ---- Generation 2: reopen and query the persisted counts. ----
    let mut store = KvStore::open(&dir, cfg, 0xCE4)?;
    println!(
        "reopened: {} physical entries survive the restart (sync-time merges deduped some)",
        store.len()
    );
    for probe in ["external-1", "hashing-42", "tradeoff-500"] {
        match store.lookup(string_key(probe))? {
            Some(count) => println!("  {probe:<16} → {count}"),
            None => println!("  {probe:<16} → (absent)"),
        }
    }
    let s = store.disk_stats();
    println!(
        "reopen query cost: {} reads, {} writes (counters restart per process)",
        s.reads, s.writes
    );

    // ---- Generation 3: retire most of the corpus, then compact. ----
    // Deletion writes a marker that shadows deeper copies immediately;
    // compact() merges every level into one, in a fresh level file, and
    // commits the swap through the manifest. (Words repeat across the
    // corpus, so "retire the even indices" retires every occurrence of
    // those words — survivors are the words only seen at odd indices.)
    let retired: std::collections::HashSet<u64> =
        corpus.iter().step_by(2).map(|w| string_key(w)).collect();
    let mut deleted = 0u64;
    for &k in &retired {
        deleted += store.delete(k)? as u64;
    }
    let before = store.footprint()?.data_bytes;
    let stats = store.compact()?;
    println!(
        "deleted {deleted} keys, compacted {} KiB → {} KiB ({} live items, {} markers purged)",
        before / 1024,
        stats.bytes_after / 1024,
        stats.live_items,
        stats.purged
    );
    assert!(stats.bytes_after < before);
    assert_eq!(store.lookup(string_key(&corpus[0]))?, None, "retired words are gone");
    let survivor = corpus.iter().find(|w| !retired.contains(&string_key(w)));
    if let Some(w) = survivor {
        assert!(store.lookup(string_key(w))?.is_some(), "unretired words survive");
    }

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
