//! The repo's benchmark: four service workloads through the public
//! `ShardedKvStore` API, end-to-end metrics from an untraced run, and a
//! layer ladder (`hashfn` → `LogMethodTable` on `MemDisk` → on `FileDisk`
//! → `KvStore` → one-shard `ShardedKvStore`) from a traced one. See
//! `README.md`.

pub mod e2e;
pub mod gen;
pub mod host;
pub mod ladder;
pub mod report;
pub mod spec;
pub mod trace;
