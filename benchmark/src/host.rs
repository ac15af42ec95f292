//! What the benchmark reads from the host: per-process counters from
//! `/proc/self`, the fingerprint printed next to every result, and the
//! per-run scratch directory.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

fn proc_field(file: &str, field: &str) -> io::Result<u64> {
    let text = fs::read_to_string(file)?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| io::Error::other(format!("{file} has no `{field}` line")))
}

/// Bytes this process has passed to `write`-family syscalls so far.
pub fn wchar_bytes() -> io::Result<u64> {
    proc_field("/proc/self/io", "wchar:")
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    Ok(proc_field("/proc/self/status", "VmHWM:")? as f64 / 1024.0)
}

/// User + system CPU time of every thread of this process, exited ones
/// included, in microseconds. `/proc/self/stat` counts in `USER_HZ`
/// ticks, which Linux fixes at 100 per second.
pub fn cpu_us() -> io::Result<u64> {
    let text = fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<u64>().ok());
    match (tick(), tick()) {
        (Some(u), Some(s)) => Ok((u + s) * 10_000),
        _ => Err(io::Error::other("/proc/self/stat: cannot parse utime/stime")),
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() { dir_bytes(&entry.path())? } else { meta.len() };
    }
    Ok(total)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(text) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, &str)> = None;
    for line in text.lines() {
        // `id parent maj:min root mount-point opts... - fstype source ...`
        let Some((left, right)) = line.split_once(" - ") else { continue };
        let (Some(mount), Some(fstype)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && best.is_none_or(|(len, _)| mount.len() >= len) {
            best = Some((mount.len(), fstype));
        }
    }
    best.map_or("unknown".into(), |(_, t)| t.to_string())
}

/// Where a result was measured.
pub struct Fingerprint {
    pub git_rev: String,
    pub nproc: usize,
    pub kernel: String,
    pub data_fs: String,
}

impl Fingerprint {
    pub fn collect(data_root: &Path) -> Fingerprint {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            git_rev,
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or("unknown".into(), |s| s.trim().to_string()),
            data_fs: fs_type(data_root),
        }
    }

    pub fn header(&self) -> String {
        format!(
            "# git {} | nproc {} | kernel {} | data dir on {}\n\
             # flush policy: every acknowledged write is a real fdatasync of the commit log\n\
             # latencies are this sandbox's (a shared virtual disk behind the page cache), not a \
             device's; on tmpfs fsync is free and write numbers are not comparable",
            self.git_rev, self.nproc, self.kernel, self.data_fs
        )
    }
}

/// The directory benchmark data and traces go to: `benchmark/out` when
/// run from the repo root (as `BENCHMARK.json` does), `out` when run from
/// inside the package.
pub fn default_out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// A unique scratch directory, removed on drop — on success, on failure
/// and on unwind alike.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create(parent: &Path, label: &str) -> io::Result<RunDir> {
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let path = parent.join(format!("run-{label}-{}-{nanos}", std::process::id()));
        fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, not yet existing path inside the run directory.
    pub fn sub(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = remove_and_settle(&self.path);
    }
}

/// Removes `dir`, then fsyncs its parent. On a filesystem mounted with
/// `discard` (this sandbox's is) freed extents are trimmed when the
/// journal commits the deletion; forcing that commit here makes the run
/// that deleted the data pay for the trim, not whatever is timed next.
pub fn remove_and_settle(dir: &Path) -> io::Result<()> {
    fs::remove_dir_all(dir)?;
    match dir.parent() {
        Some(parent) => fs::File::open(parent)?.sync_all(),
        None => Ok(()),
    }
}
