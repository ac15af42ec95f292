//! Spans of a traced run: `workload → phase → call` for the end-to-end
//! run and `workload → rung → window` for the ladder. Spans are kept in
//! memory and written once, when the run ends. They are recorded here,
//! around calls into public functions; the program itself is not
//! instrumented.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use crate::report::Metrics;

/// At most this many call spans go to the trace file (every call is kept
/// in memory and counted in the percentiles; the file takes the slowest
/// calls plus an even sample of the rest).
const CALLS_WRITTEN: usize = 20_000;
/// Of which this many are the slowest calls.
const SLOWEST_WRITTEN: usize = 1_000;

pub const CALL_NAMES: [&str; 4] = ["submit", "get", "put_bytes", "get_bytes"];

/// One call into the service, kept compact: a traced `lookup` run holds
/// millions.
#[derive(Clone, Copy, Debug)]
pub struct CallSpan {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index into [`CALL_NAMES`].
    pub kind: u8,
    pub client: u8,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// The clock every span of a run is measured on.
#[derive(Clone, Copy)]
pub struct Epoch(Instant);

impl Epoch {
    pub fn start() -> Epoch {
        Epoch(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    /// Calls of the timed phase, children of the span `calls_parent`.
    pub calls: Vec<CallSpan>,
    pub calls_parent: Option<usize>,
}

impl Trace {
    /// Records a finished span; returns its id for children to name.
    pub fn push(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span { name: name.into(), start_ns, end_ns, parent });
        self.spans.len() - 1
    }

    /// Opens a span whose end is not known yet (set by [`Trace::close`]).
    pub fn open(&mut self, name: &str, start_ns: u64, parent: Option<usize>) -> usize {
        self.push(name, start_ns, start_ns, parent)
    }

    pub fn close(&mut self, id: usize, end_ns: u64) {
        self.spans[id].end_ns = end_ns;
    }

    /// Writes the spans and the per-layer table as one JSON document.
    pub fn write(
        &self,
        path: &Path,
        workload: &str,
        seed: u64,
        layers: &Metrics,
    ) -> io::Result<()> {
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"per_layer\": {{");
        for (i, (name, value)) in layers.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {value}");
        }
        let written = self.sampled_calls();
        let _ = write!(
            out,
            "}}, \"calls_recorded\": {}, \"calls_written\": {}, \"spans\": [",
            self.calls.len(),
            written.len()
        );
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"client\": null}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent)
            );
        }
        for (i, c) in written.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"client\": {}}}",
                self.spans.len() + i,
                CALL_NAMES[c.kind as usize],
                c.start_ns,
                c.end_ns,
                opt(self.calls_parent),
                c.client
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }

    /// The slowest calls plus an even sample of all calls, in start order.
    fn sampled_calls(&self) -> Vec<CallSpan> {
        if self.calls.len() <= CALLS_WRITTEN {
            let mut all = self.calls.clone();
            all.sort_by_key(|c| c.start_ns);
            return all;
        }
        let mut by_duration: Vec<usize> = (0..self.calls.len()).collect();
        by_duration
            .sort_by_key(|&i| std::cmp::Reverse(self.calls[i].end_ns - self.calls[i].start_ns));
        let mut keep: Vec<usize> = by_duration[..SLOWEST_WRITTEN].to_vec();
        let stride = self.calls.len() / (CALLS_WRITTEN - SLOWEST_WRITTEN);
        keep.extend((0..self.calls.len()).step_by(stride.max(1)));
        keep.sort_unstable();
        keep.dedup();
        let mut out: Vec<CallSpan> = keep.into_iter().map(|i| self.calls[i]).collect();
        out.sort_by_key(|c| c.start_ns);
        out
    }
}
