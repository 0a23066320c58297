//! In-memory spans around the benchmark's calls into the program.
//!
//! Spans are recorded only in the traced run and written out once, when
//! the run ends. The program itself carries no spans: every span here
//! wraps a public call made from this benchmark.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub app: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// The span log of one traced run.
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// span's duration. Spans opened inside `f` get this span as parent.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        app: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(index);
        let start = Instant::now();
        self.spans.push(Span {
            name,
            app,
            start_ns: nanos(start - self.origin),
            end_ns: 0,
            parent,
        });
        let out = f(self);
        let elapsed = start.elapsed();
        self.spans[index].end_ns = nanos(start - self.origin) + nanos(elapsed);
        self.open.pop();
        (out, elapsed)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\": \"{}\", \"spans\": [", self.workload);
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}  {{\"id\": {i}, \"name\": \"{}\", \"app\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.app, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

pub fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}
