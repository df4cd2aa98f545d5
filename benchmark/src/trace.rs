//! The span recorder of the traced run. Spans are recorded from the
//! benchmark's own code, around its calls into each layer's public
//! functions; they stay in memory until the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused it; the
/// spans of one query share `query_id`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query_id: Option<usize>,
}

/// Every span of a run, on one clock that starts with the recorder.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(capacity: usize) -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from((at - self.origin).as_nanos()).expect("a run is shorter than 584 years")
    }

    /// Record an interval that was timed elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            query_id: None,
        });
        self.spans.len() - 1
    }

    /// Open a span now; [`Trace::close`] ends it.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query_id: Option<usize>,
    ) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            query_id,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.ns(Instant::now());
    }

    /// Run `work` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query_id: Option<usize>,
        work: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, query_id);
        let out = work();
        self.close(span);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total duration of the spans called `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        sum_us(self.spans.iter().filter(|s| s.name == name))
    }

    /// Summed over the queries, the duration of the *shortest* span
    /// called `name` each query has, in microseconds: the per-query
    /// minimum over repeated passes (see `drive::closed_pass`).
    pub fn fastest_us(&self, name: &str) -> f64 {
        let mut fastest: Vec<u64> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let Some(query) = s.query_id else { continue };
            if fastest.len() <= query {
                fastest.resize(query + 1, u64::MAX);
            }
            fastest[query] = fastest[query].min(s.end_ns - s.start_ns);
        }
        let measured = fastest.iter().filter(|&&ns| ns != u64::MAX);
        measured.fold(0.0, |sum, &ns| sum + ns as f64 / 1e3)
    }

    /// Self time of the spans called `name`, in microseconds: their
    /// duration minus the part their child spans cover.
    pub fn self_us(&self, name: &str) -> f64 {
        let of_children = |s: &&Span| s.parent.is_some_and(|p| self.spans[p].name == name);
        self.total_us(name) - sum_us(self.spans.iter().filter(of_children))
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"query_id\": {}}}{sep}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.query_id)
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Summed duration in microseconds (0, not -0, for no spans).
fn sum_us<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    spans.fold(0.0, |sum, s| sum + (s.end_ns - s.start_ns) as f64 / 1e3)
}
