//! In-memory spans recorded around calls into each layer, written out as
//! JSON lines when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `run` identifies the repetition (or probe group)
/// the span belongs to; `parent` is the enclosing span, if any.
pub struct Span {
    pub parent: Option<usize>,
    pub run: u32,
    pub name: &'static str,
    /// Epoch class of a `tick` span.
    pub class: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        run: u32,
        parent: Option<usize>,
        name: &'static str,
        class: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            parent,
            run,
            name,
            class,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is set later by [`Tracer::close`].
    pub fn open(&mut self, run: u32, parent: Option<usize>, name: &'static str) -> usize {
        let now = Instant::now();
        self.record(run, parent, name, None, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        run: u32,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(run, parent, name, None, start, Instant::now());
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Per span name: count, total time and self time (total minus the
    /// time covered by direct children), all in ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(*children);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let class = s.class.map_or("null".to_string(), |c| format!("\"{c}\""));
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"class\":{class},\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
