//! The traced run's span log. Spans are recorded by the benchmark around
//! its calls into each layer's public entry points (the program itself is
//! not instrumented), kept in memory, and written out as JSON lines when
//! the run ends. A span's self time is its duration minus the time its
//! children cover.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer entry point, e.g. `pdpd.json.parse`.
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start: u64,
    /// End, ns since the log's origin.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request or round this span belongs to.
    pub id: u64,
}

/// An in-memory span log with a common time origin.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    /// An empty log whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The log's clock reading for `at`.
    pub fn at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name`; returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, start, end, parent, id);
        out
    }

    /// Re-dates a span's end (a root whose children were timed inside it).
    pub fn close(&mut self, index: usize, end: u64) {
        self.spans[index].end = end;
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the union of its direct
    /// children's intervals (children never overlap here, so a sum).
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end.saturating_sub(s.start);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.end.saturating_sub(s.start).saturating_sub(c))
            .collect()
    }

    /// Per span name: `(count, median duration ns, median self ns)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let selfs = self.self_times();
        let mut by: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let e = by.entry(s.name).or_default();
            e.0.push(s.end.saturating_sub(s.start) as f64);
            e.1.push(own as f64);
        }
        by.into_iter()
            .map(|(k, (d, o))| (k, (d.len(), stats::median(&d), stats::median(&o))))
            .collect()
    }

    /// The span table: per name, count, median duration and median self
    /// time.
    pub fn render_summary(&self) -> String {
        let mut out = String::from("spans (name, count, median ns, median self ns):");
        for (name, (n, total, own)) in self.summary() {
            out.push_str(&format!("\n  {name:<24} {n:>8} {total:>14.1} {own:>14.1}"));
        }
        out
    }

    /// Median duration (ns) of the spans named `name`; 0 when none.
    pub fn median_ns(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.saturating_sub(s.start) as f64)
            .collect();
        stats::median(&d)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"id\": {}, \"self_ns\": {own}}}",
                s.name, s.start, s.end, s.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Trace::new();
        let root = t.push("root", 0, 100, None, 7);
        let a = t.push("a", 10, 40, Some(root), 7);
        t.push("a.inner", 15, 35, Some(a), 7);
        t.push("b", 50, 70, Some(root), 7);
        assert_eq!(t.self_times(), vec![50, 10, 20, 20]);
        let summary = t.summary();
        assert_eq!(summary["root"], (1, 100.0, 50.0));
        assert_eq!(t.median_ns("b"), 20.0);
        assert_eq!(t.median_ns("missing"), 0.0);
    }
}
