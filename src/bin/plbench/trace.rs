//! Host-time spans recorded around calls into each layer.
//!
//! The timer always runs, because the end-to-end metrics are built from the
//! same calls; spans are only *kept* when tracing is on. They stay in
//! memory and are written as JSONL when the run ends.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Training step the span belongs to (steps count up across rounds).
    pub step: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the step that spans opened from now on belong to.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name` (a child of the innermost open
    /// span) and returns its result with the elapsed host time in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        if !self.enabled {
            let t0 = Instant::now();
            let out = f(self);
            return (out, t0.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        // Record first, read the clock second: a reallocation of the span
        // buffer must not count against the span.
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: 0,
            end_ns: 0,
            step: self.step,
        });
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans[id].start_ns = start_ns;
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"workload\": \"{workload}\", \"step\": {}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.step
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per step: `(Σ self-time ns, span count)` of the spans named `name`.
pub fn per_step(spans: &[Span], selfs: &[u64], name: &str) -> BTreeMap<u64, (u64, u64)> {
    let mut by_step = BTreeMap::new();
    for (s, &t) in spans.iter().zip(selfs) {
        if s.name == name {
            let e = by_step.entry(s.step).or_insert((0, 0));
            e.0 += t;
            e.1 += 1;
        }
    }
    by_step
}

/// Median over steps of the summed self time (ns) of spans named `name`;
/// 0 when there are none.
pub fn step_median(spans: &[Span], selfs: &[u64], name: &str) -> f64 {
    let v: Vec<f64> = per_step(spans, selfs, name)
        .values()
        .map(|&(ns, _)| ns as f64)
        .collect();
    stats::median_or_zero(&v)
}

/// Median over steps of the mean self time (ns) of one span named `name`;
/// 0 when there are none.
pub fn call_median(spans: &[Span], selfs: &[u64], name: &str) -> f64 {
    let v: Vec<f64> = per_step(spans, selfs, name)
        .values()
        .map(|&(ns, n)| ns as f64 / n as f64)
        .collect();
    stats::median_or_zero(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            step: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50), // overlaps span 1: 10..50 counted once
            span(3, Some(0), 90, 120), // runs past the parent: 90..100 counted
            span(4, Some(1), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new(true);
        t.set_step(7);
        t.span("outer", |t| t.span("inner", |_| ()));
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent, s[1].step), ("inner", Some(0), 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let off = Tracer::new(false);
        assert!(off.spans().is_empty());
    }
}
