//! The harness's own span recorder. Spans are recorded from the benchmark's
//! files, around calls into each crate's public functions; they live in
//! memory until the run ends and are then written as JSON lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Index of a span in its recorder.
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The request this span belongs to: spans of one job share its id.
    pub job: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, job: u64, parent: Option<SpanId>) -> SpanId {
        let id = self.spans.len() as SpanId;
        // Pushed first, stamped last, so the vector's growth is outside
        // the span it opens.
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.spans[id as usize].start_ns = self.now_ns();
        id
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Renames a span once its outcome is known (a job that turned out to
    /// need recovery is a different population from one that did not).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    /// Times `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, job, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span: name, job, parent, start, end and
    /// self time.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        let own = self_times_ns(&self.spans);
        for (id, span) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\": {id}, \"name\": \"{}\", \"job\": {}, \"parent\": ",
                span.name, span.job
            );
            match span.parent {
                Some(p) => {
                    let _ = write!(line, "{p}");
                }
                None => line.push_str("null"),
            }
            let _ = writeln!(
                line,
                ", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                span.start_ns, span.end_ns, own[id]
            );
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// direct children cover (children clipped to the parent, overlaps between
/// siblings counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children.entry(parent).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            let covered = children
                .get_mut(&(id as SpanId))
                .map(|intervals| {
                    intervals.sort_unstable();
                    let mut covered = 0u64;
                    let mut reach = 0u64;
                    for &(start, end) in intervals.iter() {
                        let start = start.max(reach);
                        if end > start {
                            covered += end - start;
                            reach = end;
                        }
                    }
                    covered
                })
                .unwrap_or(0);
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Median duration, in microseconds, and sample count of each span name.
pub fn medians_us(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for span in spans {
        by_name
            .entry(span.name)
            .or_default()
            .push(span.duration_ns() as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, durations)| (name, (stats::median(&durations), durations.len())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            job: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("job", None, 0, 1000),
            span("svc.submit", Some(0), 0, 100),
            span("svc.wait", Some(0), 150, 950),
            span("inner", Some(2), 200, 300),
        ];
        assert_eq!(self_times_ns(&spans), vec![100, 100, 700, 100]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("parent", None, 100, 200),
            // Overlap 120..160 counted once; 180..260 clipped to 180..200.
            span("a", Some(0), 110, 160),
            span("b", Some(0), 120, 150),
            span("c", Some(0), 180, 260),
            // Entirely outside the parent: covers nothing.
            span("d", Some(0), 300, 400),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 20);
    }

    #[test]
    fn recorder_nests_and_orders() {
        let mut rec = Recorder::new();
        let job = rec.begin("job", 7, None);
        let got = rec.span("svc.submit", 7, Some(job), || 42);
        rec.end(job);
        assert_eq!(got, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(job));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let own = self_times_ns(spans);
        assert_eq!(own[0], spans[0].duration_ns() - spans[1].duration_ns());
    }

    #[test]
    fn medians_group_by_name() {
        let spans = vec![
            span("k", None, 0, 1000),
            span("k", None, 0, 3000),
            span("k", None, 0, 2000),
            span("j", None, 0, 500),
        ];
        let medians = medians_us(&spans);
        assert_eq!(medians["k"], (2.0, 3));
        assert_eq!(medians["j"], (0.5, 1));
    }
}
