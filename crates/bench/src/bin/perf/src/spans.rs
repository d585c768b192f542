//! The traced run's two span sources.
//!
//! * The benchmark's **own** spans, recorded from outside around the calls
//!   into each layer — `{name, start, end, parent, op}`, kept in memory and
//!   written out as JSON lines when the run ends. Spans inside the program
//!   are a later change; these are the ones the benchmark can own.
//! * The program's propagated span trees (PR 10), harvested through the
//!   public `dump_trace` and reduced to **self time** per span kind.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use propeller_obs::{TraceNode, TraceTree};

use crate::stats::self_time;

/// One benchmark-side span. Times are µs since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpan {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to (spans of one op share it).
    pub op: u64,
}

/// In-memory recorder of the benchmark's own spans.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<BenchSpan>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children. Returns `f`'s value and the span's duration in seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(BenchSpan {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[id].end_us = end_us;
        (value, (end_us - start_us) / 1e6)
    }

    pub fn spans(&self) -> &[BenchSpan] {
        &self.spans
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_us, s.end_us, s.op
            )?;
        }
        out.flush()
    }
}

/// Self time per span kind, summed over harvested trace trees.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// kind → (total self µs, traces that contained the kind).
    by_kind: BTreeMap<String, (u64, u64)>,
}

impl SelfTimes {
    /// Folds one request's tree in.
    pub fn absorb(&mut self, tree: &TraceTree) {
        let mut in_this_trace: BTreeMap<String, u64> = BTreeMap::new();
        walk(&tree.root, &mut in_this_trace);
        for (kind, us) in in_this_trace {
            let row = self.by_kind.entry(kind).or_default();
            row.0 += us;
            row.1 += 1;
        }
    }

    /// Mean self µs of `kind` per traced request that contained it; 0 when
    /// no harvested request did.
    pub fn mean_us(&self, kind: &str) -> f64 {
        self.by_kind.get(kind).map_or(0.0, |&(us, traces)| us as f64 / traces as f64)
    }
}

fn walk(node: &TraceNode, out: &mut BTreeMap<String, u64>) {
    let interval = |n: &TraceNode| (n.span.start.as_micros(), n.span.end.as_micros());
    let children: Vec<(u64, u64)> = node.children.iter().map(interval).collect();
    *out.entry(node.span.kind.to_string()).or_default() += self_time(interval(node), &children);
    for child in &node.children {
        walk(child, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_obs::{Lane, Span, SpanKind};
    use propeller_types::Timestamp;

    #[test]
    fn recorder_nests_spans_and_writes_one_line_each() {
        let mut rec = Recorder::new();
        let ((), outer_s) = rec.span("outer", 7, |rec| {
            rec.span("inner", 7, |_| ());
        });
        assert!(outer_s >= 0.0);
        let spans = rec.spans();
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].op), ("inner", Some(0), 7));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        let path =
            crate::system::scratch_root().join(format!("test-spans-{}.jsonl", std::process::id()));
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn self_times_subtract_children_per_kind() {
        let span = |id, parent, kind, start, end| Span {
            trace: 1,
            id,
            parent,
            kind,
            lane: Lane::Master,
            start: Timestamp::from_micros(start),
            end: Timestamp::from_micros(end),
            detail: String::new(),
        };
        // request [0,100) ⊃ open [10,40), open [30,70) ⊃ search [35,60)
        let tree = TraceTree::assemble(vec![
            span(1, 0, SpanKind::Request, 0, 100),
            span(2, 1, SpanKind::Open, 10, 40),
            span(3, 1, SpanKind::Open, 30, 70),
            span(4, 3, SpanKind::Search, 35, 60),
        ])
        .unwrap();
        let mut times = SelfTimes::default();
        times.absorb(&tree);
        times.absorb(&tree);
        assert_eq!(times.mean_us("request"), 40.0); // 100 − |[10,70)|
        assert_eq!(times.mean_us("open"), 45.0); // 30 + (40 − 25)
        assert_eq!(times.mean_us("search"), 25.0);
        assert_eq!(times.mean_us("pull"), 0.0);
    }
}
