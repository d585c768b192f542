//! Propagated query traces: contexts, typed spans, the bounded per-lane
//! span buffer, and client-side tree assembly.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;
use propeller_types::{Duration, Timestamp};

/// The trace identity carried on wire messages. `trace == 0` means the
/// request is not sampled and every recording site is a no-op branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Trace id, unique per sampled request (0 = not sampled).
    pub trace: u64,
    /// The sender's span id — recorded spans on the receiving lane become
    /// its children (0 = the span being recorded is the root).
    pub span: u64,
}

impl TraceContext {
    /// The disabled context: nothing records.
    pub const NONE: TraceContext = TraceContext { trace: 0, span: 0 };

    /// A root context for a freshly sampled request.
    pub fn root(trace: u64) -> Self {
        TraceContext { trace, span: 0 }
    }

    /// Whether spans should be recorded under this context.
    pub fn enabled(&self) -> bool {
        self.trace != 0
    }
}

/// Which lane recorded a span. Lanes are the trace's unit of attribution:
/// the assembled tree names the node (or client) each span ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// A client engine, by client id.
    Client(u64),
    /// The Master.
    Master,
    /// An Index Node, by raw node id. Spans recorded from the node's
    /// worker-pool jobs carry the same lane — the pool is the node.
    Node(u64),
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lane::Client(c) => write!(f, "client#{c}"),
            Lane::Master => write!(f, "master"),
            Lane::Node(n) => write!(f, "node#{n}"),
        }
    }
}

/// The typed stages a traced request can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole client-side request (the tree root).
    Request,
    /// Master file→ACG resolution.
    Resolve,
    /// A stale-route drop + re-resolve + retry round.
    RouteRetry,
    /// Opening a node search session (or a one-shot dispatch attempt).
    Open,
    /// Pulling one page from an open session.
    Pull,
    /// The client-side cluster-wide k-way merge.
    Merge,
    /// Node-side search service (actor receipt to reply).
    Search,
    /// One ACG's share of a node search, on a worker-pool lane.
    AcgExec,
    /// A worker-pool job (queue wait + execution).
    PoolJob,
    /// A WAL fsync.
    WalFsync,
    /// A snapshot write.
    Snapshot,
    /// Waiting for the commit-before-search epoch pin.
    EpochPin,
    /// An `IndexBatch` applied on the primary.
    Ingest,
    /// A `ReplicateBatch` applied on a follower.
    Replicate,
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpanKind::Request => "request",
            SpanKind::Resolve => "resolve",
            SpanKind::RouteRetry => "route-retry",
            SpanKind::Open => "open",
            SpanKind::Pull => "pull",
            SpanKind::Merge => "merge",
            SpanKind::Search => "search",
            SpanKind::AcgExec => "acg-exec",
            SpanKind::PoolJob => "pool-job",
            SpanKind::WalFsync => "wal-fsync",
            SpanKind::Snapshot => "snapshot",
            SpanKind::EpochPin => "epoch-pin",
            SpanKind::Ingest => "ingest",
            SpanKind::Replicate => "replicate",
        };
        f.write_str(s)
    }
}

/// One recorded span: a typed interval on one lane, linked to its parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace: u64,
    /// Unique span id (lane-tagged, never 0).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// What stage this span measures.
    pub kind: SpanKind,
    /// The lane that recorded it.
    pub lane: Lane,
    /// Start time (injected clock).
    pub start: Timestamp,
    /// End time (injected clock).
    pub end: Timestamp,
    /// Free-form annotation ("n3 hits=8", "n2 ok=true", …). Empty = none.
    pub detail: String,
}

impl Span {
    /// The span's wall time.
    pub fn wall(&self) -> Duration {
        self.end.since(self.start)
    }
}

/// A span opened but not yet finished. Carries the child context to
/// propagate downstream; inert (records nothing) when the parent context
/// was disabled.
#[derive(Debug)]
pub struct OpenSpan {
    ctx: TraceContext,
    parent: u64,
    kind: SpanKind,
    start: Timestamp,
}

impl OpenSpan {
    /// The context downstream work should carry so its spans become
    /// children of this one. [`TraceContext::NONE`] when inert.
    pub fn ctx(&self) -> TraceContext {
        self.ctx
    }

    /// Whether finishing this span will record anything.
    pub fn enabled(&self) -> bool {
        self.ctx.enabled()
    }
}

/// A bounded per-lane span buffer. Writers claim a slot with one atomic
/// `fetch_add` (lock-free claim; the buffer wraps, overwriting the oldest
/// spans) and publish through that slot's own tiny mutex — recorders on
/// different slots never contend.
#[derive(Debug)]
pub struct SpanBuffer {
    lane: Lane,
    seed: u64,
    seq: AtomicU64,
    cursor: AtomicUsize,
    slots: Vec<Mutex<Option<Span>>>,
}

impl SpanBuffer {
    /// A buffer holding at most `capacity` spans for `lane`.
    pub fn new(lane: Lane, capacity: usize) -> Self {
        let seed = match lane {
            Lane::Master => 1 << 56,
            Lane::Node(n) => (2 << 56) | ((n & 0xFFFF) << 40),
            Lane::Client(c) => (3 << 56) | ((c & 0xFFFF) << 40),
        };
        SpanBuffer {
            lane,
            seed,
            seq: AtomicU64::new(1),
            cursor: AtomicUsize::new(0),
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// The lane this buffer records for.
    pub fn lane(&self) -> Lane {
        self.lane
    }

    /// Opens a span under `parent` starting `now`. Inert if the parent
    /// context is disabled.
    pub fn begin(&self, parent: TraceContext, kind: SpanKind, now: Timestamp) -> OpenSpan {
        if !parent.enabled() {
            return OpenSpan { ctx: TraceContext::NONE, parent: 0, kind, start: now };
        }
        let id = self.seed | (self.seq.fetch_add(1, Ordering::Relaxed) & 0xFF_FFFF_FFFF);
        OpenSpan {
            ctx: TraceContext { trace: parent.trace, span: id },
            parent: parent.span,
            kind,
            start: now,
        }
    }

    /// Finishes `open` at `now` with no annotation.
    pub fn finish(&self, open: OpenSpan, now: Timestamp) {
        self.finish_with(open, now, String::new());
    }

    /// Finishes `open` at `now`, annotated with `detail`.
    pub fn finish_with(&self, open: OpenSpan, now: Timestamp, detail: String) {
        if !open.ctx.enabled() {
            return;
        }
        self.record(Span {
            trace: open.ctx.trace,
            id: open.ctx.span,
            parent: open.parent,
            kind: open.kind,
            lane: self.lane,
            start: open.start,
            end: now,
            detail,
        });
    }

    /// Pushes a fully-formed span (claim a slot, publish).
    pub fn record(&self, span: Span) {
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[slot].lock() = Some(span);
    }

    /// Removes and returns every retained span of `trace`.
    pub fn harvest(&self, trace: u64) -> Vec<Span> {
        let mut out = Vec::new();
        for slot in &self.slots {
            let mut guard = slot.lock();
            if guard.as_ref().is_some_and(|s| s.trace == trace) {
                out.extend(guard.take());
            }
        }
        out
    }

    /// Copies every retained span of `trace` **without** removing it —
    /// the slow-query log snapshots a request's spans while leaving them
    /// in place for a later `harvest` (trace assembly).
    pub fn collect(&self, trace: u64) -> Vec<Span> {
        let mut out = Vec::new();
        for slot in &self.slots {
            let guard = slot.lock();
            if let Some(s) = guard.as_ref() {
                if s.trace == trace {
                    out.push(s.clone());
                }
            }
        }
        out
    }

    /// Number of spans currently retained (all traces).
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.lock().is_some()).count()
    }

    /// Whether the buffer holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One node of an assembled trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    /// The span at this node.
    pub span: Span,
    /// Child spans, ordered by start time.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Depth-first iteration over this subtree's spans.
    pub fn walk<'a>(&'a self, out: &mut Vec<&'a Span>) {
        out.push(&self.span);
        for c in &self.children {
            c.walk(out);
        }
    }
}

/// A fully assembled trace: one root, every span parented.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// The root (the client-side request span).
    pub root: TraceNode,
}

impl TraceTree {
    /// Assembles harvested spans into one tree.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation: no spans, zero or
    /// multiple roots, or an orphaned parent reference (which can happen
    /// legitimately if a lane's bounded buffer wrapped past the parent —
    /// the caller decides whether that is fatal).
    pub fn assemble(mut spans: Vec<Span>) -> Result<TraceTree, String> {
        if spans.is_empty() {
            return Err("no spans harvested".into());
        }
        spans.sort_by_key(|s| (s.start, s.id));
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        if ids.len() != spans.len() {
            return Err("duplicate span ids".into());
        }
        let mut roots = Vec::new();
        let mut children: std::collections::HashMap<u64, Vec<Span>> =
            std::collections::HashMap::new();
        for span in spans {
            if span.parent == 0 {
                roots.push(span);
            } else if ids.contains(&span.parent) {
                children.entry(span.parent).or_default().push(span);
            } else {
                return Err(format!(
                    "orphaned span {} ({} on {}): parent {} not harvested",
                    span.id, span.kind, span.lane, span.parent
                ));
            }
        }
        let root = match (roots.pop(), roots.len()) {
            (Some(r), 0) => r,
            (None, _) => return Err("no root span".into()),
            (Some(_), n) => return Err(format!("{} roots", n + 1)),
        };
        fn build(
            span: Span,
            children: &mut std::collections::HashMap<u64, Vec<Span>>,
        ) -> TraceNode {
            let kids = children.remove(&span.id).unwrap_or_default();
            TraceNode { span, children: kids.into_iter().map(|c| build(c, children)).collect() }
        }
        Ok(TraceTree { root: build(root, &mut children) })
    }

    /// Every span, depth-first.
    pub fn spans(&self) -> Vec<&Span> {
        let mut out = Vec::new();
        self.root.walk(&mut out);
        out
    }

    /// Checks structural well-formedness beyond what assembly enforces:
    /// every span's interval is non-negative and no child *starts* before
    /// its parent did. A child may **end** after its parent closed —
    /// that's follows-from causality, and it really happens: a detached
    /// session close outlives the pull that triggered it.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated containment.
    pub fn check_well_formed(&self) -> Result<(), String> {
        fn check(node: &TraceNode) -> Result<(), String> {
            let s = &node.span;
            if s.end < s.start {
                return Err(format!("span {} ({}) ends before it starts", s.id, s.kind));
            }
            for c in &node.children {
                if c.span.start < s.start {
                    return Err(format!(
                        "child {} ({} on {}) [{}..{}] escapes parent {} ({}) [{}..{}]",
                        c.span.id,
                        c.span.kind,
                        c.span.lane,
                        c.span.start.as_micros(),
                        c.span.end.as_micros(),
                        s.id,
                        s.kind,
                        s.start.as_micros(),
                        s.end.as_micros(),
                    ));
                }
                check(c)?;
            }
            Ok(())
        }
        check(&self.root)
    }

    /// Renders the tree as indented text with per-span wall times.
    pub fn render(&self) -> String {
        fn fmt_node(node: &TraceNode, depth: usize, out: &mut String) {
            let s = &node.span;
            let indent = "  ".repeat(depth);
            out.push_str(&format!(
                "{indent}{} [{}] {} µs{}{}\n",
                s.kind,
                s.lane,
                s.wall().as_micros(),
                if s.detail.is_empty() { "" } else { " — " },
                s.detail,
            ));
            for c in &node.children {
                fmt_node(c, depth + 1, out);
            }
        }
        let mut out = format!("trace {:#x}\n", self.root.span.trace);
        fmt_node(&self.root, 0, &mut out);
        out
    }

    /// Finds every span of `kind`, depth-first.
    pub fn find(&self, kind: SpanKind) -> Vec<&Span> {
        self.spans().into_iter().filter(|s| s.kind == kind).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    #[test]
    fn disabled_context_records_nothing() {
        let buf = SpanBuffer::new(Lane::Client(1), 8);
        let open = buf.begin(TraceContext::NONE, SpanKind::Request, ts(0));
        assert!(!open.enabled());
        assert_eq!(open.ctx(), TraceContext::NONE);
        buf.finish(open, ts(10));
        assert!(buf.is_empty());
    }

    #[test]
    fn spans_nest_and_assemble() {
        let client = SpanBuffer::new(Lane::Client(1), 8);
        let node = SpanBuffer::new(Lane::Node(3), 8);
        let root = client.begin(TraceContext::root(42), SpanKind::Request, ts(0));
        let open = client.begin(root.ctx(), SpanKind::Open, ts(1));
        let remote = node.begin(open.ctx(), SpanKind::Search, ts(2));
        node.finish_with(remote, ts(5), "acgs 4".into());
        client.finish(open, ts(6));
        client.finish(root, ts(10));

        let mut spans = client.harvest(42);
        spans.extend(node.harvest(42));
        let tree = TraceTree::assemble(spans).unwrap();
        tree.check_well_formed().unwrap();
        assert_eq!(tree.root.span.kind, SpanKind::Request);
        assert_eq!(tree.root.children.len(), 1);
        let open = &tree.root.children[0];
        assert_eq!(open.span.kind, SpanKind::Open);
        assert_eq!(open.children[0].span.lane, Lane::Node(3));
        assert_eq!(open.children[0].span.detail, "acgs 4");
        assert_eq!(open.children[0].span.wall(), Duration::from_micros(3));
        assert!(tree.render().contains("search [node#3] 3 µs — acgs 4"));
    }

    #[test]
    fn assembly_rejects_malformed_forests() {
        assert!(TraceTree::assemble(Vec::new()).is_err());
        let mk = |id: u64, parent: u64| Span {
            trace: 7,
            id,
            parent,
            kind: SpanKind::Open,
            lane: Lane::Master,
            start: ts(0),
            end: ts(1),
            detail: String::new(),
        };
        // Two roots.
        assert!(TraceTree::assemble(vec![mk(1, 0), mk(2, 0)]).is_err());
        // Orphaned parent.
        assert!(TraceTree::assemble(vec![mk(1, 0), mk(2, 99)]).is_err());
        // No root.
        assert!(TraceTree::assemble(vec![mk(2, 3), mk(3, 2)]).is_err());
    }

    #[test]
    fn containment_check_catches_escaping_children() {
        let mk = |id: u64, parent: u64, a: u64, b: u64| Span {
            trace: 7,
            id,
            parent,
            kind: SpanKind::Open,
            lane: Lane::Master,
            start: ts(a),
            end: ts(b),
            detail: String::new(),
        };
        let tree = TraceTree::assemble(vec![mk(1, 0, 2, 10), mk(2, 1, 1, 8)]).unwrap();
        assert!(tree.check_well_formed().is_err(), "child started before its parent");
        // Outlasting the parent is fine: a detached close legitimately
        // finishes after the pull that triggered it.
        let ok = TraceTree::assemble(vec![mk(1, 0, 0, 10), mk(2, 1, 5, 12)]).unwrap();
        ok.check_well_formed().unwrap();
    }

    #[test]
    fn buffer_wraps_at_capacity() {
        let buf = SpanBuffer::new(Lane::Node(1), 4);
        for i in 0..10u64 {
            let open = buf.begin(TraceContext::root(9), SpanKind::Pull, ts(i));
            buf.finish(open, ts(i + 1));
        }
        let spans = buf.harvest(9);
        assert_eq!(spans.len(), 4, "bounded: only the newest capacity spans retained");
        assert!(spans.iter().all(|s| s.start >= ts(6)));
    }

    #[test]
    fn span_ids_are_lane_unique() {
        let a = SpanBuffer::new(Lane::Node(1), 8);
        let b = SpanBuffer::new(Lane::Node(2), 8);
        let c = SpanBuffer::new(Lane::Client(1), 8);
        let sa = a.begin(TraceContext::root(1), SpanKind::Open, ts(0));
        let sb = b.begin(TraceContext::root(1), SpanKind::Open, ts(0));
        let sc = c.begin(TraceContext::root(1), SpanKind::Open, ts(0));
        let ids = [sa.ctx().span, sb.ctx().span, sc.ctx().span];
        assert_eq!(ids.iter().collect::<std::collections::HashSet<_>>().len(), 3);
    }
}
