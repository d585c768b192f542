//! Plan execution with full-predicate post-filtering.
//!
//! The request path ([`execute_request`]) is a *streaming* pipeline:
//! index paths yield **index entries** — a posting list's ids, a B+-tree
//! walk's `(value, file)` pairs, a K-D box's points — and a candidate's
//! record is resolved (through a leaf cursor on the record store) only
//! when its sort key, an unproved conjunct (`Residual`) or the projection
//! reads it ([`SearchStats::records_resolved`]), or when it is a box point
//! on a bound of the box. Predicates are evaluated in place and hits are
//! only materialized once the bounded top-k accumulator decides they will
//! be retained. When the planner emits an [`AccessPath::OrderedScan`] — a
//! limited request sorted by a B+-tree-covered attribute — candidates
//! arrive in final result order and execution **terminates after `limit`
//! admitted hits**, witnessed by [`SearchStats::early_terminated`] and
//! [`SearchStats::candidates_skipped`].
//!
//! A multi-ACG Index Node goes one step further with the **node-global k
//! cutoff** ([`execute_node_request_sequential`]; the sequence itself lives
//! in [`crate::session`], which every entry point here opens with an
//! unbounded first page): every ACG whose plan is an ordered scan
//! contributes a resumable lazy `OrderedHitStream`, all streams are pulled
//! through one k-way merge, and the node stops after `k` total admitted
//! hits *across* its ACGs instead of `k` per ACG
//! ([`SearchStats::merge_skipped`]). ACGs on non-ordered plans still run
//! their bounded top-k scans ([`execute_classic`]) — in parallel, on the
//! node's worker pool — but share one [`GlobalCutoff`] so each can prune
//! candidates that already fell out of the merged node-wide top-k
//! ([`SearchStats::bound_pruned`]).

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::Arc;

use propeller_index::{
    bm25_block_bound, bm25_idf, bm25_score, bm25_term_bound, phrase_at, record_contains_all,
    record_contains_any, record_contains_phrase, record_tokens, AcgEpoch, Bm25Scorer, FileRecord,
    LeafCursor, PostingsCursor, BLOCK,
};
use propeller_types::{AttrName, FileId, Value};

use crate::ast::{CompareOp, ContainsMode, Predicate};
use crate::plan::{plan, AccessPath, Plan};
use crate::request::{
    AccessPathKind, Cursor, GlobalCutoff, Hit, Projection, SearchRequest, SearchStats, SortKey,
    TopK,
};
use crate::session::open_page;

/// Evaluates the predicate against one record (exact semantics; the access
/// path only pre-filters). Multi-valued attributes (keywords, repeated
/// custom attributes) match when *any* value satisfies the comparison.
///
/// # Examples
///
/// ```
/// use propeller_index::FileRecord;
/// use propeller_query::{matches_record, Query};
/// use propeller_types::{FileId, InodeAttrs, Timestamp};
///
/// let rec = FileRecord::new(
///     FileId::new(1),
///     InodeAttrs::builder().size(32 << 20).build(),
/// );
/// let q = Query::parse("size>16m", Timestamp::from_secs(0)).unwrap();
/// assert!(matches_record(&rec, &q.predicate));
/// ```
pub fn matches_record(record: &FileRecord, pred: &Predicate) -> bool {
    match pred {
        Predicate::True => true,
        Predicate::Keyword(w) => record.keywords.iter().any(|k| k == w),
        Predicate::Contains { terms, mode } => match mode {
            ContainsMode::All => record_contains_all(record, terms),
            ContainsMode::Any => record_contains_any(record, terms),
            ContainsMode::Phrase => record_contains_phrase(record, terms),
        },
        Predicate::Compare { attr, op, value } => compare_attr(record, attr, *op, value),
        Predicate::And(ps) => ps.iter().all(|p| matches_record(record, p)),
        Predicate::Or(ps) => ps.iter().any(|p| matches_record(record, p)),
        Predicate::Not(p) => !matches_record(record, p),
    }
}

/// Zero-allocation comparison: the record's values for `attr` are visited
/// in place — keywords compare as borrowed strings, custom values by
/// reference, builtin attrs as stack-built `Value`s. Nothing is cloned
/// into a temporary `Vec` per candidate.
fn compare_attr(record: &FileRecord, attr: &AttrName, op: CompareOp, rhs: &Value) -> bool {
    match attr {
        AttrName::Keyword => record.keywords.iter().any(|k| op.eval_str(k, rhs)),
        AttrName::Custom(name) => record.custom.iter().any(|(n, v)| n == name && op.eval(v, rhs)),
        builtin => record.attrs.get(builtin).is_some_and(|v| op.eval(&v, rhs)),
    }
}

/// What an access path proves about every candidate it yields (a K-D box:
/// every point strictly inside it). Full scans prove nothing: they
/// evaluate [`Residual::whole`].
#[derive(Clone, Copy)]
pub(crate) enum Proof<'a> {
    /// The posting list of `attr == value`: the record holds `value`
    /// among its values for `attr`.
    Eq { attr: &'a AttrName, value: &'a Value },
    /// A B+-tree walk over `attr` within `(lo, hi)`: for a single-valued
    /// builtin the record's one value lies inside the bounds. A
    /// multi-valued attribute proves nothing — the in-range value need not
    /// be the one a given conjunct asks about.
    Range { attr: &'a AttrName, lo: &'a Bound<Value>, hi: &'a Bound<Value> },
    /// A postings merge of `terms`. A file has a posting under a term
    /// exactly when [`record_tokens`] of its record contains it (index and
    /// record matchers share `tokenize_into`, and an epoch's postings are
    /// built from its records), so a conjunctive candidate contains every
    /// merge term and a disjunctive one at least one. A conjunctive merge
    /// also checks each phrase of merge terms on the postings' positions.
    Merge { terms: &'a [String], conjunctive: bool },
    /// A K-D box over `attrs`, for a point strictly inside it
    /// ([`propeller_index::BoxPoint::interior`]). `u64 → f64` rounding is
    /// monotone, so a builtin's value projected strictly beyond a bound is
    /// beyond the `U64` bounds of every conjunct that bound implies. A
    /// point on a bound may have rounded onto it from either side.
    Box { attrs: &'a [AttrName], lo: &'a [f64], hi: &'a [f64] },
}

impl Proof<'_> {
    /// Whether every candidate of the access path satisfies `conjunct`.
    fn proves(self, conjunct: &Predicate) -> bool {
        match (self, conjunct) {
            (Proof::Eq { attr: AttrName::Keyword, value }, Predicate::Keyword(w)) => {
                value.as_str() == Some(w)
            }
            (
                Proof::Eq { attr, value },
                Predicate::Compare { attr: a, op: CompareOp::Eq, value: v },
            ) => a == attr && v == value,
            (Proof::Range { attr, lo, hi }, Predicate::Compare { attr: a, op, value }) => {
                a == attr && attr.is_inode_attr() && range_implies(lo, hi, *op, value)
            }
            (Proof::Box { attrs, lo, hi }, Predicate::Compare { attr, op, value }) => {
                let axis = attrs.iter().position(|a| a == attr).filter(|_| attr.is_inode_attr());
                let (Some(i), Value::U64(_)) = (axis, value) else { return false };
                let v = value.axis_projection();
                (matches!(op, CompareOp::Gt | CompareOp::Ge) && lo[i] >= v)
                    || (matches!(op, CompareOp::Lt | CompareOp::Le) && hi[i] <= v)
            }
            // A conjunctive merge checks phrase adjacency on its cursors'
            // positions; any other `Contains` shape is not what it computed.
            (
                Proof::Merge { terms, conjunctive: true },
                Predicate::Contains { terms: ts, mode: ContainsMode::All | ContainsMode::Phrase },
            ) => ts.iter().all(|t| terms.contains(t)),
            (
                Proof::Merge { terms, conjunctive: false },
                Predicate::Contains { terms: ts, mode: ContainsMode::Any },
            ) => ts.as_slice() == terms,
            _ => false,
        }
    }
}

/// Whether every value inside `(lo, hi)` satisfies `v op rhs`.
fn range_implies(lo: &Bound<Value>, hi: &Bound<Value>, op: CompareOp, rhs: &Value) -> bool {
    match (op, lo, hi) {
        (CompareOp::Gt, Bound::Included(l), _) => l > rhs,
        (CompareOp::Gt | CompareOp::Ge, Bound::Excluded(l), _) => l >= rhs,
        (CompareOp::Ge, Bound::Included(l), _) => l >= rhs,
        (CompareOp::Lt, _, Bound::Included(h)) => h < rhs,
        (CompareOp::Lt | CompareOp::Le, _, Bound::Excluded(h)) => h <= rhs,
        (CompareOp::Le, _, Bound::Included(h)) => h <= rhs,
        (CompareOp::Eq, Bound::Included(l), Bound::Included(h)) => l == rhs && h == rhs,
        _ => false,
    }
}

/// The **residual** of a request's predicate under an access path: its
/// conjuncts minus the ones the path proves (see [`Proof`] — the one
/// place that rule lives, for attribute and postings paths alike).
/// Evaluating only the residual is exact because every candidate the path
/// yields satisfies the dropped conjuncts by construction. Two words, no
/// allocation: cheap enough to derive per ACG execution.
#[derive(Clone, Copy)]
pub(crate) struct Residual<'a> {
    pred: &'a Predicate,
    /// Bit `i` set = flattened conjunct `i` is proved and skipped.
    /// Conjuncts past the 64th are always evaluated.
    proved: u64,
}

impl<'a> Residual<'a> {
    /// The whole predicate: nothing is proved.
    fn whole(pred: &'a Predicate) -> Self {
        Residual { pred, proved: 0 }
    }

    pub(crate) fn of(pred: &'a Predicate, proof: Proof<'_>) -> Self {
        let mut proved = 0u64;
        let mut i = 0u32;
        pred.all_conjuncts(&mut |conjunct| {
            if i < u64::BITS && proof.proves(conjunct) {
                proved |= 1 << i;
            }
            i += 1;
            true
        });
        Residual { pred, proved }
    }

    fn matches(self, record: &FileRecord) -> bool {
        self.all(|conjunct| matches_record(record, conjunct))
    }

    /// Whether the access path proves every conjunct, so that its
    /// candidates need no check at all.
    fn is_empty(self) -> bool {
        self.all(|_| false)
    }

    /// Whether `check` holds for every conjunct the path does not prove.
    fn all(self, mut check: impl FnMut(&Predicate) -> bool) -> bool {
        let mut i = 0u32;
        self.pred.all_conjuncts(&mut |conjunct| {
            let skip = i < u64::BITS && self.proved >> i & 1 == 1;
            i += 1;
            skip || check(conjunct)
        })
    }
}

/// One candidate as its access path yields it.
struct Candidate<'a> {
    file: FileId,
    /// The value of the index entry the walk found the file under (`None`
    /// off a K-D box or a full scan).
    entry: Option<&'a Value>,
    /// The record, once read (a full scan holds it from the start).
    record: Option<&'a FileRecord>,
    /// The path's [`Proof`] covers the candidate: always, but for a K-D box
    /// point that ties a bound, which is checked against the whole
    /// predicate.
    proved: bool,
}

impl<'a> Candidate<'a> {
    fn entry(file: FileId, entry: Option<&'a Value>) -> Self {
        Candidate { file, entry, record: None, proved: true }
    }
}

/// The record side of one access path's candidates: when a candidate needs
/// its record, and the leaf cursor on the epoch's record store that
/// resolves it. It is needed when the sort key is not the entry's value,
/// when the [`Residual`] leaves a conjunct to check, when the path's proof
/// does not cover the candidate, or when the projection reads attributes;
/// otherwise the hit is the entry alone.
struct Fetch<'a> {
    group: &'a AcgEpoch,
    request: &'a SearchRequest,
    residual: Residual<'a>,
    /// The sort is over the walked attribute, a single-valued builtin, so
    /// an entry's value is its record's sort key.
    key_in_entry: bool,
    /// The residual or the projection reads the record.
    needs_record: bool,
    cursor: Option<LeafCursor<'a, FileId, Arc<FileRecord>>>,
    resolved: usize,
}

impl<'a> Fetch<'a> {
    /// The rule for a walk over the entries of `walked`'s index (`None`:
    /// the path's candidates carry no entry value).
    fn new(
        group: &'a AcgEpoch,
        request: &'a SearchRequest,
        residual: Residual<'a>,
        walked: Option<&AttrName>,
    ) -> Self {
        let sort = request.sort.attr();
        Fetch {
            group,
            request,
            residual,
            key_in_entry: walked.is_some_and(|attr| attr.is_inode_attr() && sort == Some(attr)),
            needs_record: !residual.is_empty() || request.projection != Projection::Ids,
            cursor: None,
            resolved: 0,
        }
    }

    /// The candidate's record, resolved at most once.
    fn record(&mut self, candidate: &mut Candidate<'a>) -> Option<&'a FileRecord> {
        if candidate.record.is_none() {
            let cursor = self.cursor.get_or_insert_with(|| self.group.record_cursor());
            candidate.record = cursor.get(&candidate.file).map(|r| &**r);
            self.resolved += 1;
        }
        candidate.record
    }

    /// The candidate's sort key: its entry's value, or read off its record.
    fn key(&mut self, candidate: &mut Candidate<'a>) -> Option<Value> {
        let sort = &self.request.sort;
        match sort.attr() {
            None => None,
            Some(_) if self.key_in_entry => candidate.entry.cloned(),
            Some(_) => self.record(candidate).and_then(|r| sort.key_of(r)),
        }
    }

    /// Whether the candidate satisfies the residual (the whole predicate
    /// when the path's proof does not cover it), resolving its record only
    /// if that or the projection reads it.
    fn admits(&mut self, candidate: &mut Candidate<'a>) -> bool {
        let residual = self.residual;
        if candidate.proved {
            !self.needs_record || self.record(candidate).is_some_and(|r| residual.matches(r))
        } else {
            self.record(candidate).is_some_and(|r| matches_record(r, residual.pred))
        }
    }
}

/// Executes a [`SearchRequest`] against a (committed) group: plans an
/// access path, streams the candidate records through the exact predicate
/// and a bounded top-k accumulator, and projects the survivors into
/// [`Hit`]s.
///
/// When `request.limit` is `Some(k)`, at most `k` hits are retained at any
/// moment (witnessed by [`SearchStats::retained_peak`]) — the full result
/// set is never materialized, which is what makes cluster-scale top-k
/// searches affordable. The request's cursor is applied here too, so
/// pagination enjoys the same bound. Candidates stream directly off the
/// index structures and hits are built only once the accumulator admits
/// them, so rejected candidates allocate nothing.
///
/// A limited request sorted by a B+-tree-covered builtin attribute runs as
/// an [`AccessPath::OrderedScan`]: the tree's entries are walked in result
/// order, the residual predicate is checked per candidate (exact
/// semantics), and the scan **stops after `k` admitted hits** — see
/// [`SearchStats::early_terminated`] / [`SearchStats::candidates_skipped`].
///
/// Hits come back in the request's sort order. This is a node search over
/// one epoch ([`execute_node_request_sequential`]); callers are responsible
/// for committing the group first (the owning Index Node commits before
/// serving a search).
pub fn execute_request(group: &AcgEpoch, request: &SearchRequest) -> (Vec<Hit>, SearchStats) {
    execute_node_request_sequential(&[group], request)
}

/// Executes one group's share of a search along a classic (non-ordered)
/// access path: streams the candidates through the exact predicate, the
/// cursor and a bounded top-k accumulator. When `cutoff` is set (the
/// node-global retention bound of a multi-ACG search), matching
/// candidates that provably fell out of the merged node-wide top-k are
/// dropped before hit materialization.
pub fn execute_classic(
    group: &AcgEpoch,
    request: &SearchRequest,
    plan: Plan,
    cutoff: Option<&GlobalCutoff>,
) -> (Vec<Hit>, SearchStats) {
    if let AccessPath::Postings { terms, mode } = &plan.path {
        return execute_postings(group, request, terms, *mode, cutoff);
    }
    // A relevance sort on any other path (no inverted index, or the
    // contains term sits under an OR) needs explicit scoring: the sort key
    // is not a record attribute.
    if request.sort == SortKey::Relevance {
        let terms = relevance_terms(&request.predicate);
        let scorer = RelevanceScorer::of_group(group, &terms);
        return execute_relevance_scan(group, request, &terms, scorer, cutoff);
    }
    let kind = AccessPathKind::from(&plan.path);
    let pred = &request.predicate;
    let whole = Residual::whole(pred);
    let scan_all = || {
        let records = group
            .records()
            .map(|r| Candidate { record: Some(r), ..Candidate::entry(r.file, None) });
        let (hits, stats) = stream_topk(records, group, request, whole, None, false, cutoff);
        // A full scan reads every record it scans.
        (hits, SearchStats { records_resolved: stats.candidates_scanned, ..stats })
    };

    // Each arm derives its residual from what its own candidate source
    // proves; the index-less fallbacks scan everything and prove nothing.
    let (hits, stats) = match plan.path {
        // An ordered plan reaching the classic executor means the covering
        // tree vanished between planning and execution; scan everything.
        AccessPath::FullScan | AccessPath::OrderedScan { .. } => scan_all(),
        AccessPath::Postings { .. } => unreachable!("dispatched to execute_postings above"),
        AccessPath::HashEq { attr, value } => match group.posting_list(&attr, &value) {
            Some(list) => {
                let residual = Residual::of(pred, Proof::Eq { attr: &attr, value: &value });
                let entries = list.iter().map(|&file| Candidate::entry(file, Some(&value)));
                stream_topk(entries, group, request, residual, Some(&attr), false, cutoff)
            }
            None => scan_all(),
        },
        AccessPath::BTreeRange { attr, lo, hi } => {
            let residual = Residual::of(pred, Proof::Range { attr: &attr, lo: &lo, hi: &hi });
            // A range over a multi-valued attribute may yield a file once
            // per in-range value; builtin attrs are single-valued.
            let dedup = !attr.is_inode_attr();
            match group.entries(&attr, lo, hi, false) {
                Some(entries) => {
                    let entries = entries.map(|(value, file)| Candidate::entry(file, Some(value)));
                    stream_topk(entries, group, request, residual, Some(&attr), dedup, cutoff)
                }
                None => scan_all(),
            }
        }
        AccessPath::KdBox { attrs, lo, hi } => match group.candidates_kd(&attrs, &lo, &hi) {
            Some(points) => {
                let residual = Residual::of(pred, Proof::Box { attrs: &attrs, lo: &lo, hi: &hi });
                let points = points
                    .into_iter()
                    .map(|p| Candidate { proved: p.interior, ..Candidate::entry(p.id, None) });
                stream_topk(points, group, request, residual, None, false, cutoff)
            }
            None => scan_all(),
        },
    };

    let stats = SearchStats { acgs_consulted: 1, access_paths: vec![(group.id(), kind)], ..stats };
    (hits, stats)
}

/// Streams candidates through the local top-k floor, the residual
/// predicate, the cursor, the optional node-global bound and the bounded
/// top-k accumulator, resolving a candidate's record only when something
/// reads it (see [`Fetch`]). `dedup` guards the one access path (range
/// over a multi-valued attribute) that can yield a file more than once.
/// The stats carry the candidates scanned, records resolved and retained
/// peak.
fn stream_topk<'a>(
    candidates: impl Iterator<Item = Candidate<'a>>,
    group: &'a AcgEpoch,
    request: &'a SearchRequest,
    residual: Residual<'a>,
    walked: Option<&AttrName>,
    dedup: bool,
    cutoff: Option<&GlobalCutoff>,
) -> (Vec<Hit>, SearchStats) {
    let mut fetch = Fetch::new(group, request, residual, walked);
    let mut topk = TopK::new(&request.sort, request.limit);
    let mut seen: HashSet<FileId> = HashSet::new();
    let mut scanned = 0usize;
    for mut candidate in candidates {
        if dedup && !seen.insert(candidate.file) {
            continue;
        }
        scanned += 1;
        let key = fetch.key(&mut candidate);
        // Floor first: a candidate that does not beat the worst of a full
        // accumulator would be dropped by `offer` whether or not it matches
        // — and by the shared bound too, outranked as it is by `limit` hits
        // this scan already offered it. Most of a long scan leaves here on
        // one key compare, without the predicate or the bound's lock.
        if let Some((worst_key, worst_file)) = topk.floor() {
            let rank = request.sort.cmp_keys(key.as_ref(), candidate.file, worst_key, worst_file);
            if rank != Ordering::Less {
                continue;
            }
        }
        if !fetch.admits(&mut candidate) {
            continue;
        }
        offer_hit(&mut topk, group, request, cutoff, key, candidate.file, candidate.record);
    }
    let stats = SearchStats {
        candidates_scanned: scanned,
        records_resolved: fetch.resolved,
        retained_peak: topk.peak_retained(),
        ..SearchStats::default()
    };
    (topk.into_sorted(), stats)
}

/// The tail every candidate loop shares once a candidate matched: the
/// cursor, the optional node-global bound, then the bounded accumulator —
/// the hit is only built if it will be retained. `record` is `None` only
/// when the projection reads nothing of it.
fn offer_hit(
    topk: &mut TopK,
    group: &AcgEpoch,
    request: &SearchRequest,
    cutoff: Option<&GlobalCutoff>,
    key: Option<Value>,
    file: FileId,
    record: Option<&FileRecord>,
) {
    let key = key.as_ref();
    if request.cursor.as_ref().is_some_and(|cursor| !cursor.admits(&request.sort, key, file))
        || cutoff.is_some_and(|cutoff| !cutoff.try_admit(key, file))
    {
        return;
    }
    topk.offer(key, file, || Hit {
        file,
        acg: Some(group.id()),
        attrs: record.map_or_else(Vec::new, |r| request.projection.project(r)),
        sort_key: key.cloned(),
    });
}

/// The unique `contains` terms mentioned anywhere in the predicate, in
/// order of first appearance — the term set a relevance sort scores with.
/// Every executor (postings, fallback scan, reference) scores the same
/// set, so ranked results agree across access paths.
pub(crate) fn relevance_terms(pred: &Predicate) -> Vec<String> {
    fn walk(p: &Predicate, out: &mut Vec<String>) {
        match p {
            Predicate::Contains { terms, .. } => {
                for term in terms {
                    if !out.contains(term) {
                        out.push(term.clone());
                    }
                }
            }
            Predicate::And(ps) | Predicate::Or(ps) => ps.iter().for_each(|p| walk(p, out)),
            Predicate::Not(p) => walk(p, out),
            Predicate::Compare { .. } | Predicate::Keyword(_) | Predicate::True => {}
        }
    }
    let mut out = Vec::new();
    walk(pred, &mut out);
    out
}

/// BM25 scoring against one group's corpus statistics — either straight
/// off the group's inverted index, or computed brute-force from the
/// records (the fallback for index-less groups and the independent oracle
/// of the reference executor). Both sides compute identical scores for
/// the same corpus: same `N`, `df`, document lengths and operation order.
enum RelevanceScorer<'a> {
    Indexed(Bm25Scorer<'a>),
    Brute { doc_count: usize, avg_doc_len: f64, df: HashMap<String, usize> },
}

impl<'a> RelevanceScorer<'a> {
    /// The cheapest accurate scorer for `group`: its inverted index when
    /// one exists, otherwise a brute statistics pass over the records.
    fn of_group(group: &'a AcgEpoch, terms: &[String]) -> Self {
        match group.inverted() {
            Some(inv) => RelevanceScorer::Indexed(inv.scorer(terms)),
            None => Self::brute(group.records(), terms),
        }
    }

    /// Corpus statistics computed from scratch (pass one of the two-pass
    /// fallback): documents-with-text count, average token length and the
    /// query terms' document frequencies.
    fn brute<I>(records: I, terms: &[String]) -> Self
    where
        I: Iterator<Item = &'a FileRecord>,
    {
        let mut doc_count = 0usize;
        let mut total_tokens = 0u64;
        let mut df: HashMap<String, usize> = terms.iter().map(|t| (t.clone(), 0)).collect();
        for record in records {
            let tokens = record_tokens(record);
            if tokens.is_empty() {
                continue;
            }
            doc_count += 1;
            total_tokens += tokens.len() as u64;
            for term in terms {
                if tokens.iter().any(|t| t == term) {
                    *df.get_mut(term).expect("seeded above") += 1;
                }
            }
        }
        let avg_doc_len = if doc_count == 0 { 0.0 } else { total_tokens as f64 / doc_count as f64 };
        RelevanceScorer::Brute { doc_count, avg_doc_len, df }
    }

    /// The record's BM25 score over `terms` (the brute arm matching the
    /// indexed [`Bm25Scorer`] exactly).
    fn score(&self, record: &FileRecord, terms: &[String]) -> f64 {
        match self {
            RelevanceScorer::Indexed(scorer) => scorer.score(record.file),
            RelevanceScorer::Brute { doc_count, avg_doc_len, df } => {
                let tokens = record_tokens(record);
                let doc_len = tokens.len() as u32;
                if doc_len == 0 {
                    return 0.0;
                }
                let mut score = 0.0;
                for term in terms {
                    let tf = tokens.iter().filter(|t| *t == term).count() as u32;
                    if tf == 0 {
                        continue;
                    }
                    let idf = bm25_idf(*doc_count, df.get(term).copied().unwrap_or(0));
                    score += bm25_score(idf, tf, doc_len, *avg_doc_len);
                }
                score
            }
        }
    }
}

/// The relevance fallback for non-postings plans: a full scan that scores
/// every matching record against the group's corpus statistics. Correct on
/// any predicate (plans are candidate supersets; the full scan is the
/// widest one) — just never as fast as the postings merge. Under a
/// [`RelevanceScorer::brute`] it is also the reference executor's ranking
/// oracle, with no inverted index involved.
fn execute_relevance_scan(
    group: &AcgEpoch,
    request: &SearchRequest,
    terms: &[String],
    scorer: RelevanceScorer<'_>,
    cutoff: Option<&GlobalCutoff>,
) -> (Vec<Hit>, SearchStats) {
    let mut topk = TopK::new(&request.sort, request.limit);
    let mut scanned = 0usize;
    for record in group.records() {
        scanned += 1;
        if !matches_record(record, &request.predicate) {
            continue;
        }
        let key = Some(Value::F64(scorer.score(record, terms)));
        offer_hit(&mut topk, group, request, cutoff, key, record.file, Some(record));
    }
    let stats = SearchStats {
        acgs_consulted: 1,
        candidates_scanned: scanned,
        records_resolved: scanned,
        retained_peak: topk.peak_retained(),
        access_paths: vec![(group.id(), AccessPathKind::FullScan)],
        ..SearchStats::default()
    };
    (topk.into_sorted(), stats)
}

/// One query term's read state in a postings merge.
struct TermCursor<'a> {
    term: &'a str,
    cursor: PostingsCursor<'a>,
    idf: f64,
    /// The term's index among the request's scoring terms, when it is one.
    slot: Option<usize>,
}

/// Executes an [`AccessPath::Postings`] plan: a document-at-a-time merge
/// of the inverted index's postings lists for `terms` — conjunctive
/// (`All`/`Phrase`) or disjunctive (`Any`) — streaming survivors through
/// the residual predicate, the cursor, the optional node-global bound and
/// the bounded top-k accumulator.
///
/// **Per-candidate kernel.** A merged document is scored from the cursors
/// standing on it: one [`Bm25Scorer`] per call holds every scoring term's
/// postings and idf, the merge hands it the tf under each aligned cursor,
/// and only scoring terms outside the merge are binary-searched. A ranked
/// candidate whose `(score, file)` does not beat [`TopK::floor`] is dropped
/// there, before its record is even fetched.
///
/// **Residual rule.** Past the floor, a candidate must hold each phrase of
/// merge terms on the aligned cursors' positions ([`phrase_at`]), then the
/// [`Residual`] under [`Proof::Merge`]. Its record is resolved only when
/// the residual, the projection or an attribute sort key reads it.
///
/// Under a relevance sort with a limit, the merge prunes with WAND-style
/// max-score bounds: once the top-k heap is full, its worst retained score
/// is a threshold θ, and
///
/// * conjunctive merges sum the per-term **block** bounds at each aligned
///   candidate — when the sum cannot beat θ, every document up to the
///   earliest block boundary is provably outranked and the lead cursor
///   jumps past it ([`SearchStats::wand_blocks_skipped`]),
/// * disjunctive merges use the classic pivot rule over per-term bounds —
///   cursors before the pivot seek forward without examining the postings
///   they jump ([`SearchStats::wand_docs_pruned`]).
///
/// Pruning never changes results: a pruned document's best possible score
/// ranks strictly below `limit` already-retained hits.
///
/// Kept out of line: [`execute_classic`] is its only caller, and inlined
/// there this body shares a frame and a register allocation with the
/// attribute scans' candidate loops (`attr_topk`'s hash-eq template ran
/// 15 % slower with it inlined).
#[inline(never)]
fn execute_postings(
    group: &AcgEpoch,
    request: &SearchRequest,
    terms: &[String],
    mode: ContainsMode,
    cutoff: Option<&GlobalCutoff>,
) -> (Vec<Hit>, SearchStats) {
    let mut stats = SearchStats {
        acgs_consulted: 1,
        access_paths: vec![(group.id(), AccessPathKind::Postings)],
        ..SearchStats::default()
    };
    if request.limit == Some(0) {
        return (Vec::new(), stats);
    }
    let Some(inv) = group.inverted() else {
        // The index vanished between planning and execution; degrade to
        // the full-scan paths, which are always correct.
        return execute_classic(group, request, Plan { path: AccessPath::FullScan }, cutoff);
    };

    let relevance = request.sort == SortKey::Relevance;
    let scoring_terms = relevance_terms(&request.predicate);
    let scorer = inv.scorer(&scoring_terms);

    // Unique merge terms; a conjunctive merge with any unknown term has an
    // empty intersection, a disjunctive one just drops it.
    let mut unique: Vec<&String> = Vec::with_capacity(terms.len());
    for term in terms {
        if !unique.contains(&term) {
            unique.push(term);
        }
    }
    let conjunctive = mode != ContainsMode::Any;
    let mut cursors: Vec<TermCursor<'_>> = Vec::with_capacity(unique.len());
    for term in &unique {
        match inv.term(term) {
            Some(postings) => {
                let idf = inv.idf(term);
                cursors.push(TermCursor {
                    term,
                    cursor: PostingsCursor::new(postings),
                    idf,
                    slot: scoring_terms.iter().position(|t| t == *term),
                });
            }
            None if conjunctive => return (Vec::new(), stats),
            None => {}
        }
    }
    if cursors.is_empty() {
        return (Vec::new(), stats);
    }
    // Conjunctive merges lead with the rarest term: fewest alignment
    // candidates, and the cursor that jumps furthest on a galloping seek.
    if conjunctive {
        cursors.sort_by_key(|t| t.cursor.remaining());
    }

    // The WAND bounds only cover the merged terms. If the request scores
    // extra terms (a second contains under an OR, say), a document's true
    // score can exceed the merge's bound and pruning would be unsound —
    // so the bound is only armed when the two (duplicate-free) term sets
    // coincide.
    let bounds_sound = relevance
        && request.limit.is_some()
        && unique.len() == scoring_terms.len()
        && unique.iter().all(|t| scoring_terms.contains(t));

    let proof = Proof::Merge { terms, conjunctive };
    let mut fetch = Fetch::new(group, request, Residual::of(&request.predicate, proof), None);
    // The phrases the proof covers, each as its terms' cursor indices.
    let mut phrases: Vec<Vec<usize>> = Vec::new();
    request.predicate.all_conjuncts(&mut |conjunct| {
        if let Predicate::Contains { terms, mode: ContainsMode::Phrase } = conjunct {
            if proof.proves(conjunct) {
                let at = |t| cursors.iter().position(|c| c.term == t).expect("a merge term");
                phrases.push(terms.iter().map(at).collect());
            }
        }
        true
    });
    let mut starts = Vec::new();

    let mut topk = TopK::new(&request.sort, request.limit);

    // θ: the score a candidate must (weakly) beat — the worst retained
    // top-k score once the heap is full. Bounds below θ are prunable;
    // bounds equal to θ are not (an equal score can still win its file-id
    // tie-break).
    let theta = |topk: &TopK| {
        topk.floor().filter(|_| bounds_sound).and_then(|(key, _)| key.and_then(Value::as_f64))
    };

    // Per scoring term, what the merge knows of its tf in the document being
    // evaluated: `Some(0)` until a cursor standing on the document reports
    // it, `None` for a term outside the merge (the scorer looks it up).
    let fed: Vec<Option<u32>> = (0..scoring_terms.len())
        .map(|slot| cursors.iter().any(|t| t.slot == Some(slot)).then_some(0))
        .collect();
    let mut tfs = fed.clone();

    // Evaluates one merged document: score off the cursors (or attribute
    // key), local floor, phrases, residual predicate, cursor, node bound,
    // offer. Every list holding the document has its cursor on it —
    // aligned in a conjunctive merge, and a disjunctive one only jumps
    // postings that can never be the pivot.
    let mut eval = |file: FileId, cursors: &[TermCursor<'_>], topk: &mut TopK| {
        stats.candidates_scanned += 1;
        let mut candidate = Candidate::entry(file, None);
        let key = if relevance {
            tfs.copy_from_slice(&fed);
            for tc in cursors {
                if let (Some(slot), Some(p)) = (tc.slot, tc.cursor.current()) {
                    if p.file == file {
                        tfs[slot] = Some(p.tf);
                    }
                }
            }
            Some(Value::F64(scorer.score_with(file, |i| tfs[i])))
        } else {
            fetch.key(&mut candidate)
        };
        if let Some((worst_key, worst_file)) = topk.floor() {
            if request.sort.cmp_keys(key.as_ref(), file, worst_key, worst_file) != Ordering::Less {
                return;
            }
        }
        let mut phrase_cursors = phrases.iter().map(|at| at.iter().map(|&i| &cursors[i].cursor));
        if phrase_cursors.all(|phrase| phrase_at(phrase, &mut starts))
            && fetch.admits(&mut candidate)
        {
            offer_hit(topk, group, request, cutoff, key, file, candidate.record);
        }
    };

    if conjunctive {
        // Align every cursor on one candidate document (galloping): the
        // first cursor to seek past the candidate names the next one.
        'merge: while let Some(mut candidate) = cursors[0].cursor.current().map(|p| p.file) {
            loop {
                let mut seeks =
                    cursors.iter_mut().map(|tc| tc.cursor.seek(candidate).map(|p| p.file));
                match seeks.find(|&file| file != Some(candidate)) {
                    Some(None) => break 'merge,
                    Some(Some(ahead)) => candidate = ahead,
                    None => break,
                }
            }
            // Block-max bound: within the current blocks (valid up to the
            // earliest block boundary), no document can score above the
            // summed per-block ceilings.
            if let Some(theta) = theta(&topk) {
                let bound: f64 =
                    cursors.iter().map(|t| bm25_block_bound(t.idf, t.cursor.block_max_tf())).sum();
                if bound < theta {
                    let boundary = cursors
                        .iter()
                        .filter_map(|t| t.cursor.block_last_file())
                        .min()
                        .expect("aligned cursors are not exhausted");
                    if boundary == FileId::MAX {
                        break;
                    }
                    let lead = &mut cursors[0].cursor;
                    let before = lead.position();
                    lead.seek(FileId::new(boundary.raw() + 1));
                    let after = lead.position();
                    stats.wand_docs_pruned += after - before;
                    stats.wand_blocks_skipped += after / BLOCK - before / BLOCK;
                    continue;
                }
            }
            eval(candidate, &cursors, &mut topk);
            for tc in cursors.iter_mut() {
                tc.cursor.advance();
            }
        }
    } else {
        loop {
            cursors.retain(|t| !t.cursor.is_exhausted());
            if cursors.is_empty() {
                break;
            }
            cursors.sort_by_key(|t| t.cursor.current().expect("retained above").file);
            let pivot = match theta(&topk) {
                // WAND pivot: the first document whose prefix of term
                // bounds could reach θ. Everything before it is provably
                // outranked.
                Some(theta) => {
                    let mut acc = 0.0;
                    let Some(pivot) = cursors.iter().position(|tc| {
                        acc += bm25_term_bound(tc.idf);
                        acc >= theta
                    }) else {
                        // Even all remaining terms together cannot reach
                        // θ: every unexamined posting is outranked.
                        stats.wand_docs_pruned +=
                            cursors.iter().map(|t| t.cursor.remaining()).sum::<usize>();
                        break;
                    };
                    pivot
                }
                // Plain DAAT-OR: the smallest current document.
                None => 0,
            };
            let pivot_doc = cursors[pivot].cursor.current().expect("retained above").file;
            if cursors[0].cursor.current().expect("retained above").file == pivot_doc {
                // Evaluate it, advancing every cursor sitting on it.
                eval(pivot_doc, &cursors, &mut topk);
                for tc in cursors.iter_mut() {
                    if tc.cursor.current().is_some_and(|p| p.file == pivot_doc) {
                        tc.cursor.advance();
                    }
                }
            } else {
                let lead = &mut cursors[0].cursor;
                let before = lead.position();
                lead.seek(pivot_doc);
                let after = lead.position();
                stats.wand_docs_pruned += after - before;
                stats.wand_blocks_skipped += after / BLOCK - before / BLOCK;
            }
        }
    }

    stats.records_resolved = fetch.resolved;
    stats.retained_peak = topk.peak_retained();
    (topk.into_sorted(), stats)
}

/// A resumable, lazily-pulled per-ACG ordered hit stream: wraps the
/// group's B+-tree entry walk over the sort attribute (in result order)
/// and yields **hits** — each `next()` advances the walk just far enough
/// for the cursor and residual predicate to admit one entry. The entry
/// carries the hit's file and sort key; its record is resolved (through
/// the record store's leaf cursor) only when a conjunct is left unproved
/// or the projection reads attributes. A node search's k-way merge
/// ([`crate::session`]) holds one of these per ordered-planned ACG and
/// pulls them on demand, so a stream whose candidates rank poorly is
/// barely advanced at all.
pub(crate) struct OrderedHitStream<'a> {
    entries: Box<dyn Iterator<Item = (&'a Value, FileId)> + 'a>,
    fetch: Fetch<'a>,
    /// Where the walk resumes: the request's own cursor, or a session's.
    resume: Option<&'a Cursor>,
    scanned: usize,
    exhausted: bool,
}

impl<'a> OrderedHitStream<'a> {
    /// Opens `group`'s walk for an [`AccessPath::OrderedScan`] over `attr`
    /// within the plan's `(lo, hi)`, resumed strictly after `resume` — its
    /// own argument, not `request.cursor`, so the streams of a session
    /// share one request whatever each resumes from. `None` when no
    /// B+-tree covers `attr`.
    pub(crate) fn open(
        group: &'a AcgEpoch,
        request: &'a SearchRequest,
        attr: &AttrName,
        lo: &Bound<Value>,
        hi: &Bound<Value>,
        descending: bool,
        resume: Option<&'a Cursor>,
    ) -> Option<Self> {
        let residual = Residual::of(&request.predicate, Proof::Range { attr, lo, hi });
        let (lo, hi) = cursor_scan_bounds(resume, lo.clone(), hi.clone(), descending);
        Some(OrderedHitStream {
            entries: group.entries(attr, lo, hi, descending)?,
            fetch: Fetch::new(group, request, residual, Some(attr)),
            resume,
            scanned: 0,
            exhausted: false,
        })
    }

    /// Candidates pulled off the underlying walk so far.
    pub(crate) fn scanned(&self) -> usize {
        self.scanned
    }

    /// Records the walk resolved so far.
    pub(crate) fn resolved(&self) -> usize {
        self.fetch.resolved
    }

    /// Whether the underlying walk ran dry (no cutoff saved anything).
    pub(crate) fn exhausted(&self) -> bool {
        self.exhausted
    }
}

impl Iterator for OrderedHitStream<'_> {
    type Item = Hit;

    fn next(&mut self) -> Option<Hit> {
        let request = self.fetch.request;
        for (key, file) in self.entries.by_ref() {
            self.scanned += 1;
            // Cursor before predicate: the cursor-equal boundary candidate
            // a resumed walk re-yields (scan bounds keep equal keys for
            // the file-id tie-break) is rejected on the cheap key compare
            // without resolving its record.
            if self.resume.is_some_and(|cursor| !cursor.admits(&request.sort, Some(key), file)) {
                continue;
            }
            let mut candidate = Candidate::entry(file, Some(key));
            if !self.fetch.admits(&mut candidate) {
                continue;
            }
            return Some(Hit {
                file,
                acg: Some(self.fetch.group.id()),
                attrs: candidate.record.map_or_else(Vec::new, |r| request.projection.project(r)),
                sort_key: Some(key.clone()),
            });
        }
        self.exhausted = true;
        None
    }
}

/// One group's non-ordered share of a node-level search: an index into the
/// groups the search was opened over plus the classic plan to execute
/// there (see [`execute_classic`]).
pub struct ClassicTask {
    /// Index of the target group in the `groups` slice.
    pub group: usize,
    /// The classic access-path plan chosen for that group.
    pub plan: Plan,
}

/// What a classic-task executor returns: one `(hits, stats)` pair per
/// [`ClassicTask`], in task order (see
/// [`NodeSearchSession::open`](crate::NodeSearchSession::open)).
pub type ClassicResults = Vec<(Vec<Hit>, SearchStats)>;

/// Executes one search against every (already committed) group of an
/// Index Node under a **node-global k cutoff**, the classic tasks run
/// inline on the calling thread — the sequential reference the pooled
/// Index Node must match byte-for-byte, and the single-threaded entry
/// point for callers without a worker pool.
///
/// This is [`NodeSearchSession::open`](crate::NodeSearchSession::open)
/// with an unbounded first page, which always exhausts the search: ordered
/// streams and the classic groups' sorted lists are pulled through one
/// k-way merge that stops after `limit` total admitted hits across the
/// whole node, instead of computing `limit` hits per ACG first. The
/// records the merge never pulled are witnessed by
/// [`SearchStats::merge_skipped`].
pub fn execute_node_request_sequential(
    groups: &[&AcgEpoch],
    request: &SearchRequest,
) -> (Vec<Hit>, SearchStats) {
    let (page, _) = open_page(groups, request, usize::MAX, |tasks, cutoff| {
        tasks
            .into_iter()
            .map(|t| execute_classic(groups[t.group], request, t.plan, cutoff.map(|c| &**c)))
            .collect()
    });
    (page.hits, page.stats)
}

/// An ordered scan resuming from a cursor never needs entries before the
/// cursor's sort key: ascending scans raise `lo`, descending scans lower
/// `hi`. The cursor key itself stays included — equal-key records are
/// admitted or rejected by the file-id tie-break, not the scan bounds.
fn cursor_scan_bounds(
    cursor: Option<&Cursor>,
    lo: Bound<Value>,
    hi: Bound<Value>,
    descending: bool,
) -> (Bound<Value>, Bound<Value>) {
    let Some(key) = cursor.and_then(|c| c.sort_key()) else { return (lo, hi) };
    let tighter = |bound: &Bound<Value>, beyond: Ordering| match bound {
        Bound::Included(v) | Bound::Excluded(v) => v.cmp(key) != beyond,
        Bound::Unbounded => false,
    };
    match descending {
        true if !tighter(&hi, Ordering::Greater) => (lo, Bound::Included(key.clone())),
        false if !tighter(&lo, Ordering::Less) => (Bound::Included(key.clone()), hi),
        _ => (lo, hi),
    }
}

/// The materializing execution path (how every search ran before the
/// streaming pipeline): fetch the full candidate-id superset from the
/// access path, re-resolve each id through the record store, post-filter,
/// and push everything through the heap. Kept as the equivalence oracle
/// the streaming pipeline is tested against.
pub fn execute_request_reference(
    group: &AcgEpoch,
    request: &SearchRequest,
) -> (Vec<Hit>, SearchStats) {
    // Relevance ranking runs as a fully index-independent oracle: the
    // corpus statistics come from a brute pass over the records, every
    // record is scanned and scored, and the heap selects. The streaming
    // postings merge must reproduce these hits byte for byte.
    if request.sort == SortKey::Relevance {
        let terms = relevance_terms(&request.predicate);
        let scorer = RelevanceScorer::brute(group.records(), &terms);
        return execute_relevance_scan(group, request, &terms, scorer, None);
    }
    let plan = plan(group, &request.predicate);
    let kind = AccessPathKind::from(&plan.path);
    let mut topk = TopK::new(&request.sort, request.limit);
    let mut scanned = 0usize;

    let consider = |record: &FileRecord, topk: &mut TopK| {
        if !matches_record(record, &request.predicate) {
            return;
        }
        let key = request.sort.key_of(record);
        if let Some(cursor) = &request.cursor {
            if !cursor.admits(&request.sort, key.as_ref(), record.file) {
                return;
            }
        }
        topk.push(Hit::of_record(record, Some(group.id()), &request.sort, &request.projection));
    };

    match plan.path {
        AccessPath::FullScan => {
            for record in group.records() {
                scanned += 1;
                consider(record, &mut topk);
            }
        }
        path => {
            let candidates: Vec<FileId> = match path {
                AccessPath::HashEq { attr, value } => group.lookup_eq(&attr, &value),
                AccessPath::BTreeRange { attr, lo, hi } => group.lookup_range(&attr, lo, hi),
                // Every record, like `FullScan`: no K-D tree involvement in
                // the oracle, so a box that misses a matching record shows.
                AccessPath::KdBox { .. } => group.scan(|_| true),
                // The contains superset via brute record checks — no
                // inverted-index involvement in the oracle.
                AccessPath::Postings { terms, mode } => group.scan(|r| match mode {
                    ContainsMode::All => record_contains_all(r, &terms),
                    ContainsMode::Any => record_contains_any(r, &terms),
                    ContainsMode::Phrase => record_contains_phrase(r, &terms),
                }),
                AccessPath::OrderedScan { .. } | AccessPath::FullScan => {
                    unreachable!("not emitted by the classic planner")
                }
            };
            let mut seen: HashSet<FileId> = HashSet::with_capacity(candidates.len());
            for file in candidates {
                if !seen.insert(file) {
                    continue;
                }
                let Some(record) = group.record(file) else { continue };
                scanned += 1;
                consider(record, &mut topk);
            }
        }
    }

    let stats = SearchStats {
        acgs_consulted: 1,
        candidates_scanned: scanned,
        retained_peak: topk.peak_retained(),
        access_paths: vec![(group.id(), kind)],
        ..SearchStats::default()
    };
    (topk.into_sorted(), stats)
}

#[cfg(test)]
mod postings_props;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Query;
    use propeller_index::{AcgIndexGroup, GroupConfig, IndexOp};
    use propeller_types::{AcgId, InodeAttrs, Timestamp};

    fn now() -> Timestamp {
        Timestamp::from_secs(100 * 86_400)
    }

    fn seeded_group() -> AcgIndexGroup {
        let mut g = AcgIndexGroup::new(AcgId::new(1), GroupConfig::default());
        for i in 0..500u64 {
            let rec = FileRecord::new(
                FileId::new(i),
                InodeAttrs::builder()
                    .size(i * 1024 * 1024) // i MiB
                    .mtime(now() - propeller_types::Duration::from_secs(i * 3600)) // i hours old
                    .uid((i % 4) as u32)
                    .build(),
            )
            .with_keyword(if i % 10 == 0 { "firefox" } else { "other" });
            g.enqueue(IndexOp::Upsert(rec), now()).unwrap();
        }
        g.commit(now()).unwrap();
        g
    }

    /// The whole matching id set, sorted by file id.
    fn ids(g: &AcgIndexGroup, pred: &Predicate) -> Vec<FileId> {
        execute_request(g, &SearchRequest::new(pred.clone())).0.iter().map(|h| h.file).collect()
    }

    fn run(g: &AcgIndexGroup, text: &str) -> Vec<FileId> {
        ids(g, &Query::parse(text, now()).unwrap().predicate)
    }

    fn brute(g: &AcgIndexGroup, text: &str) -> Vec<FileId> {
        let q = Query::parse(text, now()).unwrap();
        g.scan(|r| matches_record(r, &q.predicate))
    }

    #[test]
    fn size_range_matches_brute_force() {
        let g = seeded_group();
        for q in ["size>16m", "size>=100m", "size<1m", "size>100m & size<200m"] {
            assert_eq!(run(&g, q), brute(&g, q), "query {q}");
        }
        assert_eq!(run(&g, "size>16m").len(), 500 - 17);
    }

    #[test]
    fn paper_query_1_size_and_mtime() {
        let g = seeded_group();
        let q = "size>100m & mtime<24h";
        let got = run(&g, q);
        assert_eq!(got, brute(&g, q));
        // i > 100 (size) and i < 24 (age in hours): empty intersection.
        assert!(got.is_empty());
        let q2 = "size>10m & mtime<24h";
        let got2 = run(&g, q2);
        assert_eq!(got2, brute(&g, q2));
        // 10 < i < 24.
        assert_eq!(got2.len(), 13);
    }

    #[test]
    fn paper_query_2_keyword_and_mtime() {
        let g = seeded_group();
        let q = "keyword:firefox & mtime<1week";
        let got = run(&g, q);
        assert_eq!(got, brute(&g, q));
        // Multiples of 10 younger than 168 hours: 0,10,...,160 => 17.
        assert_eq!(got.len(), 17);
    }

    #[test]
    fn disjunction_and_negation() {
        let g = seeded_group();
        for q in [
            "size<1m | size>490m",
            "!(keyword:firefox)",
            "keyword:firefox | keyword:other",
            "!(size>10m) & uid=1",
        ] {
            assert_eq!(run(&g, q), brute(&g, q), "query {q}");
        }
    }

    #[test]
    fn match_all() {
        let g = seeded_group();
        assert_eq!(run(&g, "*").len(), 500);
    }

    #[test]
    fn results_are_sorted_and_unique() {
        let g = seeded_group();
        let r = run(&g, "size>=0");
        let mut sorted = r.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(r, sorted);
    }

    #[test]
    fn empty_group_returns_empty() {
        let g = AcgIndexGroup::new(AcgId::new(2), GroupConfig::default());
        assert!(run(&g, "size>0").is_empty());
        assert!(run(&g, "*").is_empty());
    }

    #[test]
    fn custom_attr_queries() {
        let mut g = AcgIndexGroup::new(AcgId::new(3), GroupConfig::default());
        for i in 0..20u64 {
            let rec = FileRecord::new(FileId::new(i), InodeAttrs::default())
                .with_custom("energy", Value::F64(-(i as f64)));
            g.enqueue(IndexOp::Upsert(rec), now()).unwrap();
        }
        g.commit(now()).unwrap();
        let q = Query::parse("energy<-15", now()).unwrap();
        let got = ids(&g, &q.predicate);
        assert_eq!(got.len(), 4); // -16..-19
    }

    /// A group whose only K-D index is `kd` (the default `(size, mtime)`
    /// one would be planned first), holding files `0..200` with size
    /// `5·i`, age `i` hours, owner `user{i:03}`, and `prio` absent, single
    /// or doubled by `i % 3`.
    fn kd_group(kd: Vec<AttrName>) -> AcgIndexGroup {
        let mut g = AcgIndexGroup::new(AcgId::new(4), GroupConfig::default());
        g.drop_index("inode_kd").unwrap();
        g.create_index(propeller_index::IndexSpec::kd("custom_kd", kd)).unwrap();
        for i in 0..200u64 {
            let attrs = InodeAttrs::builder()
                .size(i * 5)
                .mtime(now() - propeller_types::Duration::from_secs(i * 3600))
                .build();
            let mut rec = FileRecord::new(FileId::new(i), attrs)
                .with_custom("owner", Value::from(format!("user{i:03}").as_str()));
            for p in 0..i % 3 {
                rec = rec.with_custom("prio", Value::U64(p));
            }
            g.enqueue(IndexOp::Upsert(rec), now()).unwrap();
        }
        g.commit(now()).unwrap();
        g
    }

    fn assert_complete(g: &AcgIndexGroup, text: &str, expected: usize) {
        let want = brute(g, text);
        assert_eq!(want.len(), expected, "{text}");
        assert_eq!(run(g, text), want, "{text}: executor");
        let req = SearchRequest::new(Query::parse(text, now()).unwrap().predicate);
        let oracle: Vec<FileId> =
            execute_request_reference(g, &req).0.iter().map(|h| h.file).collect();
        assert_eq!(oracle, want, "{text}: oracle");
    }

    #[test]
    fn kd_set_with_an_unconstrained_custom_attr_loses_no_hits() {
        // Files without `prio`, or with two, have no point in a tree over
        // (size, mtime, prio), so a box over it would drop them.
        let g = kd_group(vec![AttrName::Size, AttrName::Mtime, AttrName::custom("prio")]);
        assert_complete(&g, "size>100 & size<500 & mtime<30day", 79);
    }

    #[test]
    fn kd_set_with_a_string_bound_loses_no_hits() {
        // `owner` projects onto its axis through a hash, so no box over
        // (size, owner) can bound `owner > "user050"`.
        let g = kd_group(vec![AttrName::Size, AttrName::custom("owner")]);
        assert_complete(&g, "size>100 & owner>user050", 149);
    }

    #[test]
    fn request_topk_matches_full_execution_prefix() {
        use crate::request::{SearchRequest, SortKey};
        let g = seeded_group();
        let q = Query::parse("size>16m", now()).unwrap();
        let full = ids(&g, &q.predicate);
        let req = SearchRequest::new(q.predicate.clone()).with_limit(10);
        let (hits, stats) = execute_request(&g, &req);
        let ids: Vec<FileId> = hits.iter().map(|h| h.file).collect();
        assert_eq!(ids, full[..10].to_vec(), "top-10 by file id = sorted prefix");
        assert!(stats.retained_peak <= 10, "bounded heap: {}", stats.retained_peak);
        assert_eq!(stats.acgs_consulted, 1);

        // Descending size: the k largest files.
        let req = SearchRequest::new(q.predicate.clone())
            .with_limit(5)
            .sorted_by(SortKey::Descending(propeller_types::AttrName::Size));
        let (hits, stats) = execute_request(&g, &req);
        let sizes: Vec<u64> =
            hits.iter().map(|h| h.sort_key.clone().unwrap().as_u64().unwrap()).collect();
        assert_eq!(sizes, vec![499 << 20, 498 << 20, 497 << 20, 496 << 20, 495 << 20]);
        assert!(stats.retained_peak <= 5);
    }

    #[test]
    fn request_cursor_pages_cover_exactly_the_full_result() {
        use crate::request::SearchRequest;
        let g = seeded_group();
        let q = Query::parse("size>16m", now()).unwrap();
        let full = ids(&g, &q.predicate);
        let mut pages = Vec::new();
        let mut cursor = None;
        loop {
            let mut req = SearchRequest::new(q.predicate.clone()).with_limit(64);
            if let Some(c) = cursor.take() {
                req = req.after(c);
            }
            let (hits, stats) = execute_request(&g, &req);
            assert!(stats.retained_peak <= 64);
            if hits.is_empty() {
                break;
            }
            pages.extend(hits.iter().map(|h| h.file));
            match crate::request::next_cursor(&hits, Some(64)) {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        assert_eq!(pages, full);
    }

    #[test]
    fn request_projection_round_trips_attributes() {
        use crate::request::{Projection, SearchRequest};
        let g = seeded_group();
        let q = Query::parse("size>=499m", now()).unwrap();
        let req = SearchRequest::new(q.predicate).with_projection(Projection::Attrs(vec![
            propeller_types::AttrName::Size,
            propeller_types::AttrName::Uid,
        ]));
        let (hits, _) = execute_request(&g, &req);
        assert_eq!(hits.len(), 1);
        assert_eq!(
            hits[0].attrs,
            vec![
                (propeller_types::AttrName::Size, Value::U64(499 << 20)),
                (propeller_types::AttrName::Uid, Value::U64(3)),
            ]
        );
    }

    #[test]
    fn ordered_scan_terminates_early_and_matches_reference() {
        use crate::request::{SearchRequest, SortKey};
        let g = seeded_group();
        // Predicates constrain only the sort attribute or unindexed
        // attributes — otherwise the planner (rightly) prefers the more
        // selective classic access path over the ordered walk.
        for (text, sort) in [
            ("size>16m", SortKey::Ascending(propeller_types::AttrName::Size)),
            ("size>16m", SortKey::Descending(propeller_types::AttrName::Size)),
            ("uid<3", SortKey::Descending(propeller_types::AttrName::Mtime)),
        ] {
            let q = Query::parse(text, now()).unwrap();
            let req =
                SearchRequest::new(q.predicate.clone()).with_limit(10).sorted_by(sort.clone());
            let (hits, stats) = execute_request(&g, &req);
            let (ref_hits, _) = execute_request_reference(&g, &req);
            assert_eq!(hits, ref_hits, "sort {sort:?}");
            assert_eq!(stats.early_terminated, 1, "sort {sort:?}");
            assert!(stats.candidates_skipped > 0, "sort {sort:?}: {stats:?}");
            assert!(
                stats.candidates_scanned + stats.candidates_skipped <= g.len(),
                "sort {sort:?}: {stats:?}"
            );
            assert_eq!(stats.access_paths[0].1, crate::request::AccessPathKind::OrderedScan);
        }
    }

    #[test]
    fn ordered_walk_resolves_a_record_only_when_something_reads_it() {
        use crate::request::{next_cursor, Projection, SortKey};
        let g = seeded_group();
        let window = |text: &str, projection: Projection| {
            SearchRequest::new(Query::parse(text, now()).unwrap().predicate)
                .with_limit(10)
                .sorted_by(SortKey::Descending(AttrName::Mtime))
                .with_projection(projection)
        };
        let run = |req: &SearchRequest| {
            let (hits, stats) = execute_request(&g, req);
            assert_eq!(hits, execute_request_reference(&g, req).0, "{req:?}");
            assert_eq!(stats.access_paths[0].1, AccessPathKind::OrderedScan);
            (hits, stats.candidates_scanned, stats.records_resolved)
        };
        // The walk's bounds prove every conjunct and only ids are asked
        // for: the hits are the index entries themselves.
        let (_, scanned, resolved) = run(&window("mtime<1week & mtime>2day", Projection::Ids));
        assert_eq!((scanned, resolved), (10, 0));
        // A full projection resolves exactly the candidates the walk admits…
        let req = window("mtime<1week & mtime>2day", Projection::Full);
        let (full, scanned, resolved) = run(&req);
        assert_eq!((scanned, resolved), (10, 10));
        assert!(full
            .iter()
            .all(|h| h.attrs == Projection::Full.project(g.record(h.file).unwrap())));
        // …and not the cursor-equal boundary entry a resumed walk re-yields.
        let (_, scanned, resolved) = run(&req.after(next_cursor(&full, Some(10)).unwrap()));
        assert_eq!((scanned, resolved), (11, 10));
        // An unproved conjunct resolves every candidate the walk scans.
        let (hits, scanned, resolved) =
            run(&window("mtime<1week & mtime>2day & uid=1", Projection::Ids));
        assert_eq!(hits.len(), 10);
        assert!(scanned > 30, "three in four candidates fail uid=1: scanned {scanned}");
        assert_eq!(resolved, scanned);
    }

    #[test]
    fn posting_list_paths_resolve_no_record_when_their_entries_answer() {
        use crate::request::SortKey;
        let g = seeded_group();
        let run = |text: &str, sort: SortKey| {
            let req =
                SearchRequest::new(Query::parse(text, now()).unwrap().predicate).sorted_by(sort);
            let (hits, stats) = execute_request(&g, &req);
            assert_eq!(hits, execute_request_reference(&g, &req).0, "{text}");
            let kind = stats.access_paths[0].1;
            (kind, hits.len(), stats.candidates_scanned, stats.records_resolved)
        };
        let (hash, range) = (AccessPathKind::HashEq, AccessPathKind::BTreeRange);
        // Proved predicate, ids by file id: the hits are the posting ids.
        assert_eq!(run("keyword:firefox", SortKey::FileId), (hash, 50, 50, 0));
        assert_eq!(run("size>400m", SortKey::FileId), (range, 99, 99, 0));
        // A range's entries carry its own attribute's sort key.
        assert_eq!(run("size>400m", SortKey::Descending(AttrName::Size)), (range, 99, 99, 0));
        // Sorted by another attribute, the key is read off the record.
        assert_eq!(run("keyword:firefox", SortKey::Ascending(AttrName::Mtime)), (hash, 50, 50, 50));
        // An unproved conjunct: every candidate is resolved.
        assert_eq!(run("keyword:firefox & uid=2", SortKey::FileId), (hash, 25, 50, 50));
    }

    #[test]
    fn kd_box_resolves_a_record_only_for_boundary_points_and_unproved_conjuncts() {
        let g = seeded_group();
        let run = |text: &str, projection: Projection| {
            let req = SearchRequest::new(Query::parse(text, now()).unwrap().predicate)
                .with_projection(projection);
            let (hits, stats) = execute_request(&g, &req);
            assert_eq!(hits, execute_request_reference(&g, &req).0, "{text}");
            assert_eq!(stats.access_paths[0].1, AccessPathKind::KdBox, "{text}");
            (hits, stats.candidates_scanned, stats.records_resolved)
        };
        // Sizes are whole MiB and ages whole hours, so no point ties a
        // bound of this box: it proves every conjunct, and its points are
        // the hits (files 11..=98).
        let inside = "size>10500k & size<100500k & mtime<1week";
        let (hits, scanned, resolved) = run(inside, Projection::Ids);
        assert_eq!((hits.len(), scanned, resolved), (88, 88, 0));
        // Files 10 and 100 lie on the size bounds: exactly they are read
        // (and rejected).
        let (hits, scanned, resolved) = run("size>10m & size<100m & mtime<1week", Projection::Ids);
        assert_eq!((hits.len(), scanned, resolved), (89, 91, 2));
        // An unproved conjunct reads every point.
        let (hits, scanned, resolved) = run(&format!("{inside} & uid=1"), Projection::Ids);
        assert_eq!((hits.len(), scanned, resolved), (22, 88, 88));
        // A full projection reads exactly the admitted hits.
        let (hits, scanned, resolved) = run(inside, Projection::Full);
        assert_eq!((hits.len(), scanned, resolved), (88, 88, 88));
        assert!(hits
            .iter()
            .all(|h| h.attrs == Projection::Full.project(g.record(h.file).unwrap())));
    }

    #[test]
    fn ordered_scan_pagination_covers_the_full_result_in_order() {
        use crate::request::{SearchRequest, SortKey};
        let g = seeded_group();
        let q = Query::parse("size>16m", now()).unwrap();
        let sort = SortKey::Descending(propeller_types::AttrName::Size);
        let full_req = SearchRequest::new(q.predicate.clone()).sorted_by(sort.clone());
        let (full, _) = execute_request(&g, &full_req);
        let mut paged = Vec::new();
        let mut cursor = None;
        loop {
            let mut req =
                SearchRequest::new(q.predicate.clone()).with_limit(37).sorted_by(sort.clone());
            if let Some(c) = cursor.take() {
                req = req.after(c);
            }
            let (hits, stats) = execute_request(&g, &req);
            assert!(stats.retained_peak <= 37);
            if hits.is_empty() {
                break;
            }
            match crate::request::next_cursor(&hits, Some(37)) {
                Some(c) => cursor = Some(c),
                None => {
                    paged.extend(hits);
                    break;
                }
            }
            paged.extend(hits);
        }
        assert_eq!(paged, full);
    }

    #[test]
    fn streaming_paths_match_reference_on_all_access_paths() {
        use crate::request::SearchRequest;
        let g = seeded_group();
        for text in [
            "keyword:firefox",           // hash probe
            "size>100m & size<200m",     // btree range (after kd? two-sided single attr)
            "size>10m & mtime<1week",    // kd box
            "uid=1",                     // full scan (uid unindexed)
            "*",                         // full scan
            "keyword:firefox | size<2m", // full scan (disjunction)
        ] {
            let q = Query::parse(text, now()).unwrap();
            for limit in [None, Some(5), Some(1000)] {
                let mut req = SearchRequest::new(q.predicate.clone());
                if let Some(k) = limit {
                    req = req.with_limit(k);
                }
                let (hits, _) = execute_request(&g, &req);
                let (ref_hits, _) = execute_request_reference(&g, &req);
                assert_eq!(hits, ref_hits, "query {text:?} limit {limit:?}");
            }
        }
    }

    #[test]
    fn node_global_cutoff_matches_per_acg_reference_with_fewer_scans() {
        use crate::request::{merge_sorted_hits, SearchRequest, SortKey};
        // 4 ACGs x 250 files, sorted top-10: the node-global merge must
        // return exactly what per-ACG top-k + merge returns, while pulling
        // only ~k + #groups candidates instead of k per ACG.
        let groups: Vec<AcgIndexGroup> = (0..4u64)
            .map(|g| {
                let mut group = AcgIndexGroup::new(AcgId::new(g + 1), GroupConfig::default());
                for i in 0..250u64 {
                    let id = g * 1000 + i;
                    let rec = FileRecord::new(
                        FileId::new(id),
                        InodeAttrs::builder().size(((id * 7919) % 4096) << 10).build(),
                    );
                    group.enqueue(IndexOp::Upsert(rec), now()).unwrap();
                }
                group.commit(now()).unwrap();
                group
            })
            .collect();
        let refs: Vec<&AcgEpoch> = groups.iter().map(|g| &**g).collect();
        let q = Query::parse("size>0", now()).unwrap();
        let req = SearchRequest::new(q.predicate)
            .with_limit(10)
            .sorted_by(SortKey::Descending(propeller_types::AttrName::Size));

        let per_acg: Vec<Vec<Hit>> = refs.iter().map(|g| execute_request(g, &req).0).collect();
        let reference = merge_sorted_hits(per_acg, &req.sort, req.limit);

        let (hits, stats) = execute_node_request_sequential(&refs, &req);
        assert_eq!(hits, reference, "node-global merge must be byte-identical");
        assert_eq!(hits.len(), 10);
        assert_eq!(stats.acgs_consulted, 4);
        assert!(
            stats.candidates_scanned <= 10 + refs.len(),
            "global cutoff must scan ~k total, scanned {}",
            stats.candidates_scanned
        );
        assert!(stats.merge_skipped > 0, "merge-level skips must be witnessed: {stats:?}");
        assert_eq!(
            stats.candidates_scanned + stats.candidates_skipped,
            4 * 250,
            "scanned + skipped covers every record"
        );
        assert!(stats.access_paths.iter().all(|(_, k)| *k == AccessPathKind::OrderedScan));
    }

    #[test]
    fn node_request_mixes_ordered_streams_and_bounded_classic_scans() {
        use crate::request::{merge_sorted_hits, SearchRequest, SortKey};
        // Two ordered-planned groups (default indices) plus one group with
        // no indices at all (classic full scan under the shared bound).
        let seed = |mut group: AcgIndexGroup, base: u64| {
            for i in 0..200u64 {
                let id = base + i;
                let rec = FileRecord::new(
                    FileId::new(id),
                    InodeAttrs::builder().size(((id * 131) % 1000) << 10).build(),
                );
                group.enqueue(IndexOp::Upsert(rec), now()).unwrap();
            }
            group.commit(now()).unwrap();
            group
        };
        let g1 = seed(AcgIndexGroup::new(AcgId::new(1), GroupConfig::default()), 0);
        let g2 = seed(AcgIndexGroup::new(AcgId::new(2), GroupConfig::default()), 1000);
        let g3 = seed(
            AcgIndexGroup::new(
                AcgId::new(3),
                GroupConfig { default_indices: false, ..GroupConfig::default() },
            ),
            2000,
        );
        let refs: Vec<&AcgEpoch> = vec![&g1, &g2, &g3];
        let q = Query::parse("size>0", now()).unwrap();
        let req = SearchRequest::new(q.predicate)
            .with_limit(8)
            .sorted_by(SortKey::Descending(propeller_types::AttrName::Size));

        let per_acg: Vec<Vec<Hit>> = refs.iter().map(|g| execute_request(g, &req).0).collect();
        let reference = merge_sorted_hits(per_acg, &req.sort, req.limit);
        let (hits, stats) = execute_node_request_sequential(&refs, &req);
        assert_eq!(hits, reference);
        // The indexless group full-scans (all 200 records); the bound
        // prunes most of its matching candidates before materialization.
        let kinds: Vec<AccessPathKind> = stats.access_paths.iter().map(|(_, k)| *k).collect();
        assert_eq!(
            kinds,
            vec![
                AccessPathKind::OrderedScan,
                AccessPathKind::OrderedScan,
                AccessPathKind::FullScan
            ]
        );
        assert!(stats.bound_pruned > 0, "shared bound must prune: {stats:?}");
        assert!(stats.merge_skipped > 0, "{stats:?}");
    }

    #[test]
    fn node_request_with_duplicate_files_across_groups_keeps_distinct_topk() {
        use crate::request::{merge_sorted_hits, SearchRequest, SortKey};
        // A file can legally surface from two ACGs of one node (stale
        // route degraded to pre-tombstone behaviour): the global bound
        // must count distinct files, or the duplicate eats a slot and a
        // rightful hit is pruned. Indexless groups force the classic
        // (bound-pruned) path.
        let indexless = |acg: u64| {
            AcgIndexGroup::new(
                AcgId::new(acg),
                GroupConfig { default_indices: false, ..GroupConfig::default() },
            )
        };
        let mut g1 = indexless(1);
        g1.enqueue(
            IndexOp::Upsert(FileRecord::new(
                FileId::new(7),
                InodeAttrs::builder().size(100).build(),
            )),
            now(),
        )
        .unwrap();
        g1.commit(now()).unwrap();
        let mut g2 = indexless(2);
        for (file, size) in [(7u64, 100u64), (8, 50)] {
            g2.enqueue(
                IndexOp::Upsert(FileRecord::new(
                    FileId::new(file),
                    InodeAttrs::builder().size(size).build(),
                )),
                now(),
            )
            .unwrap();
        }
        g2.commit(now()).unwrap();
        let refs: Vec<&AcgEpoch> = vec![&g1, &g2];
        let q = Query::parse("size>0", now()).unwrap();
        let req = SearchRequest::new(q.predicate)
            .with_limit(2)
            .sorted_by(SortKey::Descending(propeller_types::AttrName::Size));
        let per_acg: Vec<Vec<Hit>> = refs.iter().map(|g| execute_request(g, &req).0).collect();
        let reference = merge_sorted_hits(per_acg, &req.sort, req.limit);
        let (hits, _) = execute_node_request_sequential(&refs, &req);
        let files: Vec<u64> = hits.iter().map(|h| h.file.raw()).collect();
        assert_eq!(files, vec![7, 8], "both distinct files make the top-2");
        assert_eq!(
            hits.iter().map(|h| h.file).collect::<Vec<_>>(),
            reference.iter().map(|h| h.file).collect::<Vec<_>>()
        );
    }

    #[test]
    fn node_request_unlimited_and_zero_limit_edges() {
        use crate::request::{SearchRequest, SortKey};
        let g = seeded_group();
        let refs: Vec<&AcgEpoch> = vec![&g];
        let q = Query::parse("size>16m", now()).unwrap();
        // Unlimited: no cutoff, plain merged full result.
        let req = SearchRequest::new(q.predicate.clone())
            .sorted_by(SortKey::Ascending(propeller_types::AttrName::Size));
        let (hits, stats) = execute_node_request_sequential(&refs, &req);
        let (ref_hits, _) = execute_request(&g, &req);
        assert_eq!(hits, ref_hits);
        assert_eq!(stats.bound_pruned, 0);
        assert_eq!(stats.merge_skipped, 0);
        // Zero limit: nothing is pulled, nothing returned.
        let req = req.with_limit(0);
        let (hits, stats) = execute_node_request_sequential(&refs, &req);
        assert!(hits.is_empty());
        assert_eq!(stats.candidates_scanned, 0, "limit 0 must not prime streams");
    }

    #[test]
    fn matches_record_multivalued_any_semantics() {
        let rec = FileRecord::new(FileId::new(1), InodeAttrs::default())
            .with_keyword("alpha")
            .with_keyword("beta");
        assert!(matches_record(&rec, &Predicate::Keyword("beta".into())));
        assert!(!matches_record(&rec, &Predicate::Keyword("gamma".into())));
    }

    #[test]
    fn residual_drops_exactly_the_conjuncts_the_access_path_proves() {
        let (kw, size, energy) = (AttrName::Keyword, AttrName::Size, AttrName::custom("energy"));
        let (a, three, seven) = (Value::from("a"), Value::U64(3), Value::U64(7));
        let (ten, twenty) = (Bound::Excluded(Value::U64(10)), Bound::Excluded(Value::U64(20)));
        let ab: Vec<String> = vec!["a".into(), "b".into()];
        let eq = |attr, value| Proof::Eq { attr, value };
        let range = |attr, lo, hi| Proof::Range { attr, lo, hi };
        let unbounded = &Bound::Unbounded;
        let point = &Bound::Included(seven.clone());
        // (predicate, what the access path proves, conjuncts still evaluated)
        let table: Vec<(&str, Proof<'_>, &[&str])> = vec![
            ("keyword:a & keyword:b", eq(&kw, &a), &["keyword:b"]),
            ("keyword:a & size>5", eq(&kw, &a), &["size>5"]),
            ("keyword=a & keyword=b & keyword!=a", eq(&kw, &a), &["keyword=b", "keyword!=a"]),
            ("energy=3 & energy=4 & energy>=3", eq(&energy, &three), &["energy=4", "energy>=3"]),
            ("keyword:a & uid=3", eq(&AttrName::Uid, &three), &["keyword:a"]),
            // Folded bounds on a single-valued builtin: implied conjuncts
            // go, tighter ones (never planned, but the rule is local) stay.
            ("size>10 & size<20 & uid=3", range(&size, &ten, &twenty), &["uid=3"]),
            ("size>=5 & size>10 & size<=20", range(&size, &ten, &twenty), &[]),
            ("size>15 & size<20 & size!=12", range(&size, &ten, &twenty), &["size>15", "size!=12"]),
            ("size>10 & size<20", range(&size, &ten, unbounded), &["size<20"]),
            ("size=7 & size>=7 & size!=7", range(&size, point, point), &["size!=7"]),
            ("size=7", range(&size, &ten, &twenty), &["size=7"]),
            // Multi-valued attributes prove nothing under a range.
            ("energy>10 & energy<20", range(&energy, &ten, &twenty), &["energy>10", "energy<20"]),
            ("keyword>10 & keyword<20", range(&kw, &ten, &twenty), &["keyword>10", "keyword<20"]),
            // Only top-level conjuncts are ever dropped.
            ("keyword:a | size>5", eq(&kw, &a), &["keyword:a | size>5"]),
            ("!(keyword:a) & keyword:a", eq(&kw, &a), &["!(keyword:a)"]),
            ("keyword:a", eq(&kw, &a), &[]),
            ("*", eq(&kw, &a), &["*"]),
            // A conjunctive merge checks phrases of its own terms on their
            // positions, whatever their order or repeats.
            (
                "contains:\"a b\" & contains:a & contains:c & phrase:\"b a a\" & size>5",
                Proof::Merge { terms: &ab, conjunctive: true },
                &["contains:c", "size>5"],
            ),
            (
                "phrase:\"a c\" & (phrase:\"a b\" | size>5)",
                Proof::Merge { terms: &ab, conjunctive: true },
                &["phrase:\"a c\"", "phrase:\"a b\" | size>5"],
            ),
            (
                "contains-any:\"a b\" & contains-any:a & contains:a & phrase:\"a b\"",
                Proof::Merge { terms: &ab, conjunctive: false },
                &["contains-any:a", "contains:a", "phrase:\"a b\""],
            ),
        ];
        for (text, proof, kept) in table {
            let pred = Query::parse(text, now()).unwrap().predicate;
            let residual = Residual::of(&pred, proof);
            let evaluated: Vec<Predicate> = pred
                .conjuncts()
                .into_iter()
                .enumerate()
                .filter(|(i, _)| residual.proved >> i & 1 == 0)
                .map(|(_, conjunct)| conjunct.clone())
                .collect();
            let kept: Vec<Predicate> =
                kept.iter().map(|k| Query::parse(k, now()).unwrap().predicate).collect();
            assert_eq!(evaluated, kept, "residual of {text:?}");
        }
    }

    #[test]
    fn residual_evaluation_skips_only_proved_conjuncts() {
        let rec = FileRecord::new(FileId::new(1), InodeAttrs::builder().size(15).build())
            .with_keyword("a");
        let kw = Value::from("a");
        let proof = Proof::Eq { attr: &AttrName::Keyword, value: &kw };
        for (text, matches) in [
            ("keyword:a & size>10", true),
            ("keyword:a & size>20", false),
            ("keyword:a & keyword:b", false),
            ("size>20 & keyword:a", false),
            ("size<20 & (keyword:a & size>10)", true), // nested conjunctions flatten
        ] {
            let pred = Query::parse(text, now()).unwrap().predicate;
            assert_ne!(Residual::of(&pred, proof).proved, 0, "{text:?} drops the probe");
            assert_eq!(Residual::of(&pred, proof).matches(&rec), matches, "{text:?}");
        }
        // Past the mask's width every conjunct is evaluated, proved or not.
        let wide = Predicate::And(vec![Predicate::Keyword("zzz".into()); 70]);
        let zzz = Value::from("zzz");
        let proof = Proof::Eq { attr: &AttrName::Keyword, value: &zzz };
        assert_eq!(Residual::of(&wide, proof).proved, u64::MAX);
        assert!(!Residual::of(&wide, proof).matches(&rec), "conjuncts 64.. still run");
    }

    /// A deterministic content corpus: every file holds "the"; thirds hold
    /// "quick brown" (adjacent), sevenths hold "fox", roughly 1% "zebra",
    /// and doc lengths vary so BM25 normalization actually discriminates.
    fn content_group(acg: u64, base: u64, n: u64) -> AcgIndexGroup {
        let mut g = AcgIndexGroup::new(AcgId::new(acg), GroupConfig::default());
        for i in 0..n {
            let mut words = vec!["the"];
            if i % 3 == 0 {
                words.push("quick");
                words.push("brown");
            }
            if i % 7 == 0 {
                words.push("fox");
                if i % 21 == 0 {
                    words.push("fox"); // tf variation
                }
            }
            if i % 101 == 0 {
                words.push("zebra");
            }
            words.extend(std::iter::repeat_n("filler", (i % 5) as usize));
            let rec =
                FileRecord::new(FileId::new(base + i), InodeAttrs::builder().size(i << 10).build())
                    .with_content(words.join(" "));
            g.enqueue(IndexOp::Upsert(rec), now()).unwrap();
        }
        g.commit(now()).unwrap();
        g
    }

    #[test]
    fn contains_modes_match_reference_and_plan_postings() {
        use crate::request::SearchRequest;
        let g = content_group(1, 0, 400);
        for text in [
            "contains:\"quick fox\"",     // conjunctive merge
            "contains-any:\"fox zebra\"", // disjunctive merge
            "phrase:\"quick brown\"",     // adjacency on positions
            "phrase:\"brown quick\"",     // wrong order: superset pruned to empty
            "contains:zebra & size>100k", // residual attribute conjunct
            "contains:\"quick the fox\"", // three-way intersection
        ] {
            let q = Query::parse(text, now()).unwrap();
            for limit in [None, Some(7), Some(1000)] {
                let mut req = SearchRequest::new(q.predicate.clone());
                if let Some(k) = limit {
                    req = req.with_limit(k);
                }
                let (hits, stats) = execute_request(&g, &req);
                let (ref_hits, _) = execute_request_reference(&g, &req);
                assert_eq!(hits, ref_hits, "query {text:?} limit {limit:?}");
                assert_eq!(
                    stats.access_paths[0].1,
                    AccessPathKind::Postings,
                    "query {text:?} must ride the inverted index"
                );
            }
        }
    }

    #[test]
    fn postings_merge_resolves_a_record_only_when_something_reads_it() {
        use crate::request::SortKey;
        // Every seventh file holds "the" and "fox" (58 candidates); "the
        // fox" is a phrase in those without "quick brown" between the two.
        let g = content_group(1, 0, 400);
        let run = |text: &str, limit: Option<usize>, sort: &SortKey, projection: Projection| {
            let mut req = SearchRequest::new(Query::parse(text, now()).unwrap().predicate)
                .sorted_by(sort.clone())
                .with_projection(projection);
            if let Some(k) = limit {
                req = req.with_limit(k);
            }
            let (hits, stats) = execute_request(&g, &req);
            assert_eq!(hits, execute_request_reference(&g, &req).0, "{text}");
            assert_eq!(stats.access_paths[0].1, AccessPathKind::Postings, "{text}");
            (hits.len(), stats.candidates_scanned, stats.records_resolved)
        };
        let (ranked, by_id, phrase) = (&SortKey::Relevance, &SortKey::FileId, "phrase:\"the fox\"");
        // The positions answer the phrase, and ids are all a hit carries.
        assert_eq!(run(phrase, Some(10), ranked, Projection::Ids), (10, 58, 0));
        assert_eq!(run(phrase, Some(10), by_id, Projection::Ids), (10, 58, 0));
        assert_eq!(run("contains:\"quick fox\"", Some(10), ranked, Projection::Ids), (10, 20, 0));
        // An attribute conjunct reads the candidates that pass the floor:
        // files 0, 7, …, 168, the tenth with size>100k (105..=168) filling it.
        let sized = "contains:\"the fox\" & size>100k";
        assert_eq!(run(sized, Some(10), by_id, Projection::Ids), (10, 58, 25));
        // A full projection reads the admitted hits: 7, 14, 28, …, 98.
        assert_eq!(run(phrase, Some(10), by_id, Projection::Full), (10, 58, 10));
        // A phrase under an OR is the residual's: every candidate is read.
        let or = "contains:fox & (phrase:\"the fox\" | size<5k)";
        assert_eq!(run(or, None, by_id, Projection::Ids), (39, 58, 58));
    }

    #[test]
    fn relevance_ranking_matches_the_brute_oracle_bit_for_bit() {
        use crate::request::{SearchRequest, SortKey};
        let g = content_group(1, 0, 400);
        for text in ["contains:\"quick fox\"", "contains-any:\"fox zebra\"", "contains:zebra"] {
            let q = Query::parse(text, now()).unwrap();
            let req = SearchRequest::new(q.predicate.clone())
                .with_limit(10)
                .sorted_by(SortKey::Relevance);
            let (hits, stats) = execute_request(&g, &req);
            let (ref_hits, _) = execute_request_reference(&g, &req);
            // Bit-identical scores: the postings path and the brute scorer
            // must agree on N, df, avgdl and per-term summation order.
            assert_eq!(hits, ref_hits, "query {text:?}");
            assert_eq!(stats.access_paths[0].1, AccessPathKind::Postings);
            let scores: Vec<f64> =
                hits.iter().map(|h| h.sort_key.clone().unwrap().as_f64().unwrap()).collect();
            assert!(scores.windows(2).all(|w| w[0] >= w[1]), "descending scores: {scores:?}");
        }
    }

    #[test]
    fn relevance_pagination_covers_the_full_ranking() {
        use crate::request::{next_cursor, SearchRequest, SortKey};
        let g = content_group(1, 0, 400);
        let q = Query::parse("contains-any:\"quick fox\"", now()).unwrap();
        let full_req = SearchRequest::new(q.predicate.clone()).sorted_by(SortKey::Relevance);
        let (full, _) = execute_request(&g, &full_req);
        let mut paged = Vec::new();
        let mut cursor = None;
        loop {
            let mut req = SearchRequest::new(q.predicate.clone())
                .with_limit(29)
                .sorted_by(SortKey::Relevance);
            if let Some(c) = cursor.take() {
                req = req.after(c);
            }
            let (hits, _) = execute_request(&g, &req);
            if hits.is_empty() {
                break;
            }
            match next_cursor(&hits, Some(29)) {
                Some(c) => cursor = Some(c),
                None => {
                    paged.extend(hits);
                    break;
                }
            }
            paged.extend(hits);
        }
        assert_eq!(paged, full);
    }

    #[test]
    fn wand_block_max_pruning_skips_blocks_and_stays_exact() {
        use crate::request::{SearchRequest, SortKey};
        // 1024 docs all contain both terms; only the first 16 carry high
        // term frequencies (and sit well under the average doc length, so
        // their scores beat the length-agnostic tf=1 block bound). Once the
        // heap fills on those, every later block's max-tf bound falls below
        // θ and the conjunctive merge must jump block to block instead of
        // scoring doc by doc.
        let mut g = AcgIndexGroup::new(AcgId::new(9), GroupConfig::default());
        for i in 0..1024u64 {
            let text = if i < 16 {
                format!("{}{}", "alpha ".repeat(10), "beta ".repeat(10))
            } else {
                format!("alpha beta {}", "filler ".repeat(40))
            };
            let rec = FileRecord::new(FileId::new(i), InodeAttrs::default()).with_content(text);
            g.enqueue(IndexOp::Upsert(rec), now()).unwrap();
        }
        g.commit(now()).unwrap();
        let q = Query::parse("contains:\"alpha beta\"", now()).unwrap();
        let req = SearchRequest::new(q.predicate).with_limit(8).sorted_by(SortKey::Relevance);
        let (hits, stats) = execute_request(&g, &req);
        let (ref_hits, _) = execute_request_reference(&g, &req);
        assert_eq!(hits, ref_hits, "pruning must not change the ranking");
        assert_eq!(hits.len(), 8);
        assert!(hits.iter().all(|h| h.file.raw() < 16), "high-tf docs win");
        assert!(stats.wand_blocks_skipped > 0, "block skips witnessed: {stats:?}");
        assert!(stats.wand_docs_pruned > 0, "doc-level pruning witnessed: {stats:?}");
        assert!(stats.candidates_scanned < 1024, "WAND must not score the whole corpus: {stats:?}");
    }

    #[test]
    fn wand_disjunctive_pivot_prunes_the_weak_tail() {
        use crate::request::{SearchRequest, SortKey};
        // "special" is rare (high idf, early files); "common" is everywhere
        // (vanishing idf). After the rare postings exhaust, the sum of the
        // remaining term bounds can never reach θ and the disjunctive merge
        // must stop without walking the common tail.
        let mut g = AcgIndexGroup::new(AcgId::new(10), GroupConfig::default());
        for i in 0..1024u64 {
            let text =
                if i < 32 { "special common".to_string() } else { "common filler".to_string() };
            let rec = FileRecord::new(FileId::new(i), InodeAttrs::default()).with_content(text);
            g.enqueue(IndexOp::Upsert(rec), now()).unwrap();
        }
        g.commit(now()).unwrap();
        let q = Query::parse("contains-any:\"special common\"", now()).unwrap();
        let req = SearchRequest::new(q.predicate).with_limit(8).sorted_by(SortKey::Relevance);
        let (hits, stats) = execute_request(&g, &req);
        let (ref_hits, _) = execute_request_reference(&g, &req);
        assert_eq!(hits, ref_hits);
        assert!(hits.iter().all(|h| h.file.raw() < 32), "rare-term docs dominate");
        assert!(stats.wand_docs_pruned > 500, "tail must be pruned: {stats:?}");
    }

    #[test]
    fn relevance_without_inverted_degrades_to_the_brute_scan() {
        use crate::request::{SearchRequest, SortKey};
        let mut g = AcgIndexGroup::new(
            AcgId::new(11),
            GroupConfig { default_indices: false, ..GroupConfig::default() },
        );
        for i in 0..100u64 {
            let text = if i % 9 == 0 { "needle haystack" } else { "haystack" };
            let rec = FileRecord::new(FileId::new(i), InodeAttrs::default()).with_content(text);
            g.enqueue(IndexOp::Upsert(rec), now()).unwrap();
        }
        g.commit(now()).unwrap();
        let q = Query::parse("contains:needle", now()).unwrap();
        let req = SearchRequest::new(q.predicate).with_limit(5).sorted_by(SortKey::Relevance);
        let (hits, stats) = execute_request(&g, &req);
        let (ref_hits, _) = execute_request_reference(&g, &req);
        assert_eq!(hits, ref_hits, "no inverted index: scored full scan still ranks");
        assert_eq!(hits.len(), 5);
        assert_eq!(stats.access_paths[0].1, AccessPathKind::FullScan);
        assert_eq!(stats.wand_blocks_skipped, 0, "nothing to prune without postings");
    }

    #[test]
    fn node_merge_ranks_contains_across_groups() {
        use crate::request::{merge_sorted_hits, SearchRequest, SortKey};
        let g1 = content_group(1, 0, 300);
        let g2 = content_group(2, 1000, 300);
        let g3 = content_group(3, 2000, 300);
        let refs: Vec<&AcgEpoch> = vec![&g1, &g2, &g3];
        let q = Query::parse("contains-any:\"fox zebra\"", now()).unwrap();
        let req = SearchRequest::new(q.predicate).with_limit(12).sorted_by(SortKey::Relevance);
        let per_acg: Vec<Vec<Hit>> = refs.iter().map(|g| execute_request(g, &req).0).collect();
        let reference = merge_sorted_hits(per_acg, &req.sort, req.limit);
        let (hits, stats) = execute_node_request_sequential(&refs, &req);
        assert_eq!(hits, reference, "node-global ranked merge must be byte-identical");
        assert_eq!(hits.len(), 12);
        assert_eq!(stats.acgs_consulted, 3);
        assert!(stats.access_paths.iter().all(|(_, k)| *k == AccessPathKind::Postings));
    }
}
