//! The first-class search API: [`SearchRequest`] in, [`SearchResponse`]
//! out.
//!
//! Every search entry point in the system — the cluster client
//! (`FileQueryEngine`), the single-node service (`Propeller`), the wire
//! protocol, and the evaluation baselines — speaks this request/response
//! pair. A request carries the predicate plus result-set shaping options:
//!
//! * [`SearchRequest::limit`] — top-k; pushed into plan execution so no
//!   ACG ever retains more than O(k) hits past its candidate filter,
//! * [`SearchRequest::sort`] — order by any built-in attribute, ascending
//!   or descending (default: file id),
//! * [`SearchRequest::projection`] — ids only, selected attributes, or
//!   full records,
//! * [`SearchRequest::cursor`] — opaque continuation for pagination,
//! * [`SearchRequest::fan_out`] — whether a search must reach every Index
//!   Node or may return a partial (but well-labelled) result.
//!
//! The response returns typed [`Hit`]s, a completeness marker with the
//! unreachable nodes, per-query [`SearchStats`], and the continuation
//! [`Cursor`] when more results may exist.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use propeller_index::FileRecord;
use propeller_types::{AcgId, AttrName, Duration, Error, FileId, NodeId, Result, Timestamp, Value};

use crate::ast::{Predicate, Query};
use crate::exec::matches_record;
use crate::plan::AccessPath;

// ---------------------------------------------------------------------------
// Request options
// ---------------------------------------------------------------------------

/// Result ordering. The default orders by file id ascending, which is also
/// the tie-break within equal attribute values, so every ordering is total
/// and pagination cursors are unambiguous.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SortKey {
    /// Ascending file id (the classic `Vec<FileId>` order).
    #[default]
    FileId,
    /// Ascending by a built-in inode attribute.
    Ascending(AttrName),
    /// Descending by a built-in inode attribute.
    Descending(AttrName),
    /// Descending BM25 relevance score (best match first). The score is not
    /// a record attribute — the executor computes it against the corpus
    /// statistics of the serving ACG and carries it as the hit's sort key
    /// ([`propeller_types::Value::F64`]) — so this sort is only valid for
    /// requests whose predicate mentions a `contains` term (see
    /// [`SearchRequest::validate`]).
    Relevance,
}

impl SortKey {
    /// The attribute sorted by, if any.
    pub fn attr(&self) -> Option<&AttrName> {
        match self {
            SortKey::FileId | SortKey::Relevance => None,
            SortKey::Ascending(a) | SortKey::Descending(a) => Some(a),
        }
    }

    /// Whether the attribute order is reversed.
    pub fn is_descending(&self) -> bool {
        matches!(self, SortKey::Descending(_))
    }

    /// Extracts the sort key value of a record (`None` for file-id order
    /// and for relevance, whose score needs corpus statistics the record
    /// alone does not carry — the executor fills it in).
    pub fn key_of(&self, record: &FileRecord) -> Option<Value> {
        self.attr().and_then(|a| record.attrs.get(a))
    }

    /// The direction this sort compares keys in.
    fn order(&self) -> KeyOrder {
        match self {
            SortKey::FileId => KeyOrder::FileId,
            SortKey::Ascending(_) => KeyOrder::Ascending,
            SortKey::Descending(_) | SortKey::Relevance => KeyOrder::Descending,
        }
    }

    /// Result-order comparison of `(key, file)` pairs: equal keys always
    /// tie-break on ascending file id.
    pub fn cmp_keys(
        &self,
        a_key: Option<&Value>,
        a_file: FileId,
        b_key: Option<&Value>,
        b_file: FileId,
    ) -> Ordering {
        self.order().cmp_keys(a_key, a_file, b_key, b_file)
    }

    /// Result-order comparison of two hits.
    pub fn cmp_hits(&self, a: &Hit, b: &Hit) -> Ordering {
        self.order().cmp_hits(a, b)
    }
}

/// All a comparator needs of a [`SortKey`]: the direction, without the
/// attribute name. `Copy`, so the heaps below tag every retained entry with
/// it instead of cloning the sort key (an `AttrName`) per hit.
#[derive(Debug, Clone, Copy)]
enum KeyOrder {
    FileId,
    Ascending,
    Descending,
}

impl KeyOrder {
    fn cmp_keys(
        self,
        a_key: Option<&Value>,
        a_file: FileId,
        b_key: Option<&Value>,
        b_file: FileId,
    ) -> Ordering {
        let by_key = match self {
            KeyOrder::FileId => Ordering::Equal,
            KeyOrder::Ascending => a_key.cmp(&b_key),
            KeyOrder::Descending => b_key.cmp(&a_key),
        };
        by_key.then(a_file.cmp(&b_file))
    }

    fn cmp_hits(self, a: &Hit, b: &Hit) -> Ordering {
        self.cmp_keys(a.sort_key.as_ref(), a.file, b.sort_key.as_ref(), b.file)
    }
}

/// Which attributes each [`Hit`] carries back.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Projection {
    /// Ids only (cheapest; the classic result shape).
    #[default]
    Ids,
    /// The selected attributes (built-in, keyword or custom).
    Attrs(Vec<AttrName>),
    /// Every attribute of the record: all inode fields, keywords and
    /// custom attributes.
    Full,
}

impl Projection {
    /// Projects a record into the attribute list a [`Hit`] carries.
    pub fn project(&self, record: &FileRecord) -> Vec<(AttrName, Value)> {
        match self {
            Projection::Ids => Vec::new(),
            Projection::Attrs(attrs) => {
                let mut out = Vec::with_capacity(attrs.len());
                for attr in attrs {
                    out.extend(attr_values(record, attr).into_iter().map(|v| (attr.clone(), v)));
                }
                out
            }
            Projection::Full => {
                let mut out = record.attrs.entries();
                out.extend(
                    record.keywords.iter().map(|k| (AttrName::Keyword, Value::from(k.as_str()))),
                );
                out.extend(
                    record.custom.iter().map(|(n, v)| (AttrName::custom(n.clone()), v.clone())),
                );
                out
            }
        }
    }
}

fn attr_values(record: &FileRecord, attr: &AttrName) -> Vec<Value> {
    match attr {
        AttrName::Keyword => record.keywords.iter().map(|k| Value::from(k.as_str())).collect(),
        AttrName::Custom(name) => {
            record.custom.iter().filter(|(n, _)| n == name).map(|(_, v)| v.clone()).collect()
        }
        builtin => record.attrs.get(builtin).into_iter().collect(),
    }
}

/// How a fan-out search treats unreachable replicas.
///
/// Both policies are **quorum-aware**: an ACG only counts as lost when
/// *every* node of its replica set is unreachable — as long as one replica
/// answers (possibly after a mid-stream failover), the ACG's hits are
/// complete and no degradation is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FanOutPolicy {
    /// Every relevant ACG must be answered by at least one of its
    /// replicas; losing all replicas of any ACG fails the search (the
    /// consistency-first default).
    #[default]
    RequireAll,
    /// Tolerate lost ACGs: return the hits from the replica-set groups
    /// that answered, with [`SearchResponse::complete`] `false` and the
    /// lost ACGs listed in [`SearchResponse::unreachable`], as long as at
    /// least `min_nodes` groups answered.
    AllowPartial {
        /// Minimum number of answering replica-set groups for the search
        /// to succeed. (Named for the pre-replication protocol where one
        /// group was exactly one node; with R = 1 that reading still
        /// holds.)
        min_nodes: usize,
    },
}

/// An opaque pagination token: "resume strictly after this hit". Obtained
/// from [`SearchResponse::cursor`]; its contents are an implementation
/// detail and may change.
#[derive(Debug, Clone, PartialEq)]
pub struct Cursor {
    key: Option<Value>,
    file: FileId,
}

impl Cursor {
    /// The cursor resuming after `hit`.
    pub fn after(hit: &Hit) -> Cursor {
        Cursor { key: hit.sort_key.clone(), file: hit.file }
    }

    /// The sort-key value this cursor resumes after (used by the executor
    /// to tighten an ordered scan's bounds).
    pub(crate) fn sort_key(&self) -> Option<&Value> {
        self.key.as_ref()
    }

    /// Whether `(key, file)` lies strictly after this cursor in `sort`
    /// order (i.e. belongs to a later page).
    pub fn admits(&self, sort: &SortKey, key: Option<&Value>, file: FileId) -> bool {
        sort.cmp_keys(key, file, self.key.as_ref(), self.file) == Ordering::Greater
    }
}

// ---------------------------------------------------------------------------
// Request / response
// ---------------------------------------------------------------------------

/// A file-search request: predicate plus result-set shaping options.
///
/// # Examples
///
/// ```
/// use propeller_query::{FanOutPolicy, SearchRequest, SortKey};
/// use propeller_types::{AttrName, Timestamp};
///
/// let req = SearchRequest::parse("size>16m", Timestamp::from_secs(0))
///     .unwrap()
///     .with_limit(10)
///     .sorted_by(SortKey::Descending(AttrName::Size))
///     .with_fan_out(FanOutPolicy::AllowPartial { min_nodes: 1 });
/// assert_eq!(req.limit, Some(10));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    /// The exact match predicate.
    pub predicate: Predicate,
    /// Top-k: at most this many hits come back (and no ACG retains more
    /// than O(k) hits past its candidate filter while computing them).
    pub limit: Option<usize>,
    /// Result ordering.
    pub sort: SortKey,
    /// Attributes carried per hit.
    pub projection: Projection,
    /// Resume strictly after this point (from a previous response).
    pub cursor: Option<Cursor>,
    /// Partial-failure tolerance of the fan-out.
    pub fan_out: FanOutPolicy,
    /// Opt-in for availability-first pagination under
    /// [`FanOutPolicy::AllowPartial`]: incomplete responses normally
    /// suppress their continuation cursor (resuming past a page that is
    /// missing lost ACGs' hits would skip them permanently). With this
    /// set, an incomplete response carries the cursor **and** the
    /// unreachable-ACG set, so a caller can keep paginating the reachable
    /// ACGs now and separately backfill the gap (re-query the listed ACGs'
    /// range once a replica recovers) instead of stalling the whole scan.
    pub cursor_on_incomplete: bool,
}

impl SearchRequest {
    /// A request with default options (unlimited, file-id order, ids only,
    /// require-all fan-out).
    pub fn new(predicate: Predicate) -> Self {
        SearchRequest {
            predicate,
            limit: None,
            sort: SortKey::default(),
            projection: Projection::default(),
            cursor: None,
            fan_out: FanOutPolicy::default(),
            cursor_on_incomplete: false,
        }
    }

    /// Parses the textual query syntax into a request with default options.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidQuery`] on parse errors.
    pub fn parse(text: &str, now: Timestamp) -> Result<Self> {
        Ok(SearchRequest::new(Query::parse(text, now)?.predicate))
    }

    /// Sets the top-k limit.
    #[must_use]
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Sets the result ordering.
    #[must_use]
    pub fn sorted_by(mut self, sort: SortKey) -> Self {
        self.sort = sort;
        self
    }

    /// Sets the per-hit projection.
    #[must_use]
    pub fn with_projection(mut self, projection: Projection) -> Self {
        self.projection = projection;
        self
    }

    /// Resumes after `cursor` (from a previous response).
    #[must_use]
    pub fn after(mut self, cursor: Cursor) -> Self {
        self.cursor = Some(cursor);
        self
    }

    /// Sets the fan-out policy.
    #[must_use]
    pub fn with_fan_out(mut self, fan_out: FanOutPolicy) -> Self {
        self.fan_out = fan_out;
        self
    }

    /// Opts incomplete (partial fan-out) responses into carrying a
    /// continuation cursor alongside their unreachable-ACG set (see
    /// [`SearchRequest::cursor_on_incomplete`]).
    #[must_use]
    pub fn with_cursor_on_incomplete(mut self) -> Self {
        self.cursor_on_incomplete = true;
        self
    }

    /// Validates option combinations: sorting is only defined over
    /// built-in (single-valued, always-present) attributes, and relevance
    /// order needs a `contains` term to score against.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidQuery`] for keyword/custom sort keys, and
    /// for a relevance sort whose predicate mentions no `contains` term.
    pub fn validate(&self) -> Result<()> {
        if let Some(attr) = self.sort.attr() {
            if !attr.is_inode_attr() {
                return Err(Error::InvalidQuery(format!(
                    "cannot sort by multi-valued attribute {attr}"
                )));
            }
        }
        if self.sort == SortKey::Relevance && !self.predicate.mentions_contains() {
            return Err(Error::InvalidQuery(
                "relevance sort needs a contains/phrase term to score against".into(),
            ));
        }
        Ok(())
    }
}

/// One search result: the file, its owning ACG (when the search ran
/// against ACG-partitioned indices) and the projected attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// The matching file.
    pub file: FileId,
    /// The ACG whose index group produced the hit (`None` for baselines
    /// without ACG partitioning).
    pub acg: Option<AcgId>,
    /// Attributes selected by the request's [`Projection`].
    pub attrs: Vec<(AttrName, Value)>,
    /// The value of the sort attribute (`None` under file-id order).
    pub sort_key: Option<Value>,
}

impl Hit {
    /// Builds a hit from a record under the given request options.
    pub fn of_record(
        record: &FileRecord,
        acg: Option<AcgId>,
        sort: &SortKey,
        projection: &Projection,
    ) -> Hit {
        Hit {
            file: record.file,
            acg,
            attrs: projection.project(record),
            sort_key: sort.key_of(record),
        }
    }
}

/// Which access path an ACG's plan used (a compact mirror of
/// [`AccessPath`] for stats reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPathKind {
    /// Hash-index equality probe.
    HashEq,
    /// B+-tree range scan.
    BTreeRange,
    /// K-D tree box query.
    KdBox,
    /// Inverted-index postings merge (document-at-a-time).
    Postings,
    /// Sort-order B+-tree walk with early termination.
    OrderedScan,
    /// Full record scan.
    FullScan,
}

impl From<&AccessPath> for AccessPathKind {
    fn from(path: &AccessPath) -> Self {
        match path {
            AccessPath::HashEq { .. } => AccessPathKind::HashEq,
            AccessPath::BTreeRange { .. } => AccessPathKind::BTreeRange,
            AccessPath::KdBox { .. } => AccessPathKind::KdBox,
            AccessPath::Postings { .. } => AccessPathKind::Postings,
            AccessPath::OrderedScan { .. } => AccessPathKind::OrderedScan,
            AccessPath::FullScan => AccessPathKind::FullScan,
        }
    }
}

/// Per-query execution statistics, merged across ACGs and nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Index groups consulted.
    pub acgs_consulted: usize,
    /// Candidates the access paths yielded and the executor examined.
    pub candidates_scanned: usize,
    /// Candidate records the executor read: every record a full scan or a
    /// postings merge examined, and each index-walk candidate whose sort
    /// key, residual or projection needed its record (resolved through
    /// the record store's leaf cursor). A walk that proves every
    /// conjunct, carries the sort key in its entries and projects ids
    /// reads none: its hits are the index entries themselves.
    pub records_resolved: usize,
    /// The largest number of hits any single ACG retained at once while
    /// computing its result (bounded by the limit when one is set — the
    /// top-k path never materializes a full result set).
    pub retained_peak: usize,
    /// The access path each consulted ACG used.
    pub access_paths: Vec<(AcgId, AccessPathKind)>,
    /// ACGs whose plan the posting counts turned from a point probe into
    /// an ordered walk: the equality's list was long enough in that ACG
    /// that walking the sort order for `limit` hits was expected to
    /// examine fewer records (the planner's probe-or-walk rule). These
    /// ACGs report [`AccessPathKind::OrderedScan`] in `access_paths`.
    pub ordered_by_count: usize,
    /// Records an early-terminated ordered scan never had to examine
    /// (the consulted group's size minus the records actually scanned) —
    /// the witness that the cutoff saved work.
    pub candidates_skipped: usize,
    /// Number of per-ACG executions that stopped before exhausting their
    /// candidate stream (ordered-scan early termination, per-ACG or at the
    /// node-global merge).
    pub early_terminated: usize,
    /// The subset of [`SearchStats::candidates_skipped`] recorded at a
    /// *node-global* merge: records in ordered candidate streams the k-way
    /// merge across ACGs never pulled because `k` hits were already
    /// admitted node-wide (the cutoff fired at the merge rather than
    /// inside a per-ACG execution). On a single-ACG node this coincides
    /// with plain per-ACG early termination; the cross-ACG saving proper
    /// is visible in `candidates_scanned` staying near `k` total instead
    /// of `k × ACGs` (`tests/streaming_equivalence.rs` pins both sides).
    pub merge_skipped: usize,
    /// Matching candidates pruned by the shared node-global retention
    /// bound ([`GlobalCutoff`]) before hit materialization on non-ordered
    /// plans. Under parallel execution the exact count depends on worker
    /// interleaving (the bound tightens as ACGs race), so it is a
    /// lower-bound witness, not a deterministic one.
    pub bound_pruned: usize,
    /// Result pages shipped over the wire: one per `Search`/`OpenSearch`/
    /// `PullHits` round trip, so the merged total across nodes witnesses
    /// how many pulls the cluster-wide cutoff needed.
    pub pages_pulled: usize,
    /// Hits actually shipped over the wire (set by the serving node per
    /// response, summed by the client). Under the streamed cross-node
    /// cutoff this stays well below `k × nodes` when the hot range is
    /// concentrated — the headline witness of the streaming protocol.
    pub hits_shipped: usize,
    /// Hits a closed streamed session was still entitled to ship (the
    /// node-side `k` minus what the client actually pulled before the
    /// global top-k filled). This is what shipping `k` hits from every node
    /// would have cost from that node beyond what the session did —
    /// assuming the node could fill its `k`; the session's ordered streams
    /// were deliberately never advanced to find out.
    pub node_hits_unsent: usize,
    /// Postings blocks a WAND-style relevance merge jumped over whole
    /// because their max-score bound could not beat the worst retained
    /// top-k score — the block-skip witness of the bound pruning.
    pub wand_blocks_skipped: usize,
    /// Postings entries those skipped blocks (and bound-driven seeks)
    /// never examined — the document-level saving of the WAND bound. Like
    /// [`SearchStats::bound_pruned`], a lower-bound witness: the threshold
    /// tightens as the top-k heap fills, so the exact count depends on
    /// candidate order.
    pub wand_docs_pruned: usize,
    /// Hedged "tied" session opens the client fired because a replica
    /// missed the hedge latency budget — the tail-tolerance witness that
    /// the second replica was actually asked.
    pub hedges_fired: usize,
    /// Hedged opens where the *hedge* (not the originally asked replica)
    /// answered first and served the stream — the subset of
    /// [`SearchStats::hedges_fired`] that actually cut the tail.
    pub hedges_won: usize,
    /// Mid-stream replica failovers: a serving replica died (or its
    /// session erred) and the client resumed the same ACG stream on
    /// another replica from its cursor, losing and duplicating nothing.
    pub replica_failovers: usize,
    /// Epochs pinned for this search: one per ACG consulted, each an
    /// `Arc` clone of whatever epoch that ACG had published when the
    /// search opened. The search reads those pinned epochs for its whole
    /// lifetime, so later commits are invisible to it by construction.
    pub epoch_pins: usize,
    /// Commits the serving node published while this search was
    /// executing. Non-zero values witness that ingest proceeded
    /// concurrently with the read — the epoch-pinning counterpart to a
    /// lock the search never took.
    pub commits_during_search: usize,
    /// What the caller waited for. Merged node stats carry the slowest
    /// node's service time; the opens of a cluster search run in parallel
    /// but its pulls are issued sequentially from the client merge, so the
    /// client overwrites the merged value with its measured wall time
    /// across opens, pulls and closes.
    pub elapsed: Duration,
    /// Per-node service-time breakdown: each serving node appends its
    /// `(id, measured service time)` rows and [`SearchStats::absorb`]
    /// concatenates them, so the merged record still attributes latency to
    /// individual nodes after `elapsed` collapsed to the max. A node
    /// appears once per exchange it served (opens, pulls), which is what
    /// lets a slow-node witness pick out the straggler by summing per id.
    pub node_elapsed: Vec<(NodeId, Duration)>,
}

impl SearchStats {
    /// Folds another stats record (e.g. one node's) into this one.
    pub fn absorb(&mut self, other: SearchStats) {
        self.acgs_consulted += other.acgs_consulted;
        self.candidates_scanned += other.candidates_scanned;
        self.records_resolved += other.records_resolved;
        self.retained_peak = self.retained_peak.max(other.retained_peak);
        self.access_paths.extend(other.access_paths);
        self.ordered_by_count += other.ordered_by_count;
        self.candidates_skipped += other.candidates_skipped;
        self.early_terminated += other.early_terminated;
        self.merge_skipped += other.merge_skipped;
        self.bound_pruned += other.bound_pruned;
        self.pages_pulled += other.pages_pulled;
        self.hits_shipped += other.hits_shipped;
        self.node_hits_unsent += other.node_hits_unsent;
        self.wand_blocks_skipped += other.wand_blocks_skipped;
        self.wand_docs_pruned += other.wand_docs_pruned;
        self.hedges_fired += other.hedges_fired;
        self.hedges_won += other.hedges_won;
        self.replica_failovers += other.replica_failovers;
        self.epoch_pins += other.epoch_pins;
        self.commits_during_search += other.commits_during_search;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.node_elapsed.extend(other.node_elapsed);
    }

    /// The slowest node in the [`SearchStats::node_elapsed`] breakdown by
    /// *summed* service time across its exchanges, or `None` when no node
    /// reported one. This is the per-node attribution `elapsed`'s max-fold
    /// loses: ties break toward the lower node id for determinism.
    pub fn slowest_node(&self) -> Option<(NodeId, Duration)> {
        let mut totals: std::collections::BTreeMap<NodeId, Duration> =
            std::collections::BTreeMap::new();
        for &(node, d) in &self.node_elapsed {
            let t = totals.entry(node).or_default();
            *t = Duration::from_micros(t.as_micros() + d.as_micros());
        }
        totals.into_iter().max_by_key(|&(node, d)| (d, std::cmp::Reverse(node)))
    }
}

/// The result of a [`SearchRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// Hits in request sort order, at most `limit` of them, de-duplicated
    /// by file id.
    pub hits: Vec<Hit>,
    /// `true` when every relevant ACG was answered by at least one of its
    /// replicas. Partial results (under [`FanOutPolicy::AllowPartial`])
    /// set this to `false`.
    pub complete: bool,
    /// ACGs whose **every** replica failed to answer (empty when
    /// `complete`). Named by ACG rather than node: with replication a
    /// dead node is not a hole in the result set — only a fully
    /// unreachable replica set is, and this names exactly the data the
    /// response is missing.
    pub unreachable: Vec<AcgId>,
    /// Execution statistics.
    pub stats: SearchStats,
    /// Continuation token: present when the limit was reached, more
    /// results may exist **and the response is complete**. Pass to
    /// [`SearchRequest::after`] for the next page. Incomplete (partial
    /// fan-out) responses never carry a cursor: resuming after a page
    /// that is missing unreachable nodes' hits would skip, permanently,
    /// every missing hit that sorted before the cursor.
    pub cursor: Option<Cursor>,
}

impl SearchResponse {
    /// An empty, complete response.
    pub fn empty() -> Self {
        SearchResponse {
            hits: Vec::new(),
            complete: true,
            unreachable: Vec::new(),
            stats: SearchStats::default(),
            cursor: None,
        }
    }

    /// The hit file ids, in response order.
    pub fn file_ids(&self) -> Vec<FileId> {
        self.hits.iter().map(|h| h.file).collect()
    }
}

// ---------------------------------------------------------------------------
// Bounded top-k accumulation and k-way merging
// ---------------------------------------------------------------------------

/// A hit ranked for heap storage: the ordering is the request's result
/// order, so a max-heap's peek is always the *worst* retained hit.
struct Ranked {
    hit: Hit,
    order: KeyOrder,
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order.cmp_hits(&self.hit, &other.hit)
    }
}

/// A bounded top-k accumulator: retains at most `limit` hits (unbounded
/// when `limit` is `None`), evicting the worst via a max-heap. This is the
/// structure that keeps per-ACG memory at O(k) for limited searches.
pub struct TopK {
    order: KeyOrder,
    limit: Option<usize>,
    heap: BinaryHeap<Ranked>,
    peak: usize,
}

impl TopK {
    /// An accumulator for the given order and limit.
    pub fn new(sort: &SortKey, limit: Option<usize>) -> Self {
        TopK { order: sort.order(), limit, heap: BinaryHeap::new(), peak: 0 }
    }

    /// Offers a hit; it is retained only if it ranks within the top
    /// `limit` seen so far.
    pub fn push(&mut self, hit: Hit) {
        let key = hit.sort_key.clone();
        self.offer(key.as_ref(), hit.file, move || hit);
    }

    /// Offers a hit *lazily*: `make` runs only when the hit will actually
    /// be retained, so rejected candidates never pay projection or
    /// allocation — the zero-allocation fast path of the streaming
    /// executor. `key` must equal the sort key `make`'s hit will carry.
    pub fn offer(&mut self, key: Option<&Value>, file: FileId, make: impl FnOnce() -> Hit) {
        if let Some(limit) = self.limit {
            if limit == 0 {
                return;
            }
            if self.heap.len() >= limit {
                let worst = self.heap.peek().expect("heap non-empty at capacity");
                let rank =
                    self.order.cmp_keys(key, file, worst.hit.sort_key.as_ref(), worst.hit.file);
                if rank != Ordering::Less {
                    return;
                }
                self.heap.pop();
            }
        }
        self.heap.push(Ranked { hit: make(), order: self.order });
        self.peak = self.peak.max(self.heap.len());
    }

    /// The most hits retained at any point (the O(k) witness).
    pub fn peak_retained(&self) -> usize {
        self.peak
    }

    /// The worst retained hit's `(sort key, file)` once the accumulator is
    /// at capacity — the rank a new candidate must strictly beat to be
    /// retained. `None` while below capacity (or unlimited), when every
    /// offer is retained anyway. This is the threshold a WAND-style
    /// postings merge prunes against.
    pub fn floor(&self) -> Option<(Option<&Value>, FileId)> {
        let limit = self.limit?;
        if self.heap.len() < limit {
            return None;
        }
        self.heap.peek().map(|worst| (worst.hit.sort_key.as_ref(), worst.hit.file))
    }

    /// Finishes, returning the retained hits in result order.
    pub fn into_sorted(self) -> Vec<Hit> {
        self.heap.into_sorted_vec().into_iter().map(|r| r.hit).collect()
    }
}

/// A node-global retention bound shared by every per-ACG execution of one
/// search (the cross-ACG cutoff for non-ordered plans): it tracks the best
/// `limit` **distinct files** (by `(sort key, file id)` rank) *any* ACG
/// has offered so far, so a candidate that can no longer rank in the
/// merged node-wide top-k is pruned before hit materialization. Pruning
/// never changes results — a pruned candidate is provably outranked by
/// `limit` recorded candidates, each retained by its own ACG's
/// accumulator — it only spares the projection/allocation work and keeps
/// per-ACG lists from all filling to `k` when the node will merge away
/// most of them.
///
/// Distinct files matter: the final merge de-duplicates by file id, and a
/// file can legally surface from two ACGs of one node (a stale route that
/// degraded to the documented pre-tombstone behaviour leaves the old copy
/// searchable). Counting both copies against `limit` would tighten the
/// bound beyond the true node-wide top-k and prune a hit that belongs in
/// the merged result, so a re-offer of an admitted file only replaces its
/// recorded rank (when better) instead of consuming a second slot.
///
/// Thread-safe: per-ACG executions on a worker pool share one instance.
/// The common case — a candidate provably outside the bound — rejects
/// under a read lock against a published worst-rank snapshot; only actual
/// admissions take the write lock.
pub struct GlobalCutoff {
    order: KeyOrder,
    limit: usize,
    state: std::sync::RwLock<CutoffState>,
    pruned: std::sync::atomic::AtomicUsize,
}

/// The bound's retained set: a lazy-deletion max-heap over ranks plus the
/// live best rank per admitted file.
#[derive(Default)]
struct CutoffState {
    /// Max-heap in result order: the peek is the worst *possibly-live*
    /// pair. Entries superseded by a better re-offer of the same file
    /// linger and are skipped on eviction (`best` is the authority).
    heap: BinaryHeap<RankedKey>,
    /// file → its best recorded sort key. `len() <= limit` always.
    best: HashMap<FileId, Option<Value>>,
}

impl CutoffState {
    /// The current live worst `(key, file)`, dropping superseded heap
    /// entries along the way. `None` while below capacity.
    fn live_worst(&mut self) -> Option<(Option<Value>, FileId)> {
        while let Some(entry) = self.heap.peek() {
            let live = self.best.get(&entry.file).is_some_and(|best| *best == entry.key);
            if live {
                return Some((entry.key.clone(), entry.file));
            }
            self.heap.pop();
        }
        None
    }
}

/// A `(sort key, file)` pair ranked for [`GlobalCutoff`] heap storage.
struct RankedKey {
    key: Option<Value>,
    file: FileId,
    order: KeyOrder,
}

impl PartialEq for RankedKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RankedKey {}

impl PartialOrd for RankedKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankedKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order.cmp_keys(self.key.as_ref(), self.file, other.key.as_ref(), other.file)
    }
}

impl GlobalCutoff {
    /// A cutoff retaining the best `limit` distinct files under `sort`.
    pub fn new(sort: &SortKey, limit: usize) -> Self {
        GlobalCutoff {
            order: sort.order(),
            limit,
            state: std::sync::RwLock::new(CutoffState::default()),
            pruned: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    fn prune_one(&self) {
        self.pruned.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Offers a candidate's `(key, file)` pair. Returns `true` (recording
    /// the pair) when it still ranks within the node-global top `limit`
    /// distinct files; `false` when it is provably outside the merged
    /// result and the caller may skip materializing it.
    pub fn try_admit(&self, key: Option<&Value>, file: FileId) -> bool {
        if self.limit == 0 {
            self.prune_one();
            return false;
        }
        // Fast path (shared lock): reject candidates provably outside the
        // bound without serializing the worker pool. The worst rank only
        // ever tightens, so a reject decided on a stale snapshot is still
        // safe — and an admitted file's re-offer must fall through to the
        // dedup logic below.
        {
            let state = self.state.read().unwrap_or_else(std::sync::PoisonError::into_inner);
            if state.best.len() >= self.limit && !state.best.contains_key(&file) {
                // At capacity, the heap's peek is the worst possibly-live
                // pair: real-worst-or-better, so ranking not-better than
                // it proves the candidate is outside the bound.
                if let Some(worst) = state.heap.peek() {
                    let rank = self.order.cmp_keys(key, file, worst.key.as_ref(), worst.file);
                    if rank != Ordering::Less {
                        drop(state);
                        self.prune_one();
                        return false;
                    }
                }
            }
        }
        let mut state = self.state.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(best) = state.best.get(&file) {
            // The file is already retained: the merge de-duplicates by
            // file keeping the better-ranked copy, so only a strictly
            // better re-offer matters — record it without consuming a
            // second slot. A not-better copy can never reach the output.
            let rank = self.order.cmp_keys(key, file, best.as_ref(), file);
            if rank == Ordering::Less {
                state.best.insert(file, key.cloned());
                state.heap.push(RankedKey { key: key.cloned(), file, order: self.order });
                return true;
            }
            drop(state);
            self.prune_one();
            return false;
        }
        if state.best.len() >= self.limit {
            match state.live_worst() {
                Some((worst_key, worst_file)) => {
                    let rank = self.order.cmp_keys(key, file, worst_key.as_ref(), worst_file);
                    if rank != Ordering::Less {
                        drop(state);
                        self.prune_one();
                        return false;
                    }
                    state.heap.pop();
                    state.best.remove(&worst_file);
                }
                None => unreachable!("best is non-empty at capacity, so a live worst exists"),
            }
        }
        state.best.insert(file, key.cloned());
        state.heap.push(RankedKey { key: key.cloned(), file, order: self.order });
        true
    }

    /// Number of candidates pruned so far (the `bound_pruned` witness).
    pub fn pruned(&self) -> usize {
        self.pruned.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// K-way merges per-source sorted hit lists into one sorted, de-duplicated
/// (by file id), limit-truncated list — the aggregation step of the search
/// fan-out.
pub fn merge_sorted_hits(lists: Vec<Vec<Hit>>, sort: &SortKey, limit: Option<usize>) -> Vec<Hit> {
    let mut sources: Vec<std::vec::IntoIter<Hit>> = lists.into_iter().map(Vec::into_iter).collect();
    merge_hit_sources(&mut sources, sort, limit)
}

/// The generalized k-way merge beneath [`merge_sorted_hits`]: sources are
/// arbitrary iterators yielding hits in request sort order, pulled
/// **lazily** — once `limit` distinct hits are admitted, no source is
/// advanced further. With lazily-evaluated sources (the node-global merge
/// over per-ACG ordered candidate streams) that early exit is what bounds
/// a multi-ACG node's work at `k` total admitted hits instead of `k` per
/// ACG. Sources are taken by `&mut` so the caller can inspect how far each
/// was advanced afterwards.
pub fn merge_hit_sources<I>(sources: &mut [I], sort: &SortKey, limit: Option<usize>) -> Vec<Hit>
where
    I: Iterator<Item = Hit>,
{
    let mut merger = HitMerger::new(sort, limit);
    let mut out = Vec::new();
    while let Some(hit) = merger.next_hit(sources) {
        out.push(hit);
    }
    out
}

/// A primed head in a [`HitMerger`] heap: the next un-emitted hit of one
/// source. Ordering is reversed so `BinaryHeap`'s max-heap pops the *best*
/// next hit.
struct MergeHead {
    hit: Hit,
    source: usize,
    order: KeyOrder,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for MergeHead {}
impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> Ordering {
        other.order.cmp_hits(&other.hit, &self.hit)
    }
}

/// A **stateful** k-way hit merge that survives across output pages.
///
/// [`merge_hit_sources`] builds a fresh heap per call and drops un-emitted
/// source heads on return, so calling it once per page would silently lose
/// every primed hit between pages. `HitMerger` owns the heap, the
/// de-duplication set and the admitted count for the lifetime of a search,
/// letting a paginating caller pull one page at a time while the
/// underlying node sessions stay open — deep pagination advances each
/// source exactly as far as the merged prefix needs, never re-reading.
///
/// Sources are passed to each call (they live beside the merger in the
/// caller); the merger addresses them by slice index, so the caller must
/// pass the same sources in the same order every time. A source that
/// returns `None` is never polled again — transient exhaustion must be
/// absorbed inside the source itself (the replica streams do exactly that
/// for session-expiry reopens and replica failover).
pub struct HitMerger {
    order: KeyOrder,
    limit: Option<usize>,
    heap: BinaryHeap<MergeHead>,
    seen: std::collections::HashSet<FileId>,
    admitted: usize,
    primed: bool,
    /// Source whose head was emitted but not yet re-primed. Refilling is
    /// deferred to the next pop so a source is never advanced past the
    /// last hit the merge actually needed — pulling eagerly here would
    /// fetch one extra page from whichever node served the final hit.
    pending_refill: Option<usize>,
}

impl HitMerger {
    /// A merger emitting hits in `sort` order, at most `limit` of them
    /// across all calls.
    pub fn new(sort: &SortKey, limit: Option<usize>) -> Self {
        HitMerger {
            order: sort.order(),
            limit,
            heap: BinaryHeap::new(),
            seen: std::collections::HashSet::new(),
            admitted: 0,
            primed: false,
            pending_refill: None,
        }
    }

    /// Distinct hits admitted so far across all calls.
    pub fn admitted(&self) -> usize {
        self.admitted
    }

    /// Whether the limit has been reached (no further hit will be emitted).
    pub fn done(&self) -> bool {
        self.limit.is_some_and(|k| self.admitted >= k)
    }

    /// Emits the next merged hit, advancing whichever source it came from.
    /// `None` once the limit is reached or every source is exhausted.
    pub fn next_hit<I>(&mut self, sources: &mut [I]) -> Option<Hit>
    where
        I: Iterator<Item = Hit>,
    {
        if self.done() {
            return None;
        }
        if !self.primed {
            self.primed = true;
            for (i, iter) in sources.iter_mut().enumerate() {
                if let Some(hit) = iter.next() {
                    self.heap.push(MergeHead { hit, source: i, order: self.order });
                }
            }
        }
        loop {
            if let Some(source) = self.pending_refill.take() {
                if let Some(next) = sources[source].next() {
                    self.heap.push(MergeHead { hit: next, source, order: self.order });
                }
            }
            let MergeHead { hit, source, .. } = self.heap.pop()?;
            self.pending_refill = Some(source);
            if self.seen.insert(hit.file) {
                self.admitted += 1;
                return Some(hit);
            }
        }
    }
}

/// Runs a request against a plain record collection (no ACG partitioning,
/// no access paths — a linear evaluate/sort/paginate/project pass). The
/// evaluation baselines use this so every system answers the same
/// [`SearchRequest`] API with identical result-shaping semantics.
pub fn run_local_search<I>(records: I, request: &SearchRequest) -> SearchResponse
where
    I: IntoIterator<Item = FileRecord>,
{
    let mut topk = TopK::new(&request.sort, request.limit);
    let mut scanned = 0usize;
    for record in records {
        scanned += 1;
        if !matches_record(&record, &request.predicate) {
            continue;
        }
        let key = request.sort.key_of(&record);
        if let Some(cursor) = &request.cursor {
            if !cursor.admits(&request.sort, key.as_ref(), record.file) {
                continue;
            }
        }
        topk.push(Hit::of_record(&record, None, &request.sort, &request.projection));
    }
    let retained_peak = topk.peak_retained();
    let hits = topk.into_sorted();
    let cursor = next_cursor(&hits, request.limit);
    SearchResponse {
        hits,
        complete: true,
        unreachable: Vec::new(),
        stats: SearchStats { candidates_scanned: scanned, retained_peak, ..SearchStats::default() },
        cursor,
    }
}

/// The continuation cursor for a result page: present exactly when the
/// page is full (`limit` reached), i.e. more results may exist.
pub fn next_cursor(hits: &[Hit], limit: Option<usize>) -> Option<Cursor> {
    match (limit, hits.last()) {
        (Some(k), Some(last)) if hits.len() >= k => Some(Cursor::after(last)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_types::InodeAttrs;

    fn rec(file: u64, size: u64) -> FileRecord {
        FileRecord::new(FileId::new(file), InodeAttrs::builder().size(size).build())
    }

    fn hit(file: u64, key: Option<u64>) -> Hit {
        Hit { file: FileId::new(file), acg: None, attrs: Vec::new(), sort_key: key.map(Value::U64) }
    }

    #[test]
    fn topk_retains_best_k_and_tracks_peak() {
        let sort = SortKey::Descending(AttrName::Size);
        let mut topk = TopK::new(&sort, Some(3));
        for i in 0..100u64 {
            topk.push(hit(i, Some(i)));
        }
        assert!(topk.peak_retained() <= 3, "peak {}", topk.peak_retained());
        let hits = topk.into_sorted();
        let files: Vec<u64> = hits.iter().map(|h| h.file.raw()).collect();
        assert_eq!(files, vec![99, 98, 97]);
    }

    #[test]
    fn topk_unlimited_keeps_everything_sorted() {
        let mut topk = TopK::new(&SortKey::FileId, None);
        for i in [5u64, 1, 9, 3] {
            topk.push(hit(i, None));
        }
        let files: Vec<u64> = topk.into_sorted().iter().map(|h| h.file.raw()).collect();
        assert_eq!(files, vec![1, 3, 5, 9]);
    }

    #[test]
    fn merge_dedups_and_truncates() {
        let a = vec![hit(1, None), hit(3, None), hit(5, None)];
        let b = vec![hit(2, None), hit(3, None), hit(6, None)];
        let merged = merge_sorted_hits(vec![a, b], &SortKey::FileId, Some(4));
        let files: Vec<u64> = merged.iter().map(|h| h.file.raw()).collect();
        assert_eq!(files, vec![1, 2, 3, 5]);
    }

    #[test]
    fn hit_merger_pages_match_the_one_shot_merge() {
        let a = vec![hit(1, None), hit(3, None), hit(5, None), hit(9, None)];
        let b = vec![hit(2, None), hit(3, None), hit(6, None)];
        let c = vec![hit(4, None), hit(7, None), hit(8, None)];
        let one_shot =
            merge_sorted_hits(vec![a.clone(), b.clone(), c.clone()], &SortKey::FileId, Some(7));

        let mut sources: Vec<std::vec::IntoIter<Hit>> =
            vec![a.into_iter(), b.into_iter(), c.into_iter()];
        let mut merger = HitMerger::new(&SortKey::FileId, Some(7));
        let mut paged = Vec::new();
        // Pull in pages of 2: the merger's heap and seen-set must carry
        // primed heads across page boundaries.
        loop {
            let mut page = Vec::new();
            while page.len() < 2 {
                match merger.next_hit(&mut sources) {
                    Some(h) => page.push(h),
                    None => break,
                }
            }
            if page.is_empty() {
                break;
            }
            paged.extend(page);
        }
        assert_eq!(paged, one_shot);
        assert_eq!(merger.admitted(), 7);
        assert!(merger.done());
        assert!(merger.next_hit(&mut sources).is_none());
    }

    #[test]
    fn hit_merger_never_advances_a_source_past_the_limit() {
        let a = vec![hit(1, None), hit(2, None), hit(3, None)];
        let b = vec![hit(10, None), hit(11, None)];
        let mut sources: Vec<std::vec::IntoIter<Hit>> = vec![a.into_iter(), b.into_iter()];
        let mut merger = HitMerger::new(&SortKey::FileId, Some(2));
        assert_eq!(merger.next_hit(&mut sources).unwrap().file.raw(), 1);
        assert_eq!(merger.next_hit(&mut sources).unwrap().file.raw(), 2);
        assert!(merger.next_hit(&mut sources).is_none());
        // The winning source's refill is deferred, so after the limit its
        // third hit was never pulled — and source b never moved past the
        // one hit priming took.
        assert_eq!(sources[0].next().unwrap().file.raw(), 3);
        assert_eq!(sources[1].next().unwrap().file.raw(), 11);
    }

    #[test]
    fn cursor_pages_are_disjoint_and_exhaustive() {
        let records: Vec<FileRecord> = (0..25u64).map(|i| rec(i, i)).collect();
        let base = SearchRequest::new(Predicate::True).with_limit(10);
        let mut all = Vec::new();
        let mut cursor = None;
        loop {
            let mut req = base.clone();
            if let Some(c) = cursor.take() {
                req = req.after(c);
            }
            let resp = run_local_search(records.clone(), &req);
            if resp.hits.is_empty() {
                assert!(resp.cursor.is_none());
                break;
            }
            all.extend(resp.file_ids());
            match resp.cursor {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        let expected: Vec<FileId> = (0..25u64).map(FileId::new).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn descending_sort_with_ties_breaks_on_file_id() {
        let records = vec![rec(3, 10), rec(1, 10), rec(2, 99)];
        let req =
            SearchRequest::new(Predicate::True).sorted_by(SortKey::Descending(AttrName::Size));
        let resp = run_local_search(records, &req);
        let files: Vec<u64> = resp.hits.iter().map(|h| h.file.raw()).collect();
        assert_eq!(files, vec![2, 1, 3]);
    }

    #[test]
    fn projection_selects_attributes() {
        let record = rec(1, 42).with_keyword("kw").with_custom("energy", Value::F64(-1.0));
        let ids = Projection::Ids.project(&record);
        assert!(ids.is_empty());
        let some = Projection::Attrs(vec![AttrName::Size, AttrName::Keyword]).project(&record);
        assert_eq!(
            some,
            vec![(AttrName::Size, Value::U64(42)), (AttrName::Keyword, Value::from("kw"))]
        );
        let full = Projection::Full.project(&record);
        assert!(full.len() >= 9, "all inode attrs + keyword + custom: {full:?}");
    }

    #[test]
    fn sort_by_multivalued_attribute_is_rejected() {
        let req =
            SearchRequest::new(Predicate::True).sorted_by(SortKey::Ascending(AttrName::Keyword));
        assert!(req.validate().is_err());
        let req = SearchRequest::new(Predicate::True)
            .sorted_by(SortKey::Ascending(AttrName::custom("x")));
        assert!(req.validate().is_err());
        assert!(SearchRequest::new(Predicate::True).validate().is_ok());
    }

    #[test]
    fn relevance_sort_orders_by_descending_score_with_file_tiebreak() {
        let sort = SortKey::Relevance;
        let score = |file: u64, s: f64| Hit {
            file: FileId::new(file),
            acg: None,
            attrs: Vec::new(),
            sort_key: Some(Value::F64(s)),
        };
        let mut topk = TopK::new(&sort, Some(3));
        for hit in [score(5, 1.0), score(1, 2.5), score(9, 2.5), score(2, 0.1), score(3, 7.0)] {
            topk.push(hit);
        }
        let files: Vec<u64> = topk.into_sorted().iter().map(|h| h.file.raw()).collect();
        assert_eq!(files, vec![3, 1, 9], "best score first, ties break on ascending file id");
    }

    #[test]
    fn relevance_sort_requires_a_contains_term() {
        use crate::ast::ContainsMode;
        let bad = SearchRequest::new(Predicate::True).sorted_by(SortKey::Relevance);
        assert!(bad.validate().is_err());
        let good = SearchRequest::new(Predicate::contains(vec!["tax"], ContainsMode::All))
            .sorted_by(SortKey::Relevance);
        assert!(good.validate().is_ok());
    }

    #[test]
    fn topk_floor_appears_only_at_capacity() {
        let mut topk = TopK::new(&SortKey::Relevance, Some(2));
        assert!(topk.floor().is_none(), "empty");
        topk.push(hit(1, None));
        assert!(topk.floor().is_none(), "below capacity");
        topk.push(hit(2, None));
        let (key, file) = topk.floor().expect("at capacity");
        assert_eq!((key, file), (None, FileId::new(2)), "worst retained = highest file id");
        assert!(TopK::new(&SortKey::FileId, None).floor().is_none(), "unlimited has no floor");
    }

    #[test]
    fn stats_absorb_sums_and_maxes() {
        let mut a = SearchStats {
            acgs_consulted: 1,
            candidates_scanned: 10,
            records_resolved: 6,
            retained_peak: 5,
            access_paths: vec![(AcgId::new(1), AccessPathKind::FullScan)],
            ordered_by_count: 1,
            candidates_skipped: 100,
            early_terminated: 1,
            merge_skipped: 40,
            bound_pruned: 3,
            pages_pulled: 1,
            hits_shipped: 5,
            node_hits_unsent: 2,
            wand_blocks_skipped: 4,
            wand_docs_pruned: 250,
            hedges_fired: 2,
            hedges_won: 1,
            replica_failovers: 1,
            epoch_pins: 1,
            commits_during_search: 3,
            elapsed: Duration::from_micros(5),
            node_elapsed: vec![(NodeId::new(1), Duration::from_micros(5))],
        };
        a.absorb(SearchStats {
            acgs_consulted: 2,
            candidates_scanned: 7,
            records_resolved: 0,
            retained_peak: 9,
            access_paths: vec![(AcgId::new(2), AccessPathKind::HashEq)],
            ordered_by_count: 2,
            candidates_skipped: 50,
            early_terminated: 2,
            merge_skipped: 10,
            bound_pruned: 4,
            pages_pulled: 2,
            hits_shipped: 7,
            node_hits_unsent: 93,
            wand_blocks_skipped: 6,
            wand_docs_pruned: 50,
            hedges_fired: 1,
            hedges_won: 1,
            replica_failovers: 2,
            epoch_pins: 2,
            commits_during_search: 4,
            elapsed: Duration::from_micros(3),
            node_elapsed: vec![(NodeId::new(2), Duration::from_micros(3))],
        });
        assert_eq!(a.acgs_consulted, 3);
        assert_eq!(a.candidates_scanned, 17);
        assert_eq!(a.records_resolved, 6);
        assert_eq!(a.retained_peak, 9);
        assert_eq!(a.access_paths.len(), 2);
        assert_eq!(a.ordered_by_count, 3);
        assert_eq!(a.candidates_skipped, 150);
        assert_eq!(a.early_terminated, 3);
        assert_eq!(a.merge_skipped, 50);
        assert_eq!(a.bound_pruned, 7);
        assert_eq!(a.pages_pulled, 3);
        assert_eq!(a.hits_shipped, 12);
        assert_eq!(a.node_hits_unsent, 95);
        assert_eq!(a.wand_blocks_skipped, 10);
        assert_eq!(a.wand_docs_pruned, 300);
        assert_eq!(a.hedges_fired, 3);
        assert_eq!(a.hedges_won, 2);
        assert_eq!(a.replica_failovers, 3);
        assert_eq!(a.epoch_pins, 3);
        assert_eq!(a.commits_during_search, 7);
        assert_eq!(a.elapsed, Duration::from_micros(5), "slowest node wins");
        assert_eq!(
            a.node_elapsed,
            vec![
                (NodeId::new(1), Duration::from_micros(5)),
                (NodeId::new(2), Duration::from_micros(3)),
            ],
            "per-node attribution survives the max-fold"
        );
        assert_eq!(a.slowest_node(), Some((NodeId::new(1), Duration::from_micros(5))));
    }

    #[test]
    fn slowest_node_sums_per_node_exchanges() {
        let mut s = SearchStats::default();
        assert_eq!(s.slowest_node(), None);
        // Node 2 served two fast exchanges that *sum* past node 1's single
        // slow one — attribution must rank by total service time, not by
        // any single exchange.
        s.node_elapsed = vec![
            (NodeId::new(1), Duration::from_micros(50)),
            (NodeId::new(2), Duration::from_micros(30)),
            (NodeId::new(2), Duration::from_micros(30)),
        ];
        assert_eq!(s.slowest_node(), Some((NodeId::new(2), Duration::from_micros(60))));
    }

    #[test]
    fn global_cutoff_prunes_only_provably_outranked_candidates() {
        let cutoff = GlobalCutoff::new(&SortKey::Descending(AttrName::Size), 3);
        // First three candidates always admit.
        assert!(cutoff.try_admit(Some(&Value::U64(10)), FileId::new(1)));
        assert!(cutoff.try_admit(Some(&Value::U64(30)), FileId::new(2)));
        assert!(cutoff.try_admit(Some(&Value::U64(20)), FileId::new(3)));
        // Worse than the retained worst (10): pruned.
        assert!(!cutoff.try_admit(Some(&Value::U64(5)), FileId::new(4)));
        // Equal key, higher file id than the worst's tie-break: pruned.
        assert!(!cutoff.try_admit(Some(&Value::U64(10)), FileId::new(9)));
        // Better: admitted, evicting the old worst — 5 can never re-enter.
        assert!(cutoff.try_admit(Some(&Value::U64(40)), FileId::new(5)));
        assert!(!cutoff.try_admit(Some(&Value::U64(15)), FileId::new(6)));
        assert_eq!(cutoff.pruned(), 3);
    }

    #[test]
    fn global_cutoff_counts_distinct_files_not_copies() {
        // The merge de-duplicates by file id, so two ACGs offering the
        // same file must consume ONE slot of the bound — otherwise a hit
        // that belongs in the merged top-k gets pruned.
        let cutoff = GlobalCutoff::new(&SortKey::Descending(AttrName::Size), 2);
        assert!(cutoff.try_admit(Some(&Value::U64(100)), FileId::new(1)), "ACG A's copy of X");
        assert!(
            !cutoff.try_admit(Some(&Value::U64(100)), FileId::new(1)),
            "ACG B's identical copy is redundant (merge keeps one)"
        );
        assert!(
            cutoff.try_admit(Some(&Value::U64(50)), FileId::new(2)),
            "Y is the 2nd distinct file of the node-wide top-2; the \
             duplicate of X must not have consumed its slot"
        );
        // A better-ranked copy of an admitted file upgrades its rank
        // without consuming a slot; a worse copy is pruned.
        assert!(cutoff.try_admit(Some(&Value::U64(120)), FileId::new(1)));
        assert!(!cutoff.try_admit(Some(&Value::U64(90)), FileId::new(1)));
        // The bound still evicts correctly afterwards: a 3rd distinct
        // file beats Y(50) and replaces it, a worse one is pruned.
        assert!(!cutoff.try_admit(Some(&Value::U64(40)), FileId::new(3)));
        assert!(cutoff.try_admit(Some(&Value::U64(60)), FileId::new(3)));
        assert!(!cutoff.try_admit(Some(&Value::U64(55)), FileId::new(2)), "Y was evicted");
    }

    #[test]
    fn global_cutoff_limit_zero_prunes_everything() {
        let cutoff = GlobalCutoff::new(&SortKey::FileId, 0);
        assert!(!cutoff.try_admit(None, FileId::new(1)));
        assert_eq!(cutoff.pruned(), 1);
    }

    #[test]
    fn merge_hit_sources_stops_pulling_at_the_limit() {
        // Two sorted sources of 100 hits each; a limit-3 merge must admit 3
        // and leave the tails unpulled (the node-global cutoff witness).
        let a: Vec<Hit> = (0..100u64).map(|i| hit(i * 2, None)).collect();
        let b: Vec<Hit> = (0..100u64).map(|i| hit(i * 2 + 1, None)).collect();
        let mut sources = vec![a.into_iter(), b.into_iter()];
        let merged = merge_hit_sources(&mut sources, &SortKey::FileId, Some(3));
        let files: Vec<u64> = merged.iter().map(|h| h.file.raw()).collect();
        assert_eq!(files, vec![0, 1, 2]);
        // Each source gave up at most 2 hits (1 primed + 1 replacement).
        assert!(sources[0].len() >= 98, "source a over-pulled: {}", sources[0].len());
        assert!(sources[1].len() >= 98, "source b over-pulled: {}", sources[1].len());
    }

    #[test]
    fn merge_limit_zero_is_empty() {
        let a = vec![hit(1, None)];
        assert!(merge_sorted_hits(vec![a], &SortKey::FileId, Some(0)).is_empty());
    }
}
