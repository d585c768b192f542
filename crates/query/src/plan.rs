//! The query planner: analyse once, cost per ACG.
//!
//! The executor post-filters every candidate with the part of the
//! predicate its access path does not prove, so a plan's only obligation
//! is to produce a *superset* of the matching files as cheaply as
//! possible. Planning is split so each half is paid where it varies:
//!
//! * **Analyse** (`Analysis`, once per request — a node request analyses
//!   once for all of its ACGs): fold the conjuncts into per-attribute
//!   intervals, list the equality conjuncts and `contains` terms, and note
//!   whether the request is a top-k over a builtin sort attribute (a
//!   *walk* candidate). Nothing here looks at an index.
//! * **Choose** (`Analysis::choose`, once per ACG): catalogue checks and,
//!   where a decision hangs on it, one posting-count probe. In priority
//!   order:
//!
//!   1. `contains` conjuncts with an inverted index → postings merge (the
//!      only path that can also score relevance); no count is read,
//!   2. a walk candidate whose predicate constrains no *other* indexed
//!      attribute → ordered scan of the sort attribute's B+-tree, bounded
//!      by the predicate's interval on it, ending after `limit` hits,
//!   3. equality on a hash-indexed attribute → hash probe; of several
//!      such equalities the one with the **shortest posting list**,
//!   4. two or more constrained attributes under one K-D index over
//!      builtin inode attributes, bounded by `U64`s → K-D box,
//!   5. a constrained attribute with a B+-tree → B+-tree range scan
//!      (two-sided ranges, equalities included, before one-sided ones),
//!   6. otherwise → full scan,
//!
//!   and where 3 or 5 came out as a *point probe* of `n` postings for a
//!   walk candidate, the counts decide between the probe and the walk.
//!
//! ## Probe or walk
//!
//! ACGs are access-correlated, so one equality's selectivity differs
//! wildly between the ACGs of one request: `keyword:app3` is on every
//! record of the few groups filled from that application's files and on
//! none of the rest. The probe hands all `n` postings to the top-k heap.
//! The walk visits records in result order and stops at `limit` admitted
//! hits; with the `n` holders spread evenly over the sort order of the
//! group's `len` records it examines about `limit · len / n` of them. The
//! walk is chosen when `C` times that is still shorter than the list:
//!
//! ```text
//! C · limit · len  <  n²          (C = 4)
//! ```
//!
//! `C` covers what the estimate leaves out: the rest of the residual
//! (`size>K` beside the keyword) rejecting some holders, and a walked
//! candidate costing more than a probed one (the whole residual per
//! record, against one key compare with the top-k floor). `n` and `len`
//! are exact and free — the length of a list and of a tree in the epoch
//! the search already pinned — so the choice repeats exactly on equal
//! data. `n = 0` keeps the probe: an empty list answers without touching
//! a record.
//!
//! **Regret is bounded**: a walk never examines more than the `len`
//! records of its own ACG, and is only chosen where the probe would have
//! examined at least `√(C · limit · len)` — against a residual that
//! matches nothing, at most `√(len / (C · limit))` times the probe (3.5×
//! for a top-100 over a 5,000-record ACG), in that ACG only.

use std::ops::Bound;

use propeller_index::{AcgEpoch, IndexKind};
use propeller_types::{AttrName, Value};

use crate::ast::{CompareOp, ContainsMode, Predicate};
use crate::request::SearchRequest;

/// What the planner needs to know about a group's indices.
///
/// Implemented for [`AcgEpoch`] (and therefore usable through a deref'd
/// `AcgIndexGroup`); test doubles can implement it to exercise planning
/// without a real group.
pub trait IndexCatalog {
    /// Whether a hash index covers `attr`.
    fn has_hash(&self, attr: &AttrName) -> bool;
    /// Whether a B+-tree index covers `attr`.
    fn has_btree(&self, attr: &AttrName) -> bool;
    /// Attribute sets of the available K-D indices.
    fn kd_attr_sets(&self) -> Vec<Vec<AttrName>>;
    /// Whether an inverted (full-text) index is available.
    fn has_inverted(&self) -> bool;
    /// Number of records in the group.
    fn record_count(&self) -> usize;
    /// Exact number of records holding `value` for `attr` — the length of
    /// one posting list, read with one index probe and no record touched.
    /// `None` when no index can say; the planner then decides from the
    /// predicate's shape alone.
    fn eq_count(&self, attr: &AttrName, value: &Value) -> Option<usize>;
}

impl IndexCatalog for AcgEpoch {
    fn has_hash(&self, attr: &AttrName) -> bool {
        self.index_specs()
            .iter()
            .any(|s| s.kind == IndexKind::Hash && s.attrs.first() == Some(attr))
    }

    fn has_btree(&self, attr: &AttrName) -> bool {
        self.index_specs()
            .iter()
            .any(|s| s.kind == IndexKind::BTree && s.attrs.first() == Some(attr))
    }

    fn kd_attr_sets(&self) -> Vec<Vec<AttrName>> {
        self.index_specs()
            .iter()
            .filter(|s| s.kind == IndexKind::Kd)
            .map(|s| s.attrs.clone())
            .collect()
    }

    fn has_inverted(&self) -> bool {
        self.inverted().is_some()
    }

    fn record_count(&self) -> usize {
        self.len()
    }

    fn eq_count(&self, attr: &AttrName, value: &Value) -> Option<usize> {
        AcgEpoch::eq_count(self, attr, value)
    }
}

/// The access path selected by the planner.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Probe a hash index for an exact value.
    HashEq {
        /// Probed attribute.
        attr: AttrName,
        /// Probed value.
        value: Value,
    },
    /// Scan a B+-tree over a value range.
    BTreeRange {
        /// Scanned attribute.
        attr: AttrName,
        /// Lower bound.
        lo: Bound<Value>,
        /// Upper bound.
        hi: Bound<Value>,
    },
    /// Axis-aligned box query against a K-D index (bounds are inclusive
    /// supersets of the true predicate; the post-filter trims).
    KdBox {
        /// The K-D index's attribute set, in index order.
        attrs: Vec<AttrName>,
        /// Inclusive lower corner.
        lo: Vec<f64>,
        /// Inclusive upper corner.
        hi: Vec<f64>,
    },
    /// Merge the inverted index's postings lists for the given terms —
    /// document-at-a-time, conjunctive (`All`/`Phrase`, whose adjacency
    /// the merge checks on positions) or disjunctive (`Any`). Under a
    /// relevance sort the executor scores each admitted document with
    /// BM25 and prunes postings blocks with WAND-style max-score bounds.
    Postings {
        /// The tokenized query terms driving the merge.
        terms: Vec<String>,
        /// Conjunctive or disjunctive merge.
        mode: ContainsMode,
    },
    /// Walk a B+-tree over the request's sort attribute *in result order*
    /// (bounded by any predicate interval on that attribute). Emitted only
    /// for limited, attribute-sorted requests: because candidates arrive
    /// in final order, the executor checks the residual predicate per
    /// record and terminates after `limit` admitted hits — exact semantics
    /// with early termination.
    OrderedScan {
        /// The sort (and scan) attribute; always a single-valued builtin.
        attr: AttrName,
        /// Lower scan bound from the predicate's interval on `attr`.
        lo: Bound<Value>,
        /// Upper scan bound from the predicate's interval on `attr`.
        hi: Bound<Value>,
        /// Walk the tree from the top instead of the bottom.
        descending: bool,
    },
    /// Fall back to scanning every record.
    FullScan,
}

impl AccessPath {
    /// The `(attr, value)` whose single posting list this path reads: a
    /// hash probe, or a B+-tree range closed on one value.
    fn point(&self) -> Option<(&AttrName, &Value)> {
        match self {
            AccessPath::HashEq { attr, value } => Some((attr, value)),
            AccessPath::BTreeRange { attr, lo: Bound::Included(lo), hi: Bound::Included(hi) }
                if lo == hi =>
            {
                Some((attr, lo))
            }
            _ => None,
        }
    }
}

/// A completed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The access path producing the candidate superset.
    pub path: AccessPath,
}

/// Per-attribute bound accumulator.
#[derive(Debug, Clone)]
struct Interval {
    lo: Bound<Value>,
    hi: Bound<Value>,
    eq: Option<Value>,
}

impl Default for Interval {
    fn default() -> Self {
        Interval { lo: Bound::Unbounded, hi: Bound::Unbounded, eq: None }
    }
}

impl Interval {
    fn tighten(&mut self, op: CompareOp, value: &Value) {
        match op {
            CompareOp::Eq => self.eq = Some(value.clone()),
            CompareOp::Gt => self.raise_lo(Bound::Excluded(value.clone())),
            CompareOp::Ge => self.raise_lo(Bound::Included(value.clone())),
            CompareOp::Lt => self.lower_hi(Bound::Excluded(value.clone())),
            CompareOp::Le => self.lower_hi(Bound::Included(value.clone())),
            CompareOp::Ne => {}
        }
    }

    fn raise_lo(&mut self, new: Bound<Value>) {
        let existing = bound_value(&self.lo);
        let candidate = bound_value(&new);
        match (existing, candidate) {
            (None, _) => self.lo = new,
            (Some(e), Some(c)) if c > e => self.lo = new,
            _ => {}
        }
    }

    fn lower_hi(&mut self, new: Bound<Value>) {
        let existing = bound_value(&self.hi);
        let candidate = bound_value(&new);
        match (existing, candidate) {
            (None, _) => self.hi = new,
            (Some(e), Some(c)) if c < e => self.hi = new,
            _ => {}
        }
    }

    fn is_constrained(&self) -> bool {
        self.eq.is_some()
            || !matches!(self.lo, Bound::Unbounded)
            || !matches!(self.hi, Bound::Unbounded)
    }

    fn two_sided(&self) -> bool {
        self.eq.is_some()
            || (!matches!(self.lo, Bound::Unbounded) && !matches!(self.hi, Bound::Unbounded))
    }

    /// Whether every bound is a `U64`, the kind every builtin inode
    /// attribute holds: only then does [`Interval::to_box`] project it
    /// monotonically (a string hashes; another kind orders by kind tag).
    fn bounds_are_u64(&self) -> bool {
        [bound_value(&self.lo), bound_value(&self.hi), self.eq.as_ref()]
            .into_iter()
            .flatten()
            .all(|v| matches!(v, Value::U64(_)))
    }

    /// The scan bounds this interval folds to: the equality's point when
    /// there is one, the accumulated range otherwise.
    fn bounds(&self) -> (Bound<Value>, Bound<Value>) {
        match &self.eq {
            Some(eq) => (Bound::Included(eq.clone()), Bound::Included(eq.clone())),
            None => (self.lo.clone(), self.hi.clone()),
        }
    }

    /// Inclusive f64 projection of this interval for a K-D box (a superset:
    /// exclusive bounds are widened to inclusive).
    fn to_box(&self) -> (f64, f64) {
        if let Some(eq) = &self.eq {
            let p = eq.axis_projection();
            return (p, p);
        }
        let lo = match &self.lo {
            Bound::Included(v) | Bound::Excluded(v) => v.axis_projection(),
            Bound::Unbounded => f64::NEG_INFINITY,
        };
        let hi = match &self.hi {
            Bound::Included(v) | Bound::Excluded(v) => v.axis_projection(),
            Bound::Unbounded => f64::INFINITY,
        };
        (lo, hi)
    }
}

fn bound_value(b: &Bound<Value>) -> Option<&Value> {
    match b {
        Bound::Included(v) | Bound::Excluded(v) => Some(v),
        Bound::Unbounded => None,
    }
}

/// How many times its expected length an ordered walk may cost and still
/// be preferred to a point probe (see "Probe or walk" in the module docs).
/// A constant of the cost model, not a tunable.
const WALK_COST: usize = 4;

/// Whether walking the sort order of a `len`-record group for `limit` hits
/// is expected to examine fewer records than a point probe's `n` postings:
/// `WALK_COST · limit · len < n²`.
fn walk_is_shorter(limit: usize, len: usize, n: usize) -> bool {
    WALK_COST.saturating_mul(limit).saturating_mul(len) < n.saturating_mul(n)
}

/// The sort-order walk a limited request sorted by a builtin attribute
/// could run wherever a B+-tree covers that attribute.
struct Walk {
    attr: AttrName,
    descending: bool,
    limit: usize,
}

/// Everything planning reads off the request itself — derived once, then
/// [`Analysis::choose`]n against each ACG's catalogue.
pub(crate) struct Analysis {
    /// Folded bounds per compared attribute, in order of first appearance
    /// (so equal-scoring choices fall the same way on every call).
    intervals: Vec<(AttrName, Interval)>,
    /// Every equality conjunct (`keyword:w`, `attr = v`), in predicate
    /// order: the candidates for a point probe. A multi-valued attribute
    /// may appear more than once.
    eqs: Vec<(AttrName, Value)>,
    /// The postings merge serving the `contains` conjuncts. Every
    /// conjunctive (`All`/`Phrase`) conjunct folds into one merged
    /// conjunctive term set — the intersection of their postings is still
    /// a superset of the full predicate (the merge checks phrase adjacency
    /// on positions). With only disjunctive conjuncts, the first one drives
    /// an `Any` merge (the others post-filter).
    postings: Option<AccessPath>,
    walk: Option<Walk>,
}

impl Analysis {
    /// Analyses a full request: unlike a bare predicate, its sort and
    /// limit can make it a walk candidate.
    pub(crate) fn of(request: &SearchRequest) -> Self {
        let walk = match (request.limit, request.sort.attr()) {
            (Some(limit), Some(attr)) if attr.is_inode_attr() => {
                Some(Walk { attr: attr.clone(), descending: request.sort.is_descending(), limit })
            }
            _ => None,
        };
        Analysis { walk, ..Analysis::of_predicate(&request.predicate) }
    }

    fn of_predicate(pred: &Predicate) -> Self {
        let mut intervals: Vec<(AttrName, Interval)> = Vec::new();
        let mut eqs: Vec<(AttrName, Value)> = Vec::new();
        let mut conjunctive: Vec<String> = Vec::new();
        let mut first_any: Option<&[String]> = None;
        let mut compare = |attr: &AttrName, op: CompareOp, value: &Value| {
            let at = intervals.iter().position(|(a, _)| a == attr).unwrap_or_else(|| {
                intervals.push((attr.clone(), Interval::default()));
                intervals.len() - 1
            });
            intervals[at].1.tighten(op, value);
            if op == CompareOp::Eq {
                eqs.push((attr.clone(), value.clone()));
            }
        };
        for conjunct in pred.conjuncts() {
            match conjunct {
                Predicate::Compare { attr, op, value } => compare(attr, *op, value),
                Predicate::Keyword(w) => {
                    compare(&AttrName::Keyword, CompareOp::Eq, &Value::from(w.as_str()));
                }
                Predicate::Contains { terms, mode: ContainsMode::Any } => {
                    first_any = first_any.or(Some(terms));
                }
                Predicate::Contains { terms, .. } => {
                    for term in terms {
                        if !conjunctive.contains(term) {
                            conjunctive.push(term.clone());
                        }
                    }
                }
                _ => {}
            }
        }
        let postings = if !conjunctive.is_empty() {
            Some(AccessPath::Postings { terms: conjunctive, mode: ContainsMode::All })
        } else {
            first_any.map(|terms| AccessPath::Postings {
                terms: terms.to_vec(),
                mode: ContainsMode::Any,
            })
        };
        Analysis { intervals, eqs, postings, walk: None }
    }

    fn interval(&self, attr: &AttrName) -> Option<&Interval> {
        self.intervals.iter().find(|(a, _)| a == attr).map(|(_, iv)| iv)
    }

    /// Chooses this request's access path in one ACG, and reports whether
    /// the posting counts turned a point probe into the ordered walk.
    pub(crate) fn choose<C: IndexCatalog + ?Sized>(&self, catalog: &C) -> (Plan, bool) {
        // A term's postings list is typically far shorter than the group,
        // and only this path can score relevance.
        if let (Some(path), true) = (&self.postings, catalog.has_inverted()) {
            return (Plan { path: path.clone() }, false);
        }
        let walk = self.walk.as_ref().filter(|walk| catalog.has_btree(&walk.attr));
        if let Some(walk) = walk {
            if !self.indexed_elsewhere(catalog, &walk.attr) {
                return (self.ordered(walk), false);
            }
        }
        let path = match self.shortest_hash_probe(catalog) {
            Some((attr, value)) => AccessPath::HashEq { attr: attr.clone(), value: value.clone() },
            None => self.kd_or_range(catalog),
        };
        if let (Some(walk), Some((attr, value))) = (walk, path.point()) {
            let n = catalog.eq_count(attr, value);
            if n.is_some_and(|n| walk_is_shorter(walk.limit, catalog.record_count(), n)) {
                return (self.ordered(walk), true);
            }
        }
        (Plan { path }, false)
    }

    /// Whether the predicate constrains an attribute other than `sort` that
    /// an index of this ACG could serve (hash for an equality, B+-tree or
    /// K-D for any bound). Short of a posting count, "another index
    /// applies" is the selectivity proxy that keeps the walk away from a
    /// residual that may match almost nothing. A constraint on `sort`
    /// itself is fine: it tightens the walk's own bounds.
    fn indexed_elsewhere<C: IndexCatalog + ?Sized>(&self, catalog: &C, sort: &AttrName) -> bool {
        self.intervals.iter().any(|(attr, iv)| {
            attr != sort
                && iv.is_constrained()
                && ((iv.eq.is_some() && catalog.has_hash(attr))
                    || catalog.has_btree(attr)
                    || catalog.kd_attr_sets().iter().any(|set| set.contains(attr)))
        })
    }

    /// The hash-probe-able equality with the shortest posting list (the
    /// first in predicate order among equals). Lengths are only read once
    /// there is a choice to make.
    fn shortest_hash_probe<C: IndexCatalog + ?Sized>(
        &self,
        catalog: &C,
    ) -> Option<&(AttrName, Value)> {
        let mut hashed = self.eqs.iter().filter(|(attr, _)| catalog.has_hash(attr));
        let first = hashed.next()?;
        let Some(second) = hashed.next() else { return Some(first) };
        let len = |eq: &&(AttrName, Value)| catalog.eq_count(&eq.0, &eq.1).unwrap_or(usize::MAX);
        [first, second].into_iter().chain(hashed).min_by_key(len)
    }

    /// The ordered scan of `walk`, bounded by the predicate's interval on
    /// the sort attribute itself.
    fn ordered(&self, walk: &Walk) -> Plan {
        let (lo, hi) = self
            .interval(&walk.attr)
            .map_or((Bound::Unbounded, Bound::Unbounded), Interval::bounds);
        let (attr, descending) = (walk.attr.clone(), walk.descending);
        Plan { path: AccessPath::OrderedScan { attr, lo, hi, descending } }
    }

    /// The classic plan below the hash probe: K-D box, B+-tree range, or
    /// full scan. A box is a superset only over builtin inode attributes
    /// (every record has exactly one value for each, so every record is in
    /// the tree) bounded by `U64`s (so the projection keeps their order).
    fn kd_or_range<C: IndexCatalog + ?Sized>(&self, catalog: &C) -> AccessPath {
        let constrained =
            |attr: &AttrName| self.interval(attr).is_some_and(Interval::is_constrained);
        let boxable = |attr: &AttrName| {
            attr.is_inode_attr() && self.interval(attr).is_none_or(Interval::bounds_are_u64)
        };
        if self.intervals.iter().filter(|(_, iv)| iv.is_constrained()).count() >= 2 {
            for attrs in catalog.kd_attr_sets() {
                if attrs.iter().all(boxable) && attrs.iter().filter(|a| constrained(a)).count() >= 2
                {
                    let unbounded = (f64::NEG_INFINITY, f64::INFINITY);
                    let (lo, hi) = attrs
                        .iter()
                        .map(|a| self.interval(a).map_or(unbounded, Interval::to_box))
                        .unzip();
                    return AccessPath::KdBox { attrs, lo, hi };
                }
            }
        }
        // Two-sided intervals (equalities included) before one-sided ones.
        let mut best: Option<(&AttrName, &Interval)> = None;
        for (attr, iv) in &self.intervals {
            if iv.is_constrained()
                && catalog.has_btree(attr)
                && best.is_none_or(|(_, held)| iv.two_sided() && !held.two_sided())
            {
                best = Some((attr, iv));
            }
        }
        match best {
            Some((attr, iv)) => {
                let (lo, hi) = iv.bounds();
                AccessPath::BTreeRange { attr: attr.clone(), lo, hi }
            }
            None => AccessPath::FullScan,
        }
    }
}

/// Chooses an access path for a full [`SearchRequest`], which — unlike
/// [`plan`] — can exploit the request's sort and limit: a top-k request
/// sorted by a B+-tree-covered builtin attribute may walk that tree in
/// result order ([`AccessPath::OrderedScan`]) and terminate early, instead
/// of materializing the whole candidate superset and heap-selecting k.
///
/// This is "analyse, then choose" for one catalogue; the node-level
/// executors analyse once and choose per ACG (the module docs have the
/// rules, the probe-or-walk inequality and its regret bound).
pub fn plan_request<C: IndexCatalog + ?Sized>(catalog: &C, request: &SearchRequest) -> Plan {
    Analysis::of(request).choose(catalog).0
}

/// Chooses an access path for `pred` against `catalog`.
///
/// # Examples
///
/// ```
/// use propeller_index::{AcgIndexGroup, GroupConfig};
/// use propeller_query::{plan, AccessPath, Query};
/// use propeller_types::{AcgId, Timestamp};
///
/// let group = AcgIndexGroup::new(AcgId::new(1), GroupConfig::default());
/// let q = Query::parse("keyword:firefox", Timestamp::from_secs(0)).unwrap();
/// let plan = plan(&*group, &q.predicate); // a group derefs to its epoch
/// assert!(matches!(plan.path, AccessPath::HashEq { .. }));
/// ```
pub fn plan<C: IndexCatalog + ?Sized>(catalog: &C, pred: &Predicate) -> Plan {
    Analysis::of_predicate(pred).choose(catalog).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_types::Timestamp;

    #[derive(Default)]
    struct FakeCatalog {
        hash: Vec<AttrName>,
        btree: Vec<AttrName>,
        kd: Vec<Vec<AttrName>>,
        inverted: bool,
        len: usize,
        /// Posting-list lengths (a value not listed holds 0); `None` = a
        /// catalogue that cannot count.
        counts: Option<Vec<(AttrName, Value, usize)>>,
    }

    impl IndexCatalog for FakeCatalog {
        fn has_hash(&self, attr: &AttrName) -> bool {
            self.hash.contains(attr)
        }
        fn has_btree(&self, attr: &AttrName) -> bool {
            self.btree.contains(attr)
        }
        fn kd_attr_sets(&self) -> Vec<Vec<AttrName>> {
            self.kd.clone()
        }
        fn has_inverted(&self) -> bool {
            self.inverted
        }
        fn record_count(&self) -> usize {
            self.len
        }
        fn eq_count(&self, attr: &AttrName, value: &Value) -> Option<usize> {
            let counts = self.counts.as_ref()?;
            Some(counts.iter().find(|(a, v, _)| a == attr && v == value).map_or(0, |c| c.2))
        }
    }

    fn default_catalog() -> FakeCatalog {
        FakeCatalog {
            hash: vec![AttrName::Keyword],
            btree: vec![AttrName::Size, AttrName::Mtime],
            kd: vec![vec![AttrName::Size, AttrName::Mtime]],
            inverted: true,
            ..FakeCatalog::default()
        }
    }

    fn parse(s: &str) -> Predicate {
        crate::Query::parse(s, Timestamp::from_secs(100 * 86_400)).unwrap().predicate
    }

    #[test]
    fn keyword_goes_to_hash() {
        let p = plan(&default_catalog(), &parse("keyword:firefox & size>1m"));
        assert!(matches!(p.path, AccessPath::HashEq { attr: AttrName::Keyword, .. }));
    }

    #[test]
    fn two_constrained_attrs_go_to_kd() {
        let p = plan(&default_catalog(), &parse("size>1g & mtime<1day"));
        match p.path {
            AccessPath::KdBox { attrs, lo, hi } => {
                assert_eq!(attrs, vec![AttrName::Size, AttrName::Mtime]);
                assert_eq!(lo.len(), 2);
                assert!(hi[0].is_infinite());
                assert!(lo[0] > 0.0);
            }
            other => panic!("expected KdBox, got {other:?}"),
        }
    }

    #[test]
    fn kd_boxes_only_builtin_sets_under_u64_bounds() {
        let kd = |attrs: Vec<AttrName>| FakeCatalog { kd: vec![attrs], ..default_catalog() };
        let is_box = |cat: &FakeCatalog, q: &str| {
            matches!(plan(cat, &parse(q)).path, AccessPath::KdBox { .. })
        };
        let builtin = kd(vec![AttrName::Size, AttrName::Mtime, AttrName::Uid]);
        assert!(is_box(&builtin, "size>100 & mtime<30day"), "uid unconstrained is fine");
        // A record without `prio`, or with two, has no point in the tree.
        let prio = kd(vec![AttrName::Size, AttrName::Mtime, AttrName::custom("prio")]);
        assert!(!is_box(&prio, "size>100 & size<500 & mtime<30day"));
        // A string bound hashes onto the axis: no order survives.
        let owner = kd(vec![AttrName::Size, AttrName::custom("owner")]);
        assert!(!is_box(&owner, "size>100 & owner>\"user050\""));
        // Other kinds order by kind tag, not by value, against a `U64`.
        assert!(!is_box(&builtin, "size>100 & uid<-5"));
        assert!(!is_box(&builtin, "size>100 & uid<1.5"));
    }

    #[test]
    fn single_range_goes_to_btree() {
        let p = plan(&default_catalog(), &parse("size>16m"));
        match p.path {
            AccessPath::BTreeRange { attr, lo, hi } => {
                assert_eq!(attr, AttrName::Size);
                assert_eq!(lo, Bound::Excluded(Value::U64(16 << 20)));
                assert_eq!(hi, Bound::Unbounded);
            }
            other => panic!("expected BTreeRange, got {other:?}"),
        }
    }

    #[test]
    fn two_sided_range_preferred() {
        let mut cat = default_catalog();
        cat.kd.clear();
        let p = plan(&cat, &parse("size>1m & size<1g & mtime<1day"));
        match p.path {
            AccessPath::BTreeRange { attr, lo, hi } => {
                assert_eq!(attr, AttrName::Size);
                assert!(!matches!(lo, Bound::Unbounded));
                assert!(!matches!(hi, Bound::Unbounded));
            }
            other => panic!("expected two-sided BTreeRange, got {other:?}"),
        }
    }

    #[test]
    fn equality_uses_btree_when_no_hash() {
        let cat = FakeCatalog { btree: vec![AttrName::Uid], ..FakeCatalog::default() };
        let p = plan(&cat, &parse("uid=1000"));
        match p.path {
            AccessPath::BTreeRange { attr, lo, hi } => {
                assert_eq!(attr, AttrName::Uid);
                assert_eq!(lo, Bound::Included(Value::U64(1000)));
                assert_eq!(hi, Bound::Included(Value::U64(1000)));
            }
            other => panic!("expected point BTreeRange, got {other:?}"),
        }
    }

    #[test]
    fn unindexed_predicate_scans() {
        let cat = FakeCatalog::default();
        assert_eq!(plan(&cat, &parse("uid=5")).path, AccessPath::FullScan);
        assert_eq!(plan(&cat, &parse("*")).path, AccessPath::FullScan);
    }

    #[test]
    fn disjunction_cannot_use_single_index() {
        // An OR at top level constrains nothing conjunctively.
        let p = plan(&default_catalog(), &parse("size>1m | keyword:x"));
        assert_eq!(p.path, AccessPath::FullScan);
    }

    #[test]
    fn bounds_intersect_across_conjuncts() {
        let mut cat = default_catalog();
        cat.kd.clear();
        let p = plan(&cat, &parse("size>1k & size>4k & size<1m"));
        match p.path {
            AccessPath::BTreeRange { lo, .. } => {
                assert_eq!(lo, Bound::Excluded(Value::U64(4096)), "tightest lower bound wins");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn limited_attr_sort_plans_an_ordered_scan() {
        use crate::request::{SearchRequest, SortKey};
        // The only constrained attribute is the sort attribute itself, so
        // the interval tightens the ordered scan's own bounds.
        let req = SearchRequest::new(parse("size>1m & uid>2"))
            .with_limit(10)
            .sorted_by(SortKey::Descending(AttrName::Size));
        match plan_request(&default_catalog(), &req).path {
            AccessPath::OrderedScan { attr, lo, hi, descending } => {
                assert_eq!(attr, AttrName::Size);
                assert_eq!(lo, Bound::Excluded(Value::U64(1 << 20)));
                assert_eq!(hi, Bound::Unbounded);
                assert!(descending);
            }
            other => panic!("expected OrderedScan, got {other:?}"),
        }
    }

    #[test]
    fn ordered_scan_requires_limit_sort_and_btree() {
        use crate::request::{SearchRequest, SortKey};
        let cat = default_catalog();
        // No limit: the whole range comes back anyway; nothing to cut off.
        let req =
            SearchRequest::new(parse("size>1m")).sorted_by(SortKey::Descending(AttrName::Size));
        assert!(!matches!(plan_request(&cat, &req).path, AccessPath::OrderedScan { .. }));
        // File-id sort: no covering tree.
        let req = SearchRequest::new(parse("size>1m")).with_limit(5);
        assert!(!matches!(plan_request(&cat, &req).path, AccessPath::OrderedScan { .. }));
        // Sort attribute without a B+-tree.
        let req = SearchRequest::new(parse("size>1m"))
            .with_limit(5)
            .sorted_by(SortKey::Ascending(AttrName::Uid));
        assert!(!matches!(plan_request(&cat, &req).path, AccessPath::OrderedScan { .. }));
        // A pinned hash equality beats walking the sort order.
        let req = SearchRequest::new(parse("keyword:firefox & size>1m"))
            .with_limit(5)
            .sorted_by(SortKey::Ascending(AttrName::Size));
        assert!(matches!(plan_request(&cat, &req).path, AccessPath::HashEq { .. }));
        // A constraint on a *different* indexed attribute may be far more
        // selective than the sort-order walk (a residual that matches
        // nothing would force the whole tree): fall back to the classic
        // plan rather than risk the asymptotic regression.
        let req = SearchRequest::new(parse("size<1k"))
            .with_limit(10)
            .sorted_by(SortKey::Descending(AttrName::Mtime));
        assert!(
            matches!(plan_request(&cat, &req).path, AccessPath::BTreeRange { .. }),
            "selective range on size must win over an mtime ordered scan"
        );
        let req = SearchRequest::new(parse("size>1m & mtime<1day"))
            .with_limit(10)
            .sorted_by(SortKey::Descending(AttrName::Size));
        assert!(
            matches!(plan_request(&cat, &req).path, AccessPath::KdBox { .. }),
            "two constrained kd-covered attrs keep the classic kd plan"
        );
    }

    #[test]
    fn real_group_implements_catalog() {
        use propeller_index::{AcgIndexGroup, GroupConfig};
        let group = AcgIndexGroup::new(propeller_types::AcgId::new(1), GroupConfig::default());
        assert!(group.has_hash(&AttrName::Keyword));
        assert!(group.has_btree(&AttrName::Size));
        assert_eq!(group.kd_attr_sets(), vec![vec![AttrName::Size, AttrName::Mtime]]);
        assert!(group.has_inverted());
    }

    #[test]
    fn contains_conjunct_plans_a_postings_merge() {
        let p = plan(&default_catalog(), &parse("contains:\"tax report\" & size>1m"));
        match p.path {
            AccessPath::Postings { terms, mode } => {
                assert_eq!(terms, vec!["tax".to_owned(), "report".to_owned()]);
                assert_eq!(mode, ContainsMode::All);
            }
            other => panic!("expected Postings, got {other:?}"),
        }
        // Phrase conjuncts merge into the conjunctive term set; adjacency
        // is checked on the merge's positions.
        let p = plan(&default_catalog(), &parse("phrase:\"sales report\" & contains:tax"));
        match p.path {
            AccessPath::Postings { terms, mode } => {
                assert_eq!(terms, vec!["sales".to_owned(), "report".to_owned(), "tax".to_owned()]);
                assert_eq!(mode, ContainsMode::All);
            }
            other => panic!("expected Postings, got {other:?}"),
        }
        // Disjunctive-only contains keeps its Any mode.
        let p = plan(&default_catalog(), &parse("contains-any:\"jpg png\""));
        assert!(
            matches!(p.path, AccessPath::Postings { mode: ContainsMode::Any, .. }),
            "{:?}",
            p.path
        );
        // Without an inverted index, contains falls back to other paths.
        let mut cat = default_catalog();
        cat.inverted = false;
        let p = plan(&cat, &parse("contains:tax"));
        assert_eq!(p.path, AccessPath::FullScan);
        // A contains inside an OR constrains nothing conjunctively.
        let p = plan(&default_catalog(), &parse("contains:tax | size>1m"));
        assert_eq!(p.path, AccessPath::FullScan);
    }

    #[test]
    fn contains_beats_the_ordered_scan() {
        use crate::request::{SearchRequest, SortKey};
        let req = SearchRequest::new(parse("contains:tax"))
            .with_limit(10)
            .sorted_by(SortKey::Descending(AttrName::Size));
        assert!(
            matches!(plan_request(&default_catalog(), &req).path, AccessPath::Postings { .. }),
            "postings selectivity must win over the sort-order walk"
        );
        // Relevance sort has no covering B+-tree; it always plans classic,
        // which lands on the postings merge.
        let req =
            SearchRequest::new(parse("contains:tax")).with_limit(10).sorted_by(SortKey::Relevance);
        assert!(matches!(plan_request(&default_catalog(), &req).path, AccessPath::Postings { .. }));
    }

    /// A 5,000-record catalogue holding `keyword:app` on `n` records and
    /// `uid=7` on `uid7`; top-100 walks break even at √(4·100·5000) ≈ 1414.2.
    fn counted_catalog(n: usize, uid7: usize) -> FakeCatalog {
        FakeCatalog {
            len: 5_000,
            counts: Some(vec![
                (AttrName::Keyword, Value::from("app"), n),
                (AttrName::Uid, Value::U64(7), uid7),
            ]),
            ..default_catalog()
        }
    }

    #[test]
    fn counts_decide_between_the_probe_and_the_walk() {
        use crate::request::{SearchRequest, SortKey};
        #[derive(Debug, PartialEq)]
        enum Expect {
            Walk,
            Probe,
            Merge,
            Point,
        }
        let top = |query: &str, limit: Option<usize>, sort: SortKey| {
            let req = SearchRequest::new(parse(query)).sorted_by(sort);
            match limit {
                Some(k) => req.with_limit(k),
                None => req,
            }
        };
        let mtime = || SortKey::Descending(AttrName::Mtime);
        let kw = "keyword:app & size>64k";
        let no_hash = || FakeCatalog {
            hash: vec![],
            btree: vec![AttrName::Uid, AttrName::Mtime],
            ..counted_catalog(0, 5_000)
        };
        let table: Vec<(&str, FakeCatalog, SearchRequest, Expect)> = vec![
            ("empty list", counted_catalog(0, 0), top(kw, Some(100), mtime()), Expect::Probe),
            ("every record", counted_catalog(5_000, 0), top(kw, Some(100), mtime()), Expect::Walk),
            ("just below", counted_catalog(1_414, 0), top(kw, Some(100), mtime()), Expect::Probe),
            ("just above", counted_catalog(1_415, 0), top(kw, Some(100), mtime()), Expect::Walk),
            ("no limit", counted_catalog(5_000, 0), top(kw, None, mtime()), Expect::Probe),
            (
                "custom-attribute sort",
                counted_catalog(5_000, 0),
                top(kw, Some(100), SortKey::Ascending(AttrName::custom("energy"))),
                Expect::Probe,
            ),
            (
                "relevance sort",
                counted_catalog(5_000, 0),
                top(kw, Some(100), SortKey::Relevance),
                Expect::Probe,
            ),
            (
                "contains conjunct",
                counted_catalog(5_000, 0),
                top("keyword:app & contains:tax", Some(100), mtime()),
                Expect::Merge,
            ),
            ("count from the b+-tree", no_hash(), top("uid=7", Some(100), mtime()), Expect::Walk),
            (
                "short b+-tree list",
                FakeCatalog { counts: counted_catalog(0, 40).counts, ..no_hash() },
                top("uid=7", Some(100), mtime()),
                Expect::Point,
            ),
            (
                "cannot count",
                FakeCatalog { counts: None, ..counted_catalog(0, 0) },
                top(kw, Some(100), mtime()),
                Expect::Probe,
            ),
        ];
        for (case, cat, req, expect) in table {
            let (plan, by_count) = Analysis::of(&req).choose(&cat);
            let got = match &plan.path {
                AccessPath::OrderedScan { attr: AttrName::Mtime, descending: true, .. } => {
                    Expect::Walk
                }
                AccessPath::HashEq { attr: AttrName::Keyword, .. } => Expect::Probe,
                AccessPath::Postings { .. } => Expect::Merge,
                AccessPath::BTreeRange { attr: AttrName::Uid, .. } => Expect::Point,
                other => panic!("{case}: unexpected {other:?}"),
            };
            assert_eq!(got, expect, "{case}");
            assert_eq!(by_count, expect == Expect::Walk, "{case}: only the counts chose the walk");
            assert_eq!(plan_request(&cat, &req), plan, "{case}: one planner behind both entries");
        }
    }

    #[test]
    fn several_equalities_probe_the_shortest_list_every_time() {
        use crate::request::{SearchRequest, SortKey};
        let mut cat = counted_catalog(900, 30);
        cat.hash.push(AttrName::Uid);
        cat.counts.as_mut().unwrap().push((AttrName::Keyword, Value::from("rare"), 12));
        let probed = |cat: &FakeCatalog, query: &str| {
            let pred = parse(query);
            let first = plan(cat, &pred);
            let req = SearchRequest::new(pred.clone())
                .with_limit(100)
                .sorted_by(SortKey::Descending(AttrName::Mtime));
            for _ in 0..200 {
                assert_eq!(plan(cat, &pred), first, "{query}");
                assert_eq!(plan_request(cat, &req), first, "{query}: short lists stay probes");
            }
            match first.path {
                AccessPath::HashEq { attr, value } => (attr, value),
                other => panic!("{query}: expected a hash probe, got {other:?}"),
            }
        };
        let rare = (AttrName::Keyword, Value::from("rare"));
        assert_eq!(probed(&cat, "keyword:app & keyword:rare"), rare);
        assert_eq!(probed(&cat, "keyword:rare & keyword:app"), rare);
        assert_eq!(probed(&cat, "keyword:app & uid=7"), (AttrName::Uid, Value::U64(7)));
        assert_eq!(probed(&cat, "uid=7 & keyword:rare"), rare);
        // Equal (here: unknown) lengths fall to the first in predicate order.
        cat.counts = None;
        assert_eq!(probed(&cat, "keyword:app & uid=7"), (AttrName::Keyword, Value::from("app")));
    }
}
