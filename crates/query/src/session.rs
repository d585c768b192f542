//! Node search sessions — the one way an Index Node answers a search, and
//! the node half of the **cluster-wide streaming top-k cutoff**.
//!
//! Every node search is a session's **first page**. [`open_page`] owns
//! the whole sequence — analyse the request once, choose an access path
//! per ACG, open and prime the ordered walks, seed the shared
//! [`GlobalCutoff`], run the classic scans, merge — and serves the first
//! page *from the walks it just primed*. A page that exhausts the search
//! (an unbounded page always does: that is the whole-answer exchange
//! behind [`execute_request`](crate::execute_request),
//! [`execute_node_request_sequential`](crate::execute_node_request_sequential)
//! and the node's `Search` message) leaves nothing behind. A shorter page
//! suspends the rest into a [`NodeSearchSession`]: the client pulls
//! further pages (`PullHits`) only while the node's hits still compete
//! for the global top-k, so a cold node ships one small page and is never
//! pulled again, where shipping `k` hits from *every* node would grow
//! cluster-wide work linearly with node count.
//!
//! ## How suspension works
//!
//! The session owns pinned epochs but **no borrows into them across
//! pulls**, so it suspends by *position*, not by live iterator:
//!
//! * the classic (non-ordered) share of the search cannot early-terminate
//!   anyway, so it runs **once** at open — on the node's worker pool,
//!   under the shared [`GlobalCutoff`] — and its merged, `k`-bounded
//!   result list is paged out of memory;
//! * each ordered-planned ACG records its scan plan (attribute, bounds,
//!   direction); the first page reads the walk opened at planning time,
//!   and every later pull re-creates the B+-tree walk **positioned after
//!   the session's resume cursor** (one tree descent), pulls the lazy
//!   k-way merge just far enough to fill the page, and lets the walk fall
//!   away again;
//! * the resume cursor is simply [`Cursor::after`] the last hit shipped:
//!   the merge emits in global sort order, so everything not yet shipped
//!   sorts strictly after it, and the same cursor filter that powers
//!   client pagination makes the resume exact.
//!
//! Pages are therefore globally non-decreasing in the request's sort
//! order across pulls, which is what lets the client run its cluster-wide
//! merge directly over per-node page streams.
//!
//! ## Consistency
//!
//! A session **pins** each group's published [`AcgEpoch`] at open and, on
//! the default [`NodeSearchSession::pull_pinned`] path, serves every page
//! from those pinned epochs: all pages of one session read the same
//! committed state no matter how many commits land in between
//! (cross-page consistent pagination). Pinning is just an `Arc` clone —
//! the owning Index Node keeps committing new epochs concurrently; the
//! pinned ones are reclaimed when the session closes. The lower-level
//! [`NodeSearchSession::pull`] takes an explicit epoch lookup instead,
//! for callers that *want* read-committed-per-page semantics or need to
//! drop an ACG mid-session (e.g. after a migration): an ACG that no
//! longer resolves, or whose covering index is dropped, simply stops
//! contributing; nothing panics and the remaining sources stay exact.

use std::ops::Bound;
use std::sync::Arc;

use propeller_index::AcgEpoch;
use propeller_types::{AcgId, AttrName, Value};

use crate::exec::{ClassicResults, ClassicTask, OrderedHitStream};
use crate::plan::{AccessPath, Analysis, Plan};
use crate::request::{
    merge_hit_sources, merge_sorted_hits, AccessPathKind, Cursor, GlobalCutoff, Hit, SearchRequest,
    SearchStats, SortKey,
};

/// One ordered-planned ACG's share of a search: the scan plan plus
/// cumulative accounting. After the first page the B+-tree walk is
/// re-created per pull from the session's resume cursor.
#[derive(Debug)]
struct OrderedState {
    /// The group's position in the slice the search was opened over, and
    /// so in a session's pins.
    group: usize,
    acg: AcgId,
    attr: AttrName,
    lo: Bound<Value>,
    hi: Bound<Value>,
    descending: bool,
    /// Group size at open (for the skip witness at close).
    group_len: usize,
    /// Candidates pulled off this walk across all pages.
    scanned: usize,
    /// The walk ran dry (or its ACG/index vanished mid-session).
    done: bool,
}

/// One page of a node search.
pub struct SessionPage {
    /// The page's hits, in request sort order, strictly after everything
    /// the search shipped before.
    pub hits: Vec<Hit>,
    /// This page's share of the execution stats (`pages_pulled` = 1,
    /// `hits_shipped` = page size; on the first page also the plan and the
    /// classic scans, on the last also the closing accounting of
    /// [`NodeSearchSession::close`]).
    pub stats: SearchStats,
    /// `true` when the search has nothing left to ship — no session is
    /// kept and the client must not pull again.
    pub exhausted: bool,
}

/// One ordered walk feeding a page's merge: the [`OrderedState`] it
/// reports to, the head pulled off it to seed the classic bound (first
/// page only) and the live walk behind that head.
struct Walk<'a> {
    ix: usize,
    head: Option<Hit>,
    stream: OrderedHitStream<'a>,
}

/// A page merge's sources: the classic list's unshipped tail and the
/// ordered walks.
enum Source<'l, 'w> {
    List(Box<dyn Iterator<Item = Hit> + 'l>),
    Walk(Walk<'w>),
}

impl Iterator for Source<'_, '_> {
    type Item = Hit;

    fn next(&mut self) -> Option<Hit> {
        match self {
            Source::List(iter) => iter.next(),
            Source::Walk(walk) => walk.head.take().or_else(|| walk.stream.next()),
        }
    }

    /// Lets a page that is all classic list be collected in one allocation.
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Source::List(iter) => iter.size_hint(),
            Source::Walk(_) => (0, None),
        }
    }
}

/// What a node search pages from, positions only: everything of a
/// [`NodeSearchSession`] but the request, the pins and the resume cursor
/// — the three things the live walks of a page borrow.
#[derive(Debug)]
pub(crate) struct Paging {
    /// The merged, sorted, `k`-bounded result of the classic-planned ACGs
    /// (computed once at open) — paged out via `classic_ix`.
    classic: Vec<Hit>,
    classic_ix: usize,
    ordered: Vec<OrderedState>,
    /// Hits the search may still ship: `limit` (`usize::MAX` for unlimited
    /// requests) minus shipped, and 0 once every source ran dry.
    remaining: usize,
    /// Whether the request is limited (an unlimited one has no entitlement
    /// to leave unsent).
    limited: bool,
}

impl Paging {
    /// Serves the next page of at most `page` hits: pulls the classic
    /// tail and `walks` through one lazy k-way merge bounded to the page
    /// and settles the accounting. `resume` is where the page starts —
    /// strictly after the last hit shipped, or the request's own cursor
    /// on the first page. Pages are globally non-decreasing in the
    /// request's sort order.
    ///
    /// `page` is clamped to at least 1: a zero-size pull must still make
    /// progress, or a wire caller could ping an empty page forever while
    /// re-stamping the session against LRU eviction.
    fn serve(
        &mut self,
        sort: &SortKey,
        resume: Option<&Cursor>,
        walks: Vec<Walk<'_>>,
        page: usize,
    ) -> SessionPage {
        let k_page = page.max(1).min(self.remaining);
        // The classic list is consumed strictly in order: everything at or
        // before the resume cursor was either shipped or deduplicated by
        // an earlier page's merge, so the cursor filter *is* the consume
        // pointer — no per-hit provenance tracking needed.
        if let Some(cursor) = resume {
            while self.classic_ix < self.classic.len() {
                let hit = &self.classic[self.classic_ix];
                if cursor.admits(sort, hit.sort_key.as_ref(), hit.file) {
                    break;
                }
                self.classic_ix += 1;
            }
        }

        let mut sources: Vec<Source<'_, '_>> = Vec::with_capacity(walks.len() + 1);
        if self.classic_ix < self.classic.len() {
            sources.push(Source::List(if k_page == self.remaining {
                // The search ends with this page: the list is not needed again.
                Box::new(self.classic.drain(self.classic_ix..))
            } else {
                Box::new(self.classic[self.classic_ix..].iter().cloned())
            }));
        }
        sources.extend(walks.into_iter().map(Source::Walk));
        let hits: Vec<Hit> = match sources.as_mut_slice() {
            // A lone source already is the merged order: the classic list
            // is de-duplicated and a walk yields each record once.
            [only] => only.take(k_page).collect(),
            many => merge_hit_sources(many, sort, Some(k_page)),
        };

        let mut stats = SearchStats {
            pages_pulled: 1,
            hits_shipped: hits.len(),
            retained_peak: hits.len(),
            ..SearchStats::default()
        };
        for source in &sources {
            let Source::Walk(walk) = source else { continue };
            let state = &mut self.ordered[walk.ix];
            state.scanned += walk.stream.scanned();
            stats.candidates_scanned += walk.stream.scanned();
            // An unconsumed head (or a hit the merge pulled but did not
            // emit) is never lost: it sorts strictly after everything
            // shipped, so the resume cursor re-derives it on the next
            // pull. `exhausted` implies the merge consumed them all.
            state.done = walk.stream.exhausted();
        }
        drop(sources);

        // A short page means every source ran dry; a full budget means the
        // search served its whole entitlement.
        self.remaining = if hits.len() < k_page { 0 } else { self.remaining - hits.len() };
        let exhausted = self.remaining == 0;
        if exhausted {
            stats.absorb(self.close());
        }
        SessionPage { hits, stats, exhausted }
    }

    /// What the search saved where it stands: [`SearchStats::node_hits_unsent`]
    /// (the rest of this node's `k` entitlement, for limited searches) and
    /// the ordered candidates never examined
    /// ([`SearchStats::merge_skipped`] / [`SearchStats::candidates_skipped`],
    /// against each group's size at open).
    fn close(&self) -> SearchStats {
        let mut stats = SearchStats::default();
        if self.limited {
            stats.node_hits_unsent = self.remaining;
        }
        for state in &self.ordered {
            if !state.done {
                let skipped = state.group_len.saturating_sub(state.scanned);
                stats.candidates_skipped += skipped;
                stats.merge_skipped += skipped;
                stats.early_terminated += 1;
            }
        }
        stats
    }
}

/// [`NodeSearchSession::open`] over borrowed epochs: the first page, and
/// — unless it exhausted the search — the positions the rest resumes from.
/// The one place the plan → prime → seed → classic → merge sequence lives.
pub(crate) fn open_page<'a, F>(
    groups: &[&'a AcgEpoch],
    request: &'a SearchRequest,
    page: usize,
    run_classic: F,
) -> (SessionPage, Option<Paging>)
where
    F: FnOnce(Vec<ClassicTask>, Option<&Arc<GlobalCutoff>>) -> ClassicResults,
{
    let mut tasks: Vec<ClassicTask> = Vec::new();
    let mut ordered: Vec<OrderedState> = Vec::new();
    let mut walks: Vec<Walk<'a>> = Vec::new();
    let mut stats = SearchStats::default();
    let analysis = Analysis::of(request);
    let resume = request.cursor.as_ref();
    for (i, group) in groups.iter().enumerate() {
        let (plan, by_count) = analysis.choose(*group);
        let AccessPath::OrderedScan { attr, lo, hi, descending } = plan.path else {
            tasks.push(ClassicTask { group: i, plan });
            continue;
        };
        let Some(stream) =
            OrderedHitStream::open(group, request, &attr, &lo, &hi, descending, resume)
        else {
            // Unreachable via the planner (it checks for the tree), but
            // degrade to a full scan rather than panic.
            tasks.push(ClassicTask { group: i, plan: Plan { path: AccessPath::FullScan } });
            continue;
        };
        stats.ordered_by_count += usize::from(by_count);
        walks.push(Walk { ix: ordered.len(), head: None, stream });
        ordered.push(OrderedState {
            group: i,
            acg: group.id(),
            attr,
            lo,
            hi,
            descending,
            group_len: group.len(),
            scanned: 0,
            done: false,
        });
    }

    // A lone group's own top-k heap already is the node-wide bound.
    let cutoff = match request.limit {
        Some(k) if k > 0 && groups.len() > 1 && !tasks.is_empty() => {
            Some(Arc::new(GlobalCutoff::new(&request.sort, k)))
        }
        _ => None,
    };
    if let Some(cutoff) = &cutoff {
        for walk in &mut walks {
            walk.head = walk.stream.next();
            if let Some(hit) = &walk.head {
                cutoff.try_admit(hit.sort_key.as_ref(), hit.file);
            }
        }
    }

    let task_count = tasks.len();
    let results = run_classic(tasks, cutoff.as_ref());
    assert_eq!(results.len(), task_count, "one result per classic task");
    // Stats in group order, whichever side serves each group.
    let mut lists: Vec<Vec<Hit>> = Vec::with_capacity(task_count);
    let mut results = results.into_iter();
    let mut walked = ordered.iter().peekable();
    for i in 0..groups.len() {
        if let Some(state) = walked.next_if(|state| state.group == i) {
            stats.acgs_consulted += 1;
            stats.access_paths.push((state.acg, AccessPathKind::OrderedScan));
        } else if let Some((hits, task_stats)) = results.next() {
            stats.absorb(task_stats);
            lists.push(hits);
        }
    }

    // A lone list already is sorted, de-duplicated and within the limit.
    let classic = match lists.len() {
        1 => lists.pop().unwrap_or_default(),
        _ => merge_sorted_hits(lists, &request.sort, request.limit),
    };
    let mut paging = Paging {
        classic,
        classic_ix: 0,
        ordered,
        remaining: request.limit.unwrap_or(usize::MAX),
        limited: request.limit.is_some(),
    };
    let mut first = paging.serve(&request.sort, resume, walks, page);
    stats.absorb(std::mem::take(&mut first.stats));
    if let Some(cutoff) = &cutoff {
        stats.bound_pruned = cutoff.pruned();
    }
    first.stats = stats;
    let rest = (!first.exhausted).then_some(paging);
    (first, rest)
}

/// The suspended rest of a multi-ACG node search whose first page did not
/// exhaust it, pulled incrementally by the client (see the module docs for
/// the design).
#[derive(Debug)]
pub struct NodeSearchSession {
    request: SearchRequest,
    /// The epochs pinned at open, one per group consulted —
    /// [`NodeSearchSession::pull_pinned`] pages against exactly these.
    pinned: Vec<Arc<AcgEpoch>>,
    /// Resume strictly after the last hit shipped.
    resume: Cursor,
    paging: Paging,
}

impl NodeSearchSession {
    /// Opens a search over a node's (already committed, pinned) `groups`
    /// and serves its first page of at most `page` hits.
    ///
    /// Every group is planned (the predicate is analysed once; each ACG
    /// then only answers for its own indices and posting counts). Groups
    /// whose plan is an [`AccessPath::OrderedScan`] contribute a lazy
    /// ordered hit stream each; the rest run to completion through
    /// `run_classic` — the Index Node supplies its worker-pool executor,
    /// [`execute_node_request_sequential`](crate::execute_node_request_sequential)
    /// runs them inline — which must return one `(hits, stats)` pair per
    /// task, in task order. When at least two groups compete for a limited
    /// result, the classic scans share one [`GlobalCutoff`], seeded with
    /// each stream's first hit — by construction the best hit that stream
    /// will ever offer — so a mixed-plan node prunes against the ordered
    /// side's best keys from the start. Pruning affects only how much work
    /// the ACGs do, never the returned hits, so pooled execution stays
    /// byte-identical to sequential.
    ///
    /// The first page is then merged **from the streams just primed** (the
    /// seed hits lead them; nothing is re-derived), stopping after `page`
    /// total admitted hits across the whole node instead of `page` per
    /// ACG. Its stats carry the plan and the classic scans, in group order
    /// (`acgs_consulted` and `access_paths` name every group once). Beside
    /// it comes, unless the page exhausted the search, the session holding
    /// the rest: the pins are cloned and the request copied only then.
    pub fn open<F>(
        groups: &[Arc<AcgEpoch>],
        request: &SearchRequest,
        page: usize,
        run_classic: F,
    ) -> (SessionPage, Option<NodeSearchSession>)
    where
        F: FnOnce(Vec<ClassicTask>, Option<&Arc<GlobalCutoff>>) -> ClassicResults,
    {
        let refs: Vec<&AcgEpoch> = groups.iter().map(Arc::as_ref).collect();
        let (first, rest) = open_page(&refs, request, page, run_classic);
        // A page that left something behind shipped at least one hit.
        let session = rest.zip(first.hits.last()).map(|(paging, last)| NodeSearchSession {
            request: request.clone(),
            pinned: groups.to_vec(),
            resume: Cursor::after(last),
            paging,
        });
        (first, session)
    }

    /// Pulls the next page of at most `page` hits **from the epochs
    /// pinned at open**: every page of the session reads the same
    /// committed state regardless of commits, index changes or snapshots
    /// in between. This is the Index Node's serving path.
    pub fn pull_pinned(&mut self, page: usize) -> SessionPage {
        let NodeSearchSession { request, pinned, resume, paging } = self;
        Self::pull_from(request, resume, paging, |state| Some(&*pinned[state.group]), page)
    }

    /// Pulls the next page of at most `page` hits against an explicit
    /// epoch `lookup` (read-committed-per-page when the caller resolves
    /// live groups); an ACG that no longer resolves — it migrated away
    /// mid-session — simply stops contributing.
    pub fn pull<'g>(
        &mut self,
        lookup: impl Fn(AcgId) -> Option<&'g AcgEpoch>,
        page: usize,
    ) -> SessionPage {
        let NodeSearchSession { request, resume, paging, .. } = self;
        Self::pull_from(request, resume, paging, |state| lookup(state.acg), page)
    }

    /// Re-creates the ordered B+-tree walks positioned after the resume
    /// cursor (one tree descent each), serves one page off them and the
    /// classic tail, and moves the cursor past it.
    fn pull_from<'g>(
        request: &SearchRequest,
        resume: &mut Cursor,
        paging: &mut Paging,
        resolve: impl Fn(&OrderedState) -> Option<&'g AcgEpoch>,
        page: usize,
    ) -> SessionPage {
        let mut walks = Vec::new();
        for (ix, state) in paging.ordered.iter_mut().enumerate() {
            if state.done {
                continue;
            }
            let stream = resolve(state).and_then(|group| {
                let OrderedState { attr, lo, hi, descending, .. } = &*state;
                OrderedHitStream::open(group, request, attr, lo, hi, *descending, Some(&*resume))
            });
            match stream {
                Some(stream) => walks.push(Walk { ix, head: None, stream }),
                // The ACG migrated away or its covering index was dropped
                // mid-session: degrade, keep the rest.
                None => state.done = true,
            }
        }
        let next = paging.serve(&request.sort, Some(&*resume), walks, page);
        if let Some(last) = next.hits.last() {
            *resume = Cursor::after(last);
        }
        next
    }

    /// Closes the session, reporting what the streaming protocol saved:
    /// [`SearchStats::node_hits_unsent`] (the rest of this node's `k`
    /// entitlement) and the ordered candidates never examined
    /// ([`SearchStats::merge_skipped`] / [`SearchStats::candidates_skipped`],
    /// against each group's size at open). A session that ran to its end
    /// already reported both on its last page.
    pub fn close(&self) -> SearchStats {
        self.paging.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_classic, execute_node_request_sequential};
    use crate::request::{next_cursor, SortKey};
    use propeller_index::{AcgIndexGroup, FileRecord, GroupConfig, IndexOp};
    use propeller_types::{FileId, InodeAttrs, Timestamp};

    fn now() -> Timestamp {
        Timestamp::from_secs(1_000)
    }

    fn seeded_groups(acgs: u64, per_acg: u64, indexed: bool) -> Vec<AcgIndexGroup> {
        (0..acgs)
            .map(|acg| {
                let mut g = AcgIndexGroup::new(
                    AcgId::new(acg + 1),
                    GroupConfig { default_indices: indexed, ..GroupConfig::default() },
                );
                for i in 0..per_acg {
                    let id = acg * 1_000 + i;
                    let rec = FileRecord::new(
                        FileId::new(id),
                        InodeAttrs::builder().size(((id * 7919) % 4096) << 10).build(),
                    );
                    g.enqueue(IndexOp::Upsert(rec), now()).unwrap();
                }
                g.commit(now()).unwrap();
                g
            })
            .collect()
    }

    fn pins(groups: &[AcgIndexGroup]) -> Vec<Arc<AcgEpoch>> {
        groups.iter().map(|g| g.pin()).collect()
    }

    fn run_inline(
        groups: &[Arc<AcgEpoch>],
        request: &SearchRequest,
    ) -> impl FnOnce(Vec<ClassicTask>, Option<&Arc<GlobalCutoff>>) -> crate::ClassicResults {
        let request = request.clone();
        let groups: Vec<Arc<AcgEpoch>> = groups.to_vec();
        move |tasks, cutoff| {
            tasks
                .into_iter()
                .map(|t| execute_classic(&groups[t.group], &request, t.plan, cutoff.map(|c| &**c)))
                .collect()
        }
    }

    fn open(
        groups: &[Arc<AcgEpoch>],
        request: &SearchRequest,
        page: usize,
    ) -> (SessionPage, Option<NodeSearchSession>) {
        NodeSearchSession::open(groups, request, page, run_inline(groups, request))
    }

    /// Every page of the search, `page` hits at a time, concatenated.
    fn drain(groups: &[Arc<AcgEpoch>], request: &SearchRequest, page: usize) -> Vec<Hit> {
        let (first, mut session) = open(groups, request, page);
        assert_eq!(first.exhausted, session.is_none(), "a session is kept iff something is left");
        let mut all = first.hits;
        while let Some(open) = &mut session {
            let p = open.pull_pinned(page);
            all.extend(p.hits);
            if p.exhausted {
                session = None;
            }
        }
        all
    }

    #[test]
    fn paged_session_concatenates_to_the_one_shot_result() {
        let groups = seeded_groups(4, 100, true);
        let refs = pins(&groups);
        let epochs: Vec<&AcgEpoch> = refs.iter().map(|e| &**e).collect();
        let q = crate::Query::parse("size>0", now()).unwrap();
        for (limit, sort) in [
            (Some(25), SortKey::Descending(propeller_types::AttrName::Size)),
            (Some(7), SortKey::Ascending(propeller_types::AttrName::Size)),
            (Some(400), SortKey::FileId),
            (None, SortKey::Descending(propeller_types::AttrName::Size)),
        ] {
            let mut req = SearchRequest::new(q.predicate.clone()).sorted_by(sort);
            if let Some(k) = limit {
                req = req.with_limit(k);
            }
            let (one_shot, _) = execute_node_request_sequential(&epochs, &req);
            for page in [1usize, 3, 16, 1000] {
                let paged = drain(&refs, &req, page);
                assert_eq!(paged, one_shot, "limit {limit:?} page {page}");
            }
        }
    }

    #[test]
    fn session_scans_only_what_the_shipped_pages_needed() {
        // 16 ordered ACGs, top-100 pulled as one page of 10: the session
        // must scan ~one page's worth of candidates, not k per ACG.
        let groups = seeded_groups(16, 200, true);
        let refs = pins(&groups);
        let q = crate::Query::parse("size>0", now()).unwrap();
        let req = SearchRequest::new(q.predicate)
            .with_limit(100)
            .sorted_by(SortKey::Descending(propeller_types::AttrName::Size));
        let (page, session) = open(&refs, &req, 10);
        assert_eq!(page.stats.acgs_consulted, 16);
        assert_eq!(page.hits.len(), 10);
        assert!(!page.exhausted);
        assert!(
            page.stats.candidates_scanned <= 10 + refs.len(),
            "one page must cost ~page+streams candidates, scanned {}",
            page.stats.candidates_scanned
        );
        let close = session.expect("90 hits of the entitlement are left").close();
        assert_eq!(close.node_hits_unsent, 90, "the unshipped entitlement is witnessed");
        assert!(close.merge_skipped > 0);
        assert_eq!(close.early_terminated, 16);
    }

    #[test]
    fn seed_hits_are_primed_into_the_first_page_without_rederivation() {
        // The first page reads the walks opened at planning time, so every
        // candidate behind it is scanned exactly once: `scanned ≤ hits +
        // streams` (the merge holds one look-ahead per stream). Re-deriving
        // each stream's head from a cursor — what a later pull has to do —
        // costs another tree descent and a boundary re-scan per stream.
        let groups = seeded_groups(4, 100, true);
        let refs = pins(&groups);
        let q = crate::Query::parse("size>0", now()).unwrap();
        let req = SearchRequest::new(q.predicate)
            .with_limit(20)
            .sorted_by(SortKey::Descending(propeller_types::AttrName::Size));
        let (page, _) = open(&refs, &req, 20);
        assert_eq!(page.hits.len(), 20);
        assert!(
            page.stats.candidates_scanned <= page.hits.len() + refs.len(),
            "first page cost stays within hits + one look-ahead per stream: \
             scanned {} for {} hits over {} streams",
            page.stats.candidates_scanned,
            page.hits.len(),
            refs.len()
        );
        // The cold-stream payoff: 16 streams, a 4-hit first page. Each
        // stream is read once for its head; only the few the merge refills
        // are read any further.
        let groups = seeded_groups(16, 100, true);
        let refs = pins(&groups);
        let q = crate::Query::parse("size>0", now()).unwrap();
        let req = SearchRequest::new(q.predicate)
            .with_limit(100)
            .sorted_by(SortKey::Descending(propeller_types::AttrName::Size));
        let (page, session) = open(&refs, &req, 4);
        assert_eq!(page.hits.len(), 4);
        assert!(
            page.stats.candidates_scanned <= page.hits.len() + refs.len(),
            "cold streams must not be touched past their head: scanned {} for a 4-hit page \
             over 16 streams",
            page.stats.candidates_scanned
        );
        // Draining the rest still concatenates to the one-shot result.
        let epochs: Vec<&AcgEpoch> = refs.iter().map(|e| &**e).collect();
        let (one_shot, _) = execute_node_request_sequential(&epochs, &req);
        let mut session = session.expect("96 hits of the entitlement are left");
        let mut all = page.hits.clone();
        loop {
            let p = session.pull_pinned(16);
            all.extend(p.hits);
            if p.exhausted {
                break;
            }
        }
        assert_eq!(all, one_shot);
    }

    #[test]
    fn session_pages_match_cursor_pagination_of_the_one_shot_path() {
        let groups = seeded_groups(3, 120, true);
        let refs = pins(&groups);
        let epochs: Vec<&AcgEpoch> = refs.iter().map(|e| &**e).collect();
        let q = crate::Query::parse("size>100k", now()).unwrap();
        let sort = SortKey::Descending(propeller_types::AttrName::Size);
        let req = SearchRequest::new(q.predicate.clone()).with_limit(50).sorted_by(sort.clone());
        let streamed = drain(&refs, &req, 8);

        // Cursor pagination over the one-shot node path, page size 8.
        let mut paged = Vec::new();
        let mut cursor = None;
        loop {
            let mut page_req =
                SearchRequest::new(q.predicate.clone()).with_limit(8).sorted_by(sort.clone());
            if let Some(c) = cursor.take() {
                page_req = page_req.after(c);
            }
            let (hits, _) = execute_node_request_sequential(&epochs, &page_req);
            if hits.is_empty() {
                break;
            }
            cursor = next_cursor(&hits, Some(8));
            paged.extend(hits);
            if paged.len() >= 50 || cursor.is_none() {
                break;
            }
        }
        paged.truncate(50);
        assert_eq!(streamed, paged);
    }

    #[test]
    fn mixed_plan_session_pages_classic_and_ordered_together() {
        // Two ordered groups plus one indexless (classic full-scan) group.
        let mut groups = seeded_groups(2, 150, true);
        let mut indexless = AcgIndexGroup::new(
            AcgId::new(9),
            GroupConfig { default_indices: false, ..GroupConfig::default() },
        );
        for i in 0..150u64 {
            let id = 9_000 + i;
            let rec = FileRecord::new(
                FileId::new(id),
                InodeAttrs::builder().size(((id * 7919) % 4096) << 10).build(),
            );
            indexless.enqueue(IndexOp::Upsert(rec), now()).unwrap();
        }
        indexless.commit(now()).unwrap();
        groups.push(indexless);
        let refs = pins(&groups);
        let epochs: Vec<&AcgEpoch> = refs.iter().map(|e| &**e).collect();
        let q = crate::Query::parse("size>0", now()).unwrap();
        let req = SearchRequest::new(q.predicate)
            .with_limit(60)
            .sorted_by(SortKey::Descending(propeller_types::AttrName::Size));
        let (one_shot, _) = execute_node_request_sequential(&epochs, &req);
        let paged = drain(&refs, &req, 7);
        assert_eq!(paged, one_shot);
    }

    #[test]
    fn vanished_acg_mid_session_degrades_without_panic() {
        let groups = seeded_groups(3, 80, true);
        let refs = pins(&groups);
        let q = crate::Query::parse("size>0", now()).unwrap();
        let req = SearchRequest::new(q.predicate)
            .with_limit(100)
            .sorted_by(SortKey::Descending(propeller_types::AttrName::Size));
        let (first, session) = open(&refs, &req, 10);
        let mut session = session.expect("90 hits of the entitlement are left");
        // ACG 2 "migrates away": later lookup-based pulls no longer
        // resolve it (a caller opting out of pinned serving).
        let remaining: Vec<&AcgEpoch> =
            refs.iter().filter(|e| e.id() != AcgId::new(2)).map(|e| &**e).collect();
        let mut rest = first.hits.clone();
        loop {
            let p = session.pull(|acg| remaining.iter().copied().find(|g| g.id() == acg), 10);
            rest.extend(p.hits);
            if p.exhausted {
                break;
            }
        }
        // Still sorted, unique, and a superset of the surviving groups'
        // contribution past the first page.
        assert!(rest
            .windows(2)
            .all(|w| req.sort.cmp_hits(&w[0], &w[1]) == std::cmp::Ordering::Less));
        let mut files: Vec<FileId> = rest.iter().map(|h| h.file).collect();
        files.sort_unstable();
        files.dedup();
        assert_eq!(files.len(), rest.len(), "no duplicates across pages");
    }

    #[test]
    fn zero_limit_session_is_immediately_exhausted() {
        let groups = seeded_groups(1, 10, true);
        let refs = pins(&groups);
        let q = crate::Query::parse("size>0", now()).unwrap();
        let req = SearchRequest::new(q.predicate).with_limit(0);
        let (page, session) = open(&refs, &req, 16);
        assert!(page.hits.is_empty());
        assert!(page.exhausted);
        assert!(session.is_none(), "nothing to suspend");
        assert_eq!(page.stats.node_hits_unsent, 0);
    }
}
