//! Resumable node search sessions — the node half of the **cluster-wide
//! streaming top-k cutoff**.
//!
//! A one-shot node exchange ships `k` hits from *every* node and lets the
//! client merge discard most of them, so cluster-wide work grows linearly
//! with node count even when one node holds the whole hot range. A
//! [`NodeSearchSession`] instead suspends a node's search between client
//! pulls: the client opens a session (`OpenSearch`), receives a first
//! page, and pulls further pages (`PullHits`) only while the node's hits
//! still compete for the global top-k — a cold node ships one small page
//! and is never pulled again.
//!
//! ## How suspension works
//!
//! The session owns pinned epochs but **no borrows into them across
//! pulls**, so it suspends by *position*, not by live iterator:
//!
//! * the classic (non-ordered) share of the search cannot early-terminate
//!   anyway, so it runs **once** at open — on the node's worker pool,
//!   under the shared [`GlobalCutoff`](crate::GlobalCutoff) — and its
//!   merged, `k`-bounded result list is paged out of memory;
//! * each ordered-planned ACG records its scan plan (attribute, bounds,
//!   direction); every pull re-creates the B+-tree walk **positioned
//!   after the session's resume cursor** (one tree descent), pulls the
//!   lazy k-way merge just far enough to fill the page, and lets the walk
//!   fall away again;
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

use crate::exec::{ClassicTask, OrderedHitStream};
use crate::plan::{AccessPath, Analysis, Plan};
use crate::request::{
    merge_hit_sources, merge_sorted_hits, AccessPathKind, Cursor, GlobalCutoff, Hit, SearchRequest,
    SearchStats,
};

/// One ordered-planned ACG's suspended share of a session: the scan plan
/// plus cumulative accounting. The actual B+-tree walk is re-created per
/// pull from the session's resume cursor.
#[derive(Debug)]
struct OrderedState {
    acg: AcgId,
    attr: AttrName,
    lo: Bound<Value>,
    hi: Bound<Value>,
    descending: bool,
    /// Group size at open (for the skip witness at close).
    group_len: usize,
    /// Candidates pulled off this stream across all pulls.
    scanned: usize,
    /// The stream's first hit, pulled at open to seed the classic bound
    /// and **kept** as a primed head for the first pull — the first page
    /// feeds it into the merge instead of re-deriving it with another tree
    /// descent and predicate re-check, and resumes the walk strictly after
    /// it so the head is never yielded twice.
    primed: Option<Hit>,
    /// The stream ran dry (or its ACG/index vanished mid-session).
    done: bool,
}

/// One page of a streamed node search.
pub struct SessionPage {
    /// The page's hits, in request sort order, strictly after everything
    /// the session shipped before.
    pub hits: Vec<Hit>,
    /// This pull's share of the execution stats (`pages_pulled` = 1,
    /// `hits_shipped` = page size; at open, also the classic scans).
    pub stats: SearchStats,
    /// `true` when the session has nothing left to ship — the node drops
    /// it and the client must not pull again.
    pub exhausted: bool,
}

/// A suspended multi-ACG node search, pulled incrementally by the client
/// (see the module docs for the design).
pub struct NodeSearchSession {
    request: SearchRequest,
    /// The epochs pinned at open, one per group consulted —
    /// [`NodeSearchSession::pull_pinned`] pages against exactly these.
    pinned: Vec<Arc<AcgEpoch>>,
    /// The merged, sorted, `k`-bounded result of the classic-planned ACGs
    /// (computed once at open) — paged out via `classic_ix`.
    classic: Vec<Hit>,
    classic_ix: usize,
    ordered: Vec<OrderedState>,
    /// Resume strictly after the last hit shipped (None before page 1).
    resume: Option<Cursor>,
    /// Hits this session may still ship (`limit` minus shipped;
    /// `usize::MAX` for unlimited requests).
    remaining: usize,
    sent: usize,
    pages: u64,
    exhausted: bool,
}

impl std::fmt::Debug for NodeSearchSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeSearchSession")
            .field("sent", &self.sent)
            .field("pages", &self.pages)
            .field("ordered", &self.ordered.len())
            .field("exhausted", &self.exhausted)
            .finish()
    }
}

impl NodeSearchSession {
    /// Opens a session over the node's (already committed) groups: plans
    /// every group, runs the classic (non-ordered) share to completion
    /// through `run_classic` — the Index Node supplies its worker-pool
    /// executor, exactly as for a one-shot search — and records the
    /// ordered plans for incremental pulling. The shared classic bound is
    /// seeded with each ordered stream's first hit, and the pulled hit is
    /// kept as that stream's **primed head**: the first page feeds it into
    /// the merge directly (per-stream resume cursors skip past it), so
    /// session opens never pay a second tree descent per ordered ACG.
    ///
    /// Returns the session plus the open-phase stats (the classic scans;
    /// `acgs_consulted` and `access_paths` cover every group once).
    pub fn open<F>(
        groups: &[Arc<AcgEpoch>],
        request: &SearchRequest,
        run_classic: F,
    ) -> (NodeSearchSession, SearchStats)
    where
        F: FnOnce(Vec<ClassicTask>, Option<&Arc<GlobalCutoff>>) -> Vec<(Vec<Hit>, SearchStats)>,
    {
        let mut tasks: Vec<ClassicTask> = Vec::new();
        let mut ordered: Vec<OrderedState> = Vec::new();
        let mut stats = SearchStats::default();
        // One pass: plan each group (the predicate is analysed once), and
        // for an ordered plan open its walk and prime it right there — one
        // tree descent per ordered ACG, as in `execute_node_request`. The
        // pull is work the first page needs anyway: the hit is *kept* as
        // the stream's primed head, fed straight into the first page's
        // merge with the walk resuming past it.
        let analysis = Analysis::of(request);
        let resume = request.cursor.as_ref();
        for (i, group) in groups.iter().enumerate() {
            let (plan, by_count) = analysis.choose(&**group);
            let AccessPath::OrderedScan { attr, lo, hi, descending } = plan.path else {
                tasks.push(ClassicTask { group: i, plan });
                continue;
            };
            let Some(mut stream) =
                OrderedHitStream::open(group, request, &attr, &lo, &hi, descending, resume)
            else {
                // Unreachable via the planner; degrade to a full scan.
                tasks.push(ClassicTask { group: i, plan: Plan { path: AccessPath::FullScan } });
                continue;
            };
            let prime = request.limit != Some(0);
            let primed = if prime { stream.next() } else { None };
            let scanned = stream.scanned();
            stats.acgs_consulted += 1;
            stats.access_paths.push((group.id(), AccessPathKind::OrderedScan));
            stats.ordered_by_count += usize::from(by_count);
            stats.candidates_scanned += scanned;
            ordered.push(OrderedState {
                acg: group.id(),
                attr,
                lo,
                hi,
                descending,
                group_len: group.len(),
                scanned,
                // A primed walk that yielded nothing is dry: nothing to page.
                done: prime && primed.is_none(),
                primed,
            });
        }

        let cutoff = match request.limit {
            Some(k) if k > 0 && !tasks.is_empty() => {
                Some(Arc::new(GlobalCutoff::new(&request.sort, k)))
            }
            _ => None,
        };
        // Seed the shared classic bound from the primed heads: each
        // stream's first admitted hit is the best it will ever offer the
        // merge, so the classic scans prune against the ordered side's
        // best keys instead of starting from an empty bound.
        if let Some(cutoff) = &cutoff {
            for hit in ordered.iter().filter_map(|state| state.primed.as_ref()) {
                cutoff.try_admit(hit.sort_key.as_ref(), hit.file);
            }
        }

        let classic_results = run_classic(tasks, cutoff.as_ref());
        let mut lists = Vec::with_capacity(classic_results.len());
        for (hits, task_stats) in classic_results {
            stats.absorb(task_stats);
            lists.push(hits);
        }
        if let Some(cutoff) = &cutoff {
            stats.bound_pruned = cutoff.pruned();
        }
        let classic = merge_sorted_hits(lists, &request.sort, request.limit);

        let remaining = request.limit.unwrap_or(usize::MAX);
        let session = NodeSearchSession {
            request: request.clone(),
            pinned: groups.to_vec(),
            classic,
            classic_ix: 0,
            ordered,
            resume: None,
            remaining,
            sent: 0,
            pages: 0,
            exhausted: false,
        };
        (session, stats)
    }

    /// Total hits shipped so far.
    pub fn sent(&self) -> usize {
        self.sent
    }

    /// Pages served so far (the open's first page included).
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Whether the session has nothing left to ship.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Pulls the next page of at most `page` hits **from the epochs
    /// pinned at open**: every page of the session reads the same
    /// committed state regardless of commits, index changes or snapshots
    /// in between. This is the Index Node's serving path.
    pub fn pull_pinned(&mut self, page: usize) -> SessionPage {
        let pinned = self.pinned.clone();
        self.pull(|acg| pinned.iter().find(|e| e.id() == acg).map(|e| &**e), page)
    }

    /// Pulls the next page of at most `page` hits against an explicit
    /// epoch `lookup` (read-committed-per-page when the caller resolves
    /// live groups); an ACG that no longer resolves — it migrated away
    /// mid-session — simply stops contributing.
    ///
    /// Each pull re-creates the ordered B+-tree walks positioned after the
    /// session's resume cursor (one tree descent each), pulls everything
    /// through one lazy k-way merge bounded to the page, and suspends
    /// again. Pages are globally non-decreasing in the request's sort
    /// order across pulls.
    ///
    /// `page` is clamped to at least 1: a zero-size pull must still make
    /// progress, or a wire caller could ping an empty page forever while
    /// re-stamping the session against LRU eviction.
    pub fn pull<'g>(
        &mut self,
        lookup: impl Fn(AcgId) -> Option<&'g AcgEpoch>,
        page: usize,
    ) -> SessionPage {
        self.pages += 1;
        let mut stats = SearchStats { pages_pulled: 1, ..SearchStats::default() };
        let k_page = page.max(1).min(self.remaining);
        if k_page == 0 {
            self.exhausted = self.remaining == 0;
            return SessionPage { hits: Vec::new(), stats, exhausted: self.exhausted };
        }

        let request = &self.request;
        let resume = self.resume.as_ref().or(request.cursor.as_ref());
        // The classic list is consumed strictly in order: everything at or
        // before the resume cursor was either shipped or deduplicated by
        // an earlier page's merge, so the cursor filter *is* the consume
        // pointer — no per-hit provenance tracking needed.
        if let Some(cursor) = resume {
            while self.classic_ix < self.classic.len() {
                let hit = &self.classic[self.classic_ix];
                if cursor.admits(&request.sort, hit.sort_key.as_ref(), hit.file) {
                    break;
                }
                self.classic_ix += 1;
            }
        }

        enum Src<'a> {
            List(std::iter::Cloned<std::slice::Iter<'a, Hit>>),
            /// An ordered walk, led by its primed head on the first pull
            /// (the seed hit from open, fed to the merge without another
            /// tree descent; the walk behind it resumes past the head).
            Stream {
                head: Option<Hit>,
                stream: OrderedHitStream<'a>,
            },
        }
        impl Iterator for Src<'_> {
            type Item = Hit;
            fn next(&mut self) -> Option<Hit> {
                match self {
                    Src::List(iter) => iter.next(),
                    Src::Stream { head, stream } => head.take().or_else(|| stream.next()),
                }
            }
        }

        // Per-stream pull plans. A stream still holding its primed head
        // (first pull only) resumes its walk strictly after that head —
        // the one thing that differs between streams, so it is the one
        // thing each gets of its own; the request is shared. An unconsumed
        // head is never lost: the merge leaves it strictly after
        // everything shipped, so the session cursor re-derives it on the
        // next pull.
        struct StreamPrep {
            ix: usize,
            head: Option<Hit>,
            /// `None` = resume at the session cursor.
            seed: Option<Cursor>,
        }
        let mut preps: Vec<StreamPrep> = Vec::new();
        for (ix, state) in self.ordered.iter_mut().enumerate() {
            if !state.done {
                let head = state.primed.take();
                preps.push(StreamPrep { ix, seed: head.as_ref().map(Cursor::after), head });
            }
        }

        let classic_tail = &self.classic[self.classic_ix..];
        let mut sources: Vec<Src<'_>> = vec![Src::List(classic_tail.iter().cloned())];
        // Which `ordered` entry each stream source (sources[1..]) serves.
        let mut stream_of: Vec<usize> = Vec::new();
        for prep in &mut preps {
            let i = prep.ix;
            let Some(group) = lookup(self.ordered[i].acg) else {
                // ACG migrated away mid-session: degrade, keep the rest.
                self.ordered[i].done = true;
                continue;
            };
            let state = &self.ordered[i];
            match OrderedHitStream::open(
                group,
                request,
                &state.attr,
                &state.lo,
                &state.hi,
                state.descending,
                prep.seed.as_ref().or(resume),
            ) {
                Some(stream) => {
                    stream_of.push(i);
                    sources.push(Src::Stream { head: prep.head.take(), stream });
                }
                // The covering index was dropped mid-session: degrade.
                None => self.ordered[i].done = true,
            }
        }

        let hits = merge_hit_sources(&mut sources, &request.sort, Some(k_page));

        for (src, &i) in sources[1..].iter().zip(&stream_of) {
            let Src::Stream { stream, .. } = src else {
                unreachable!("streams follow the classic list")
            };
            self.ordered[i].scanned += stream.scanned();
            stats.candidates_scanned += stream.scanned();
            // `exhausted` implies every pulled hit (the head included) was
            // consumed by the merge, so nothing unshipped can be lost.
            if stream.exhausted() {
                self.ordered[i].done = true;
            }
        }
        drop(sources);
        drop(preps);

        self.sent += hits.len();
        self.remaining = self.remaining.saturating_sub(hits.len());
        if let Some(last) = hits.last() {
            self.resume = Some(Cursor::after(last));
        }
        // A short page means every source ran dry; a full budget means the
        // session served its whole entitlement.
        self.exhausted = hits.len() < k_page || self.remaining == 0;
        if self.exhausted {
            self.classic_ix = self.classic.len();
        }
        stats.hits_shipped = hits.len();
        stats.retained_peak = hits.len();
        SessionPage { hits, stats, exhausted: self.exhausted }
    }

    /// Closes the session, reporting what the streaming protocol saved:
    /// [`SearchStats::node_hits_unsent`] (the rest of this node's one-shot
    /// `k` entitlement, for limited sessions that were not exhausted) and
    /// the ordered candidates never examined ([`SearchStats::merge_skipped`]
    /// / [`SearchStats::candidates_skipped`], against each group's size at
    /// open).
    pub fn close(&mut self) -> SearchStats {
        let mut stats = SearchStats::default();
        if !self.exhausted && self.request.limit.is_some() {
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

    fn drain(
        groups: &[Arc<AcgEpoch>],
        request: &SearchRequest,
        page: usize,
    ) -> (Vec<Hit>, NodeSearchSession) {
        let (mut session, _) =
            NodeSearchSession::open(groups, request, run_inline(groups, request));
        let mut all = Vec::new();
        loop {
            let p = session.pull_pinned(page);
            all.extend(p.hits);
            if p.exhausted {
                break;
            }
        }
        (all, session)
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
                let (paged, _) = drain(&refs, &req, page);
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
        let (mut session, open_stats) =
            NodeSearchSession::open(&refs, &req, run_inline(&refs, &req));
        assert_eq!(open_stats.acgs_consulted, 16);
        let page = session.pull_pinned(10);
        assert_eq!(page.hits.len(), 10);
        assert!(!page.exhausted);
        assert!(
            page.stats.candidates_scanned <= 10 + refs.len(),
            "one page must cost ~page+streams candidates, scanned {}",
            page.stats.candidates_scanned
        );
        let close = session.close();
        assert_eq!(close.node_hits_unsent, 90, "the unshipped entitlement is witnessed");
        assert!(close.merge_skipped > 0);
        assert_eq!(close.early_terminated, 16);
    }

    #[test]
    fn seed_hits_are_primed_into_the_first_page_without_rederivation() {
        // The double-work the ROADMAP documented: the first pull used to
        // re-derive every stream's first hit (one tree descent + candidate
        // scan per ordered ACG) because the open discarded the seed pulls.
        // With primed heads, the first page's merge starts from the stored
        // seeds, so the pull scans at most one boundary candidate per
        // stream it actually refills — `pull ≤ hits`, where the old path
        // cost `hits + streams`.
        let groups = seeded_groups(4, 100, true);
        let refs = pins(&groups);
        let q = crate::Query::parse("size>0", now()).unwrap();
        let req = SearchRequest::new(q.predicate)
            .with_limit(20)
            .sorted_by(SortKey::Descending(propeller_types::AttrName::Size));
        let (mut session, open_stats) =
            NodeSearchSession::open(&refs, &req, run_inline(&refs, &req));
        assert_eq!(open_stats.candidates_scanned, 4, "open pulls exactly one seed per stream");
        let page = session.pull_pinned(20);
        assert_eq!(page.hits.len(), 20);
        assert!(
            page.stats.candidates_scanned <= page.hits.len() + refs.len(),
            "first page cost stays within hits + one boundary scan per stream: \
             scanned {} for {} hits over {} streams",
            page.stats.candidates_scanned,
            page.hits.len(),
            refs.len()
        );
        // The cold-stream payoff: 16 streams, a 4-hit first page. The old
        // path paid one derivation per stream just to prime the merge
        // (page + streams = 20 scans); primed heads prime it for free, so
        // only the few refilled streams scan at all.
        let groups = seeded_groups(16, 100, true);
        let refs = pins(&groups);
        let q = crate::Query::parse("size>0", now()).unwrap();
        let req = SearchRequest::new(q.predicate)
            .with_limit(100)
            .sorted_by(SortKey::Descending(propeller_types::AttrName::Size));
        let (mut session, open_stats) =
            NodeSearchSession::open(&refs, &req, run_inline(&refs, &req));
        assert_eq!(open_stats.candidates_scanned, 16);
        let page = session.pull_pinned(4);
        assert_eq!(page.hits.len(), 4);
        assert!(
            page.stats.candidates_scanned <= 2 * page.hits.len(),
            "cold streams must not be touched: scanned {} for a 4-hit page over 16 streams",
            page.stats.candidates_scanned
        );
        // Draining the rest still concatenates to the one-shot result.
        let epochs: Vec<&AcgEpoch> = refs.iter().map(|e| &**e).collect();
        let (one_shot, _) = execute_node_request_sequential(&epochs, &req);
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
        let (streamed, _) = drain(&refs, &req, 8);

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
        let (paged, _) = drain(&refs, &req, 7);
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
        let (mut session, _) = NodeSearchSession::open(&refs, &req, run_inline(&refs, &req));
        let first = session.pull_pinned(10);
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
        let (mut session, _) = NodeSearchSession::open(&refs, &req, run_inline(&refs, &req));
        let page = session.pull_pinned(16);
        assert!(page.hits.is_empty());
        assert!(page.exhausted);
        assert_eq!(session.close().node_hits_unsent, 0);
    }
}
