//! The client-side File Query Engine (paper §IV "Client").
//!
//! The engine (1) captures file accesses and accumulates access-causality
//! edges in RAM, flushing ACG deltas to Index Nodes after I/O completes,
//! (2) batches file-indexing requests, asking the Master for ACG routes
//! and sending per-ACG batches to Index Nodes **in parallel**, and (3)
//! serves searches by fanning the query out to every Index Node holding a
//! relevant ACG and aggregating the returned file sets.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use propeller_index::{FileRecord, IndexOp, IndexSpec};
use propeller_obs::{
    names, Counter, Histogram, Lane, MetricsRegistry, NodeObs, OpenSpan, SpanKind, TraceContext,
    TraceTree,
};
use propeller_query::{
    next_cursor, Cursor, FanOutPolicy, Hit, HitMerger, Predicate, Query, SearchRequest,
    SearchResponse, SearchStats,
};
use propeller_sim::Clock;
use propeller_trace::CausalityTracker;
use propeller_types::{
    AcgId, Error, FileId, NodeId, OpenMode, ProcessId, Result, Timestamp, TraceEvent,
};

use crate::cluster::sync_replica;
use crate::messages::{Request, Response, RouteHints};
use crate::rpc::{Gather, Rpc};

/// Default bound on a client's route cache (see [`RouteCache`]).
const ROUTE_CACHE_CAPACITY: usize = 65_536;

/// Smallest default first page of a streamed cross-node search (see
/// [`FileQueryEngine::default_paging`]).
const SEARCH_PAGE_SIZE: usize = 64;

/// Bound on transparent session reopens per node per search. Every reopen
/// ships a page (opens are atomic open+first-page), so progress is
/// guaranteed; the cap only fences off a pathologically thrashing node.
const MAX_SESSION_REOPENS: usize = 16;

/// Process-wide client id allocator: Index Nodes key their per-client
/// session caps off this.
static NEXT_CLIENT_ID: AtomicU64 = AtomicU64::new(1);

/// A capacity-bounded file → (ACG, node) route cache with **LRU**
/// eviction.
///
/// Clients resolve every indexed file through the Master once and cache
/// the route; unbounded, a long-lived client indexing a large namespace
/// grows this map without limit. Past `capacity` the cache evicts its
/// least-recently-*used* entry: every hit re-stamps the route with a
/// fresh generation (touch-on-hit), so hot working sets stay resident
/// while one-shot routes age out. An evicted route is simply re-resolved
/// through the Master on next use. Per-entry generations keep a
/// superseded order entry (the file was touched, invalidated or
/// re-resolved since) from evicting the live route; the order queue is
/// compacted once stale entries dominate it, so touch-heavy workloads
/// don't grow it without bound.
#[derive(Debug, Default)]
struct RouteCache {
    map: HashMap<FileId, ((AcgId, NodeId), u64)>,
    order: std::collections::VecDeque<(FileId, u64)>,
    gen: u64,
    capacity: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    invalidations: Arc<Counter>,
}

impl RouteCache {
    fn with_capacity(capacity: usize) -> Self {
        RouteCache { capacity: capacity.max(1), ..RouteCache::default() }
    }

    /// Points the cache's counters at `registry`'s `route_cache_*` series,
    /// so cache behaviour is visible in the client's metrics snapshot.
    fn register_metrics(&mut self, registry: &MetricsRegistry) {
        self.hits = registry.counter(names::ROUTE_CACHE_HITS);
        self.misses = registry.counter(names::ROUTE_CACHE_MISSES);
        self.evictions = registry.counter(names::ROUTE_CACHE_EVICTIONS);
        self.invalidations = registry.counter(names::ROUTE_CACHE_INVALIDATIONS);
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn contains_key(&self, file: &FileId) -> bool {
        self.map.contains_key(file)
    }

    /// Looks a route up, re-stamping it as most-recently-used on hit.
    fn get(&mut self, file: &FileId) -> Option<(AcgId, NodeId)> {
        let Some((route, gen)) = self.map.get_mut(file) else {
            self.misses.inc();
            return None;
        };
        self.hits.inc();
        let route = *route;
        self.gen += 1;
        *gen = self.gen;
        self.order.push_back((*file, self.gen));
        self.compact();
        Some(route)
    }

    fn insert(&mut self, file: FileId, route: (AcgId, NodeId)) {
        self.gen += 1;
        self.map.insert(file, (route, self.gen));
        self.order.push_back((file, self.gen));
        while self.map.len() > self.capacity {
            let Some((file, gen)) = self.order.pop_front() else { break };
            // Superseded order entries (the file was re-touched since)
            // pop as no-ops; only the live generation evicts.
            if self.map.get(&file).is_some_and(|(_, g)| *g == gen) {
                self.map.remove(&file);
                self.evictions.inc();
            }
        }
        self.compact();
    }

    fn remove(&mut self, file: &FileId) {
        // The stale order entry stays behind and pops as a no-op.
        self.map.remove(file);
    }

    /// Drops one route because a Master hint said it moved.
    fn invalidate(&mut self, file: &FileId) {
        if self.map.remove(file).is_some() {
            self.invalidations.inc();
        }
    }

    /// Drops every route (the `complete: false` hint path: the Master's
    /// split log no longer covers this client's generation, so any cached
    /// route may be stale).
    fn clear(&mut self) {
        self.invalidations.add(self.map.len() as u64);
        self.map.clear();
        self.order.clear();
    }

    /// Rebuilds the order queue from the live generations once stale
    /// (superseded) entries outnumber them 2:1 — amortized O(1) per
    /// touch, and the queue stays O(capacity).
    fn compact(&mut self) {
        if self.order.len() <= self.map.len().max(self.capacity).saturating_mul(2) {
            return;
        }
        let mut live: Vec<(FileId, u64)> =
            self.map.iter().map(|(&file, &(_, gen))| (file, gen)).collect();
        live.sort_unstable_by_key(|&(_, gen)| gen);
        self.order = live.into();
    }
}

/// The search fan-out plan a client keeps between searches (see
/// [`FileQueryEngine::locate`]).
struct Plan {
    /// ACGs grouped by their full ordered replica set (primary first).
    groups: Vec<(Vec<NodeId>, Vec<AcgId>)>,
    /// The ACGs the plan places on each node, sorted: what a checked open
    /// there expects.
    placed: HashMap<NodeId, Vec<AcgId>>,
}

/// A client handle to a Propeller cluster.
///
/// Cheap to create; each client keeps its own causality tracker and route
/// cache. See [`crate::Cluster::client`].
pub struct FileQueryEngine {
    rpc: Rpc,
    master: NodeId,
    index_nodes: Vec<NodeId>,
    clock: Arc<dyn Clock>,
    tracker: CausalityTracker,
    route_cache: RouteCache,
    /// The routing generation of the last [`RouteHints`] applied.
    route_gen: u64,
    /// This client's identity for per-client session caps on Index Nodes.
    client_id: u64,
    /// Fixed hits per page for streamed cross-node searches. `None` (the
    /// default) sizes pages from each request's limit, see
    /// [`FileQueryEngine::default_paging`].
    search_page: Option<usize>,
    /// Replica sets learned from `Resolved` responses (primary first) —
    /// the write path's replication fan-out.
    acg_replicas: HashMap<AcgId, Vec<NodeId>>,
    /// The search plan kept across searches (`None` until the next search
    /// locates one).
    plan: Mutex<Option<Arc<Plan>>>,
    /// This client's observability bundle ([`Lane::Client`]).
    obs: Arc<NodeObs>,
    /// Trace one request in every `trace_every` (0 = never sample).
    trace_every: u64,
    /// Requests seen by the sampler.
    trace_seq: AtomicU64,
    /// The most recently allocated trace id (0 = none yet).
    last_trace: AtomicU64,
    /// End-to-end search latency histogram (cached registry handle).
    h_client_search: Arc<Histogram>,
    /// Failover counter (cached registry handle).
    c_replica_failovers: Arc<Counter>,
}

impl std::fmt::Debug for FileQueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileQueryEngine")
            .field("master", &self.master)
            .field("cached_routes", &self.route_cache.len())
            .finish()
    }
}

impl FileQueryEngine {
    pub(crate) fn new(
        rpc: Rpc,
        master: NodeId,
        index_nodes: Vec<NodeId>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let client_id = NEXT_CLIENT_ID.fetch_add(1, Ordering::Relaxed);
        let obs = Arc::new(NodeObs::new(Lane::Client(client_id)));
        let mut route_cache = RouteCache::with_capacity(ROUTE_CACHE_CAPACITY);
        route_cache.register_metrics(&obs.metrics);
        let h_client_search = obs.metrics.histogram(names::CLIENT_SEARCH_LATENCY);
        let c_replica_failovers = obs.metrics.counter(names::REPLICA_FAILOVERS);
        FileQueryEngine {
            rpc,
            master,
            index_nodes,
            clock,
            tracker: CausalityTracker::new(),
            route_cache,
            route_gen: 0,
            client_id,
            search_page: None,
            acg_replicas: HashMap::new(),
            plan: Mutex::new(None),
            obs,
            trace_every: 0,
            trace_seq: AtomicU64::new(0),
            last_trace: AtomicU64::new(0),
            h_client_search,
            c_replica_failovers,
        }
    }

    /// Rebounds the route cache (builder style). Routes already cached are
    /// dropped; they re-resolve through the Master on next use.
    #[must_use]
    pub fn with_route_cache_capacity(mut self, capacity: usize) -> Self {
        self.route_cache = RouteCache::with_capacity(capacity);
        self.route_cache.register_metrics(&self.obs.metrics);
        self
    }

    /// Enables trace sampling (builder style): one request in every
    /// `every` gets a [`TraceContext`] and records spans on every lane it
    /// crosses, harvestable with [`FileQueryEngine::dump_trace`]. `0`
    /// (the default) never samples, and every recording site stays a
    /// no-op branch.
    #[must_use]
    pub fn with_trace_sampling(mut self, every: u64) -> Self {
        self.trace_every = every;
        self
    }

    /// Sets the page size for streamed cross-node searches (builder
    /// style): how many hits each `PullHits` round trip ships per node.
    /// Smaller pages tighten the cross-node cutoff (cold nodes ship
    /// less); larger pages cost fewer round trips. Unset, pages are sized
    /// from each request's limit.
    #[must_use]
    pub fn with_search_page_size(mut self, page: usize) -> Self {
        self.search_page = Some(page.max(1));
        self
    }

    /// Number of file routes currently cached (bounded by the configured
    /// capacity).
    pub fn cached_routes(&self) -> usize {
        self.route_cache.len()
    }

    /// Whether a route for `file` is currently cached (introspection for
    /// tests and operators; does not touch LRU order).
    pub fn has_cached_route(&self, file: FileId) -> bool {
        self.route_cache.contains_key(&file)
    }

    /// This client's observability bundle: its metrics registry (route
    /// cache, failovers, end-to-end latency) and its span buffer.
    pub fn obs(&self) -> &Arc<NodeObs> {
        &self.obs
    }

    /// The trace id allocated to the most recently sampled request, if
    /// any — pass it to [`FileQueryEngine::dump_trace`].
    pub fn last_trace_id(&self) -> Option<u64> {
        match self.last_trace.load(Ordering::Relaxed) {
            0 => None,
            t => Some(t),
        }
    }

    /// Decides whether the next request is traced. Counter-based (one in
    /// every `trace_every`), so tests sampling at 1 are deterministic;
    /// trace ids are `client_id << 32 | seq`, unique across clients.
    fn sample(&self) -> TraceContext {
        if self.trace_every == 0 {
            return TraceContext::NONE;
        }
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        if !seq.is_multiple_of(self.trace_every) {
            return TraceContext::NONE;
        }
        let trace = (self.client_id << 32) | ((seq + 1) & 0xFFFF_FFFF).max(1);
        self.last_trace.store(trace, Ordering::Relaxed);
        TraceContext::root(trace)
    }

    /// Harvests every span of `trace` — this client's own buffer, the
    /// Master's and every Index Node's (dead nodes are skipped; their
    /// spans are simply absent) — and assembles the single trace tree
    /// with per-span wall times.
    ///
    /// Harvesting is destructive: a trace can be dumped once.
    ///
    /// # Errors
    ///
    /// Fails when no spans were recorded for `trace` or the harvested
    /// spans do not form a single-rooted tree (e.g. a bounded span buffer
    /// wrapped past the root).
    pub fn dump_trace(&self, trace: u64) -> Result<TraceTree> {
        let mut spans = self.obs.spans.harvest(trace);
        for node in std::iter::once(self.master).chain(self.index_nodes.iter().copied()) {
            if let Ok(Response::TraceSpans(remote)) =
                self.rpc.call(node, Request::DumpTrace { trace })
            {
                spans.extend(remote);
            }
        }
        TraceTree::assemble(spans).map_err(Error::Rpc)
    }

    /// Applies split-driven route invalidations from the Master: moved
    /// files drop out of the cache *before* their stale routes can earn a
    /// `StaleRoute` rejection and a retry round trip. Incomplete hints
    /// (the client fell behind the Master's bounded split log) drop the
    /// whole cache — safe, just less surgical.
    fn apply_route_hints(&mut self, hints: RouteHints) {
        if !hints.complete {
            self.route_cache.clear();
        } else {
            for file in &hints.moved {
                self.route_cache.invalidate(file);
            }
        }
        self.route_gen = self.route_gen.max(hints.upto);
    }

    /// Resolves routes for `files`, consulting the cache first and the
    /// Master for the rest (in one batch). Freshly resolved rows are kept
    /// aside for the answer: a batch larger than the cache's capacity may
    /// evict its own earliest rows while being cached.
    fn resolve(
        &mut self,
        files: &[FileId],
        ctx: TraceContext,
    ) -> Result<Vec<(FileId, AcgId, NodeId)>> {
        let span = self.obs.spans.begin(ctx, SpanKind::Resolve, self.clock.now());
        // Snapshot the batch's cache hits up front: caching the freshly
        // resolved rows below may FIFO-evict this very batch's hits.
        let mut routes: HashMap<FileId, (AcgId, NodeId)> = HashMap::with_capacity(files.len());
        for f in files {
            if let Some(route) = self.route_cache.get(f) {
                routes.insert(*f, route);
            }
        }
        let missing: Vec<FileId> =
            files.iter().copied().filter(|f| !routes.contains_key(f)).collect();
        let misses = missing.len();
        if !missing.is_empty() {
            // An empty cache has nothing to invalidate: ask for no hints
            // (`u64::MAX` sorts past any generation) and let the response
            // sync `route_gen` to the Master's current generation, so a
            // fresh client never makes the Master rebuild its whole
            // split-log history.
            let since = if self.route_cache.len() == 0 { u64::MAX } else { self.route_gen };
            let req = Request::ResolveFiles { files: missing, hints_since: since, ctx: span.ctx() };
            match self.rpc.call(self.master, req)? {
                Response::Resolved { rows, hints, replicas } => {
                    // Hints first: a `complete: false` hint clears the
                    // cache, and the fresh rows below must survive that.
                    self.apply_route_hints(hints);
                    // A group this client never wrote to may be one its
                    // plan lacks: the next search locates afresh.
                    if replicas.iter().any(|(acg, _)| !self.acg_replicas.contains_key(acg)) {
                        *self.plan.lock() = None;
                    }
                    for (acg, set) in replicas {
                        self.acg_replicas.insert(acg, set);
                    }
                    for (file, acg, node) in rows {
                        self.route_cache.insert(file, (acg, node));
                        routes.insert(file, (acg, node));
                    }
                }
                other => return Err(Error::Rpc(format!("unexpected response {other:?}"))),
            }
        }
        if span.enabled() {
            let detail = format!("files={} cache_misses={misses}", files.len());
            self.obs.spans.finish_with(span, self.clock.now(), detail);
        }
        files
            .iter()
            .map(|f| routes.get(f).map(|&(a, n)| (*f, a, n)).ok_or(Error::FileNotFound(*f)))
            .collect()
    }

    /// Indexes a batch of file records: routes are resolved through the
    /// Master, then per-(ACG, node) batches go to the Index Nodes in
    /// parallel — the paper's parallel file-indexing path.
    ///
    /// Cached routes can go stale after an ACG split/migration; a batch
    /// rejected with [`Error::StaleRoute`] drops the offending cache
    /// entries, re-resolves through the Master and retries once.
    ///
    /// # Errors
    ///
    /// Fails if the Master or any involved Index Node is unreachable or
    /// rejects its batch (after the one stale-route retry).
    pub fn index_files(&mut self, records: Vec<FileRecord>) -> Result<()> {
        self.apply_ops(records.into_iter().map(IndexOp::Upsert).collect())
    }

    /// Removes files from the index (file-deletion path).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`FileQueryEngine::index_files`].
    pub fn remove_files(&mut self, files: Vec<FileId>) -> Result<()> {
        self.apply_ops(files.into_iter().map(IndexOp::Remove).collect())
    }

    /// Routes, batches and dispatches index ops, retrying once with fresh
    /// routes when an Index Node reports a *cached* route moved. Only
    /// batches that used the cache keep a copy of their ops for the retry
    /// — freshly resolved batches ship without any extra clone.
    ///
    /// A freshly resolved route can still race an in-flight split (the
    /// window between `ExtractAcgPart` and `CommitMigration` at the Master):
    /// that narrow case surfaces as [`Error::StaleRoute`] and the caller
    /// may simply retry the batch.
    fn apply_ops(&mut self, ops: Vec<IndexOp>) -> Result<()> {
        let ctx = self.sample();
        let n_ops = ops.len();
        let root = self.obs.spans.begin(ctx, SpanKind::Request, self.clock.now());
        let out = self.apply_ops_traced(ops, root.ctx());
        if root.enabled() {
            let detail = format!("index ops={n_ops} ok={}", out.is_ok());
            self.obs.spans.finish_with(root, self.clock.now(), detail);
        }
        out
    }

    fn apply_ops_traced(&mut self, ops: Vec<IndexOp>, ctx: TraceContext) -> Result<()> {
        let files: Vec<FileId> = ops.iter().map(IndexOp::file).collect();
        let cached: std::collections::HashSet<FileId> =
            files.iter().copied().filter(|f| self.route_cache.contains_key(f)).collect();
        let routes = self.resolve(&files, ctx)?;
        let mut by_target: HashMap<(NodeId, AcgId), (Vec<IndexOp>, bool)> = HashMap::new();
        for (op, (file, acg, node)) in ops.into_iter().zip(routes) {
            let entry = by_target.entry((node, acg)).or_default();
            entry.1 |= cached.contains(&file);
            entry.0.push(op);
        }
        let failures = self.dispatch_batches(by_target, ctx);
        if failures.is_empty() {
            return Ok(());
        }
        // Stale cached routes are retried after invalidation; anything
        // else is fatal right away.
        let mut retry_ops = Vec::new();
        for (ops, err) in failures {
            match err {
                Error::StaleRoute { .. } if !ops.is_empty() => retry_ops.extend(ops),
                other => return Err(other),
            }
        }
        let retry = self.obs.spans.begin(ctx, SpanKind::RouteRetry, self.clock.now());
        let retry_files: Vec<FileId> = retry_ops.iter().map(IndexOp::file).collect();
        for file in &retry_files {
            self.route_cache.remove(file);
        }
        let out = (|| {
            let routes = self.resolve(&retry_files, retry.ctx())?;
            let mut by_target: HashMap<(NodeId, AcgId), (Vec<IndexOp>, bool)> = HashMap::new();
            for (op, (_, acg, node)) in retry_ops.into_iter().zip(routes) {
                by_target.entry((node, acg)).or_default().0.push(op);
            }
            match self.dispatch_batches(by_target, retry.ctx()).pop() {
                None => Ok(()),
                Some((_, err)) => Err(err),
            }
        })();
        if retry.enabled() {
            let detail = format!("stale routes dropped={}", retry_files.len());
            self.obs.spans.finish_with(retry, self.clock.now(), detail);
        }
        out
    }

    /// Sends the per-(node, ACG) batches in parallel, returning the failed
    /// batches and their errors. Batches flagged as cache-routed return
    /// their ops (kept for the stale-route retry); others return empty.
    ///
    /// Replication rides here: the primary acknowledges each batch with
    /// the WAL LSN it logged ([`Response::BatchLogged`]), and the same
    /// frame is then shipped to every follower replica as a
    /// [`Request::ReplicateBatch`]. The fan-out stays client-driven —
    /// nodes never call nodes, so the actor graph cannot deadlock on two
    /// primaries replicating to each other. A follower that reports a log
    /// gap is caught up from the primary (frames, or a full seed once the
    /// primary's WAL truncated); an unreachable follower is tolerated —
    /// it re-syncs on revival, and searches fail over around it.
    ///
    /// One [`Gather`] on the calling thread carries all of it: every
    /// primary batch leaves at once, each `BatchLogged` releases that
    /// batch's follower frames as it arrives, and the call returns once
    /// every primary and every follower has answered.
    fn dispatch_batches(
        &self,
        by_target: HashMap<(NodeId, AcgId), (Vec<IndexOp>, bool)>,
        ctx: TraceContext,
    ) -> Vec<(Vec<IndexOp>, Error)> {
        /// A primary batch awaiting its `BatchLogged`. `copy` is the one
        /// copy of the ops taken: the follower frame's payload, and what a
        /// cache-routed batch hands back for the stale-route retry.
        struct Batch {
            acg: AcgId,
            followers: Vec<NodeId>,
            copy: Vec<IndexOp>,
            cached: bool,
        }
        let now = self.clock.now();
        let mut gather = self.rpc.gather();
        // Slot `i < batches.len()` is batch `i`'s primary; every later slot
        // is a follower frame of batch `frame_of[slot - batches.len()]`.
        let mut batches: Vec<Option<Batch>> = by_target
            .into_iter()
            .map(|((node, acg), (ops, cached))| {
                let followers: Vec<NodeId> = self
                    .acg_replicas
                    .get(&acg)
                    .map(|set| set.iter().copied().filter(|&n| n != node).collect())
                    .unwrap_or_default();
                let copy = if cached || !followers.is_empty() { ops.clone() } else { Vec::new() };
                gather.send(node, Request::IndexBatch { acg, ops, now, ctx });
                Some(Batch { acg, followers, copy, cached })
            })
            .collect();
        let mut frame_of: Vec<(NodeId, AcgId)> = Vec::new();
        let mut lagging: Vec<(NodeId, NodeId, AcgId, u64)> = Vec::new();
        let mut failures = Vec::new();
        while let Some((slot, reply)) = gather.next() {
            let Some(batch) = batches.get_mut(slot).and_then(Option::take) else {
                // A follower's answer: only a log gap needs acting on.
                if let Ok(Response::ReplicaLagging { lsn: have }) = reply {
                    let (primary, acg) = frame_of[slot - batches.len()];
                    lagging.push((primary, gather.node(slot), acg, have));
                }
                continue;
            };
            match reply {
                Ok(Response::BatchLogged { lsn }) => {
                    let Batch { acg, followers, copy, .. } = batch;
                    let frame = |ops| Request::ReplicateBatch { acg, lsn, ops, now, ctx };
                    if let Some((&last, rest)) = followers.split_last() {
                        for &follower in rest {
                            gather.send(follower, frame(copy.clone()));
                        }
                        gather.send(last, frame(copy));
                        frame_of.extend(followers.iter().map(|_| (gather.node(slot), acg)));
                    }
                }
                Ok(_) => {}
                Err(e) => failures.push((if batch.cached { batch.copy } else { Vec::new() }, e)),
            }
        }
        // Catch-up is rare and sequential; it runs after every frame has
        // been acknowledged so a lagging follower never delays the rest.
        for (primary, follower, acg, have) in lagging {
            let _ = sync_replica(&self.rpc, primary, follower, acg, have, now);
        }
        failures
    }

    /// The search fan-out plan, from the Master: ACGs grouped by their
    /// **full ordered replica set** (primary first). Grouping by set —
    /// not by primary — matters because a node answers a search only for
    /// the ACGs it actually hosts (an unhosted ACG in
    /// [`Request::OpenSearch`] adds nothing): every node in a group hosts
    /// *all* of the group's ACGs, so a search for the group can be served,
    /// or failed over, to any member wholesale. Groups are sorted for
    /// deterministic fan-out. A plan with any group is kept for the
    /// searches after this one, which check it at the Index Nodes instead
    /// of asking the Master again (an empty plan opens nothing that could
    /// carry the check).
    fn locate(&self) -> Result<Arc<Plan>> {
        let located = match self.rpc.call(self.master, Request::LocateAcgs)? {
            Response::Located(rows) => rows,
            other => return Err(Error::Rpc(format!("unexpected response {other:?}"))),
        };
        let mut placed: HashMap<NodeId, Vec<AcgId>> = HashMap::new();
        let mut by_set: HashMap<Vec<NodeId>, Vec<AcgId>> = HashMap::new();
        for (acg, replicas) in located {
            replicas.iter().for_each(|&node| placed.entry(node).or_default().push(acg));
            by_set.entry(replicas).or_default().push(acg);
        }
        let mut groups: Vec<(Vec<NodeId>, Vec<AcgId>)> = by_set.into_iter().collect();
        for acgs in groups.iter_mut().map(|(_, acgs)| acgs).chain(placed.values_mut()) {
            acgs.sort_unstable();
        }
        groups.sort();
        let plan = Arc::new(Plan { groups, placed });
        *self.plan.lock() = (!plan.groups.is_empty()).then(|| Arc::clone(&plan));
        Ok(plan)
    }

    /// Runs a full [`SearchRequest`] against the cluster — the canonical
    /// search entry point: opens a [`ClusterSearchStream`], drains it and
    /// finishes it.
    ///
    /// The stream opens a search session on every replica group
    /// (`OpenSearch` returns the first page), k-way merges the per-group
    /// page streams, and pulls a group's next page **only when its
    /// previous page has been fully consumed by the merge** — i.e. only
    /// while the group's hits still compete for the global top-k, so cold
    /// groups ship ~one page instead of `k` hits. Once `limit` hits are
    /// merged, unpulled groups are closed where they stand; the node-side
    /// hits never computed or shipped are witnessed by
    /// [`SearchStats::node_hits_unsent`] and [`SearchStats::hits_shipped`].
    /// How much a first page asks for is the paging rule's call
    /// ([`FileQueryEngine::with_search_page_size`], else sized from the
    /// request): an unlimited request, or a limited one over a single
    /// replica group, has nothing to cut off and takes its whole answer in
    /// the open exchange.
    ///
    /// Each group's session opens at its primary; a failed open moves on
    /// to the group's next replica. Sessions evicted by a node
    /// mid-search are reopened transparently, resuming after the last hit
    /// received; a replica dying mid-stream fails over the same way.
    ///
    /// # Errors
    ///
    /// Under [`FanOutPolicy::RequireAll`] any replica group with no live
    /// member fails the search. Under [`FanOutPolicy::AllowPartial`] group
    /// failures are tolerated — the response is marked incomplete and keeps
    /// the hits already merged — as long as at least `min_nodes` groups
    /// still answered; below that quorum the first group error is returned.
    /// Validation errors surface as [`Error::InvalidQuery`].
    pub fn search_with(&self, request: &SearchRequest) -> Result<SearchResponse> {
        // One page holds the whole entitlement: the merge stops at
        // `limit` merged hits anyway.
        let mut stream = self.open_search_stream(request)?;
        let hits = stream.next_page(usize::MAX)?;
        let mut response = stream.finish()?;
        // A continuation cursor is only honest on a *complete* page:
        // paginating past an incomplete one would resume strictly after
        // its last hit and permanently skip every hit the unreachable
        // groups held that sorted before the cursor. Incomplete responses
        // therefore carry no cursor — the caller retries the same page
        // (or a fresh search) once the nodes recover — unless the request
        // opted in (`cursor_on_incomplete`): availability-first callers
        // then resume over the reachable groups and separately backfill
        // the listed unreachable ones.
        response.cursor = if response.complete || request.cursor_on_incomplete {
            next_cursor(&hits, request.limit)
        } else {
            None
        };
        response.hits = hits;
        Ok(response)
    }

    /// The `(first page, growth cap)` of a search over `groups` replica
    /// groups when the caller configured no paging. An unlimited search
    /// has no cutoff to wait for and takes everything in the open
    /// exchange. A limited one opens with a fair share of its `k` plus a
    /// quarter — most groups then never need a pull, where `k / 64`
    /// sequential pulls used to drain a list the node computed in full at
    /// open — and doubles per accepted page up to `k`; over a single group
    /// that share is `k` itself. Small limits keep the 64-hit first page,
    /// so a top-100 still ships at most 64 hits from a cold group.
    fn default_paging(limit: Option<usize>, groups: usize) -> (usize, Option<usize>) {
        let Some(k) = limit else { return (usize::MAX, None) };
        let share = k.div_ceil(groups.max(1));
        let first = SEARCH_PAGE_SIZE.max(share.saturating_add(share / 4)).min(k);
        (first.max(1), Some(k.max(1)))
    }

    /// Opens a **persistent** cluster search stream: node sessions stay
    /// open across the pages the caller draws, so paginating `p` pages
    /// deep costs O(p) node pulls total instead of O(p) fresh cursor
    /// searches each re-skipping everything before the cursor. This is
    /// the stream [`FileQueryEngine::search_with`] drains in one call;
    /// call [`ClusterSearchStream::next_page`] until it returns an empty
    /// page, then [`ClusterSearchStream::finish`] for the stats and
    /// completeness verdict.
    ///
    /// A plan kept from an earlier search opens **checked**: each node is
    /// told every ACG the plan places on it, and every Index Node no group
    /// opens at gets an empty checked open. If any node refuses
    /// ([`Error::StalePlacement`]) or an empty open goes unanswered (a
    /// node that cannot be asked cannot vouch for the plan), the round's
    /// sessions are closed and the round is redone once, unchecked, on a
    /// plan located anew, under a [`SpanKind::RouteRetry`] span.
    ///
    /// # Errors
    ///
    /// Fails on invalid requests, an unreachable Master, or (under
    /// [`FanOutPolicy::RequireAll`]) any replica group with no live
    /// member.
    pub fn open_search_stream(&self, request: &SearchRequest) -> Result<ClusterSearchStream> {
        request.validate()?;
        let ctx = self.sample();
        let now = self.clock.now();
        let root = self.obs.spans.begin(ctx, SpanKind::Request, now);
        let fail = |root: OpenSpan, err: Error| {
            if root.enabled() {
                self.obs.spans.finish_with(root, self.clock.now(), format!("open failed: {err}"));
            }
            err
        };
        let (mut kept, mut retry) = (self.plan.lock().clone(), None::<OpenSpan>);
        let mut sources = loop {
            let plan = match kept.clone().map_or_else(|| self.locate(), Ok) {
                Ok(plan) => plan,
                Err(err) => return Err(fail(root, err)),
            };
            let (page, adaptive_max) = match self.search_page {
                Some(page) => (page, None),
                None => Self::default_paging(request.limit, plan.groups.len()),
            };
            let mut sources: Vec<NodePageStream> = plan
                .groups
                .iter()
                .map(|(replicas, acgs)| NodePageStream {
                    rpc: self.rpc.clone(),
                    replicas: replicas.clone(),
                    current: 0,
                    acgs: acgs.clone(),
                    request: request.clone(),
                    client: self.client_id,
                    page,
                    adaptive_max,
                    now,
                    session: 0,
                    buffer: Vec::new().into_iter(),
                    exhausted: false,
                    resume: None,
                    yielded: 0,
                    reopens: 0,
                    stats: SearchStats::default(),
                    error: None,
                    ctx: retry.as_ref().unwrap_or(&root).ctx(),
                    obs: Arc::clone(&self.obs),
                    clock: Arc::clone(&self.clock),
                })
                .collect();
            let groups = sources.len();
            for &node in self.index_nodes.iter().filter(|_| kept.is_some()) {
                if !sources[..groups].iter().any(|source| source.replicas[0] == node) {
                    let probe = NodePageStream {
                        replicas: vec![node],
                        acgs: Vec::new(),
                        ..sources[0].clone()
                    };
                    sources.push(probe);
                }
            }
            // Open one session per group in parallel; every open ships the
            // first page, so cold groups are already done after this round.
            open_sources(&mut sources, false, kept.as_deref());
            let probes = sources.split_off(groups);
            let stale = |s: &NodePageStream| matches!(s.error, Some(Error::StalePlacement { .. }));
            if kept.is_none()
                || !sources.iter().any(stale) && probes.iter().all(|p| p.error.is_none())
            {
                break sources;
            }
            close_sessions(&sources);
            kept = None;
            retry = Some(self.obs.spans.begin(root.ctx(), SpanKind::RouteRetry, self.clock.now()));
        };
        if let Some(retry) = retry.filter(OpenSpan::enabled) {
            self.obs.spans.finish_with(retry, self.clock.now(), "stale plan relocated".into());
        }
        if matches!(request.fan_out, FanOutPolicy::RequireAll) {
            if let Some(failed) = sources.iter_mut().find(|s| s.error.is_some()) {
                let err = failed.error.take().expect("just matched");
                // Be polite to *every* group that did open before failing
                // the search, so no suspended session is left to squat a
                // table slot until LRU eviction.
                close_sessions(&sources);
                return Err(fail(root, err));
            }
        }
        // Groups whose every replica refused the open stay in the stream
        // (their ACGs are reported unreachable by `finish`), but yield no
        // hits: their parked `error` keeps the iterator empty.
        let failed: Vec<usize> =
            sources.iter().enumerate().filter(|(_, s)| s.error.is_some()).map(|(i, _)| i).collect();
        let merger = HitMerger::new(&request.sort, request.limit);
        Ok(ClusterSearchStream {
            sources,
            merger,
            fan_out: request.fan_out,
            failed,
            clock: Arc::clone(&self.clock),
            started: now,
            finished: false,
            obs: Arc::clone(&self.obs),
            root: Some(root),
            h_latency: Arc::clone(&self.h_client_search),
            c_replica_failovers: Arc::clone(&self.c_replica_failovers),
        })
    }

    /// Classic searches: the whole matching id set, sorted by file id
    /// (a thin wrapper over [`FileQueryEngine::search_with`]).
    ///
    /// # Errors
    ///
    /// Fails if the Master or any involved Index Node is unreachable.
    pub fn search(&self, predicate: &Predicate) -> Result<Vec<FileId>> {
        Ok(self.search_with(&SearchRequest::new(predicate.clone()))?.file_ids())
    }

    /// Parses and runs a textual query (`"size>16m & mtime<1day"`).
    ///
    /// # Errors
    ///
    /// Fails on parse errors or any [`FileQueryEngine::search`] failure.
    pub fn search_text(&self, text: &str) -> Result<Vec<FileId>> {
        let query = Query::parse(text, self.clock.now())?;
        self.search(&query.predicate)
    }

    /// Creates a user-defined index cluster-wide: registered at the Master
    /// (name uniqueness), then broadcast best-effort to every Index Node.
    /// A partial broadcast is rolled back — the spec is dropped from the
    /// nodes that did receive it and unregistered at the Master — and
    /// reported as [`Error::PartialIndexBroadcast`] listing the nodes that
    /// missed it, so the cluster is never left half-indexed.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names ([`Error::IndexExists`]) or with
    /// [`Error::PartialIndexBroadcast`] when any node was unreachable.
    pub fn create_index(&self, spec: IndexSpec) -> Result<()> {
        self.rpc.call(self.master, Request::CreateIndex { spec: spec.clone() })?;
        let mut missed = Vec::new();
        let mut rejected: Option<Error> = None;
        for &node in &self.index_nodes {
            match self.rpc.call(node, Request::CreateIndex { spec: spec.clone() }) {
                Ok(_) => {}
                // Transport failures mean the node never saw the spec; any
                // other error is the node *rejecting* the spec — that is
                // the error the caller should see, not a broadcast report.
                Err(Error::NodeUnavailable(_) | Error::Rpc(_)) => missed.push(node),
                Err(e) => {
                    rejected.get_or_insert(e);
                }
            }
        }
        if missed.is_empty() && rejected.is_none() {
            return Ok(());
        }
        // Roll back: best-effort drop on *every* node — including the
        // "missed" ones, because a timed-out call may still have been
        // applied after the timeout fired — then unregister at the Master
        // so the name can be retried. (Nodes that rejected the spec
        // rolled their own groups back.)
        for &node in &self.index_nodes {
            let _ = self.rpc.call(node, Request::DropIndex { name: spec.name.clone() });
        }
        let _ = self.rpc.call(self.master, Request::DropIndex { name: spec.name.clone() });
        match rejected {
            Some(e) => Err(e),
            None => Err(Error::PartialIndexBroadcast { index: spec.name, missed }),
        }
    }

    /// Binds `files` to a fresh ACG at the Master (placement computed out
    /// of band) and drops their cached routes and the search plan, so the
    /// next batch resolves to the group and the next search finds it.
    /// Fails if the Master cannot place it, and with [`Error::FilePlaced`]
    /// if any file already has a home.
    pub fn bind_group(&mut self, files: &[FileId]) -> Result<AcgId> {
        files.iter().for_each(|file| self.route_cache.remove(file));
        *self.plan.lock() = None;
        let bind = Request::BindFiles { files: files.to_vec() };
        match self.rpc.call(self.master, bind)?.into_result()? {
            Response::AcgAllocated(acg, _) => Ok(acg),
            other => Err(Error::Rpc(format!("unexpected response {other:?}"))),
        }
    }

    // ---- access capture ---------------------------------------------------

    /// Observes a raw trace event (the FUSE interposer feed).
    pub fn observe(&mut self, event: TraceEvent) {
        self.tracker.observe(event);
    }

    /// Convenience: observes an open at the current time.
    pub fn observe_open(&mut self, pid: ProcessId, file: FileId, mode: OpenMode) {
        let now = self.clock.now();
        self.tracker.open(pid, file, mode, now);
    }

    /// Marks a traced process as exited.
    pub fn end_process(&mut self, pid: ProcessId) {
        self.tracker.end_process(pid);
    }

    /// Flushes accumulated causality edges to the Index Nodes hosting the
    /// destination files' ACGs ("flushed to the Index Nodes after the I/O
    /// process finishes"). Returns the number of edges flushed.
    ///
    /// ACG flushes are *weakly consistent* by design: a failed flush drops
    /// the delta (it can only cost partitioning quality, never search
    /// correctness), so per-node errors are swallowed.
    ///
    /// # Errors
    ///
    /// Fails only if the Master cannot resolve routes.
    pub fn flush_acg(&mut self) -> Result<usize> {
        let updates = self.tracker.drain_updates();
        if updates.is_empty() {
            return Ok(0);
        }
        let dst_files: Vec<FileId> = updates.iter().map(|u| u.dst).collect();
        let routes = self.resolve(&dst_files, TraceContext::NONE)?;
        let route_of: HashMap<FileId, (AcgId, NodeId)> =
            routes.into_iter().map(|(f, a, n)| (f, (a, n))).collect();
        let mut by_target: HashMap<(NodeId, AcgId), Vec<propeller_trace::EdgeUpdate>> =
            HashMap::new();
        let total = updates.len();
        for update in updates {
            let (acg, node) = route_of[&update.dst];
            by_target.entry((node, acg)).or_default().push(update);
        }
        for ((node, acg), edges) in by_target {
            // Weak consistency: ignore delivery failures.
            let _ = self.rpc.call(node, Request::FlushAcgDelta { acg, edges });
        }
        Ok(total)
    }

    /// Number of causality edges currently buffered client-side.
    pub fn buffered_edges(&self) -> usize {
        self.tracker.edge_count()
    }
}

/// One replica group's half of a streamed search, seen from the client:
/// an iterator yielding the group's hits in request sort order, pulling
/// the next page over the wire **lazily** — only when the merge has
/// consumed everything the group shipped so far. Feeding these into a
/// [`HitMerger`] *is* the cross-node cutoff: the merge holds one head
/// per source and refills a source only after emitting its head, so a
/// group whose page boundary sorts past the running global top-k is
/// never pulled again.
///
/// The stream is **replica-aware**: the session lives on one member of
/// the group at a time, the primary first. A failed open, or a member
/// dying mid-stream, moves the session on to the next member, resuming
/// after the last hit yielded — replicas hold byte-identical committed
/// views, so the concatenation is exactly the uninterrupted stream, no
/// hits skipped or duplicated.
///
/// RPC failures cannot surface through `Iterator::next`, so once every
/// replica is dead the error parks in `error` (the stream ends) and the
/// caller applies the fan-out policy afterwards. An expired session
/// (evicted by the node) reopens transparently on the same node.
#[derive(Clone)]
struct NodePageStream {
    rpc: Rpc,
    /// The group's full ordered replica set (primary first).
    replicas: Vec<NodeId>,
    /// Index into `replicas` of the member serving the session. Every
    /// member before it failed an RPC and is not retried within this
    /// search.
    current: usize,
    acgs: Vec<AcgId>,
    request: SearchRequest,
    client: u64,
    /// Hits per page; doubles per accepted page when `adaptive_max` is
    /// set (up to that bound).
    page: usize,
    adaptive_max: Option<usize>,
    now: Timestamp,
    /// The open session on `current` (0 = none: exhausted or never
    /// stored).
    session: u64,
    buffer: std::vec::IntoIter<Hit>,
    exhausted: bool,
    /// Resume point for transparent reopens and replica failovers: after
    /// the last yielded hit.
    resume: Option<Cursor>,
    /// Hits yielded so far — a reopen asks only for the *remaining*
    /// entitlement (`limit - yielded`), so the resumed session's pages
    /// concatenate with what was already received to exactly the unpaged
    /// result and the node never computes hits past the original `k`.
    yielded: usize,
    reopens: usize,
    /// Stats accumulated across the open and every pull.
    stats: SearchStats,
    error: Option<Error>,
    /// The stream's trace context (the client root span's child context;
    /// [`TraceContext::NONE`] when the request is unsampled).
    ctx: TraceContext,
    obs: Arc<NodeObs>,
    clock: Arc<dyn Clock>,
}

/// Opens a session for every source — the initial open of a whole search,
/// or one source failing over after its replica died mid-stream
/// (`counts_as_failover`) — on **one** gather driven by the calling
/// thread. Every source's open leaves at once for its `current` replica;
/// a `SearchPage` settles the source, and a failed open sends it on to
/// its next replica, or parks the error when none is left. Opens checked
/// against `plan` carry what it places on each node; a node's
/// [`Error::StalePlacement`] is parked at once, for the caller to
/// relocate.
fn open_sources(sources: &mut [NodePageStream], counts_as_failover: bool, plan: Option<&Plan>) {
    let Some(first) = sources.first() else { return };
    let mut gather = first.rpc.gather();
    // Per source: the gather slot and Open span of its attempt under way.
    let mut opening: Vec<Option<(usize, OpenSpan)>> =
        sources.iter_mut().map(|source| source.begin_open(&mut gather, plan)).collect();
    while let Some((slot, reply)) = gather.next() {
        let i = opening
            .iter()
            .position(|o| o.as_ref().is_some_and(|(asked, _)| *asked == slot))
            .expect("every outstanding slot is an attempt under way");
        let (source, open) = (&mut sources[i], opening[i].take().map(|(_, open)| open));
        let node = source.replicas[source.current];
        match reply {
            Ok(Response::SearchPage { session, hits, stats, exhausted }) => {
                if counts_as_failover {
                    source.stats.replica_failovers += 1;
                }
                source.accept_page(session, hits, stats, exhausted);
                source.error = None;
                source.finish_span(open, || format!("{node} ok=true"));
            }
            other => {
                let err = match other {
                    Ok(resp) => Error::Rpc(format!("unexpected response {resp:?}")),
                    Err(e) => e,
                };
                source.finish_span(open, || format!("{node} unreachable: {err}"));
                let stale = matches!(err, Error::StalePlacement { .. });
                source.error = Some(err);
                if !stale {
                    source.current += 1;
                    opening[i] = source.begin_open(&mut gather, plan);
                }
            }
        }
    }
}

/// Closes every still-open session among `sources` — all `CloseSearch`
/// leave at once, then the nodes' final accounting (`node_hits_unsent`,
/// `merge_skipped`) is folded into the returned stats. Best-effort: a
/// close lost to a dead node costs nothing — the node is gone, and live
/// nodes evict abandoned sessions by LRU anyway.
fn close_sessions<'a>(sources: impl IntoIterator<Item = &'a NodePageStream>) -> SearchStats {
    let open: Vec<&NodePageStream> =
        sources.into_iter().filter(|s| s.session != 0 && !s.exhausted).collect();
    let mut stats = SearchStats::default();
    let Some(first) = open.first() else { return stats };
    let closes = open
        .iter()
        .map(|s| (s.replicas[s.current], Request::CloseSearch { session: s.session }))
        .collect();
    for reply in first.rpc.call_all(closes) {
        if let Ok(Response::SearchClosed { stats: closed }) = reply {
            stats.absorb(closed);
        }
    }
    stats
}

impl NodePageStream {
    /// The open request resuming after the last yielded hit, asking only
    /// for the remaining entitlement. `ctx` is the span the node's
    /// service spans should hang under (the Open attempt); `expect` is
    /// what the checked plan places on the node.
    fn open_request(&self, ctx: TraceContext, expect: Option<Vec<AcgId>>) -> Request {
        let mut request = self.request.clone();
        if let Some(resume) = &self.resume {
            request.cursor = Some(resume.clone());
        }
        request.limit = request.limit.map(|k| k.saturating_sub(self.yielded));
        Request::OpenSearch {
            acgs: self.acgs.clone(),
            expect,
            request,
            client: self.client,
            page: self.page,
            now: self.now,
            ctx,
        }
    }

    /// Sends the open to the `current` replica, returning its gather slot
    /// and Open span. Past the last replica the error is parked and
    /// nothing is sent.
    fn begin_open(
        &mut self,
        gather: &mut Gather,
        plan: Option<&Plan>,
    ) -> Option<(usize, OpenSpan)> {
        let Some(&node) = self.replicas.get(self.current) else {
            self.error.get_or_insert_with(|| Error::Rpc("no live replica".to_string()));
            return None;
        };
        let open = self.obs.spans.begin(self.ctx, SpanKind::Open, self.clock.now());
        let expect = plan.map(|plan| plan.placed.get(&node).cloned().unwrap_or_default());
        Some((gather.send(node, self.open_request(open.ctx(), expect)), open))
    }

    /// Finishes a client-side span now, if it records anything. The
    /// detail closure only runs for sampled requests.
    fn finish_span(&self, span: Option<OpenSpan>, detail: impl FnOnce() -> String) {
        if let Some(span) = span {
            if span.enabled() {
                let detail = detail();
                self.obs.spans.finish_with(span, self.clock.now(), detail);
            }
        }
    }

    /// Applies one `SearchPage`, whichever request produced it, growing
    /// the page size under default paging — a group that keeps winning
    /// the merge amortizes its round trips.
    fn accept_page(&mut self, session: u64, hits: Vec<Hit>, stats: SearchStats, exhausted: bool) {
        self.stats.absorb(stats);
        self.session = if exhausted { 0 } else { session };
        self.exhausted = exhausted;
        self.buffer = hits.into_iter();
        if let Some(max) = self.adaptive_max {
            self.page = self.page.saturating_mul(2).min(max);
        }
    }
}

impl Iterator for NodePageStream {
    type Item = Hit;

    fn next(&mut self) -> Option<Hit> {
        loop {
            if let Some(hit) = self.buffer.next() {
                self.resume = Some(Cursor::after(&hit));
                self.yielded += 1;
                return Some(hit);
            }
            if self.exhausted || self.error.is_some() {
                return None;
            }
            let node = self.replicas[self.current];
            let span = self.obs.spans.begin(self.ctx, SpanKind::Pull, self.clock.now());
            let pull =
                Request::PullHits { session: self.session, page: self.page, ctx: span.ctx() };
            match self.rpc.call(node, pull) {
                Ok(Response::SearchPage { session, hits, stats, exhausted }) => {
                    let shipped = hits.len();
                    self.accept_page(session, hits, stats, exhausted);
                    self.finish_span(Some(span), || format!("{node} hits={shipped}"));
                }
                Err(Error::SearchSessionExpired { .. }) if self.reopens < MAX_SESSION_REOPENS => {
                    // The node evicted us (LRU or per-client cap), but is
                    // alive: reopen on the *same* node, resuming strictly
                    // after the last hit we saw. Every reopen ships a
                    // page, so this always makes progress.
                    self.finish_span(Some(span), || format!("{node} session expired, reopening"));
                    self.reopens += 1;
                    self.session = 0;
                    open_sources(std::slice::from_mut(self), false, None);
                    if self.error.is_some() {
                        return None;
                    }
                }
                Ok(other) => {
                    self.finish_span(Some(span), || format!("{node} unexpected response"));
                    self.error = Some(Error::Rpc(format!("unexpected response {other:?}")));
                    return None;
                }
                Err(_) => {
                    // The serving replica died mid-stream: fail the
                    // session over to the next live member, resuming
                    // after the last hit yielded. Byte-identical replicas
                    // make the spliced stream exact — no skips, no dups.
                    self.finish_span(Some(span), || {
                        format!("{node} died mid-stream, failing over")
                    });
                    self.current += 1;
                    self.session = 0;
                    open_sources(std::slice::from_mut(self), true, None);
                    if self.error.is_some() {
                        return None;
                    }
                }
            }
        }
    }
}

/// A **persistent** cluster-wide search stream: one open session per
/// replica group, a running k-way merge, and the caller in control of
/// page cadence. Produced by [`FileQueryEngine::open_search_stream`];
/// [`FileQueryEngine::search_with`] is the one-page special case.
///
/// Sessions stay open between [`ClusterSearchStream::next_page`] calls,
/// so paginating `p` pages deep costs O(p) node pulls in total — not the
/// O(p) fresh cursor searches (each re-skipping everything before its
/// cursor) that re-issuing `search_with` per page would cost.
pub struct ClusterSearchStream {
    sources: Vec<NodePageStream>,
    merger: HitMerger,
    fan_out: FanOutPolicy,
    /// Source indices that failed (open- or stream-time).
    failed: Vec<usize>,
    clock: Arc<dyn Clock>,
    started: Timestamp,
    finished: bool,
    obs: Arc<NodeObs>,
    /// The client-side root span, finished when the stream ends.
    root: Option<OpenSpan>,
    h_latency: Arc<Histogram>,
    c_replica_failovers: Arc<Counter>,
}

impl ClusterSearchStream {
    /// Draws up to `n` more hits from the cluster-wide merge, in request
    /// sort order, continuing exactly where the previous page stopped.
    /// An empty page means the merge is done (every source exhausted or
    /// the request's `limit` reached).
    ///
    /// # Errors
    ///
    /// Under [`FanOutPolicy::RequireAll`], a replica group losing its
    /// every member mid-stream fails the search (all sessions are closed
    /// first). Under [`FanOutPolicy::AllowPartial`] the failure is
    /// recorded and surfaces in [`ClusterSearchStream::finish`].
    pub fn next_page(&mut self, n: usize) -> Result<Vec<Hit>> {
        // The pulls (and failover opens) the merge issues hang under its
        // span, so the span's self time is the merge alone.
        let root = self.root.as_ref().map_or(TraceContext::NONE, OpenSpan::ctx);
        let merge = self.obs.spans.begin(root, SpanKind::Merge, self.clock.now());
        if merge.enabled() {
            self.sources.iter_mut().for_each(|source| source.ctx = merge.ctx());
        }
        let mut hits = Vec::new();
        while hits.len() < n {
            match self.merger.next_hit(&mut self.sources) {
                Some(hit) => hits.push(hit),
                None => break,
            }
        }
        if merge.enabled() {
            let detail = format!("sources={} hits={}", self.sources.len(), hits.len());
            self.obs.spans.finish_with(merge, self.clock.now(), detail);
        }
        // Sources that ran out of replicas park their error; apply the
        // fan-out policy now so RequireAll callers fail fast.
        for idx in 0..self.sources.len() {
            if self.sources[idx].error.is_some() && !self.failed.contains(&idx) {
                if matches!(self.fan_out, FanOutPolicy::RequireAll) {
                    let err = self.sources[idx].error.take().expect("just checked");
                    close_sessions(&self.sources);
                    self.finished = true;
                    return Err(err);
                }
                self.failed.push(idx);
            }
        }
        Ok(hits)
    }

    /// Closes every live session and renders the final verdict: absorbed
    /// stats, the quorum check, and — with `R > 1` — `complete: false`
    /// **only when every replica of some ACG was unreachable**; the
    /// `unreachable` list names those ACGs (not nodes — with replication
    /// a dead node is not information the caller can act on).
    ///
    /// The returned response carries no hits (`next_page` already
    /// delivered them) and no cursor; [`FileQueryEngine::search_with`]
    /// fills both for the classic one-call path.
    ///
    /// # Errors
    ///
    /// Under [`FanOutPolicy::AllowPartial { min_nodes }`], fewer than
    /// `min_nodes` answering replica groups returns the first recorded
    /// group error.
    pub fn finish(mut self) -> Result<SearchResponse> {
        self.finished = true;
        let mut stats = SearchStats::default();
        let mut answered = 0usize;
        let mut unreachable: Vec<AcgId> = Vec::new();
        let mut first_error: Option<Error> = None;
        for (idx, source) in self.sources.iter_mut().enumerate() {
            stats.absorb(std::mem::take(&mut source.stats));
            if self.failed.contains(&idx) {
                if let Some(e) = source.error.take() {
                    first_error.get_or_insert(e);
                }
                unreachable.extend(source.acgs.iter().copied());
            } else {
                answered += 1;
            }
        }
        // Close the answering sessions where they stand; the nodes report
        // what streaming saved them from shipping.
        let live = self.sources.iter().enumerate().filter(|(idx, _)| !self.failed.contains(idx));
        stats.absorb(close_sessions(live.map(|(_, source)| source)));
        if let FanOutPolicy::AllowPartial { min_nodes } = self.fan_out {
            if !self.failed.is_empty() && answered < min_nodes {
                return Err(first_error.unwrap_or_else(|| {
                    Error::Rpc(format!(
                        "partial search needs {min_nodes} answering nodes, got {answered}"
                    ))
                }));
            }
        }
        unreachable.sort_unstable();
        // Pulls beyond the parallel opens are issued sequentially by the
        // merge, so the max-of-round-trips the absorbs accumulated is NOT
        // what the caller waited for — overwrite with the true wall time.
        let now = self.clock.now();
        stats.elapsed = now.since(self.started);
        self.h_latency.record(stats.elapsed.as_micros());
        self.c_replica_failovers.add(stats.replica_failovers as u64);
        if let Some(root) = self.root.take() {
            if root.enabled() {
                let detail = format!("groups={} complete={}", answered, unreachable.is_empty());
                self.obs.spans.finish_with(root, now, detail);
            }
        }
        Ok(SearchResponse {
            complete: unreachable.is_empty(),
            unreachable,
            hits: Vec::new(),
            stats,
            cursor: None,
        })
    }
}

impl Drop for ClusterSearchStream {
    /// A stream abandoned without [`ClusterSearchStream::finish`] still
    /// closes its node-side sessions, so no slot squats a session table
    /// until LRU eviction.
    fn drop(&mut self) {
        if !self.finished {
            close_sessions(&self.sources);
        }
        // A stream abandoned mid-flight still closes its root span, so a
        // later `dump_trace` assembles a single-rooted tree.
        if let Some(root) = self.root.take() {
            if root.enabled() {
                self.obs.spans.finish_with(root, self.clock.now(), "abandoned".to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_paging_sizes_pages_from_the_limit() {
        let paging = FileQueryEngine::default_paging;
        assert_eq!(paging(Some(1_000), 2), (625, Some(1_000)), "share + a quarter, then up to k");
        assert_eq!(paging(Some(1_000), 40), (64, Some(1_000)), "never below the classic page");
        assert_eq!(paging(Some(100), 2), (64, Some(100)));
        assert_eq!(paging(Some(10), 2), (10, Some(10)), "never past k");
        assert_eq!(paging(Some(0), 2), (1, Some(1)), "a page is at least one hit");
        assert_eq!(paging(Some(usize::MAX), 1), (usize::MAX, Some(usize::MAX)));
        assert_eq!(paging(Some(40), 1), (40, Some(40)), "a lone group ships its k at open");
        assert_eq!(paging(None, 2), (usize::MAX, None), "no limit, no cutoff to page for");
    }

    fn route(n: u64) -> (AcgId, NodeId) {
        (AcgId::new(n), NodeId::new(n as u32))
    }

    #[test]
    fn route_cache_evicts_least_recently_used_not_oldest_inserted() {
        let mut cache = RouteCache::with_capacity(3);
        cache.insert(FileId::new(1), route(1));
        cache.insert(FileId::new(2), route(2));
        cache.insert(FileId::new(3), route(3));
        // Touch the oldest-inserted entry: it becomes most-recently-used.
        assert_eq!(cache.get(&FileId::new(1)), Some(route(1)));
        // Inserting a fourth must evict file 2 (the LRU), not file 1
        // (which FIFO would have evicted).
        cache.insert(FileId::new(4), route(4));
        assert_eq!(cache.len(), 3);
        assert!(cache.contains_key(&FileId::new(1)), "touched entry stays resident");
        assert!(!cache.contains_key(&FileId::new(2)), "LRU entry evicted");
        assert!(cache.contains_key(&FileId::new(3)));
        assert!(cache.contains_key(&FileId::new(4)));
    }

    #[test]
    fn route_cache_hot_set_survives_a_scan() {
        // A hot working set being re-hit must survive a one-shot scan of
        // cold routes through the cache (the LRU-over-FIFO payoff).
        let mut cache = RouteCache::with_capacity(8);
        for i in 0..4u64 {
            cache.insert(FileId::new(i), route(i));
        }
        for cold in 100..160u64 {
            for hot in 0..4u64 {
                assert!(cache.get(&FileId::new(hot)).is_some(), "hot route {hot} evicted");
            }
            cache.insert(FileId::new(cold), route(cold));
        }
        for hot in 0..4u64 {
            assert!(cache.contains_key(&FileId::new(hot)));
        }
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn route_cache_order_queue_stays_bounded_under_touch_storms() {
        let mut cache = RouteCache::with_capacity(4);
        for i in 0..4u64 {
            cache.insert(FileId::new(i), route(i));
        }
        for _ in 0..10_000 {
            cache.get(&FileId::new(1));
        }
        assert!(
            cache.order.len() <= 2 * 4 + 1,
            "touch-on-hit must not grow the order queue unboundedly: {}",
            cache.order.len()
        );
        // Eviction order still correct after compaction.
        cache.insert(FileId::new(9), route(9));
        assert!(cache.contains_key(&FileId::new(1)), "the touched route survives");
    }

    #[test]
    fn route_cache_remove_then_reinsert_is_not_evicted_by_stale_order() {
        let mut cache = RouteCache::with_capacity(2);
        cache.insert(FileId::new(1), route(1));
        cache.remove(&FileId::new(1));
        cache.insert(FileId::new(1), route(7));
        cache.insert(FileId::new(2), route(2));
        // The stale order entry for the removed generation pops as a
        // no-op; the re-inserted route must still be live.
        cache.insert(FileId::new(3), route(3));
        assert_eq!(cache.len(), 2);
        assert!(!cache.contains_key(&FileId::new(1)), "oldest live entry evicted");
        assert!(cache.contains_key(&FileId::new(2)));
        assert!(cache.contains_key(&FileId::new(3)));
    }

    #[test]
    fn route_cache_counters_track_every_transition() {
        let registry = MetricsRegistry::new();
        let mut cache = RouteCache::with_capacity(2);
        cache.register_metrics(&registry);
        let count = |name: &str| registry.counter(name).get();

        assert_eq!(cache.get(&FileId::new(1)), None);
        assert_eq!(count(names::ROUTE_CACHE_MISSES), 1);
        cache.insert(FileId::new(1), route(1));
        assert_eq!(cache.get(&FileId::new(1)), Some(route(1)));
        assert_eq!(count(names::ROUTE_CACHE_HITS), 1);

        // Filling past capacity evicts exactly one live route.
        cache.insert(FileId::new(2), route(2));
        cache.insert(FileId::new(3), route(3));
        assert_eq!(count(names::ROUTE_CACHE_EVICTIONS), 1);
        // A superseded order entry popping is NOT an eviction: re-touch
        // file 3 (new generation), then evict — still one live removal.
        assert_eq!(cache.get(&FileId::new(3)), Some(route(3)));
        cache.insert(FileId::new(4), route(4));
        assert_eq!(count(names::ROUTE_CACHE_EVICTIONS), 2);

        // A Master hint invalidates only resident routes.
        cache.invalidate(&FileId::new(3));
        cache.invalidate(&FileId::new(999));
        assert_eq!(count(names::ROUTE_CACHE_INVALIDATIONS), 1);
        // A stale-route drop is a plain remove — the batch retry path
        // discards routes the node rejected, which is not a Master hint.
        cache.insert(FileId::new(5), route(5));
        let invalidations_before = count(names::ROUTE_CACHE_INVALIDATIONS);
        cache.remove(&FileId::new(5));
        assert_eq!(count(names::ROUTE_CACHE_INVALIDATIONS), invalidations_before);
        // The `complete: false` hint path clears — every resident route
        // counts as invalidated.
        let resident = cache.len() as u64;
        assert!(resident > 0);
        cache.clear();
        assert_eq!(count(names::ROUTE_CACHE_INVALIDATIONS), invalidations_before + resident);
    }
}
