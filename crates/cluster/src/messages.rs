//! Cluster message types.

use propeller_index::{FileRecord, IndexOp, IndexSpec};
use propeller_obs::{MetricsSnapshot, SlowQuery, Span, TraceContext};
use propeller_query::{Hit, SearchRequest, SearchStats};
use propeller_trace::EdgeUpdate;
use propeller_types::{AcgId, Error, FileId, NodeId, Timestamp};

/// Per-ACG status carried in heartbeats (file count drives the Master's
/// split decisions; paper: the IN reports scale, the MN instructs splits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcgSummary {
    /// The ACG.
    pub acg: AcgId,
    /// The ACG's projected scale: indexed files plus the *net* effect of
    /// buffered ops (pending re-upserts of indexed files add nothing;
    /// pending removes subtract). This is what the Master compares to its
    /// split threshold, so it must not over-count update-heavy traffic.
    pub files: usize,
    /// Buffered (uncommitted) ops, raw (the commit backlog).
    pub pending_ops: usize,
}

/// Route-invalidation hints piggybacked on Master responses: files whose
/// ACG moved in splits the client has not yet heard about. Clients drop
/// the listed routes from their cache **eagerly**, instead of discovering
/// each one lazily through an [`propeller_types::Error::StaleRoute`]
/// rejection, a cache drop and a retry round trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteHints {
    /// The Master's routing generation as of this response; the client
    /// passes it back as `hints_since` on its next resolve.
    pub upto: u64,
    /// Files moved by splits committed in generations `(since, upto]`.
    pub moved: Vec<FileId>,
    /// `false` when the Master's bounded split log no longer reaches back
    /// to `since` — the client cannot know *which* routes moved and must
    /// drop its whole cache.
    pub complete: bool,
}

impl Default for RouteHints {
    fn default() -> Self {
        RouteHints { upto: 0, moved: Vec::new(), complete: true }
    }
}

/// One in-flight two-phase migration, as handed to the coordinator by
/// [`Request::TakeMigrationWork`]. The job is **restartable from any
/// phase**: every step (extract, install, install-ack, remove, commit) is
/// idempotent, so a coordinator that crashed mid-migration simply re-runs
/// the job from the top after recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationJob {
    /// The ACG the part is being carved out of.
    pub source: AcgId,
    /// The source ACG's primary replica.
    pub source_node: NodeId,
    /// The reserved id of the new ACG (not routable until commit).
    pub new_acg: AcgId,
    /// The files being moved.
    pub moved: Vec<FileId>,
    /// The replica set the part is installed on, primary first.
    pub targets: Vec<NodeId>,
    /// Whether the Master already durably logged the install ack — when
    /// true the coordinator may skip straight to the durable remove.
    pub installed: bool,
}

/// A request flowing through the cluster fabric.
#[derive(Debug, Clone)]
pub enum Request {
    // ---- client → master -------------------------------------------------
    /// Resolve (allocating as needed) the ACG and Index Node for each file.
    ResolveFiles {
        /// Files about to be indexed.
        files: Vec<FileId>,
        /// The routing generation of the last `RouteHints` this client
        /// applied (0 for a fresh client); the response's hints cover
        /// everything since.
        hints_since: u64,
        /// Trace context of the sampled request this resolve serves
        /// ([`TraceContext::NONE`] when unsampled).
        ctx: TraceContext,
    },
    /// List every ACG and its replica set: the search fan-out plan a
    /// client caches.
    LocateAcgs,
    /// Register a user-defined index cluster-wide.
    CreateIndex {
        /// The index definition.
        spec: IndexSpec,
    },
    /// Unregister a user-defined index (rollback of a partial broadcast,
    /// or explicit removal).
    DropIndex {
        /// The index name.
        name: String,
    },
    /// An Index Node's per-ACG status, forwarded to the Master: it
    /// refreshes file counts, queues splits and adopts unknown groups. A
    /// node outside the cluster is refused with [`Error::NodeUnavailable`].
    Heartbeat {
        /// Reporting node.
        node: NodeId,
        /// Status of each hosted ACG.
        acgs: Vec<AcgSummary>,
    },
    /// Ask the Master for split work discovered via heartbeats (driven by
    /// the external coordinator, keeping node threads call-free).
    TakeSplitWork,
    /// Phase one of a two-phase migration: durably reserve a new ACG id
    /// and a target replica set for `moved` files of `acg`, **without**
    /// making the new group routable. The Master logs the intent before
    /// answering [`Response::MigrationBegun`], so a crash at any later
    /// point recovers the migration instead of stranding the part. A
    /// moved file that `acg` does not home is refused with
    /// [`Error::FileNotFound`] before anything is logged.
    BeginMigration {
        /// The source ACG being carved.
        acg: AcgId,
        /// The files being carved out.
        moved: Vec<FileId>,
    },
    /// Every target durably installed the part: the Master logs the ack,
    /// after which (and only after which) the coordinator may issue the
    /// durable remove on the source.
    InstallAcked {
        /// The migration's new-group id.
        new_acg: AcgId,
    },
    /// Phase two of a two-phase migration: atomically remap the moved
    /// files, make the new group routable and advance the routing
    /// generation. Requires a prior [`Request::InstallAcked`].
    CommitMigration {
        /// The migration's new-group id.
        new_acg: AcgId,
    },
    /// Fetch the Master's in-flight migrations (restart/recovery path:
    /// the coordinator re-runs each job from the top; every phase is
    /// idempotent). Non-destructive — jobs leave the list only via
    /// [`Request::CommitMigration`].
    TakeMigrationWork,
    /// Fetch the Master's cluster-wide index-spec registry (used to
    /// re-broadcast specs to revived nodes whose local state predates
    /// their creation).
    ListIndexSpecs,
    /// Bind files to a fresh ACG (used when ACG clustering has computed
    /// partitions out-of-band): the Master creates the group on a
    /// least-loaded replica set and places every file in it as one logged
    /// step, then answers [`Response::AcgAllocated`]. The group is never
    /// the open one, so unbound files do not fill it.
    BindFiles {
        /// Files to bind.
        files: Vec<FileId>,
    },

    // ---- client → index node ---------------------------------------------
    /// A batch of index operations for one ACG, addressed to the ACG's
    /// **primary** replica. The primary logs the batch as exactly one WAL
    /// frame and answers [`Response::BatchLogged`] with the frame's LSN;
    /// the client then ships the same frame to each follower replica via
    /// [`Request::ReplicateBatch`]. Replication is client-driven on
    /// purpose: nodes never call each other synchronously, so the actor
    /// graph cannot deadlock on two primaries replicating to one another.
    IndexBatch {
        /// Target ACG.
        acg: AcgId,
        /// The operations.
        ops: Vec<IndexOp>,
        /// Client-side send time.
        now: Timestamp,
        /// Trace context ([`TraceContext::NONE`] when unsampled).
        ctx: TraceContext,
    },
    /// Apply one replicated WAL frame to a follower replica of `acg`.
    /// Every [`Request::IndexBatch`] maps to exactly one frame, so a
    /// follower applying the same frames in the same order assigns the
    /// same LSNs as the primary — replicas stay bit-identical by
    /// construction. The follower checks `lsn` against its own log:
    /// duplicates (`lsn <= last`) are acked without re-applying, the next
    /// frame (`lsn == last + 1`) is applied and committed eagerly, and a
    /// gap (`lsn > last + 1`) is refused with
    /// [`Response::ReplicaLagging`] so the sender runs catch-up.
    ReplicateBatch {
        /// Target ACG (a follower replica on this node).
        acg: AcgId,
        /// The primary's LSN for this frame.
        lsn: u64,
        /// The frame's operations.
        ops: Vec<IndexOp>,
        /// Client-side send time.
        now: Timestamp,
        /// Trace context ([`TraceContext::NONE`] when unsampled).
        ctx: TraceContext,
    },
    /// Fetch the WAL frames of `acg` after `after_lsn` from a live
    /// replica, for catching a lagging peer up. When the replica's WAL no
    /// longer reaches back that far (committed in-memory WALs truncate,
    /// durable WALs truncate at snapshots), it answers a full
    /// [`Response::AcgSeed`] instead of frames.
    FetchAcgFrames {
        /// The ACG to read frames from.
        acg: AcgId,
        /// Ship frames with LSN strictly greater than this.
        after_lsn: u64,
        /// Client-side send time.
        now: Timestamp,
    },
    /// Install a full-state seed on a lagging replica of `acg`: replaces
    /// the replica's records wholesale and rebases its WAL so the next
    /// frame continues at `lsn + 1`, re-aligned with the source.
    SeedAcg {
        /// The ACG to seed.
        acg: AcgId,
        /// The source's applied LSN at capture time.
        lsn: u64,
        /// The source's full record set.
        records: Vec<FileRecord>,
        /// Client-side send time.
        now: Timestamp,
    },
    /// Report the last WAL LSN of every ACG hosted on this node (the
    /// coordinator uses it to pick the freshest live replica as the
    /// catch-up source when a node revives).
    AcgLsns,
    /// Execute a search against the given ACGs (commit-then-search) and
    /// return the whole answer: [`Request::OpenSearch`] with an unbounded
    /// first page, which never leaves a session behind. The node evaluates
    /// the full request locally: predicate, node-wide top-k, sort, cursor
    /// and projection.
    Search {
        /// ACGs hosted on this node to search.
        acgs: Vec<AcgId>,
        /// The full search request (limit, sort, projection, cursor).
        request: SearchRequest,
        /// Client-side send time.
        now: Timestamp,
        /// Trace context ([`TraceContext::NONE`] when unsampled).
        ctx: TraceContext,
    },
    /// Open a **streamed search session** against the given ACGs
    /// (commit-then-search, like [`Request::Search`]) and return its first
    /// page. The node runs the non-ordered share of the search to
    /// completion (bounded by the request's limit) but suspends the
    /// ordered streams between pulls, so the client's cluster-wide merge
    /// can stop pulling this node as soon as its hits provably sort after
    /// the global top-k.
    ///
    /// An ACG in `acgs` the node does not host adds nothing. With `expect`
    /// set, the node first checks the client's cached plan against what
    /// it hosts: any hosted ACG with files that `expect` does not list is
    /// refused with [`Error::StalePlacement`] before anything is pinned.
    /// An open with no `acgs` is only that check: it answers an empty,
    /// exhausted page.
    OpenSearch {
        /// ACGs hosted on this node to search.
        acgs: Vec<AcgId>,
        /// Every ACG the client's plan places on this node, sorted; `None`
        /// opens unchecked.
        expect: Option<Vec<AcgId>>,
        /// The full search request.
        request: SearchRequest,
        /// The opening client (per-client session caps key off this).
        client: u64,
        /// Hits per page.
        page: usize,
        /// Client-side send time.
        now: Timestamp,
        /// Trace context ([`TraceContext::NONE`] when unsampled).
        ctx: TraceContext,
    },
    /// Pull the next page of a streamed search session. Expired sessions
    /// (evicted, closed, node restarted) are rejected with
    /// [`propeller_types::Error::SearchSessionExpired`]; the client
    /// reopens, resuming after the last hit it received.
    PullHits {
        /// The session (from [`Response::SearchPage`]).
        session: u64,
        /// Hits per page.
        page: usize,
        /// Trace context ([`TraceContext::NONE`] when unsampled).
        ctx: TraceContext,
    },
    /// Close a streamed search session, reporting what streaming saved
    /// (see [`propeller_query::SearchStats::node_hits_unsent`]). Closing
    /// an unknown session is a no-op, so closes are idempotent.
    CloseSearch {
        /// The session to drop.
        session: u64,
    },
    /// Flush captured access-causality edges into an ACG's graph.
    FlushAcgDelta {
        /// Target ACG.
        acg: AcgId,
        /// The weighted edges.
        edges: Vec<EdgeUpdate>,
    },

    // ---- master/coordinator → index node -----------------------------------
    /// Compute a balanced bisection of an oversized ACG.
    SplitAcg {
        /// The ACG to split.
        acg: AcgId,
    },
    /// Extract the records and subgraph of `files` from `acg` (migration
    /// source side). The source **tombstones and retains** the extracted
    /// records: stale writes are fenced immediately, but the data is not
    /// removed until the Master durably acks the install and the
    /// coordinator issues [`Request::RemoveAcgPart`] — so a crash between
    /// extract and install loses nothing. Idempotent: re-extracting the
    /// same files returns the same payload.
    ExtractAcgPart {
        /// Source ACG.
        acg: AcgId,
        /// Files to extract.
        files: Vec<FileId>,
    },
    /// Durably remove a previously extracted (tombstoned-and-retained)
    /// part from the migration source — issued only after the Master
    /// logged the targets' install ack. Idempotent: removing
    /// already-removed files is a no-op.
    RemoveAcgPart {
        /// Source ACG.
        acg: AcgId,
        /// The files whose retained copies to drop.
        files: Vec<FileId>,
    },
    /// Install a migrated ACG part (migration target side).
    InstallAcg {
        /// New ACG id.
        acg: AcgId,
        /// Its records.
        records: Vec<FileRecord>,
        /// Its causality edges.
        edges: Vec<EdgeUpdate>,
    },
    /// Advance background work: commit timed-out caches, emit a heartbeat.
    Tick {
        /// Current time.
        now: Timestamp,
    },
    /// Fetch an Index Node's counters (observability; tests and benches).
    NodeStats,
    /// Harvest (and remove) every span this lane recorded for one trace.
    /// The client fans this out after a sampled request and assembles the
    /// shards into a single [`propeller_obs::TraceTree`].
    DumpTrace {
        /// The trace to harvest.
        trace: u64,
    },
    /// Snapshot this lane's metrics registry. Snapshots merge exactly
    /// (histograms sum bucket-wise), so `Cluster::metrics_report` computes
    /// true cross-node quantiles.
    Metrics,
    /// Dump this node's slow-query ring (postmortems).
    DumpSlowQueries,
    /// Orderly shutdown.
    Shutdown,
}

/// A response to a [`Request`].
#[derive(Debug, Clone)]
pub enum Response {
    /// Generic success.
    Ok,
    /// Resolution result, parallel to the request's file list, plus the
    /// route-invalidation hints accumulated since the client's last
    /// resolve.
    Resolved {
        /// One `(file, acg, node)` row per requested file; the node is the
        /// ACG's **primary** replica (where writes go first).
        rows: Vec<(FileId, AcgId, NodeId)>,
        /// Split-driven route invalidations for the client's cache.
        hints: RouteHints,
        /// The full replica set (primary first) of every ACG named in
        /// `rows`, so the client can replicate logged batches to
        /// followers without another Master round trip.
        replicas: Vec<(AcgId, Vec<NodeId>)>,
    },
    /// ACG placement listing: each ACG's replica set, primary first.
    Located(Vec<(AcgId, Vec<NodeId>)>),
    /// One node's partial search response: hits in request sort order
    /// (at most `limit`, deduplicated per node) plus this node's share of
    /// the execution stats — including the service time measured against
    /// the node's own clock and any ordered-scan early-termination
    /// counters. The client's engine k-way merges these.
    SearchHits {
        /// The node's top hits, sorted per the request.
        hits: Vec<Hit>,
        /// The node's execution stats.
        stats: SearchStats,
    },
    /// One page of a streamed search session
    /// ([`Request::OpenSearch`] / [`Request::PullHits`]): hits strictly
    /// after everything the session shipped before, in request sort
    /// order — so per-node pages chain into one sorted stream the client
    /// merge consumes directly.
    SearchPage {
        /// The session to pull next (0 when `exhausted`: the node already
        /// dropped it and the client must neither pull nor close).
        session: u64,
        /// The page's hits.
        hits: Vec<Hit>,
        /// This round trip's share of the stats (`pages_pulled` = 1).
        stats: SearchStats,
        /// The session has nothing left to ship.
        exhausted: bool,
    },
    /// A closed streamed session's final accounting: the hits the node
    /// never had to ship and the ordered candidates it never examined.
    SearchClosed {
        /// The close-time stats (`node_hits_unsent`, `merge_skipped`).
        stats: SearchStats,
    },
    /// A split computed by an Index Node: the two halves.
    SplitHalves {
        /// Files for the left (kept) half.
        left: Vec<FileId>,
        /// Files for the right (moved) half.
        right: Vec<FileId>,
    },
    /// Pending split work from the Master: `(acg, owner)` pairs.
    SplitWork(Vec<(AcgId, NodeId)>),
    /// The ACG a [`Request::BindFiles`] created and its replica set,
    /// primary first.
    AcgAllocated(AcgId, Vec<NodeId>),
    /// A primary logged an [`Request::IndexBatch`] as one WAL frame.
    BatchLogged {
        /// The frame's LSN (ship it with the follower
        /// [`Request::ReplicateBatch`]s).
        lsn: u64,
    },
    /// A follower applied (or already had) a replicated frame.
    ReplicaApplied {
        /// The follower's last WAL LSN after applying.
        lsn: u64,
    },
    /// A follower refused a replicated frame because it would leave a gap
    /// in its WAL; the sender must catch the follower up (frames or seed)
    /// before retrying.
    ReplicaLagging {
        /// The follower's last WAL LSN (catch-up starts after it).
        lsn: u64,
    },
    /// Raw WAL frames for replica catch-up, in LSN order.
    AcgFrames(Vec<(u64, Vec<u8>)>),
    /// A full-state seed for replica catch-up, captured post-commit so
    /// the record set reflects every logged frame.
    AcgSeed {
        /// The source's applied LSN at capture time.
        lsn: u64,
        /// The source's full record set.
        records: Vec<FileRecord>,
    },
    /// Per-ACG last WAL LSNs of one node (response to
    /// [`Request::AcgLsns`]), sorted by ACG id.
    AcgLsnReport(Vec<(AcgId, u64)>),
    /// Extracted migration payload.
    AcgPart {
        /// Extracted records.
        records: Vec<FileRecord>,
        /// Extracted causality edges.
        edges: Vec<EdgeUpdate>,
    },
    /// An Index Node's per-ACG status (returned by `Tick`; the coordinator
    /// forwards it to the Master as a heartbeat).
    Status {
        /// Status of each hosted ACG.
        acgs: Vec<AcgSummary>,
    },
    /// Phase one of a migration was durably logged
    /// (response to [`Request::BeginMigration`]).
    MigrationBegun {
        /// The reserved new-group id.
        new_acg: AcgId,
        /// The replica set to install the part on, primary first.
        targets: Vec<NodeId>,
    },
    /// The Master's in-flight migrations
    /// (response to [`Request::TakeMigrationWork`]).
    MigrationWork(Vec<MigrationJob>),
    /// The Master's cluster-wide index-spec registry
    /// (response to [`Request::ListIndexSpecs`]).
    IndexSpecs(Vec<IndexSpec>),
    /// An Index Node's counters (response to [`Request::NodeStats`]).
    NodeStatsReport {
        /// The reporting node.
        node: NodeId,
        /// Hosted ACGs.
        acgs: usize,
        /// Suspended streamed search sessions.
        open_sessions: usize,
        /// Index ops acknowledged but not yet committed, over all groups.
        pending_ops: usize,
        /// Searches served (`Search` plus `OpenSearch`).
        searches_served: u64,
        /// Index ops received (primary plus replicated).
        ops_received: u64,
        /// Epochs published (non-empty commits).
        commits_published: u64,
        /// Snapshot jobs offloaded to the background writer.
        snapshots_offloaded: u64,
    },
    /// One lane's harvested spans for a trace
    /// (response to [`Request::DumpTrace`]).
    TraceSpans(Vec<Span>),
    /// One lane's metrics snapshot (response to [`Request::Metrics`]).
    Metrics(Box<MetricsSnapshot>),
    /// One node's slow-query ring, oldest first
    /// (response to [`Request::DumpSlowQueries`]).
    SlowQueries(Vec<SlowQuery>),
    /// Failure.
    Err(Error),
}

impl Response {
    /// Unwraps `Ok`-like responses into `Result`.
    pub fn into_result(self) -> Result<Response, Error> {
        match self {
            Response::Err(e) => Err(e),
            other => Ok(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn into_result_propagates_errors() {
        let err = Response::Err(Error::Shutdown);
        assert!(err.into_result().is_err());
        assert!(Response::Ok.into_result().is_ok());
    }

    #[test]
    fn messages_are_cloneable_and_debuggable() {
        let req = Request::LocateAcgs;
        let _ = format!("{:?}", req.clone());
        let resp = Response::Located(vec![(AcgId::new(1), vec![NodeId::new(2), NodeId::new(3)])]);
        let _ = format!("{:?}", resp.clone());
    }
}
