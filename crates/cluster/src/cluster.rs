//! Cluster assembly: spawning node actors, and the maintenance
//! coordinator ([`maintain`]) that both deployment shapes drive.

use std::sync::Arc;

use propeller_acg::PartitionConfig;
use propeller_index::durable::Codec;
use propeller_index::IndexOp;
use propeller_obs::TraceContext;
use propeller_sim::{Clock, SimClock, WallClock};
use propeller_types::{AcgId, Duration, Error, NodeId, Result, Timestamp};

use crate::client::FileQueryEngine;
use crate::index_node::{IndexNode, IndexNodeConfig};
use crate::master::{MasterConfig, MasterNode};
use crate::messages::{MigrationJob, Request, Response};
use crate::rpc::{run_actor, ReplyTo, Rpc};

/// Configuration for [`Cluster::start`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of Index Nodes (the paper evaluates 1–8).
    pub index_nodes: usize,
    /// Lazy-commit timeout on every Index Node (paper default 5 s).
    pub commit_timeout: Duration,
    /// ACG file count that triggers a background split.
    pub split_threshold: usize,
    /// Files per default-allocated ACG.
    pub group_capacity: usize,
    /// Seed for each Index Node's partitioner (node `i` takes `seed + i`).
    pub seed: u64,
    /// Virtual clock: `Some` times the cluster (commit timeouts, spans,
    /// histograms) on this clock, which only its owner advances; `None`
    /// uses the wall clock.
    pub sim_clock: Option<SimClock>,
    /// Per-node cap on suspended streamed search sessions (see
    /// [`IndexNodeConfig::max_search_sessions`]).
    pub max_search_sessions: usize,
    /// Durable storage root: each Index Node gets a `node-<id>`
    /// subdirectory holding its groups' WALs and snapshots, the Master
    /// gets a `master` subdirectory holding its metadata WAL and
    /// checkpoints, and [`Cluster::revive_index_node`] /
    /// [`Cluster::restart`] restore killed actors' committed state from
    /// there. `None` (the default) keeps everything in memory — a revived
    /// node then starts empty, as before.
    pub data_dir: Option<std::path::PathBuf>,
    /// Per-group snapshot trigger: ops logged since the last snapshot (see
    /// [`IndexNodeConfig::snapshot_wal_ops`]).
    pub snapshot_wal_ops: u64,
    /// Replication factor R: every ACG lives on R distinct Index Nodes
    /// (clamped to the cluster size). The first replica is the primary —
    /// clients write through it and ship the committed WAL frame to the
    /// followers — and searches fail over across the set. `1` (the
    /// default) reproduces the unreplicated cluster exactly.
    pub replication: usize,
    /// Node-side slow-query threshold: a search whose measured service
    /// time reaches it is captured (plan, stats, spans) in the node's
    /// bounded slow-query ring, dumpable via [`Cluster::slow_queries`].
    /// `None` (the default) disables capture.
    pub slow_query_threshold: Option<Duration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            index_nodes: 4,
            commit_timeout: Duration::from_secs(5),
            split_threshold: 50_000,
            group_capacity: 1000,
            seed: 42,
            sim_clock: None,
            max_search_sessions: 1024,
            data_dir: None,
            snapshot_wal_ops: 10_000,
            replication: 1,
            slow_query_threshold: None,
        }
    }
}

/// A running Propeller cluster: one Master actor and N Index Node actors.
///
/// See the crate-level example for a full index-then-search round trip.
pub struct Cluster {
    rpc: Rpc,
    master: NodeId,
    index_nodes: Vec<NodeId>,
    clock: Arc<dyn Clock>,
    /// Kept so revived nodes get the same per-node settings as `start`
    /// gave the originals.
    config: ClusterConfig,
    /// Nodes are served on the posting thread ([`Cluster::start_inline`]).
    inline: bool,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("master", &self.master)
            .field("index_nodes", &self.index_nodes)
            .finish()
    }
}

impl Cluster {
    /// Boots a cluster: spawns the Master and Index Node actor threads.
    ///
    /// # Panics
    ///
    /// Panics if `config.index_nodes` is zero.
    pub fn start(config: ClusterConfig) -> Cluster {
        Self::boot(config, false)
    }

    /// Boots a cluster whose nodes are served **inline**: a request runs
    /// its node's handler on the thread that sends it (an Index Node's
    /// searches still finish on its worker pool), so booting starts no
    /// thread. With one Index Node this is the paper's single-machine
    /// setup (§V-B), driven by the same client as any cluster.
    ///
    /// # Panics
    ///
    /// Panics if `config.index_nodes` is zero.
    pub fn start_inline(config: ClusterConfig) -> Cluster {
        Self::boot(config, true)
    }

    fn boot(config: ClusterConfig, inline: bool) -> Cluster {
        assert!(config.index_nodes > 0, "a cluster needs at least one index node");
        let clock: Arc<dyn Clock> = match &config.sim_clock {
            Some(sim) => Arc::new(sim.clone()),
            None => Arc::new(WallClock::new()),
        };
        Self::assemble(Rpc::new(), clock, config, inline)
    }

    /// Serves the Master and every Index Node on `rpc` (node ids 0 and
    /// 1..=N), recovering any durable state `config` points at.
    fn assemble(rpc: Rpc, clock: Arc<dyn Clock>, config: ClusterConfig, inline: bool) -> Cluster {
        let index_nodes = (1..=config.index_nodes as u32).map(NodeId::new).collect();
        let master = NodeId::new(0);
        let mut cluster =
            Cluster { rpc, master, index_nodes, clock, config, inline, handles: Vec::new() };
        cluster.spawn_master();
        for i in 0..cluster.index_nodes.len() {
            cluster.spawn_index_node(i);
        }
        cluster
    }

    /// Spawns (or respawns) the Master actor. On a durable cluster the
    /// Master recovers its full metadata state machine — placements, ACG
    /// allocation, index specs, routing generation, in-flight migrations —
    /// from the `master` subdirectory's checkpoint + WAL suffix before
    /// serving its first request.
    fn spawn_master(&mut self) {
        self.serve(self.master, "propeller-master".into(), |cluster| {
            let master_cfg = MasterConfig {
                group_capacity: cluster.config.group_capacity,
                split_threshold: cluster.config.split_threshold,
                replication: cluster.config.replication,
                data_dir: cluster.config.data_dir.as_ref().map(|d| d.join("master")),
                ..MasterConfig::default()
            };
            let nodes = cluster.index_nodes.clone();
            let mut master = if master_cfg.data_dir.is_some() {
                MasterNode::open(nodes, master_cfg).expect("recover master metadata")
            } else {
                MasterNode::new(nodes, master_cfg)
            }
            .with_clock(cluster.clock.clone());
            move |req, reply: ReplyTo| reply.send(master.handle(req))
        });
    }

    /// Spawns (or respawns) the `i`-th Index Node actor. `open` restores
    /// any durable state a previous run left under the node's data dir.
    fn spawn_index_node(&mut self, i: usize) {
        let id = self.index_nodes[i];
        self.serve(id, format!("propeller-in-{}", id.raw()), |cluster| {
            let mut node = IndexNode::open(id, Self::index_node_config(&cluster.config, id, i))
                .expect("recover index node state")
                .with_clock(cluster.clock.clone());
            move |req, reply: ReplyTo| node.handle_deferred(req, move |resp| reply.send(resp))
        });
    }

    /// Serves `node` with the handler `build` makes: inline, or on an
    /// actor thread named `name` whose mailbox is registered before
    /// `build` runs, so requests sent while a node recovers queue instead
    /// of failing.
    fn serve<H>(&mut self, node: NodeId, name: String, build: impl FnOnce(&Self) -> H)
    where
        H: FnMut(Request, ReplyTo) + Send + 'static,
    {
        if self.inline {
            return self.rpc.register_inline(node, build(self));
        }
        let rx = self.rpc.register(node);
        let handler = build(self);
        let actor = std::thread::Builder::new().name(name).spawn(move || run_actor(rx, handler));
        self.handles.push(actor.expect("spawn node actor"));
    }

    /// The per-node config the `i`-th Index Node was started with (shared
    /// by `start` and `revive_index_node` so a revived node behaves like
    /// the original — and recovers from the same `node-<id>` directory).
    fn index_node_config(config: &ClusterConfig, id: NodeId, i: usize) -> IndexNodeConfig {
        IndexNodeConfig {
            commit_timeout: config.commit_timeout,
            partition: PartitionConfig {
                seed: config.seed.wrapping_add(i as u64),
                ..PartitionConfig::default()
            },
            max_search_sessions: config.max_search_sessions,
            data_dir: config.data_dir.as_ref().map(|d| d.join(format!("node-{}", id.raw()))),
            snapshot_wal_ops: config.snapshot_wal_ops,
            slow_query_threshold: config.slow_query_threshold,
            ..IndexNodeConfig::default()
        }
    }

    /// A new client handle with the default client options; set paging,
    /// the route-cache bound and trace sampling through its builders
    /// ([`FileQueryEngine::with_search_page_size`],
    /// [`FileQueryEngine::with_route_cache_capacity`],
    /// [`FileQueryEngine::with_trace_sampling`]).
    pub fn client(&self) -> FileQueryEngine {
        FileQueryEngine::new(
            self.rpc.clone(),
            self.master,
            self.index_nodes.clone(),
            self.clock.clone(),
        )
    }

    /// Snapshots every reachable lane's metrics registry (the Master and
    /// every Index Node; dead nodes are skipped) and merges them into one
    /// cluster-wide view: counters and gauges sum, histograms merge
    /// bucket-wise — so a p99 read off the merged snapshot is the p99 of
    /// the **combined** latency population, not an average of per-node
    /// quantiles.
    pub fn metrics_snapshot(&self) -> propeller_obs::MetricsSnapshot {
        let mut merged = propeller_obs::MetricsSnapshot::default();
        for node in std::iter::once(self.master).chain(self.index_nodes.iter().copied()) {
            if let Ok(Response::Metrics(snap)) = self.rpc.call(node, Request::Metrics) {
                merged.merge(&snap);
            }
        }
        merged
    }

    /// Human-readable cluster-wide metrics exposition: the merged
    /// [`Cluster::metrics_snapshot`], rendered (counters, gauges, then
    /// histograms with count / mean / p50 / p95 / p99 / p999 / max).
    pub fn metrics_report(&self) -> String {
        self.metrics_snapshot().render()
    }

    /// Dumps every node's slow-query ring (oldest first per node; dead
    /// nodes are skipped). Captures only happen when
    /// [`ClusterConfig::slow_query_threshold`] is set.
    pub fn slow_queries(&self) -> Vec<propeller_obs::SlowQuery> {
        let mut out = Vec::new();
        for node in std::iter::once(self.master).chain(self.index_nodes.iter().copied()) {
            if let Ok(Response::SlowQueries(mut rows)) =
                self.rpc.call(node, Request::DumpSlowQueries)
            {
                out.append(&mut rows);
            }
        }
        out
    }

    /// The fabric handle (tests and benches).
    pub fn rpc(&self) -> &Rpc {
        &self.rpc
    }

    /// The Master's node id.
    pub fn master_id(&self) -> NodeId {
        self.master
    }

    /// The Index Nodes' ids.
    pub fn index_node_ids(&self) -> &[NodeId] {
        &self.index_nodes
    }

    /// The cluster's current time (wall or virtual).
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Number of routable ACGs (0 while the Master is unreachable).
    pub fn acg_count(&self) -> usize {
        match self.rpc.call(self.master, Request::LocateAcgs) {
            Ok(Response::Located(rows)) => rows.len(),
            _ => 0,
        }
    }

    /// Index ops acknowledged but not yet committed, summed over the
    /// Index Nodes (dead nodes are skipped).
    pub fn pending_ops(&self) -> usize {
        let pending = |&node: &NodeId| match self.rpc.call(node, Request::NodeStats) {
            Ok(Response::NodeStatsReport { pending_ops, .. }) => pending_ops,
            _ => 0,
        };
        self.index_nodes.iter().map(pending).sum()
    }

    /// Restarts a previously killed Index Node under the same id. On a
    /// durable cluster ([`ClusterConfig::data_dir`]) the revived node
    /// **restores every hosted group from disk** — newest valid snapshot
    /// plus WAL suffix — so it serves its pre-crash committed hits
    /// immediately; resumed search sessions recover through the client's
    /// transparent reopen (the session table itself dies with the node,
    /// but the reopened session finds the data again instead of an empty
    /// node silently shortening `AllowPartial` streams). Without a data
    /// dir the node comes back empty, as before, and the client must
    /// re-index. The Master's ACG placements still reference the id, so
    /// routed batches and searches reach the revived node immediately.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not one of this cluster's Index Node ids, or if
    /// the node's durable state cannot be recovered.
    pub fn revive_index_node(&mut self, id: NodeId) {
        let i = self
            .index_nodes
            .iter()
            .position(|&n| n == id)
            .unwrap_or_else(|| panic!("{id} is not an index node of this cluster"));
        self.spawn_index_node(i);
        // The Master is the durable home of the index-spec catalogue:
        // replay it onto the revived node so indices created while the
        // node was dead exist there too. Best-effort — a dead Master just
        // means the next revival or restart closes the gap.
        let _ = self.rebroadcast_index_specs_to(&[id]);
    }

    /// Stops every actor thread, waits for them, and boots the whole
    /// cluster again from its durable state on the **same** RPC fabric
    /// and clock — existing clients keep working across the restart. The Master replays its metadata WAL (on top of its newest
    /// valid checkpoint), each Index Node restores its groups from disk,
    /// and the Master's index-spec catalogue is re-broadcast to every
    /// node. In-flight two-phase migrations stay parked until the next
    /// [`Cluster::run_maintenance`] resumes them from their logged phase;
    /// searches are already correct before that because an uncommitted
    /// migration's new ACG is never routable.
    ///
    /// On a non-durable cluster (`data_dir: None`) this degrades to a
    /// whole-cluster power loss: everything comes back empty.
    pub fn restart(mut self) -> Cluster {
        for &node in std::iter::once(&self.master).chain(&self.index_nodes) {
            self.rpc.deregister(node);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        let cluster = Cluster::assemble(
            self.rpc.clone(),
            self.clock.clone(),
            self.config.clone(),
            self.inline,
        );
        let _ = cluster.rebroadcast_index_specs_to(&cluster.index_nodes.clone());
        cluster
    }

    /// Replays the Master's durable index-spec catalogue onto `nodes`.
    /// `CreateIndex` is idempotent on Index Nodes, so re-sending a spec a
    /// node already built is a no-op.
    fn rebroadcast_index_specs_to(&self, nodes: &[NodeId]) -> Result<()> {
        let specs = match self.rpc.call(self.master, Request::ListIndexSpecs)? {
            Response::IndexSpecs(specs) => specs,
            other => return Err(unexpected(other)),
        };
        for spec in specs {
            for &node in nodes {
                match self.rpc.call(node, Request::CreateIndex { spec: spec.clone() })? {
                    Response::Ok => {}
                    Response::Err(e) => return Err(e),
                    other => return Err(unexpected(other)),
                }
            }
        }
        Ok(())
    }

    /// One maintenance round over the fabric ([`maintain`]). Returns the
    /// number of migrations completed (resumed + fresh).
    ///
    /// # Errors
    ///
    /// Fails if any node is unreachable mid-round. Safe to re-run: every
    /// migration phase is idempotent and the Master re-hands unfinished
    /// work via `TakeMigrationWork`.
    pub fn run_maintenance(&self) -> Result<usize> {
        maintain(&self.rpc, self.master, &self.index_nodes, self.clock.now())
    }

    /// Catches a node up with its replica peers: for every ACG the node
    /// hosts, finds the peer holding the highest LSN and replays the tail
    /// (or seeds a snapshot) into the node. Run after
    /// [`Cluster::revive_index_node`] — a revived node rejoins with
    /// whatever its durable state held (nothing, in memory mode) and this
    /// closes the gap to the writes it missed while dead. Best-effort per
    /// ACG: an unreachable peer just means that ACG stays stale until the
    /// next catch-up.
    ///
    /// Returns the number of ACGs synced.
    ///
    /// # Errors
    ///
    /// Fails if the Master is unreachable.
    pub fn catch_up_node(&self, id: NodeId) -> Result<usize> {
        let now = self.clock.now();
        let rows = match self.rpc.call(self.master, Request::LocateAcgs)? {
            Response::Located(rows) => rows,
            other => return Err(unexpected(other)),
        };
        let mut synced = 0;
        for (acg, replicas) in rows {
            if !replicas.contains(&id) {
                continue;
            }
            // Sync from the peer with the longest log — with one client
            // writing through the primary all live peers agree, but after
            // cascaded failures the longest log is the freshest.
            let mut best: Option<(NodeId, u64)> = None;
            for &peer in replicas.iter().filter(|&&n| n != id) {
                if let Ok(lsn) = acg_lsn(&self.rpc, peer, acg) {
                    if best.is_none_or(|(_, b)| lsn > b) {
                        best = Some((peer, lsn));
                    }
                }
            }
            if let Some((peer, _)) = best {
                if sync_follower(&self.rpc, peer, id, acg, now).is_ok() {
                    synced += 1;
                }
            }
        }
        Ok(synced)
    }

    /// Stops every node thread and waits for them.
    pub fn shutdown(mut self) {
        for &node in std::iter::once(&self.master).chain(&self.index_nodes) {
            let _ = self.rpc.call(node, Request::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One maintenance round, played by the external coordinator (the
/// paper's "background" tasks) over `rpc` — actor threads or inline nodes
/// alike, so a single-node service splits exactly as a cluster does:
///
/// 1. `Tick` every Index Node in `nodes` — commits timed-out caches and
///    collects ACG summaries plus the node's current search load,
/// 2. forward each summary to `master` as that node's heartbeat,
/// 3. resume every two-phase migration the Master still holds open — an
///    earlier coordinator (or a crash) left it in flight, and each job
///    restarts from its durably logged phase,
/// 4. drain the Master's split queue and run each split as a fresh
///    two-phase migration: bisect on the owner, `BeginMigration` at the
///    Master (durably logged intent), then drive the phases.
///
/// Returns the number of migrations completed (resumed + fresh).
///
/// # Errors
///
/// Fails if any node is unreachable or refuses a step mid-round. Safe to
/// re-run: every migration phase is idempotent and the Master re-hands
/// unfinished work via `TakeMigrationWork`.
pub fn maintain(rpc: &Rpc, master: NodeId, nodes: &[NodeId], now: Timestamp) -> Result<usize> {
    // 1 + 2: tick, gather, heartbeat.
    for &node in nodes {
        if let Response::Status { acgs } = rpc.call(node, Request::Tick { now })? {
            rpc.call(master, Request::Heartbeat { node, acgs })?;
        }
    }
    // 3: finish what a predecessor started before opening new work.
    let jobs = match rpc.call(master, Request::TakeMigrationWork)? {
        Response::MigrationWork(jobs) => jobs,
        other => return Err(unexpected(other)),
    };
    let mut done = 0;
    for job in jobs {
        execute_migration(rpc, master, &job, now)?;
        done += 1;
    }
    // 4: fresh splits, each as a two-phase migration.
    let work = match rpc.call(master, Request::TakeSplitWork)? {
        Response::SplitWork(work) => work,
        other => return Err(unexpected(other)),
    };
    for (acg, owner) in work {
        let right = match rpc.call(owner, Request::SplitAcg { acg })? {
            Response::SplitHalves { left, right } if !left.is_empty() && !right.is_empty() => right,
            Response::SplitHalves { .. } => continue,
            other => return Err(unexpected(other)),
        };
        let begin = Request::BeginMigration { acg, moved: right.clone() };
        let (new_acg, targets) = match rpc.call(master, begin)? {
            Response::MigrationBegun { new_acg, targets } => (new_acg, targets),
            other => return Err(unexpected(other)),
        };
        let job = MigrationJob {
            source: acg,
            source_node: owner,
            new_acg,
            moved: right,
            targets,
            installed: false,
        };
        execute_migration(rpc, master, &job, now)?;
        done += 1;
    }
    Ok(done)
}

/// Drives one two-phase migration from whatever phase the Master has
/// durably recorded through to commit:
///
/// 1. **Extract** the moved half on the source primary — it fences
///    the files behind tombstones but **retains** the records,
/// 2. **Install** the part on every target replica (idempotent
///    upserts; identical frames in identical order keep the targets
///    bit-identical),
/// 3. **InstallAcked** at the Master — the durable point of no
///    return; from here recovery never re-extracts,
/// 4. **Remove** the moved half from the source, with a strict WAL
///    sync — only now does the source give the records up,
/// 5. re-sync the source's followers so the remove frame reaches them
///    (best-effort: a dead follower re-syncs on revival),
/// 6. **CommitMigration** at the Master — remaps the files, registers
///    the new ACG's replicas and bumps the routing generation in one
///    logged step.
///
/// A crash between any two steps leaves exactly one routable home for
/// every moved file: before step 6 the new ACG is not in the routing
/// table, and the source keeps (fenced) custody until step 4.
fn execute_migration(rpc: &Rpc, master: NodeId, job: &MigrationJob, now: Timestamp) -> Result<()> {
    if !job.installed {
        let extract = Request::ExtractAcgPart { acg: job.source, files: job.moved.clone() };
        let (records, edges) = match rpc.call(job.source_node, extract)? {
            Response::AcgPart { records, edges } => (records, edges),
            other => return Err(unexpected(other)),
        };
        for &target in &job.targets {
            let install = Request::InstallAcg {
                acg: job.new_acg,
                records: records.clone(),
                edges: edges.clone(),
            };
            rpc.call(target, install)?;
        }
        rpc.call(master, Request::InstallAcked { new_acg: job.new_acg })?;
    }
    rpc.call(
        job.source_node,
        Request::RemoveAcgPart { acg: job.source, files: job.moved.clone() },
    )?;
    if let Ok(Response::Located(rows)) = rpc.call(master, Request::LocateAcgs) {
        if let Some((_, set)) = rows.into_iter().find(|(a, _)| *a == job.source) {
            for &follower in set.iter().filter(|&&n| n != job.source_node) {
                let _ = sync_follower(rpc, job.source_node, follower, job.source, now);
            }
        }
    }
    rpc.call(master, Request::CommitMigration { new_acg: job.new_acg })?;
    Ok(())
}

/// The LSN `node`'s copy of `acg` ends at (`0` when it holds none).
fn acg_lsn(rpc: &Rpc, node: NodeId, acg: AcgId) -> Result<u64> {
    match rpc.call(node, Request::AcgLsns)? {
        Response::AcgLsnReport(rows) => {
            Ok(rows.into_iter().find(|(a, _)| *a == acg).map_or(0, |(_, lsn)| lsn))
        }
        other => Err(unexpected(other)),
    }
}

/// Brings `follower`'s copy of `acg` up to date with `source`'s: asks the
/// follower where its log ends, then [`sync_replica`]s the tail.
///
/// # Errors
///
/// Fails if either node is unreachable or answers out of protocol.
fn sync_follower(
    rpc: &Rpc,
    source: NodeId,
    follower: NodeId,
    acg: AcgId,
    now: Timestamp,
) -> Result<u64> {
    let have = acg_lsn(rpc, follower, acg)?;
    sync_replica(rpc, source, follower, acg, have, now)
}

/// Brings `target`'s copy of `acg` up to date with `source`'s, shipping
/// WAL frames after `after_lsn` when the source still retains them and a
/// full snapshot seed once the source's WAL has been truncated past the
/// gap. Returns the LSN the target acknowledged.
///
/// The sync is **client/coordinator-driven** — the source and target
/// never talk to each other — so the actor graph cannot deadlock on two
/// nodes catching each other up.
pub(crate) fn sync_replica(
    rpc: &Rpc,
    source: NodeId,
    target: NodeId,
    acg: AcgId,
    after_lsn: u64,
    now: Timestamp,
) -> Result<u64> {
    match rpc.call(source, Request::FetchAcgFrames { acg, after_lsn, now })? {
        Response::AcgFrames(frames) => {
            let mut applied = after_lsn;
            for (lsn, frame) in frames {
                let ops = Vec::<IndexOp>::decode(&frame)?;
                // Catch-up traffic is never sampled: it runs outside any
                // client request.
                let req = Request::ReplicateBatch { acg, lsn, ops, now, ctx: TraceContext::NONE };
                match rpc.call(target, req)? {
                    Response::ReplicaApplied { lsn } => applied = lsn,
                    Response::ReplicaLagging { lsn } => {
                        return Err(Error::Rpc(format!(
                            "replica {target:?} still lagging at lsn {lsn} during catch-up"
                        )));
                    }
                    other => return Err(unexpected(other)),
                }
            }
            Ok(applied)
        }
        Response::AcgSeed { lsn, records } => {
            match rpc.call(target, Request::SeedAcg { acg, lsn, records, now })? {
                Response::ReplicaApplied { lsn } => Ok(lsn),
                other => Err(unexpected(other)),
            }
        }
        other => Err(unexpected(other)),
    }
}

fn unexpected(other: Response) -> Error {
    Error::Rpc(format!("unexpected response {other:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_index::{FileRecord, IndexSpec};
    use propeller_types::{AttrName, FileId, InodeAttrs};

    fn record(file: u64, size_mib: u64) -> FileRecord {
        FileRecord::new(FileId::new(file), InodeAttrs::builder().size(size_mib << 20).build())
    }

    #[test]
    fn end_to_end_index_and_search() {
        let cluster = Cluster::start(ClusterConfig { index_nodes: 4, ..Default::default() });
        let mut client = cluster.client();
        client.index_files((0..100).map(|i| record(i, i)).collect()).unwrap();
        let hits = client.search_text("size>16m").unwrap();
        assert_eq!(hits.len(), 83, "sizes 17..99 MiB");
        cluster.shutdown();
    }

    #[test]
    fn files_spread_across_nodes() {
        let cluster = Cluster::start(ClusterConfig {
            index_nodes: 4,
            group_capacity: 10,
            ..Default::default()
        });
        let mut client = cluster.client();
        client.index_files((0..100).map(|i| record(i, 1)).collect()).unwrap();
        // 100 files / 10 per ACG = 10 ACGs over 4 nodes.
        let located = match cluster.rpc().call(cluster.master_id(), Request::LocateAcgs) {
            Ok(Response::Located(rows)) => rows,
            other => panic!("{other:?}"),
        };
        assert_eq!(located.len(), 10);
        let nodes: std::collections::HashSet<NodeId> =
            located.iter().map(|(_, replicas)| replicas[0]).collect();
        assert!(nodes.len() >= 3, "load should spread: {nodes:?}");
        cluster.shutdown();
    }

    #[test]
    fn replicated_cluster_indexes_and_searches() {
        let cluster =
            Cluster::start(ClusterConfig { index_nodes: 4, replication: 2, ..Default::default() });
        let mut client = cluster.client();
        client.index_files((0..100).map(|i| record(i, i)).collect()).unwrap();
        assert_eq!(client.search_text("size>16m").unwrap().len(), 83);
        // Every ACG reports two distinct replicas.
        let located = match cluster.rpc().call(cluster.master_id(), Request::LocateAcgs) {
            Ok(Response::Located(rows)) => rows,
            other => panic!("{other:?}"),
        };
        for (acg, replicas) in located {
            assert_eq!(replicas.len(), 2, "{acg:?} should have 2 replicas: {replicas:?}");
            assert_ne!(replicas[0], replicas[1]);
        }
        cluster.shutdown();
    }

    #[test]
    fn replicated_split_keeps_both_replicas_aligned() {
        let cluster = Cluster::start(ClusterConfig {
            index_nodes: 3,
            replication: 2,
            group_capacity: 1000,
            split_threshold: 50,
            ..Default::default()
        });
        let mut client = cluster.client();
        client.index_files((0..120).map(|i| record(i, 1)).collect()).unwrap();
        let splits = cluster.run_maintenance().unwrap();
        assert!(splits >= 1, "expected at least one split, got {splits}");
        // All files still searchable, through primaries or followers.
        assert_eq!(client.search_text("size>0").unwrap().len(), 120);
        // Every replica of every ACG — the split source that shed files
        // and the new ACG installed on fresh targets — must serve the
        // exact same hit list: the split may not desync the sets.
        let located = match cluster.rpc().call(cluster.master_id(), Request::LocateAcgs) {
            Ok(Response::Located(rows)) => rows,
            other => panic!("{other:?}"),
        };
        let now = cluster.clock.now();
        let request = propeller_query::SearchRequest::parse("size>0", now).unwrap();
        for (acg, replicas) in located {
            assert_eq!(replicas.len(), 2, "{acg:?}: {replicas:?}");
            let answers: Vec<Vec<propeller_types::FileId>> = replicas
                .iter()
                .map(|&node| {
                    let req = Request::Search {
                        acgs: vec![acg],
                        request: request.clone(),
                        now,
                        ctx: propeller_obs::TraceContext::NONE,
                    };
                    match cluster.rpc().call(node, req) {
                        Ok(Response::SearchHits { hits, .. }) => {
                            hits.into_iter().map(|h| h.file).collect()
                        }
                        other => panic!("{other:?}"),
                    }
                })
                .collect();
            assert_eq!(answers[0], answers[1], "{acg:?} replicas diverged after the split");
            assert!(!answers[0].is_empty() || answers[1].is_empty());
        }
        cluster.shutdown();
    }

    #[test]
    fn the_primary_serves_every_open() {
        let cluster =
            Cluster::start(ClusterConfig { index_nodes: 2, replication: 2, ..Default::default() });
        let mut client = cluster.client();
        client.index_files((0..50).map(|i| record(i, 10)).collect()).unwrap();
        let located = match cluster.rpc().call(cluster.master_id(), Request::LocateAcgs) {
            Ok(Response::Located(rows)) => rows,
            other => panic!("{other:?}"),
        };
        let (primary, follower) = (located[0].1[0], located[0].1[1]);
        let now = cluster.clock.now();
        let request = propeller_query::SearchRequest::parse("size>1m", now).unwrap();
        for _ in 0..4 {
            assert_eq!(client.search_with(&request).unwrap().hits.len(), 50);
        }
        let count = |node| match cluster.rpc().call(node, Request::NodeStats) {
            Ok(Response::NodeStatsReport { searches_served, .. }) => searches_served,
            other => panic!("{other:?}"),
        };
        assert_eq!(count(primary), 4);
        assert_eq!(count(follower), 0, "a live primary leaves its follower cold");
        cluster.shutdown();
    }

    #[test]
    fn catch_up_closes_the_gap_after_a_revival() {
        let mut cluster =
            Cluster::start(ClusterConfig { index_nodes: 2, replication: 2, ..Default::default() });
        let mut client = cluster.client();
        // group_capacity 1000 keeps all 100 files in one ACG, so there is
        // exactly one primary and one follower.
        client.index_files((0..50).map(|i| record(i, 10)).collect()).unwrap();
        let located = match cluster.rpc().call(cluster.master_id(), Request::LocateAcgs) {
            Ok(Response::Located(rows)) => rows,
            other => panic!("{other:?}"),
        };
        assert_eq!(located.len(), 1, "one ACG expected: {located:?}");
        let (primary, follower) = (located[0].1[0], located[0].1[1]);
        // Kill the follower and keep writing through the live primary:
        // the follower misses those frames.
        cluster.rpc().deregister(follower);
        client.index_files((50..100).map(|i| record(i, 10)).collect()).unwrap();
        cluster.revive_index_node(follower);
        let synced = cluster.catch_up_node(follower).unwrap();
        assert_eq!(synced, 1, "the revived follower should sync its one ACG");
        // Kill the primary: the caught-up follower must hold everything.
        cluster.rpc().deregister(primary);
        assert_eq!(client.search_text("size>1m").unwrap().len(), 100);
        cluster.shutdown();
    }

    #[test]
    fn removal_is_visible_to_search() {
        let cluster = Cluster::start(ClusterConfig::default());
        let mut client = cluster.client();
        client.index_files((0..10).map(|i| record(i, 100)).collect()).unwrap();
        assert_eq!(client.search_text("size>1m").unwrap().len(), 10);
        client.remove_files(vec![FileId::new(3), FileId::new(4)]).unwrap();
        let hits = client.search_text("size>1m").unwrap();
        assert_eq!(hits.len(), 8);
        assert!(!hits.contains(&FileId::new(3)));
        cluster.shutdown();
    }

    #[test]
    fn maintenance_splits_oversized_acgs() {
        let cluster = Cluster::start(ClusterConfig {
            index_nodes: 2,
            group_capacity: 1000,
            split_threshold: 50,
            ..Default::default()
        });
        let mut client = cluster.client();
        client.index_files((0..120).map(|i| record(i, 1)).collect()).unwrap();
        // First round: heartbeats reveal the oversized ACG; splits run.
        let splits = cluster.run_maintenance().unwrap();
        assert!(splits >= 1, "expected at least one split, got {splits}");
        // All files still searchable afterwards.
        let hits = client.search_text("size>0").unwrap();
        assert_eq!(hits.len(), 120);
        cluster.shutdown();
    }

    #[test]
    fn custom_index_cluster_wide() {
        let cluster = Cluster::start(ClusterConfig::default());
        let mut client = cluster.client();
        client.create_index(IndexSpec::btree("uid_idx", AttrName::Uid)).unwrap();
        // Duplicate rejected by the master.
        assert!(client.create_index(IndexSpec::btree("uid_idx", AttrName::Uid)).is_err());
        client.index_files((0..10).map(|i| record(i, 10)).collect()).unwrap();
        assert_eq!(client.search_text("uid=0").unwrap().len(), 10);
        cluster.shutdown();
    }

    #[test]
    fn acg_flush_reaches_index_nodes() {
        let cluster = Cluster::start(ClusterConfig::default());
        let mut client = cluster.client();
        client.index_files((0..4).map(|i| record(i, 1)).collect()).unwrap();
        let pid = propeller_types::ProcessId::new(1);
        client.observe_open(pid, FileId::new(0), propeller_types::OpenMode::Read);
        client.observe_open(pid, FileId::new(1), propeller_types::OpenMode::Write);
        client.end_process(pid);
        assert_eq!(client.buffered_edges(), 1);
        let flushed = client.flush_acg().unwrap();
        assert_eq!(flushed, 1);
        assert_eq!(client.buffered_edges(), 0);
        cluster.shutdown();
    }

    #[test]
    fn parallel_clients() {
        let cluster = Cluster::start(ClusterConfig { index_nodes: 4, ..Default::default() });
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let mut client = cluster.client();
                s.spawn(move || {
                    let base = t * 1000;
                    client
                        .index_files((base..base + 100).map(|i| record(i, 20)).collect())
                        .unwrap();
                });
            }
        });
        let client = cluster.client();
        assert_eq!(client.search_text("size>16m").unwrap().len(), 400);
        cluster.shutdown();
    }
}
