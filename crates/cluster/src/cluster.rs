//! Cluster assembly: spawning node actors and running maintenance.

use std::sync::Arc;

use propeller_acg::PartitionConfig;
use propeller_sim::{Clock, SimClock, WallClock};
use propeller_storage::{Network, SharedStorage};
use propeller_types::{Duration, Error, NodeId, Result};

use crate::client::FileQueryEngine;
use crate::index_node::{IndexNode, IndexNodeConfig};
use crate::master::{MasterConfig, MasterNode};
use crate::messages::{MigrationJob, Request, Response};
use crate::rpc::{run_actor, run_actor_deferred, Rpc};

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
    /// Seed for partitioning and network jitter.
    pub seed: u64,
    /// Virtual clock: `Some` runs the cluster in modeled mode (network
    /// costs charged to this clock); `None` uses the wall clock.
    pub sim_clock: Option<SimClock>,
    /// Charge GbE message costs (modeled mode only).
    pub charge_network: bool,
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
    /// Client-side latency budget for streamed search opens: past it the
    /// client **hedges** — fires a tied duplicate request at the next
    /// live replica and takes the first answer (paper-adjacent tail
    /// tolerance; needs `replication >= 2` to have anywhere to hedge).
    /// `None` (the default) never hedges.
    pub hedge_budget: Option<Duration>,
    /// Spread streamed session opens across each ACG's live replica set
    /// instead of always asking the primary, preferring the
    /// least-loaded replica (suspended-session counts ride the
    /// heartbeats; ties rotate round-robin). Replicas apply the same
    /// committed WAL frames, so any of them serves byte-identical hits;
    /// follower reads turn that redundancy into read throughput and
    /// drain opens away from a degraded replica.
    /// Needs `replication >= 2` to change anything. Off by default: the
    /// primary has the freshest un-replicated state, so single-replica
    /// deployments and strict-freshness tests keep the old behaviour.
    pub follower_reads: bool,
    /// Trace sampling rate for clients built by [`Cluster::client`]: one
    /// request in every `trace_sample_every` records a propagated trace
    /// (see [`FileQueryEngine::with_trace_sampling`]). `0` (the default)
    /// never samples.
    pub trace_sample_every: u64,
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
            charge_network: false,
            max_search_sessions: 1024,
            data_dir: None,
            snapshot_wal_ops: 10_000,
            replication: 1,
            hedge_budget: None,
            follower_reads: false,
            trace_sample_every: 0,
            slow_query_threshold: None,
        }
    }
}

/// A running Propeller cluster: one Master actor, N Index Node actors and
/// the shared storage beneath them.
///
/// See the crate-level example for a full index-then-search round trip.
pub struct Cluster {
    rpc: Rpc,
    master: NodeId,
    index_nodes: Vec<NodeId>,
    clock: Arc<dyn Clock>,
    shared: Arc<SharedStorage>,
    /// Kept so revived nodes get the same per-node settings as `start`
    /// gave the originals.
    config: ClusterConfig,
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
        assert!(config.index_nodes > 0, "a cluster needs at least one index node");
        let clock: Arc<dyn Clock> = match &config.sim_clock {
            Some(sim) => Arc::new(sim.clone()),
            None => Arc::new(WallClock::new()),
        };
        let rpc = match (&config.sim_clock, config.charge_network) {
            (Some(sim), true) => {
                Rpc::with_network(Network::gigabit_ethernet(), sim.clone(), config.seed)
            }
            _ => Rpc::new(),
        };
        let shared = Arc::new(SharedStorage::new());

        let master_id = NodeId::new(0);
        let index_ids: Vec<NodeId> = (1..=config.index_nodes as u32).map(NodeId::new).collect();

        let mut cluster = Cluster {
            rpc,
            master: master_id,
            index_nodes: index_ids,
            clock,
            shared,
            config,
            handles: Vec::new(),
        };
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
        let rx = self.rpc.register(self.master);
        let master_cfg = MasterConfig {
            group_capacity: self.config.group_capacity,
            split_threshold: self.config.split_threshold,
            replication: self.config.replication,
            data_dir: self.config.data_dir.as_ref().map(|d| d.join("master")),
            ..MasterConfig::default()
        };
        let durable = master_cfg.data_dir.is_some();
        let mut master = if durable {
            MasterNode::open(self.index_nodes.clone(), master_cfg).expect("recover master metadata")
        } else {
            MasterNode::new(self.index_nodes.clone(), master_cfg)
        }
        .with_clock(self.clock.clone());
        self.handles.push(
            std::thread::Builder::new()
                .name("propeller-master".into())
                .spawn(move || run_actor(rx, move |req| master.handle(req)))
                .expect("spawn master"),
        );
    }

    /// Spawns (or respawns) the `i`-th Index Node actor. `open` restores
    /// any durable state a previous run left under the node's data dir.
    fn spawn_index_node(&mut self, i: usize) {
        let id = self.index_nodes[i];
        let rx = self.rpc.register(id);
        let mut node = IndexNode::open(id, Self::index_node_config(&self.config, id, i))
            .expect("recover index node state")
            .with_clock(self.clock.clone());
        self.handles.push(
            std::thread::Builder::new()
                .name(format!("propeller-in-{}", id.raw()))
                .spawn(move || {
                    run_actor_deferred(rx, move |req, reply| node.handle_deferred(req, reply))
                })
                .expect("spawn index node"),
        );
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

    /// A new client handle. Inherits the cluster's hedge budget, if any
    /// ([`ClusterConfig::hedge_budget`]).
    pub fn client(&self) -> FileQueryEngine {
        let engine = FileQueryEngine::new(
            self.rpc.clone(),
            self.master,
            self.index_nodes.clone(),
            self.clock.clone(),
        );
        let engine = match self.config.hedge_budget {
            Some(budget) => engine.with_hedge_budget(budget),
            None => engine,
        };
        engine
            .with_follower_reads(self.config.follower_reads)
            .with_trace_sampling(self.config.trace_sample_every)
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
    /// cluster again from its durable state on the **same** RPC fabric,
    /// clock and shared storage — existing clients keep working across the
    /// restart. The Master replays its metadata WAL (on top of its newest
    /// valid checkpoint), each Index Node restores its groups from disk,
    /// and the Master's index-spec catalogue is re-broadcast to every
    /// node. In-flight two-phase migrations stay parked until the next
    /// [`Cluster::run_maintenance`] (or [`Cluster::resume_migrations`])
    /// call resumes them from their logged phase; searches are already
    /// correct before that because an uncommitted migration's new ACG is
    /// never routable.
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
        let mut cluster = Cluster {
            rpc: self.rpc.clone(),
            master: self.master,
            index_nodes: self.index_nodes.clone(),
            clock: self.clock.clone(),
            shared: self.shared.clone(),
            config: self.config.clone(),
            handles: Vec::new(),
        };
        cluster.spawn_master();
        for i in 0..cluster.index_nodes.len() {
            cluster.spawn_index_node(i);
        }
        let _ = cluster.rebroadcast_index_specs_to(&cluster.index_nodes.clone());
        cluster
    }

    /// Replays the Master's durable index-spec catalogue onto `nodes`.
    /// `CreateIndex` is idempotent on Index Nodes, so re-sending a spec a
    /// node already built is a no-op.
    fn rebroadcast_index_specs_to(&self, nodes: &[NodeId]) -> Result<()> {
        let specs = match self.rpc.call(self.master, Request::ListIndexSpecs)? {
            Response::IndexSpecs(specs) => specs,
            other => return Err(Error::Rpc(format!("unexpected response {other:?}"))),
        };
        for spec in specs {
            for &node in nodes {
                match self.rpc.call(node, Request::CreateIndex { spec: spec.clone() })? {
                    Response::Ok => {}
                    Response::Err(e) => return Err(e),
                    other => return Err(Error::Rpc(format!("unexpected response {other:?}"))),
                }
            }
        }
        Ok(())
    }

    /// One maintenance round, played by the external coordinator (the
    /// paper's "background" tasks):
    ///
    /// 1. `Tick` every Index Node — commits timed-out caches and collects
    ///    ACG summaries plus the node's current search load,
    /// 2. forward each summary to the Master as that node's heartbeat,
    /// 3. resume any two-phase migration an earlier coordinator (or
    ///    crash) left in flight,
    /// 4. drain the Master's split queue and run each split as a fresh
    ///    two-phase migration: bisect on the owner, `BeginMigration` at
    ///    the Master (durably logged intent), then drive the phases.
    ///
    /// Returns the number of migrations completed (resumed + fresh).
    ///
    /// # Errors
    ///
    /// Fails if any node is unreachable mid-round. Safe to re-run: every
    /// migration phase is idempotent and the Master re-hands unfinished
    /// work via `TakeMigrationWork`.
    pub fn run_maintenance(&self) -> Result<usize> {
        let now = self.clock.now();
        // 1 + 2: tick, gather, heartbeat.
        for &node in &self.index_nodes {
            let status = self.rpc.call(node, Request::Tick { now })?;
            if let Response::Status { acgs, load } = status {
                self.rpc.call(self.master, Request::Heartbeat { node, acgs, load, now })?;
            }
        }
        // 3: finish what a predecessor started before opening new work.
        let mut done = self.resume_migrations()?;
        // 4: fresh splits, each as a two-phase migration.
        let work = match self.rpc.call(self.master, Request::TakeSplitWork)? {
            Response::SplitWork(work) => work,
            other => return Err(Error::Rpc(format!("unexpected response {other:?}"))),
        };
        for (acg, owner) in work {
            let (left, right) = match self.rpc.call(owner, Request::SplitAcg { acg })? {
                Response::SplitHalves { left, right } => (left, right),
                Response::Err(e) => return Err(e),
                other => return Err(Error::Rpc(format!("unexpected response {other:?}"))),
            };
            if left.is_empty() || right.is_empty() {
                continue;
            }
            let (new_acg, targets) = match self
                .rpc
                .call(self.master, Request::BeginMigration { acg, moved: right.clone() })?
            {
                Response::MigrationBegun { new_acg, targets } => (new_acg, targets),
                Response::Err(e) => return Err(e),
                other => return Err(Error::Rpc(format!("unexpected response {other:?}"))),
            };
            let job = MigrationJob {
                source: acg,
                source_node: owner,
                new_acg,
                moved: right,
                targets,
                installed: false,
            };
            self.execute_migration(&job, now)?;
            done += 1;
        }
        Ok(done)
    }

    /// Resumes every two-phase migration the Master still holds open —
    /// the recovery path after a coordinator or whole-cluster crash. Each
    /// job restarts from its durably logged phase: an un-acked install
    /// re-runs extract + install (both idempotent — the source *retains*
    /// extracted records until told to remove, and installs are upserts),
    /// an acked one skips straight to the remove + commit tail.
    ///
    /// Returns the number of migrations driven to commit.
    ///
    /// # Errors
    ///
    /// Fails if a participant is unreachable; re-run once it is back.
    pub fn resume_migrations(&self) -> Result<usize> {
        let now = self.clock.now();
        let jobs = match self.rpc.call(self.master, Request::TakeMigrationWork)? {
            Response::MigrationWork(jobs) => jobs,
            other => return Err(Error::Rpc(format!("unexpected response {other:?}"))),
        };
        let mut done = 0;
        for job in jobs {
            self.execute_migration(&job, now)?;
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
    fn execute_migration(&self, job: &MigrationJob, now: propeller_types::Timestamp) -> Result<()> {
        if !job.installed {
            let extract = Request::ExtractAcgPart { acg: job.source, files: job.moved.clone() };
            let (records, edges) = match self.rpc.call(job.source_node, extract)? {
                Response::AcgPart { records, edges } => (records, edges),
                Response::Err(e) => return Err(e),
                other => return Err(Error::Rpc(format!("unexpected response {other:?}"))),
            };
            for &target in &job.targets {
                let install = Request::InstallAcg {
                    acg: job.new_acg,
                    records: records.clone(),
                    edges: edges.clone(),
                };
                self.rpc.call(target, install)?;
            }
            self.rpc.call(self.master, Request::InstallAcked { new_acg: job.new_acg })?;
        }
        match self.rpc.call(
            job.source_node,
            Request::RemoveAcgPart { acg: job.source, files: job.moved.clone() },
        )? {
            Response::Ok => {}
            Response::Err(e) => return Err(e),
            other => return Err(Error::Rpc(format!("unexpected response {other:?}"))),
        }
        if let Ok(Response::Located(rows)) = self.rpc.call(self.master, Request::LocateAcgs) {
            if let Some((_, set)) = rows.into_iter().find(|(a, _)| *a == job.source) {
                for &follower in set.iter().filter(|&&n| n != job.source_node) {
                    let _ = self.sync_follower(job.source_node, follower, job.source, now);
                }
            }
        }
        self.rpc.call(self.master, Request::CommitMigration { new_acg: job.new_acg })?;
        Ok(())
    }

    /// Brings `follower`'s copy of `acg` up to date with `source`'s:
    /// asks the follower where its log ends, then replays the source's
    /// WAL tail (or a snapshot seed) through the coordinator.
    ///
    /// # Errors
    ///
    /// Fails if either node is unreachable or answers out of protocol.
    fn sync_follower(
        &self,
        source: NodeId,
        follower: NodeId,
        acg: propeller_types::AcgId,
        now: propeller_types::Timestamp,
    ) -> Result<u64> {
        let have = match self.rpc.call(follower, Request::AcgLsns)? {
            Response::AcgLsnReport(rows) => {
                rows.into_iter().find(|(a, _)| *a == acg).map(|(_, lsn)| lsn).unwrap_or(0)
            }
            other => return Err(Error::Rpc(format!("unexpected response {other:?}"))),
        };
        crate::client::sync_replica(&self.rpc, source, follower, acg, have, now)
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
            other => return Err(Error::Rpc(format!("unexpected response {other:?}"))),
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
                if let Ok(Response::AcgLsnReport(rows)) = self.rpc.call(peer, Request::AcgLsns) {
                    let lsn =
                        rows.into_iter().find(|(a, _)| *a == acg).map(|(_, l)| l).unwrap_or(0);
                    if best.map(|(_, b)| lsn > b).unwrap_or(true) {
                        best = Some((peer, lsn));
                    }
                }
            }
            if let Some((peer, _)) = best {
                if self.sync_follower(peer, id, acg, now).is_ok() {
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
    fn follower_reads_spread_session_opens_across_replicas() {
        let cluster = Cluster::start(ClusterConfig {
            index_nodes: 2,
            replication: 2,
            follower_reads: true,
            ..Default::default()
        });
        let mut client = cluster.client();
        client.index_files((0..50).map(|i| record(i, 10)).collect()).unwrap();
        let located = match cluster.rpc().call(cluster.master_id(), Request::LocateAcgs) {
            Ok(Response::Located(rows)) => rows,
            other => panic!("{other:?}"),
        };
        assert_eq!(located.len(), 1, "one ACG expected: {located:?}");
        let replicas = located[0].1.clone();
        assert_eq!(replicas.len(), 2);
        let now = cluster.clock.now();
        let request = propeller_query::SearchRequest::parse("size>1m", now).unwrap();
        for _ in 0..6 {
            assert_eq!(client.search_streamed(&request).unwrap().hits.len(), 50);
        }
        // Round-robin opens must land searches on BOTH replicas, not just
        // the primary; replicas hold identical committed state so every
        // answer above was still the full hit list.
        let served: Vec<u64> = replicas
            .iter()
            .map(|&node| match cluster.rpc().call(node, Request::NodeStats) {
                Ok(Response::NodeStatsReport { searches_served, .. }) => searches_served,
                other => panic!("{other:?}"),
            })
            .collect();
        assert!(
            served.iter().all(|&n| n >= 2),
            "6 round-robin opens over 2 replicas should give each at least 2: {served:?}"
        );
        assert_eq!(served.iter().sum::<u64>(), 6, "{served:?}");
        cluster.shutdown();
    }

    #[test]
    fn follower_reads_drain_opens_from_a_degraded_replica() {
        let cluster = Cluster::start(ClusterConfig {
            index_nodes: 2,
            replication: 2,
            follower_reads: true,
            ..Default::default()
        });
        let mut client = cluster.client();
        client.index_files((0..50).map(|i| record(i, 10)).collect()).unwrap();
        let located = match cluster.rpc().call(cluster.master_id(), Request::LocateAcgs) {
            Ok(Response::Located(rows)) => rows,
            other => panic!("{other:?}"),
        };
        assert_eq!(located.len(), 1, "one ACG expected: {located:?}");
        let (acg, replicas) = (located[0].0, located[0].1.clone());
        let (primary, follower) = (replicas[0], replicas[1]);
        // Degrade the primary: every delivery to it crawls, and suspended
        // search sessions pile up on it (small page, never pulled) — the
        // symptom of a node falling behind.
        cluster
            .rpc()
            .slowdowns()
            .set(primary, propeller_sim::Latency::constant(Duration::from_millis(2)));
        let now = cluster.clock.now();
        let request = propeller_query::SearchRequest::parse("size>1m", now).unwrap();
        for s in 0..4u64 {
            match cluster.rpc().call(
                primary,
                Request::OpenSearch {
                    acgs: vec![acg],
                    request: request.clone(),
                    client: 1000 + s,
                    page: 5,
                    now,
                    ctx: propeller_obs::TraceContext::NONE,
                },
            ) {
                Ok(Response::SearchPage { session, .. }) => {
                    assert_ne!(session, 0, "a 5-hit page of 50 hits must suspend")
                }
                other => panic!("{other:?}"),
            }
        }
        // Heartbeats carry the asymmetric load to the Master...
        cluster.run_maintenance().unwrap();
        let count = |node| match cluster.rpc().call(node, Request::NodeStats) {
            Ok(Response::NodeStatsReport { searches_served, .. }) => searches_served,
            other => panic!("{other:?}"),
        };
        let before = count(follower);
        // ...so every subsequent open drains to the healthy follower —
        // with byte-identical answers, since replicas hold the same
        // committed state.
        for _ in 0..6 {
            assert_eq!(client.search_streamed(&request).unwrap().hits.len(), 50);
        }
        assert_eq!(count(follower) - before, 6, "all opens should land on the unloaded follower");
        cluster.shutdown();
    }

    #[test]
    fn without_follower_reads_the_primary_serves_every_open() {
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
            assert_eq!(client.search_streamed(&request).unwrap().hits.len(), 50);
        }
        let count = |node| match cluster.rpc().call(node, Request::NodeStats) {
            Ok(Response::NodeStatsReport { searches_served, .. }) => searches_served,
            other => panic!("{other:?}"),
        };
        assert_eq!(count(primary), 4);
        assert_eq!(count(follower), 0, "follower must stay cold when follower_reads is off");
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

    #[test]
    fn modeled_mode_charges_network_time() {
        let sim = SimClock::new();
        let cluster = Cluster::start(ClusterConfig {
            index_nodes: 2,
            sim_clock: Some(sim.clone()),
            charge_network: true,
            ..Default::default()
        });
        let mut client = cluster.client();
        let before = sim.now();
        client.index_files((0..10).map(|i| record(i, 1)).collect()).unwrap();
        assert!(sim.now() > before, "network costs must accrue on the sim clock");
        cluster.shutdown();
    }
}
