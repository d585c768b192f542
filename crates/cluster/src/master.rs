//! The Master Node (paper §IV).
//!
//! "The central index metadata and coordination server": it owns the
//! `file → ACG` mapping and ACG placement, routes client requests, tracks
//! Index Node liveness through heartbeats, decides when an ACG must be
//! split, and coordinates two-phase migrations. It never touches file
//! data or indices itself, which is why a single Master scales to
//! hundreds of Index Nodes.
//!
//! ## Durability: the Master as a logged state machine
//!
//! The Master's **hard state** — file placement, ACG creation, split
//! commits, replica adoption, the index-spec registry, in-flight
//! migrations, the next-ACG counter and the routing generation — is a
//! state machine over [`crate::meta::MetaOp`] transitions. Every
//! transition is appended to a control-plane WAL and fsynced *before* it
//! is applied and the request acked (`log_then_apply`; [`MasterNode::open`]
//! replays the log); periodic checksummed checkpoints bound recovery to
//! O(delta) suffix replay.
//! **Soft state** — node liveness, heartbeat-refreshed file counts, split
//! *pressure* — is never logged: one heartbeat round rebuilds it.

use std::collections::HashMap;
use std::sync::Arc;

use propeller_index::IndexSpec;
use propeller_obs::{names, Lane, NodeObs, SpanKind};
use propeller_sim::{Clock, WallClock};
use propeller_types::{AcgId, Duration, Error, FileId, NodeId, Timestamp};

use crate::messages::{AcgSummary, MigrationJob, Request, Response, RouteHints};
use crate::meta::{sorted_pairs, MetaImage, MetaOp, MetaStore, Migration};

/// Liveness/load record for one Index Node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStatus {
    /// Last heartbeat receipt time.
    pub last_heartbeat: Timestamp,
    /// Total files across the node's ACGs.
    pub files: usize,
    /// Number of hosted ACGs.
    pub acgs: usize,
    /// The node's last self-reported instantaneous load (suspended
    /// streamed sessions) — what load-feedback follower reads rank by.
    pub load: u64,
}

impl NodeStatus {
    /// Whether the node has heartbeated within `timeout` of `now`.
    pub fn alive(&self, now: Timestamp, timeout: Duration) -> bool {
        now.since(self.last_heartbeat) <= timeout
    }
}

/// Master Node configuration.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// Files per default-allocated ACG (new files without causality
    /// context fill the open ACG up to this size).
    pub group_capacity: usize,
    /// File count above which an ACG is scheduled for a split (paper
    /// example: 50 000).
    pub split_threshold: usize,
    /// How many committed splits the Master keeps in its route-hint log.
    /// A client further behind than this receives `complete: false` hints
    /// and drops its whole route cache (safe, just less surgical).
    pub split_log_capacity: usize,
    /// Replicas per ACG (R). Every ACG is placed on R distinct nodes
    /// (clamped to the cluster size): the first is the primary that
    /// accepts writes, the rest are followers fed the primary's WAL
    /// frames. R = 1 (the default) reproduces the unreplicated cluster
    /// exactly.
    pub replication: usize,
    /// Where the Master persists its control-plane WAL and metadata
    /// checkpoints ([`MasterNode::open`]); `None` runs memory-only
    /// (`MasterNode::new`), losing hard state on restart.
    pub data_dir: Option<std::path::PathBuf>,
    /// Cut a metadata checkpoint after this many logged transitions.
    pub meta_snapshot_every: usize,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            group_capacity: 1000,
            split_threshold: 50_000,
            split_log_capacity: 64,
            replication: 1,
            data_dir: None,
            meta_snapshot_every: 64,
        }
    }
}

/// The Master Node state machine. Driven as an actor by the cluster
/// runtime; unit tests can drive [`MasterNode::handle`] directly.
pub struct MasterNode {
    config: MasterConfig,
    index_nodes: Vec<NodeId>,
    file_to_acg: HashMap<FileId, AcgId>,
    /// Each ACG's replica set, primary first. Splits and migrations
    /// replace the whole set; individual nodes are never swapped out of
    /// it silently, so clients can cache `(acg, replicas)` rows.
    acg_replicas: HashMap<AcgId, Vec<NodeId>>,
    acg_files: HashMap<AcgId, usize>,
    node_status: HashMap<NodeId, NodeStatus>,
    next_acg: u64,
    open_acg: Option<AcgId>,
    pending_splits: Vec<(AcgId, NodeId)>,
    splitting: std::collections::HashSet<AcgId>,
    index_specs: Vec<IndexSpec>,
    /// Monotonic count of committed splits — the routing generation
    /// clients synchronize their caches against.
    routing_gen: u64,
    /// The last `split_log_capacity` splits: `(generation, moved files)`,
    /// oldest first. Served as [`RouteHints`] on every resolve.
    split_log: std::collections::VecDeque<(u64, Vec<FileId>)>,
    /// In-flight two-phase migrations, keyed by the reserved new-ACG id.
    /// A migration's new group is **not routable** (absent from
    /// `acg_replicas`, shielded from heartbeat adoption) until commit.
    migrations: HashMap<AcgId, Migration>,
    /// The control-plane WAL + checkpoint store (in-memory for
    /// [`MasterNode::new`] Masters).
    meta: MetaStore,
    /// Time source for resolve spans (the cluster injects its own).
    clock: Arc<dyn Clock>,
    /// The Master lane's metrics registry + span buffer.
    obs: Arc<NodeObs>,
}

impl std::fmt::Debug for MasterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MasterNode")
            .field("index_nodes", &self.index_nodes)
            .field("acgs", &self.acg_replicas.len())
            .field("files", &self.file_to_acg.len())
            .field("routing_gen", &self.routing_gen)
            .finish()
    }
}

impl MasterNode {
    /// Creates a memory-only Master managing the given Index Nodes: hard
    /// state is kept but not persisted. Use [`MasterNode::open`] for a
    /// durable Master.
    pub fn new(index_nodes: Vec<NodeId>, config: MasterConfig) -> Self {
        MasterNode {
            config,
            index_nodes,
            file_to_acg: HashMap::new(),
            acg_replicas: HashMap::new(),
            acg_files: HashMap::new(),
            node_status: HashMap::new(),
            next_acg: 1,
            open_acg: None,
            pending_splits: Vec::new(),
            splitting: std::collections::HashSet::new(),
            index_specs: Vec::new(),
            routing_gen: 0,
            split_log: std::collections::VecDeque::new(),
            migrations: HashMap::new(),
            meta: MetaStore::in_memory(),
            clock: Arc::new(WallClock::new()),
            obs: Arc::new(NodeObs::new(Lane::Master)),
        }
    }

    /// Replaces the Master's time source (builder style). Resolve spans
    /// are stamped against this clock.
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Opens a **durable** Master under `config.data_dir`: recovers the
    /// newest valid metadata checkpoint, replays the control-plane WAL
    /// suffix, and from then on logs every hard-state transition before
    /// acking it. A fresh directory starts an empty Master.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when `data_dir` is unset, [`Error::Io`]
    /// when the directory or WAL cannot be opened and [`Error::Corrupt`]
    /// when a WAL suffix frame fails to decode.
    pub fn open(index_nodes: Vec<NodeId>, config: MasterConfig) -> Result<Self, Error> {
        let dir = config
            .data_dir
            .clone()
            .ok_or_else(|| Error::Config("MasterNode::open requires data_dir".into()))?;
        let snapshot_every = config.meta_snapshot_every.max(1);
        let (meta, recovery) = MetaStore::open(&dir, snapshot_every)?;
        let mut master = MasterNode::new(index_nodes, config);
        master.meta = meta;
        if let Some(image) = recovery.image {
            master.load_image(image);
        }
        for op in &recovery.suffix {
            master.apply_op(op);
        }
        Ok(master)
    }

    /// Installs a recovered checkpoint image as the current hard state.
    fn load_image(&mut self, image: MetaImage) {
        self.next_acg = image.next_acg.max(1);
        self.routing_gen = image.routing_gen;
        self.open_acg = image.open_acg;
        self.file_to_acg = image.file_to_acg.into_iter().collect();
        self.acg_replicas = image.acg_replicas.into_iter().collect();
        // File counts are heartbeat-refreshed soft state; seed them from
        // the authoritative placement map so capacity/split decisions are
        // sane before the first heartbeat round.
        let mut counts: HashMap<AcgId, usize> = HashMap::new();
        for acg in self.file_to_acg.values() {
            *counts.entry(*acg).or_insert(0) += 1;
        }
        for acg in self.acg_replicas.keys() {
            counts.entry(*acg).or_insert(0);
        }
        self.acg_files = counts;
        self.index_specs = image.specs;
        self.split_log = image.split_log.into_iter().collect();
        for migration in image.migrations {
            self.splitting.insert(migration.source);
            self.migrations.insert(migration.new_acg, migration);
        }
    }

    /// The full hard-state image (checkpoint payload), deterministic for
    /// a given state.
    fn image(&self) -> MetaImage {
        let mut migrations: Vec<Migration> = self.migrations.values().cloned().collect();
        migrations.sort_by_key(|m| m.new_acg);
        MetaImage {
            next_acg: self.next_acg,
            routing_gen: self.routing_gen,
            open_acg: self.open_acg,
            file_to_acg: sorted_pairs(&self.file_to_acg),
            acg_replicas: sorted_pairs(&self.acg_replicas),
            specs: self.index_specs.clone(),
            split_log: self.split_log.iter().cloned().collect(),
            migrations,
        }
    }

    /// Applies one logged transition to the in-memory state. Recovery
    /// replay and the live mutating arms share this, so a replayed Master
    /// is the live Master by construction.
    fn apply_op(&mut self, op: &MetaOp) {
        match op {
            MetaOp::PlaceFiles { placements } => {
                for (file, acg) in placements {
                    let old = self.file_to_acg.insert(*file, *acg);
                    if old != Some(*acg) {
                        *self.acg_files.entry(*acg).or_insert(0) += 1;
                        if let Some(old_acg) = old {
                            if let Some(c) = self.acg_files.get_mut(&old_acg) {
                                *c = c.saturating_sub(1);
                            }
                        }
                    }
                }
            }
            MetaOp::CreateAcg { acg, replicas, open } => {
                self.acg_replicas.insert(*acg, replicas.clone());
                self.acg_files.entry(*acg).or_insert(0);
                self.next_acg = self.next_acg.max(acg.raw() + 1);
                if *open {
                    self.open_acg = Some(*acg);
                }
            }
            MetaOp::CommitSplit { acg, new_acg, moved, targets } => {
                for file in moved {
                    self.file_to_acg.insert(*file, *new_acg);
                }
                self.acg_replicas.insert(*new_acg, targets.clone());
                self.acg_files.insert(*new_acg, moved.len());
                if let Some(c) = self.acg_files.get_mut(acg) {
                    *c = c.saturating_sub(moved.len());
                }
                self.next_acg = self.next_acg.max(new_acg.raw() + 1);
                self.splitting.remove(acg);
                self.migrations.remove(new_acg);
                self.routing_gen += 1;
                self.split_log.push_back((self.routing_gen, moved.clone()));
                while self.split_log.len() > self.config.split_log_capacity.max(1) {
                    self.split_log.pop_front();
                }
            }
            MetaOp::AdoptReplica { acg, node } => {
                let replicas = self.acg_replicas.entry(*acg).or_default();
                if !replicas.contains(node) {
                    replicas.push(*node);
                }
                self.acg_files.entry(*acg).or_insert(0);
                self.next_acg = self.next_acg.max(acg.raw() + 1);
            }
            MetaOp::CreateIndexSpec { spec } => {
                if !self.index_specs.iter().any(|s| s.name == spec.name) {
                    self.index_specs.push(spec.clone());
                }
            }
            MetaOp::DropIndexSpec { name } => {
                self.index_specs.retain(|s| s.name != *name);
            }
            MetaOp::BeginMigration { source, new_acg, moved, targets } => {
                self.next_acg = self.next_acg.max(new_acg.raw() + 1);
                self.splitting.insert(*source);
                self.migrations.insert(
                    *new_acg,
                    Migration {
                        source: *source,
                        new_acg: *new_acg,
                        moved: moved.clone(),
                        targets: targets.clone(),
                        installed: false,
                    },
                );
            }
            MetaOp::InstallAcked { new_acg } => {
                if let Some(m) = self.migrations.get_mut(new_acg) {
                    m.installed = true;
                }
            }
        }
    }

    /// Durably logs `ops` (fsync before returning) that the caller has
    /// already applied, and cuts a checkpoint when one is due. The caller
    /// must not have mutated state it cannot roll back if this errors.
    fn log_ops(&mut self, ops: &[MetaOp]) -> Result<(), Error> {
        self.meta.log(ops)?;
        self.checkpoint_if_due();
        Ok(())
    }

    /// The Master's write rule (paper §IV): durably log one transition,
    /// then apply it — nothing is observable that a restart would not
    /// replay. A checkpoint due at this op is cut after the apply, so its
    /// image covers every op its LSN claims.
    fn log_then_apply(&mut self, op: MetaOp) -> Result<(), Error> {
        self.meta.log(std::slice::from_ref(&op))?;
        self.apply_op(&op);
        self.checkpoint_if_due();
        Ok(())
    }

    /// Writes a checkpoint of the current state when enough ops were
    /// logged since the last one. Failure is not fatal: the WAL still
    /// holds every transition, recovery just replays a longer suffix.
    fn checkpoint_if_due(&mut self) {
        if self.meta.checkpoint_due() {
            let image = self.image();
            let _ = self.meta.checkpoint(&image);
        }
    }

    /// The `r` nodes with the fewest hosted files (replica-set placement
    /// target), least-loaded first. Load counts every replica a node
    /// hosts: an ACG's files weigh on all R of its nodes.
    fn least_loaded(&self, r: usize) -> Vec<NodeId> {
        let mut load: HashMap<NodeId, usize> = self.index_nodes.iter().map(|&n| (n, 0)).collect();
        for (acg, files) in &self.acg_files {
            for node in self.acg_replicas.get(acg).map(Vec::as_slice).unwrap_or(&[]) {
                *load.entry(*node).or_insert(0) += files;
            }
        }
        let mut ranked = self.index_nodes.clone();
        ranked.sort_by_key(|n| (load.get(n).copied().unwrap_or(0), n.raw()));
        ranked.truncate(r);
        ranked
    }

    /// The effective replication factor: the configured R, clamped to the
    /// cluster size (a 2-node cluster cannot hold 3 distinct replicas).
    fn effective_replication(&self) -> usize {
        self.config.replication.max(1).min(self.index_nodes.len().max(1))
    }

    fn allocate_acg(&mut self) -> Result<(AcgId, Vec<NodeId>), Error> {
        let nodes = self.least_loaded(self.effective_replication());
        if nodes.is_empty() {
            return Err(Error::Config("cluster has no index nodes".into()));
        }
        let acg = AcgId::new(self.next_acg);
        self.next_acg += 1;
        self.acg_replicas.insert(acg, nodes.clone());
        self.acg_files.insert(acg, 0);
        Ok((acg, nodes))
    }

    /// Undoes an [`MasterNode::allocate_acg`] whose transition failed to
    /// log: the id is un-minted, so the next allocation re-uses it.
    fn unallocate_acg(&mut self, acg: AcgId) {
        self.acg_replicas.remove(&acg);
        self.acg_files.remove(&acg);
        self.next_acg = acg.raw();
    }

    /// The replica sets of every distinct ACG named in `rows`, for the
    /// [`Response::Resolved`] payload.
    fn replicas_of(&self, rows: &[(FileId, AcgId, NodeId)]) -> Vec<(AcgId, Vec<NodeId>)> {
        let mut acgs: Vec<AcgId> = rows.iter().map(|(_, a, _)| *a).collect();
        acgs.sort();
        acgs.dedup();
        acgs.into_iter()
            .filter_map(|a| self.acg_replicas.get(&a).map(|nodes| (a, nodes.clone())))
            .collect()
    }

    fn resolve(&mut self, files: Vec<FileId>) -> Result<Vec<(FileId, AcgId, NodeId)>, Error> {
        // Mutate optimistically while recording enough to (a) log the
        // transition and (b) undo everything if the log write fails — an
        // unlogged placement must never be acked.
        let prev_open = self.open_acg;
        let prev_next = self.next_acg;
        let mut created: Vec<(AcgId, Vec<NodeId>)> = Vec::new();
        let mut placed: Vec<(FileId, AcgId)> = Vec::new();
        let mut out = Vec::with_capacity(files.len());
        let result = (|| -> Result<(), Error> {
            for file in files {
                let acg = match self.file_to_acg.get(&file) {
                    Some(&acg) => acg,
                    None => {
                        // Fill the open ACG; roll over at capacity.
                        let need_new = match self.open_acg {
                            Some(acg) => {
                                self.acg_files.get(&acg).copied().unwrap_or(0)
                                    >= self.config.group_capacity
                            }
                            None => true,
                        };
                        if need_new {
                            let (acg, nodes) = self.allocate_acg()?;
                            self.open_acg = Some(acg);
                            created.push((acg, nodes));
                        }
                        let acg = self.open_acg.expect("just ensured");
                        self.file_to_acg.insert(file, acg);
                        *self.acg_files.entry(acg).or_insert(0) += 1;
                        placed.push((file, acg));
                        acg
                    }
                };
                let node = *self
                    .acg_replicas
                    .get(&acg)
                    .and_then(|r| r.first())
                    .ok_or(Error::AcgNotFound(acg))?;
                out.push((file, acg, node));
            }
            let mut ops: Vec<MetaOp> = created
                .iter()
                .map(|(acg, replicas)| MetaOp::CreateAcg {
                    acg: *acg,
                    replicas: replicas.clone(),
                    open: true,
                })
                .collect();
            if !placed.is_empty() {
                ops.push(MetaOp::PlaceFiles { placements: placed.clone() });
            }
            if !ops.is_empty() {
                self.log_ops(&ops)?;
            }
            Ok(())
        })();
        if let Err(e) = result {
            for (file, acg) in placed {
                self.file_to_acg.remove(&file);
                if let Some(c) = self.acg_files.get_mut(&acg) {
                    *c = c.saturating_sub(1);
                }
            }
            for (acg, _) in created {
                self.acg_replicas.remove(&acg);
                self.acg_files.remove(&acg);
            }
            self.open_acg = prev_open;
            self.next_acg = prev_next;
            return Err(e);
        }
        Ok(out)
    }

    fn on_heartbeat(&mut self, node: NodeId, acgs: Vec<AcgSummary>, load: u64, now: Timestamp) {
        let (files, count) = (acgs.iter().map(|a| a.files).sum(), acgs.len());
        self.node_status.insert(node, NodeStatus { last_heartbeat: now, files, acgs: count, load });
        for summary in acgs {
            // Adopt ACGs this Master has never seen on this node: a node
            // that recovered its groups from disk (a memory-only Master
            // restart, or a revived node with placements the Master lost)
            // re-registers through its first heartbeats, so the search
            // fan-out reaches the recovered data again. Adoption is a
            // hard-state change — it extends a replica set — so it is
            // logged like any other transition; if the log write fails
            // the adoption is skipped and the next heartbeat retries.
            //
            // The guard: a mid-migration new group is *installed* on its
            // targets (it heartbeats!) but must not become routable until
            // the migration commits, or its files would briefly be served
            // from two homes. Its summaries are ignored wholesale here.
            if self.migrations.contains_key(&summary.acg) {
                continue;
            }
            let known = self.acg_replicas.get(&summary.acg).is_some_and(|r| r.contains(&node));
            if !known
                && self.log_then_apply(MetaOp::AdoptReplica { acg: summary.acg, node }).is_err()
            {
                continue;
            }
            self.acg_files.insert(summary.acg, summary.files);
            if summary.files > self.config.split_threshold && !self.splitting.contains(&summary.acg)
            {
                // Split work always runs on the primary (it has the
                // authoritative WAL the followers chain from).
                let primary = self.acg_replicas[&summary.acg][0];
                self.splitting.insert(summary.acg);
                self.pending_splits.push((summary.acg, primary));
            }
        }
    }

    /// The route invalidations a client at generation `since` is missing.
    /// Complete (surgical) hints need the split log to reach back to
    /// `since + 1`; a client further behind gets `complete: false` and
    /// drops its whole cache.
    fn route_hints(&self, since: u64) -> RouteHints {
        let upto = self.routing_gen;
        if since >= upto {
            return RouteHints { upto, moved: Vec::new(), complete: true };
        }
        match self.split_log.front() {
            Some((oldest, _)) if *oldest <= since + 1 => RouteHints {
                upto,
                moved: self
                    .split_log
                    .iter()
                    .filter(|(gen, _)| *gen > since)
                    .flat_map(|(_, files)| files.iter().copied())
                    .collect(),
                complete: true,
            },
            _ => RouteHints { upto, moved: Vec::new(), complete: false },
        }
    }

    /// Status table of the nodes (for tests and operators).
    pub fn node_status(&self) -> &HashMap<NodeId, NodeStatus> {
        &self.node_status
    }

    /// Number of distinct ACGs allocated.
    pub fn acg_count(&self) -> usize {
        self.acg_replicas.len()
    }

    /// Handles one request (the actor body).
    pub fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::ResolveFiles { files, hints_since, ctx } => {
                let span = self.obs.spans.begin(ctx, SpanKind::Resolve, self.clock.now());
                self.obs.metrics.counter(names::RESOLVES_SERVED).inc();
                let wanted = files.len();
                match self.resolve(files) {
                    Ok(rows) => {
                        let replicas = self.replicas_of(&rows);
                        if span.enabled() {
                            self.obs.spans.finish_with(
                                span,
                                self.clock.now(),
                                format!("files={wanted} rows={}", rows.len()),
                            );
                        }
                        Response::Resolved { rows, hints: self.route_hints(hints_since), replicas }
                    }
                    Err(e) => Response::Err(e),
                }
            }
            Request::LocateAcgs => {
                let mut rows: Vec<(AcgId, Vec<NodeId>)> =
                    self.acg_replicas.iter().map(|(&a, n)| (a, n.clone())).collect();
                rows.sort();
                Response::Located(rows)
            }
            Request::CreateIndex { spec } => {
                if self.index_specs.iter().any(|s| s.name == spec.name) {
                    return Response::Err(Error::IndexExists(spec.name));
                }
                if let Err(e) = self.log_then_apply(MetaOp::CreateIndexSpec { spec }) {
                    return Response::Err(e);
                }
                Response::Ok
            }
            Request::DropIndex { name } => {
                // Idempotent: rolling back a registration that partially
                // propagated must always succeed. Only an actual removal
                // is a transition worth logging.
                if self.index_specs.iter().any(|s| s.name == name) {
                    if let Err(e) = self.log_then_apply(MetaOp::DropIndexSpec { name }) {
                        return Response::Err(e);
                    }
                }
                Response::Ok
            }
            Request::ListIndexSpecs => Response::IndexSpecs(self.index_specs.clone()),
            Request::Heartbeat { node, acgs, load, now } => {
                self.on_heartbeat(node, acgs, load, now);
                Response::Ok
            }
            Request::NodeLoads => {
                let mut rows: Vec<(NodeId, u64)> =
                    self.node_status.iter().map(|(&n, s)| (n, s.load)).collect();
                rows.sort();
                Response::NodeLoadReport(rows)
            }
            Request::TakeSplitWork => {
                let work = std::mem::take(&mut self.pending_splits);
                Response::SplitWork(work)
            }
            Request::TakeMigrationWork => {
                let mut jobs: Vec<MigrationJob> = self
                    .migrations
                    .values()
                    .filter_map(|m| {
                        let source_node =
                            *self.acg_replicas.get(&m.source).and_then(|r| r.first())?;
                        Some(MigrationJob {
                            source: m.source,
                            source_node,
                            new_acg: m.new_acg,
                            moved: m.moved.clone(),
                            targets: m.targets.clone(),
                            installed: m.installed,
                        })
                    })
                    .collect();
                jobs.sort_by_key(|j| j.new_acg);
                Response::MigrationWork(jobs)
            }
            Request::AllocateAcg => match self.allocate_acg() {
                Ok((acg, nodes)) => {
                    let op = MetaOp::CreateAcg { acg, replicas: nodes.clone(), open: false };
                    if let Err(e) = self.log_ops(std::slice::from_ref(&op)) {
                        self.unallocate_acg(acg);
                        return Response::Err(e);
                    }
                    Response::AcgAllocated(acg, nodes)
                }
                Err(e) => Response::Err(e),
            },
            Request::BindFiles { acg, files } => {
                if !self.acg_replicas.contains_key(&acg) {
                    return Response::Err(Error::AcgNotFound(acg));
                }
                let placements: Vec<(FileId, AcgId)> = files
                    .iter()
                    .filter(|f| self.file_to_acg.get(f) != Some(&acg))
                    .map(|&f| (f, acg))
                    .collect();
                if placements.is_empty() {
                    return Response::Ok;
                }
                if let Err(e) = self.log_then_apply(MetaOp::PlaceFiles { placements }) {
                    return Response::Err(e);
                }
                Response::Ok
            }
            Request::BeginMigration { acg, moved } => {
                if !self.acg_replicas.contains_key(&acg) {
                    return Response::Err(Error::AcgNotFound(acg));
                }
                if self.migrations.values().any(|m| m.source == acg) {
                    return Response::Err(Error::Rpc(format!(
                        "a migration out of {acg} is already in flight"
                    )));
                }
                let targets = self.least_loaded(self.effective_replication());
                if targets.is_empty() {
                    return Response::Err(Error::Config("cluster has no index nodes".into()));
                }
                let new_acg = AcgId::new(self.next_acg);
                if let Err(e) = self.log_then_apply(MetaOp::BeginMigration {
                    source: acg,
                    new_acg,
                    moved,
                    targets: targets.clone(),
                }) {
                    return Response::Err(e);
                }
                Response::MigrationBegun { new_acg, targets }
            }
            Request::InstallAcked { new_acg } => {
                let Some(m) = self.migrations.get(&new_acg) else {
                    return Response::Err(Error::AcgNotFound(new_acg));
                };
                if !m.installed {
                    if let Err(e) = self.log_then_apply(MetaOp::InstallAcked { new_acg }) {
                        return Response::Err(e);
                    }
                }
                Response::Ok
            }
            Request::CommitMigration { new_acg } => {
                let Some(m) = self.migrations.get(&new_acg) else {
                    return Response::Err(Error::AcgNotFound(new_acg));
                };
                if !m.installed {
                    return Response::Err(Error::Rpc(format!(
                        "migration into {new_acg} committed before its install was acked"
                    )));
                }
                // Applying remaps the moved files, makes the new group
                // routable, advances the routing generation and retires
                // the migration — atomically from any observer's view,
                // because it all happens inside this one request.
                if let Err(e) = self.log_then_apply(MetaOp::CommitSplit {
                    acg: m.source,
                    new_acg,
                    moved: m.moved.clone(),
                    targets: m.targets.clone(),
                }) {
                    return Response::Err(e);
                }
                Response::Ok
            }
            Request::CommitSplit { acg, kept: _, new_acg, moved, targets } => {
                // Legacy single-shot commit (coordinator-computed splits
                // whose extract/install already happened). Same logged
                // transition as a two-phase commit.
                if let Err(e) =
                    self.log_then_apply(MetaOp::CommitSplit { acg, new_acg, moved, targets })
                {
                    return Response::Err(e);
                }
                Response::Ok
            }
            Request::DumpTrace { trace } => Response::TraceSpans(self.obs.spans.harvest(trace)),
            Request::Metrics => {
                self.obs.metrics.gauge("routing_gen").set(self.routing_gen);
                Response::Metrics(Box::new(self.obs.metrics.snapshot()))
            }
            Request::DumpSlowQueries => Response::SlowQueries(self.obs.slow.dump()),
            other => Response::Err(Error::Rpc(format!("master cannot handle {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (1..=n).map(NodeId::new).collect()
    }

    fn master(n: u32, capacity: usize) -> MasterNode {
        MasterNode::new(
            nodes(n),
            MasterConfig { group_capacity: capacity, ..MasterConfig::default() },
        )
    }

    fn resolve(
        m: &mut MasterNode,
        ids: impl IntoIterator<Item = u64>,
    ) -> Vec<(FileId, AcgId, NodeId)> {
        match m.handle(Request::ResolveFiles {
            files: ids.into_iter().map(FileId::new).collect(),
            hints_since: 0,
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::Resolved { rows, .. } => rows,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resolution_is_stable() {
        let mut m = master(4, 100);
        let first = resolve(&mut m, [1, 2, 3]);
        let second = resolve(&mut m, [1, 2, 3]);
        assert_eq!(first, second);
    }

    #[test]
    fn open_acg_rolls_over_at_capacity() {
        let mut m = master(2, 10);
        let rows = resolve(&mut m, 0..25);
        let acgs: std::collections::HashSet<AcgId> = rows.iter().map(|(_, a, _)| *a).collect();
        assert_eq!(acgs.len(), 3, "25 files / 10 capacity = 3 ACGs");
    }

    #[test]
    fn allocation_prefers_least_loaded_node() {
        let mut m = master(2, 5);
        // Fill several ACGs; placements should alternate as load grows.
        resolve(&mut m, 0..20);
        let located = match m.handle(Request::LocateAcgs) {
            Response::Located(rows) => rows,
            other => panic!("{other:?}"),
        };
        let on_n1 = located.iter().filter(|(_, n)| n[0].raw() == 1).count();
        let on_n2 = located.iter().filter(|(_, n)| n[0].raw() == 2).count();
        assert_eq!(on_n1 + on_n2, 4);
        assert!(on_n1 >= 1 && on_n2 >= 1, "both nodes get ACGs");
    }

    #[test]
    fn heartbeat_marks_oversized_acgs_for_split() {
        let mut m = master(2, 1000);
        m.config.split_threshold = 50;
        resolve(&mut m, 0..10);
        let acg = *m.file_to_acg.get(&FileId::new(0)).unwrap();
        let node = m.acg_replicas.get(&acg).unwrap()[0];
        m.handle(Request::Heartbeat {
            node,
            acgs: vec![AcgSummary { acg, files: 60, pending_ops: 0 }],
            load: 0,
            now: Timestamp::from_secs(1),
        });
        match m.handle(Request::TakeSplitWork) {
            Response::SplitWork(work) => assert_eq!(work, vec![(acg, node)]),
            other => panic!("{other:?}"),
        }
        // Re-heartbeating while the split is in flight must not re-queue.
        m.handle(Request::Heartbeat {
            node,
            acgs: vec![AcgSummary { acg, files: 60, pending_ops: 0 }],
            load: 0,
            now: Timestamp::from_secs(2),
        });
        match m.handle(Request::TakeSplitWork) {
            Response::SplitWork(work) => assert!(work.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn commit_split_remaps_files() {
        let mut m = master(2, 1000);
        let rows = resolve(&mut m, 0..10);
        let acg = rows[0].1;
        let (new_acg, targets) = match m.handle(Request::AllocateAcg) {
            Response::AcgAllocated(a, n) => (a, n),
            other => panic!("{other:?}"),
        };
        let moved: Vec<FileId> = (5..10).map(FileId::new).collect();
        let kept: Vec<FileId> = (0..5).map(FileId::new).collect();
        m.handle(Request::CommitSplit {
            acg,
            kept: kept.clone(),
            new_acg,
            moved: moved.clone(),
            targets: targets.clone(),
        });
        let after = resolve(&mut m, 0..10);
        for (file, a, n) in after {
            if file.raw() < 5 {
                assert_eq!(a, acg);
            } else {
                assert_eq!(a, new_acg);
                assert_eq!(n, targets[0]);
            }
        }
    }

    #[test]
    fn bind_files_moves_mappings() {
        let mut m = master(1, 1000);
        resolve(&mut m, 0..4);
        let acg = match m.handle(Request::AllocateAcg) {
            Response::AcgAllocated(a, _) => a,
            other => panic!("{other:?}"),
        };
        m.handle(Request::BindFiles { acg, files: vec![FileId::new(2), FileId::new(3)] });
        let rows = resolve(&mut m, [2, 3]);
        assert!(rows.iter().all(|(_, a, _)| *a == acg));
    }

    fn commit_a_split(m: &mut MasterNode, moved: Vec<FileId>) {
        let acg = *m.file_to_acg.get(&moved[0]).unwrap();
        let (new_acg, targets) = match m.handle(Request::AllocateAcg) {
            Response::AcgAllocated(a, n) => (a, n),
            other => panic!("{other:?}"),
        };
        m.handle(Request::CommitSplit { acg, kept: Vec::new(), new_acg, moved, targets });
    }

    #[test]
    fn resolve_carries_route_hints_for_committed_splits() {
        let mut m = master(2, 1000);
        resolve(&mut m, 0..10);
        // A client at generation 0 resolving before any split: no hints.
        match m.handle(Request::ResolveFiles {
            files: vec![FileId::new(0)],
            hints_since: 0,
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::Resolved { hints, .. } => {
                assert_eq!(hints, RouteHints { upto: 0, moved: vec![], complete: true });
            }
            other => panic!("{other:?}"),
        }
        commit_a_split(&mut m, vec![FileId::new(5), FileId::new(6)]);
        commit_a_split(&mut m, vec![FileId::new(7)]);
        // A client still at generation 0 hears about both splits...
        match m.handle(Request::ResolveFiles {
            files: vec![FileId::new(0)],
            hints_since: 0,
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::Resolved { hints, .. } => {
                assert!(hints.complete);
                assert_eq!(hints.upto, 2);
                assert_eq!(hints.moved, vec![FileId::new(5), FileId::new(6), FileId::new(7)]);
            }
            other => panic!("{other:?}"),
        }
        // ...a client that already applied generation 1 only the second...
        match m.handle(Request::ResolveFiles {
            files: vec![FileId::new(0)],
            hints_since: 1,
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::Resolved { hints, .. } => {
                assert_eq!(hints.moved, vec![FileId::new(7)]);
            }
            other => panic!("{other:?}"),
        }
        // ...and an up-to-date client nothing.
        match m.handle(Request::ResolveFiles {
            files: vec![FileId::new(0)],
            hints_since: 2,
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::Resolved { hints, .. } => assert!(hints.moved.is_empty() && hints.complete),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn route_hints_past_the_bounded_log_are_incomplete() {
        let mut m = MasterNode::new(
            nodes(2),
            MasterConfig { split_log_capacity: 2, ..MasterConfig::default() },
        );
        resolve(&mut m, 0..10);
        for f in [1u64, 2, 3] {
            commit_a_split(&mut m, vec![FileId::new(f)]);
        }
        // Generation 1 fell off the 2-deep log: the client can't know
        // which routes it missed and must clear its cache.
        match m.handle(Request::ResolveFiles {
            files: vec![FileId::new(0)],
            hints_since: 0,
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::Resolved { hints, .. } => {
                assert!(!hints.complete);
                assert_eq!(hints.upto, 3);
                assert!(hints.moved.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // A client only one generation behind is still covered.
        match m.handle(Request::ResolveFiles {
            files: vec![FileId::new(0)],
            hints_since: 2,
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::Resolved { hints, .. } => {
                assert!(hints.complete);
                assert_eq!(hints.moved, vec![FileId::new(3)]);
            }
            other => panic!("{other:?}"),
        }
        // A hintless caller (`u64::MAX` — empty cache, nothing to
        // invalidate) costs no log walk and still learns the current
        // generation to sync to.
        match m.handle(Request::ResolveFiles {
            files: vec![FileId::new(0)],
            hints_since: u64::MAX,
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::Resolved { hints, .. } => {
                assert_eq!(hints, RouteHints { upto: 3, moved: vec![], complete: true });
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_index_nodes_is_a_config_error() {
        let mut m = MasterNode::new(vec![], MasterConfig::default());
        match m.handle(Request::ResolveFiles {
            files: vec![FileId::new(1)],
            hints_since: 0,
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::Err(Error::Config(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn node_status_alive_tracking() {
        let mut m = master(2, 10);
        m.handle(Request::Heartbeat {
            node: NodeId::new(1),
            acgs: vec![],
            load: 0,
            now: Timestamp::from_secs(10),
        });
        let status = m.node_status().get(&NodeId::new(1)).unwrap();
        assert!(status.alive(Timestamp::from_secs(12), Duration::from_secs(5)));
        assert!(!status.alive(Timestamp::from_secs(30), Duration::from_secs(5)));
    }

    #[test]
    fn replicated_placement_uses_distinct_nodes() {
        let mut m = MasterNode::new(
            nodes(4),
            MasterConfig { group_capacity: 5, replication: 2, ..MasterConfig::default() },
        );
        resolve(&mut m, 0..20);
        let located = match m.handle(Request::LocateAcgs) {
            Response::Located(rows) => rows,
            other => panic!("{other:?}"),
        };
        assert_eq!(located.len(), 4);
        for (acg, replicas) in &located {
            assert_eq!(replicas.len(), 2, "{acg:?} must have 2 replicas");
            assert_ne!(replicas[0], replicas[1], "{acg:?} replicas must be distinct nodes");
        }
    }

    #[test]
    fn replication_is_clamped_to_the_cluster_size() {
        let mut m =
            MasterNode::new(nodes(2), MasterConfig { replication: 3, ..MasterConfig::default() });
        resolve(&mut m, 0..3);
        match m.handle(Request::LocateAcgs) {
            Response::Located(rows) => {
                assert!(rows.iter().all(|(_, r)| r.len() == 2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resolve_reports_the_full_replica_set() {
        let mut m =
            MasterNode::new(nodes(3), MasterConfig { replication: 2, ..MasterConfig::default() });
        match m.handle(Request::ResolveFiles {
            files: vec![FileId::new(1)],
            hints_since: 0,
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::Resolved { rows, replicas, .. } => {
                assert_eq!(rows.len(), 1);
                let (_, acg, primary) = rows[0];
                let set = &replicas.iter().find(|(a, _)| *a == acg).expect("replica row").1;
                assert_eq!(set.len(), 2);
                assert_eq!(set[0], primary, "the resolved node is the primary");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn split_commit_installs_the_whole_target_replica_set() {
        let mut m =
            MasterNode::new(nodes(3), MasterConfig { replication: 2, ..MasterConfig::default() });
        resolve(&mut m, 0..10);
        let acg = *m.file_to_acg.get(&FileId::new(0)).unwrap();
        let (new_acg, targets) = match m.handle(Request::AllocateAcg) {
            Response::AcgAllocated(a, n) => (a, n),
            other => panic!("{other:?}"),
        };
        assert_eq!(targets.len(), 2);
        m.handle(Request::CommitSplit {
            acg,
            kept: (0..5).map(FileId::new).collect(),
            new_acg,
            moved: (5..10).map(FileId::new).collect(),
            targets: targets.clone(),
        });
        assert_eq!(m.acg_replicas.get(&new_acg), Some(&targets));
    }

    #[test]
    fn heartbeats_rebuild_replica_sets_after_a_master_restart() {
        let mut m = MasterNode::new(nodes(3), MasterConfig::default());
        let acg = AcgId::new(7);
        for node in [NodeId::new(2), NodeId::new(3)] {
            m.handle(Request::Heartbeat {
                node,
                acgs: vec![AcgSummary { acg, files: 4, pending_ops: 0 }],
                load: 0,
                now: Timestamp::from_secs(1),
            });
        }
        assert_eq!(m.acg_replicas.get(&acg), Some(&vec![NodeId::new(2), NodeId::new(3)]));
        assert!(m.next_acg > 7);
    }

    #[test]
    fn duplicate_index_name_rejected_at_master() {
        let mut m = master(1, 10);
        let spec = IndexSpec::btree("uid_idx", propeller_types::AttrName::Uid);
        assert!(matches!(m.handle(Request::CreateIndex { spec: spec.clone() }), Response::Ok));
        assert!(matches!(
            m.handle(Request::CreateIndex { spec }),
            Response::Err(Error::IndexExists(_))
        ));
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("propeller-master-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_config(dir: &std::path::Path) -> MasterConfig {
        MasterConfig {
            group_capacity: 1000,
            data_dir: Some(dir.to_path_buf()),
            ..MasterConfig::default()
        }
    }

    #[test]
    fn durable_master_recovers_its_state_machine_from_disk() {
        let dir = durable_dir("recover");
        let mut m = MasterNode::open(nodes(2), durable_config(&dir)).unwrap();
        let before = resolve(&mut m, 0..20);
        let spec = IndexSpec::btree("uid_idx", propeller_types::AttrName::Uid);
        assert!(matches!(m.handle(Request::CreateIndex { spec: spec.clone() }), Response::Ok));
        drop(m); // Crash.
        let mut m = MasterNode::open(nodes(2), durable_config(&dir)).unwrap();
        assert_eq!(resolve(&mut m, 0..20), before, "recovered placements must match");
        // The allocation cursor continued: a fresh ACG id never collides
        // with a recovered one.
        let taken: std::collections::HashSet<AcgId> = before.iter().map(|(_, a, _)| *a).collect();
        match m.handle(Request::AllocateAcg) {
            Response::AcgAllocated(a, _) => assert!(!taken.contains(&a), "{a:?} reused"),
            other => panic!("{other:?}"),
        }
        // The spec catalogue survived, duplicates still rejected.
        match m.handle(Request::ListIndexSpecs) {
            Response::IndexSpecs(specs) => assert_eq!(specs, vec![spec.clone()]),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            m.handle(Request::CreateIndex { spec }),
            Response::Err(Error::IndexExists(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn routing_generation_survives_a_master_restart() {
        let dir = durable_dir("gen");
        let mut m = MasterNode::open(nodes(2), durable_config(&dir)).unwrap();
        resolve(&mut m, 0..10);
        commit_a_split(&mut m, (5..10).map(FileId::new).collect());
        drop(m); // Crash at generation 1.
        let mut m = MasterNode::open(nodes(2), durable_config(&dir)).unwrap();
        commit_a_split(&mut m, (0..3).map(FileId::new).collect());
        // A client that saw generation 1 before the crash asks for the
        // delta. A generation counter that reset to 0 on restart would
        // re-issue gen 1 and the stale client would silently keep routing
        // the second split's files to the wrong ACG.
        match m.handle(Request::ResolveFiles {
            files: vec![FileId::new(4)],
            hints_since: 1,
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::Resolved { hints, .. } => {
                assert_eq!(hints.upto, 2, "generation must continue past the restart, not reset");
                assert!(hints.complete, "the recovered split log must cover gen 2");
                assert!(
                    hints.moved.contains(&FileId::new(0)),
                    "the post-restart split's moved files must ride the hints: {:?}",
                    hints.moved
                );
            }
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_flight_migration_survives_restart_and_resumes_from_its_phase() {
        let dir = durable_dir("mig");
        let mut m = MasterNode::open(nodes(2), durable_config(&dir)).unwrap();
        let rows = resolve(&mut m, 0..10);
        let source = rows[0].1;
        let moved: Vec<FileId> = (5..10).map(FileId::new).collect();
        let (new_acg, targets) =
            match m.handle(Request::BeginMigration { acg: source, moved: moved.clone() }) {
                Response::MigrationBegun { new_acg, targets } => (new_acg, targets),
                other => panic!("{other:?}"),
            };
        // The reserved group is not routable before commit.
        match m.handle(Request::LocateAcgs) {
            Response::Located(rows) => assert!(rows.iter().all(|(a, _)| *a != new_acg)),
            other => panic!("{other:?}"),
        }
        drop(m); // Crash before the install ack.
        let mut m = MasterNode::open(nodes(2), durable_config(&dir)).unwrap();
        match m.handle(Request::TakeMigrationWork) {
            Response::MigrationWork(jobs) => {
                assert_eq!(jobs.len(), 1);
                assert_eq!(jobs[0].new_acg, new_acg);
                assert!(!jobs[0].installed, "crash pre-ack: recovery must re-extract");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(m.handle(Request::InstallAcked { new_acg }), Response::Ok));
        drop(m); // Crash after the install ack.
        let mut m = MasterNode::open(nodes(2), durable_config(&dir)).unwrap();
        match m.handle(Request::TakeMigrationWork) {
            Response::MigrationWork(jobs) => {
                assert_eq!(jobs.len(), 1);
                assert!(jobs[0].installed, "the logged ack must survive the crash");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(m.handle(Request::CommitMigration { new_acg }), Response::Ok));
        // Committed: files remapped, the group routable, the job retired.
        let after = resolve(&mut m, 5..10);
        assert!(after.iter().all(|(_, a, _)| *a == new_acg), "{after:?}");
        assert_eq!(m.acg_replicas.get(&new_acg), Some(&targets));
        match m.handle(Request::TakeMigrationWork) {
            Response::MigrationWork(jobs) => assert!(jobs.is_empty()),
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn master_checkpoints_bound_recovery_replay() {
        // Every 4 ops, and after every op: then each checkpoint's LSN names
        // the op just logged, and recovery replays only past it, so the
        // checkpoint image must already hold that op.
        for every in [4, 1] {
            let dir = durable_dir(&format!("ckpt-{every}"));
            let config = || MasterConfig { meta_snapshot_every: every, ..durable_config(&dir) };
            let mut m = MasterNode::open(nodes(2), config()).unwrap();
            // Dozens of logged ops: placements plus spec churn force
            // several checkpoint cycles.
            for round in 0..6u64 {
                resolve(&mut m, round * 10..round * 10 + 10);
                let name = format!("idx_{round}");
                let spec = IndexSpec::btree(&name, propeller_types::AttrName::Uid);
                assert!(matches!(m.handle(Request::CreateIndex { spec }), Response::Ok));
            }
            let before = resolve(&mut m, 0..60);
            drop(m);
            // The WAL was truncated behind the checkpoints — recovery
            // replays a short suffix, not the whole history — and still
            // lands on the exact same state.
            let mut m = MasterNode::open(nodes(2), config()).unwrap();
            assert_eq!(resolve(&mut m, 0..60), before);
            match m.handle(Request::ListIndexSpecs) {
                Response::IndexSpecs(specs) => {
                    assert_eq!(specs.len(), 6, "checkpoint every {every}")
                }
                other => panic!("{other:?}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
