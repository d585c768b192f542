//! The Master Node (paper §IV).
//!
//! "The central index metadata and coordination server": it owns the
//! `file → ACG` mapping and ACG placement, routes client requests, learns
//! ACG sizes from Index Node heartbeats, decides when an ACG must be
//! split, and coordinates two-phase migrations. It never touches file
//! data or indices itself, which is why a single Master scales to
//! hundreds of Index Nodes.
//!
//! ## Durability: the Master as a logged state machine
//!
//! The Master's **hard state** — file placement, ACG replica sets, the
//! index-spec registry, in-flight migrations, the recent-splits log, the
//! next-ACG counter and the routing generation — is one
//! [`MetaImage`](crate::meta::MetaImage), the very value a checkpoint
//! encodes. One function, `apply_op`, changes it, one
//! [`crate::meta::MetaOp`] transition at a time: a live request plans its
//! ops without touching state and hands them to `log_then_apply`, which
//! appends them to a control-plane WAL and fsyncs *before* it applies them
//! and the request is acked; [`MasterNode::open`] replays the log through
//! the same function. Periodic checksummed checkpoints bound recovery to
//! O(delta) suffix replay.
//! **Soft state** — heartbeat-refreshed file counts and split *pressure* —
//! is never logged: one heartbeat round rebuilds it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use propeller_obs::{names, Lane, NodeObs, SpanKind};
use propeller_sim::{Clock, WallClock};
use propeller_types::{AcgId, Error, FileId, NodeId};

use crate::messages::{AcgSummary, MigrationJob, Request, Response, RouteHints};
use crate::meta::{MetaImage, MetaOp, MetaStore, Migration};

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
    /// The hard state, exactly what a checkpoint encodes. Only `apply_op`
    /// changes it: live behind `log_then_apply`, on recovery by replay.
    hard: MetaImage,
    acg_files: HashMap<AcgId, usize>,
    pending_splits: Vec<(AcgId, NodeId)>,
    splitting: std::collections::HashSet<AcgId>,
    /// The control-plane WAL + checkpoint store; `None` for a
    /// [`MasterNode::new`] Master, which logs nothing.
    meta: Option<MetaStore>,
    /// Time source for resolve spans (the cluster injects its own).
    clock: Arc<dyn Clock>,
    /// The Master lane's metrics registry + span buffer.
    obs: Arc<NodeObs>,
}

impl std::fmt::Debug for MasterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MasterNode")
            .field("index_nodes", &self.index_nodes)
            .field("acgs", &self.hard.acg_replicas.len())
            .field("files", &self.hard.file_to_acg.len())
            .field("routing_gen", &self.hard.routing_gen)
            .finish()
    }
}

/// The `next_acg` floor once `acg` exists: the id after it. The last id
/// has none, so it is never minted or adopted.
fn successor(acg: AcgId) -> Result<u64, Error> {
    acg.raw().checked_add(1).ok_or_else(|| Error::Config(format!("ACG ids exhausted at {acg}")))
}

impl MasterNode {
    /// Creates a memory-only Master managing the given Index Nodes: hard
    /// state is kept but not persisted. Use [`MasterNode::open`] for a
    /// durable Master.
    pub fn new(index_nodes: Vec<NodeId>, config: MasterConfig) -> Self {
        MasterNode {
            config,
            index_nodes,
            hard: MetaImage { next_acg: 1, ..MetaImage::default() },
            acg_files: HashMap::new(),
            pending_splits: Vec::new(),
            splitting: std::collections::HashSet::new(),
            meta: None,
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
        master.meta = Some(meta);
        if let Some(image) = recovery.image {
            master.hard = MetaImage { next_acg: image.next_acg.max(1), ..image };
            // File counts are heartbeat-refreshed soft state; seed them
            // from the authoritative placement map so capacity/split
            // decisions are sane before the first heartbeat round.
            for acg in master.hard.acg_replicas.keys() {
                master.acg_files.insert(*acg, 0);
            }
            for acg in master.hard.file_to_acg.values() {
                *master.acg_files.entry(*acg).or_insert(0) += 1;
            }
            master.splitting.extend(master.hard.migrations.values().map(|m| m.source));
        }
        for op in &recovery.suffix {
            master.apply_op(op);
        }
        Ok(master)
    }

    /// Applies one logged transition to the in-memory state — the only
    /// code that changes hard state. Recovery replay and `log_then_apply`
    /// share it, so a replayed Master is the live Master by construction.
    fn apply_op(&mut self, op: &MetaOp) {
        // Saturating, so a log that adopted the last id still replays.
        let lift =
            |next: &mut u64, acg: AcgId| *next = (*next).max(successor(acg).unwrap_or(u64::MAX));
        let hard = &mut self.hard;
        match op {
            MetaOp::PlaceFiles { placements } => {
                for (file, acg) in placements {
                    let old = hard.file_to_acg.insert(*file, *acg);
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
                hard.acg_replicas.insert(*acg, replicas.clone());
                self.acg_files.entry(*acg).or_insert(0);
                lift(&mut hard.next_acg, *acg);
                if *open {
                    hard.open_acg = Some(*acg);
                }
            }
            MetaOp::CommitSplit { acg, new_acg, moved, targets } => {
                for file in moved {
                    hard.file_to_acg.insert(*file, *new_acg);
                }
                hard.acg_replicas.insert(*new_acg, targets.clone());
                self.acg_files.insert(*new_acg, moved.len());
                if let Some(c) = self.acg_files.get_mut(acg) {
                    *c = c.saturating_sub(moved.len());
                }
                lift(&mut hard.next_acg, *new_acg);
                self.splitting.remove(acg);
                hard.migrations.remove(new_acg);
                hard.routing_gen += 1;
                hard.split_log.push_back((hard.routing_gen, moved.clone()));
                while hard.split_log.len() > self.config.split_log_capacity.max(1) {
                    hard.split_log.pop_front();
                }
            }
            MetaOp::AdoptReplica { acg, node } => {
                let replicas = hard.acg_replicas.entry(*acg).or_default();
                if !replicas.contains(node) {
                    replicas.push(*node);
                }
                self.acg_files.entry(*acg).or_insert(0);
                lift(&mut hard.next_acg, *acg);
            }
            MetaOp::CreateIndexSpec { spec } => {
                if !hard.specs.iter().any(|s| s.name == spec.name) {
                    hard.specs.push(spec.clone());
                }
            }
            MetaOp::DropIndexSpec { name } => {
                hard.specs.retain(|s| s.name != *name);
            }
            MetaOp::BeginMigration { source, new_acg, moved, targets } => {
                lift(&mut hard.next_acg, *new_acg);
                self.splitting.insert(*source);
                hard.migrations.insert(
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
                if let Some(m) = hard.migrations.get_mut(new_acg) {
                    m.installed = true;
                }
            }
        }
    }

    /// The Master's write rule (paper §IV): durably log one batch of
    /// transitions, then apply it — nothing is observable that a restart
    /// would not replay. A checkpoint due at this batch is cut after the
    /// apply, so its image covers every op its LSN claims. A failed
    /// checkpoint is not fatal: the WAL still holds every transition,
    /// recovery just replays a longer suffix.
    fn log_then_apply(&mut self, ops: &[MetaOp]) -> Result<(), Error> {
        if let Some(meta) = &mut self.meta {
            meta.log(ops)?;
        }
        for op in ops {
            self.apply_op(op);
        }
        if let Some(meta) = self.meta.as_mut().filter(|meta| meta.checkpoint_due()) {
            let _ = meta.checkpoint(&self.hard);
        }
        Ok(())
    }

    /// Files hosted per node. Load counts every replica a node hosts: an
    /// ACG's files weigh on all R of its nodes.
    fn node_loads(&self) -> HashMap<NodeId, usize> {
        let mut load: HashMap<NodeId, usize> = self.index_nodes.iter().map(|&n| (n, 0)).collect();
        for (acg, files) in &self.acg_files {
            for node in self.hard.acg_replicas.get(acg).map(Vec::as_slice).unwrap_or(&[]) {
                *load.entry(*node).or_insert(0) += files;
            }
        }
        load
    }

    /// ACG id `next`, the R least-loaded nodes under `loads` to place it
    /// on (least-loaded first, R clamped to the cluster size) and the id
    /// after it — nothing taken yet: the logged op that creates the group
    /// takes them.
    fn placement(
        &self,
        next: u64,
        loads: &HashMap<NodeId, usize>,
    ) -> Result<(AcgId, Vec<NodeId>, u64), Error> {
        let mut nodes = self.index_nodes.clone();
        nodes.sort_by_key(|n| (loads.get(n).copied().unwrap_or(0), n.raw()));
        nodes.truncate(self.config.replication.max(1));
        if nodes.is_empty() {
            return Err(Error::Config("cluster has no index nodes".into()));
        }
        let acg = AcgId::new(next);
        Ok((acg, nodes, successor(acg)?))
    }

    /// The next ACG id and its replica set, for a group created on its own.
    fn next_placement(&self) -> Result<(AcgId, Vec<NodeId>), Error> {
        let (acg, nodes, _) = self.placement(self.hard.next_acg, &self.node_loads())?;
        Ok((acg, nodes))
    }

    /// The replica sets of every distinct ACG named in `rows`, for the
    /// [`Response::Resolved`] payload.
    fn replicas_of(&self, rows: &[(FileId, AcgId, NodeId)]) -> Vec<(AcgId, Vec<NodeId>)> {
        let mut acgs: Vec<AcgId> = rows.iter().map(|(_, a, _)| *a).collect();
        acgs.sort();
        acgs.dedup();
        acgs.into_iter()
            .filter_map(|a| self.hard.acg_replicas.get(&a).map(|nodes| (a, nodes.clone())))
            .collect()
    }

    /// Routes `files`, placing the unplaced ones: new files fill the open
    /// ACG and roll over to a new group at `group_capacity`. The ops are
    /// planned without touching state and go through `log_then_apply`, so
    /// a batch whose rows cannot all be routed logs and applies nothing.
    fn resolve(&mut self, files: Vec<FileId>) -> Result<Vec<(FileId, AcgId, NodeId)>, Error> {
        let mut ops = Vec::new();
        let mut placements = Vec::new();
        // This batch's placements, for ids that repeat within it.
        let mut placed: HashMap<FileId, (AcgId, NodeId)> = HashMap::with_capacity(files.len());
        let mut next = self.hard.next_acg;
        let mut open = self
            .hard
            .open_acg
            .map(|acg| (acg, self.hard.acg_replicas.get(&acg).cloned().unwrap_or_default()));
        let mut fill =
            self.hard.open_acg.and_then(|acg| self.acg_files.get(&acg).copied()).unwrap_or(0);
        // Node loads including this batch's placements so far: counted at
        // the first rollover, then kept up to date by `unsettled`.
        let mut loads: Option<HashMap<NodeId, usize>> = None;
        let mut unsettled = 0;
        let mut rows = Vec::with_capacity(files.len());
        for file in files {
            let row = match self.hard.file_to_acg.get(&file) {
                Some(&acg) => {
                    let primary = self.hard.acg_replicas.get(&acg).and_then(|r| r.first());
                    (acg, *primary.ok_or(Error::AcgNotFound(acg))?)
                }
                None => match placed.entry(file) {
                    Entry::Occupied(seen) => *seen.get(),
                    Entry::Vacant(slot) => {
                        if open.is_none() || fill >= self.config.group_capacity {
                            let loads = loads.get_or_insert_with(|| self.node_loads());
                            for node in open.iter().flat_map(|(_, nodes)| nodes) {
                                *loads.entry(*node).or_insert(0) += unsettled;
                            }
                            let (acg, nodes, after) = self.placement(next, loads)?;
                            ops.push(MetaOp::CreateAcg {
                                acg,
                                replicas: nodes.clone(),
                                open: true,
                            });
                            (open, fill, unsettled, next) = (Some((acg, nodes)), 0, 0, after);
                        }
                        let (acg, nodes) = open.as_ref().expect("just ensured");
                        let row = (*acg, *nodes.first().ok_or(Error::AcgNotFound(*acg))?);
                        fill += 1;
                        unsettled += 1;
                        placements.push((file, *acg));
                        *slot.insert(row)
                    }
                },
            };
            rows.push((file, row.0, row.1));
        }
        if !placements.is_empty() {
            ops.push(MetaOp::PlaceFiles { placements });
        }
        if !ops.is_empty() {
            self.log_then_apply(&ops)?;
        }
        Ok(rows)
    }

    /// Folds one node's ACG summaries into the soft state, adopting groups
    /// the Master has not placed on that node. A node outside the cluster
    /// is refused before anything is adopted or logged: no client could
    /// reach a replica on it.
    fn on_heartbeat(&mut self, node: NodeId, acgs: Vec<AcgSummary>) -> Result<(), Error> {
        if !self.index_nodes.contains(&node) {
            return Err(Error::NodeUnavailable(node));
        }
        for summary in acgs {
            // Adopt ACGs this Master has never seen on this node: a node
            // that recovered its groups from disk (a memory-only Master
            // restart, or a revived node with placements the Master lost)
            // re-registers through its first heartbeats, so the search
            // fan-out reaches the recovered data again. Adoption is a
            // hard-state change — it extends a replica set — so it is
            // logged like any other transition; if the log write fails
            // the adoption is skipped and the next heartbeat retries. The
            // last ACG id is never adopted: it has no successor to mint
            // next, so it is refused before anything is logged.
            //
            // The guard: a mid-migration new group is *installed* on its
            // targets (it heartbeats!) but must not become routable until
            // the migration commits, or its files would briefly be served
            // from two homes. Its summaries are ignored wholesale here.
            if self.hard.migrations.contains_key(&summary.acg) {
                continue;
            }
            let known = self.hard.acg_replicas.get(&summary.acg).is_some_and(|r| r.contains(&node));
            if !known
                && (successor(summary.acg).is_err()
                    || self
                        .log_then_apply(&[MetaOp::AdoptReplica { acg: summary.acg, node }])
                        .is_err())
            {
                continue;
            }
            self.acg_files.insert(summary.acg, summary.files);
            if summary.files > self.config.split_threshold && !self.splitting.contains(&summary.acg)
            {
                // Split work always runs on the primary (it has the
                // authoritative WAL the followers chain from).
                let primary = self.hard.acg_replicas[&summary.acg][0];
                self.splitting.insert(summary.acg);
                self.pending_splits.push((summary.acg, primary));
            }
        }
        Ok(())
    }

    /// The route invalidations a client at generation `since` is missing.
    /// Complete (surgical) hints need the split log to reach back to
    /// `since + 1`; a client further behind gets `complete: false` and
    /// drops its whole cache.
    fn route_hints(&self, since: u64) -> RouteHints {
        let upto = self.hard.routing_gen;
        if since >= upto {
            return RouteHints { upto, moved: Vec::new(), complete: true };
        }
        match self.hard.split_log.front() {
            Some((oldest, _)) if *oldest <= since + 1 => RouteHints {
                upto,
                moved: self
                    .hard
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

    /// Number of distinct ACGs allocated.
    pub fn acg_count(&self) -> usize {
        self.hard.acg_replicas.len()
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
                self.obs.metrics.counter(names::LOCATES_SERVED).inc();
                let mut rows: Vec<(AcgId, Vec<NodeId>)> =
                    self.hard.acg_replicas.iter().map(|(&a, n)| (a, n.clone())).collect();
                rows.sort();
                Response::Located(rows)
            }
            Request::CreateIndex { spec } => {
                if self.hard.specs.iter().any(|s| s.name == spec.name) {
                    return Response::Err(Error::IndexExists(spec.name));
                }
                if let Err(e) = self.log_then_apply(&[MetaOp::CreateIndexSpec { spec }]) {
                    return Response::Err(e);
                }
                Response::Ok
            }
            Request::DropIndex { name } => {
                // Idempotent: rolling back a registration that partially
                // propagated must always succeed. Only an actual removal
                // is a transition worth logging.
                if self.hard.specs.iter().any(|s| s.name == name) {
                    if let Err(e) = self.log_then_apply(&[MetaOp::DropIndexSpec { name }]) {
                        return Response::Err(e);
                    }
                }
                Response::Ok
            }
            Request::ListIndexSpecs => Response::IndexSpecs(self.hard.specs.clone()),
            Request::Heartbeat { node, acgs } => match self.on_heartbeat(node, acgs) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(e),
            },
            Request::TakeSplitWork => {
                let work = std::mem::take(&mut self.pending_splits);
                Response::SplitWork(work)
            }
            Request::TakeMigrationWork => {
                let mut jobs: Vec<MigrationJob> = self
                    .hard
                    .migrations
                    .values()
                    .filter_map(|m| {
                        let source_node =
                            *self.hard.acg_replicas.get(&m.source).and_then(|r| r.first())?;
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
            Request::BindFiles { files } => {
                // A placed file keeps its home: a rebind would route it away from its data.
                if let Some(&file) = files.iter().find(|f| self.hard.file_to_acg.contains_key(f)) {
                    return Response::Err(Error::FilePlaced(file));
                }
                let (acg, replicas) = match self.next_placement() {
                    Ok(placement) => placement,
                    Err(e) => return Response::Err(e),
                };
                let mut ops =
                    vec![MetaOp::CreateAcg { acg, replicas: replicas.clone(), open: false }];
                if !files.is_empty() {
                    let placements = files.into_iter().map(|f| (f, acg)).collect();
                    ops.push(MetaOp::PlaceFiles { placements });
                }
                match self.log_then_apply(&ops) {
                    Ok(()) => Response::AcgAllocated(acg, replicas),
                    Err(e) => Response::Err(e),
                }
            }
            Request::BeginMigration { acg, moved } => {
                if !self.hard.acg_replicas.contains_key(&acg) {
                    return Response::Err(Error::AcgNotFound(acg));
                }
                // Only files homed in `acg` can move out of it: any other
                // would end up routed to a group that never got its data.
                if let Some(&file) =
                    moved.iter().find(|f| self.hard.file_to_acg.get(f) != Some(&acg))
                {
                    return Response::Err(Error::FileNotFound(file));
                }
                if self.hard.migrations.values().any(|m| m.source == acg) {
                    return Response::Err(Error::Rpc(format!(
                        "a migration out of {acg} is already in flight"
                    )));
                }
                let (new_acg, targets) = match self.next_placement() {
                    Ok(placement) => placement,
                    Err(e) => return Response::Err(e),
                };
                if let Err(e) = self.log_then_apply(&[MetaOp::BeginMigration {
                    source: acg,
                    new_acg,
                    moved,
                    targets: targets.clone(),
                }]) {
                    return Response::Err(e);
                }
                Response::MigrationBegun { new_acg, targets }
            }
            Request::InstallAcked { new_acg } => {
                let Some(m) = self.hard.migrations.get(&new_acg) else {
                    return Response::Err(Error::AcgNotFound(new_acg));
                };
                if !m.installed {
                    if let Err(e) = self.log_then_apply(&[MetaOp::InstallAcked { new_acg }]) {
                        return Response::Err(e);
                    }
                }
                Response::Ok
            }
            Request::CommitMigration { new_acg } => {
                let Some(m) = self.hard.migrations.get(&new_acg) else {
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
                if let Err(e) = self.log_then_apply(&[MetaOp::CommitSplit {
                    acg: m.source,
                    new_acg,
                    moved: m.moved.clone(),
                    targets: m.targets.clone(),
                }]) {
                    return Response::Err(e);
                }
                Response::Ok
            }
            Request::DumpTrace { trace } => Response::TraceSpans(self.obs.spans.harvest(trace)),
            Request::Metrics => {
                self.obs.metrics.gauge("routing_gen").set(self.hard.routing_gen);
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
    use propeller_index::IndexSpec;

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
        let acg = *m.hard.file_to_acg.get(&FileId::new(0)).unwrap();
        let node = m.hard.acg_replicas.get(&acg).unwrap()[0];
        m.handle(Request::Heartbeat {
            node,
            acgs: vec![AcgSummary { acg, files: 60, pending_ops: 0 }],
        });
        match m.handle(Request::TakeSplitWork) {
            Response::SplitWork(work) => assert_eq!(work, vec![(acg, node)]),
            other => panic!("{other:?}"),
        }
        // Re-heartbeating while the split is in flight must not re-queue.
        m.handle(Request::Heartbeat {
            node,
            acgs: vec![AcgSummary { acg, files: 60, pending_ops: 0 }],
        });
        match m.handle(Request::TakeSplitWork) {
            Response::SplitWork(work) => assert!(work.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    /// Runs a metadata-only split of `moved` out of `acg` through the
    /// two-phase protocol: begin, ack the install, commit.
    fn migrate(m: &mut MasterNode, acg: AcgId, moved: Vec<FileId>) -> (AcgId, Vec<NodeId>) {
        let (new_acg, targets) = match m.handle(Request::BeginMigration { acg, moved }) {
            Response::MigrationBegun { new_acg, targets } => (new_acg, targets),
            other => panic!("{other:?}"),
        };
        assert!(matches!(m.handle(Request::InstallAcked { new_acg }), Response::Ok));
        assert!(matches!(m.handle(Request::CommitMigration { new_acg }), Response::Ok));
        (new_acg, targets)
    }

    #[test]
    fn commit_split_remaps_files() {
        let mut m = master(2, 1000);
        let rows = resolve(&mut m, 0..10);
        let acg = rows[0].1;
        let (new_acg, targets) = migrate(&mut m, acg, (5..10).map(FileId::new).collect());
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
    fn bind_files_places_unplaced_files() {
        let mut m = master(1, 1000);
        resolve(&mut m, 0..4);
        let acg = match m.handle(Request::BindFiles { files: vec![FileId::new(4), FileId::new(5)] })
        {
            Response::AcgAllocated(a, _) => a,
            other => panic!("{other:?}"),
        };
        let rows = resolve(&mut m, [4, 5]);
        assert!(rows.iter().all(|(_, a, _)| *a == acg));
        assert!(resolve(&mut m, [0, 1]).iter().all(|(_, a, _)| *a != acg));
    }

    fn commit_a_split(m: &mut MasterNode, moved: Vec<FileId>) {
        let acg = *m.hard.file_to_acg.get(&moved[0]).unwrap();
        migrate(m, acg, moved);
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
        let dir = durable_dir("no-nodes");
        let durable = MasterNode::open(vec![], durable_config(&dir)).unwrap();
        for mut m in [MasterNode::new(vec![], MasterConfig::default()), durable] {
            let before = m.hard.clone();
            match m.handle(Request::ResolveFiles {
                files: vec![FileId::new(1)],
                hints_since: 0,
                ctx: propeller_obs::TraceContext::NONE,
            }) {
                Response::Err(Error::Config(_)) => {}
                other => panic!("{other:?}"),
            }
            assert_eq!(m.hard, before, "a resolve that cannot route applies nothing");
            assert_eq!(logged(&m), 0, "and logs nothing");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_migration_of_files_the_group_does_not_home_is_refused() {
        let mut m = master(2, 5);
        resolve(&mut m, 0..10);
        let (source, before) = (AcgId::new(1), m.hard.clone());
        // File 7 lives in ACG 2 and file 500 was never placed: moving
        // either out of ACG 1 would route it to a group without its data.
        let begin =
            Request::BeginMigration { acg: source, moved: vec![FileId::new(7), FileId::new(500)] };
        match m.handle(begin) {
            Response::Err(Error::FileNotFound(file)) => assert_eq!(file, FileId::new(7)),
            other => panic!("{other:?}"),
        }
        let begin =
            Request::BeginMigration { acg: source, moved: vec![FileId::new(3), FileId::new(500)] };
        assert!(matches!(m.handle(begin), Response::Err(Error::FileNotFound(_))));
        assert_eq!(m.hard, before, "a refused migration changes no hard state");
    }

    #[test]
    fn binding_a_file_that_already_has_a_home_is_refused() {
        let mut m = master(2, 5);
        resolve(&mut m, 0..10);
        let before = m.hard.clone();
        // File 7 lives in ACG 2: a second home would move its route but
        // leave its data behind, so the whole bind is refused unlogged.
        let bind = Request::BindFiles { files: vec![FileId::new(500), FileId::new(7)] };
        match m.handle(bind) {
            Response::Err(Error::FilePlaced(file)) => assert_eq!(file, FileId::new(7)),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.hard, before, "a refused bind creates no group and places no file");
        let bind = Request::BindFiles { files: vec![FileId::new(500), FileId::new(501)] };
        assert!(matches!(m.handle(bind), Response::AcgAllocated(..)));
    }

    #[test]
    fn a_heartbeat_from_a_node_outside_the_cluster_is_refused() {
        let mut m = master(2, 5);
        resolve(&mut m, 0..10);
        let (before, outsider) = (m.hard.clone(), NodeId::new(3));
        let summary = AcgSummary { acg: AcgId::new(9), files: 4, pending_ops: 0 };
        match m.handle(Request::Heartbeat { node: outsider, acgs: vec![summary] }) {
            Response::Err(Error::NodeUnavailable(node)) => assert_eq!(node, outsider),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.hard, before, "nothing adopted: no client could reach {outsider}");
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
        let acg = *m.hard.file_to_acg.get(&FileId::new(0)).unwrap();
        let (new_acg, targets) = migrate(&mut m, acg, (5..10).map(FileId::new).collect());
        assert_eq!(targets.len(), 2);
        assert_eq!(m.hard.acg_replicas.get(&new_acg), Some(&targets));
    }

    #[test]
    fn heartbeats_rebuild_replica_sets_after_a_master_restart() {
        let mut m = MasterNode::new(nodes(3), MasterConfig::default());
        let acg = AcgId::new(7);
        for node in [NodeId::new(2), NodeId::new(3)] {
            m.handle(Request::Heartbeat {
                node,
                acgs: vec![AcgSummary { acg, files: 4, pending_ops: 0 }],
            });
        }
        assert_eq!(m.hard.acg_replicas.get(&acg), Some(&vec![NodeId::new(2), NodeId::new(3)]));
        assert!(m.hard.next_acg > 7);
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

    /// The frames a Master's control-plane WAL holds (none without one).
    fn logged(m: &MasterNode) -> u64 {
        m.meta.as_ref().map_or(0, MetaStore::entry_count)
    }

    fn locate(m: &mut MasterNode) -> Vec<(AcgId, Vec<NodeId>)> {
        match m.handle(Request::LocateAcgs) {
            Response::Located(rows) => rows,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn memory_only_master_keeps_no_log() {
        let mut memory = master(2, 10);
        let rows = resolve(&mut memory, 0..25);
        assert_eq!(logged(&memory), 0, "a memory-only Master encodes and keeps no frame");
        assert_eq!(resolve(&mut memory, 0..25), rows, "its state lives in memory alone");
        // The same resolves on a durable Master do log frames.
        let dir = durable_dir("memory-only");
        let mut durable = MasterNode::open(nodes(2), durable_config(&dir)).unwrap();
        resolve(&mut durable, 0..25);
        assert!(logged(&durable) > 0);
        let _ = std::fs::remove_dir_all(&dir);
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
        match m.handle(Request::BindFiles { files: vec![FileId::new(100)] }) {
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
        assert_eq!(m.hard.acg_replicas.get(&new_acg), Some(&targets));
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

    #[test]
    fn adopting_the_last_acg_id_is_refused_before_it_is_logged() {
        let dir = durable_dir("last-id");
        let mut m = MasterNode::open(nodes(2), durable_config(&dir)).unwrap();
        resolve(&mut m, 0..3);
        let before = locate(&mut m);
        // No id follows `u64::MAX`, so adopting it would leave none to
        // mint next: the heartbeat is served, the adoption never logged.
        let last = AcgSummary { acg: AcgId::new(u64::MAX), files: 1, pending_ops: 0 };
        let heartbeat = Request::Heartbeat { node: NodeId::new(1), acgs: vec![last] };
        assert!(matches!(m.handle(heartbeat), Response::Ok));
        assert_eq!(locate(&mut m), before);
        drop(m);
        let mut m = MasterNode::open(nodes(2), durable_config(&dir)).unwrap();
        assert_eq!(locate(&mut m), before, "the reopened Master replays its log");
        assert!(matches!(
            m.handle(Request::BindFiles { files: vec![] }),
            Response::AcgAllocated(..)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_logged_adoption_of_the_last_acg_id_replays_and_mints_no_more() {
        // A log that already holds the adoption still opens; the id space
        // is then spent, which minting reports instead of wrapping.
        let dir = durable_dir("last-id-logged");
        let (mut store, _) = MetaStore::open(&dir, 64).unwrap();
        let last = AcgId::new(u64::MAX);
        store.log(&[MetaOp::AdoptReplica { acg: last, node: NodeId::new(1) }]).unwrap();
        drop(store);
        let mut m = MasterNode::open(nodes(2), durable_config(&dir)).unwrap();
        assert_eq!(locate(&mut m), vec![(last, vec![NodeId::new(1)])]);
        assert_eq!(m.hard.next_acg, u64::MAX);
        let bind = m.handle(Request::BindFiles { files: vec![FileId::new(1)] });
        assert!(matches!(bind, Response::Err(Error::Config(_))), "{bind:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One random request against a Master of `n` nodes whose ACG ids run
    /// below `next`: resolves with repeated ids and batches large enough
    /// to roll over, binds, heartbeats that adopt unknown groups, every
    /// migration phase and index-spec churn.
    fn random_request(rng: &mut rand::rngs::StdRng, m: &MasterNode, n: u32) -> Request {
        use rand::Rng;
        let acgs: Vec<AcgId> = m.hard.acg_replicas.keys().copied().collect();
        let some_acg = |rng: &mut rand::rngs::StdRng| {
            if acgs.is_empty() || rng.gen_range(0..4) == 0 {
                AcgId::new(rng.gen_range(1..m.hard.next_acg + 5))
            } else {
                acgs[rng.gen_range(0..acgs.len())]
            }
        };
        let ids = |rng: &mut rand::rngs::StdRng, len: u64| -> Vec<FileId> {
            (0..len).map(|_| FileId::new(rng.gen_range(0..300))).collect()
        };
        // Binds draw from ids no resolve places, so most of them bind.
        let unplaced = |rng: &mut rand::rngs::StdRng, len: u64| -> Vec<FileId> {
            (0..len).map(|_| FileId::new(rng.gen_range(1_000..1_300))).collect()
        };
        match rng.gen_range(0..20) {
            0..=9 => {
                let len = rng.gen_range(1..25);
                Request::ResolveFiles {
                    files: ids(rng, len),
                    hints_since: 0,
                    ctx: propeller_obs::TraceContext::NONE,
                }
            }
            10..=12 => Request::Heartbeat {
                node: NodeId::new(rng.gen_range(1..n + 2)),
                acgs: (0..rng.gen_range(0..4))
                    .map(|_| AcgSummary {
                        acg: some_acg(rng),
                        files: rng.gen_range(0..40),
                        pending_ops: 0,
                    })
                    .collect(),
            },
            13 | 14 => {
                let len = rng.gen_range(0..5);
                Request::BindFiles { files: unplaced(rng, len) }
            }
            15 => {
                // Mostly files the group homes, so migrations get under way.
                let acg = some_acg(rng);
                let mut homed: Vec<FileId> = m
                    .hard
                    .file_to_acg
                    .iter()
                    .filter(|(_, a)| **a == acg)
                    .map(|(f, _)| *f)
                    .collect();
                homed.sort_unstable();
                let len = rng.gen_range(1..5);
                let moved = if homed.is_empty() || rng.gen_range(0..4) == 0 {
                    ids(rng, len)
                } else {
                    (0..len).map(|_| homed[rng.gen_range(0..homed.len())]).collect()
                };
                Request::BeginMigration { acg, moved }
            }
            16 | 17 => {
                let mut pending: Vec<AcgId> = m.hard.migrations.keys().copied().collect();
                pending.sort();
                let new_acg = pending.first().copied().unwrap_or_else(|| some_acg(rng));
                if rng.gen_range(0..2) == 0 {
                    Request::InstallAcked { new_acg }
                } else {
                    Request::CommitMigration { new_acg }
                }
            }
            18 => {
                let name = format!("idx_{}", rng.gen_range(0..3));
                Request::CreateIndex {
                    spec: IndexSpec::btree(&name, propeller_types::AttrName::Uid),
                }
            }
            _ => Request::DropIndex { name: format!("idx_{}", rng.gen_range(0..3)) },
        }
    }

    #[test]
    fn a_recovered_master_equals_the_live_one() {
        use rand::SeedableRng;
        let mut bound = 0;
        for case in 0..24u64 {
            let (n, every) = ((case % 4) as u32, [1, 4, 64][(case % 3) as usize]);
            let dir = durable_dir(&format!("recovered-{case}"));
            let config = || MasterConfig {
                group_capacity: 1 + (case % 7) as usize,
                split_log_capacity: 3,
                replication: 1 + (case % 3) as usize,
                meta_snapshot_every: every,
                ..durable_config(&dir)
            };
            let mut live = MasterNode::open(nodes(n), config()).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(case);
            for _ in 0..80 {
                let request = random_request(&mut rng, &live, n);
                bound += usize::from(matches!(live.handle(request), Response::AcgAllocated(..)));
            }
            // Resolving placed files is a pure read of the hard state.
            let mut placed: Vec<u64> = live.hard.file_to_acg.keys().map(|f| f.raw()).collect();
            placed.sort_unstable();
            let answer = |m: &mut MasterNode| match m.handle(Request::ResolveFiles {
                files: placed.iter().copied().map(FileId::new).collect(),
                hints_since: 0,
                ctx: propeller_obs::TraceContext::NONE,
            }) {
                Response::Resolved { rows, hints, replicas } => (rows, hints, replicas),
                other => panic!("{other:?}"),
            };
            let (hard, located, resolved) =
                (live.hard.clone(), locate(&mut live), answer(&mut live));
            drop(live);
            let mut recovered = MasterNode::open(nodes(n), config()).unwrap();
            assert_eq!(recovered.hard, hard, "case {case}: n={n} every={every}");
            assert_eq!(locate(&mut recovered), located, "case {case}");
            assert_eq!(answer(&mut recovered), resolved, "case {case}");
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(bound >= 100, "only {bound} binds succeeded: recovery of a bind goes untested");
    }
}
