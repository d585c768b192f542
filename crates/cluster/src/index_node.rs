//! The Index Node (paper §IV).
//!
//! Hosts the partitioned file indices: one [`AcgIndexGroup`] plus one
//! [`AcgGraph`] per ACG assigned to it. Handles file-indexing batches
//! (WAL + lazy cache), search requests (commit-then-search), ACG delta
//! flushes from clients, split computation (balanced bisection of its own
//! ACG) and migration (extract/install of ACG parts).
//!
//! With a [`IndexNodeConfig::data_dir`] configured the node is **durable**:
//! every hosted group gets a file-backed WAL (`acg-<id>.wal`) and
//! LSN-anchored snapshots (`acg-<id>-<lsn>.snap`) in that directory,
//! batches are fsynced before they are acknowledged, snapshots fire once a
//! group's WAL holds `SNAPSHOT_WAL_BYTES` (4 MiB) of frames or
//! [`IndexNodeConfig::snapshot_wal_ops`] ops (and after migrations), and
//! [`IndexNode::open`] restores every group from the newest valid snapshot
//! plus its WAL suffix — so a crashed-and-revived node serves its
//! pre-crash hits.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use propeller_acg::{bisect, AcgGraph, PartitionConfig};
use propeller_index::durable::{self, Codec};
use propeller_index::{
    codec_struct, snapshot, AcgEpoch, AcgIndexGroup, EpochSnapshotJob, FileRecord, GroupConfig,
    IndexOp, IndexSpec, Wal,
};
use propeller_obs::{
    names, Counter, Histogram, Lane, NodeObs, OpenSpan, SlowQuery, SpanKind, TraceContext,
};
use propeller_query::{
    execute_classic, ClassicResults, ClassicTask, GlobalCutoff, Hit, NodeSearchSession,
    SearchRequest, SearchStats, SessionPage,
};
use propeller_sim::{Clock, WallClock};
use propeller_trace::EdgeUpdate;
use propeller_types::{AcgId, Duration, Error, FileId, NodeId, Timestamp};

use crate::messages::{AcgSummary, Request, Response};
use crate::pool::WorkerPool;

/// Snapshot a durable group once this many WAL frame bytes have been
/// logged since its last snapshot, so its log stays bounded whatever the
/// op size (the op-count threshold is [`IndexNodeConfig::snapshot_wal_ops`]).
const SNAPSHOT_WAL_BYTES: u64 = 4 << 20;

/// Envelope magic and version of the durable stale-route tombstone file.
const TOMBSTONE_MAGIC: [u8; 4] = *b"PTMB";
const TOMBSTONE_VERSION: u32 = 2;

/// File name of the node-wide tombstone image inside the data dir.
fn tombstone_file_name() -> &'static str {
    "tombstones.tomb"
}

/// The node's stale-route tombstones: files migrated *out* of each ACG
/// hosted here, mapped to the generation of their latest tombstone. A
/// later batch that still routes one of these files to the old ACG is a
/// stale client route and is rejected with [`Error::StaleRoute`] so the
/// client can re-resolve instead of silently resurrecting the file in the
/// wrong group. Bounded by `max_tombstones` via FIFO eviction of `order`;
/// generations keep superseded order entries (a file re-installed and
/// re-extracted) from evicting a live tombstone.
///
/// Its [`Codec`] bytes are the durable tombstone image. Both structures
/// are written because they diverge: [`Request::InstallAcg`] clears a
/// `moved_away` entry without touching `order`, and replaying the order
/// alone would resurrect it.
#[derive(Debug, Default, PartialEq)]
pub struct Tombstones {
    /// The generation of the newest tombstone.
    pub gen: u64,
    /// The live tombstones: per ACG, each moved file's generation.
    pub moved_away: HashMap<AcgId, HashMap<FileId, u64>>,
    /// Every tombstone added, oldest first, for FIFO eviction.
    pub order: VecDeque<(AcgId, FileId, u64)>,
}

codec_struct!(Tombstones { gen, moved_away, order });

/// One pooled per-ACG search execution and its result.
type SearchJob = Box<dyn FnOnce() -> (Vec<Hit>, SearchStats) + Send>;

/// Everything a pooled per-ACG scan needs to record its own `AcgExec`
/// span: the node's span buffer, the parent (node `Search`) span context
/// and the injected clock. `None` when the request is unsampled — the
/// scan closures then carry zero tracing overhead.
type AcgTrace = Option<(Arc<NodeObs>, TraceContext, Arc<dyn Clock>)>;

/// The classic-task executor a search open hands to the query layer: every
/// non-ordered per-ACG scan becomes a job on the node's persistent worker
/// pool, sharing the node-global cutoff.
fn run_classic_on_pool<'a>(
    pool: &'a WorkerPool,
    arcs: &'a [Arc<AcgEpoch>],
    request: &'a Arc<SearchRequest>,
    trace: AcgTrace,
) -> impl FnOnce(Vec<ClassicTask>, Option<&Arc<GlobalCutoff>>) -> ClassicResults + 'a {
    move |tasks, cutoff| {
        let jobs: Vec<SearchJob> = tasks
            .into_iter()
            .map(|task| {
                let group = Arc::clone(&arcs[task.group]);
                let request = Arc::clone(request);
                let cutoff = cutoff.cloned();
                let trace = trace.clone();
                Box::new(move || match trace {
                    Some((obs, parent, clock)) => {
                        let open = obs.spans.begin(parent, SpanKind::AcgExec, clock.now());
                        let out = execute_classic(&group, &request, task.plan, cutoff.as_deref());
                        obs.spans.finish_with(open, clock.now(), group.id().to_string());
                        out
                    }
                    None => execute_classic(&group, &request, task.plan, cutoff.as_deref()),
                }) as SearchJob
            })
            .collect();
        pool.run(jobs)
    }
}

/// Records the actor→pool hand-off of a sampled request as a `PoolJob`
/// child of its service `span`: from `submitted` (read on the actor right
/// before `pool.submit`, `None` when unsampled) to the job's first
/// instruction, which is where this is called.
fn record_pool_job(
    obs: &NodeObs,
    span: &OpenSpan,
    clock: &dyn Clock,
    submitted: Option<Timestamp>,
) {
    if let Some(submitted) = submitted {
        let job = obs.spans.begin(span.ctx(), SpanKind::PoolJob, submitted);
        obs.spans.finish(job, clock.now());
    }
}

/// Captures a finished search exchange into the node's slow-query ring
/// when its measured service time reaches the configured threshold: the
/// rendered request, the per-ACG plan (access paths), the full stats and
/// a copy of the spans this lane recorded for the trace (left in place
/// for later `DumpTrace` assembly).
fn note_if_slow(
    obs: &NodeObs,
    slow_after: Option<Duration>,
    ctx: TraceContext,
    finished: Timestamp,
    request: &SearchRequest,
    stats: &SearchStats,
) {
    let Some(threshold) = slow_after else { return };
    if stats.elapsed < threshold {
        return;
    }
    obs.metrics.counter(names::SLOW_QUERIES).inc();
    obs.slow.note(SlowQuery {
        trace: ctx.trace,
        lane: obs.spans.lane(),
        at: finished,
        elapsed: stats.elapsed,
        query: format!("{request:?}"),
        plan: stats
            .access_paths
            .iter()
            .map(|&(acg, kind)| (acg.raw(), format!("{kind:?}")))
            .collect(),
        stats: format!("{stats:?}"),
        spans: obs.spans.collect(ctx.trace),
    });
}

/// One suspended streamed search plus its eviction bookkeeping. The
/// session sits behind its own mutex so a pull job can page it off the
/// actor thread; the table lock is only held for lookups and evictions,
/// never across a pull.
struct SessionEntry {
    session: Arc<Mutex<NodeSearchSession>>,
    /// The opening client (per-client caps key off this).
    client: u64,
    /// Logical last-use stamp for LRU eviction.
    last_used: u64,
}

/// The node's suspended-session table, shared between the actor thread
/// (close, eviction) and the pool jobs that open and pull sessions.
struct SessionTable {
    entries: Mutex<HashMap<u64, SessionEntry>>,
    next_id: AtomicU64,
    seq: AtomicU64,
    max_sessions: usize,
    max_per_client: usize,
}

impl SessionTable {
    fn new(max_sessions: usize, max_per_client: usize) -> Self {
        SessionTable {
            entries: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            max_sessions,
            max_per_client,
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, SessionEntry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn len(&self) -> usize {
        self.lock().len()
    }

    /// Stores a suspended session under a fresh id, evicting the opening
    /// client's least-recently-pulled session past the per-client cap and
    /// the node-wide LRU session past the table cap. Evicted clients
    /// recover by reopening with a resume cursor, so eviction costs one
    /// extra round trip, never correctness.
    fn store(&self, client: u64, session: NodeSearchSession) -> u64 {
        let mut entries = self.lock();
        let per_client = self.max_per_client.max(1);
        while entries.values().filter(|e| e.client == client).count() >= per_client {
            let victim = entries
                .iter()
                .filter(|(_, e)| e.client == client)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&id, _)| id);
            let Some(id) = victim else { break };
            entries.remove(&id);
        }
        while entries.len() >= self.max_sessions.max(1) {
            let victim = entries.iter().min_by_key(|(_, e)| e.last_used).map(|(&id, _)| id);
            let Some(id) = victim else { break };
            entries.remove(&id);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let last_used = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        entries
            .insert(id, SessionEntry { session: Arc::new(Mutex::new(session)), client, last_used });
        id
    }

    /// Checks a session out for a pull: bumps its LRU stamp and returns a
    /// handle to its mutex. The table lock is released before the pull
    /// runs, so pulls on different sessions never serialize on the table.
    fn checkout(&self, id: u64) -> Option<Arc<Mutex<NodeSearchSession>>> {
        let stamp = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = self.lock();
        let entry = entries.get_mut(&id)?;
        entry.last_used = stamp;
        Some(Arc::clone(&entry.session))
    }

    fn remove(&self, id: u64) -> Option<Arc<Mutex<NodeSearchSession>>> {
        self.lock().remove(&id).map(|e| e.session)
    }
}

/// One unit of work for the background snapshot writer.
enum SnapshotTask {
    /// Serialize a pinned epoch to disk.
    Write { acg: AcgId, job: EpochSnapshotJob },
    /// Flush barrier: acknowledged once every earlier task finished.
    Barrier(std::sync::mpsc::Sender<()>),
}

/// The node's background snapshot writer: one thread serializing pinned
/// epochs to disk so snapshots stall neither the actor nor any search
/// (searches read other pins of the same immutable epochs). The actor
/// `begin`s a snapshot — pinning the epoch and marking the group
/// in-flight — enqueues the write here, and applies the completion
/// (`finish_snapshot`/`abort_snapshot`) when it next drains `done_rx`.
struct SnapshotWriter {
    tx: std::sync::mpsc::Sender<SnapshotTask>,
    /// Completions: `(acg, snapshot lsn, write succeeded)`.
    done_rx: std::sync::mpsc::Receiver<(AcgId, u64, bool)>,
}

impl SnapshotWriter {
    fn spawn(
        gate: Arc<(Mutex<bool>, Condvar)>,
        clock: Arc<dyn Clock>,
        durations: Arc<Histogram>,
    ) -> Self {
        let (tx, rx) = std::sync::mpsc::channel::<SnapshotTask>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::Builder::new()
            .name("propeller-snap-writer".into())
            .spawn(move || {
                while let Ok(task) = rx.recv() {
                    match task {
                        SnapshotTask::Write { acg, job } => {
                            // Test hook: a closed gate holds every write
                            // (not the actor, not searches) until reopened.
                            let (paused, cv) = &*gate;
                            let mut held = paused.lock().unwrap_or_else(PoisonError::into_inner);
                            while *held {
                                held = cv.wait(held).unwrap_or_else(PoisonError::into_inner);
                            }
                            drop(held);
                            let t0 = clock.now();
                            let ok = job.write().is_ok();
                            durations.record(clock.now().since(t0).as_micros());
                            if done_tx.send((acg, job.lsn, ok)).is_err() {
                                return;
                            }
                        }
                        SnapshotTask::Barrier(ack) => {
                            let _ = ack.send(());
                        }
                    }
                }
            })
            .expect("spawn snapshot writer");
        SnapshotWriter { tx, done_rx }
    }
}

/// Index Node configuration.
#[derive(Debug, Clone)]
pub struct IndexNodeConfig {
    /// Lazy-commit timeout for every hosted group (paper default 5 s).
    pub commit_timeout: Duration,
    /// Partitioner settings for splits.
    pub partition: PartitionConfig,
    /// Upper bound on retained stale-route tombstones (files migrated out
    /// of an ACG hosted here). Oldest entries are evicted first; an
    /// evicted entry only matters for a client whose cached route predates
    /// that many migrations, which then degrades to pre-tombstone
    /// behaviour (the batch lands in the old group, still searchable).
    pub max_tombstones: usize,
    /// Worker-pool width for multi-ACG searches: the non-ordered per-ACG
    /// scans of one `Search` execute across a **persistent pool** of this
    /// many execution streams, owned by the node and reused across
    /// searches (no per-search thread spawn). Groups are independent once
    /// committed, so a 64-ACG node no longer serializes 64 scans. `1`
    /// restores strictly sequential inline execution; the default matches
    /// the host's available parallelism.
    pub search_parallelism: usize,
    /// Upper bound on concurrently suspended streamed search sessions.
    /// Past it the least-recently-pulled session is evicted; its client
    /// transparently reopens, resuming after the last hit it received.
    pub max_search_sessions: usize,
    /// Per-client bound on suspended sessions (an abandoned or slow client
    /// cannot monopolize the table). Evicts that client's LRU session.
    pub max_search_sessions_per_client: usize,
    /// Durable storage for this node's groups: each hosted ACG gets a
    /// file-backed WAL and snapshot files here, and [`IndexNode::open`]
    /// recovers from them. `None` (the default) keeps everything in
    /// memory — the historical, simulation-friendly behaviour.
    pub data_dir: Option<PathBuf>,
    /// Snapshot a durable group once this many ops have been logged since
    /// its last snapshot (recovery replay stays O(delta)); it also
    /// snapshots past the fixed `SNAPSHOT_WAL_BYTES` (4 MiB) of frames.
    pub snapshot_wal_ops: u64,
    /// Capture any search whose node-side service time reaches this
    /// threshold into the slow-query ring (plan, stats, spans; see
    /// `Request::DumpSlowQueries`). `None` (the default) disables capture.
    pub slow_query_threshold: Option<Duration>,
}

impl Default for IndexNodeConfig {
    fn default() -> Self {
        IndexNodeConfig {
            commit_timeout: Duration::from_secs(5),
            partition: PartitionConfig::default(),
            max_tombstones: 1_000_000,
            search_parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            max_search_sessions: 1024,
            max_search_sessions_per_client: 8,
            data_dir: None,
            snapshot_wal_ops: 10_000,
            slow_query_threshold: None,
        }
    }
}

/// One Index Node's state machine. Driven as an actor by the cluster
/// runtime; unit tests can drive [`IndexNode::handle`] directly.
pub struct IndexNode {
    id: NodeId,
    config: IndexNodeConfig,
    /// Time source for measured search latency ([`SearchStats::elapsed`]);
    /// the cluster/service injects its own (wall or virtual) clock.
    clock: Arc<dyn Clock>,
    /// Hosted groups, owned by the actor thread. The mutable build side
    /// (WAL, pending cache) lives here; searches never touch it — they
    /// pin each group's published [`AcgEpoch`] and read that immutable
    /// snapshot on the worker pool while the actor keeps committing.
    groups: HashMap<AcgId, AcgIndexGroup>,
    /// The node's persistent search pool (see `search_parallelism`),
    /// created once and reused by every search; shared with the deferred
    /// search jobs, which own their replies.
    pool: Arc<WorkerPool>,
    graphs: HashMap<AcgId, AcgGraph>,
    /// Indices to create on every (current and future) group.
    extra_specs: Vec<IndexSpec>,
    /// Stale-route tombstones of files migrated out of hosted ACGs.
    tombstones: Tombstones,
    /// Suspended streamed searches, bounded by the session caps (see
    /// [`IndexNodeConfig::max_search_sessions`]); shared with the pool
    /// jobs that open and pull them.
    sessions: Arc<SessionTable>,
    /// This node's observability bundle (metrics registry, span buffer,
    /// slow-query ring), shared with pool jobs and the snapshot writer.
    obs: Arc<NodeObs>,
    /// Registry-backed counters, cached as handles so hot paths never
    /// take the registry's name-lookup lock. [`Request::NodeStats`] and
    /// [`Request::Metrics`] read the same cells.
    searches_served: Arc<Counter>,
    ops_received: Arc<Counter>,
    /// Epochs published by this node (non-empty commits). Shared with
    /// running search jobs so they can witness commits that overlapped
    /// their execution ([`SearchStats::commits_during_search`]).
    commits: Arc<Counter>,
    /// Snapshot jobs handed to the background writer so far.
    snapshots_offloaded: Arc<Counter>,
    /// Cached latency histograms (same no-lock rationale).
    h_search: Arc<Histogram>,
    h_pull: Arc<Histogram>,
    h_ingest: Arc<Histogram>,
    h_fsync: Arc<Histogram>,
    h_epoch_pin: Arc<Histogram>,
    /// Lazily-spawned background snapshot writer (durable nodes only).
    snapshot_writer: Option<SnapshotWriter>,
    /// Pause gate the writer checks before each write (test hook).
    snapshot_gate: Arc<(Mutex<bool>, Condvar)>,
}

impl std::fmt::Debug for IndexNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexNode")
            .field("id", &self.id)
            .field("acgs", &self.groups.len())
            .field("searches_served", &self.searches_served.get())
            .field("ops_received", &self.ops_received.get())
            .finish()
    }
}

impl IndexNode {
    /// Creates an empty Index Node (wall clock; see
    /// [`IndexNode::with_clock`] to inject a virtual one).
    pub fn new(id: NodeId, config: IndexNodeConfig) -> Self {
        let pool = Arc::new(WorkerPool::new(config.search_parallelism));
        let sessions = Arc::new(SessionTable::new(
            config.max_search_sessions,
            config.max_search_sessions_per_client,
        ));
        let obs = Arc::new(NodeObs::new(Lane::Node(id.raw() as u64)));
        IndexNode {
            id,
            config,
            clock: Arc::new(WallClock::new()),
            groups: HashMap::new(),
            pool,
            graphs: HashMap::new(),
            extra_specs: Vec::new(),
            tombstones: Tombstones::default(),
            sessions,
            searches_served: obs.metrics.counter(names::SEARCHES_SERVED),
            ops_received: obs.metrics.counter(names::OPS_RECEIVED),
            commits: obs.metrics.counter(names::COMMITS_PUBLISHED),
            snapshots_offloaded: obs.metrics.counter(names::SNAPSHOTS_OFFLOADED),
            h_search: obs.metrics.histogram(names::SEARCH_LATENCY),
            h_pull: obs.metrics.histogram(names::PULL_LATENCY),
            h_ingest: obs.metrics.histogram(names::INGEST_LATENCY),
            h_fsync: obs.metrics.histogram(names::WAL_FSYNC),
            h_epoch_pin: obs.metrics.histogram(names::EPOCH_PIN_WAIT),
            obs,
            snapshot_writer: None,
            snapshot_gate: Arc::new((Mutex::new(false), Condvar::new())),
        }
    }

    /// This node's observability bundle (tests and embeddings; the RPC
    /// surface is `DumpTrace` / `Metrics` / `DumpSlowQueries`).
    pub fn obs(&self) -> &Arc<NodeObs> {
        &self.obs
    }

    /// Opens a node, restoring every durable group from disk when a
    /// [`IndexNodeConfig::data_dir`] is configured: ACGs are discovered
    /// from their WAL and snapshot files, each is recovered from its
    /// newest valid snapshot plus the WAL suffix past the snapshot's LSN
    /// (falling back to older snapshots and ultimately a full replay on
    /// corruption), and the node serves its pre-crash committed state
    /// immediately. Without a data dir this is [`IndexNode::new`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the data directory cannot be created or
    /// scanned and any recovery error a group reports.
    pub fn open(id: NodeId, config: IndexNodeConfig) -> Result<Self, Error> {
        let mut node = Self::new(id, config);
        let Some(dir) = node.config.data_dir.clone() else { return Ok(node) };
        std::fs::create_dir_all(&dir)?;
        let mut acgs = snapshot::snapshot_acgs(&dir);
        for entry in std::fs::read_dir(&dir)?.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(acg) = snapshot::parse_wal_name(name) {
                acgs.push(acg);
            }
        }
        acgs.sort_unstable();
        acgs.dedup();
        for acg in acgs {
            let cfg = Self::group_config(&node.config, acg)?;
            let (group, _report) = AcgIndexGroup::recover_with_report(acg, cfg)?;
            node.groups.insert(acg, group);
        }
        // Stale-route tombstones are part of the node's durable identity:
        // a revived node must keep rejecting batches routed to files it
        // migrated away before the crash. A missing or corrupt image
        // degrades to pre-tombstone behaviour, never a failed open.
        if let Ok(bytes) = std::fs::read(dir.join(tombstone_file_name())) {
            let image = durable::unseal(TOMBSTONE_MAGIC, TOMBSTONE_VERSION, &bytes);
            node.tombstones = image.and_then(Tombstones::decode).unwrap_or_default();
        }
        Ok(node)
    }

    /// Writes the tombstone image under the data dir by atomic replace, so
    /// a crash mid-write leaves the previous image intact. Best-effort
    /// like snapshots: the extraction that grew the tombstones is already
    /// acknowledged, so a failing write must not fail it — the next
    /// mutation retries.
    fn persist_tombstones(&self) {
        let Some(dir) = &self.config.data_dir else { return };
        let bytes = durable::seal(TOMBSTONE_MAGIC, TOMBSTONE_VERSION, &self.tombstones.encode());
        let _ = durable::replace(&dir.join(tombstone_file_name()), &bytes);
    }

    /// The [`GroupConfig`] a group of this node gets: a file-backed WAL
    /// and snapshots under the data dir when one is configured, in-memory
    /// otherwise.
    fn group_config(config: &IndexNodeConfig, acg: AcgId) -> Result<GroupConfig, Error> {
        match &config.data_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                Ok(GroupConfig {
                    commit_timeout: config.commit_timeout,
                    wal: Wal::open(dir.join(snapshot::wal_file_name(acg)))?,
                    snapshot_dir: Some(dir.clone()),
                    ..GroupConfig::default()
                })
            }
            None => {
                Ok(GroupConfig { commit_timeout: config.commit_timeout, ..GroupConfig::default() })
            }
        }
    }

    /// Replaces the node's time source (builder style). Searches measure
    /// their service time against this clock.
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of hosted ACGs.
    pub fn acg_count(&self) -> usize {
        self.groups.len()
    }

    /// `(searches served, ops received)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.searches_served.get(), self.ops_received.get())
    }

    fn group_mut(&mut self, acg: AcgId) -> Result<&mut AcgIndexGroup, Error> {
        if !self.groups.contains_key(&acg) {
            let mut group = AcgIndexGroup::new(acg, Self::group_config(&self.config, acg)?);
            for spec in &self.extra_specs {
                // Name collisions with defaults are rejected upstream.
                let _ = group.create_index(spec.clone());
            }
            self.groups.insert(acg, group);
        }
        Ok(self.groups.get_mut(&acg).expect("just inserted"))
    }

    /// Commits the group, counting a published epoch when ops applied.
    fn commit_group(
        commits: &Counter,
        group: &mut AcgIndexGroup,
        now: Timestamp,
    ) -> Result<usize, Error> {
        let n = group.commit(now)?;
        if n > 0 {
            commits.inc();
        }
        Ok(n)
    }

    /// The background snapshot writer, spawned on first use (memory-only
    /// nodes never pay for the thread).
    fn writer(&mut self) -> &SnapshotWriter {
        if self.snapshot_writer.is_none() {
            self.snapshot_writer = Some(SnapshotWriter::spawn(
                Arc::clone(&self.snapshot_gate),
                Arc::clone(&self.clock),
                self.obs.metrics.histogram(names::SNAPSHOT_DURATION),
            ));
        }
        self.snapshot_writer.as_ref().expect("just spawned")
    }

    /// Applies finished background snapshots: a successful write truncates
    /// the WAL and prunes old checkpoints (`finish_snapshot`); a failure
    /// just clears the in-flight flag so the next trigger retries.
    fn drain_snapshot_completions(&mut self) {
        let Some(writer) = &self.snapshot_writer else { return };
        let mut done = Vec::new();
        while let Ok(completion) = writer.done_rx.try_recv() {
            done.push(completion);
        }
        for (acg, lsn, ok) in done {
            let Some(group) = self.groups.get_mut(&acg) else { continue };
            if ok {
                let _ = group.finish_snapshot(lsn);
            } else {
                group.abort_snapshot();
            }
        }
    }

    /// Blocks until every enqueued background snapshot has been written
    /// *and applied*. Tests and benches use this to assert on durable
    /// state; migrations use it to quiesce the writer before rewriting a
    /// group's on-disk identity; the serving path never calls it.
    pub fn flush_snapshots(&mut self) {
        let Some(writer) = &self.snapshot_writer else { return };
        let (ack_tx, ack_rx) = std::sync::mpsc::channel();
        if writer.tx.send(SnapshotTask::Barrier(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
        self.drain_snapshot_completions();
    }

    /// Test hook: holds the background snapshot writer before its next
    /// write until [`IndexNode::resume_snapshot_writer`]. The actor and
    /// every search keep running — that is the property under test.
    #[doc(hidden)]
    pub fn pause_snapshot_writer(&mut self) {
        let (paused, _) = &*self.snapshot_gate;
        *paused.lock().unwrap_or_else(PoisonError::into_inner) = true;
    }

    /// Reopens the gate closed by [`IndexNode::pause_snapshot_writer`].
    #[doc(hidden)]
    pub fn resume_snapshot_writer(&mut self) {
        let (paused, cv) = &*self.snapshot_gate;
        *paused.lock().unwrap_or_else(PoisonError::into_inner) = false;
        cv.notify_all();
    }

    /// Background snapshot jobs handed to the writer thread so far.
    pub fn snapshots_offloaded(&self) -> u64 {
        self.snapshots_offloaded.get()
    }

    /// Epochs published (non-empty commits) by this node so far.
    pub fn commits_published(&self) -> u64 {
        self.commits.get()
    }

    /// Commits a durable group and offloads a snapshot to the background
    /// writer once its WAL outgrows the thresholds. Best-effort by
    /// design: the batch that tripped the threshold is already durable in
    /// the WAL, so a failing snapshot must not fail it — the next trigger
    /// simply retries. The actor only pins the epoch and marks the group
    /// in-flight here; serialization happens off-thread, blocking neither
    /// ingest nor searches.
    fn maybe_snapshot(&mut self, acg: AcgId, now: Timestamp) {
        self.drain_snapshot_completions();
        let Some(group) = self.groups.get_mut(&acg) else { return };
        if !group.is_durable() {
            return;
        }
        if (group.wal_ops() >= self.config.snapshot_wal_ops
            || group.wal_bytes_since_snapshot() >= SNAPSHOT_WAL_BYTES)
            && Self::commit_group(&self.commits, group, now).is_ok()
        {
            if let Some(job) = group.begin_snapshot() {
                self.snapshots_offloaded.inc();
                let _ = self.writer().tx.send(SnapshotTask::Write { acg, job });
            }
        }
    }

    /// Number of suspended streamed search sessions.
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// The commit phase of a search open (`Search`, `OpenSearch`) — the
    /// paper's consistency rule (commit before search) mutates each
    /// group and stays on the actor thread. The returned pinned epochs
    /// are immutable forever, which is what lets execution leave the
    /// actor entirely: the next `IndexBatch` commits into *new* epochs
    /// while the search still reads its pins.
    fn commit_for_search(
        &mut self,
        acgs: &[AcgId],
        now: Timestamp,
    ) -> Result<Vec<Arc<AcgEpoch>>, Error> {
        for acg in acgs {
            if let Some(group) = self.groups.get_mut(acg) {
                Self::commit_group(&self.commits, group, now)?;
            }
        }
        Ok(acgs.iter().filter_map(|acg| self.groups.get(acg)).map(AcgIndexGroup::pin).collect())
    }

    /// Records stale-route tombstones for files migrated out of `acg`,
    /// evicting the oldest entries past the configured cap. An eviction
    /// only removes a tombstone whose generation matches the popped order
    /// entry — superseded entries (the file was re-installed and
    /// re-extracted since) pop as no-ops.
    fn add_tombstones(&mut self, acg: AcgId, files: &[FileId]) {
        let t = &mut self.tombstones;
        let map = t.moved_away.entry(acg).or_default();
        for &file in files {
            t.gen += 1;
            map.insert(file, t.gen);
            t.order.push_back((acg, file, t.gen));
        }
        while t.order.len() > self.config.max_tombstones {
            let Some((acg, file, gen)) = t.order.pop_front() else { break };
            if let Some(map) = t.moved_away.get_mut(&acg) {
                if map.get(&file) == Some(&gen) {
                    map.remove(&file);
                }
                if map.is_empty() {
                    t.moved_away.remove(&acg);
                }
            }
        }
        self.persist_tombstones();
    }

    /// Lifts the stale-route tombstones of `records`' files in `acg`: they
    /// live here again (installed or seeded), so batches routing them here
    /// are valid. Persisted on change, or a revival would resurrect the
    /// tombstones and reject valid batches forever.
    fn lift_tombstones(&mut self, acg: AcgId, records: &[FileRecord]) {
        let Some(moved) = self.tombstones.moved_away.get_mut(&acg) else { return };
        let before = moved.len();
        for record in records {
            moved.remove(&record.file);
        }
        let changed = moved.len() != before;
        if moved.is_empty() {
            self.tombstones.moved_away.remove(&acg);
        }
        if changed {
            self.persist_tombstones();
        }
    }

    /// The node's one write path (paper §IV): appends `ops` to `acg`'s
    /// group, created on first use, as ONE group-committed WAL frame
    /// buffered all-or-nothing. On a durable group the frame is fsynced
    /// before this returns, so no caller acknowledges a batch a crash
    /// could lose; the fsync is timed into `wal_fsync_us` and recorded as
    /// a `WalFsync` child of `parent`. Returns the frame's LSN.
    fn log_batch(
        &mut self,
        acg: AcgId,
        ops: Vec<IndexOp>,
        now: Timestamp,
        parent: TraceContext,
    ) -> Result<u64, Error> {
        let clock = Arc::clone(&self.clock);
        let group = self.group_mut(acg)?;
        group.enqueue_batch(ops, now)?;
        let lsn = group.last_lsn();
        if group.is_durable() {
            let f0 = clock.now();
            group.sync_wal()?;
            let f1 = clock.now();
            self.h_fsync.record(f1.since(f0).as_micros());
            let fsync = self.obs.spans.begin(parent, SpanKind::WalFsync, f0);
            self.obs.spans.finish(fsync, f1);
        }
        Ok(lsn)
    }

    fn summaries(&self) -> Vec<AcgSummary> {
        let mut v: Vec<AcgSummary> = self
            .groups
            .iter()
            .map(|(&acg, g)| AcgSummary {
                // Scale includes buffered updates — the Master must see an
                // ACG outgrowing its threshold even between commits — but
                // only their *net* file-count effect: a pending re-upsert
                // of an already-indexed file adds nothing, a pending
                // remove subtracts. Counting raw pending ops inflated
                // re-upsert-heavy ACGs and triggered spurious splits.
                acg,
                files: g.projected_len(),
                pending_ops: g.pending_ops(),
            })
            .collect();
        v.sort_by_key(|s| s.acg);
        v
    }

    /// Handles one request synchronously. Unit tests and benches drive
    /// this; it routes through
    /// [`IndexNode::handle_deferred`] and waits for the reply, so sync
    /// callers observe exactly the deferred semantics.
    pub fn handle(&mut self, req: Request) -> Response {
        let (tx, rx) = std::sync::mpsc::channel();
        self.handle_deferred(req, move |resp| {
            let _ = tx.send(resp);
        });
        match rx.recv() {
            Ok(resp) => resp,
            // The deferred job died (panicked) before replying.
            Err(_) => Response::Err(Error::Rpc("search job aborted".into())),
        }
    }

    /// Handles one request, delivering the response through `reply` (the
    /// actor body). Ingest, replication and maintenance requests mutate
    /// node state and reply inline from the actor thread. The search
    /// family — `Search`, `OpenSearch`, `PullHits` — does its mutating
    /// prefix here (the paper's commit-before-search, session checkout)
    /// and then executes on the worker pool against **pinned epochs**,
    /// replying from the pool job: the actor returns immediately and
    /// commits the next `IndexBatch` while the search still runs. A
    /// commit publishes a *new* epoch; running searches keep their pins,
    /// so ingest never blocks reads and reads never block ingest.
    pub fn handle_deferred(&mut self, req: Request, reply: impl FnOnce(Response) + Send + 'static) {
        match req {
            // The whole answer in one exchange: a session opened with an
            // unbounded first page, which always exhausts it.
            Request::Search { acgs, request, now, ctx } => {
                let whole =
                    |_, SessionPage { hits, stats, .. }| Response::SearchHits { hits, stats };
                self.open_search(acgs, request, 0, usize::MAX, now, ctx, whole, reply);
            }
            Request::OpenSearch { acgs, expect, request, client, page, now, ctx } => {
                if let Some(acg) = expect.and_then(|expect| self.unplanned(&expect)) {
                    return reply(Response::Err(Error::StalePlacement { node: self.id, acg }));
                }
                if acgs.is_empty() {
                    // A bare plan check: there is nothing to search.
                    let (session, hits, stats) = (0, Vec::new(), SearchStats::default());
                    return reply(Response::SearchPage { session, hits, stats, exhausted: true });
                }
                let first = |session, SessionPage { hits, stats, exhausted }| {
                    Response::SearchPage { session, hits, stats, exhausted }
                };
                self.open_search(acgs, request, client, page, now, ctx, first, reply);
            }
            Request::PullHits { session, page, ctx } => {
                let started = self.clock.now();
                let span = self.obs.spans.begin(ctx, SpanKind::Pull, started);
                let clock = Arc::clone(&self.clock);
                let sessions = Arc::clone(&self.sessions);
                let obs = Arc::clone(&self.obs);
                let h_pull = Arc::clone(&self.h_pull);
                let node_id = self.id;
                let submitted = span.enabled().then(|| clock.now());
                self.pool.submit(move || {
                    record_pool_job(&obs, &span, &*clock, submitted);
                    let Some(slot) = sessions.checkout(session) else {
                        return reply(Response::Err(Error::SearchSessionExpired { session }));
                    };
                    // Concurrent pulls on one session serialize on its own
                    // mutex, never on the table or the actor.
                    let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
                    let SessionPage { hits, mut stats, exhausted } = guard.pull_pinned(page);
                    drop(guard);
                    if exhausted {
                        sessions.remove(session);
                    }
                    let finished = clock.now();
                    stats.elapsed = finished.since(started);
                    stats.node_elapsed = vec![(node_id, stats.elapsed)];
                    h_pull.record(stats.elapsed.as_micros());
                    if span.enabled() {
                        obs.spans.finish_with(
                            span,
                            finished,
                            format!("session={session} hits={}", hits.len()),
                        );
                    }
                    reply(Response::SearchPage { session, hits, stats, exhausted });
                });
            }
            other => reply(self.handle_sync(other)),
        }
    }

    /// A hosted ACG with files that `expect`, a client's sorted plan for
    /// this node, does not list. A group with files appears here only
    /// after the Master placed it, so a plan that misses one is stale.
    fn unplanned(&self, expect: &[AcgId]) -> Option<AcgId> {
        let mut hosted = self.groups.iter();
        hosted
            .find(|(acg, g)| expect.binary_search(acg).is_err() && g.projected_len() > 0)
            .map(|(&acg, _)| acg)
    }

    /// Serves `Search` and `OpenSearch`: the commit-before-search prefix
    /// runs here on the actor, everything after it on the worker pool
    /// against the pinned epochs. `respond` renders the first `page` hits
    /// and the id of the session suspended behind them — `0` when the page
    /// exhausted the search: nothing is stored, and the client must
    /// neither pull nor close. Later pulls do NOT re-commit: a session
    /// pages the epochs pinned here for its whole lifetime, so every page
    /// reflects one consistent committed view.
    #[allow(clippy::too_many_arguments)]
    fn open_search(
        &mut self,
        acgs: Vec<AcgId>,
        request: SearchRequest,
        client: u64,
        page: usize,
        now: Timestamp,
        ctx: TraceContext,
        respond: fn(u64, SessionPage) -> Response,
        reply: impl FnOnce(Response) + Send + 'static,
    ) {
        self.searches_served.inc();
        let started = self.clock.now();
        let span = self.obs.spans.begin(ctx, SpanKind::Search, started);
        let epochs = match self.commit_for_search(&acgs, now) {
            Ok(epochs) => epochs,
            Err(e) => return reply(Response::Err(e)),
        };
        // The commit-before-search prefix is the epoch-pin wait:
        // everything after it reads immutable pins.
        let pinned = self.clock.now();
        self.h_epoch_pin.record(pinned.since(started).as_micros());
        if span.enabled() {
            let pin = self.obs.spans.begin(span.ctx(), SpanKind::EpochPin, started);
            self.obs.spans.finish(pin, pinned);
        }
        let pool = Arc::clone(&self.pool);
        let clock = Arc::clone(&self.clock);
        let commits = Arc::clone(&self.commits);
        let commits_before = commits.get();
        let sessions = Arc::clone(&self.sessions);
        let obs = Arc::clone(&self.obs);
        let slow_after = self.config.slow_query_threshold;
        let h_search = Arc::clone(&self.h_search);
        let node_id = self.id;
        let submitted = span.enabled().then(|| clock.now());
        self.pool.submit(move || {
            record_pool_job(&obs, &span, &*clock, submitted);
            // Execution phase, under the node-global k cutoff:
            // ordered-planned groups become lazy candidate streams pulled
            // through one k-way merge (stop at `page` total admitted hits
            // across all ACGs); the remaining groups run their bounded
            // scans as pool subjobs, pruning against the shared merged
            // bound. Everything reads the pinned epochs.
            let request = Arc::new(request);
            let acg_trace: AcgTrace =
                span.enabled().then(|| (Arc::clone(&obs), span.ctx(), Arc::clone(&clock)));
            let (mut first, session) = NodeSearchSession::open(
                &epochs,
                request.as_ref(),
                page,
                run_classic_on_pool(&pool, &epochs, &request, acg_trace),
            );
            let session_id = session.map_or(0, |session| sessions.store(client, session));
            let stats = &mut first.stats;
            stats.epoch_pins = epochs.len();
            stats.commits_during_search = (commits.get() - commits_before) as usize;
            let finished = clock.now();
            stats.elapsed = finished.since(started);
            stats.node_elapsed = vec![(node_id, stats.elapsed)];
            h_search.record(stats.elapsed.as_micros());
            if span.enabled() {
                let detail = format!(
                    "acgs={} session={session_id} hits={}",
                    stats.epoch_pins,
                    first.hits.len()
                );
                obs.spans.finish_with(span, finished, detail);
            }
            note_if_slow(&obs, slow_after, ctx, finished, &request, stats);
            reply(respond(session_id, first));
        });
    }

    /// The inline (actor-thread) arms of the request match.
    fn handle_sync(&mut self, req: Request) -> Response {
        match req {
            Request::IndexBatch { acg, ops, now, ctx } => {
                // Reject ops for files migrated out of this ACG: the client
                // is using a route that moved. It drops its cache entry,
                // re-resolves through the Master and retries.
                if let Some(moved) = self.tombstones.moved_away.get(&acg) {
                    if let Some(op) = ops.iter().find(|op| moved.contains_key(&op.file())) {
                        return Response::Err(Error::StaleRoute { acg, file: op.file() });
                    }
                }
                let started = self.clock.now();
                let span = self.obs.spans.begin(ctx, SpanKind::Ingest, started);
                let n_ops = ops.len();
                self.ops_received.add(n_ops as u64);
                let lsn = match self.log_batch(acg, ops, now, span.ctx()) {
                    Ok(lsn) => lsn,
                    Err(e) => return Response::Err(e),
                };
                self.maybe_snapshot(acg, now);
                let finished = self.clock.now();
                self.h_ingest.record(finished.since(started).as_micros());
                if span.enabled() {
                    let detail = format!("{acg} ops={n_ops} lsn={lsn}");
                    self.obs.spans.finish_with(span, finished, detail);
                }
                Response::BatchLogged { lsn }
            }
            Request::ReplicateBatch { acg, lsn, ops, now, ctx } => {
                // No stale-route check here: the primary already validated
                // the batch's routes when it logged the frame; a replicated
                // frame must apply verbatim or replicas diverge.
                let span = self.obs.spans.begin(ctx, SpanKind::Replicate, self.clock.now());
                let n_ops = ops.len();
                self.ops_received.add(n_ops as u64);
                let have = match self.group_mut(acg) {
                    Ok(group) => group.last_lsn(),
                    Err(e) => return Response::Err(e),
                };
                if lsn <= have {
                    // Duplicate delivery (sender retry): already applied.
                    return Response::ReplicaApplied { lsn: have };
                }
                if lsn > have + 1 {
                    // Applying out of order would silently skip frames;
                    // make the sender run catch-up first.
                    return Response::ReplicaLagging { lsn: have };
                }
                if let Err(e) = self.log_batch(acg, ops, now, span.ctx()) {
                    return Response::Err(e);
                }
                // Followers commit eagerly: a replica is only useful if a
                // failover search finds the acknowledged frames in it, and
                // the commit also keeps `applied == logged` so the ack LSN
                // reflects searchable state.
                let group = self.groups.get_mut(&acg).expect("logged above");
                if let Err(e) = Self::commit_group(&self.commits, group, now) {
                    return Response::Err(e);
                }
                let lsn = group.last_lsn();
                self.maybe_snapshot(acg, now);
                if span.enabled() {
                    let detail = format!("{acg} ops={n_ops} lsn={lsn}");
                    self.obs.spans.finish_with(span, self.clock.now(), detail);
                }
                Response::ReplicaApplied { lsn }
            }
            Request::FetchAcgFrames { acg, after_lsn, now } => {
                let Some(group) = self.groups.get_mut(&acg) else {
                    return Response::Err(Error::AcgNotFound(acg));
                };
                if group.can_ship_frames_after(after_lsn) {
                    match group.wal_frames_after(after_lsn) {
                        Ok(frames) => Response::AcgFrames(frames),
                        Err(e) => Response::Err(e),
                    }
                } else {
                    // The WAL no longer reaches back to `after_lsn`
                    // (truncated by commit or snapshot): fall back to a
                    // full seed. Commit first so the record set reflects
                    // every logged frame and the seed LSN is exact.
                    if let Err(e) = Self::commit_group(&self.commits, group, now) {
                        return Response::Err(e);
                    }
                    Response::AcgSeed {
                        lsn: group.last_lsn(),
                        records: group.records().cloned().collect(),
                    }
                }
            }
            Request::SeedAcg { acg, lsn, records, now } => {
                // A seed no LSN can follow is refused before anything moves.
                if let Err(e) = Wal::lsn_after(lsn) {
                    return Response::Err(e);
                }
                // Quiesce the background snapshot writer first: a seed
                // resets the WAL and rewrites the durable checkpoint, and
                // an in-flight write of the pre-seed epoch must not land
                // after (and contradict) the seed's on-disk image.
                self.flush_snapshots();
                self.lift_tombstones(acg, &records);
                let group = match self.group_mut(acg) {
                    Ok(group) => group,
                    Err(e) => return Response::Err(e),
                };
                match group.install_seed(records, lsn, now) {
                    Ok(()) => Response::ReplicaApplied { lsn },
                    Err(e) => Response::Err(e),
                }
            }
            Request::AcgLsns => {
                let mut rows: Vec<(AcgId, u64)> =
                    self.groups.iter().map(|(&acg, g)| (acg, g.last_lsn())).collect();
                rows.sort();
                Response::AcgLsnReport(rows)
            }
            Request::CloseSearch { session } => match self.sessions.remove(session) {
                Some(slot) => {
                    let guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
                    Response::SearchClosed { stats: guard.close() }
                }
                // Idempotent: the session was evicted or already closed.
                None => Response::SearchClosed { stats: SearchStats::default() },
            },
            Request::FlushAcgDelta { acg, edges } => {
                let graph = self.graphs.entry(acg).or_default();
                graph.apply_updates(edges);
                Response::Ok
            }
            Request::CreateIndex { spec } => {
                // Idempotent re-broadcast: a revived node may be handed a
                // spec it already carries (registered pre-crash, or
                // recovered from group snapshots). An identical spec acks
                // without touching the groups; only a *conflicting* spec
                // under the same name is an error.
                if self.extra_specs.contains(&spec) {
                    return Response::Ok;
                }
                if self.extra_specs.iter().any(|s| s.name == spec.name) {
                    return Response::Err(Error::IndexExists(spec.name));
                }
                // Apply to every group, rolling the spec back out of the
                // groups that already accepted it if one fails — a node
                // never ends up with the index on only some of its groups.
                let acgs: Vec<AcgId> = self.groups.keys().copied().collect();
                let mut applied: Vec<AcgId> = Vec::new();
                for acg in acgs {
                    let group = self.groups.get_mut(&acg).expect("key just listed");
                    // A group whose recovered snapshot already holds the
                    // identical spec is already done.
                    if group.index_specs().contains(&spec) {
                        continue;
                    }
                    match group.create_index(spec.clone()) {
                        Ok(()) => applied.push(acg),
                        Err(e) => {
                            for acg in applied {
                                if let Some(group) = self.groups.get_mut(&acg) {
                                    let _ = group.drop_index(&spec.name);
                                }
                            }
                            return Response::Err(e);
                        }
                    }
                }
                self.extra_specs.push(spec);
                Response::Ok
            }
            Request::DropIndex { name } => {
                self.extra_specs.retain(|s| s.name != name);
                for group in self.groups.values_mut() {
                    // Idempotent rollback: groups that never got the spec
                    // are fine.
                    let _ = group.drop_index(&name);
                }
                Response::Ok
            }
            Request::SplitAcg { acg } => {
                let Some(group) = self.groups.get_mut(&acg) else {
                    return Response::Err(Error::AcgNotFound(acg));
                };
                // Commit so the split sees every acknowledged file.
                if let Err(e) = Self::commit_group(&self.commits, group, Timestamp::EPOCH) {
                    return Response::Err(e);
                }
                let files = group.files();
                // Bisect the causality subgraph over the group's files;
                // files without causality data become isolated vertices and
                // get balanced across halves by the partitioner.
                let mut graph =
                    self.graphs.get(&acg).map(|g| g.subgraph(&files)).unwrap_or_default();
                for &f in &files {
                    graph.add_vertex(f);
                }
                let bisection = bisect(&graph, &self.config.partition);
                Response::SplitHalves { left: bisection.left, right: bisection.right }
            }
            Request::ExtractAcgPart { acg, files } => {
                // Phase one of the two-phase migration: hand the part to
                // the coordinator but **tombstone and retain** it. The
                // retained records keep this node the part's one durable
                // home until the Master logs the targets' install ack and
                // the coordinator issues the explicit RemoveAcgPart — a
                // crash anywhere in between loses nothing, and re-running
                // the extraction returns the identical payload.
                let Some(group) = self.groups.get_mut(&acg) else {
                    return Response::Err(Error::AcgNotFound(acg));
                };
                // Commit so extracted records reflect every acknowledged op.
                if let Err(e) = Self::commit_group(&self.commits, group, Timestamp::EPOCH) {
                    return Response::Err(e);
                }
                let wanted: std::collections::HashSet<FileId> = files.iter().copied().collect();
                let records: Vec<FileRecord> =
                    group.records().filter(|r| wanted.contains(&r.file)).cloned().collect();
                // Tombstone the moved files (durably): batches still
                // routing them here are stale and must re-resolve (see
                // IndexBatch) — the fence goes up before the part ever
                // leaves this node, so the extracted payload cannot be
                // diluted by late writes.
                self.add_tombstones(acg, &files);
                // Carve the matching subgraph out of the ACG graph.
                let edges: Vec<EdgeUpdate> = match self.graphs.get_mut(&acg) {
                    Some(graph) => {
                        let sub = graph.subgraph(&files);
                        for &f in &files {
                            graph.remove_vertex(f);
                        }
                        sub.edges()
                            .map(|(src, dst, weight)| EdgeUpdate { src, dst, weight })
                            .collect()
                    }
                    None => Vec::new(),
                };
                Response::AcgPart { records, edges }
            }
            Request::RemoveAcgPart { acg, files } => {
                // Phase two of the two-phase migration, issued only after
                // the Master durably logged the install ack: drop the
                // retained copies. Idempotent — files already removed (a
                // re-run after a coordinator crash) are skipped, and the
                // batch is all-or-nothing, so this node either still owns
                // the whole part durably or none of it.
                //
                // Quiesce the background writer first: the sync
                // post-removal snapshot below must not race an in-flight
                // write of the pre-removal epoch.
                self.flush_snapshots();
                let Some(group) = self.groups.get_mut(&acg) else {
                    // The group itself is gone (already migrated away
                    // wholesale); nothing retained, nothing to remove.
                    return Response::Ok;
                };
                if let Err(e) = Self::commit_group(&self.commits, group, Timestamp::EPOCH) {
                    return Response::Err(e);
                }
                let present: std::collections::HashSet<FileId> =
                    group.files().into_iter().collect();
                let removes: Vec<IndexOp> = files
                    .iter()
                    .filter(|f| present.contains(f))
                    .map(|&f| IndexOp::Remove(f))
                    .collect();
                if !removes.is_empty() {
                    // Unlike the extract, the remove is fsynced and
                    // snapshot-covered *strictly* — an un-durable remove
                    // acked to the coordinator would let a later revival
                    // resurrect files the cluster has already rerouted.
                    if let Err(e) =
                        self.log_batch(acg, removes, Timestamp::EPOCH, TraceContext::NONE)
                    {
                        return Response::Err(e);
                    }
                    let group = self.groups.get_mut(&acg).expect("logged above");
                    if let Err(e) = Self::commit_group(&self.commits, group, Timestamp::EPOCH) {
                        return Response::Err(e);
                    }
                    let _ = group.snapshot();
                }
                // Re-assert the fence: a re-run after a crash must leave
                // the tombstones in place either way.
                self.add_tombstones(acg, &files);
                Response::Ok
            }
            Request::InstallAcg { acg, records, edges } => {
                // Quiesce the background writer (same reasoning as
                // RemoveAcgPart: the sync snapshot below must win).
                self.flush_snapshots();
                self.lift_tombstones(acg, &records);
                // One group-committed frame (and one fsync on a durable
                // node) covers the whole installed part.
                let ops = records.into_iter().map(IndexOp::Upsert).collect();
                if let Err(e) = self.log_batch(acg, ops, Timestamp::EPOCH, TraceContext::NONE) {
                    return Response::Err(e);
                }
                let group = self.groups.get_mut(&acg).expect("logged above");
                if let Err(e) = Self::commit_group(&self.commits, group, Timestamp::EPOCH) {
                    return Response::Err(e);
                }
                // Migrated-in state is snapshot-covered right away
                // (best-effort): the moved half's durable home is now this
                // node.
                let _ = group.snapshot();
                self.graphs.entry(acg).or_default().apply_updates(edges);
                Response::Ok
            }
            Request::Tick { now } => {
                let acgs: Vec<AcgId> = self.groups.keys().copied().collect();
                for acg in acgs {
                    let group = self.groups.get_mut(&acg).expect("key just listed");
                    if group.commit_due(now) {
                        if let Err(e) = Self::commit_group(&self.commits, group, now) {
                            return Response::Err(e);
                        }
                    }
                    // Background snapshotting rides the maintenance tick,
                    // so update-quiet groups still bound their logs.
                    self.maybe_snapshot(acg, now);
                }
                Response::Status { acgs: self.summaries() }
            }
            Request::NodeStats => {
                self.drain_snapshot_completions();
                Response::NodeStatsReport {
                    node: self.id,
                    acgs: self.groups.len(),
                    open_sessions: self.sessions.len(),
                    pending_ops: self.groups.values().map(AcgIndexGroup::pending_ops).sum(),
                    searches_served: self.searches_served.get(),
                    ops_received: self.ops_received.get(),
                    commits_published: self.commits.get(),
                    snapshots_offloaded: self.snapshots_offloaded.get(),
                }
            }
            Request::DumpTrace { trace } => Response::TraceSpans(self.obs.spans.harvest(trace)),
            Request::Metrics => {
                self.drain_snapshot_completions();
                // Occupancy gauges are sampled at snapshot time — they are
                // instantaneous facts, not monotone counts.
                self.obs.metrics.gauge(names::OPEN_SESSIONS).set(self.sessions.len() as u64);
                self.obs.metrics.gauge(names::ACGS_HOSTED).set(self.groups.len() as u64);
                Response::Metrics(Box::new(self.obs.metrics.snapshot()))
            }
            Request::DumpSlowQueries => Response::SlowQueries(self.obs.slow.dump()),
            other => Response::Err(Error::Rpc(format!("index node cannot handle {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_query::Query;
    use propeller_types::InodeAttrs;

    fn node() -> IndexNode {
        IndexNode::new(NodeId::new(1), IndexNodeConfig::default())
    }

    fn rec(file: u64, size: u64) -> FileRecord {
        FileRecord::new(FileId::new(file), InodeAttrs::builder().size(size).build())
    }

    fn t(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn search(n: &mut IndexNode, acgs: Vec<AcgId>, text: &str) -> Vec<FileId> {
        let q = Query::parse(text, t(0)).unwrap();
        let request = propeller_query::SearchRequest::new(q.predicate);
        match n.handle(Request::Search {
            acgs,
            request,
            now: t(100),
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::SearchHits { hits, .. } => hits.into_iter().map(|h| h.file).collect(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn index_then_search_one_acg() {
        let mut n = node();
        let acg = AcgId::new(1);
        n.handle(Request::IndexBatch {
            acg,
            ops: (0..50).map(|i| IndexOp::Upsert(rec(i, i << 20))).collect(),
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        let hits = search(&mut n, vec![acg], "size>16m");
        assert_eq!(hits.len(), 33, "sizes 17..49 MiB");
    }

    #[test]
    fn a_seed_no_lsn_can_follow_is_refused_and_changes_nothing() {
        let mut n = node();
        let acg = AcgId::new(1);
        let batch = |files: std::ops::Range<u64>| Request::IndexBatch {
            acg,
            ops: files.map(|i| IndexOp::Upsert(rec(i, 1 << 20))).collect(),
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        };
        assert!(matches!(n.handle(batch(0..5)), Response::BatchLogged { lsn: 1 }));
        let before = search(&mut n, vec![acg], "size>0");
        assert_eq!(before.len(), 5);
        let seed = Request::SeedAcg { acg, lsn: u64::MAX, records: vec![rec(99, 1)], now: t(1) };
        let resp = n.handle(seed);
        assert!(matches!(resp, Response::Err(Error::Corrupt(_))), "{resp:?}");
        assert!(
            matches!(n.handle(Request::NodeStats), Response::NodeStatsReport { acgs: 1, .. }),
            "the node still answers"
        );
        assert_eq!(search(&mut n, vec![acg], "size>0"), before, "the pre-seed hits stay");
        // The log goes on where it was, not wrapped round to LSN 0.
        assert!(matches!(n.handle(batch(5..6)), Response::BatchLogged { lsn: 2 }));
    }

    #[test]
    fn fetching_frames_after_the_last_lsn_ships_nothing() {
        let mut n = node();
        let acg = AcgId::new(1);
        n.handle(Request::IndexBatch {
            acg,
            ops: (0..5).map(|i| IndexOp::Upsert(rec(i, 1 << 20))).collect(),
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        // No frame follows `u64::MAX`: the answer is an empty suffix, not
        // an overflow computing the position after it.
        let resp = n.handle(Request::FetchAcgFrames { acg, after_lsn: u64::MAX, now: t(1) });
        assert!(matches!(&resp, Response::AcgFrames(frames) if frames.is_empty()), "{resp:?}");
        assert!(
            matches!(n.handle(Request::NodeStats), Response::NodeStatsReport { acgs: 1, .. }),
            "the node still answers"
        );
    }

    #[test]
    fn search_commits_pending_ops() {
        let mut n = node();
        let acg = AcgId::new(1);
        n.handle(Request::IndexBatch {
            acg,
            ops: vec![IndexOp::Upsert(rec(1, 1 << 30))],
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        // No tick, no timeout elapsed — search must still see the file.
        let hits = search(&mut n, vec![acg], "size>512m");
        assert_eq!(hits, vec![FileId::new(1)]);
    }

    #[test]
    fn search_multiple_acgs_merges() {
        let mut n = node();
        for acg in 1..=3u64 {
            n.handle(Request::IndexBatch {
                acg: AcgId::new(acg),
                ops: vec![IndexOp::Upsert(rec(acg * 10, 1 << 25))],
                now: t(0),
                ctx: propeller_obs::TraceContext::NONE,
            });
        }
        let hits = search(&mut n, (1..=3).map(AcgId::new).collect(), "size>16m");
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn unknown_acg_in_search_is_skipped() {
        let mut n = node();
        assert!(search(&mut n, vec![AcgId::new(9)], "size>0").is_empty());
    }

    #[test]
    fn tick_commits_timed_out_caches() {
        let mut n = node();
        let acg = AcgId::new(1);
        n.handle(Request::IndexBatch {
            acg,
            ops: vec![IndexOp::Upsert(rec(1, 100))],
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        assert_eq!(n.groups[&acg].pending_ops(), 1);
        n.handle(Request::Tick { now: t(1) }); // before timeout
        assert_eq!(n.groups[&acg].pending_ops(), 1);
        n.handle(Request::Tick { now: t(6) }); // past the 5s timeout
        assert_eq!(n.groups[&acg].pending_ops(), 0);
    }

    #[test]
    fn split_produces_balanced_halves() {
        let mut n = node();
        let acg = AcgId::new(1);
        // Two clear communities in the causality graph.
        let mut edges = Vec::new();
        for base in [0u64, 100] {
            for i in 0..10 {
                for j in (i + 1)..10 {
                    edges.push(EdgeUpdate {
                        src: FileId::new(base + i),
                        dst: FileId::new(base + j),
                        weight: 5,
                    });
                }
            }
        }
        edges.push(EdgeUpdate { src: FileId::new(9), dst: FileId::new(100), weight: 1 });
        n.handle(Request::FlushAcgDelta { acg, edges });
        n.handle(Request::IndexBatch {
            acg,
            ops: (0..10).chain(100..110).map(|i| IndexOp::Upsert(rec(i, i))).collect(),
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        match n.handle(Request::SplitAcg { acg }) {
            Response::SplitHalves { left, right } => {
                assert_eq!(left.len() + right.len(), 20);
                assert_eq!(left.len(), 10);
                // Communities must not be mixed.
                let c: std::collections::HashSet<u64> =
                    left.iter().map(|f| f.raw() / 100).collect();
                assert_eq!(c.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn extract_install_migration_round_trip() {
        let mut src = node();
        let mut dst = IndexNode::new(NodeId::new(2), IndexNodeConfig::default());
        let acg = AcgId::new(1);
        let new_acg = AcgId::new(2);
        src.handle(Request::IndexBatch {
            acg,
            ops: (0..20).map(|i| IndexOp::Upsert(rec(i, i << 20))).collect(),
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        src.handle(Request::FlushAcgDelta {
            acg,
            edges: vec![EdgeUpdate { src: FileId::new(15), dst: FileId::new(16), weight: 3 }],
        });
        let moved: Vec<FileId> = (10..20).map(FileId::new).collect();
        let (records, edges) =
            match src.handle(Request::ExtractAcgPart { acg, files: moved.clone() }) {
                Response::AcgPart { records, edges } => (records, edges),
                other => panic!("{other:?}"),
            };
        assert_eq!(records.len(), 10);
        assert_eq!(edges.len(), 1, "the 15->16 edge moves with its files");
        dst.handle(Request::InstallAcg { acg: new_acg, records, edges });
        // The extract retained the part; the explicit post-install remove
        // completes the hand-off.
        assert!(matches!(
            src.handle(Request::RemoveAcgPart { acg, files: moved.clone() }),
            Response::Ok
        ));

        // Source no longer finds the moved files; target does.
        let src_hits = search(&mut src, vec![acg], "size>=10m");
        assert!(src_hits.is_empty(), "{src_hits:?}");
        let dst_hits = search(&mut dst, vec![new_acg], "size>=10m");
        assert_eq!(dst_hits.len(), 10);
    }

    #[test]
    fn create_index_applies_to_existing_and_future_groups() {
        let mut n = node();
        n.handle(Request::IndexBatch {
            acg: AcgId::new(1),
            ops: vec![IndexOp::Upsert(rec(1, 5))],
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        let spec = IndexSpec::btree("uid_idx", propeller_types::AttrName::Uid);
        assert!(matches!(n.handle(Request::CreateIndex { spec }), Response::Ok));
        assert!(n.groups[&AcgId::new(1)].index_specs().iter().any(|s| s.name == "uid_idx"));
        // A group created later also carries the index.
        n.handle(Request::IndexBatch {
            acg: AcgId::new(2),
            ops: vec![IndexOp::Upsert(rec(2, 5))],
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        assert!(n.groups[&AcgId::new(2)].index_specs().iter().any(|s| s.name == "uid_idx"));
    }

    #[test]
    fn heartbeat_reports_summaries() {
        let mut n = node();
        n.handle(Request::IndexBatch {
            acg: AcgId::new(3),
            ops: vec![IndexOp::Upsert(rec(1, 5)), IndexOp::Upsert(rec(2, 6))],
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        // The tick's status is what the coordinator forwards as the
        // node's heartbeat; at t(1) no commit is due yet.
        match n.handle(Request::Tick { now: t(1) }) {
            Response::Status { acgs, .. } => {
                assert_eq!(acgs.len(), 1);
                // Ops are still pending (not committed): the heartbeat
                // exposes both the projected scale and the backlog.
                assert_eq!(acgs[0].files, 2, "two new files about to commit");
                assert_eq!(acgs[0].pending_ops, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn heartbeat_scale_nets_out_reupserts_and_removes() {
        let mut n = node();
        let acg = AcgId::new(1);
        n.handle(Request::IndexBatch {
            acg,
            ops: (0..20).map(|i| IndexOp::Upsert(rec(i, i))).collect(),
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        // Commit via a search so the 20 files are indexed.
        search(&mut n, vec![acg], "size>=0");
        // A re-upsert-heavy batch: 20 updates of indexed files, 3 removes,
        // 2 genuinely new files — all buffered, not committed.
        let mut ops: Vec<IndexOp> = (0..20).map(|i| IndexOp::Upsert(rec(i, i + 500))).collect();
        ops.push(IndexOp::Remove(FileId::new(0)));
        ops.push(IndexOp::Remove(FileId::new(1)));
        ops.push(IndexOp::Remove(FileId::new(2)));
        ops.push(IndexOp::Upsert(rec(100, 1)));
        ops.push(IndexOp::Upsert(rec(101, 1)));
        n.handle(Request::IndexBatch {
            acg,
            ops,
            now: t(1),
            ctx: propeller_obs::TraceContext::NONE,
        });
        match n.handle(Request::Tick { now: t(2) }) {
            Response::Status { acgs, .. } => {
                assert_eq!(acgs[0].pending_ops, 25, "the raw backlog is still visible");
                assert_eq!(
                    acgs[0].files, 19,
                    "scale is 20 - 3 removed + 2 new, not len + pending = 45"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn node_global_cutoff_bounds_scans_across_acgs() {
        use propeller_query::{SearchRequest, SortKey};
        const ACGS: u64 = 16;
        const PER_ACG: u64 = 500;
        const K: usize = 100;
        let seed_node = |parallelism: usize| {
            let mut n = IndexNode::new(
                NodeId::new(1),
                IndexNodeConfig { search_parallelism: parallelism, ..IndexNodeConfig::default() },
            );
            for acg in 1..=ACGS {
                n.handle(Request::IndexBatch {
                    acg: AcgId::new(acg),
                    ops: (0..PER_ACG)
                        .map(|i| {
                            let id = acg * 10_000 + i;
                            IndexOp::Upsert(rec(id, ((id * 7919) % 100_000) << 10))
                        })
                        .collect(),
                    now: t(0),
                    ctx: propeller_obs::TraceContext::NONE,
                });
            }
            n
        };
        let q = Query::parse("size>0", t(0)).unwrap();
        let request = SearchRequest::new(q.predicate)
            .with_limit(K)
            .sorted_by(SortKey::Descending(propeller_types::AttrName::Size));
        let run = |n: &mut IndexNode| match n.handle(Request::Search {
            acgs: (1..=ACGS).map(AcgId::new).collect(),
            request: request.clone(),
            now: t(100),
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::SearchHits { hits, stats } => (hits, stats),
            other => panic!("{other:?}"),
        };
        let (hits, stats) = run(&mut seed_node(8));
        assert_eq!(hits.len(), K);
        assert_eq!(stats.acgs_consulted, ACGS as usize);
        // The acceptance witness: one k-way merge across the 16 ordered
        // streams admits k hits total — nowhere near 16 * k per-ACG scans.
        assert!(
            stats.candidates_scanned < (ACGS as usize) * K / 4,
            "node-global cutoff must scan far less than 16k: scanned {}",
            stats.candidates_scanned
        );
        assert!(stats.merge_skipped > 0, "merge-level skips must be witnessed: {stats:?}");
        assert_eq!(
            stats.candidates_scanned + stats.candidates_skipped,
            (ACGS * PER_ACG) as usize,
            "scan/skip accounting covers the node"
        );
        // Pooled execution is byte-identical to strictly sequential.
        let (seq_hits, seq_stats) = run(&mut seed_node(1));
        assert_eq!(hits, seq_hits);
        assert_eq!(stats.candidates_scanned, seq_stats.candidates_scanned);
        assert_eq!(stats.merge_skipped, seq_stats.merge_skipped);
    }

    #[test]
    fn stale_batch_for_migrated_file_is_rejected() {
        let mut n = node();
        let acg = AcgId::new(1);
        n.handle(Request::IndexBatch {
            acg,
            ops: (0..20).map(|i| IndexOp::Upsert(rec(i, i))).collect(),
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        let moved: Vec<FileId> = (10..20).map(FileId::new).collect();
        n.handle(Request::ExtractAcgPart { acg, files: moved });
        // A batch routed with the old (acg, node) pair must be rejected,
        // not silently resurrected in the source group.
        let resp = n.handle(Request::IndexBatch {
            acg,
            ops: vec![IndexOp::Upsert(rec(15, 1 << 20))],
            now: t(1),
            ctx: propeller_obs::TraceContext::NONE,
        });
        assert!(
            matches!(resp, Response::Err(Error::StaleRoute { file, .. }) if file == FileId::new(15)),
            "{resp:?}"
        );
        // Kept files still index fine.
        let resp = n.handle(Request::IndexBatch {
            acg,
            ops: vec![IndexOp::Upsert(rec(5, 1 << 20))],
            now: t(1),
            ctx: propeller_obs::TraceContext::NONE,
        });
        assert!(matches!(resp, Response::BatchLogged { .. }), "{resp:?}");
    }

    #[test]
    fn search_request_returns_per_node_topk_with_stats() {
        use propeller_query::{SearchRequest, SortKey};
        let mut n = node();
        for acg in 1..=3u64 {
            n.handle(Request::IndexBatch {
                acg: AcgId::new(acg),
                ops: (0..50)
                    .map(|i| IndexOp::Upsert(rec(acg * 100 + i, (acg * 100 + i) << 20)))
                    .collect(),
                now: t(0),
                ctx: propeller_obs::TraceContext::NONE,
            });
        }
        let q = Query::parse("size>0", t(0)).unwrap();
        let request = SearchRequest::new(q.predicate)
            .with_limit(5)
            .sorted_by(SortKey::Descending(propeller_types::AttrName::Size));
        let (hits, stats) = match n.handle(Request::Search {
            acgs: (1..=3).map(AcgId::new).collect(),
            request,
            now: t(100),
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::SearchHits { hits, stats } => (hits, stats),
            other => panic!("{other:?}"),
        };
        let files: Vec<u64> = hits.iter().map(|h| h.file.raw()).collect();
        assert_eq!(files, vec![349, 348, 347, 346, 345], "largest sizes win");
        assert_eq!(stats.acgs_consulted, 3);
        assert!(stats.retained_peak <= 5, "per-ACG bound: {}", stats.retained_peak);
        assert_eq!(stats.access_paths.len(), 3);
        assert!(hits.iter().all(|h| h.acg == Some(AcgId::new(3))));
    }

    #[test]
    fn tombstones_are_bounded_by_fifo_eviction() {
        let mut n = IndexNode::new(
            NodeId::new(1),
            IndexNodeConfig { max_tombstones: 5, ..IndexNodeConfig::default() },
        );
        let acg = AcgId::new(1);
        n.handle(Request::IndexBatch {
            acg,
            ops: (0..10).map(|i| IndexOp::Upsert(rec(i, i))).collect(),
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        n.handle(Request::ExtractAcgPart { acg, files: (0..10).map(FileId::new).collect() });
        assert_eq!(n.tombstones.order.len(), 5, "cap enforced");
        // The oldest tombstones were evicted: a stale batch for file 0 is
        // accepted again (degrades to pre-tombstone behaviour)...
        let resp = n.handle(Request::IndexBatch {
            acg,
            ops: vec![IndexOp::Upsert(rec(0, 1))],
            now: t(1),
            ctx: propeller_obs::TraceContext::NONE,
        });
        assert!(matches!(resp, Response::BatchLogged { .. }), "{resp:?}");
        // ...while the newest are still rejected.
        let resp = n.handle(Request::IndexBatch {
            acg,
            ops: vec![IndexOp::Upsert(rec(9, 1))],
            now: t(1),
            ctx: propeller_obs::TraceContext::NONE,
        });
        assert!(matches!(resp, Response::Err(Error::StaleRoute { .. })), "{resp:?}");
    }

    #[test]
    fn rejected_index_spec_rolls_back_groups_that_accepted_it() {
        let mut n = node();
        for acg in 1..=3u64 {
            n.handle(Request::IndexBatch {
                acg: AcgId::new(acg),
                ops: vec![IndexOp::Upsert(rec(acg, 5))],
                now: t(0),
                ctx: propeller_obs::TraceContext::NONE,
            });
        }
        // Pre-seed one group with the name so the broadcast fails there.
        n.groups
            .get_mut(&AcgId::new(2))
            .unwrap()
            .create_index(IndexSpec::btree("clash", propeller_types::AttrName::Uid))
            .unwrap();
        let resp = n.handle(Request::CreateIndex {
            spec: IndexSpec::btree("clash", propeller_types::AttrName::Gid),
        });
        assert!(matches!(resp, Response::Err(Error::IndexExists(_))), "{resp:?}");
        // No group outside the pre-seeded one kept the spec.
        for acg in [1u64, 3] {
            assert!(
                !n.groups[&AcgId::new(acg)].index_specs().iter().any(|s| s.name == "clash"),
                "group {acg} kept a half-applied spec"
            );
        }
        assert!(n.extra_specs.is_empty());
    }

    #[test]
    fn drop_index_removes_from_existing_and_future_groups() {
        let mut n = node();
        n.handle(Request::IndexBatch {
            acg: AcgId::new(1),
            ops: vec![IndexOp::Upsert(rec(1, 5))],
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        let spec = IndexSpec::btree("uid_idx", propeller_types::AttrName::Uid);
        n.handle(Request::CreateIndex { spec });
        n.handle(Request::DropIndex { name: "uid_idx".into() });
        assert!(!n.groups[&AcgId::new(1)].index_specs().iter().any(|s| s.name == "uid_idx"));
        n.handle(Request::IndexBatch {
            acg: AcgId::new(2),
            ops: vec![IndexOp::Upsert(rec(2, 5))],
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        assert!(!n.groups[&AcgId::new(2)].index_specs().iter().any(|s| s.name == "uid_idx"));
    }

    #[test]
    fn parallel_multi_acg_search_matches_sequential_exactly() {
        use propeller_query::{SearchRequest, SortKey};
        let seed_node = |parallelism: usize| {
            let mut n = IndexNode::new(
                NodeId::new(1),
                IndexNodeConfig { search_parallelism: parallelism, ..IndexNodeConfig::default() },
            );
            for acg in 1..=16u64 {
                n.handle(Request::IndexBatch {
                    acg: AcgId::new(acg),
                    ops: (0..200)
                        .map(|i| IndexOp::Upsert(rec(acg * 1000 + i, ((acg * 7 + i) % 500) << 10)))
                        .collect(),
                    now: t(0),
                    ctx: propeller_obs::TraceContext::NONE,
                });
            }
            n
        };
        let mut sequential = seed_node(1);
        let mut parallel = seed_node(8);
        let q = Query::parse("size>100k", t(0)).unwrap();
        for (limit, sort) in [
            (Some(25), SortKey::Descending(propeller_types::AttrName::Size)),
            (Some(7), SortKey::Ascending(propeller_types::AttrName::Size)),
            (None, SortKey::FileId),
        ] {
            let mut request = SearchRequest::new(q.predicate.clone()).sorted_by(sort);
            if let Some(k) = limit {
                request = request.with_limit(k);
            }
            let run = |n: &mut IndexNode| match n.handle(Request::Search {
                acgs: (1..=16).map(AcgId::new).collect(),
                request: request.clone(),
                now: t(100),
                ctx: propeller_obs::TraceContext::NONE,
            }) {
                Response::SearchHits { hits, stats } => (hits, stats),
                other => panic!("{other:?}"),
            };
            let (seq_hits, seq_stats) = run(&mut sequential);
            let (par_hits, par_stats) = run(&mut parallel);
            assert_eq!(par_hits, seq_hits, "limit {limit:?}");
            // Identical work, identical witnesses — only wall time differs.
            assert_eq!(par_stats.acgs_consulted, seq_stats.acgs_consulted);
            assert_eq!(par_stats.candidates_scanned, seq_stats.candidates_scanned);
            assert_eq!(par_stats.access_paths, seq_stats.access_paths);
            assert_eq!(par_stats.early_terminated, seq_stats.early_terminated);
            assert_eq!(par_stats.candidates_skipped, seq_stats.candidates_skipped);
        }
    }

    #[test]
    fn search_elapsed_is_measured_by_the_injected_clock() {
        /// Advances 1 ms on every `now()` — the search's start/stop reads
        /// land 1 ms apart deterministically.
        struct TickingClock(std::sync::atomic::AtomicU64);
        impl propeller_sim::Clock for TickingClock {
            fn now(&self) -> Timestamp {
                let t = self.0.fetch_add(1_000, std::sync::atomic::Ordering::SeqCst);
                Timestamp::from_micros(t)
            }
        }
        let mut n = IndexNode::new(NodeId::new(1), IndexNodeConfig::default())
            .with_clock(Arc::new(TickingClock(std::sync::atomic::AtomicU64::new(0))));
        let acg = AcgId::new(1);
        n.handle(Request::IndexBatch {
            acg,
            ops: vec![IndexOp::Upsert(rec(1, 1 << 20))],
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        let q = Query::parse("size>0", t(0)).unwrap();
        let request = propeller_query::SearchRequest::new(q.predicate);
        match n.handle(Request::Search {
            acgs: vec![acg],
            request,
            now: t(100),
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::SearchHits { stats, .. } => {
                assert!(
                    stats.elapsed >= Duration::from_millis(1),
                    "elapsed {:?} not measured",
                    stats.elapsed
                );
            }
            other => panic!("{other:?}"),
        }
    }

    fn topk_request(k: usize) -> propeller_query::SearchRequest {
        let q = Query::parse("size>0", t(0)).unwrap();
        propeller_query::SearchRequest::new(q.predicate)
            .with_limit(k)
            .sorted_by(propeller_query::SortKey::Descending(propeller_types::AttrName::Size))
    }

    fn seed_acgs(n: &mut IndexNode, acgs: u64, per_acg: u64) {
        for acg in 1..=acgs {
            n.handle(Request::IndexBatch {
                acg: AcgId::new(acg),
                ops: (0..per_acg)
                    .map(|i| {
                        let id = acg * 10_000 + i;
                        IndexOp::Upsert(rec(id, ((id * 7919) % 100_000) << 10))
                    })
                    .collect(),
                now: t(0),
                ctx: propeller_obs::TraceContext::NONE,
            });
        }
    }

    fn open(
        n: &mut IndexNode,
        acgs: u64,
        request: &propeller_query::SearchRequest,
        client: u64,
        page: usize,
    ) -> (u64, Vec<Hit>, SearchStats, bool) {
        match n.handle(Request::OpenSearch {
            acgs: (1..=acgs).map(AcgId::new).collect(),
            expect: None,
            request: request.clone(),
            client,
            page,
            now: t(100),
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::SearchPage { session, hits, stats, exhausted } => {
                (session, hits, stats, exhausted)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn streamed_session_pages_concatenate_to_the_one_shot_search() {
        let mut n = node();
        seed_acgs(&mut n, 4, 200);
        let request = topk_request(50);
        let one_shot = match n.handle(Request::Search {
            acgs: (1..=4).map(AcgId::new).collect(),
            request: request.clone(),
            now: t(100),
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::SearchHits { hits, stats } => {
                assert_eq!(stats.hits_shipped, hits.len(), "one-shot ships everything at once");
                assert_eq!(stats.pages_pulled, 1);
                hits
            }
            other => panic!("{other:?}"),
        };
        let (session, mut all, _, mut exhausted) = open(&mut n, 4, &request, 7, 8);
        assert!(!exhausted);
        let mut pulls = 0;
        while !exhausted {
            pulls += 1;
            match n.handle(Request::PullHits {
                session,
                page: 8,
                ctx: propeller_obs::TraceContext::NONE,
            }) {
                Response::SearchPage { hits, exhausted: done, stats, .. } => {
                    assert!(stats.hits_shipped <= 8);
                    all.extend(hits);
                    exhausted = done;
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(all, one_shot, "paged session == one-shot, byte for byte");
        assert!(pulls >= 5, "50 hits over 8-hit pages need several pulls, got {pulls}");
        assert_eq!(n.open_sessions(), 0, "exhausted sessions are dropped");
    }

    #[test]
    fn open_sessions_are_evicted_lru_past_the_table_cap() {
        let mut n = IndexNode::new(
            NodeId::new(1),
            IndexNodeConfig { max_search_sessions: 2, ..IndexNodeConfig::default() },
        );
        seed_acgs(&mut n, 2, 100);
        let request = topk_request(90);
        let (s1, ..) = open(&mut n, 2, &request, 1, 4);
        let (s2, ..) = open(&mut n, 2, &request, 2, 4);
        // Touch s1 so s2 becomes the LRU victim.
        assert!(matches!(
            n.handle(Request::PullHits {
                session: s1,
                page: 4,
                ctx: propeller_obs::TraceContext::NONE
            }),
            Response::SearchPage { .. }
        ));
        let (s3, ..) = open(&mut n, 2, &request, 3, 4);
        assert_eq!(n.open_sessions(), 2);
        assert!(matches!(
            n.handle(Request::PullHits { session: s2, page: 4 , ctx: propeller_obs::TraceContext::NONE }),
            Response::Err(Error::SearchSessionExpired { session }) if session == s2
        ));
        for live in [s1, s3] {
            assert!(matches!(
                n.handle(Request::PullHits {
                    session: live,
                    page: 4,
                    ctx: propeller_obs::TraceContext::NONE
                }),
                Response::SearchPage { .. }
            ));
        }
    }

    #[test]
    fn per_client_session_cap_evicts_that_clients_lru_session() {
        let mut n = IndexNode::new(
            NodeId::new(1),
            IndexNodeConfig { max_search_sessions_per_client: 1, ..IndexNodeConfig::default() },
        );
        seed_acgs(&mut n, 2, 100);
        let request = topk_request(90);
        let (s1, ..) = open(&mut n, 2, &request, 1, 4);
        let (s2, ..) = open(&mut n, 2, &request, 1, 4); // same client: evicts s1
        let (s3, ..) = open(&mut n, 2, &request, 2, 4); // other client: fine
        assert!(matches!(
            n.handle(Request::PullHits {
                session: s1,
                page: 4,
                ctx: propeller_obs::TraceContext::NONE
            }),
            Response::Err(Error::SearchSessionExpired { .. })
        ));
        for live in [s2, s3] {
            assert!(matches!(
                n.handle(Request::PullHits {
                    session: live,
                    page: 4,
                    ctx: propeller_obs::TraceContext::NONE
                }),
                Response::SearchPage { .. }
            ));
        }
    }

    #[test]
    fn evicted_session_resumes_exactly_via_reopen_with_cursor() {
        // The recovery protocol the client runs on SearchSessionExpired:
        // reopen with a cursor after the last hit received — the
        // concatenation must still equal the one-shot result.
        let mut n = IndexNode::new(
            NodeId::new(1),
            IndexNodeConfig { max_search_sessions: 1, ..IndexNodeConfig::default() },
        );
        seed_acgs(&mut n, 3, 150);
        let request = topk_request(40);
        let one_shot = match n.handle(Request::Search {
            acgs: (1..=3).map(AcgId::new).collect(),
            request: request.clone(),
            now: t(100),
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::SearchHits { hits, .. } => hits,
            other => panic!("{other:?}"),
        };
        let (s1, first, _, exhausted) = open(&mut n, 3, &request, 1, 10);
        assert!(!exhausted);
        // A second client's open evicts s1 (cap 1).
        let (_s2, ..) = open(&mut n, 3, &request, 2, 10);
        assert!(matches!(
            n.handle(Request::PullHits {
                session: s1,
                page: 10,
                ctx: propeller_obs::TraceContext::NONE
            }),
            Response::Err(Error::SearchSessionExpired { .. })
        ));
        // Reopen resuming after the last received hit, asking only for
        // the remaining entitlement (k minus what already arrived) — the
        // same request the client's transparent reopen sends.
        let resume = request
            .clone()
            .with_limit(40 - first.len())
            .after(propeller_query::Cursor::after(first.last().expect("first page non-empty")));
        let mut all = first;
        let (s3, hits, _, mut exhausted) = open(&mut n, 3, &resume, 1, 10);
        all.extend(hits);
        while !exhausted {
            match n.handle(Request::PullHits {
                session: s3,
                page: 10,
                ctx: propeller_obs::TraceContext::NONE,
            }) {
                Response::SearchPage { hits, exhausted: done, .. } => {
                    all.extend(hits);
                    exhausted = done;
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(all, one_shot, "resume after eviction loses and duplicates nothing");
    }

    #[test]
    fn close_search_reports_unsent_entitlement_and_is_idempotent() {
        let mut n = node();
        seed_acgs(&mut n, 4, 200);
        let request = topk_request(100);
        let (session, hits, _, exhausted) = open(&mut n, 4, &request, 1, 10);
        assert_eq!(hits.len(), 10);
        assert!(!exhausted);
        match n.handle(Request::CloseSearch { session }) {
            Response::SearchClosed { stats } => {
                assert_eq!(stats.node_hits_unsent, 90, "k=100 minus the 10 shipped");
                assert!(stats.merge_skipped > 0, "unexamined ordered candidates witnessed");
            }
            other => panic!("{other:?}"),
        }
        // Closing again is a no-op.
        match n.handle(Request::CloseSearch { session }) {
            Response::SearchClosed { stats } => assert_eq!(stats, SearchStats::default()),
            other => panic!("{other:?}"),
        }
        assert_eq!(n.open_sessions(), 0);
    }

    #[test]
    fn split_mid_session_degrades_without_panic_or_duplicates() {
        let mut n = node();
        seed_acgs(&mut n, 2, 100);
        let request = topk_request(150);
        let (session, first, _, exhausted) = open(&mut n, 2, &request, 1, 20);
        assert!(!exhausted);
        // ACG 1 migrates away mid-session.
        let files: Vec<FileId> = (0..100).map(|i| FileId::new(10_000 + i)).collect();
        assert!(matches!(
            n.handle(Request::ExtractAcgPart { acg: AcgId::new(1), files }),
            Response::AcgPart { .. }
        ));
        let mut all = first;
        let mut exhausted = false;
        while !exhausted {
            match n.handle(Request::PullHits {
                session,
                page: 20,
                ctx: propeller_obs::TraceContext::NONE,
            }) {
                Response::SearchPage { hits, exhausted: done, .. } => {
                    all.extend(hits);
                    exhausted = done;
                }
                other => panic!("{other:?}"),
            }
        }
        // Still strictly sorted with no duplicates; ACG 2's hits complete.
        assert!(all
            .windows(2)
            .all(|w| request.sort.cmp_hits(&w[0], &w[1]) == std::cmp::Ordering::Less));
        let from_acg2 = all.iter().filter(|h| h.acg == Some(AcgId::new(2))).count();
        assert!(from_acg2 > 0);
    }

    #[test]
    fn durable_node_snapshots_off_the_ops_threshold_and_reopens_from_disk() {
        let dir =
            std::env::temp_dir().join(format!("propeller-node-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || IndexNodeConfig {
            data_dir: Some(dir.clone()),
            snapshot_wal_ops: 50,
            ..IndexNodeConfig::default()
        };
        let acg = AcgId::new(1);
        let baseline = {
            let mut n = IndexNode::open(NodeId::new(1), config()).unwrap();
            // 80 ops > the 50-op threshold: the batch is fsynced and the
            // threshold commit+snapshot fires inside the handler.
            n.handle(Request::IndexBatch {
                acg,
                ops: (0..80).map(|i| IndexOp::Upsert(rec(i, (80 - i) << 10))).collect(),
                now: t(0),
                ctx: propeller_obs::TraceContext::NONE,
            });
            // The snapshot is written off-thread; the barrier makes its
            // durable effect observable before we assert on the dir.
            n.flush_snapshots();
            assert!(
                std::fs::read_dir(&dir)
                    .unwrap()
                    .flatten()
                    .any(|e| e.file_name().to_string_lossy().ends_with(".snap")),
                "ops threshold must have triggered a snapshot"
            );
            assert!(n.snapshots_offloaded() >= 1, "snapshot must have gone through the writer");
            // A post-snapshot tail rides the WAL only.
            n.handle(Request::IndexBatch {
                acg,
                ops: (100..110).map(|i| IndexOp::Upsert(rec(i, 5 << 10))).collect(),
                now: t(1),
                ctx: propeller_obs::TraceContext::NONE,
            });
            search(&mut n, vec![acg], "size>0")
            // Crash: the node is dropped without further ceremony.
        };
        assert_eq!(baseline.len(), 90);
        // A reopened node under the same data dir restores everything —
        // snapshot base plus WAL suffix.
        let mut revived = IndexNode::open(NodeId::new(1), config()).unwrap();
        assert_eq!(revived.acg_count(), 1);
        assert_eq!(search(&mut revived, vec![acg], "size>0"), baseline);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_in_progress_blocks_zero_searches() {
        // The witness for the epoch split's headline claim: a snapshot
        // being written never stalls a search. The writer is paused at its
        // gate *holding an in-flight snapshot task*, and every search —
        // plus further ingest — completes while it sits there.
        let dir = temp_dir("snap-nonblocking");
        let config = IndexNodeConfig {
            data_dir: Some(dir.clone()),
            snapshot_wal_ops: 50,
            ..IndexNodeConfig::default()
        };
        let acg = AcgId::new(1);
        let mut n = IndexNode::open(NodeId::new(1), config).unwrap();
        n.pause_snapshot_writer();
        // 80 ops > the 50-op threshold: a snapshot job is enqueued to the
        // (stalled) writer inside this handler.
        n.handle(Request::IndexBatch {
            acg,
            ops: (0..80).map(|i| IndexOp::Upsert(rec(i, (80 - i) << 10))).collect(),
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        assert_eq!(n.snapshots_offloaded(), 1, "the threshold snapshot must be in flight");
        let snap_on_disk = |dir: &PathBuf| {
            std::fs::read_dir(dir)
                .map(|rd| rd.flatten().any(|e| e.file_name().to_string_lossy().ends_with(".snap")))
                .unwrap_or(false)
        };
        assert!(!snap_on_disk(&dir), "paused writer must not have written yet");
        // Searches run to completion while the snapshot write is stalled.
        for _ in 0..5 {
            assert_eq!(search(&mut n, vec![acg], "size>0").len(), 80);
        }
        // So does further ingest: the build side never waits either.
        n.handle(Request::IndexBatch {
            acg,
            ops: (100..110).map(|i| IndexOp::Upsert(rec(i, 5 << 10))).collect(),
            now: t(1),
            ctx: propeller_obs::TraceContext::NONE,
        });
        assert_eq!(search(&mut n, vec![acg], "size>0").len(), 90);
        assert!(!snap_on_disk(&dir), "still stalled: the searches above beat the snapshot");
        // Unblock the writer; the barrier makes the write observable.
        n.resume_snapshot_writer();
        n.flush_snapshots();
        assert!(snap_on_disk(&dir), "released writer lands the snapshot");
        drop(n);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn split_of_unknown_acg_fails() {
        let mut n = node();
        assert!(matches!(
            n.handle(Request::SplitAcg { acg: AcgId::new(42) }),
            Response::Err(Error::AcgNotFound(_))
        ));
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("propeller-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn tombstones_survive_crash_and_revival() {
        let dir = temp_dir("tombstone-revive");
        let config =
            || IndexNodeConfig { data_dir: Some(dir.clone()), ..IndexNodeConfig::default() };
        let acg = AcgId::new(1);
        {
            let mut n = IndexNode::open(NodeId::new(1), config()).unwrap();
            n.handle(Request::IndexBatch {
                acg,
                ops: (0..20).map(|i| IndexOp::Upsert(rec(i, i))).collect(),
                now: t(0),
                ctx: propeller_obs::TraceContext::NONE,
            });
            let moved: Vec<FileId> = (10..20).map(FileId::new).collect();
            assert!(matches!(
                n.handle(Request::ExtractAcgPart { acg, files: moved }),
                Response::AcgPart { .. }
            ));
            // Crash: dropped without ceremony.
        }
        let mut revived = IndexNode::open(NodeId::new(1), config()).unwrap();
        // The revived node must keep rejecting the stale route...
        let resp = revived.handle(Request::IndexBatch {
            acg,
            ops: vec![IndexOp::Upsert(rec(15, 1 << 20))],
            now: t(1),
            ctx: propeller_obs::TraceContext::NONE,
        });
        assert!(
            matches!(resp, Response::Err(Error::StaleRoute { file, .. }) if file == FileId::new(15)),
            "{resp:?}"
        );
        // ...while batches for files it kept still land.
        let resp = revived.handle(Request::IndexBatch {
            acg,
            ops: vec![IndexOp::Upsert(rec(5, 1 << 20))],
            now: t(1),
            ctx: propeller_obs::TraceContext::NONE,
        });
        assert!(matches!(resp, Response::BatchLogged { .. }), "{resp:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn install_back_clears_the_durable_tombstone() {
        // The extracted part comes back by install (a rolled-back split)
        // or by seed (replica catch-up): either way the tombstones must
        // clear durably.
        for by_seed in [false, true] {
            let dir = temp_dir(if by_seed { "tombstone-seed" } else { "tombstone-install" });
            let config =
                || IndexNodeConfig { data_dir: Some(dir.clone()), ..IndexNodeConfig::default() };
            let acg = AcgId::new(1);
            {
                let mut n = IndexNode::open(NodeId::new(1), config()).unwrap();
                n.handle(Request::IndexBatch {
                    acg,
                    ops: (0..10).map(|i| IndexOp::Upsert(rec(i, i))).collect(),
                    now: t(0),
                    ctx: propeller_obs::TraceContext::NONE,
                });
                let files: Vec<FileId> = (5..10).map(FileId::new).collect();
                let records = match n.handle(Request::ExtractAcgPart { acg, files }) {
                    Response::AcgPart { records, .. } => records,
                    other => panic!("{other:?}"),
                };
                let resp = if by_seed {
                    // A seed carries the group's whole record set.
                    let records = (0..5).map(|i| rec(i, i)).chain(records).collect();
                    n.handle(Request::SeedAcg { acg, lsn: 1, records, now: t(0) })
                } else {
                    n.handle(Request::InstallAcg { acg, records, edges: Vec::new() })
                };
                assert!(
                    matches!(resp, Response::Ok | Response::ReplicaApplied { lsn: 1 }),
                    "{resp:?}"
                );
            }
            let mut revived = IndexNode::open(NodeId::new(1), config()).unwrap();
            let resp = revived.handle(Request::IndexBatch {
                acg,
                ops: vec![IndexOp::Upsert(rec(7, 1))],
                now: t(1),
                ctx: propeller_obs::TraceContext::NONE,
            });
            assert!(
                matches!(resp, Response::BatchLogged { .. }),
                "re-{} file must index: {resp:?}",
                if by_seed { "seeded" } else { "installed" }
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn every_durable_write_records_its_fsync() {
        // An ingest batch, the install half of a migration and the remove
        // that retires the source's copy each fsync one WAL frame; the
        // fsync histogram must count all three.
        let dir = temp_dir("fsync-count");
        let config = IndexNodeConfig { data_dir: Some(dir.clone()), ..IndexNodeConfig::default() };
        let mut n = IndexNode::open(NodeId::new(1), config).unwrap();
        let (source, target) = (AcgId::new(1), AcgId::new(2));
        let resp = n.handle(Request::IndexBatch {
            acg: source,
            ops: (0..10).map(|i| IndexOp::Upsert(rec(i, i))).collect(),
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        assert!(matches!(resp, Response::BatchLogged { lsn: 1 }), "{resp:?}");
        let files: Vec<FileId> = (5..10).map(FileId::new).collect();
        let records = match n.handle(Request::ExtractAcgPart { acg: source, files: files.clone() })
        {
            Response::AcgPart { records, .. } => records,
            other => panic!("{other:?}"),
        };
        let install = Request::InstallAcg { acg: target, records, edges: Vec::new() };
        assert!(matches!(n.handle(install), Response::Ok));
        assert!(matches!(n.handle(Request::RemoveAcgPart { acg: source, files }), Response::Ok));
        let fsyncs = n.obs().metrics.histogram(names::WAL_FSYNC).count();
        assert_eq!(fsyncs, 3, "one wal_fsync_us sample per fsynced frame");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_tombstone_image_degrades_to_pre_tombstone_behaviour() {
        let dir = temp_dir("tombstone-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(tombstone_file_name()), b"PTMBgarbage").unwrap();
        let config = IndexNodeConfig { data_dir: Some(dir.clone()), ..IndexNodeConfig::default() };
        let mut n = IndexNode::open(NodeId::new(1), config).unwrap();
        let resp = n.handle(Request::IndexBatch {
            acg: AcgId::new(1),
            ops: vec![IndexOp::Upsert(rec(1, 1))],
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        assert!(
            matches!(resp, Response::BatchLogged { .. }),
            "corrupt image must not poison the node: {resp:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Replays every batch a primary acknowledged onto a follower node via
    /// the replication protocol, asserting the LSNs align.
    fn replicate_batch(
        primary: &mut IndexNode,
        follower: &mut IndexNode,
        acg: AcgId,
        ops: Vec<IndexOp>,
        now: Timestamp,
    ) {
        let lsn = match primary.handle(Request::IndexBatch {
            acg,
            ops: ops.clone(),
            now,
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::BatchLogged { lsn } => lsn,
            other => panic!("{other:?}"),
        };
        match follower.handle(Request::ReplicateBatch {
            acg,
            lsn,
            ops,
            now,
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::ReplicaApplied { lsn: applied } => assert_eq!(applied, lsn),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn replicated_batches_keep_follower_search_identical() {
        let mut primary = node();
        let mut follower = IndexNode::new(NodeId::new(2), IndexNodeConfig::default());
        let acg = AcgId::new(1);
        for round in 0..5u64 {
            let ops: Vec<IndexOp> = (0..10)
                .map(|i| IndexOp::Upsert(rec(round * 10 + i, (round * 10 + i) << 20)))
                .collect();
            replicate_batch(&mut primary, &mut follower, acg, ops, t(round));
        }
        let on_primary = search(&mut primary, vec![acg], "size>16m");
        let on_follower = search(&mut follower, vec![acg], "size>16m");
        assert_eq!(on_primary, on_follower, "replicas must answer bit-identically");
        assert!(!on_primary.is_empty());
    }

    #[test]
    fn duplicate_and_gapped_frames_are_handled() {
        let mut follower = IndexNode::new(NodeId::new(2), IndexNodeConfig::default());
        let acg = AcgId::new(1);
        let ops = vec![IndexOp::Upsert(rec(1, 1))];
        // First frame applies...
        assert!(matches!(
            follower.handle(Request::ReplicateBatch {
                acg,
                lsn: 1,
                ops: ops.clone(),
                now: t(0),
                ctx: propeller_obs::TraceContext::NONE
            }),
            Response::ReplicaApplied { lsn: 1 }
        ));
        // ...a duplicate re-delivery acks without re-applying...
        assert!(matches!(
            follower.handle(Request::ReplicateBatch {
                acg,
                lsn: 1,
                ops: ops.clone(),
                now: t(0),
                ctx: propeller_obs::TraceContext::NONE
            }),
            Response::ReplicaApplied { lsn: 1 }
        ));
        // ...and a gap is refused with the follower's actual position.
        assert!(matches!(
            follower.handle(Request::ReplicateBatch {
                acg,
                lsn: 5,
                ops,
                now: t(0),
                ctx: propeller_obs::TraceContext::NONE
            }),
            Response::ReplicaLagging { lsn: 1 }
        ));
    }

    #[test]
    fn lagging_follower_catches_up_from_a_seed() {
        let mut primary = node();
        let mut follower = IndexNode::new(NodeId::new(2), IndexNodeConfig::default());
        let acg = AcgId::new(1);
        // The primary logs and commits three batches the follower missed
        // entirely (in-memory WALs truncate on commit, so frames are gone).
        for round in 0..3u64 {
            primary.handle(Request::IndexBatch {
                acg,
                ops: (0..5).map(|i| IndexOp::Upsert(rec(round * 5 + i, (i + 1) << 20))).collect(),
                now: t(round),
                ctx: propeller_obs::TraceContext::NONE,
            });
        }
        search(&mut primary, vec![acg], "size>0"); // force a commit
        let (lsn, records) =
            match primary.handle(Request::FetchAcgFrames { acg, after_lsn: 0, now: t(10) }) {
                Response::AcgSeed { lsn, records } => (lsn, records),
                other => panic!("expected seed from a truncated in-memory WAL: {other:?}"),
            };
        assert_eq!(lsn, 3, "three frames were logged");
        assert_eq!(records.len(), 15);
        assert!(matches!(
            follower.handle(Request::SeedAcg { acg, lsn, records, now: t(10) }),
            Response::ReplicaApplied { lsn: 3 }
        ));
        // The follower is aligned: the next frame chains directly.
        replicate_batch(
            &mut primary,
            &mut follower,
            acg,
            vec![IndexOp::Upsert(rec(99, 1 << 30))],
            t(11),
        );
        assert_eq!(
            search(&mut primary, vec![acg], "size>0"),
            search(&mut follower, vec![acg], "size>0")
        );
    }

    #[test]
    fn durable_primary_ships_frames_for_catch_up() {
        let dir = temp_dir("repl-frames");
        let config = IndexNodeConfig { data_dir: Some(dir.clone()), ..IndexNodeConfig::default() };
        let mut primary = IndexNode::open(NodeId::new(1), config).unwrap();
        let mut follower = IndexNode::new(NodeId::new(2), IndexNodeConfig::default());
        let acg = AcgId::new(1);
        for round in 0..3u64 {
            primary.handle(Request::IndexBatch {
                acg,
                ops: vec![IndexOp::Upsert(rec(round, (round + 1) << 20))],
                now: t(round),
                ctx: propeller_obs::TraceContext::NONE,
            });
        }
        let frames = match primary.handle(Request::FetchAcgFrames { acg, after_lsn: 0, now: t(5) })
        {
            Response::AcgFrames(frames) => frames,
            other => panic!("durable WAL must ship frames: {other:?}"),
        };
        assert_eq!(frames.len(), 3);
        for (lsn, payload) in frames {
            let ops = Vec::<IndexOp>::decode(&payload).unwrap();
            assert!(matches!(
                follower.handle(Request::ReplicateBatch {
                    acg,
                    lsn,
                    ops,
                    now: t(5),
                    ctx: propeller_obs::TraceContext::NONE
                }),
                Response::ReplicaApplied { .. }
            ));
        }
        assert_eq!(
            search(&mut primary, vec![acg], "size>0"),
            search(&mut follower, vec![acg], "size>0")
        );
        let report = match follower.handle(Request::AcgLsns) {
            Response::AcgLsnReport(rows) => rows,
            other => panic!("{other:?}"),
        };
        assert_eq!(report, vec![(acg, 3)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstone_round_trip_encodes_gen_maps_and_order() {
        let mut t = Tombstones { gen: 5, ..Tombstones::default() };
        t.moved_away.entry(AcgId::new(1)).or_default().insert(FileId::new(7), 3);
        t.moved_away.entry(AcgId::new(2)).or_default().insert(FileId::new(9), 5);
        t.order.push_back((AcgId::new(1), FileId::new(7), 3));
        t.order.push_back((AcgId::new(2), FileId::new(9), 5));
        // An InstallAcg-style divergence: file 8 is in the order (its
        // tombstone was superseded) but no longer in the live maps.
        t.order.push_back((AcgId::new(1), FileId::new(8), 4));
        let bytes = durable::seal(TOMBSTONE_MAGIC, TOMBSTONE_VERSION, &t.encode());
        let decode = |bytes: &[u8]| {
            durable::unseal(TOMBSTONE_MAGIC, TOMBSTONE_VERSION, bytes).and_then(Tombstones::decode)
        };
        assert_eq!(decode(&bytes).expect("round trip"), t);
        // Truncation and bit flips are rejected, not mis-decoded.
        assert!(decode(&bytes[..bytes.len() - 1]).is_err());
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0xff;
        assert!(decode(&flipped).is_err());
        // So is a version-1 image.
        assert!(decode(&durable::seal(TOMBSTONE_MAGIC, 1, &t.encode())).is_err());
    }

    fn crec(file: u64, text: &str) -> FileRecord {
        FileRecord::new(FileId::new(file), InodeAttrs::default()).with_content(text)
    }

    fn ranked_request(text: &str, k: usize) -> propeller_query::SearchRequest {
        let q = Query::parse(text, t(0)).unwrap();
        propeller_query::SearchRequest::new(q.predicate)
            .with_limit(k)
            .sorted_by(propeller_query::SortKey::Relevance)
    }

    fn seed_content(n: &mut IndexNode, acgs: u64, per_acg: u64) {
        for acg in 1..=acgs {
            n.handle(Request::IndexBatch {
                acg: AcgId::new(acg),
                ops: (0..per_acg)
                    .map(|i| {
                        let id = acg * 10_000 + i;
                        let mut text = String::from("report");
                        if i % 3 == 0 {
                            text.push_str(" quarterly tax");
                        }
                        if i % 17 == 0 {
                            for _ in 0..3 {
                                text.push_str(" tax");
                            }
                        }
                        for _ in 0..(i % 6) {
                            text.push_str(" filler");
                        }
                        IndexOp::Upsert(crec(id, &text))
                    })
                    .collect(),
                now: t(0),
                ctx: propeller_obs::TraceContext::NONE,
            });
        }
    }

    #[test]
    fn ranked_contains_search_flows_through_the_node() {
        let mut n = node();
        seed_content(&mut n, 3, 200);
        let request = ranked_request("contains:\"tax report\"", 15);
        let (hits, stats) = match n.handle(Request::Search {
            acgs: (1..=3).map(AcgId::new).collect(),
            request,
            now: t(100),
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::SearchHits { hits, stats } => (hits, stats),
            other => panic!("{other:?}"),
        };
        assert_eq!(hits.len(), 15);
        // Scores descend across the node-wide merge.
        let scores: Vec<f64> =
            hits.iter().map(|h| h.sort_key.clone().unwrap().as_f64().unwrap()).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]), "{scores:?}");
        // Every group served the query off its inverted index.
        assert_eq!(stats.acgs_consulted, 3);
        assert!(stats
            .access_paths
            .iter()
            .all(|(_, k)| *k == propeller_query::AccessPathKind::Postings));
    }

    #[test]
    fn ranked_contains_session_pages_concatenate_to_the_one_shot() {
        let seeded = || {
            let mut n = node();
            seed_content(&mut n, 3, 200);
            n
        };
        let request = ranked_request("contains-any:\"tax quarterly\"", 40);
        let mut n = seeded();
        let one_shot = match n.handle(Request::Search {
            acgs: (1..=3).map(AcgId::new).collect(),
            request: request.clone(),
            now: t(100),
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::SearchHits { hits, .. } => hits,
            other => panic!("{other:?}"),
        };
        assert_eq!(one_shot.len(), 40);
        let mut n = seeded();
        let (session, mut all, _, mut exhausted) = match n.handle(Request::OpenSearch {
            acgs: (1..=3).map(AcgId::new).collect(),
            expect: None,
            request: request.clone(),
            client: 1,
            page: 7,
            now: t(100),
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::SearchPage { session, hits, stats, exhausted } => {
                (session, hits, stats, exhausted)
            }
            other => panic!("{other:?}"),
        };
        while !exhausted {
            match n.handle(Request::PullHits {
                session,
                page: 7,
                ctx: propeller_obs::TraceContext::NONE,
            }) {
                Response::SearchPage { hits, exhausted: done, .. } => {
                    all.extend(hits);
                    exhausted = done;
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(all, one_shot, "paged ranked session == one-shot, byte for byte");
    }

    #[test]
    fn revived_node_serves_byte_identical_ranked_hits() {
        let dir = temp_dir("ranked-revive");
        let config =
            || IndexNodeConfig { data_dir: Some(dir.clone()), ..IndexNodeConfig::default() };
        let request = ranked_request("contains:\"tax report\"", 20);
        let run = |n: &mut IndexNode| match n.handle(Request::Search {
            acgs: (1..=2).map(AcgId::new).collect(),
            request: request.clone(),
            now: t(100),
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::SearchHits { hits, .. } => hits,
            other => panic!("{other:?}"),
        };
        let baseline = {
            let mut n = IndexNode::open(NodeId::new(1), config()).unwrap();
            seed_content(&mut n, 2, 150);
            let hits = run(&mut n);
            assert_eq!(hits.len(), 20);
            hits
            // Crash.
        };
        let mut revived = IndexNode::open(NodeId::new(1), config()).unwrap();
        assert_eq!(revived.acg_count(), 2);
        let hits = run(&mut revived);
        assert_eq!(hits, baseline, "recovered postings must rank identically, byte for byte");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inverted_spec_rides_the_broadcast_and_rolls_back_symmetrically() {
        let mut n = node();
        for acg in 1..=3u64 {
            n.handle(Request::IndexBatch {
                acg: AcgId::new(acg),
                ops: vec![IndexOp::Upsert(crec(acg, "alpha beta"))],
                now: t(0),
                ctx: propeller_obs::TraceContext::NONE,
            });
        }
        // A second inverted family broadcasts like any other index kind.
        let resp = n.handle(Request::CreateIndex { spec: IndexSpec::inverted("aux_inverted") });
        assert!(matches!(resp, Response::Ok), "{resp:?}");
        for acg in 1..=3u64 {
            assert!(n.groups[&AcgId::new(acg)]
                .index_specs()
                .iter()
                .any(|s| s.name == "aux_inverted"));
        }
        // Partial-broadcast rollback: pre-seed one group with a
        // *different* index under the clashing name (an identical spec
        // would be absorbed idempotently), then broadcast — no group may
        // keep the half-applied spec.
        n.groups
            .get_mut(&AcgId::new(2))
            .unwrap()
            .create_index(IndexSpec::btree("inv_clash", propeller_types::AttrName::Uid))
            .unwrap();
        let resp = n.handle(Request::CreateIndex { spec: IndexSpec::inverted("inv_clash") });
        assert!(matches!(resp, Response::Err(Error::IndexExists(_))), "{resp:?}");
        for acg in [1u64, 3] {
            assert!(
                !n.groups[&AcgId::new(acg)].index_specs().iter().any(|s| s.name == "inv_clash"),
                "group {acg} kept a half-applied inverted spec"
            );
        }
        // Symmetric drop: the broadcast family disappears everywhere,
        // including groups created later.
        assert!(matches!(
            n.handle(Request::DropIndex { name: "aux_inverted".into() }),
            Response::Ok
        ));
        n.handle(Request::IndexBatch {
            acg: AcgId::new(4),
            ops: vec![IndexOp::Upsert(crec(40, "alpha"))],
            now: t(0),
            ctx: propeller_obs::TraceContext::NONE,
        });
        for acg in 1..=4u64 {
            assert!(!n.groups[&AcgId::new(acg)]
                .index_specs()
                .iter()
                .any(|s| s.name == "aux_inverted"));
        }
    }

    #[test]
    fn dropping_the_default_inverted_degrades_contains_to_the_scored_scan() {
        let mut n = node();
        seed_content(&mut n, 1, 120);
        let request = ranked_request("contains:tax", 10);
        let run = |n: &mut IndexNode| match n.handle(Request::Search {
            acgs: vec![AcgId::new(1)],
            request: request.clone(),
            now: t(100),
            ctx: propeller_obs::TraceContext::NONE,
        }) {
            Response::SearchHits { hits, stats } => (hits, stats),
            other => panic!("{other:?}"),
        };
        let (indexed_hits, indexed_stats) = run(&mut n);
        assert_eq!(indexed_stats.access_paths[0].1, propeller_query::AccessPathKind::Postings);
        // Drop the default content index: contains queries must degrade to
        // a scored full scan with identical hits, not fail.
        assert!(matches!(
            n.handle(Request::DropIndex { name: "content_inverted".into() }),
            Response::Ok
        ));
        let (scan_hits, scan_stats) = run(&mut n);
        assert_eq!(scan_stats.access_paths[0].1, propeller_query::AccessPathKind::FullScan);
        assert_eq!(scan_hits, indexed_hits, "ranking is index-independent");
    }
}
