//! The single-node Propeller service: a one-node cluster whose Master
//! and Index Node are served inline, driven by that cluster's client —
//! the paper's "Master Node and a single instance of Index Node run on
//! the same Linux machine" setup.

use propeller_cluster::{Cluster, ClusterConfig, FileQueryEngine};
use propeller_index::{FileRecord, IndexSpec};
use propeller_query::{Predicate, Query, SearchRequest, SearchResponse};
use propeller_sim::SimClock;
use propeller_types::{AcgId, Duration, FileId, OpenMode, ProcessId, Result, TraceEvent};

/// Configuration for the single-node service.
#[derive(Debug, Clone)]
pub struct PropellerConfig {
    /// Lazy-commit timeout (paper default 5 s).
    pub commit_timeout: Duration,
    /// Files per default-allocated ACG (the paper's single-node experiments
    /// use 1000-file groups).
    pub group_capacity: usize,
    /// ACG scale that triggers a background split.
    pub split_threshold: usize,
    /// Virtual clock for modeled experiments; `None` = wall clock.
    pub sim_clock: Option<SimClock>,
    /// Seed for the split partitioner.
    pub seed: u64,
}

impl Default for PropellerConfig {
    fn default() -> Self {
        PropellerConfig {
            commit_timeout: Duration::from_secs(5),
            group_capacity: 1000,
            split_threshold: 50_000,
            sim_clock: None,
            seed: 42,
        }
    }
}

/// Cumulative service statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Index operations accepted.
    pub ops: u64,
    /// Searches served.
    pub searches: u64,
    /// ACG splits performed by maintenance.
    pub splits: u64,
    /// Causality edges flushed into ACGs.
    pub edges_flushed: u64,
}

/// The single-node Propeller file-search service.
///
/// See the crate-level docs for an example.
#[derive(Debug)]
pub struct Propeller {
    cluster: Cluster,
    client: FileQueryEngine,
    stats: ServiceStats,
}

impl Propeller {
    /// Creates a single-node service. It starts no thread: the nodes run
    /// on the caller's, and the Index Node's search pool starts on first
    /// use.
    pub fn new(config: PropellerConfig) -> Self {
        let cluster = Cluster::start_inline(ClusterConfig {
            index_nodes: 1,
            commit_timeout: config.commit_timeout,
            split_threshold: config.split_threshold,
            group_capacity: config.group_capacity,
            seed: config.seed,
            sim_clock: config.sim_clock,
            ..ClusterConfig::default()
        });
        Propeller { client: cluster.client(), cluster, stats: ServiceStats::default() }
    }

    /// The current service time.
    pub fn now(&self) -> propeller_types::Timestamp {
        self.cluster.now()
    }

    /// Service statistics so far.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Creates a user-defined named index (B+-tree, hash or K-D); fails
    /// with [`propeller_types::Error::IndexExists`] on a duplicate name. If
    /// the Index Node rejects the spec, the Master registration is rolled
    /// back so the name stays retryable.
    pub fn create_index(&mut self, spec: IndexSpec) -> Result<()> {
        self.client.create_index(spec)
    }

    /// Indexes (or re-indexes) one file record inline; fails on routing
    /// or WAL errors.
    pub fn index_file(&mut self, record: FileRecord) -> Result<()> {
        self.index_batch(vec![record])
    }

    /// Indexes a batch of file records; fails on routing or WAL errors.
    pub fn index_batch(&mut self, records: Vec<FileRecord>) -> Result<()> {
        let ops = records.len() as u64;
        self.client.index_files(records)?;
        self.stats.ops += ops;
        Ok(())
    }

    /// Removes a file from the index; fails on routing or WAL errors.
    pub fn remove_file(&mut self, file: FileId) -> Result<()> {
        self.client.remove_files(vec![file])?;
        self.stats.ops += 1;
        Ok(())
    }

    /// Runs a full [`SearchRequest`] — the canonical search entry point:
    /// [`FileQueryEngine::search_with`] over the one Index Node, so results
    /// reflect every acknowledged index operation (commit-then-search) and
    /// completeness follows the client's fan-out rules, which a live node
    /// always satisfies. Fails on invalid requests and commit errors.
    pub fn search_with(&mut self, request: &SearchRequest) -> Result<SearchResponse> {
        let response = self.client.search_with(request)?;
        self.stats.searches += 1;
        Ok(response)
    }

    /// Classic searches: the whole matching id set, sorted by file id
    /// (a thin wrapper over [`Propeller::search_with`]).
    pub fn search(&mut self, predicate: &Predicate) -> Result<Vec<FileId>> {
        Ok(self.search_with(&SearchRequest::new(predicate.clone()))?.file_ids())
    }

    /// Parses and runs a textual query; a parse error is
    /// [`propeller_types::Error::InvalidQuery`].
    pub fn search_text(&mut self, text: &str) -> Result<Vec<FileId>> {
        self.search(&Query::parse(text, self.now())?.predicate)
    }

    /// Runs a query-directory request (`/foo/bar/?size>1m`); a parse error
    /// is [`propeller_types::Error::InvalidQuery`].
    pub fn search_dir(&mut self, path: &str) -> Result<Vec<FileId>> {
        self.search(&Query::parse_dir(path, self.now())?.predicate)
    }

    /// Observes one trace event (the FUSE interposer feed).
    pub fn observe(&mut self, event: TraceEvent) {
        self.client.observe(event);
    }

    /// Convenience: observes an open at the current service time.
    pub fn observe_open(&mut self, pid: ProcessId, file: FileId, mode: OpenMode) {
        self.client.observe_open(pid, file, mode);
    }

    /// Marks a traced process as exited.
    pub fn end_process(&mut self, pid: ProcessId) {
        self.client.end_process(pid);
    }

    /// Flushes captured causality edges into the owning ACG graphs and
    /// returns how many; fails only on routing errors (delivery itself is
    /// weakly consistent).
    pub fn flush_acg(&mut self) -> Result<usize> {
        let flushed = self.client.flush_acg()?;
        self.stats.edges_flushed += flushed as u64;
        Ok(flushed)
    }

    /// Explicitly binds a file group to a fresh ACG — used when partitions
    /// are computed out-of-band (e.g. by offline ACG clustering) or when an
    /// experiment wants one-application-per-group placement.
    pub fn bind_group(&mut self, files: &[FileId]) -> Result<AcgId> {
        self.client.bind_group(files)
    }

    /// One maintenance round — commits timed-out caches, processes
    /// heartbeats and runs due ACG splits, each as the logged two-phase
    /// migration a cluster runs ([`Cluster::run_maintenance`]). Returns
    /// the number of splits performed.
    pub fn maintenance(&mut self) -> Result<usize> {
        let done = self.cluster.run_maintenance()?;
        self.stats.splits += done as u64;
        Ok(done)
    }

    /// Number of ACGs currently allocated.
    pub fn acg_count(&self) -> usize {
        self.cluster.acg_count()
    }

    /// Total index operations buffered (acknowledged but not yet committed)
    /// across all groups.
    pub fn pending_ops(&self) -> usize {
        self.cluster.pending_ops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_types::{InodeAttrs, Timestamp, Value};

    fn record(file: u64, size: u64) -> FileRecord {
        FileRecord::new(FileId::new(file), InodeAttrs::builder().size(size).build())
    }

    #[test]
    fn index_then_search() {
        let mut p = Propeller::new(PropellerConfig::default());
        p.index_batch((0..100).map(|i| record(i, i << 20)).collect()).unwrap();
        let hits = p.search_text("size>16m").unwrap();
        assert_eq!(hits.len(), 83);
        assert_eq!(p.stats().ops, 100);
        assert_eq!(p.stats().searches, 1);
    }

    #[test]
    fn search_sees_every_acknowledged_update_immediately() {
        // The paper's real-time guarantee: no crawling delay, recall = 100%.
        let mut p = Propeller::new(PropellerConfig::default());
        for i in 0..50 {
            p.index_file(record(i, 1 << 30)).unwrap();
            let hits = p.search_text("size>512m").unwrap();
            assert_eq!(hits.len() as u64, i + 1, "update {i} must be visible");
        }
    }

    #[test]
    fn update_then_search_reflects_new_attributes() {
        let mut p = Propeller::new(PropellerConfig::default());
        p.index_file(record(1, 1 << 10)).unwrap();
        assert!(p.search_text("size>1m").unwrap().is_empty());
        p.index_file(record(1, 1 << 30)).unwrap(); // file grew
        assert_eq!(p.search_text("size>1m").unwrap(), vec![FileId::new(1)]);
    }

    #[test]
    fn remove_file_disappears_from_results() {
        let mut p = Propeller::new(PropellerConfig::default());
        p.index_batch((0..10).map(|i| record(i, 1 << 20)).collect()).unwrap();
        p.remove_file(FileId::new(4)).unwrap();
        let hits = p.search_text("size>0").unwrap();
        assert_eq!(hits.len(), 9);
        assert!(!hits.contains(&FileId::new(4)));
    }

    #[test]
    fn custom_index_and_query() {
        let mut p = Propeller::new(PropellerConfig::default());
        p.create_index(IndexSpec::btree("energy", propeller_types::AttrName::custom("energy")))
            .unwrap();
        for i in 0..10 {
            let rec = record(i, 1).with_custom("energy", Value::F64(-(i as f64)));
            p.index_file(rec).unwrap();
        }
        let hits = p.search_text("energy<-7").unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn trace_capture_and_flush() {
        let mut p = Propeller::new(PropellerConfig::default());
        p.index_batch((0..3).map(|i| record(i, 1)).collect()).unwrap();
        let pid = ProcessId::new(7);
        p.observe_open(pid, FileId::new(0), OpenMode::Read);
        p.observe_open(pid, FileId::new(1), OpenMode::Read);
        p.observe_open(pid, FileId::new(2), OpenMode::Write);
        p.end_process(pid);
        assert_eq!(p.flush_acg().unwrap(), 2);
        assert_eq!(p.stats().edges_flushed, 2);
        assert_eq!(p.flush_acg().unwrap(), 0, "tracker drained");
    }

    #[test]
    fn bind_group_controls_placement() {
        let mut p = Propeller::new(PropellerConfig::default());
        let files: Vec<FileId> = (100..110).map(FileId::new).collect();
        let acg = p.bind_group(&files).unwrap();
        assert!(acg.raw() > 0);
        // Indexing those files lands in the bound group, not the open one.
        p.index_batch(files.iter().map(|f| record(f.raw(), 5)).collect()).unwrap();
        assert_eq!(p.acg_count(), 1);
    }

    #[test]
    fn binding_an_indexed_file_is_refused_and_keeps_it_in_one_group() {
        let mut p = Propeller::new(PropellerConfig::default());
        p.index_file(record(5, 100)).unwrap();
        let bind = p.bind_group(&[FileId::new(5)]);
        assert!(matches!(bind, Err(propeller_types::Error::FilePlaced(f)) if f == FileId::new(5)));
        p.index_file(record(5, 900)).unwrap();
        assert!(p.search_text("size<200").unwrap().is_empty(), "the old size is gone");
        assert_eq!(p.search_text("size>800").unwrap(), vec![FileId::new(5)]);
        assert_eq!(p.acg_count(), 1);
    }

    #[test]
    fn maintenance_splits_oversized_groups() {
        let mut p = Propeller::new(PropellerConfig {
            split_threshold: 40,
            group_capacity: 1000,
            ..PropellerConfig::default()
        });
        p.index_batch((0..100).map(|i| record(i, 1)).collect()).unwrap();
        let splits = p.maintenance().unwrap();
        assert!(splits >= 1);
        assert!(p.acg_count() >= 2);
        assert_eq!(p.search_text("size>0").unwrap().len(), 100);
    }

    #[test]
    fn search_with_topk_sort_projection_and_cursor() {
        use propeller_query::{Projection, SortKey};
        let mut p = Propeller::new(PropellerConfig {
            group_capacity: 100, // several ACGs, so the merge path runs
            ..PropellerConfig::default()
        });
        p.index_batch((0..500).map(|i| record(i, i << 20)).collect()).unwrap();

        // Top-5 largest files, with sizes projected back.
        let req = SearchRequest::parse("size>0", Timestamp::EPOCH)
            .unwrap()
            .with_limit(5)
            .sorted_by(SortKey::Descending(propeller_types::AttrName::Size))
            .with_projection(Projection::Attrs(vec![propeller_types::AttrName::Size]));
        let resp = p.search_with(&req).unwrap();
        let files: Vec<u64> = resp.hits.iter().map(|h| h.file.raw()).collect();
        assert_eq!(files, vec![499, 498, 497, 496, 495]);
        assert!(resp.complete);
        assert!(resp.cursor.is_some(), "full page => continuation cursor");
        assert_eq!(
            resp.hits[0].attrs,
            vec![(propeller_types::AttrName::Size, Value::U64(499 << 20))]
        );
        assert!(resp.stats.retained_peak <= 5, "O(k) bound: {}", resp.stats.retained_peak);
        assert_eq!(resp.stats.acgs_consulted, 5, "500 files / 100 per ACG");

        // Paginate the rest and check exhaustive disjoint coverage.
        let mut all = files;
        let mut cursor = resp.cursor;
        while let Some(c) = cursor {
            let resp = p.search_with(&req.clone().after(c)).unwrap();
            all.extend(resp.hits.iter().map(|h| h.file.raw()));
            cursor = resp.cursor;
        }
        assert_eq!(all, (1..500).rev().collect::<Vec<u64>>(), "file 0 has size 0");
    }

    #[test]
    fn failed_index_create_rolls_back_master_registration() {
        let mut p = Propeller::new(PropellerConfig::default());
        p.index_file(record(1, 1)).unwrap();
        // A K-D spec with no attributes is rejected by the node.
        let bad = IndexSpec::kd("broken", vec![]);
        assert!(p.create_index(bad).is_err());
        // The name must remain available after the rollback.
        let good = IndexSpec::btree("broken", propeller_types::AttrName::Uid);
        assert!(p.create_index(good).is_ok());
    }

    #[test]
    fn modeled_mode_uses_virtual_time() {
        let sim = SimClock::new();
        let p = Propeller::new(PropellerConfig {
            sim_clock: Some(sim.clone()),
            ..PropellerConfig::default()
        });
        assert_eq!(p.now(), Timestamp::EPOCH);
        sim.advance(Duration::from_secs(100));
        assert_eq!(p.now(), Timestamp::from_secs(100));
    }

    #[test]
    fn query_directory_interface() {
        let mut p = Propeller::new(PropellerConfig::default());
        p.index_file(record(1, 2 << 20)).unwrap();
        let hits = p.search_dir("/data/?size>1m").unwrap();
        assert_eq!(hits, vec![FileId::new(1)]);
        assert!(p.search_dir("/no-question-mark").is_err());
    }
}
