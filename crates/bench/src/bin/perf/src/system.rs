//! Starting, loading and tearing down the system under test.
//!
//! One *build* is what `setup_s` times: start a cluster, load the corpus
//! through the public client API in [`LOAD_BATCH`]-file batches, then one
//! warm-up search (the first search commits what the load buffered).
//! Cloning each batch out of the master corpus is the benchmark's work,
//! not the program's, so it happens between the timed calls — which also
//! keeps at most one batch copy alive, so the process's growth over a
//! build is the index.

use std::path::{Path, PathBuf};
use std::time::Instant;

use propeller_cluster::{Cluster, ClusterConfig, FileQueryEngine};
use propeller_query::SearchRequest;

use crate::gen::{Corpus, LOAD_BATCH};
use crate::stats::BestOf;

/// The cluster shape a workload runs on. Every workload uses two Index
/// Nodes (actor threads ≈ the reference host's two cores) and 5 000-file
/// ACGs; what differs is durability and replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub durable: bool,
    pub replication: usize,
}

pub const INDEX_NODES: usize = 2;

/// Files per ACG. Smoke corpora shrink it so they still span several ACGs
/// on both nodes.
pub fn group_capacity(files: usize) -> usize {
    5_000.min((files / 8).max(50))
}

/// What one build cost, call by call.
#[derive(Debug, Clone)]
pub struct BuildCost {
    /// Seconds inside `Cluster::start` and `Cluster::client`.
    pub start_s: f64,
    /// µs inside each `index_files` call, in load order.
    pub load_us: Vec<f64>,
    /// Seconds inside the warm-up search.
    pub warm_up_s: f64,
}

/// The per-call lower envelope of several identical builds: every build
/// loads the same batches in the same order, so batch *j* costs the same
/// work each time and keeps the fastest of its samples — the estimator
/// the measured rounds use, applied to set-up.
#[derive(Debug, Clone)]
pub struct SetupBest {
    start_s: f64,
    load: BestOf,
    warm_up_s: f64,
}

impl SetupBest {
    pub fn new(first: &BuildCost) -> SetupBest {
        let mut best = SetupBest {
            start_s: f64::INFINITY,
            load: BestOf::new(first.load_us.len()),
            warm_up_s: f64::INFINITY,
        };
        best.absorb(first);
        best
    }

    pub fn absorb(&mut self, cost: &BuildCost) {
        self.start_s = self.start_s.min(cost.start_s);
        self.load.absorb(&cost.load_us);
        self.warm_up_s = self.warm_up_s.min(cost.warm_up_s);
    }

    fn load_s(&self) -> f64 {
        self.load.values().iter().sum::<f64>() / 1e6
    }

    /// `setup_s`: start + load + warm-up.
    pub fn setup_s(&self) -> f64 {
        self.start_s + self.load_s() + self.warm_up_s
    }

    /// Bulk-load rate: files per second inside `index_files`.
    pub fn files_per_s(&self, files: usize) -> f64 {
        files as f64 / self.load_s()
    }
}

/// A built system and what building it cost.
pub struct Built {
    pub cluster: Cluster,
    pub client: FileQueryEngine,
    pub cost: BuildCost,
    /// The durable root, when the shape has one.
    pub data_dir: Option<PathBuf>,
}

impl Built {
    /// Stops every actor thread and hands back the durable root, if any,
    /// for the caller to weigh and remove.
    pub fn stop(self) -> Option<PathBuf> {
        drop(self.client);
        self.cluster.shutdown();
        self.data_dir
    }

    /// Stops every actor thread and removes the durable root.
    pub fn shutdown(self) {
        if let Some(dir) = self.stop() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Where this process may write: under the build directory when cargo
/// names one (the driver does), else under `target/` of the working
/// directory — never outside the checkout.
pub fn scratch_root() -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), Into::into);
    base.join("perf-run")
}

/// A fresh, empty directory for one durable build.
fn fresh_data_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = scratch_root().join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the durable root inside the checkout");
    dir
}

/// One build of `corpus` on `shape`.
///
/// # Errors
///
/// Any load or warm-up error, as text: a build that fails is a failed run.
pub fn build(
    tag: &str,
    shape: Shape,
    corpus: &Corpus,
    warm_up: &SearchRequest,
) -> Result<Built, String> {
    let data_dir = shape.durable.then(|| fresh_data_dir(tag));
    let config = ClusterConfig {
        index_nodes: INDEX_NODES,
        group_capacity: group_capacity(corpus.records.len()),
        replication: shape.replication,
        data_dir: data_dir.clone(),
        ..ClusterConfig::default()
    };
    let t = Instant::now();
    let cluster = Cluster::start(config);
    let mut client = cluster.client();
    let start_s = t.elapsed().as_secs_f64();
    let mut load_us = Vec::with_capacity(corpus.records.len().div_ceil(LOAD_BATCH));
    for chunk in corpus.records.chunks(LOAD_BATCH) {
        let batch = chunk.to_vec();
        let t = Instant::now();
        client.index_files(batch).map_err(|e| format!("load: {e}"))?;
        load_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let t = Instant::now();
    client.search_with(warm_up).map_err(|e| format!("warm-up search: {e}"))?;
    let warm_up_s = t.elapsed().as_secs_f64();
    Ok(Built { cluster, client, cost: BuildCost { start_s, load_us, warm_up_s }, data_dir })
}

/// Resident set size of this process in bytes (`VmRSS`), 0 where
/// `/proc` does not say.
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// `(stolen, all)` CPU ticks since boot, from the first line of
/// `/proc/stat`: time the hypervisor ran something else while a virtual
/// CPU of this machine was runnable. `None` where `/proc` does not say.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time stolen since `since`, in percent: the one host
/// disturbance the guest can see. Runs that report more than a few
/// percent measured the neighbours as much as the program.
pub fn steal_pct(since: Option<(u64, u64)>) -> f64 {
    match (since, cpu_ticks()) {
        (Some((s0, a0)), Some((s1, a1))) if a1 > a0 => 100.0 * (s1 - s0) as f64 / (a1 - a0) as f64,
        _ => 0.0,
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
