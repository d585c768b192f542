//! Control-plane recovery: the WAL-backed Master state machine and the
//! two-phase crash-safe migration protocol, driven through deterministic
//! mid-migration crashes and randomized kill/restart schedules checked
//! against a brute-force oracle.
//!
//! The invariant under test is **exactly one home**: at every observable
//! point — before a crash, immediately after recovery, and after the
//! coordinator resumes parked migrations — every indexed file is served
//! by exactly one routable ACG, so searches return each file once and
//! byte-identically to the pre-crash answer.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use propeller::cluster::{Cluster, ClusterConfig, Request, Response};
use propeller::index::FileRecord;
use propeller::sim::SimClock;
use propeller::types::{Duration, FileId, InodeAttrs, NodeId, Timestamp};
use proptest::prelude::*;

fn record(file: u64, size_mib: u64) -> FileRecord {
    FileRecord::new(FileId::new(file), InodeAttrs::builder().size(size_mib << 20).build())
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("propeller-cp-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(
    dir: &std::path::Path,
    sim: &SimClock,
    group_capacity: usize,
    split_threshold: usize,
) -> ClusterConfig {
    ClusterConfig {
        index_nodes: 3,
        replication: 2,
        group_capacity,
        split_threshold,
        data_dir: Some(dir.to_path_buf()),
        sim_clock: Some(sim.clone()),
        ..Default::default()
    }
}

/// One tick-and-heartbeat round, as `run_maintenance` would play it —
/// without the split orchestration, so tests can stop a migration at an
/// exact phase.
fn heartbeat_round(cluster: &Cluster, now: Timestamp) {
    for &node in cluster.index_node_ids() {
        match cluster.rpc().call(node, Request::Tick { now }) {
            Ok(Response::Status { acgs }) => {
                cluster.rpc().call(cluster.master_id(), Request::Heartbeat { node, acgs }).unwrap();
            }
            other => panic!("{other:?}"),
        }
    }
}

/// What a partially-driven migration looked like when the "crash" hit.
struct SplitPhases {
    owner: NodeId,
    targets: Vec<NodeId>,
    moved: Vec<FileId>,
}

/// Drives the first pending split through the two-phase protocol up to
/// (and including) phase `upto`, then stops — simulating a coordinator
/// that died mid-protocol:
///
/// 0. `BeginMigration` logged at the Master,
/// 1. + `ExtractAcgPart` on the source (tombstone-and-retain),
/// 2. + `InstallAcg` on every target,
/// 3. + `InstallAcked` logged at the Master,
/// 4. + `RemoveAcgPart` on the source (durable give-up).
///
/// `CommitMigration` is deliberately never reached — recovery must finish
/// the job. Returns `None` when no split is pending.
fn drive_split_phases(cluster: &Cluster, now: Timestamp, upto: u8) -> Option<SplitPhases> {
    heartbeat_round(cluster, now);
    let work = match cluster.rpc().call(cluster.master_id(), Request::TakeSplitWork) {
        Ok(Response::SplitWork(work)) => work,
        other => panic!("{other:?}"),
    };
    let (acg, owner) = work.into_iter().next()?;
    let (left, right) = match cluster.rpc().call(owner, Request::SplitAcg { acg }) {
        Ok(Response::SplitHalves { left, right }) => (left, right),
        other => panic!("{other:?}"),
    };
    if left.is_empty() || right.is_empty() {
        return None;
    }
    let (new_acg, targets) = match cluster
        .rpc()
        .call(cluster.master_id(), Request::BeginMigration { acg, moved: right.clone() })
    {
        Ok(Response::MigrationBegun { new_acg, targets }) => (new_acg, targets),
        other => panic!("{other:?}"),
    };
    let phases = SplitPhases { owner, targets: targets.clone(), moved: right.clone() };
    if upto < 1 {
        return Some(phases);
    }
    let (records, edges) =
        match cluster.rpc().call(owner, Request::ExtractAcgPart { acg, files: right.clone() }) {
            Ok(Response::AcgPart { records, edges }) => (records, edges),
            other => panic!("{other:?}"),
        };
    if upto < 2 {
        return Some(phases);
    }
    for &target in &targets {
        let install =
            Request::InstallAcg { acg: new_acg, records: records.clone(), edges: edges.clone() };
        assert!(matches!(cluster.rpc().call(target, install), Ok(Response::Ok)));
    }
    if upto < 3 {
        return Some(phases);
    }
    assert!(matches!(
        cluster.rpc().call(cluster.master_id(), Request::InstallAcked { new_acg }),
        Ok(Response::Ok)
    ));
    if upto < 4 {
        return Some(phases);
    }
    assert!(matches!(
        cluster.rpc().call(owner, Request::RemoveAcgPart { acg, files: right }),
        Ok(Response::Ok)
    ));
    Some(phases)
}

/// The full sorted hit list, asserting no file is served twice (two
/// routable homes would double-report it).
fn search_all(cluster: &Cluster) -> Vec<FileId> {
    let client = cluster.client();
    let hits = client.search_text("size>0").unwrap();
    let distinct: HashSet<FileId> = hits.iter().copied().collect();
    assert_eq!(distinct.len(), hits.len(), "a file was served from two homes: {hits:?}");
    hits
}

fn verify_against_oracle(cluster: &Cluster, oracle: &HashMap<u64, u64>) {
    let mut got: Vec<u64> = search_all(cluster).iter().map(|f| f.raw()).collect();
    got.sort_unstable();
    let mut want: Vec<u64> = oracle.keys().copied().collect();
    want.sort_unstable();
    assert_eq!(got, want, "cluster and brute-force oracle diverged");
    // A thresholded query must agree with the brute-force filter too.
    let client = cluster.client();
    let mut got5: Vec<u64> =
        client.search_text("size>5m").unwrap().iter().map(|f| f.raw()).collect();
    got5.sort_unstable();
    let mut want5: Vec<u64> = oracle.iter().filter(|&(_, &s)| s > 5).map(|(&f, _)| f).collect();
    want5.sort_unstable();
    assert_eq!(got5, want5);
}

/// A durable cluster with one oversized 120-file ACG, one advanced clock
/// step past the commit timeout, and its pre-crash baseline answer.
fn seeded_cluster(tag: &str) -> (Cluster, SimClock, std::path::PathBuf, Vec<FileId>) {
    let dir = temp_dir(tag);
    let sim = SimClock::new();
    let cluster = Cluster::start(durable_config(&dir, &sim, 1000, 50));
    let mut client = cluster.client();
    client.index_files((0..120).map(|i| record(i, i % 10 + 1)).collect()).unwrap();
    sim.advance(Duration::from_secs(10));
    let baseline = search_all(&cluster);
    assert_eq!(baseline.len(), 120);
    (cluster, sim, dir, baseline)
}

#[test]
fn power_loss_after_extract_keeps_the_source_as_the_one_home() {
    let (cluster, sim, dir, baseline) = seeded_cluster("extract");
    drive_split_phases(&cluster, sim.now(), 1).expect("a split must be pending");
    let cluster = cluster.restart();
    // The source tombstoned-and-RETAINED the extracted half: recovery
    // serves the identical answer before any migration work resumes.
    assert_eq!(search_all(&cluster), baseline);
    sim.advance(Duration::from_secs(10));
    assert!(cluster.run_maintenance().unwrap() >= 1, "the parked migration must resume");
    assert_eq!(search_all(&cluster), baseline);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn power_loss_before_install_ack_re_extracts_idempotently() {
    let (cluster, sim, dir, baseline) = seeded_cluster("preack");
    // Installed on every target, but the Master never logged the ack:
    // recovery must re-run extract + install (both idempotent) rather
    // than trust the un-acked copies.
    drive_split_phases(&cluster, sim.now(), 2).expect("a split must be pending");
    let cluster = cluster.restart();
    assert_eq!(search_all(&cluster), baseline);
    sim.advance(Duration::from_secs(10));
    assert!(cluster.run_maintenance().unwrap() >= 1);
    assert_eq!(search_all(&cluster), baseline);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn power_loss_between_ack_and_remove_resumes_from_the_logged_phase() {
    let (cluster, sim, dir, baseline) = seeded_cluster("postack");
    drive_split_phases(&cluster, sim.now(), 3).expect("a split must be pending");
    let cluster = cluster.restart();
    // The ack survived in the Master's WAL; the new group is still not
    // routable, so the retained source copy is the one home.
    assert_eq!(search_all(&cluster), baseline);
    sim.advance(Duration::from_secs(10));
    assert!(cluster.run_maintenance().unwrap() >= 1);
    assert_eq!(search_all(&cluster), baseline);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn power_loss_after_remove_fences_the_part_until_commit_replays() {
    let (cluster, sim, dir, baseline) = seeded_cluster("postremove");
    let phases = drive_split_phases(&cluster, sim.now(), 4).expect("a split must be pending");
    let cluster = cluster.restart();
    // The narrow documented window: the source durably gave the part up
    // but the remap never committed. The moved files are *invisible* —
    // never double-served — until recovery replays the commit.
    let visible = search_all(&cluster);
    assert_eq!(visible.len(), baseline.len() - phases.moved.len());
    let moved: HashSet<FileId> = phases.moved.iter().copied().collect();
    assert!(visible.iter().all(|f| !moved.contains(f)), "a removed file kept a second home");
    sim.advance(Duration::from_secs(10));
    assert!(cluster.run_maintenance().unwrap() >= 1);
    assert_eq!(search_all(&cluster), baseline, "commit replay must restore every moved file");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_source_stalls_the_migration_until_revival() {
    let (mut cluster, sim, dir, baseline) = seeded_cluster("deadsource");
    let phases = drive_split_phases(&cluster, sim.now(), 1).expect("a split must be pending");
    cluster.rpc().deregister(phases.owner);
    sim.advance(Duration::from_secs(10));
    assert!(cluster.run_maintenance().is_err(), "resume cannot finish without the source");
    cluster.revive_index_node(phases.owner);
    sim.advance(Duration::from_secs(10));
    assert!(cluster.run_maintenance().unwrap() >= 1);
    assert_eq!(search_all(&cluster), baseline);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_target_stalls_the_migration_until_revival() {
    let (mut cluster, sim, dir, baseline) = seeded_cluster("deadtarget");
    let phases = drive_split_phases(&cluster, sim.now(), 2).expect("a split must be pending");
    // Kill a target before the coordinator could ack the installs: the
    // un-acked migration must re-install, which needs the target back.
    cluster.rpc().deregister(phases.targets[0]);
    sim.advance(Duration::from_secs(10));
    assert!(cluster.run_maintenance().is_err(), "resume cannot finish without the target");
    cluster.revive_index_node(phases.targets[0]);
    sim.advance(Duration::from_secs(10));
    assert!(cluster.run_maintenance().unwrap() >= 1);
    assert_eq!(search_all(&cluster), baseline);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn proptest_cases() -> u32 {
    std::env::var("CONTROL_PLANE_PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
}

static CASE_SEQ: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// Random schedules of ingest / remove / maintenance / power loss /
    /// mid-migration crash, each step checked against a brute-force
    /// `HashMap` oracle. Low group capacity and split threshold keep
    /// migrations constantly in flight, so crashes land in every phase.
    #[test]
    fn random_crash_schedules_never_lose_or_duplicate_files(
        ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..10)
    ) {
        let seq = CASE_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = temp_dir(&format!("prop{seq}"));
        let sim = SimClock::new();
        let mut cluster = Cluster::start(durable_config(&dir, &sim, 40, 30));
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let mut next_id: u64 = 0;
        for (sel, payload) in ops {
            match sel % 5 {
                0 => {
                    // Ingest a fresh batch.
                    let n = payload % 24 + 8;
                    let batch: Vec<FileRecord> =
                        (next_id..next_id + n).map(|i| record(i, i % 10 + 1)).collect();
                    for i in next_id..next_id + n {
                        oracle.insert(i, i % 10 + 1);
                    }
                    next_id += n;
                    cluster.client().index_files(batch).unwrap();
                }
                1 => {
                    // Remove a few live files.
                    if oracle.is_empty() {
                        continue;
                    }
                    let keys: Vec<u64> = {
                        let mut k: Vec<u64> = oracle.keys().copied().collect();
                        k.sort_unstable();
                        k
                    };
                    let start = payload as usize % keys.len();
                    let count = (payload as usize % 4 + 1).min(keys.len());
                    let victims: BTreeSet<u64> =
                        (0..count).map(|j| keys[(start + j) % keys.len()]).collect();
                    for v in &victims {
                        oracle.remove(v);
                    }
                    cluster
                        .client()
                        .remove_files(victims.iter().map(|&v| FileId::new(v)).collect())
                        .unwrap();
                }
                2 => {
                    // A full maintenance round (splits run to completion).
                    sim.advance(Duration::from_secs(10));
                    cluster.run_maintenance().unwrap();
                }
                3 => {
                    // Whole-cluster power loss, then recovery.
                    cluster = cluster.restart();
                    sim.advance(Duration::from_secs(10));
                    cluster.run_maintenance().unwrap();
                }
                _ => {
                    // Crash mid-migration at a random phase, then recover.
                    sim.advance(Duration::from_secs(10));
                    let phase = (payload % 5) as u8;
                    drive_split_phases(&cluster, sim.now(), phase);
                    cluster = cluster.restart();
                    sim.advance(Duration::from_secs(10));
                    cluster.run_maintenance().unwrap();
                }
            }
            verify_against_oracle(&cluster, &oracle);
        }
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The whole catalogue — placements, specs, allocation cursor, routing
/// generation — survives a restart and immediately serves new work: the
/// end-to-end shape of the Master's recovery path.
#[test]
fn restart_recovers_master_and_nodes_into_a_consistent_cluster() {
    let dir = temp_dir("consistent");
    let sim = SimClock::new();
    let cluster = Cluster::start(durable_config(&dir, &sim, 40, 30));
    let mut client = cluster.client();
    client
        .create_index(propeller::index::IndexSpec::btree(
            "uid_idx",
            propeller::types::AttrName::Uid,
        ))
        .unwrap();
    client.index_files((0..100).map(|i| record(i, i % 10 + 1)).collect()).unwrap();
    sim.advance(Duration::from_secs(10));
    cluster.run_maintenance().unwrap();
    let baseline = search_all(&cluster);
    let cluster = cluster.restart();
    sim.advance(Duration::from_secs(10));
    cluster.run_maintenance().unwrap();
    assert_eq!(search_all(&cluster), baseline, "restart must not lose or duplicate records");
    // The recovered spec catalogue still answers structured queries and
    // still rejects duplicates.
    let mut client = cluster.client();
    assert_eq!(client.search_text("uid=0").unwrap().len(), 100);
    assert!(client
        .create_index(propeller::index::IndexSpec::btree(
            "uid_idx",
            propeller::types::AttrName::Uid,
        ))
        .is_err());
    // New ingest after recovery: allocation continues without colliding
    // with recovered ACG ids.
    client.index_files((200..260).map(|i| record(i, i % 10 + 1)).collect()).unwrap();
    assert_eq!(search_all(&cluster).len(), 160);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_durable_restart_is_a_clean_power_loss() {
    let sim = SimClock::new();
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: 2,
        sim_clock: Some(sim.clone()),
        ..Default::default()
    });
    let mut client = cluster.client();
    client.index_files((0..20).map(|i| record(i, 1)).collect()).unwrap();
    assert_eq!(search_all(&cluster).len(), 20);
    let cluster = cluster.restart();
    // No data dir: everything is gone, but the cluster is alive and
    // re-indexable — not wedged on stale metadata.
    assert_eq!(search_all(&cluster).len(), 0);
    let mut client = cluster.client();
    client.index_files((0..20).map(|i| record(i, 1)).collect()).unwrap();
    assert_eq!(search_all(&cluster).len(), 20);
    cluster.shutdown();
}
