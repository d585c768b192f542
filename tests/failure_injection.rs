//! Failure-injection tests for the cluster: dead Index Nodes, graceful
//! degradation rules, and — with replication on — search correctness
//! under randomized kill/slow/revive schedules and mid-pagination replica
//! failover.

use std::collections::{HashMap, HashSet};

use propeller::cluster::{Cluster, ClusterConfig, Request, Response};
use propeller::query::{run_local_search, SearchRequest, SortKey};
use propeller::types::{AcgId, AttrName, Duration, Error, FileId, InodeAttrs, NodeId, Timestamp};
use propeller::{FanOutPolicy, FileRecord};
use proptest::prelude::*;

fn record(file: u64, size: u64) -> FileRecord {
    FileRecord::new(FileId::new(file), InodeAttrs::builder().size(size).build())
}

/// The Master's current placement map: ACG → ordered replica set.
fn placements(cluster: &Cluster) -> Vec<(AcgId, Vec<NodeId>)> {
    match cluster.rpc().call(cluster.master_id(), Request::LocateAcgs) {
        Ok(Response::Located(rows)) => rows,
        other => panic!("{other:?}"),
    }
}

#[test]
fn dead_index_node_surfaces_as_node_unavailable() {
    let cluster = Cluster::start(ClusterConfig { index_nodes: 2, ..Default::default() });
    let mut client = cluster.client();
    client.index_files((0..50).map(|i| record(i, 1 << 20)).collect()).unwrap();

    // Kill one index node's actor and remove it from the fabric.
    let victim = cluster.index_node_ids()[0];
    cluster.rpc().call(victim, Request::Shutdown).unwrap();
    cluster.rpc().deregister(victim);

    // Searches that fan out to the dead node report unavailability rather
    // than silently returning partial results (the consistency-first rule).
    let err = client.search_text("size>0");
    assert!(matches!(err, Err(Error::NodeUnavailable(n)) if n == victim), "{err:?}");
    cluster.shutdown();
}

#[test]
fn surviving_nodes_keep_serving_their_acgs() {
    let cluster =
        Cluster::start(ClusterConfig { index_nodes: 2, group_capacity: 10, ..Default::default() });
    let mut client = cluster.client();
    client.index_files((0..40).map(|i| record(i, 1 << 20)).collect()).unwrap();

    let victim = cluster.index_node_ids()[1];
    cluster.rpc().call(victim, Request::Shutdown).unwrap();
    cluster.rpc().deregister(victim);

    // Direct requests to the survivor still work.
    let survivor = cluster.index_node_ids()[0];
    let resp =
        cluster.rpc().call(survivor, Request::Tick { now: Timestamp::from_secs(1) }).unwrap();
    assert!(matches!(resp, Response::Status { .. }));
    cluster.shutdown();
}

#[test]
fn acg_flush_failures_are_swallowed_but_indexing_failures_are_not() {
    let cluster = Cluster::start(ClusterConfig { index_nodes: 1, ..Default::default() });
    let mut client = cluster.client();
    client.index_files(vec![record(1, 10), record(2, 10)]).unwrap();

    // Capture causality, then kill the only index node.
    let pid = propeller::types::ProcessId::new(1);
    client.observe_open(pid, FileId::new(1), propeller::types::OpenMode::Read);
    client.observe_open(pid, FileId::new(2), propeller::types::OpenMode::Write);
    client.end_process(pid);
    let victim = cluster.index_node_ids()[0];
    cluster.rpc().call(victim, Request::Shutdown).unwrap();
    cluster.rpc().deregister(victim);

    // ACG flush: weakly consistent — errors swallowed, edges dropped.
    let flushed = client.flush_acg().unwrap();
    assert_eq!(flushed, 1, "delta counted even though delivery failed");

    // Indexing: strongly consistent — failure must surface.
    assert!(client.index_files(vec![record(3, 10)]).is_err());
    cluster.shutdown();
}

#[test]
fn stale_route_after_split_is_invalidated_and_retried() {
    // One oversized ACG on a 2-node cluster: maintenance splits it and
    // migrates half the files to the other node. A client that indexed
    // before the split still caches the old (ACG, node) routes.
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: 2,
        group_capacity: 1_000,
        split_threshold: 50,
        ..Default::default()
    });
    let mut client = cluster.client();
    client.index_files((0..120).map(|i| record(i, 1 << 20)).collect()).unwrap();
    let splits = cluster.run_maintenance().unwrap();
    assert!(splits >= 1, "the oversized ACG must split");

    // Re-index every file with a new size through the stale cache. For the
    // migrated half the old owner answers "route moved"; the client must
    // drop those cache entries, re-resolve at the Master and retry — the
    // whole batch succeeds without surfacing an error.
    client.index_files((0..120).map(|i| record(i, 2 << 20)).collect()).unwrap();

    // Every update landed exactly once, in the group that owns the file
    // now: no stale copies with the old size, no duplicates, no losses.
    assert!(client.search_text("size=1m").unwrap().is_empty(), "no stale copies");
    let hits = client.search_text("size=2m").unwrap();
    assert_eq!(hits.len(), 120, "all updates visible exactly once");
    cluster.shutdown();
}

#[test]
fn partial_index_broadcast_rolls_back_and_reports_missed_nodes() {
    use propeller::IndexSpec;
    let cluster = Cluster::start(ClusterConfig { index_nodes: 3, ..Default::default() });
    let client = cluster.client();

    // Kill one node, then try to create a cluster-wide index.
    let victim = cluster.index_node_ids()[2];
    cluster.rpc().call(victim, Request::Shutdown).unwrap();
    cluster.rpc().deregister(victim);

    let spec = IndexSpec::btree("uid_idx", propeller::types::AttrName::Uid);
    let err = client.create_index(spec.clone());
    match err {
        Err(Error::PartialIndexBroadcast { index, missed }) => {
            assert_eq!(index, "uid_idx");
            assert_eq!(missed, vec![victim]);
        }
        other => panic!("expected PartialIndexBroadcast, got {other:?}"),
    }

    // The rollback unregistered the name at the Master: once the cluster
    // is healthy again (here: minus the dead node), the same name works.
    let resp = cluster.rpc().call(cluster.master_id(), Request::CreateIndex { spec }).unwrap();
    assert!(matches!(resp, Response::Ok), "{resp:?}");
    cluster.shutdown();
}

/// One step of a randomized failure schedule: `node` indexes into the
/// cluster's Index Node list.
#[derive(Debug, Clone, Copy)]
enum FailureEvent {
    Kill { node: usize },
    Revive { node: usize },
    Slow { node: usize, millis: u64 },
}

fn arb_schedule(nodes: usize) -> impl Strategy<Value = Vec<FailureEvent>> {
    prop::collection::vec(
        prop_oneof![
            (0..nodes).prop_map(|node| FailureEvent::Kill { node }),
            (0..nodes).prop_map(|node| FailureEvent::Revive { node }),
            (0..nodes, 1u64..3).prop_map(|(node, millis)| FailureEvent::Slow { node, millis }),
        ],
        0..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The replicated-search contract under arbitrary kill/slow/revive
    /// schedules at R ∈ {1, 2, 3}: the search answers exactly what the
    /// surviving replicas hold (oracle: brute force over the files whose
    /// serving replica is alive and caught up), and the response is
    /// `incomplete` **only** when every replica of some ACG is down —
    /// naming those ACGs, not nodes.
    #[test]
    fn replicated_search_matches_brute_force_under_failure_schedules(
        replication in 1usize..4,
        schedule in arb_schedule(4),
        limit in prop_oneof![Just(None), (5usize..40).prop_map(Some)],
    ) {
        let mut cluster = Cluster::start(ClusterConfig {
            index_nodes: 4,
            group_capacity: 10,
            replication,
            ..Default::default()
        });
        let mut client = cluster.client();
        let records: Vec<FileRecord> =
            (0..80u64).map(|i| record(i, (i + 1) << 20)).collect();
        client.index_files(records.clone()).unwrap();

        // Ground-truth replica model. `fresh[acg]` = replicas that hold
        // the ACG's data (all of them, right after indexing); a kill
        // drops the node's copies, a revive + catch-up restores them iff
        // a fresh live peer exists to sync from.
        let placed = placements(&cluster);
        let file_acg: HashMap<FileId, AcgId> = {
            let files: Vec<FileId> = records.iter().map(|r| r.file).collect();
            let req = Request::ResolveFiles { files, hints_since: u64::MAX , ctx: propeller_obs::TraceContext::NONE };
            match cluster.rpc().call(cluster.master_id(), req) {
                Ok(Response::Resolved { rows, .. }) => {
                    rows.into_iter().map(|(f, a, _)| (f, a)).collect()
                }
                other => panic!("{other:?}"),
            }
        };
        let ids: Vec<NodeId> = cluster.index_node_ids().to_vec();
        let mut alive: Vec<bool> = vec![true; ids.len()];
        let mut fresh: HashMap<AcgId, HashSet<NodeId>> = placed
            .iter()
            .map(|(acg, replicas)| (*acg, replicas.iter().copied().collect()))
            .collect();

        for event in &schedule {
            match *event {
                FailureEvent::Kill { node } => {
                    if alive[node] {
                        alive[node] = false;
                        cluster.rpc().deregister(ids[node]);
                        for set in fresh.values_mut() {
                            set.remove(&ids[node]);
                        }
                    }
                }
                FailureEvent::Revive { node } => {
                    if !alive[node] {
                        alive[node] = true;
                        cluster.revive_index_node(ids[node]);
                        let _ = cluster.catch_up_node(ids[node]);
                        for (acg, replicas) in &placed {
                            let has_fresh_live_peer = fresh[acg]
                                .iter()
                                .any(|n| *n != ids[node] && alive[ids.iter().position(|i| i == n).unwrap()]);
                            if replicas.contains(&ids[node]) && has_fresh_live_peer {
                                fresh.get_mut(acg).unwrap().insert(ids[node]);
                            }
                        }
                    }
                }
                FailureEvent::Slow { node, millis } => {
                    cluster.rpc().slowdowns().set(
                        ids[node],
                        propeller::sim::Latency::constant(Duration::from_millis(millis)),
                    );
                }
            }
        }

        // Oracle: each ACG is served by its first *alive* replica (the
        // client fails over in replica order); it yields the ACG's files
        // iff that replica is fresh. No alive replica → unreachable.
        let mut served: HashSet<FileId> = HashSet::new();
        let mut expect_unreachable: Vec<AcgId> = Vec::new();
        for (acg, replicas) in &placed {
            let first_alive = replicas
                .iter()
                .find(|n| alive[ids.iter().position(|i| i == *n).unwrap()]);
            match first_alive {
                None => expect_unreachable.push(*acg),
                Some(n) if fresh[acg].contains(n) => {
                    served.extend(
                        file_acg.iter().filter(|(_, a)| *a == acg).map(|(f, _)| *f),
                    );
                }
                Some(_) => {} // alive but empty: answers, with no hits
            }
        }
        expect_unreachable.sort_unstable();

        let mut req = SearchRequest::parse("size>0", Timestamp::from_secs(1_000))
            .unwrap()
            .sorted_by(SortKey::Descending(AttrName::Size))
            .with_fan_out(FanOutPolicy::AllowPartial { min_nodes: 0 });
        if let Some(k) = limit {
            req = req.with_limit(k);
        }
        let resp = client.search_with(&req).unwrap();

        prop_assert_eq!(resp.complete, expect_unreachable.is_empty(),
            "incomplete iff every replica of some ACG is down");
        prop_assert_eq!(&resp.unreachable, &expect_unreachable);
        let oracle_records: Vec<FileRecord> =
            records.iter().filter(|r| served.contains(&r.file)).cloned().collect();
        let brute = run_local_search(oracle_records, &req);
        let got: Vec<FileId> = resp.hits.iter().map(|h| h.file).collect();
        let want: Vec<FileId> = brute.hits.iter().map(|h| h.file).collect();
        prop_assert_eq!(got, want, "replicated search must equal brute force over survivors");
        cluster.shutdown();
    }
}

#[test]
fn killing_one_replica_of_every_acg_mid_pagination_loses_nothing() {
    // The tentpole acceptance scenario: R = 2 on a 2-node cluster means
    // every ACG lives on both nodes — killing one node kills one replica
    // of EVERY ACG, in the middle of a paginated streamed search. The
    // stream must fail over and the concatenated pages must be
    // byte-identical to the healthy answer: complete, no hit skipped, no
    // hit duplicated.
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: 2,
        group_capacity: 10,
        replication: 2,
        ..Default::default()
    });
    let mut client = cluster.client().with_search_page_size(7);
    let records: Vec<FileRecord> = (0..100u64).map(|i| record(i, (i + 1) << 20)).collect();
    client.index_files(records).unwrap();

    let request = SearchRequest::parse("size>0", Timestamp::from_secs(1_000))
        .unwrap()
        .sorted_by(SortKey::Descending(AttrName::Size));
    // Healthy baseline, before anything dies.
    let baseline =
        cluster.client().with_search_page_size(usize::MAX).search_with(&request).unwrap();
    assert_eq!(baseline.hits.len(), 100);

    let mut stream = client.open_search_stream(&request).unwrap();
    let mut paged = Vec::new();
    for _ in 0..3 {
        let page = stream.next_page(7).unwrap();
        assert!(!page.is_empty());
        paged.extend(page);
    }
    // Mid-pagination kill: one replica of every ACG.
    cluster.rpc().deregister(cluster.index_node_ids()[0]);
    loop {
        let page = stream.next_page(7).unwrap();
        if page.is_empty() {
            break;
        }
        paged.extend(page);
    }
    let resp = stream.finish().unwrap();

    assert!(resp.complete, "every ACG still had a live replica");
    assert!(resp.unreachable.is_empty());
    assert!(resp.stats.replica_failovers >= 1, "the kill must be witnessed as a failover");
    assert_eq!(paged, baseline.hits, "failover must not skip or duplicate a single hit");
    let mut files: Vec<FileId> = paged.iter().map(|h| h.file).collect();
    files.sort_unstable();
    files.dedup();
    assert_eq!(files.len(), paged.len(), "no duplicates across the failover seam");
    cluster.shutdown();
}

/// One node's last WAL LSN per hosted ACG.
fn acg_lsns(cluster: &Cluster, node: NodeId) -> HashMap<AcgId, u64> {
    match cluster.rpc().call(node, Request::AcgLsns) {
        Ok(Response::AcgLsnReport(rows)) => rows.into_iter().collect(),
        other => panic!("{other:?}"),
    }
}

#[test]
fn multi_acg_batch_returns_with_every_follower_at_its_primarys_lsn() {
    // 2 nodes at R = 2: every ACG is on both nodes, each node primary for
    // some and follower for the rest. One `index_files` call fans a batch
    // out over every ACG; by the time it returns, every follower frame has
    // been acknowledged — the two nodes' LSN maps are equal.
    let mut cluster = Cluster::start(ClusterConfig {
        index_nodes: 2,
        group_capacity: 10,
        replication: 2,
        ..Default::default()
    });
    let mut client = cluster.client();
    client.index_files((0..100).map(|i| record(i, 1 << 20)).collect()).unwrap();
    let (a, b) = (cluster.index_node_ids()[0], cluster.index_node_ids()[1]);
    let on_a = acg_lsns(&cluster, a);
    assert!(on_a.len() >= 8, "the batch must span many ACGs: {on_a:?}");
    assert!(on_a.values().all(|&lsn| lsn >= 1));
    assert_eq!(on_a, acg_lsns(&cluster, b), "followers answered before index_files returned");

    // Files whose primary is `a`: with the follower `b` off the fabric the
    // batch still succeeds (an unreachable follower is tolerated).
    let a_primary: HashSet<AcgId> =
        placements(&cluster).into_iter().filter(|(_, r)| r[0] == a).map(|(acg, _)| acg).collect();
    assert!(a_primary.len() >= 2, "{a_primary:?}");
    let req = Request::ResolveFiles {
        files: (0..100).map(FileId::new).collect(),
        hints_since: u64::MAX,
        ctx: propeller_obs::TraceContext::NONE,
    };
    let files: Vec<u64> = match cluster.rpc().call(cluster.master_id(), req) {
        Ok(Response::Resolved { rows, .. }) => rows
            .into_iter()
            .filter(|(_, acg, _)| a_primary.contains(acg))
            .map(|(f, _, _)| f.raw())
            .collect(),
        other => panic!("{other:?}"),
    };
    cluster.rpc().deregister(b);
    client.index_files(files.iter().map(|&f| record(f, 2 << 20)).collect()).unwrap();

    // `b` comes back empty (in-memory cluster). The next batch's frames hit
    // a log gap there; the client closes it through `sync_replica` before
    // `index_files` returns.
    cluster.revive_index_node(b);
    client.index_files(files.iter().map(|&f| record(f, 3 << 20)).collect()).unwrap();
    let (on_a, on_b) = (acg_lsns(&cluster, a), acg_lsns(&cluster, b));
    for acg in &a_primary {
        assert!(on_a[acg] >= 3, "{acg}: three batches logged");
        assert_eq!(on_b.get(acg), on_a.get(acg), "{acg}: the revived follower converged");
    }
    cluster.shutdown();
}
