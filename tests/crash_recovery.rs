//! Durability integration tests: acknowledged index operations survive an
//! Index Node crash via WAL replay (paper §IV: requests are appended to a
//! write-ahead log before being cached), and committed state survives via
//! LSN-anchored snapshots plus WAL-suffix replay — all the way up to a
//! killed-and-revived node in a real cluster serving its pre-crash hits.

use std::sync::atomic::{AtomicU64, Ordering};

use propeller::cluster::{Cluster, ClusterConfig, Request, Response};
use propeller::index::{AcgIndexGroup, FileRecord, GroupConfig, IndexOp, Wal};
use propeller::query::{Cursor, FanOutPolicy, Hit, SearchRequest, SortKey};
use propeller::types::{AcgId, AttrName, Error, FileId, InodeAttrs, NodeId, Timestamp, Value};
use proptest::prelude::*;

fn record(file: u64, size: u64) -> FileRecord {
    FileRecord::new(FileId::new(file), InodeAttrs::builder().size(size).build())
}

fn temp_wal_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("propeller-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.wal"))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("propeller-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn acknowledged_but_uncommitted_ops_survive_crash() {
    let path = temp_wal_path("uncommitted");
    let _ = std::fs::remove_file(&path);
    // Phase 1: enqueue (acknowledge) ops but never commit, then "crash"
    // by dropping the group.
    {
        let wal = Wal::open(&path).unwrap();
        let mut group =
            AcgIndexGroup::new(AcgId::new(1), GroupConfig { wal, ..GroupConfig::default() });
        for i in 0..100 {
            group.enqueue(IndexOp::Upsert(record(i, i * 1024)), Timestamp::EPOCH).unwrap();
        }
        assert_eq!(group.pending_ops(), 100);
        assert_eq!(group.len(), 0, "nothing committed before the crash");
        // Drop without commit = crash.
    }
    // Phase 2: recover from the WAL.
    let wal = Wal::open(&path).unwrap();
    let (group, replayed) =
        AcgIndexGroup::recover(AcgId::new(1), GroupConfig { wal, ..GroupConfig::default() })
            .unwrap();
    assert_eq!(replayed, 100);
    assert_eq!(group.len(), 100);
    assert_eq!(group.lookup_eq(&AttrName::Size, &Value::U64(42 * 1024)), vec![FileId::new(42)]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn committed_prefix_plus_uncommitted_tail_recovers_exactly() {
    let path = temp_wal_path("mixed");
    let _ = std::fs::remove_file(&path);
    {
        let wal = Wal::open(&path).unwrap();
        let mut group =
            AcgIndexGroup::new(AcgId::new(1), GroupConfig { wal, ..GroupConfig::default() });
        for i in 0..50 {
            group.enqueue(IndexOp::Upsert(record(i, 1000)), Timestamp::EPOCH).unwrap();
        }
        group.commit(Timestamp::EPOCH).unwrap();
        for i in 50..80 {
            group.enqueue(IndexOp::Upsert(record(i, 2000)), Timestamp::EPOCH).unwrap();
        }
        // Crash with 50 committed and 30 uncommitted ops in the WAL.
    }
    // A file-backed WAL retains committed frames until a snapshot covers
    // them, so recovery replays BOTH the committed prefix and the
    // uncommitted tail — before this durability layer existed, the commit
    // truncated the log and the 50 committed ops were silently lost here
    // (a revived node came back empty).
    let wal = Wal::open(&path).unwrap();
    let (group, replayed) =
        AcgIndexGroup::recover(AcgId::new(1), GroupConfig { wal, ..GroupConfig::default() })
            .unwrap();
    assert_eq!(replayed, 80);
    assert_eq!(group.len(), 80);
    assert_eq!(group.lookup_eq(&AttrName::Size, &Value::U64(1000)).len(), 50);
    assert_eq!(group.lookup_eq(&AttrName::Size, &Value::U64(2000)).len(), 30);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_final_frame_is_discarded_on_recovery() {
    let path = temp_wal_path("torn");
    let _ = std::fs::remove_file(&path);
    {
        let mut wal = Wal::open(&path).unwrap();
        for i in 0..10 {
            wal.append(&IndexOp::encode_batch(&[IndexOp::Upsert(record(i, 7))])).unwrap();
        }
        wal.sync().unwrap();
    }
    // Simulate a torn write: append garbage that claims a huge length.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xFF, 0xFF, 0x00, 0x00, 1, 2, 3, 4, 9, 9]).unwrap();
    }
    let wal = Wal::open(&path).unwrap();
    let (group, replayed) =
        AcgIndexGroup::recover(AcgId::new(1), GroupConfig { wal, ..GroupConfig::default() })
            .unwrap();
    assert_eq!(replayed, 10, "valid prefix only");
    assert_eq!(group.len(), 10);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn ops_acknowledged_after_a_torn_tail_survive_the_next_crash() {
    // Crash #1 leaves a torn frame at the WAL's tail. The log is reopened
    // and more ops are acknowledged (appended) before crash #2. Recovery
    // must replay ALL acknowledged ops — the 10 before the torn frame and
    // the 10 after the reopen. `Wal::open` truncates the torn residue to
    // the valid prefix, so the new appends land where replay can reach
    // them; before the fix the garbage stayed in the file, the new frames
    // sat unreachable behind it, and this recovery came up 10 ops short.
    let path = temp_wal_path("torn-then-append");
    let _ = std::fs::remove_file(&path);
    {
        let mut wal = Wal::open(&path).unwrap();
        for i in 0..10 {
            wal.append(&IndexOp::encode_batch(&[IndexOp::Upsert(record(i, 7))])).unwrap();
        }
        wal.sync().unwrap();
        // Crash #1, mid-append of the 11th frame.
    }
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xFF, 0xFF, 0x00, 0x00, 1, 2, 3, 4, 9, 9]).unwrap();
    }
    {
        // The node reopens its log and keeps acknowledging ops.
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.entry_count(), 10, "valid prefix counted on reopen");
        for i in 100..110 {
            wal.append(&IndexOp::encode_batch(&[IndexOp::Upsert(record(i, 9))])).unwrap();
        }
        wal.sync().unwrap();
        // Crash #2.
    }
    let wal = Wal::open(&path).unwrap();
    let (group, replayed) =
        AcgIndexGroup::recover(AcgId::new(1), GroupConfig { wal, ..GroupConfig::default() })
            .unwrap();
    assert_eq!(replayed, 20, "every acknowledged op is replayed, across both crashes");
    assert_eq!(group.len(), 20);
    assert_eq!(group.lookup_eq(&AttrName::Size, &Value::U64(9)).len(), 10);
    assert_eq!(group.lookup_eq(&AttrName::Size, &Value::U64(7)).len(), 10);
    let _ = std::fs::remove_file(&path);
}

/// The committed record set of a group, sorted by file id — the state two
/// recoveries are compared on.
fn state_of(group: &AcgIndexGroup) -> Vec<FileRecord> {
    let mut records: Vec<FileRecord> = group.records().cloned().collect();
    records.sort_by_key(|r| r.file);
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The durability core invariant, across random op histories with
    /// random commit and snapshot points: recovering from
    /// (snapshot + WAL suffix) ≡ recovering from the full WAL ≡ the
    /// in-memory state of a group that never crashed.
    #[test]
    fn snapshot_plus_suffix_replay_equals_full_replay_and_memory(
        steps in prop::collection::vec((0u8..10, 0u64..40, 1u64..1000), 1..100),
        snap_points in prop::collection::vec(0usize..1000, 0..3),
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = temp_dir(&format!("prop-{case}"));
        let snapped_cfg = || GroupConfig {
            wal: Wal::open(dir.join("snapped.wal")).unwrap(),
            snapshot_dir: Some(dir.clone()),
            ..GroupConfig::default()
        };
        let logged_cfg = || GroupConfig {
            wal: Wal::open(dir.join("logged.wal")).unwrap(),
            ..GroupConfig::default()
        };
        let acg = AcgId::new(1);
        let snap_at: std::collections::HashSet<usize> =
            snap_points.iter().map(|ix| ix % steps.len()).collect();
        let t = Timestamp::EPOCH;

        // Three groups fed the identical acknowledged history: one with
        // snapshots, one with only its WAL, one in memory that never
        // crashes (the oracle).
        let mut snapped = AcgIndexGroup::new(acg, snapped_cfg());
        let mut logged = AcgIndexGroup::new(acg, logged_cfg());
        let mut memory = AcgIndexGroup::new(acg, GroupConfig::default());
        for (i, &(kind, file, size)) in steps.iter().enumerate() {
            let op = if kind < 7 {
                IndexOp::Upsert(record(file, size))
            } else {
                IndexOp::Remove(FileId::new(file))
            };
            for g in [&mut snapped, &mut logged, &mut memory] {
                g.enqueue(op.clone(), t).unwrap();
                if kind % 3 == 0 {
                    g.commit(t).unwrap();
                }
            }
            if snap_at.contains(&i) {
                snapped.commit(t).unwrap();
                snapped.snapshot().unwrap().unwrap();
            }
        }
        // The oracle observes every acknowledged op; the crashed groups
        // must reassemble exactly this.
        memory.commit(t).unwrap();
        drop(snapped);
        drop(logged);

        let (snapped, report) = AcgIndexGroup::recover_with_report(acg, snapped_cfg()).unwrap();
        let (logged, full_replayed) = AcgIndexGroup::recover(acg, logged_cfg()).unwrap();
        prop_assert_eq!(full_replayed, steps.len(), "full replay covers every acknowledged op");
        if !snap_at.is_empty() {
            prop_assert!(report.snapshot_lsn.is_some(), "snapshot anchor used: {:?}", report);
            prop_assert!(
                report.replayed_ops < steps.len() || report.snapshot_records == 0,
                "suffix replay is shorter than the history: {:?}",
                report
            );
        }
        prop_assert_eq!(state_of(&snapped), state_of(&memory));
        prop_assert_eq!(state_of(&logged), state_of(&memory));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Boots a durable cluster over `dir` with an aggressive snapshot trigger
/// and a namespace whose sizes fall with file id (deterministic sort
/// order), returning the cluster and the indexed records.
fn durable_cluster(dir: &std::path::Path, nodes: usize, files: u64) -> (Cluster, Vec<FileRecord>) {
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: nodes,
        group_capacity: 25,
        // Snapshot every ~10 logged ops: the revival paths below must
        // exercise snapshot + suffix recovery, not just WAL replay.
        snapshot_wal_ops: 10,
        data_dir: Some(dir.to_path_buf()),
        ..Default::default()
    });
    let records: Vec<FileRecord> = (0..files).map(|i| record(i, (files - i) << 10)).collect();
    let mut client = cluster.client();
    client.index_files(records.clone()).unwrap();
    (cluster, records)
}

fn kill(cluster: &Cluster, victim: NodeId) {
    cluster.rpc().call(victim, Request::Shutdown).unwrap();
    cluster.rpc().deregister(victim);
}

#[test]
fn killed_and_revived_node_serves_its_precrash_state_from_disk() {
    let dir = temp_dir("revive-e2e");
    let (mut cluster, _records) = durable_cluster(&dir, 3, 300);
    let client = cluster.client();
    let request = SearchRequest::parse("size>0", Timestamp::from_secs(1))
        .unwrap()
        .sorted_by(SortKey::Descending(AttrName::Size));
    let baseline = client.search_with(&request).unwrap();
    assert!(baseline.complete);
    assert_eq!(baseline.hits.len(), 300);

    // The victim's durable directory really holds snapshots (the
    // aggressive trigger fired through the IndexBatch path).
    let victim = cluster.index_node_ids()[0];
    let victim_dir = dir.join(format!("node-{}", victim.raw()));
    let snaps = std::fs::read_dir(&victim_dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .count();
    assert!(snaps > 0, "snapshot trigger never fired under {victim_dir:?}");

    // Kill and revive WITHOUT re-indexing: the node must restore every
    // committed record from snapshot + WAL suffix on its own.
    kill(&cluster, victim);
    assert!(client.search_with(&request).is_err(), "dead node fails require-all");
    cluster.revive_index_node(victim);
    let revived = client.search_with(&request).unwrap();
    assert!(revived.complete);
    assert_eq!(revived.hits, baseline.hits, "revival must be byte-identical");

    // The streamed (session) path agrees too.
    let topk = request.clone().with_limit(64);
    let streamed = client.search_with(&topk).unwrap();
    let one_shot = cluster.client().with_search_page_size(usize::MAX).search_with(&topk).unwrap();
    assert_eq!(streamed.hits, one_shot.hits);
    assert_eq!(&streamed.hits[..], &revived.hits[..64]);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn whole_cluster_restart_recovers_every_node_from_the_data_dir() {
    let dir = temp_dir("restart-e2e");
    let request = SearchRequest::parse("size>0", Timestamp::from_secs(1))
        .unwrap()
        .sorted_by(SortKey::Descending(AttrName::Size));
    let baseline = {
        let (cluster, _) = durable_cluster(&dir, 2, 200);
        let baseline = cluster.client().search_with(&request).unwrap();
        cluster.shutdown();
        baseline
    };
    assert_eq!(baseline.hits.len(), 200);
    // A brand-new cluster over the same data dir restores all index-node
    // state. (The Master's placements are rebuilt by re-resolving: client
    // routing metadata is not what this layer persists, so searches go
    // through LocateAcgs — which the revived nodes answer from disk.)
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: 2,
        group_capacity: 25,
        snapshot_wal_ops: 10,
        data_dir: Some(dir.clone()),
        ..Default::default()
    });
    // Re-register placements with the Master by replaying the heartbeat
    // round: revived nodes report their recovered ACGs.
    cluster.run_maintenance().unwrap();
    let restarted = cluster.client().search_with(&request).unwrap();
    assert_eq!(restarted.hits, baseline.hits);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_search_session_survives_node_revival_without_losing_hits() {
    // The `AllowPartial` silent-loss hole: a restarted node dropped its
    // session table AND its data, so a client's transparent reopen found
    // an empty node and the resumed stream silently lost that node's
    // remaining hits. With durable revival the reopen must find the data
    // and the concatenated pages must equal the uncrashed answer.
    let dir = temp_dir("session-revive");
    let (mut cluster, _) = durable_cluster(&dir, 2, 120);
    let victim = cluster.index_node_ids()[0];
    let acgs: Vec<AcgId> = match cluster.rpc().call(cluster.master_id(), Request::LocateAcgs) {
        Ok(Response::Located(rows)) => {
            rows.into_iter().filter(|(_, n)| n.contains(&victim)).map(|(a, _)| a).collect()
        }
        other => panic!("{other:?}"),
    };
    assert!(!acgs.is_empty());
    let now = Timestamp::from_secs(5);
    let request = SearchRequest::parse("size>0", now)
        .unwrap()
        .with_limit(60)
        .sorted_by(SortKey::Descending(AttrName::Size));

    // Uncrashed baseline: the node's one-shot answer for its ACGs.
    let baseline = match cluster.rpc().call(
        victim,
        Request::Search {
            acgs: acgs.clone(),
            request: request.clone(),
            now,
            ctx: propeller_obs::TraceContext::NONE,
        },
    ) {
        Ok(Response::SearchHits { hits, .. }) => hits,
        other => panic!("{other:?}"),
    };

    // Open a streamed session, pull one page, then crash the node.
    let open = Request::OpenSearch {
        acgs: acgs.clone(),
        expect: None,
        request: request.clone(),
        client: 1,
        page: 15,
        now,
        ctx: propeller_obs::TraceContext::NONE,
    };
    let (_session, first) = match cluster.rpc().call(victim, open) {
        Ok(Response::SearchPage { session, hits, exhausted, .. }) => {
            assert!(!exhausted);
            (session, hits)
        }
        other => panic!("{other:?}"),
    };
    kill(&cluster, victim);
    cluster.revive_index_node(victim);

    // The revived node no longer knows the session...
    let expired = cluster.rpc().call(
        victim,
        Request::PullHits { session: _session, page: 15, ctx: propeller_obs::TraceContext::NONE },
    );
    assert!(
        matches!(expired, Err(Error::SearchSessionExpired { .. })),
        "revived node must report the session expired, got {expired:?}"
    );
    // ...so the client's transparent-reopen protocol kicks in: resume
    // after the last received hit with the remaining entitlement. Before
    // durable revival this reopened over an EMPTY node and returned
    // nothing — the stream silently lost the rest of the node's hits.
    let resume = request
        .clone()
        .with_limit(60 - first.len())
        .after(Cursor::after(first.last().expect("first page non-empty")));
    let mut all: Vec<Hit> = first;
    let reopen = Request::OpenSearch {
        acgs: acgs.clone(),
        expect: None,
        request: resume,
        client: 1,
        page: 15,
        now,
        ctx: propeller_obs::TraceContext::NONE,
    };
    let (session, hits, mut exhausted) = match cluster.rpc().call(victim, reopen) {
        Ok(Response::SearchPage { session, hits, exhausted, .. }) => (session, hits, exhausted),
        other => panic!("{other:?}"),
    };
    all.extend(hits);
    while !exhausted {
        match cluster.rpc().call(
            victim,
            Request::PullHits { session, page: 15, ctx: propeller_obs::TraceContext::NONE },
        ) {
            Ok(Response::SearchPage { hits, exhausted: done, .. }) => {
                all.extend(hits);
                exhausted = done;
            }
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(all, baseline, "reopened session over the revived node loses nothing");

    // And the full client-side streamed path is whole again under
    // AllowPartial — no silently shortened stream.
    let client = cluster.client();
    let cluster_req = SearchRequest::parse("size>0", now)
        .unwrap()
        .with_limit(80)
        .sorted_by(SortKey::Descending(AttrName::Size))
        .with_fan_out(FanOutPolicy::AllowPartial { min_nodes: 1 });
    let streamed = client.search_with(&cluster_req).unwrap();
    assert!(streamed.complete);
    assert_eq!(streamed.hits.len(), 80);
    let one_shot =
        cluster.client().with_search_page_size(usize::MAX).search_with(&cluster_req).unwrap();
    assert_eq!(streamed.hits, one_shot.hits);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_preserves_removals_and_replacements() {
    let path = temp_wal_path("removals");
    let _ = std::fs::remove_file(&path);
    {
        let wal = Wal::open(&path).unwrap();
        let mut group =
            AcgIndexGroup::new(AcgId::new(1), GroupConfig { wal, ..GroupConfig::default() });
        group.enqueue(IndexOp::Upsert(record(1, 100)), Timestamp::EPOCH).unwrap();
        group.enqueue(IndexOp::Upsert(record(2, 100)), Timestamp::EPOCH).unwrap();
        group.enqueue(IndexOp::Remove(FileId::new(1)), Timestamp::EPOCH).unwrap();
        group.enqueue(IndexOp::Upsert(record(2, 999)), Timestamp::EPOCH).unwrap();
    }
    let wal = Wal::open(&path).unwrap();
    let (group, replayed) =
        AcgIndexGroup::recover(AcgId::new(1), GroupConfig { wal, ..GroupConfig::default() })
            .unwrap();
    assert_eq!(replayed, 4);
    assert_eq!(group.len(), 1);
    assert!(group.lookup_eq(&AttrName::Size, &Value::U64(100)).is_empty());
    assert_eq!(group.lookup_eq(&AttrName::Size, &Value::U64(999)), vec![FileId::new(2)]);
    let _ = std::fs::remove_file(&path);
}
