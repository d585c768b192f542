//! Cross-crate integration tests: the full public API, single-node and
//! cluster, checked against brute-force ground truth.

use propeller::baselines::{BruteForce, CentralDb};
use propeller::storage::SharedStorage;
use propeller::types::{AttrName, FileId, InodeAttrs, Timestamp};
use propeller::{
    Cluster, ClusterConfig, FileRecord, Hit, IndexSpec, Propeller, PropellerConfig, Query,
    SearchRequest,
};
use std::sync::Arc;

fn record(file: u64, size: u64, mtime_s: u64, uid: u32) -> FileRecord {
    FileRecord::new(
        FileId::new(file),
        InodeAttrs::builder().size(size).mtime(Timestamp::from_secs(mtime_s)).uid(uid).build(),
    )
}

/// The client's route cache is capacity-bounded; evicted routes
/// re-resolve through the Master transparently (updates keep landing in
/// the right groups, searches stay exact).
#[test]
fn bounded_route_cache_evicts_and_re_resolves_correctly() {
    let cluster =
        Cluster::start(ClusterConfig { index_nodes: 2, group_capacity: 10, ..Default::default() });
    let mut client = cluster.client().with_route_cache_capacity(16);
    client.index_files((0..100u64).map(|i| record(i, 1 << 20, i, 0)).collect()).unwrap();
    assert!(client.cached_routes() <= 16, "cache grew past its bound: {}", client.cached_routes());

    // Files 0..84 were evicted along the way. Updating them re-resolves
    // through the Master and still lands in their original ACGs: the
    // update must replace, not duplicate.
    client.index_files((0..50u64).map(|i| record(i, 2 << 20, i, 7)).collect()).unwrap();
    assert!(client.cached_routes() <= 16);
    let hits = client.search_text("uid=7").unwrap();
    assert_eq!(hits.len(), 50, "every updated record found exactly once");
    let all = client.search_text("size>0").unwrap();
    assert_eq!(all.len(), 100, "no duplicates, no losses after eviction");

    // Removal through re-resolved routes works too.
    client.remove_files((0..10).map(FileId::new).collect()).unwrap();
    assert_eq!(client.search_text("size>0").unwrap().len(), 90);

    // Prime 96..100 into the cache, then send a mixed hit/miss batch
    // whose 40 fresh resolutions overflow the 16-route cache: the batch's
    // own cache hits must not be lost mid-resolve.
    client.index_files((96..100u64).map(|i| record(i, 3 << 20, i, 9)).collect()).unwrap();
    let mut batch: Vec<FileRecord> = (96..100u64).map(|i| record(i, 4 << 20, i, 9)).collect();
    batch.extend((200..240u64).map(|i| record(i, 1 << 20, i, 9)));
    client.index_files(batch).unwrap();
    assert_eq!(client.search_text("uid=9").unwrap().len(), 44);
    cluster.shutdown();
}

/// Every query must return exactly what a full scan returns.
#[test]
fn single_node_agrees_with_brute_force_on_every_query() {
    let storage = Arc::new(SharedStorage::new());
    let mut service = Propeller::new(PropellerConfig::default());
    let mut rng_state = 0xDEADBEEFu64;
    let mut next = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    for i in 0..3_000u64 {
        let size = next() % (64 << 20);
        let mtime = next() % 1_000_000;
        let uid = (next() % 5) as u32;
        let attrs =
            InodeAttrs::builder().size(size).mtime(Timestamp::from_secs(mtime)).uid(uid).build();
        storage.create(&format!("/f{i}"), attrs).unwrap();
        service.index_file(FileRecord::new(FileId::new(i), attrs)).unwrap();
    }
    let brute = BruteForce::new(storage);
    let now = Timestamp::from_secs(2_000_000);
    for text in [
        "size>16m",
        "size<=4k",
        "size>1m & size<32m",
        "uid=3",
        "uid=3 & size>8m",
        "mtime>500000",
        "size>16m | uid=0",
        "!(size>1m)",
        "*",
    ] {
        let q = Query::parse(text, now).unwrap();
        let got = service.search(&q.predicate).unwrap();
        let expected = brute.query(&q.predicate);
        assert_eq!(got, expected, "query {text}");
    }
}

/// Propeller, the centralized baseline and brute force agree on results;
/// they differ only in cost.
#[test]
fn all_three_systems_return_identical_results() {
    let storage = Arc::new(SharedStorage::new());
    let mut service = Propeller::new(PropellerConfig::default());
    let mut db = CentralDb::new();
    for i in 0..1_000u64 {
        let attrs = InodeAttrs::builder().size(i * 4096).mtime(Timestamp::from_secs(i)).build();
        storage.create(&format!("/f{i}"), attrs).unwrap();
        let rec = FileRecord::new(FileId::new(i), attrs).with_keyword(if i % 7 == 0 {
            "seven"
        } else {
            "other"
        });
        service.index_file(rec.clone()).unwrap();
        db.upsert(rec);
    }
    let brute = BruteForce::new(storage);
    let now = Timestamp::from_secs(10_000);
    for text in ["size>1m", "keyword:seven", "keyword:seven & size>100k"] {
        let q = Query::parse(text, now).unwrap();
        let pp = service.search(&q.predicate).unwrap();
        let sql = db.query(&q.predicate);
        assert_eq!(pp, sql, "propeller vs centraldb on {text}");
        if !text.contains("keyword") {
            // Brute force scans shared storage, which has no keywords.
            assert_eq!(pp, brute.query(&q.predicate), "vs brute on {text}");
        }
    }
}

/// The paper's core guarantee: a search observes every acknowledged
/// update, interleaved arbitrarily.
#[test]
fn search_is_always_consistent_with_acknowledged_updates() {
    let mut service = Propeller::new(PropellerConfig::default());
    let mut expected_big = 0usize;
    for i in 0..500u64 {
        let size = if i % 3 == 0 { 20 << 20 } else { 1 << 10 };
        if size > 16 << 20 {
            expected_big += 1;
        }
        service.index_file(record(i, size, i, 0)).unwrap();
        if i % 7 == 0 {
            let hits = service.search_text("size>16m").unwrap();
            assert_eq!(hits.len(), expected_big, "after update {i}");
        }
    }
}

#[test]
fn cluster_matches_single_node_results() {
    let cluster =
        Cluster::start(ClusterConfig { index_nodes: 4, group_capacity: 100, ..Default::default() });
    let mut client = cluster.client();
    let mut single = Propeller::new(PropellerConfig::default());
    let records: Vec<FileRecord> =
        (0..2_000u64).map(|i| record(i, (i % 128) << 20, i, (i % 3) as u32)).collect();
    client.index_files(records.clone()).unwrap();
    for r in records {
        single.index_file(r).unwrap();
    }
    for text in ["size>64m", "uid=1 & size>100m", "size<1m"] {
        let q = Query::parse(text, Timestamp::from_secs(10_000)).unwrap();
        let from_cluster = client.search(&q.predicate).unwrap();
        let from_single = single.search(&q.predicate).unwrap();
        assert_eq!(from_cluster, from_single, "query {text}");
    }
    cluster.shutdown();
}

#[test]
fn cluster_survives_maintenance_and_splits_under_load() {
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: 3,
        group_capacity: 2_000,
        split_threshold: 300,
        ..Default::default()
    });
    let mut client = cluster.client();
    client.index_files((0..1_000u64).map(|i| record(i, 1 << 20, i, 0)).collect()).unwrap();
    let mut total_splits = 0;
    for _ in 0..4 {
        total_splits += cluster.run_maintenance().unwrap();
    }
    assert!(total_splits >= 1, "oversized groups must split");
    // Nothing lost, nothing duplicated.
    let hits = client.search_text("size>0").unwrap();
    assert_eq!(hits.len(), 1_000);
    cluster.shutdown();
}

/// Single-node mode and a one-node cluster drive the same maintenance
/// coordinator: the same splits happen in the same rounds, and every file
/// ends up in the same ACG.
#[test]
fn single_node_and_one_node_cluster_split_identically() {
    let records = || (0..300u64).map(|i| record(i, (i + 1) << 10, i, 0)).collect::<Vec<_>>();
    let mut single = Propeller::new(PropellerConfig { split_threshold: 100, ..Default::default() });
    single.index_batch(records()).unwrap();
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: 1,
        split_threshold: 100,
        ..Default::default()
    });
    let mut client = cluster.client();
    client.index_files(records()).unwrap();

    let single_splits: Vec<usize> = (0..3).map(|_| single.maintenance().unwrap()).collect();
    let cluster_splits: Vec<usize> = (0..3).map(|_| cluster.run_maintenance().unwrap()).collect();
    assert_eq!(single_splits, cluster_splits);
    assert!(single_splits.iter().sum::<usize>() >= 2, "300 files over 100 must split twice");

    let request = SearchRequest::parse("size>=0", Timestamp::EPOCH).unwrap();
    let homes = |hits: Vec<Hit>| hits.into_iter().map(|h| (h.file, h.acg)).collect::<Vec<_>>();
    let from_single = homes(single.search_with(&request).unwrap().hits);
    let from_cluster = homes(client.search_with(&request).unwrap().hits);
    assert_eq!(from_single.len(), 300);
    assert_eq!(from_single, from_cluster);
    cluster.shutdown();
}

#[test]
fn custom_index_round_trip_through_cluster() {
    let cluster = Cluster::start(ClusterConfig::default());
    let mut client = cluster.client();
    client.create_index(IndexSpec::hash("by_uid", AttrName::Uid)).unwrap();
    client.index_files((0..50u64).map(|i| record(i, 1024, 0, (i % 5) as u32)).collect()).unwrap();
    let hits = client.search_text("uid=2").unwrap();
    assert_eq!(hits.len(), 10);
    cluster.shutdown();
}

#[test]
fn removed_files_stay_gone_across_systems() {
    let mut service = Propeller::new(PropellerConfig::default());
    for i in 0..100u64 {
        service.index_file(record(i, 1 << 20, i, 0)).unwrap();
    }
    for i in (0..100u64).step_by(2) {
        service.remove_file(FileId::new(i)).unwrap();
    }
    let hits = service.search_text("size>0").unwrap();
    assert_eq!(hits.len(), 50);
    assert!(hits.iter().all(|f| f.raw() % 2 == 1));
}
