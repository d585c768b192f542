//! Regression guard for the thread-free client fan-out: once a cluster is
//! warm, no search and no ingest batch creates a thread; and single-node
//! `Propeller`, whose nodes are served inline, starts none to boot and none
//! once warm for ingest, search or maintenance. Thread ids are
//! handed out by one process-wide counter, so two probe threads spawned
//! either side of the workload have consecutive ids exactly when nothing
//! in between spawned one. This file holds a single `#[test]` on purpose —
//! it is its own process, and no sibling test creates threads meanwhile.

use propeller::cluster::{Cluster, ClusterConfig};
use propeller::query::{SearchRequest, SortKey};
use propeller::sim::Latency;
use propeller::types::{AttrName, Duration, FileId, InodeAttrs, Timestamp};
use propeller::{FileRecord, Propeller, PropellerConfig};

fn record(file: u64, size: u64) -> FileRecord {
    FileRecord::new(FileId::new(file), InodeAttrs::builder().size(size).build())
}

/// Spawns and joins a thread, returning the number in its `ThreadId`.
fn probe_thread_id() -> u64 {
    let id = std::thread::spawn(|| std::thread::current().id()).join().unwrap();
    let shown = format!("{id:?}");
    shown.trim_start_matches("ThreadId(").trim_end_matches(')').parse().expect(&shown)
}

#[test]
fn warm_searches_and_ingest_batches_create_no_threads() {
    // In memory (no lazily started snapshot writer), R=2 on 2 nodes: every
    // ACG is on both nodes, so every ingest batch replicates.
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: 2,
        group_capacity: 10,
        replication: 2,
        ..Default::default()
    });
    let mut client = cluster.client().with_search_page_size(8);
    let straggler = cluster.index_node_ids()[0];

    let top_k = SearchRequest::parse("size>0", Timestamp::from_secs(1_000))
        .unwrap()
        .with_limit(40)
        .sorted_by(SortKey::Descending(AttrName::Size));
    let unlimited = SearchRequest::parse("size>0", Timestamp::from_secs(1_000)).unwrap();
    // Every ACG leads with one of the two nodes, so a search over all of
    // them opens at the straggler and its deliveries go through the
    // fabric's delay executor.
    let delay = Duration::from_millis(5);
    let slowed_search = |reader: &propeller::cluster::FileQueryEngine| {
        cluster.rpc().slowdowns().set(straggler, Latency::constant(delay));
        let started = std::time::Instant::now();
        let out = reader.search_with(&top_k).unwrap();
        assert!(started.elapsed() >= delay.to_std(), "the search waits out the injected delay");
        cluster.rpc().slowdowns().clear(straggler);
        out
    };

    // Warm-up: the nodes' lazy worker pools and the fabric's delay
    // executor each start their one long-lived thread on first use.
    client.index_files((0..210).map(|i| record(i, (i + 1) << 20)).collect()).unwrap();
    let baseline = client.search_with(&top_k).unwrap();
    assert_eq!(baseline.hits.len(), 40);
    assert_eq!(client.search_with(&unlimited).unwrap().hits.len(), 210);
    assert_eq!(slowed_search(&client).hits, baseline.hits);

    let before = probe_thread_id();

    for i in 0..200 {
        match i % 20 {
            0 => assert_eq!(slowed_search(&client).hits, baseline.hits),
            n if n % 2 == 0 => assert_eq!(client.search_with(&top_k).unwrap().hits, baseline.hits),
            _ => assert_eq!(client.search_with(&unlimited).unwrap().hits.len(), 210),
        }
    }
    for round in 0..50u64 {
        // 100 fresh files at 10 per ACG: each batch spans ≥ 10 ACGs, each
        // with a follower frame.
        let files = 1_000 + round * 100..1_100 + round * 100;
        client.index_files(files.clone().map(|i| record(i, 1)).collect()).unwrap();
        client.remove_files(files.map(FileId::new).collect()).unwrap();
    }
    assert_eq!(client.search_with(&top_k).unwrap().hits, baseline.hits);

    let after = probe_thread_id();
    assert_eq!(
        after,
        before + 1,
        "{} thread(s) were created by 200 searches and 100 ingest batches on a warm cluster",
        after - before - 1
    );
    cluster.shutdown();

    // Single-node mode: booting serves both nodes inline, on this thread.
    let before = probe_thread_id();
    let mut service = Propeller::new(PropellerConfig {
        group_capacity: 100,
        split_threshold: 40,
        ..PropellerConfig::default()
    });
    let after = probe_thread_id();
    assert_eq!(after, before + 1, "Propeller::new created {} thread(s)", after - before - 1);

    // Warm-up: the Index Node's search pool starts on the first search.
    service.index_batch((0..100).map(|i| record(i, (i + 1) << 20)).collect()).unwrap();
    // Splits move hits between ACGs, so rounds compare the files alone.
    let ids = |hits: Vec<propeller::query::Hit>| hits.into_iter().map(|h| h.file).collect();
    let top: Vec<FileId> = ids(service.search_with(&top_k).unwrap().hits);
    assert_eq!(top.len(), 40);
    assert!(service.maintenance().unwrap() >= 1, "the warm-up must split");

    let before = probe_thread_id();
    let mut splits = 0;
    for round in 0..20u64 {
        let files = 1_000 + round * 50..1_050 + round * 50;
        service.index_batch(files.map(|i| record(i, 1)).collect()).unwrap();
        assert_eq!(ids(service.search_with(&top_k).unwrap().hits), top);
        let unlimited_hits = service.search_with(&unlimited).unwrap().hits.len() as u64;
        assert_eq!(unlimited_hits, 150 + round * 50);
        splits += service.maintenance().unwrap();
    }
    assert!(splits > 0, "maintenance must split on the warm service too");
    let after = probe_thread_id();
    assert_eq!(
        after,
        before + 1,
        "{} thread(s) were created by 20 rounds of ingest, search and maintenance on a warm \
         single-node service",
        after - before - 1
    );
}
