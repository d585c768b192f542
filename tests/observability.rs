//! Cluster-wide observability: propagated query traces assembled into one
//! tree, the per-node metrics registry merged across the cluster, the
//! slow-query log, and the per-node `SearchStats` latency breakdown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use propeller::cluster::{
    Cluster, ClusterConfig, IndexNode, IndexNodeConfig, Request, Response, TraceContext,
};
use propeller::query::{SearchRequest, SearchStats, SortKey};
use propeller::sim::{Clock, SimClock};
use propeller::types::{AcgId, AttrName, Duration, FileId, InodeAttrs, NodeId, Timestamp};
use propeller::FileRecord;
use propeller_obs::{names, Lane, SpanKind};
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

/// The acceptance scenario: a four-node replicated cluster where one
/// primary is killed. A single sampled streamed search must come back as
/// ONE assembled trace tree that names the dead node (an `Open` span that
/// found it unreachable) and the replica that answered in its place (the
/// group's next `Open` span, with the node-side search under it).
#[test]
fn failover_search_trace_names_dead_node_and_answering_replica() {
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: 4,
        group_capacity: 12,
        replication: 2,
        ..Default::default()
    });
    let mut client = cluster.client().with_search_page_size(8).with_trace_sampling(1);
    client.index_files((0..96).map(|i| record(i, (i + 1) << 20)).collect()).unwrap();

    // The victim leads at least one replica group, so that group's open
    // fails there and moves on to the group's second replica.
    let rows = placements(&cluster);
    let victim = rows[0].1[0];
    let backups: Vec<NodeId> =
        rows.iter().filter(|(_, r)| r[0] == victim).map(|(_, r)| r[1]).collect();
    cluster.rpc().call(victim, Request::Shutdown).unwrap();
    cluster.rpc().deregister(victim);

    let request = SearchRequest::parse("size>0", Timestamp::from_secs(1_000))
        .unwrap()
        .with_limit(40)
        .sorted_by(SortKey::Descending(AttrName::Size));
    let resp = client.search_with(&request).unwrap();
    assert!(resp.complete, "replication must absorb the dead node");

    let trace = client.last_trace_id().expect("every request is sampled");
    let tree = client.dump_trace(trace).unwrap();
    tree.check_well_formed().unwrap();

    // One root: the client-lane Request span covering the whole search.
    let roots = tree.find(SpanKind::Request);
    assert_eq!(roots.len(), 1, "one request, one root:\n{}", tree.render());
    assert!(matches!(roots[0].lane, Lane::Client(_)));

    // The dead node is named by the open attempt that found it gone.
    let opens = tree.find(SpanKind::Open);
    let dead_witness = format!("{victim} unreachable");
    assert!(
        opens.iter().any(|s| s.detail.contains(&dead_witness)),
        "no open names the dead node {victim}:\n{}",
        tree.render()
    );

    // The replica that answered is named by the open that reached it, and
    // its node-side search hangs under that open.
    let answered = opens
        .iter()
        .find(|s| backups.iter().any(|b| s.detail == format!("{b} ok=true")))
        .unwrap_or_else(|| panic!("no open names a backup of {victim}:\n{}", tree.render()));
    let spans = tree.spans();
    let served = spans
        .iter()
        .find(|s| s.kind == SpanKind::Search && s.parent == answered.id)
        .unwrap_or_else(|| panic!("no node-side search under {answered:?}:\n{}", tree.render()));
    assert!(
        matches!(served.lane, Lane::Node(n) if backups.iter().any(|b| u64::from(b.raw()) == n))
    );
    cluster.shutdown();
}

/// The actor→pool hand-off of every deferred search-family request
/// (`Search`, `OpenSearch`, `PullHits`) shows up as a `PoolJob` span under
/// that request's node-side service span, so it is no longer hidden in
/// the parent's self time.
#[test]
fn sampled_searches_record_the_pool_hand_off_under_their_service_span() {
    let cluster =
        Cluster::start(ClusterConfig { index_nodes: 2, group_capacity: 16, ..Default::default() });
    let mut client = cluster.client().with_search_page_size(4).with_trace_sampling(1);
    client.index_files((0..64).map(|i| record(i, (i + 1) << 20)).collect()).unwrap();
    let request = SearchRequest::parse("size>0", Timestamp::from_secs(1_000))
        .unwrap()
        .with_limit(24)
        .sorted_by(SortKey::Descending(AttrName::Size));

    let pool_job_parents = |tree: &propeller_obs::TraceTree| -> Vec<SpanKind> {
        let spans = tree.spans();
        tree.find(SpanKind::PoolJob)
            .iter()
            .map(|job| {
                assert!(matches!(job.lane, Lane::Node(_)), "recorded on the node: {job:?}");
                assert!(job.start <= job.end);
                spans.iter().find(|s| s.id == job.parent).expect("parent harvested").kind
            })
            .collect()
    };

    client.search_with(&request).unwrap();
    let tree = client.dump_trace(client.last_trace_id().unwrap()).unwrap();
    tree.check_well_formed().unwrap();
    let parents = pool_job_parents(&tree);
    let opens = tree.find(SpanKind::Search).len();
    let pulls =
        tree.find(SpanKind::Pull).iter().filter(|s| matches!(s.lane, Lane::Node(_))).count();
    assert!(opens >= 2 && pulls >= 1, "4-hit pages force pulls: {}", tree.render());
    assert_eq!(parents.iter().filter(|k| **k == SpanKind::Search).count(), opens);
    assert_eq!(parents.iter().filter(|k| **k == SpanKind::Pull).count(), pulls);
    assert_eq!(parents.len(), opens + pulls, "{}", tree.render());

    // Whole entitlement at open: no pulls, so every pool job is an open's.
    let one_shot = cluster.client().with_trace_sampling(1).with_search_page_size(usize::MAX);
    one_shot.search_with(&request).unwrap();
    let tree = one_shot.dump_trace(one_shot.last_trace_id().unwrap()).unwrap();
    tree.check_well_formed().unwrap();
    let parents = pool_job_parents(&tree);
    assert_eq!(parents.len(), tree.find(SpanKind::Search).len());
    assert!(!parents.is_empty() && parents.iter().all(|k| *k == SpanKind::Search));
    cluster.shutdown();
}

/// `Cluster::metrics_snapshot` merges every node's registry; histogram
/// buckets merge exactly, so cross-node quantiles come from one merged
/// distribution of wall-clock latencies.
#[test]
fn metrics_report_merges_histograms_across_nodes() {
    let cluster =
        Cluster::start(ClusterConfig { index_nodes: 4, group_capacity: 16, ..Default::default() });
    let mut client = cluster.client().with_search_page_size(usize::MAX);
    client.index_files((0..200).map(|i| record(i, (i + 1) << 10)).collect()).unwrap();

    let request = SearchRequest::parse("size>0", Timestamp::from_secs(10)).unwrap().with_limit(20);
    let searches = 5u64;
    for _ in 0..searches {
        client.search_with(&request).unwrap();
    }

    // The merged snapshot must equal the per-node snapshots folded by
    // hand — counters sum, histogram populations sum.
    let merged = cluster.metrics_snapshot();
    let mut served = 0u64;
    let mut latency_count = 0u64;
    for &node in cluster.index_node_ids() {
        match cluster.rpc().call(node, Request::Metrics) {
            Ok(Response::Metrics(snap)) => {
                served += snap.counters.get(names::SEARCHES_SERVED).copied().unwrap_or(0);
                latency_count +=
                    snap.histograms.get(names::SEARCH_LATENCY).map(|h| h.count).unwrap_or(0);
            }
            other => panic!("{other:?}"),
        }
    }
    assert!(served >= searches, "every search fans out to at least one node");
    assert_eq!(merged.counters[names::SEARCHES_SERVED], served);
    assert_eq!(merged.histograms[names::SEARCH_LATENCY].count, latency_count);

    // Client-lane latencies ride the wall clock: a search crosses the
    // fabric to four node threads, so p50/p99 measure real elapsed time.
    let mut with_client = merged.clone();
    with_client.merge(&client.obs().metrics.snapshot());
    let h = &with_client.histograms[names::CLIENT_SEARCH_LATENCY];
    assert_eq!(h.count, searches);
    let (p50, p99) = (h.quantile(0.50), h.quantile(0.99));
    assert!(p50 > 0, "real elapsed time must be visible");
    assert!(p99 >= p50, "quantiles are monotone");

    // The rendered report carries the merged series.
    let report = cluster.metrics_report();
    assert!(report.contains(names::SEARCHES_SERVED));
    assert!(report.contains(names::SEARCH_LATENCY));
    cluster.shutdown();
}

/// With a zero threshold every search is "slow": each serving node
/// captures the request, its plan, the rendered stats and its share of
/// the span tree into the bounded ring, dumpable cluster-wide.
#[test]
fn slow_query_log_captures_plan_stats_and_spans() {
    let sim = SimClock::new();
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: 2,
        group_capacity: 16,
        sim_clock: Some(sim.clone()),
        slow_query_threshold: Some(Duration::ZERO),
        ..Default::default()
    });
    let mut client = cluster.client().with_trace_sampling(1).with_search_page_size(usize::MAX);
    client.index_files((0..40).map(|i| record(i, 1 << 20)).collect()).unwrap();

    let request = SearchRequest::parse("size>0", Timestamp::from_secs(10)).unwrap().with_limit(10);
    client.search_with(&request).unwrap();

    let slow = cluster.slow_queries();
    assert!(!slow.is_empty(), "a zero threshold captures every search");
    for q in &slow {
        assert!(matches!(q.lane, Lane::Node(_)), "nodes capture their own service time");
        assert!(q.query.contains("Size"), "the predicate is rendered: {}", q.query);
        assert!(!q.plan.is_empty(), "the chosen access path per ACG is kept");
        assert!(q.stats.contains("elapsed"), "full SearchStats rendered: {}", q.stats);
        assert_ne!(q.trace, 0, "sampled requests keep their trace id");
        assert!(!q.spans.is_empty(), "the lane's share of the trace rides along");
    }
    let snap = cluster.metrics_snapshot();
    assert!(snap.counters[names::SLOW_QUERIES] >= slow.len() as u64);
    cluster.shutdown();
}

/// Satellite: `SearchStats::elapsed` stays the max across nodes, but the
/// per-node `(node, elapsed)` breakdown pinpoints who was slow. Structure
/// over a live cluster: one row per contacted node, and `slowest_node`
/// returns the row with the maximum elapsed.
#[test]
fn one_shot_search_reports_per_node_latency_breakdown() {
    let cluster =
        Cluster::start(ClusterConfig { index_nodes: 4, group_capacity: 16, ..Default::default() });
    let mut client = cluster.client().with_search_page_size(usize::MAX);
    client.index_files((0..120).map(|i| record(i, 1 << 20)).collect()).unwrap();

    let request = SearchRequest::parse("size>0", Timestamp::from_secs(10)).unwrap().with_limit(50);
    let resp = client.search_with(&request).unwrap();

    let rows = &resp.stats.node_elapsed;
    assert_eq!(rows.len(), 4, "every contacted node reports a row: {rows:?}");
    let mut ids: Vec<NodeId> = rows.iter().map(|&(n, _)| n).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 4, "one row per node: {rows:?}");
    let (slow_node, slow_elapsed) = resp.stats.slowest_node().unwrap();
    assert!(rows.iter().all(|&(_, d)| d <= slow_elapsed));
    assert!(rows.iter().any(|&(n, _)| n == slow_node));
    assert!(resp.stats.elapsed >= slow_elapsed, "client round trip bounds node service time");
    cluster.shutdown();
}

/// A clock that advances a fixed step on every reading: a node driven by
/// a coarse step measures a deterministically larger service time than a
/// node on a fine step — no wall time, no sleeps.
#[derive(Debug)]
struct TickClock {
    t: AtomicU64,
    step: u64,
}

impl TickClock {
    fn new(step_micros: u64) -> Self {
        TickClock { t: AtomicU64::new(1_000_000), step: step_micros }
    }
}

impl Clock for TickClock {
    fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.t.fetch_add(self.step, Ordering::SeqCst))
    }
}

/// Satellite witness, fully deterministic: two Index Nodes on injected
/// ticking clocks. The coarse-clock node's measured service time dwarfs
/// the fine-clock node's, and the absorbed breakdown names it.
#[test]
fn slow_node_witness_is_deterministic_under_injected_clocks() {
    let run = |id: u32, step: u64| -> SearchStats {
        let mut node = IndexNode::new(NodeId::new(id), IndexNodeConfig::default())
            .with_clock(Arc::new(TickClock::new(step)));
        let ops = (0..50).map(|i| propeller::index::IndexOp::Upsert(record(i, 1 << 20))).collect();
        node.handle(Request::IndexBatch {
            acg: AcgId::new(1),
            ops,
            now: Timestamp::from_secs(1),
            ctx: TraceContext::NONE,
        });
        let request =
            SearchRequest::parse("size>0", Timestamp::from_secs(2)).unwrap().with_limit(10);
        match node.handle(Request::Search {
            acgs: vec![AcgId::new(1)],
            request,
            now: Timestamp::from_secs(2),
            ctx: TraceContext::NONE,
        }) {
            Response::SearchHits { stats, .. } => stats,
            other => panic!("{other:?}"),
        }
    };

    // 1 ms per clock reading vs 1 µs per reading.
    let slow = run(7, 1_000);
    let fast = run(8, 1);
    assert_eq!(slow.node_elapsed.len(), 1);
    assert_eq!(slow.node_elapsed[0].0, NodeId::new(7));
    assert!(slow.node_elapsed[0].1 > fast.node_elapsed[0].1);

    let mut merged = fast.clone();
    merged.absorb(slow.clone());
    assert_eq!(merged.node_elapsed.len(), 2, "breakdown keeps both rows");
    let (witness, elapsed) = merged.slowest_node().unwrap();
    assert_eq!(witness, NodeId::new(7), "the coarse-clock node is the slow one");
    assert_eq!(elapsed, slow.node_elapsed[0].1);
    assert_eq!(merged.elapsed, slow.elapsed.max(fast.elapsed), "elapsed stays the max");
}

/// Satellite: the client's route-cache counters, observed through the
/// metrics registry across a real split. Indexing twice through a
/// capacity-bounded cache produces hits, misses and evictions; a
/// maintenance split moves files, and the Master's piggybacked hints
/// invalidate their cached routes on the next resolve.
#[test]
fn route_cache_counters_cover_eviction_and_split_invalidation() {
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: 2,
        group_capacity: 1000,
        split_threshold: 50,
        ..Default::default()
    });
    let counters = |c: &propeller::cluster::FileQueryEngine, name: &str| -> u64 {
        c.obs().metrics.snapshot().counters.get(name).copied().unwrap_or(0)
    };

    // A tiny cache under a 120-file working set must evict.
    let mut small = cluster.client().with_route_cache_capacity(8);
    small.index_files((0..120).map(|i| record(i, 1)).collect()).unwrap();
    small.index_files((0..120).map(|i| record(i, 2)).collect()).unwrap();
    assert!(counters(&small, names::ROUTE_CACHE_MISSES) >= 120, "cold cache misses");
    assert!(counters(&small, names::ROUTE_CACHE_EVICTIONS) > 0, "8 slots cannot hold 120 routes");

    // A roomy cache re-used across a split: the second pass hits the
    // cache, then the split's route hints invalidate the moved files.
    let mut roomy = cluster.client();
    roomy.index_files((0..120).map(|i| record(i, 3)).collect()).unwrap();
    roomy.index_files((0..120).map(|i| record(i, 4)).collect()).unwrap();
    assert!(counters(&roomy, names::ROUTE_CACHE_HITS) >= 120, "warm cache hits");
    assert_eq!(counters(&roomy, names::ROUTE_CACHE_INVALIDATIONS), 0);

    let splits = cluster.run_maintenance().unwrap();
    assert!(splits >= 1, "120 files over a 50-file threshold must split");
    // Resolving anything new piggybacks the split's route hints while the
    // moved files' routes are still cached — they get invalidated even
    // though this batch never touches them.
    roomy.index_files((200..210).map(|i| record(i, 9)).collect()).unwrap();
    assert!(
        counters(&roomy, names::ROUTE_CACHE_INVALIDATIONS) > 0,
        "split hints must invalidate moved routes"
    );
    // Invalidated routes re-resolve (or ride the stale-route retry) and
    // the batches still land.
    roomy.index_files((0..120).map(|i| record(i, 5)).collect()).unwrap();
    assert_eq!(roomy.search_text("size>4").unwrap().len(), 130);
    cluster.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: under concurrent search and ingest, every harvested
    /// trace assembles into a single well-formed tree — one root, no
    /// orphans, children nested inside their parents' windows.
    #[test]
    fn harvested_span_trees_are_well_formed_under_concurrent_search_and_ingest(
        batches in 1usize..4,
        batch_size in 1u64..30,
        searches in 1usize..5,
        limit in 1usize..20,
    ) {
        let cluster = Cluster::start(ClusterConfig {
            index_nodes: 2,
            group_capacity: 16,
            ..Default::default()
        });
        let mut seeder = cluster.client().with_trace_sampling(1);
        seeder.index_files((0..40).map(|i| record(i, (i + 1) << 10)).collect()).unwrap();

        let mut ingest_client = cluster.client().with_trace_sampling(1);
        let search_client =
            cluster.client().with_trace_sampling(1).with_search_page_size(usize::MAX);
        let request = SearchRequest::parse("size>0", Timestamp::from_secs(10))
            .unwrap()
            .with_limit(limit);

        let ingest = std::thread::spawn(move || -> Result<usize, String> {
            let mut checked = 0;
            for b in 0..batches {
                let lo = 1_000 + (b as u64) * batch_size;
                ingest_client
                    .index_files((lo..lo + batch_size).map(|i| record(i, 1 << 12)).collect())
                    .map_err(|e| e.to_string())?;
                let trace = ingest_client.last_trace_id().ok_or("ingest not sampled")?;
                let tree = ingest_client.dump_trace(trace).map_err(|e| e.to_string())?;
                tree.check_well_formed()?;
                checked += 1;
            }
            Ok(checked)
        });
        let search = std::thread::spawn(move || -> Result<usize, String> {
            let mut checked = 0;
            for _ in 0..searches {
                search_client.search_with(&request).map_err(|e| e.to_string())?;
                let trace = search_client.last_trace_id().ok_or("search not sampled")?;
                let tree = search_client.dump_trace(trace).map_err(|e| e.to_string())?;
                tree.check_well_formed()?;
                if tree.find(SpanKind::Search).is_empty() {
                    return Err("a search trace must reach the node lanes".to_string());
                }
                checked += 1;
            }
            Ok(checked)
        });
        let ingested = ingest.join().expect("ingest thread must not panic");
        let searched = search.join().expect("search thread must not panic");
        prop_assert_eq!(ingested.map_err(|e| e.to_string()), Ok(batches));
        prop_assert_eq!(searched.map_err(|e| e.to_string()), Ok(searches));
        cluster.shutdown();
    }
}
