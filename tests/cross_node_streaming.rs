//! Cluster-level coverage for the **cross-node streaming top-k cutoff**:
//! the streamed session protocol (`OpenSearch`/`PullHits`/`CloseSearch`
//! driven by the client's cluster-wide k-way merge) must return hits
//! byte-identical to the one-shot k-per-node exchange — across random
//! predicates, sorts, limits, node counts and page sizes — while shipping
//! measurably fewer hits over the wire, and must degrade safely when
//! sessions are evicted, nodes die mid-stream, or ACGs split mid-pull.

use propeller::cluster::{Cluster, ClusterConfig, Request, Response};
use propeller::query::{run_local_search, Hit, SearchRequest, SortKey};
use propeller::types::{AttrName, Error, FileId, InodeAttrs, NodeId, Timestamp, Value};
use propeller::{FanOutPolicy, FileRecord};
use proptest::prelude::*;

fn now() -> Timestamp {
    Timestamp::from_secs(1_000)
}

fn record(file: u64, size: u64, mtime: u64, uid: u32) -> FileRecord {
    FileRecord::new(
        FileId::new(file),
        InodeAttrs::builder().size(size).mtime(Timestamp::from_micros(mtime)).uid(uid).build(),
    )
}

/// Hits come back ACG-tagged from the cluster; the brute-force oracle
/// runs untagged.
fn untagged(hits: &[Hit]) -> Vec<Hit> {
    hits.iter().map(|h| Hit { acg: None, ..h.clone() }).collect()
}

/// Records with attribute values drawn from small ranges so random
/// comparisons actually split the data set.
fn arb_records() -> impl Strategy<Value = Vec<FileRecord>> {
    prop::collection::vec((0u64..250, 0u64..250, 0u64..4), 1..120).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (size, mtime, uid))| record(i as u64, size, mtime, uid as u32))
            .collect()
    })
}

fn arb_leaf() -> BoxedStrategy<propeller::query::Predicate> {
    use propeller::query::{CompareOp, Predicate};
    (0u64..3, 0u64..6, 0u64..250)
        .prop_map(|(attr, op, v)| {
            let attr = match attr {
                0 => AttrName::Size,
                1 => AttrName::Mtime,
                _ => AttrName::Uid,
            };
            let op = match op {
                0 => CompareOp::Eq,
                1 => CompareOp::Ne,
                2 => CompareOp::Lt,
                3 => CompareOp::Le,
                4 => CompareOp::Gt,
                _ => CompareOp::Ge,
            };
            Predicate::cmp(attr, op, Value::U64(v))
        })
        .boxed()
}

fn arb_request() -> impl Strategy<Value = SearchRequest> {
    use propeller::query::Predicate;
    let pred = prop_oneof![
        arb_leaf(),
        prop::collection::vec(arb_leaf(), 1..3).prop_map(Predicate::And),
        prop::collection::vec(arb_leaf(), 1..3).prop_map(Predicate::Or),
    ];
    let sort = prop_oneof![
        (0u64..1).prop_map(|_| SortKey::FileId),
        (0u64..2, prop::bool::ANY).prop_map(|(attr, desc)| {
            let attr = if attr == 0 { AttrName::Size } else { AttrName::Mtime };
            if desc {
                SortKey::Descending(attr)
            } else {
                SortKey::Ascending(attr)
            }
        }),
    ];
    let limit = prop_oneof![(0u64..1).prop_map(|_| None), (1usize..60).prop_map(Some)];
    (pred, sort, limit).prop_map(|(pred, sort, limit)| {
        let mut req = SearchRequest::new(pred).sorted_by(sort);
        if let Some(k) = limit {
            req = req.with_limit(k);
        }
        req
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline equivalence: across random data sets, predicates,
    /// sorts, limits, node counts and page sizes, the streamed session
    /// protocol returns **byte-identical** hits (and the same
    /// completeness marker and continuation cursor) as the one-shot
    /// exchange, and both agree with a brute-force linear scan.
    #[test]
    fn streamed_equals_one_shot_equals_brute_force(
        records in arb_records(),
        req in arb_request(),
        nodes in 1usize..4,
        page in prop_oneof![
            (0u64..1).prop_map(|_| 1usize),
            (0u64..1).prop_map(|_| 3usize),
            (0u64..1).prop_map(|_| 16usize),
            (0u64..1).prop_map(|_| 256usize),
        ],
    ) {
        let cluster = Cluster::start(ClusterConfig {
            index_nodes: nodes,
            group_capacity: 24, // several ACGs per node
            ..ClusterConfig::default()
        });
        let mut client = cluster.client().with_search_page_size(page);
        client.index_files(records.clone()).unwrap();

        // The one-shot exchange: every group ships its whole entitlement
        // at open, no pulls.
        let one_shot =
            cluster.client().with_search_page_size(usize::MAX).search_with(&req).unwrap();
        let streamed = client.search_with(&req).unwrap();
        prop_assert_eq!(&streamed.hits, &one_shot.hits, "streamed vs one-shot hits");
        prop_assert_eq!(streamed.complete, one_shot.complete);
        prop_assert_eq!(&streamed.cursor, &one_shot.cursor, "continuation cursors agree");

        let brute = run_local_search(records, &req);
        prop_assert_eq!(untagged(&streamed.hits), untagged(&brute.hits), "streamed vs brute");

        // Default paging (sized from the limit, doubling per page) gives
        // the same answer.
        let dispatched = cluster.client().search_with(&req).unwrap();
        prop_assert_eq!(&dispatched.hits, &one_shot.hits);
        cluster.shutdown();
    }
}

#[test]
fn streamed_topk_ships_fewer_hits_than_k_times_nodes() {
    // Sizes fall with file id, and the Master fills ACGs in arrival
    // order with round-robin placement — so the whole hot range (the
    // global top-k by size) lands on the first node while the other
    // three hold strictly colder files. The one-shot exchange still
    // ships k hits from *every* node; the streamed merge must pull the
    // hot node to completion but leave the cold nodes at ~one page.
    let nodes = 4usize;
    let per_node = 100u64;
    let k = 100usize;
    let page = 16usize;
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: nodes,
        group_capacity: per_node as usize,
        ..ClusterConfig::default()
    });
    let mut client = cluster.client().with_search_page_size(page);
    let total = per_node * nodes as u64;
    let records: Vec<FileRecord> = (0..total).map(|i| record(i, (total - i) << 20, i, 0)).collect();
    client.index_files(records).unwrap();

    let req = SearchRequest::parse("size>0", now())
        .unwrap()
        .with_limit(k)
        .sorted_by(SortKey::Descending(AttrName::Size));
    let one_shot = cluster.client().with_search_page_size(usize::MAX).search_with(&req).unwrap();
    assert_eq!(one_shot.hits.len(), k);
    assert_eq!(
        one_shot.stats.hits_shipped,
        k * nodes,
        "the one-shot exchange ships k hits from every node"
    );

    let streamed = client.search_with(&req).unwrap();
    assert_eq!(streamed.hits, one_shot.hits, "same answer, different wire traffic");
    assert!(
        streamed.stats.hits_shipped < k * nodes / 2,
        "cold nodes must stay at ~one page: shipped {} of the one-shot {}",
        streamed.stats.hits_shipped,
        k * nodes
    );
    assert!(
        streamed.stats.node_hits_unsent > 0,
        "the hits the cold nodes never computed are witnessed"
    );
    assert!(
        streamed.stats.pages_pulled > nodes,
        "the hot node needed several pulls, {} pages total",
        streamed.stats.pages_pulled
    );
    cluster.shutdown();
}

#[test]
fn dead_node_degrades_streamed_search_per_fan_out_policy() {
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: 3,
        group_capacity: 50,
        ..ClusterConfig::default()
    });
    let mut client = cluster.client().with_search_page_size(8);
    let records: Vec<FileRecord> = (0..300u64).map(|i| record(i, (i + 1) << 20, i, 0)).collect();
    client.index_files(records).unwrap();

    let victim = cluster.index_node_ids()[0];
    let victim_acgs: Vec<propeller::types::AcgId> =
        match cluster.rpc().call(cluster.master_id(), Request::LocateAcgs).unwrap() {
            Response::Located(rows) => {
                let mut acgs: Vec<_> =
                    rows.into_iter().filter(|(_, r)| r.contains(&victim)).map(|(a, _)| a).collect();
                acgs.sort_unstable();
                acgs
            }
            other => panic!("{other:?}"),
        };
    cluster.rpc().call(victim, Request::Shutdown).unwrap();
    cluster.rpc().deregister(victim);

    // require_all: the dead node fails the streamed search outright.
    let req = SearchRequest::parse("size>0", now())
        .unwrap()
        .with_limit(50)
        .sorted_by(SortKey::Descending(AttrName::Size));
    let err = client.search_with(&req);
    assert!(matches!(err, Err(Error::NodeUnavailable(n)) if n == victim), "{err:?}");

    // allow_partial: the survivors stream their hits, the response is
    // labelled incomplete, and — as for one-shot partial pages — no
    // continuation cursor is handed out.
    let req = req.with_fan_out(FanOutPolicy::AllowPartial { min_nodes: 1 });
    let partial = client.search_with(&req).unwrap();
    assert!(!partial.complete);
    assert_eq!(partial.unreachable, victim_acgs);
    assert!(!partial.hits.is_empty());
    assert!(partial.cursor.is_none(), "incomplete streamed pages carry no cursor");
    assert!(partial
        .hits
        .windows(2)
        .all(|w| req.sort.cmp_hits(&w[0], &w[1]) == std::cmp::Ordering::Less));

    // ...but an unreachable quorum still errors.
    let req = req.with_fan_out(FanOutPolicy::AllowPartial { min_nodes: 3 });
    assert!(client.search_with(&req).is_err());
    cluster.shutdown();
}

#[test]
fn session_eviction_thrash_is_transparent_to_the_client() {
    // A node whose session table holds ONE entry evicts the client's
    // suspended session whenever anyone else opens — the worst case for
    // the streamed protocol. A rival thread hammers the node with
    // foreign opens while the client streams; every eviction forces the
    // transparent reopen-with-resume-cursor path, and the results must
    // stay byte-identical to the one-shot exchange throughout.
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: 2,
        group_capacity: 40,
        max_search_sessions: 1,
        ..ClusterConfig::default()
    });
    let mut client = cluster.client().with_search_page_size(5);
    let records: Vec<FileRecord> = (0..160u64).map(|i| record(i, (i + 1) << 20, i, 0)).collect();
    client.index_files(records).unwrap();
    let req = SearchRequest::parse("size>0", now())
        .unwrap()
        .with_limit(40)
        .sorted_by(SortKey::Descending(AttrName::Size));
    let one_shot = cluster.client().with_search_page_size(usize::MAX).search_with(&req).unwrap();

    let rpc = cluster.rpc().clone();
    let targets: Vec<NodeId> = cluster.index_node_ids().to_vec();
    std::thread::scope(|s| {
        let rival = s.spawn(move || {
            // Each open is atomic open+first-page, so the rival both
            // fills the 1-slot table (evicting the client) and gets
            // itself evicted right back — maximum churn.
            for i in 0..300u64 {
                let node = targets[(i % targets.len() as u64) as usize];
                let open = Request::OpenSearch {
                    acgs: (1..=8).map(propeller::types::AcgId::new).collect(),
                    expect: None,
                    request: SearchRequest::parse("size>0", now())
                        .unwrap()
                        .with_limit(40)
                        .sorted_by(SortKey::Descending(AttrName::Size)),
                    client: 999,
                    page: 3,
                    now: now(),
                    ctx: propeller_obs::TraceContext::NONE,
                };
                let _ = rpc.call(node, open);
            }
        });
        for round in 0..10 {
            let streamed = client.search_with(&req).unwrap();
            assert_eq!(
                streamed.hits, one_shot.hits,
                "round {round}: eviction churn must never change the answer"
            );
            assert!(streamed.complete);
        }
        rival.join().unwrap();
    });
    cluster.shutdown();
}

#[test]
fn split_during_pull_keeps_pages_sorted_and_duplicate_free() {
    // A real Master-orchestrated split (bisect → extract → install →
    // commit) lands between two pulls of a suspended session on the
    // owning node. The session degrades per design — the migrated ACG
    // stops contributing — but every page it still serves must stay
    // sorted and duplicate-free.
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: 2,
        group_capacity: 400,
        split_threshold: 60, // every ACG is immediately split-worthy
        ..ClusterConfig::default()
    });
    let mut client = cluster.client();
    let records: Vec<FileRecord> = (0..240u64).map(|i| record(i, (i + 1) << 20, i, 0)).collect();
    client.index_files(records).unwrap();

    // Find a node and the ACGs it hosts.
    let located = match cluster.rpc().call(cluster.master_id(), Request::LocateAcgs).unwrap() {
        Response::Located(rows) => rows,
        other => panic!("{other:?}"),
    };
    let (owner, acgs): (NodeId, Vec<propeller::types::AcgId>) = {
        let node = located[0].1[0];
        (node, located.iter().filter(|(_, n)| n[0] == node).map(|(a, _)| *a).collect())
    };

    // Open a session with small pages and pull once.
    let open = Request::OpenSearch {
        acgs: acgs.clone(),
        expect: None,
        request: SearchRequest::parse("size>0", now())
            .unwrap()
            .with_limit(200)
            .sorted_by(SortKey::Descending(AttrName::Size)),
        client: 1,
        page: 10,
        now: now(),
        ctx: propeller_obs::TraceContext::NONE,
    };
    let (session, mut all, exhausted) = match cluster.rpc().call(owner, open).unwrap() {
        Response::SearchPage { session, hits, exhausted, .. } => (session, hits, exhausted),
        other => panic!("{other:?}"),
    };
    assert!(!exhausted);

    // A full maintenance round splits the oversized ACGs — including
    // extracting files from the very groups the session is suspended
    // over.
    let splits = cluster.run_maintenance().unwrap();
    assert!(splits > 0, "the split must actually happen mid-session");

    let mut exhausted = false;
    while !exhausted {
        match cluster
            .rpc()
            .call(
                owner,
                Request::PullHits { session, page: 10, ctx: propeller_obs::TraceContext::NONE },
            )
            .unwrap()
        {
            Response::SearchPage { hits, exhausted: done, .. } => {
                all.extend(hits);
                exhausted = done;
            }
            Response::Err(Error::SearchSessionExpired { .. }) => break,
            other => panic!("{other:?}"),
        }
    }
    let sort = SortKey::Descending(AttrName::Size);
    assert!(
        all.windows(2).all(|w| sort.cmp_hits(&w[0], &w[1]) == std::cmp::Ordering::Less),
        "pages across the split stay strictly sorted"
    );
    let mut files: Vec<FileId> = all.iter().map(|h| h.file).collect();
    files.sort_unstable();
    files.dedup();
    assert_eq!(files.len(), all.len(), "no hit is served twice across the split");
    cluster.shutdown();
}

#[test]
fn commit_split_hints_evict_stale_routes_eagerly() {
    // Route-cache invalidation hints: once the Master commits a split,
    // the *next* resolve any client performs carries the moved files as
    // hints — the client drops those routes before they can earn a
    // StaleRoute rejection and a retry round trip.
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: 2,
        group_capacity: 100,
        ..ClusterConfig::default()
    });
    let mut client = cluster.client();
    let records: Vec<FileRecord> = (0..10u64).map(|i| record(i, (i + 1) << 20, i, 0)).collect();
    client.index_files(records).unwrap();
    assert!(client.has_cached_route(FileId::new(3)));
    assert!(client.has_cached_route(FileId::new(7)));

    // Commit a split at the Master moving file 3 (metadata-only: the
    // route hint machinery doesn't care whether records migrated).
    let master = cluster.master_id();
    let acg = match cluster
        .rpc()
        .call(
            master,
            Request::ResolveFiles {
                files: vec![FileId::new(3)],
                hints_since: 0,
                ctx: propeller_obs::TraceContext::NONE,
            },
        )
        .unwrap()
    {
        Response::Resolved { rows, .. } => rows[0].1,
        other => panic!("{other:?}"),
    };
    let begin = Request::BeginMigration { acg, moved: vec![FileId::new(3)] };
    let new_acg = match cluster.rpc().call(master, begin).unwrap() {
        Response::MigrationBegun { new_acg, .. } => new_acg,
        other => panic!("{other:?}"),
    };
    cluster.rpc().call(master, Request::InstallAcked { new_acg }).unwrap();
    cluster.rpc().call(master, Request::CommitMigration { new_acg }).unwrap();

    // The stale route survives until the client next talks to the
    // Master...
    assert!(client.has_cached_route(FileId::new(3)));
    // ...then the hints piggybacked on an unrelated resolve evict it.
    client.index_files(vec![record(100, 1 << 20, 0, 0)]).unwrap();
    assert!(
        !client.has_cached_route(FileId::new(3)),
        "the moved file's route must be dropped eagerly"
    );
    assert!(client.has_cached_route(FileId::new(7)), "unmoved routes stay cached");
    cluster.shutdown();
}

#[test]
fn deep_pagination_reuses_node_sessions_across_pages() {
    // `open_search_stream` keeps one session per replica group alive for
    // the whole walk: page N costs one PullHits round per contributing
    // group, not a re-open + re-scan from rank 0 — deep pagination is
    // O(pages), not O(pages²). The concatenated pages must equal the
    // one-shot answer exactly, with no seam artifacts at page borders.
    let cluster =
        Cluster::start(ClusterConfig { index_nodes: 4, group_capacity: 10, ..Default::default() });
    let mut client = cluster.client().with_search_page_size(8);
    let records: Vec<FileRecord> =
        (0..200u64).map(|i| record(i, (i * 37) % 251, (i * 11) % 251, (i % 4) as u32)).collect();
    client.index_files(records).unwrap();

    let request = SearchRequest::parse("size>=0", now())
        .unwrap()
        .sorted_by(SortKey::Descending(AttrName::Size));
    let baseline =
        cluster.client().with_search_page_size(usize::MAX).search_with(&request).unwrap();
    assert_eq!(baseline.hits.len(), 200);

    let mut stream = client.open_search_stream(&request).unwrap();
    let mut paged: Vec<Hit> = Vec::new();
    let mut pages = 0;
    loop {
        let page = stream.next_page(9).unwrap();
        if page.is_empty() {
            break;
        }
        assert!(page.len() <= 9);
        paged.extend(page);
        pages += 1;
    }
    let resp = stream.finish().unwrap();
    assert!(resp.complete);
    assert!(pages >= 200 / 9, "walked the whole result set page by page");
    assert_eq!(untagged(&paged), untagged(&baseline.hits));
    cluster.shutdown();
}

#[test]
fn adaptive_paging_matches_fixed_paging_byte_for_byte() {
    // Default paging (a first page sized from the limit, doubling per
    // accepted page) is a wire-cost optimization only: the merged hit
    // sequence must be identical to fixed-size paging for any query shape.
    let cluster =
        Cluster::start(ClusterConfig { index_nodes: 3, group_capacity: 10, ..Default::default() });
    let mut loader = cluster.client();
    let records: Vec<FileRecord> =
        (0..150u64).map(|i| record(i, (i * 53) % 251, (i * 29) % 251, (i % 4) as u32)).collect();
    loader.index_files(records).unwrap();

    let request = SearchRequest::parse("size>=0", now())
        .unwrap()
        .sorted_by(SortKey::Ascending(AttrName::Mtime))
        .with_limit(120);
    let fixed = cluster.client().with_search_page_size(16).search_with(&request).unwrap();
    let adaptive = cluster.client();
    let streamed = adaptive.search_with(&request).unwrap();
    assert!(streamed.complete);
    assert_eq!(untagged(&streamed.hits), untagged(&fixed.hits));
    // And the streaming surface agrees too.
    let mut stream = adaptive.open_search_stream(&request).unwrap();
    let mut paged: Vec<Hit> = Vec::new();
    loop {
        let page = stream.next_page(11).unwrap();
        if page.is_empty() {
            break;
        }
        paged.extend(page);
    }
    stream.finish().unwrap();
    assert_eq!(untagged(&paged), untagged(&fixed.hits));
    cluster.shutdown();
}

#[test]
fn a_cold_node_ships_at_most_one_page() {
    // The same placement as above — the whole global top-k on the first
    // node — seen per node: each serving node reports one `node_elapsed`
    // row per exchange it served, so a node with a single row was opened,
    // shipped its first page and was never pulled again.
    let (nodes, per_node, k, page) = (4usize, 100u64, 100usize, 16usize);
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: nodes,
        group_capacity: per_node as usize,
        ..ClusterConfig::default()
    });
    let mut client = cluster.client().with_search_page_size(page);
    let total = per_node * nodes as u64;
    client.index_files((0..total).map(|i| record(i, (total - i) << 20, i, 0)).collect()).unwrap();

    let req = SearchRequest::parse("size>0", now())
        .unwrap()
        .with_limit(k)
        .sorted_by(SortKey::Descending(AttrName::Size));
    let streamed = client.search_with(&req).unwrap();
    assert_eq!(streamed.hits.len(), k);

    let exchanges = |node: NodeId| {
        streamed.stats.node_elapsed.iter().filter(|&&(served, _)| served == node).count()
    };
    let mut per_node_exchanges: Vec<usize> =
        cluster.index_node_ids().iter().map(|&node| exchanges(node)).collect();
    per_node_exchanges.sort_unstable();
    assert_eq!(
        per_node_exchanges,
        vec![1, 1, 1, k.div_ceil(page)],
        "three cold nodes answer once, the hot one pages out its whole k"
    );
    assert_eq!(streamed.stats.pages_pulled, (nodes - 1) + k.div_ceil(page));
    assert_eq!(
        streamed.stats.hits_shipped,
        k + (nodes - 1) * page,
        "the hot node ships k, every cold node exactly one page"
    );
    assert_eq!(
        streamed.stats.node_hits_unsent,
        (nodes - 1) * (k - page),
        "what the cold nodes were entitled to and never computed"
    );
    cluster.shutdown();
}

/// `(node, open_sessions)` of every Index Node.
fn open_sessions(cluster: &Cluster) -> Vec<(NodeId, usize)> {
    let stats = |&n: &NodeId| match cluster.rpc().call(n, Request::NodeStats) {
        Ok(Response::NodeStatsReport { node, open_sessions, .. }) => (node, open_sessions),
        other => panic!("{other:?}"),
    };
    cluster.index_node_ids().iter().map(stats).collect()
}

#[test]
fn a_search_with_nothing_to_cut_off_costs_one_exchange_per_group() {
    // An unlimited search, and a limited one over a single replica group,
    // have no cross-node cutoff to wait for: the paging rule asks for the
    // whole answer in the open exchange, so each costs exactly one message
    // per replica group, stores no session and leaves nothing unsent.
    let records: Vec<FileRecord> = (0..300u64)
        .map(|i| record(i, (i * 37) % 251 + 1, (i * 11) % 251, (i % 4) as u32))
        .collect();
    let unlimited = SearchRequest::parse("size>0", now())
        .unwrap()
        .sorted_by(SortKey::Descending(AttrName::Size));
    let limited = unlimited.clone().with_limit(150);
    for (nodes, request) in [(3usize, &unlimited), (1, &limited)] {
        let cluster = Cluster::start(ClusterConfig {
            index_nodes: nodes,
            group_capacity: 20,
            ..ClusterConfig::default()
        });
        let mut client = cluster.client();
        client.index_files(records.clone()).unwrap();

        let response = client.search_with(request).unwrap();
        let brute = run_local_search(records.clone(), request);
        assert_eq!(untagged(&response.hits), untagged(&brute.hits), "{nodes} nodes");
        assert!(response.complete);
        assert_eq!(response.stats.pages_pulled, nodes, "{nodes} nodes: one exchange per group");
        assert_eq!(response.stats.node_elapsed.len(), nodes, "{nodes} nodes");
        assert_eq!(response.stats.hits_shipped, response.hits.len(), "{nodes} nodes");
        assert_eq!(response.stats.node_hits_unsent, 0, "{nodes} nodes");
        for (node, sessions) in open_sessions(&cluster) {
            assert_eq!(sessions, 0, "{node}: a search exhausted at open stores no session");
        }

        // The caller-paced surface pages the same answer: 7 hits per pull.
        let paged_client = cluster.client().with_search_page_size(7);
        let mut stream = paged_client.open_search_stream(request).unwrap();
        let mut paged: Vec<Hit> = Vec::new();
        loop {
            let page = stream.next_page(7).unwrap();
            if page.is_empty() {
                break;
            }
            paged.extend(page);
        }
        let paged_stats = stream.finish().unwrap().stats;
        assert_eq!(paged, response.hits, "{nodes} nodes: pages concatenate to search_with");
        assert!(paged_stats.pages_pulled > nodes, "{nodes} nodes: 7-hit pages force pulls");
        for (node, sessions) in open_sessions(&cluster) {
            assert_eq!(sessions, 0, "{node}: drained sessions are dropped");
        }
        cluster.shutdown();
    }
}
