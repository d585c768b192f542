//! Integration tests for the first-class `SearchRequest`/`SearchResponse`
//! API: top-k + sort correctness against brute force, projection
//! round-tripping, cursor pagination, the bounded-heap guarantee, and
//! partial-failure-tolerant fan-out.

use std::collections::HashSet;
use std::sync::Arc;

use propeller::baselines::BruteForce;
use propeller::storage::SharedStorage;
use propeller::types::{AttrName, Error, FileId, InodeAttrs, Timestamp, Value};
use propeller::{
    Cluster, ClusterConfig, FanOutPolicy, FileRecord, Projection, Propeller, PropellerConfig,
    SearchRequest, SortKey,
};

/// The sorted ACG set a node hosts — what `SearchResponse::unreachable`
/// names once every replica of those ACGs is down (with R=1, exactly the
/// node's ACGs).
fn acgs_hosted_by(
    cluster: &Cluster,
    node: propeller::types::NodeId,
) -> Vec<propeller::types::AcgId> {
    let rows =
        match cluster.rpc().call(cluster.master_id(), propeller::cluster::Request::LocateAcgs) {
            Ok(propeller::cluster::Response::Located(rows)) => rows,
            other => panic!("{other:?}"),
        };
    let mut acgs: Vec<_> =
        rows.into_iter().filter(|(_, r)| r.contains(&node)).map(|(a, _)| a).collect();
    acgs.sort_unstable();
    acgs
}

fn record(file: u64, size: u64, mtime_s: u64, uid: u32) -> FileRecord {
    FileRecord::new(
        FileId::new(file),
        InodeAttrs::builder().size(size).mtime(Timestamp::from_secs(mtime_s)).uid(uid).build(),
    )
}

/// A deterministic pseudo-random dataset shared by service and ground
/// truth.
fn dataset(n: u64) -> Vec<FileRecord> {
    let mut state = 0x1234_5678_9ABC_DEFFu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|i| record(i, next() % (64 << 20), next() % 1_000_000, (next() % 5) as u32))
        .collect()
}

#[test]
fn topk_and_sort_agree_with_brute_force() {
    let records = dataset(2_000);
    let storage = Arc::new(SharedStorage::new());
    let mut service = Propeller::new(PropellerConfig {
        group_capacity: 128, // force many ACGs so merging is exercised
        ..PropellerConfig::default()
    });
    for r in &records {
        storage.create(&format!("/f{}", r.file.raw()), r.attrs).unwrap();
        service.index_file(r.clone()).unwrap();
    }
    let brute = BruteForce::new(storage);
    let now = Timestamp::from_secs(2_000_000);

    for (text, sort) in [
        ("size>16m", SortKey::Descending(AttrName::Size)),
        ("size>16m", SortKey::Ascending(AttrName::Size)),
        ("uid=3", SortKey::Ascending(AttrName::Mtime)),
        ("size>1m & size<32m", SortKey::Descending(AttrName::Mtime)),
        ("*", SortKey::FileId),
    ] {
        for k in [1usize, 7, 100] {
            let req =
                SearchRequest::parse(text, now).unwrap().with_limit(k).sorted_by(sort.clone());
            // Ground truth: brute force answers the same request API.
            let expected = brute.search_with(&req);
            let got = service.search_with(&req).unwrap();
            assert_eq!(got.file_ids(), expected.file_ids(), "query {text:?} sort {sort:?} k {k}");
            // The bounded-heap guarantee: no ACG ever retained more than
            // O(k) hits past its candidate filter.
            assert!(
                got.stats.retained_peak <= k,
                "query {text:?} k {k}: retained {}",
                got.stats.retained_peak
            );
            assert!(got.complete);
            assert!(got.stats.acgs_consulted > 1, "partitioned run expected");
        }
    }
}

#[test]
fn projection_round_trips_attributes() {
    let mut service = Propeller::new(PropellerConfig::default());
    for i in 0..50u64 {
        service
            .index_file(
                record(i, i << 20, i, (i % 3) as u32)
                    .with_keyword(if i % 2 == 0 { "even" } else { "odd" })
                    .with_custom("energy", Value::F64(-(i as f64))),
            )
            .unwrap();
    }
    let now = Timestamp::from_secs(1_000);

    // Selected attributes come back typed, in request order.
    let req =
        SearchRequest::parse("size>=49m", now).unwrap().with_projection(Projection::Attrs(vec![
            AttrName::Size,
            AttrName::Keyword,
            AttrName::custom("energy"),
        ]));
    let resp = service.search_with(&req).unwrap();
    assert_eq!(resp.hits.len(), 1);
    assert_eq!(
        resp.hits[0].attrs,
        vec![
            (AttrName::Size, Value::U64(49 << 20)),
            (AttrName::Keyword, Value::from("odd")),
            (AttrName::custom("energy"), Value::F64(-49.0)),
        ]
    );

    // Full projection reconstructs the whole record.
    let req = SearchRequest::parse("size>=49m", now).unwrap().with_projection(Projection::Full);
    let resp = service.search_with(&req).unwrap();
    let attrs = &resp.hits[0].attrs;
    assert!(attrs.contains(&(AttrName::Size, Value::U64(49 << 20))));
    assert!(attrs.contains(&(AttrName::Uid, Value::U64(1))));
    assert!(attrs.contains(&(AttrName::Keyword, Value::from("odd"))));
    assert!(attrs.contains(&(AttrName::custom("energy"), Value::F64(-49.0))));

    // Default projection is ids-only.
    let req = SearchRequest::parse("size>=49m", now).unwrap();
    assert!(service.search_with(&req).unwrap().hits[0].attrs.is_empty());
}

#[test]
fn cursor_pagination_is_disjoint_and_exhaustive() {
    let cluster =
        Cluster::start(ClusterConfig { index_nodes: 3, group_capacity: 64, ..Default::default() });
    let mut client = cluster.client();
    let records = dataset(1_111);
    client.index_files(records.clone()).unwrap();
    let now = Timestamp::from_secs(2_000_000);

    let base = SearchRequest::parse("size>1m", now)
        .unwrap()
        .with_limit(100)
        .sorted_by(SortKey::Descending(AttrName::Size));
    let full = client
        .search_with(
            &SearchRequest::parse("size>1m", now)
                .unwrap()
                .sorted_by(SortKey::Descending(AttrName::Size)),
        )
        .unwrap();

    let mut pages: Vec<FileId> = Vec::new();
    let mut seen = HashSet::new();
    let mut cursor = None;
    loop {
        let mut req = base.clone();
        if let Some(c) = cursor.take() {
            req = req.after(c);
        }
        let resp = client.search_with(&req).unwrap();
        assert!(resp.hits.len() <= 100);
        for hit in &resp.hits {
            assert!(seen.insert(hit.file), "page overlap at {}", hit.file);
        }
        pages.extend(resp.hits.iter().map(|h| h.file));
        match resp.cursor {
            Some(c) => cursor = Some(c),
            None => break,
        }
    }
    assert_eq!(pages, full.file_ids(), "pages must cover the full result exactly");
    cluster.shutdown();
}

#[test]
fn allow_partial_tolerates_a_dead_node_but_require_all_errors() {
    let cluster =
        Cluster::start(ClusterConfig { index_nodes: 3, group_capacity: 10, ..Default::default() });
    let mut client = cluster.client();
    client.index_files((0..300u64).map(|i| record(i, 1 << 20, i, 0)).collect()).unwrap();
    let now = Timestamp::from_secs(1_000);

    let complete = client.search_with(&SearchRequest::parse("size>0", now).unwrap()).unwrap();
    assert_eq!(complete.hits.len(), 300);
    assert!(complete.complete);

    // Kill one Index Node (the failure-injection harness).
    let victim = cluster.index_node_ids()[0];
    let victim_acgs = acgs_hosted_by(&cluster, victim);
    cluster.rpc().call(victim, propeller::cluster::Request::Shutdown).unwrap();
    cluster.rpc().deregister(victim);

    // require_all (the default): the dead node fails the search.
    let err = client.search_with(&SearchRequest::parse("size>0", now).unwrap());
    assert!(matches!(err, Err(Error::NodeUnavailable(n)) if n == victim), "{err:?}");

    // allow_partial: the survivors' hits come back, the lost ACGs named.
    let req = SearchRequest::parse("size>0", now)
        .unwrap()
        .with_fan_out(FanOutPolicy::AllowPartial { min_nodes: 1 });
    let partial = client.search_with(&req).unwrap();
    assert!(!partial.complete);
    assert_eq!(partial.unreachable, victim_acgs);
    assert!(!partial.hits.is_empty());
    assert!(partial.hits.len() < 300, "the dead node's ACGs are missing");

    // ...but an unreachable quorum still errors.
    let req = SearchRequest::parse("size>0", now)
        .unwrap()
        .with_fan_out(FanOutPolicy::AllowPartial { min_nodes: 3 });
    assert!(client.search_with(&req).is_err());
    cluster.shutdown();
}

#[test]
fn cursor_on_incomplete_opt_in_resumes_over_survivors_and_names_the_gap() {
    // The availability-first opt-in: an incomplete response may carry a
    // continuation cursor *plus* the unreachable-node set, so a caller
    // keeps paginating the reachable nodes now and backfills the listed
    // gap later — instead of stalling the whole scan on one dead node.
    let cluster =
        Cluster::start(ClusterConfig { index_nodes: 3, group_capacity: 10, ..Default::default() });
    let mut client = cluster.client();
    let records: Vec<FileRecord> = (0..300u64).map(|i| record(i, (i + 1) << 20, i, 0)).collect();
    client.index_files(records).unwrap();
    let now = Timestamp::from_secs(1_000);
    let page_req = |cursor: Option<propeller::query::Cursor>| {
        let mut req = SearchRequest::parse("size>0", now)
            .unwrap()
            .with_limit(50)
            .sorted_by(SortKey::Descending(AttrName::Size))
            .with_fan_out(FanOutPolicy::AllowPartial { min_nodes: 1 })
            .with_cursor_on_incomplete();
        if let Some(c) = cursor {
            req = req.after(c);
        }
        req
    };

    let victim = cluster.index_node_ids()[0];
    let victim_acgs = acgs_hosted_by(&cluster, victim);
    cluster.rpc().call(victim, propeller::cluster::Request::Shutdown).unwrap();
    cluster.rpc().deregister(victim);

    // Survivor ground truth: everything the reachable nodes hold, in sort
    // order (an unlimited partial search).
    let survivors_all = client
        .search_with(
            &SearchRequest::parse("size>0", now)
                .unwrap()
                .sorted_by(SortKey::Descending(AttrName::Size))
                .with_fan_out(FanOutPolicy::AllowPartial { min_nodes: 1 }),
        )
        .unwrap();
    assert!(!survivors_all.complete);
    assert!(survivors_all.cursor.is_none(), "unlimited responses never paginate");

    // Paginate with the opt-in: every incomplete page carries the cursor
    // AND the gap, and the concatenation covers the survivors exactly.
    let mut paged: Vec<FileId> = Vec::new();
    let mut cursor = None;
    loop {
        let resp = client.search_with(&page_req(cursor.take())).unwrap();
        assert!(!resp.complete);
        assert_eq!(resp.unreachable, victim_acgs, "the gap is always named");
        if resp.hits.is_empty() {
            break;
        }
        if !paged.is_empty() {
            assert!(resp.cursor.is_some() || resp.hits.len() < 50);
        }
        paged.extend(resp.file_ids());
        match resp.cursor {
            Some(c) => cursor = Some(c),
            None => break,
        }
    }
    assert_eq!(paged, survivors_all.file_ids(), "opt-in pagination covers every reachable hit");
    assert!(paged.len() < 300, "the dead node's hits are the named gap");
    cluster.shutdown();
}

#[test]
fn incomplete_page_carries_no_cursor_and_recovery_restores_the_skipped_hits() {
    let mut cluster =
        Cluster::start(ClusterConfig { index_nodes: 3, group_capacity: 10, ..Default::default() });
    let mut client = cluster.client();
    let records: Vec<FileRecord> = (0..300u64).map(|i| record(i, (i + 1) << 20, i, 0)).collect();
    client.index_files(records.clone()).unwrap();
    let now = Timestamp::from_secs(1_000);
    let page_req = |cursor: Option<propeller::query::Cursor>| {
        let mut req = SearchRequest::parse("size>0", now)
            .unwrap()
            .with_limit(50)
            .sorted_by(SortKey::Descending(AttrName::Size))
            .with_fan_out(FanOutPolicy::AllowPartial { min_nodes: 1 });
        if let Some(c) = cursor {
            req = req.after(c);
        }
        req
    };

    // Healthy baseline: a full page comes with a continuation cursor.
    let healthy = client.search_with(&page_req(None)).unwrap();
    assert!(healthy.complete);
    assert_eq!(healthy.hits.len(), 50);
    assert!(healthy.cursor.is_some());

    // Kill one node: the partial page may still be full, but it must NOT
    // hand out a cursor — paginating past it would permanently skip every
    // hit the dead node held that sorts before the page boundary.
    let victim = cluster.index_node_ids()[0];
    let victim_acgs = acgs_hosted_by(&cluster, victim);
    cluster.rpc().call(victim, propeller::cluster::Request::Shutdown).unwrap();
    cluster.rpc().deregister(victim);
    let partial = client.search_with(&page_req(None)).unwrap();
    assert!(!partial.complete);
    assert_eq!(partial.unreachable, victim_acgs);
    assert!(!partial.hits.is_empty());
    assert!(
        partial.cursor.is_none(),
        "an incomplete response must suppress its continuation cursor"
    );

    // Recover the node (fresh in-memory state) and re-index: the follow-up
    // pagination must now cover the complete result — including the dead
    // node's hits that sorted *before* the partial page's boundary, which
    // a cursor taken from the partial page would have skipped forever.
    cluster.revive_index_node(victim);
    client.index_files(records).unwrap();
    let mut paged: Vec<FileId> = Vec::new();
    let mut cursor = None;
    loop {
        let resp = client.search_with(&page_req(cursor.take())).unwrap();
        assert!(resp.complete, "revived cluster must answer completely");
        if resp.hits.is_empty() {
            break;
        }
        paged.extend(resp.file_ids());
        match resp.cursor {
            Some(c) => cursor = Some(c),
            None => break,
        }
    }
    let expected: Vec<FileId> = (0..300u64).rev().map(FileId::new).collect();
    assert_eq!(paged, expected, "recovered pagination covers every hit, largest size first");
    cluster.shutdown();
}

#[test]
fn baselines_answer_the_same_request_api() {
    use propeller::baselines::{CentralDb, ShardedDb};
    let records = dataset(500);
    let mut central = CentralDb::new();
    let mut sharded = ShardedDb::new(4);
    let mut service = Propeller::new(PropellerConfig::default());
    for r in &records {
        central.upsert(r.clone());
        sharded.upsert(r.clone());
        service.index_file(r.clone()).unwrap();
    }
    let now = Timestamp::from_secs(2_000_000);
    let req = SearchRequest::parse("size>8m", now)
        .unwrap()
        .with_limit(25)
        .sorted_by(SortKey::Descending(AttrName::Size));
    let ours = service.search_with(&req).unwrap();
    assert_eq!(ours.file_ids(), central.search_with(&req).file_ids());
    assert_eq!(ours.file_ids(), sharded.search_with(&req).file_ids());
}

/// A sorted top-k over B+-tree-covered attributes rides the ordered-scan
/// path end to end: the stats witness that the scan terminated after k
/// admitted hits and skipped the bulk of each consulted group, while the
/// results stay identical to the materializing brute-force answer.
#[test]
fn sorted_topk_terminates_early_with_witnessed_cutoff() {
    let records = dataset(20_000);
    let storage = Arc::new(SharedStorage::new());
    let mut service = Propeller::new(PropellerConfig {
        group_capacity: 4_000, // several ACGs: every one must cut off
        ..PropellerConfig::default()
    });
    for r in &records {
        storage.create(&format!("/f{}", r.file.raw()), r.attrs).unwrap();
    }
    service.index_batch(records).unwrap();
    let brute = BruteForce::new(storage);
    let now = Timestamp::from_secs(2_000_000);

    let req = SearchRequest::parse("size>1m", now)
        .unwrap()
        .with_limit(50)
        .sorted_by(SortKey::Descending(AttrName::Size));
    let resp = service.search_with(&req).unwrap();
    assert_eq!(resp.file_ids(), brute.search_with(&req).file_ids());
    assert_eq!(resp.hits.len(), 50);

    // Every consulted ACG ran an ordered scan and cut off early...
    let acgs = resp.stats.acgs_consulted;
    assert!(acgs >= 5, "expected a partitioned run, got {acgs} ACGs");
    assert_eq!(resp.stats.early_terminated, acgs, "every ACG terminated early");
    assert!(resp
        .stats
        .access_paths
        .iter()
        .all(|(_, kind)| *kind == propeller::query::AccessPathKind::OrderedScan));
    // ...so the bulk of the namespace was never examined.
    assert!(resp.stats.candidates_skipped > 10_000, "cutoff skipped too little: {:?}", resp.stats);
    assert!(
        resp.stats.candidates_scanned + resp.stats.candidates_skipped <= 20_000,
        "{:?}",
        resp.stats
    );
    assert!(resp.stats.retained_peak <= 50);

    // The same search unlimited scans everything and terminates nowhere.
    let full = SearchRequest::parse("size>1m", now)
        .unwrap()
        .sorted_by(SortKey::Descending(AttrName::Size));
    let resp = service.search_with(&full).unwrap();
    assert_eq!(resp.stats.early_terminated, 0);
    assert_eq!(resp.stats.candidates_skipped, 0);
}

#[test]
fn stats_report_access_paths_and_elapsed() {
    let mut service = Propeller::new(PropellerConfig::default());
    for i in 0..100u64 {
        service.index_file(record(i, i << 20, i, 0).with_keyword("kw")).unwrap();
    }
    let now = Timestamp::from_secs(1_000);
    // A size range rides the B+-tree; a keyword probe rides the hash.
    let resp = service.search_with(&SearchRequest::parse("size>50m", now).unwrap()).unwrap();
    assert_eq!(resp.stats.acgs_consulted, 1);
    assert_eq!(resp.stats.access_paths.len(), 1);
    assert!(resp.stats.candidates_scanned >= resp.hits.len());
    let resp = service.search_with(&SearchRequest::parse("keyword:kw", now).unwrap()).unwrap();
    assert_eq!(resp.hits.len(), 100);
}

#[test]
fn wand_counters_reach_the_client_through_the_cluster_path() {
    use propeller::cluster::{Request, Response};

    // Every document holds "common", every 8th also "rare": once ten rare
    // documents are retained, "common" alone cannot reach the floor and the
    // disjunctive pivot prunes the rest of its postings. One ACG per node,
    // so each node runs exactly the execution probed on its own below (ACGs
    // sharing a node also share a `GlobalCutoff`, and what each prunes then
    // depends on how the pool interleaves them).
    let cluster = Cluster::start(ClusterConfig {
        index_nodes: 2,
        group_capacity: 1_200,
        ..Default::default()
    });
    let mut client = cluster.client();
    let records: Vec<FileRecord> = (0..2_400u64)
        .map(|i| {
            let mut text = String::from("common");
            if i % 8 == 0 {
                text.push_str(" rare");
            }
            text.push_str(&" filler".repeat((i % 5) as usize));
            FileRecord::new(FileId::new(i), InodeAttrs::default()).with_content(text)
        })
        .collect();
    client.index_files(records).unwrap();
    let now = Timestamp::from_secs(1_000);
    let request = SearchRequest::parse("contains-any:\"rare common\"", now)
        .unwrap()
        .with_limit(10)
        .sorted_by(SortKey::Relevance);

    // Each ACG executed on its own: pruning depends only on the ACG's own
    // top-k floor, so these are the counts the fan-out must add up to.
    let located = match cluster.rpc().call(cluster.master_id(), Request::LocateAcgs) {
        Ok(Response::Located(rows)) => rows,
        other => panic!("{other:?}"),
    };
    assert_eq!(located.len(), 2, "one ACG per node: {located:?}");
    let (mut scanned, mut docs_pruned, mut blocks_skipped) = (0, 0, 0);
    for (acg, replicas) in located {
        let search = Request::Search {
            acgs: vec![acg],
            request: request.clone(),
            now,
            ctx: propeller_obs::TraceContext::NONE,
        };
        match cluster.rpc().call(replicas[0], search) {
            Ok(Response::SearchHits { stats, .. }) => {
                scanned += stats.candidates_scanned;
                docs_pruned += stats.wand_docs_pruned;
                blocks_skipped += stats.wand_blocks_skipped;
            }
            other => panic!("{other:?}"),
        }
    }
    assert!(docs_pruned > 0 && blocks_skipped > 0, "the corpus must make WAND prune");

    let one_shot = cluster.client().with_search_page_size(usize::MAX);
    for (path, response) in [
        ("search_with", client.search_with(&request).unwrap()),
        ("one-shot", one_shot.search_with(&request).unwrap()),
    ] {
        assert_eq!(response.hits.len(), 10, "{path}");
        assert_eq!(response.stats.wand_docs_pruned, docs_pruned, "{path}");
        assert_eq!(response.stats.wand_blocks_skipped, blocks_skipped, "{path}");
        assert_eq!(response.stats.candidates_scanned, scanned, "{path}");
    }
    cluster.shutdown();
}

#[test]
fn posting_counts_steer_each_acg_through_the_streamed_path() {
    use propeller::query::{run_local_search, AccessPathKind};

    // ACGs fill in arrival order, so the first 800 records put `app` on
    // every record of the groups they land in and on none of the others:
    // walking mtime order beats probing 400-long lists for a top-10, and
    // the empty lists elsewhere stay probes.
    let cluster =
        Cluster::start(ClusterConfig { index_nodes: 2, group_capacity: 400, ..Default::default() });
    let mut client = cluster.client().with_search_page_size(4);
    let records: Vec<FileRecord> = dataset(2_400)
        .into_iter()
        .map(|r| {
            let keyword = if r.file.raw() < 800 { "app" } else { "other" };
            r.with_keyword(keyword)
        })
        .collect();
    client.index_files(records.clone()).unwrap();

    let request = SearchRequest::parse("keyword:app & size>16m", Timestamp::from_secs(2_000_000))
        .unwrap()
        .with_limit(10)
        .sorted_by(SortKey::Descending(AttrName::Mtime));
    let brute = run_local_search(records, &request);
    assert_eq!(brute.hits.len(), 10);
    let one_shot = cluster.client().with_search_page_size(usize::MAX);
    for (path, response) in [
        ("streamed", client.search_with(&request).unwrap()),
        ("one-shot", one_shot.search_with(&request).unwrap()),
    ] {
        assert_eq!(response.file_ids(), brute.file_ids(), "{path}");
        let walked = response.stats.ordered_by_count;
        assert!(walked > 0, "{path}: no ACG's counts chose the walk");
        let paths = &response.stats.access_paths;
        assert_eq!(
            paths.iter().filter(|(_, kind)| *kind == AccessPathKind::OrderedScan).count(),
            walked,
            "{path}: every walk here was chosen by count: {paths:?}"
        );
        assert!(
            paths.iter().any(|(_, kind)| *kind == AccessPathKind::HashEq),
            "{path}: ACGs without the keyword keep the probe: {paths:?}"
        );
    }
    cluster.shutdown();
}

/// A `usize::MAX` limit over one replica group takes the whole answer in
/// the open exchange; doubling that page for the next pull must saturate,
/// not overflow — on single-node `Propeller` and on a 1-node cluster.
#[test]
fn unbounded_limit_over_one_replica_group_does_not_overflow_the_page() {
    let records: Vec<FileRecord> = (0..50u64).map(|i| record(i, (i + 1) << 20, i, 0)).collect();
    let request = SearchRequest::parse("size>0", Timestamp::from_secs(1_000))
        .unwrap()
        .with_limit(usize::MAX)
        .sorted_by(SortKey::Descending(AttrName::Size));
    let expected: Vec<FileId> = (0..50u64).rev().map(FileId::new).collect();

    let mut service = Propeller::new(PropellerConfig::default());
    service.index_batch(records.clone()).unwrap();
    let single = service.search_with(&request).unwrap();
    assert!(single.complete);
    assert_eq!(single.file_ids(), expected);

    let cluster = Cluster::start(ClusterConfig { index_nodes: 1, ..Default::default() });
    let mut client = cluster.client();
    client.index_files(records).unwrap();
    let clustered = client.search_with(&request).unwrap();
    assert!(clustered.complete);
    assert_eq!(clustered.file_ids(), expected);
    cluster.shutdown();
}
