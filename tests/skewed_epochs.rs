//! Count-driven access-path choice on skewed epochs: one request, three
//! ACGs that hold its keyword on every record / on none / on half. The
//! planner must pick the sort-order walk where the posting list is long
//! and the hash probe where it is empty, per ACG, without changing a hit —
//! and an unlucky walk must stay inside its own ACG.

use propeller::cluster::{IndexNode, IndexNodeConfig, Request, Response};
use propeller::index::{AcgIndexGroup, FileRecord, GroupConfig, IndexOp};
use propeller::query::{
    execute_classic, execute_node_request_sequential, execute_request_reference, merge_sorted_hits,
    AccessPath, AccessPathKind, Hit, Plan, SearchRequest, SearchStats, SortKey,
};
use propeller::types::{AcgId, AttrName, FileId, InodeAttrs, NodeId, Timestamp, Value};

const PER_ACG: u64 = 2_000;

fn now() -> Timestamp {
    Timestamp::from_secs(10_000_000)
}

/// ACG 1 holds `app` on every record, ACG 2 on none, ACG 3 on every other
/// one; sizes and mtimes are scattered so `size>64k` passes about half and
/// no two records share an mtime.
fn records_of(acg: u64) -> Vec<FileRecord> {
    (0..PER_ACG)
        .map(|i| {
            let id = acg * 10_000 + i;
            let attrs = InodeAttrs::builder()
                .size((id * 7_919 % 128) << 10)
                .mtime(Timestamp::from_secs(id * 104_729 % 1_000_003))
                .build();
            let record = FileRecord::new(FileId::new(id), attrs);
            match acg {
                1 => record.with_keyword("app"),
                3 if i % 2 == 0 => record.with_keyword("app"),
                _ => record.with_keyword("other"),
            }
        })
        .collect()
}

fn groups() -> Vec<AcgIndexGroup> {
    (1..=3u64)
        .map(|acg| {
            let mut group = AcgIndexGroup::new(AcgId::new(acg), GroupConfig::default());
            let ops = records_of(acg).into_iter().map(IndexOp::Upsert).collect();
            group.enqueue_batch(ops, now()).unwrap();
            group.commit(now()).unwrap();
            group
        })
        .collect()
}

fn node(parallelism: usize) -> IndexNode {
    let config = IndexNodeConfig { search_parallelism: parallelism, ..IndexNodeConfig::default() };
    let mut node = IndexNode::new(NodeId::new(1), config);
    for acg in 1..=3u64 {
        node.handle(Request::IndexBatch {
            acg: AcgId::new(acg),
            ops: records_of(acg).into_iter().map(IndexOp::Upsert).collect(),
            now: now(),
            ctx: propeller_obs::TraceContext::NONE,
        });
    }
    node
}

fn node_search(node: &mut IndexNode, request: &SearchRequest) -> (Vec<Hit>, SearchStats) {
    match node.handle(Request::Search {
        acgs: (1..=3).map(AcgId::new).collect(),
        request: request.clone(),
        now: now(),
        ctx: propeller_obs::TraceContext::NONE,
    }) {
        Response::SearchHits { hits, stats } => (hits, stats),
        other => panic!("{other:?}"),
    }
}

fn top20_by_mtime(query: &str) -> SearchRequest {
    SearchRequest::parse(query, now())
        .unwrap()
        .with_limit(20)
        .sorted_by(SortKey::Descending(AttrName::Mtime))
}

/// The per-ACG reference results merged the way the fan-out merges them.
fn reference(groups: &[AcgIndexGroup], request: &SearchRequest) -> Vec<Hit> {
    let lists = groups.iter().map(|g| execute_request_reference(g, request).0).collect();
    merge_sorted_hits(lists, &request.sort, request.limit)
}

#[test]
fn each_acg_takes_the_path_its_own_counts_favour() {
    let groups = groups();
    let epochs: Vec<_> = groups.iter().map(|g| g.pin()).collect();
    let refs: Vec<_> = epochs.iter().map(|e| &**e).collect();
    let request = top20_by_mtime("keyword:app & size>64k");

    let (hits, stats) = execute_node_request_sequential(&refs, &request);
    assert_eq!(hits.len(), 20);
    assert_eq!(hits, reference(&groups, &request));
    assert_eq!(
        stats.access_paths,
        vec![
            (AcgId::new(1), AccessPathKind::OrderedScan),
            (AcgId::new(2), AccessPathKind::HashEq),
            (AcgId::new(3), AccessPathKind::OrderedScan),
        ]
    );
    assert_eq!(stats.ordered_by_count, 2);

    // Pool width changes nothing the node reports, the choice included.
    let (seq_hits, seq_stats) = node_search(&mut node(1), &request);
    let (pooled_hits, pooled_stats) = node_search(&mut node(8), &request);
    assert_eq!(seq_hits, hits);
    assert_eq!(pooled_hits, hits);
    for node_stats in [&seq_stats, &pooled_stats] {
        assert_eq!(node_stats.access_paths, stats.access_paths);
        assert_eq!(node_stats.ordered_by_count, 2);
        assert_eq!(node_stats.candidates_scanned, stats.candidates_scanned);
    }

    // What probing everywhere — the plan the predicate's shape alone
    // picks — hands to the heap.
    let probe =
        || Plan { path: AccessPath::HashEq { attr: AttrName::Keyword, value: Value::from("app") } };
    let all_probe: usize =
        refs.iter().map(|e| execute_classic(e, &request, probe(), None).1.candidates_scanned).sum();
    assert_eq!(all_probe as u64, PER_ACG + PER_ACG / 2);
    assert!(
        stats.candidates_scanned * 10 <= all_probe,
        "walks scanned {} against {all_probe} probed",
        stats.candidates_scanned
    );
}

#[test]
fn a_walk_that_finds_nothing_stays_inside_its_acg() {
    let groups = groups();
    let epochs: Vec<_> = groups.iter().map(|g| g.pin()).collect();
    let refs: Vec<_> = epochs.iter().map(|e| &**e).collect();
    // No record is that large: the worst case for having chosen the walk.
    let request = top20_by_mtime("keyword:app & size>1t");

    let (hits, stats) = execute_node_request_sequential(&refs, &request);
    assert!(hits.is_empty());
    assert_eq!(hits, reference(&groups, &request));
    assert_eq!(stats.ordered_by_count, 2, "the counts cannot see the other conjunct");
    let walked: usize = [&refs[0], &refs[2]].iter().map(|e| e.len()).sum();
    assert!(
        stats.candidates_scanned <= walked,
        "scanned {} of the {walked} records the two walked ACGs hold",
        stats.candidates_scanned
    );
    assert_eq!(node_search(&mut node(8), &request).0, hits);
}
