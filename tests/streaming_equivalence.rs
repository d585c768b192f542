//! Property coverage for the streaming execution pipeline: across random
//! predicates, sorts, limits, projections and cursors, the streaming /
//! ordered-scan / early-terminating executor must return **byte-identical
//! hits** to the materializing reference path and agree with a brute-force
//! linear scan.

use propeller::cluster::{IndexNode, IndexNodeConfig, Request, Response};
use propeller::index::{AcgIndexGroup, FileRecord, GroupConfig, IndexOp};
use propeller::query::{
    execute_node_request_sequential, execute_request, execute_request_reference, next_cursor,
    run_local_search, CompareOp, Hit, Predicate, Projection, SearchRequest, SearchStats, SortKey,
};
use propeller::types::{AcgId, AttrName, FileId, InodeAttrs, NodeId, Timestamp, Value};
use proptest::prelude::*;

fn now() -> Timestamp {
    Timestamp::from_secs(1_000)
}

/// Records draw attribute values from small ranges so random comparisons
/// actually split the data set.
fn arb_records() -> impl Strategy<Value = Vec<FileRecord>> {
    prop::collection::vec(
        (0u64..250, 0u64..250, 0u64..4, prop::collection::vec("[ab]{1,2}", 0..3), 0i64..20),
        1..120,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (size, mtime, uid, keywords, energy))| {
                let mut rec = FileRecord::new(
                    FileId::new(i as u64),
                    InodeAttrs::builder()
                        .size(size)
                        .mtime(Timestamp::from_micros(mtime))
                        .uid(uid as u32)
                        .build(),
                );
                rec.keywords = keywords;
                rec.custom.push(("energy".to_owned(), Value::I64(energy)));
                rec
            })
            .collect()
    })
}

fn arb_leaf() -> BoxedStrategy<Predicate> {
    prop_oneof![
        (0u64..4, 0u64..6, 0u64..250).prop_map(|(attr, op, v)| {
            let attr = match attr {
                0 => AttrName::Size,
                1 => AttrName::Mtime,
                2 => AttrName::Uid,
                _ => AttrName::Gid,
            };
            Predicate::cmp(attr, op_of(op), Value::U64(v))
        }),
        "[ab]{1,2}".prop_map(Predicate::Keyword),
        (0u64..6, 0i64..20).prop_map(|(op, v)| {
            Predicate::cmp(AttrName::custom("energy"), op_of(op), Value::I64(v))
        }),
        (0u64..1).prop_map(|_| Predicate::True),
    ]
    .boxed()
}

fn op_of(i: u64) -> CompareOp {
    match i % 6 {
        0 => CompareOp::Eq,
        1 => CompareOp::Ne,
        2 => CompareOp::Lt,
        3 => CompareOp::Le,
        4 => CompareOp::Gt,
        _ => CompareOp::Ge,
    }
}

fn arb_predicate() -> BoxedStrategy<Predicate> {
    prop_oneof![
        arb_leaf(),
        prop::collection::vec(arb_leaf(), 1..4).prop_map(Predicate::And),
        prop::collection::vec(arb_leaf(), 1..4).prop_map(Predicate::Or),
        arb_leaf().prop_map(|p| Predicate::Not(Box::new(p))),
    ]
    .boxed()
}

fn arb_sort() -> BoxedStrategy<SortKey> {
    prop_oneof![
        (0u64..1).prop_map(|_| SortKey::FileId),
        (0u64..3, prop::bool::ANY).prop_map(|(attr, desc)| {
            let attr = match attr {
                0 => AttrName::Size,
                1 => AttrName::Mtime,
                _ => AttrName::Uid,
            };
            if desc {
                SortKey::Descending(attr)
            } else {
                SortKey::Ascending(attr)
            }
        }),
    ]
    .boxed()
}

fn arb_projection() -> BoxedStrategy<Projection> {
    prop_oneof![
        (0u64..1).prop_map(|_| Projection::Ids),
        (0u64..1).prop_map(|_| Projection::Attrs(vec![AttrName::Size, AttrName::Keyword])),
        (0u64..1).prop_map(|_| Projection::Full),
    ]
    .boxed()
}

fn committed_group(records: &[FileRecord]) -> AcgIndexGroup {
    let mut g = AcgIndexGroup::new(AcgId::new(1), GroupConfig::default());
    for rec in records {
        g.enqueue(IndexOp::Upsert(rec.clone()), now()).unwrap();
    }
    g.commit(now()).unwrap();
    g
}

/// `run_local_search` tags hits with no ACG; strip it for comparison.
fn untagged(hits: &[Hit]) -> Vec<Hit> {
    hits.iter().map(|h| Hit { acg: None, ..h.clone() }).collect()
}

/// An Index Node hosting `records` partitioned across `acg_count` ACGs.
fn seeded_node(records: &[FileRecord], acg_count: usize, parallelism: usize) -> IndexNode {
    let mut node = IndexNode::new(
        NodeId::new(1),
        IndexNodeConfig { search_parallelism: parallelism, ..IndexNodeConfig::default() },
    );
    for acg in 0..acg_count {
        let ops: Vec<IndexOp> = records
            .iter()
            .enumerate()
            .filter(|(i, _)| i % acg_count == acg)
            .map(|(_, r)| IndexOp::Upsert(r.clone()))
            .collect();
        node.handle(Request::IndexBatch {
            acg: AcgId::new(acg as u64 + 1),
            ops,
            now: now(),
            ctx: propeller_obs::TraceContext::NONE,
        });
    }
    node
}

fn node_search(
    node: &mut IndexNode,
    acg_count: usize,
    req: &SearchRequest,
) -> (Vec<Hit>, SearchStats) {
    match node.handle(Request::Search {
        acgs: (1..=acg_count as u64).map(AcgId::new).collect(),
        request: req.clone(),
        now: now(),
        ctx: propeller_obs::TraceContext::NONE,
    }) {
        Response::SearchHits { hits, stats } => (hits, stats),
        other => panic!("{other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Streaming execution (whatever access path the planner picks,
    /// including ordered scans with early termination) is byte-identical
    /// to the materializing reference and to a brute-force linear scan.
    #[test]
    fn streaming_equals_reference_and_brute_force(
        records in arb_records(),
        pred in arb_predicate(),
        sort in arb_sort(),
        projection in arb_projection(),
        limit in prop_oneof![
            (0u64..1).prop_map(|_| None),
            (0usize..40).prop_map(Some),
        ],
    ) {
        let g = committed_group(&records);
        let mut req = SearchRequest::new(pred).sorted_by(sort).with_projection(projection);
        if let Some(k) = limit {
            req = req.with_limit(k);
        }
        let (streamed, stats) = execute_request(&g, &req);
        let (reference, _) = execute_request_reference(&g, &req);
        prop_assert_eq!(&streamed, &reference, "streaming vs materializing reference");
        let brute = run_local_search(records.clone(), &req);
        prop_assert_eq!(untagged(&streamed), untagged(&brute.hits), "streaming vs brute force");
        if let Some(k) = limit {
            prop_assert!(streamed.len() <= k);
            prop_assert!(stats.retained_peak <= k.max(1));
        }
        // The early-termination witness never lies about the work done.
        prop_assert!(stats.candidates_scanned + stats.candidates_skipped <= g.len());
        if stats.early_terminated == 0 {
            prop_assert_eq!(stats.candidates_skipped, 0);
        }
    }

    /// Cursor pagination through the streaming executor covers exactly
    /// the full result set, page-identically to the reference path.
    #[test]
    fn streaming_pagination_equals_reference_pages(
        records in arb_records(),
        pred in arb_predicate(),
        sort in arb_sort(),
        page in 1usize..17,
    ) {
        let g = committed_group(&records);
        let full_req = SearchRequest::new(pred.clone()).sorted_by(sort.clone());
        let (full, _) = execute_request(&g, &full_req);
        let mut paged: Vec<Hit> = Vec::new();
        let mut cursor = None;
        for _ in 0..=records.len() {
            let mut req =
                SearchRequest::new(pred.clone()).sorted_by(sort.clone()).with_limit(page);
            if let Some(c) = cursor.take() {
                req = req.after(c);
            }
            let (hits, _) = execute_request(&g, &req);
            let (ref_hits, _) = execute_request_reference(&g, &req);
            prop_assert_eq!(&hits, &ref_hits, "page vs reference page");
            if hits.is_empty() {
                break;
            }
            cursor = next_cursor(&hits, Some(page));
            paged.extend(hits);
            if cursor.is_none() {
                break;
            }
        }
        prop_assert_eq!(paged, full, "pages concatenate to the full result");
    }

    /// Node-level property: a multi-ACG Index Node under the node-global
    /// cutoff, executing on its persistent worker pool, returns
    /// byte-identical hits to (a) strictly sequential execution, (b) the
    /// query-level sequential node executor over the same partition, and
    /// (c) a brute-force linear pass over the unpartitioned record set —
    /// across random predicates, sorts, limits and ACG counts. The
    /// scan/skip witnesses must also account for exactly the node's
    /// records.
    #[test]
    fn node_global_cutoff_and_pool_equal_sequential_and_brute_force(
        records in arb_records(),
        pred in arb_predicate(),
        sort in arb_sort(),
        acg_count in 1usize..6,
        limit in prop_oneof![
            (0u64..1).prop_map(|_| None),
            (0usize..40).prop_map(Some),
        ],
    ) {
        let mut req = SearchRequest::new(pred).sorted_by(sort);
        if let Some(k) = limit {
            req = req.with_limit(k);
        }
        let mut pooled = seeded_node(&records, acg_count, 8);
        let mut sequential = seeded_node(&records, acg_count, 1);
        let (pooled_hits, pooled_stats) = node_search(&mut pooled, acg_count, &req);
        let (seq_hits, seq_stats) = node_search(&mut sequential, acg_count, &req);
        prop_assert_eq!(&pooled_hits, &seq_hits, "pooled vs sequential node");
        // Deterministic witnesses agree regardless of pool width.
        prop_assert_eq!(pooled_stats.candidates_scanned, seq_stats.candidates_scanned);
        prop_assert_eq!(pooled_stats.merge_skipped, seq_stats.merge_skipped);
        prop_assert_eq!(pooled_stats.early_terminated, seq_stats.early_terminated);

        // The query-level sequential node executor over the same groups.
        let groups: Vec<AcgIndexGroup> = (0..acg_count)
            .map(|acg| {
                let mut g = AcgIndexGroup::new(
                    AcgId::new(acg as u64 + 1),
                    GroupConfig::default(),
                );
                for (i, rec) in records.iter().enumerate() {
                    if i % acg_count == acg {
                        g.enqueue(IndexOp::Upsert(rec.clone()), now()).unwrap();
                    }
                }
                g.commit(now()).unwrap();
                g
            })
            .collect();
        let refs: Vec<&propeller::index::AcgEpoch> = groups.iter().map(|g| &**g).collect();
        let (direct_hits, direct_stats) = execute_node_request_sequential(&refs, &req);
        prop_assert_eq!(&direct_hits, &seq_hits, "node actor vs query-level executor");

        // Brute force over the unpartitioned records.
        let brute = run_local_search(records.clone(), &req);
        prop_assert_eq!(untagged(&seq_hits), untagged(&brute.hits), "node vs brute force");
        if let Some(k) = limit {
            prop_assert!(seq_hits.len() <= k);
        }
        // Scan/skip accounting covers exactly the node's record set.
        prop_assert!(
            direct_stats.candidates_scanned + direct_stats.candidates_skipped <= records.len()
        );
        prop_assert!(direct_stats.merge_skipped <= direct_stats.candidates_skipped);
        if direct_stats.early_terminated == 0 {
            prop_assert_eq!(direct_stats.candidates_skipped, 0);
        }
    }

    /// Node-level cursor pagination under the global cutoff covers exactly
    /// the full result set, in order, with no hit lost or duplicated.
    #[test]
    fn node_pagination_covers_the_full_result(
        records in arb_records(),
        pred in arb_predicate(),
        sort in arb_sort(),
        acg_count in 1usize..5,
        page in 1usize..17,
    ) {
        let mut node = seeded_node(&records, acg_count, 8);
        let full_req = SearchRequest::new(pred.clone()).sorted_by(sort.clone());
        let (full, _) = node_search(&mut node, acg_count, &full_req);
        let mut paged: Vec<Hit> = Vec::new();
        let mut cursor = None;
        for _ in 0..=records.len() {
            let mut req =
                SearchRequest::new(pred.clone()).sorted_by(sort.clone()).with_limit(page);
            if let Some(c) = cursor.take() {
                req = req.after(c);
            }
            let (hits, _) = node_search(&mut node, acg_count, &req);
            if hits.is_empty() {
                break;
            }
            cursor = next_cursor(&hits, Some(page));
            paged.extend(hits);
            if cursor.is_none() {
                break;
            }
        }
        prop_assert_eq!(paged, full, "node pages concatenate to the full result");
    }
}

/// The count the node-global cutoff exists for: sorted top-100 over 16
/// ACGs of one node returns exactly what "top-100 per ACG, then merge"
/// returns, while scanning strictly fewer candidates — the merge stops at
/// 100 admitted hits node-wide instead of 100 per ACG, and what it never
/// pulled is witnessed by `merge_skipped`.
#[test]
fn node_global_cutoff_scans_fewer_candidates_than_per_acg_then_merge() {
    let (acg_count, k) = (16usize, 100usize);
    let records: Vec<FileRecord> = (0..4_000u64)
        .map(|i| {
            FileRecord::new(FileId::new(i), InodeAttrs::builder().size((i * 7_919) % 4_096).build())
        })
        .collect();
    let req = SearchRequest::new(Predicate::cmp(AttrName::Size, CompareOp::Gt, Value::U64(0)))
        .with_limit(k)
        .sorted_by(SortKey::Descending(AttrName::Size));

    // Per-ACG cutoff: every ACG computes its own top-k, merged afterwards.
    let (mut lists, mut per_acg_scanned) = (Vec::new(), 0usize);
    for acg in 0..acg_count {
        let rows: Vec<FileRecord> = records
            .iter()
            .enumerate()
            .filter(|(i, _)| i % acg_count == acg)
            .map(|(_, r)| r.clone())
            .collect();
        let mut g = AcgIndexGroup::new(AcgId::new(acg as u64 + 1), GroupConfig::default());
        for rec in rows {
            g.enqueue(IndexOp::Upsert(rec), now()).unwrap();
        }
        g.commit(now()).unwrap();
        let (hits, stats) = execute_request(&g, &req);
        assert_eq!(hits.len(), k, "every ACG can fill its own top-{k}");
        per_acg_scanned += stats.candidates_scanned;
        lists.push(hits);
    }
    let reference = propeller::query::merge_sorted_hits(lists, &req.sort, req.limit);

    for parallelism in [1, 8] {
        let mut node = seeded_node(&records, acg_count, parallelism);
        let (hits, stats) = node_search(&mut node, acg_count, &req);
        assert_eq!(hits, reference, "pool width {parallelism}: per-ACG + merge is the reference");
        assert!(
            stats.candidates_scanned < per_acg_scanned,
            "pool width {parallelism}: the node-global cutoff scanned {} candidates, \
             the per-ACG cutoff {per_acg_scanned}",
            stats.candidates_scanned
        );
        assert!(stats.candidates_scanned <= k + acg_count, "~k in total: {stats:?}");
        assert!(stats.merge_skipped > 0, "merge-level skips must be witnessed: {stats:?}");
        assert_eq!(stats.early_terminated, acg_count, "no ACG's walk ran dry");
    }
}
