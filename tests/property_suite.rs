//! Additional property-based coverage: WAL framing, index-op codec,
//! B+-tree/K-D tree invariants under arbitrary inputs, query-parser
//! robustness, and index-only walks and K-D boxes against the reference
//! executor (under churn, and where `u64 → f64` rounding merges values).

use std::sync::Arc;

use propeller::index::{
    AcgEpoch, AcgIndexGroup, BPlusTree, FileRecord, GroupConfig, IndexOp, IndexSpec, KdTree, Wal,
};
use propeller::query::{
    execute_classic, execute_request, execute_request_reference, merge_sorted_hits, AccessPathKind,
    CompareOp, Hit, NodeSearchSession, Predicate, Projection, SearchRequest, SortKey,
};
use propeller::types::{AcgId, AttrName, FileId, InodeAttrs, Timestamp, Value};
use propeller::Query;
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<u64>().prop_map(Value::U64),
        any::<i64>().prop_map(Value::I64),
        any::<f64>()
            .prop_filter("total order works but NaN breaks eq-tests", |f| !f.is_nan())
            .prop_map(Value::F64),
        "[a-z0-9 _/.-]{0,24}".prop_map(Value::from),
    ]
}

fn arb_record() -> impl Strategy<Value = FileRecord> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        prop::collection::vec("[a-z]{1,12}", 0..4),
        prop::collection::vec(("[a-z_]{1,10}", arb_value()), 0..4),
    )
        .prop_map(|(file, size, mtime, uid, keywords, custom)| {
            let mut rec = FileRecord::new(
                FileId::new(file),
                InodeAttrs::builder()
                    .size(size)
                    .mtime(Timestamp::from_micros(mtime))
                    .uid(uid)
                    .build(),
            );
            rec.keywords = keywords;
            rec.custom = custom;
            rec
        })
}

/// A file of the churn corpus: `(size, mtime, ctime, uid)` over small
/// ranges, so sort keys tie and windows split the data.
fn churn_record(file: u64, (size, mtime, ctime, uid): (u64, u64, u64, u64)) -> FileRecord {
    let attrs = InodeAttrs::builder()
        .size(size)
        .mtime(Timestamp::from_micros(mtime))
        .ctime(Timestamp::from_micros(ctime))
        .uid(uid as u32)
        .build();
    FileRecord::new(FileId::new(file), attrs)
}

/// Every page of a node search over `epochs`, `page` hits at a time.
fn drain_session(epochs: &[Arc<AcgEpoch>], req: &SearchRequest, page: usize) -> Vec<Hit> {
    let (first, mut session) = NodeSearchSession::open(epochs, req, page, |tasks, cutoff| {
        let cutoff = cutoff.map(|c| &**c);
        tasks.into_iter().map(|t| execute_classic(&epochs[t.group], req, t.plan, cutoff)).collect()
    });
    let mut hits = first.hits;
    while let Some(open) = &mut session {
        let next = open.pull_pinned(page);
        hits.extend(next.hits);
        if next.exhausted {
            session = None;
        }
    }
    hits
}

/// The reference executor's answer for a node: each epoch alone, merged.
fn node_reference(epochs: &[Arc<AcgEpoch>], req: &SearchRequest) -> Vec<Hit> {
    let per_acg = epochs.iter().map(|e| execute_request_reference(e, req).0).collect();
    merge_sorted_hits(per_acg, &req.sort, req.limit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Index-only walks change no hit. A node of two ACGs (one with a
    /// ctime B+-tree, so ctime sorts walk there and scan in the other) is
    /// searched by sort-attribute windows, some with an unproved `uid` or
    /// `size` conjunct, under every projection, paged by 1, 3 and 64 and
    /// resumed from a cursor. The streamed pages must equal the reference
    /// executor's merged answer — on the epochs pinned before a churn of
    /// removes and same-file re-upserts with a moved mtime, and on those
    /// after it.
    #[test]
    fn index_only_walks_match_the_reference_under_churn(
        rows in prop::collection::vec((0u64..40, 0u64..40, 0u64..40, 0u64..3), 1..80),
        churn in prop::collection::vec((any::<usize>(), 0u64..40, 0u64..8), 0..30),
        (sort_attr, descending, lo, hi) in (0usize..3, any::<bool>(), 0u64..45, 0u64..45),
        (uid, size_gt) in (0u64..5, 0u64..50),
        (projection, limit, page) in (0usize..3, 1usize..25, 0usize..3),
        (resume, cursor_at) in (any::<bool>(), any::<usize>()),
    ) {
        let mut groups: Vec<AcgIndexGroup> = (1..=2)
            .map(|acg| AcgIndexGroup::new(AcgId::new(acg), GroupConfig::default()))
            .collect();
        groups[0].create_index(IndexSpec::btree("ctime_btree", AttrName::Ctime)).unwrap();
        let t = Timestamp::from_secs(1);
        for (file, row) in rows.iter().enumerate() {
            let op = IndexOp::Upsert(churn_record(file as u64, *row));
            groups[file % 2].enqueue(op, t).unwrap();
        }
        let commit_and_pin = |groups: &mut Vec<AcgIndexGroup>| -> Vec<Arc<AcgEpoch>> {
            groups.iter_mut().for_each(|g| assert!(g.commit(t).is_ok()));
            groups.iter().map(|g| g.pin()).collect()
        };
        let before = commit_and_pin(&mut groups);
        for &(pick, mtime, kind) in &churn {
            let file = pick % rows.len();
            let (size, _, ctime, uid) = rows[file];
            let op = match kind {
                0 => IndexOp::Remove(FileId::new(file as u64)),
                _ => IndexOp::Upsert(churn_record(file as u64, (size, mtime, ctime, uid))),
            };
            groups[file % 2].enqueue(op, t).unwrap();
        }
        let after = commit_and_pin(&mut groups);

        let attr = [AttrName::Size, AttrName::Mtime, AttrName::Ctime][sort_attr].clone();
        let mut conjuncts = vec![
            Predicate::cmp(attr.clone(), CompareOp::Ge, Value::U64(lo.min(hi))),
            Predicate::cmp(attr.clone(), CompareOp::Lt, Value::U64(lo.max(hi))),
        ];
        // Out-of-range draws leave the conjunct out.
        if uid < 3 {
            conjuncts.push(Predicate::cmp(AttrName::Uid, CompareOp::Eq, Value::U64(uid)));
        }
        if size_gt < 40 {
            conjuncts.push(Predicate::cmp(AttrName::Size, CompareOp::Gt, Value::U64(size_gt)));
        }
        let sort =
            if descending { SortKey::Descending(attr.clone()) } else { SortKey::Ascending(attr.clone()) };
        let projection = match projection {
            0 => Projection::Ids,
            1 => Projection::Attrs(vec![attr]),
            _ => Projection::Full,
        };
        let req = SearchRequest::new(Predicate::And(conjuncts))
            .with_limit(limit)
            .sorted_by(sort)
            .with_projection(projection);
        let page = [1, 3, 64][page];
        for pinned in [&before, &after] {
            let mut req = req.clone();
            let first = node_reference(pinned, &req);
            if resume && !first.is_empty() {
                req = req.after(propeller::Cursor::after(&first[cursor_at % first.len()]));
            }
            let streamed = drain_session(pinned, &req, page);
            prop_assert_eq!(&streamed, &node_reference(pinned, &req), "page {}: {:?}", page, req);
        }
    }

    /// Any op encodes and decodes to itself.
    #[test]
    fn index_op_codec_round_trips(rec in arb_record(), remove in prop::bool::ANY) {
        let op = if remove { IndexOp::Remove(rec.file) } else { IndexOp::Upsert(rec) };
        let decoded = IndexOp::decode(&op.encode()).unwrap();
        prop_assert_eq!(decoded, op);
    }

    /// Decoding never panics on arbitrary bytes — it returns an error or a
    /// valid op.
    #[test]
    fn index_op_decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = IndexOp::decode(&bytes);
    }

    /// WAL replay returns exactly the appended payloads, in order, for any
    /// payload contents (including empty and binary).
    #[test]
    fn wal_replay_returns_appended_payloads(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..32)
    ) {
        let mut wal = Wal::in_memory();
        for p in &payloads {
            wal.append(p).unwrap();
        }
        prop_assert_eq!(wal.replay().unwrap(), payloads);
    }

    /// Appending garbage after valid frames never corrupts the valid
    /// prefix.
    #[test]
    fn wal_valid_prefix_is_stable_under_tail_garbage(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..32), 1..8),
        garbage in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut wal = Wal::in_memory();
        for p in &payloads {
            wal.append(p).unwrap();
        }
        wal.append_raw_for_test(&garbage).unwrap();
        let replayed = wal.replay().unwrap();
        // The valid frames always survive; garbage may accidentally parse
        // as extra frames but can never alter the prefix.
        prop_assert!(replayed.len() >= payloads.len());
        prop_assert_eq!(&replayed[..payloads.len()], &payloads[..]);
    }

    /// The B+-tree stays ordered and complete under arbitrary insert/remove
    /// interleavings.
    #[test]
    fn btree_iteration_sorted_and_complete(
        ops in prop::collection::vec((any::<u16>(), prop::bool::ANY), 1..400)
    ) {
        let mut tree = BPlusTree::new();
        let mut model = std::collections::BTreeMap::new();
        for (k, insert) in ops {
            if insert {
                tree.insert(k, k);
                model.insert(k, k);
            } else {
                prop_assert_eq!(tree.remove(&k), model.remove(&k));
            }
        }
        let ours: Vec<u16> = tree.iter().map(|(k, _)| *k).collect();
        let expected: Vec<u16> = model.keys().copied().collect();
        prop_assert_eq!(ours, expected);
        prop_assert_eq!(tree.len(), model.len());
    }

    /// K-D range queries agree with linear scans for arbitrary points.
    #[test]
    fn kdtree_range_agrees_with_scan(
        points in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..150),
        lo in (0.0f64..100.0, 0.0f64..100.0),
        span in (0.0f64..50.0, 0.0f64..50.0),
    ) {
        let mut tree = KdTree::new(2);
        for (i, &(x, y)) in points.iter().enumerate() {
            tree.insert(&[x, y], FileId::new(i as u64));
        }
        let hi = (lo.0 + span.0, lo.1 + span.1);
        let mut got: Vec<FileId> = tree.range_iter(&[lo.0, lo.1], &[hi.0, hi.1]).collect();
        got.sort();
        let mut expected: Vec<FileId> = points
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| x >= lo.0 && x <= hi.0 && y >= lo.1 && y <= hi.1)
            .map(|(i, _)| FileId::new(i as u64))
            .collect();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    /// Insert, duplicate-point, remove and absent-remove sequences over a
    /// small grid (many equal coordinates) and a drifting axis (monotone
    /// runs, so leaves split and scapegoats rebuild), turning remove-heavy
    /// halfway (so sparse trees rebuild): every clone taken along the way
    /// and the live tree answer every box exactly like brute force.
    #[test]
    fn kdtree_clones_and_live_tree_agree_with_brute_force(
        ops in prop::collection::vec((0u8..10, 0u8..16, 0u8..16, any::<usize>()), 1..900),
        boxes in prop::collection::vec((0u8..16, 0u8..16, 0u8..12, 0u8..12), 1..6),
    ) {
        let mut tree = KdTree::new(2);
        let mut model: Vec<([f64; 2], FileId)> = Vec::new();
        let mut versions = Vec::new();
        let drift = |i: usize| 16.0 + i as f64;
        for (i, &(kind, x, y, pick)) in ops.iter().enumerate() {
            let insert = if i < ops.len() / 2 { kind <= 7 } else { kind <= 1 };
            let fresh = FileId::new(i as u64);
            if kind == 9 {
                // Absent: an id never inserted, at a taken or a free point.
                let point = model.get(pick % model.len().max(1)).map_or([x as f64, 0.5], |e| e.0);
                prop_assert!(!tree.remove(&point, FileId::new(u64::MAX - i as u64)));
            } else if insert || model.is_empty() {
                let point = match model.get(pick % model.len().max(1)) {
                    Some(entry) if kind % 4 == 1 => entry.0, // a duplicate point
                    _ if kind % 4 == 2 => [drift(i), y as f64],
                    _ => [x as f64, y as f64],
                };
                tree.insert(&point, fresh);
                model.push((point, fresh));
            } else {
                let (point, id) = model.swap_remove(pick % model.len());
                prop_assert!(tree.remove(&point, id));
            }
            if i % 150 == 75 {
                versions.push((tree.clone(), model.clone()));
            }
        }
        versions.push((tree, model));
        for (tree, model) in &versions {
            prop_assert_eq!(tree.len(), model.len());
            for &(x, y, w, h) in &boxes {
                let lo = [x as f64, y as f64];
                let hi = [lo[0] + w as f64 * 8.0, lo[1] + h as f64];
                let mut got: Vec<FileId> = tree.range_iter(&lo, &hi).collect();
                got.sort();
                let mut expected: Vec<FileId> = model
                    .iter()
                    .filter(|(p, _)| (0..2).all(|d| lo[d] <= p[d] && p[d] <= hi[d]))
                    .map(|&(_, id)| id)
                    .collect();
                expected.sort();
                prop_assert_eq!(got, expected);
            }
        }
    }

    /// The parser never panics, and parseable queries round-trip through
    /// Display into an equivalent predicate.
    #[test]
    fn query_parser_is_total(text in "[ a-z0-9<>=&|!():*\"._-]{0,48}") {
        let now = Timestamp::from_secs(1_000_000);
        if let Ok(q) = Query::parse(&text, now) {
            let printed = q.predicate.to_string();
            let reparsed = Query::parse(&printed, now);
            prop_assert!(reparsed.is_ok(), "display form must reparse: {printed}");
        }
    }
}

/// K-D boxes stay exact where `u64 → f64` rounding is not: 2^53 and 2^53+1
/// project onto one f64, and so do the values just under `u64::MAX`. Over a
/// grid of files holding those sizes and mtimes, every box bounded strictly
/// or inclusively on them must answer exactly like the reference executor:
/// a point that ties a bound in f64 is checked on its record.
#[test]
fn kd_boxes_are_exact_where_f64_merges_neighbouring_values() {
    const P53: u64 = 1 << 53;
    let edges =
        [P53 - 1, P53, P53 + 1, P53 + 2, u64::MAX - 2048, u64::MAX - 1024, u64::MAX - 1, u64::MAX];
    let mut group = AcgIndexGroup::new(AcgId::new(1), GroupConfig::default());
    let t = Timestamp::from_secs(1);
    let grid = edges.iter().flat_map(|&size| edges.iter().map(move |&mtime| (size, mtime)));
    for (file, (size, mtime)) in grid.enumerate() {
        group.enqueue(IndexOp::Upsert(churn_record(file as u64, (size, mtime, 0, 0))), t).unwrap();
    }
    group.commit(t).unwrap();
    let epoch = group.pin();
    // Every strict and inclusive bound on every edge value.
    let bounds = |attr: AttrName, ops: &[CompareOp]| -> Vec<Predicate> {
        let at = |op| edges.map(|v| Predicate::cmp(attr.clone(), op, Value::U64(v)));
        ops.iter().flat_map(|&op| at(op)).collect()
    };
    let (lower, upper) = ([CompareOp::Gt, CompareOp::Ge], [CompareOp::Lt, CompareOp::Le]);
    let (size_lo, size_hi) = (bounds(AttrName::Size, &lower), bounds(AttrName::Size, &upper));
    let mtime = bounds(AttrName::Mtime, &[lower, upper].concat());
    let mut answered_from_the_index = 0;
    for lo in &size_lo {
        for hi in &size_hi {
            for at in &mtime {
                let conjuncts = vec![lo.clone(), hi.clone(), at.clone()];
                let req = SearchRequest::new(Predicate::And(conjuncts));
                let (hits, stats) = execute_request(&epoch, &req);
                assert_eq!(stats.access_paths[0].1, AccessPathKind::KdBox, "{req:?}");
                assert_eq!(hits, execute_request_reference(&epoch, &req).0, "{req:?}");
                answered_from_the_index += stats.candidates_scanned - stats.records_resolved;
            }
        }
    }
    // Interior points were admitted with no record read.
    assert!(answered_from_the_index > 0);
}
