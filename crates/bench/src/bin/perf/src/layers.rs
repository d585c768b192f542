//! Outside-in layer probes: each layer's public functions are called and
//! timed from here, on a 5 000-file slice of the workload's corpus (one
//! ACG's worth), each probe inside one of the benchmark's own spans.
//!
//! Only canonical entry points are used — `SearchRequest::parse`,
//! `plan_request`, `execute_request`, `AcgIndexGroup::{enqueue_batch,
//! commit, pin, snapshot, recover}`, `Wal`, `IndexNode::handle`,
//! `MasterNode::handle`, `Rpc::call`, `WorkerPool::run`, `Propeller` — so
//! that collapsing the parallel executors never has to touch this file.

use std::hint::black_box;
use std::time::Instant;

use propeller_cluster::{
    Cluster, IndexNode, IndexNodeConfig, MasterConfig, MasterNode, Request, Response, WorkerPool,
};
use propeller_core::{Propeller, PropellerConfig};
use propeller_index::{AcgIndexGroup, FileRecord, GroupConfig, IndexOp, InvertedIndex, Wal};
use propeller_obs::{Histogram, Lane, SpanBuffer, SpanKind, TraceContext};
use propeller_query::{execute_request, plan_request, SearchRequest};
use propeller_types::{AcgId, FileId, NodeId, Timestamp};

use crate::gen::{Corpus, Op, LOAD_BATCH};
use crate::spans::Recorder;
use crate::system;

/// Files in the probe slice: one full ACG.
const PROBE_FILES: usize = 5_000;
/// Ops per write batch in the probes (the shape `ingest_fresh` sends).
const PROBE_BATCH: usize = 100;
/// Each probe repeats this often; the fastest repeat is reported.
const REPEATS: usize = 5;

/// Collected `(metric, value)` rows.
pub type Rows = Vec<(&'static str, f64)>;

/// Fastest of [`REPEATS`] runs of `f`, in seconds, inside a span.
fn fastest<T>(rec: &mut Recorder, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    let (best, _) = rec.span(name, 0, |rec| {
        (0..REPEATS).fold(f64::INFINITY, |best, rep| {
            let (value, s) = rec.span(name, rep as u64 + 1, |_| f());
            black_box(value);
            best.min(s)
        })
    });
    best
}

fn upserts(rows: &[FileRecord]) -> Vec<IndexOp> {
    rows.iter().cloned().map(IndexOp::Upsert).collect()
}

/// An in-memory group holding `rows`, committed.
fn loaded_group(rows: &[FileRecord]) -> AcgIndexGroup {
    let mut group = AcgIndexGroup::new(AcgId::new(1), GroupConfig::default());
    group.enqueue_batch(upserts(rows), Timestamp::EPOCH).expect("in-memory enqueue");
    group.commit(Timestamp::EPOCH).expect("in-memory commit");
    group
}

/// `query.*` and `index.*` probes that need no cluster.
pub fn library_probes(rec: &mut Recorder, corpus: &Corpus, ops: &[Op], rows: &mut Rows) {
    let slice = &corpus.records[..PROBE_FILES.min(corpus.records.len())];
    let per_op = |s: f64| s * 1e6 / ops.len() as f64;

    let s = fastest(rec, "query.parse", || {
        ops.iter()
            .map(|op| SearchRequest::parse(&op.text, corpus.now).is_ok())
            .filter(|ok| *ok)
            .count()
    });
    rows.push(("query.parse_us", per_op(s)));

    let group = loaded_group(slice);
    let epoch = group.pin();
    let s = fastest(rec, "query.plan", || {
        for op in ops {
            black_box(plan_request(epoch.as_ref(), &op.request));
        }
    });
    rows.push(("query.plan_us", per_op(s)));
    let s = fastest(rec, "query.exec", || {
        ops.iter().map(|op| execute_request(&epoch, &op.request).0.len()).sum::<usize>()
    });
    rows.push(("query.exec_us", per_op(s)));
    // What WAND pruned is read here, at the executor: the streamed
    // cluster path does not carry these two counters back to the client.
    let (docs, blocks) = ops.iter().fold((0, 0), |(docs, blocks), op| {
        let stats = execute_request(&epoch, &op.request).1;
        (docs + stats.wand_docs_pruned, blocks + stats.wand_blocks_skipped)
    });
    rows.push(("query.wand_docs_pruned_per_search", docs as f64 / ops.len() as f64));
    rows.push(("query.wand_blocks_skipped_per_search", blocks as f64 / ops.len() as f64));

    let s = fastest(rec, "index.pin", || (0..100_000).map(|_| group.pin().len()).sum::<usize>());
    rows.push(("index.pin_ns", s * 1e9 / 100_000.0));

    let s = fastest(rec, "index.inverted_insert", || {
        let mut inverted = InvertedIndex::new();
        for record in slice {
            inverted.insert(record);
        }
        inverted.doc_count()
    });
    rows.push(("index.inverted_insert_us_per_doc", s * 1e6 / slice.len() as f64));

    let s = fastest(rec, "index.apply", || {
        let mut group = AcgIndexGroup::new(AcgId::new(1), GroupConfig::default());
        for chunk in slice.chunks(PROBE_BATCH) {
            group.enqueue_batch(upserts(chunk), Timestamp::EPOCH).expect("in-memory enqueue");
            group.commit(Timestamp::EPOCH).expect("in-memory commit");
        }
        group.len()
    });
    rows.push(("index.apply_us_per_op", s * 1e6 / slice.len() as f64));
}

/// `index.wal_*`, `index.snapshot_*` and `index.recover_ms`: the durable
/// file idioms, against a scratch directory inside the checkout.
pub fn durable_probes(rec: &mut Recorder, corpus: &Corpus, rows: &mut Rows) {
    let slice = &corpus.records[..PROBE_FILES.min(corpus.records.len())];
    let dir = system::scratch_root().join(format!("probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the probe directory inside the checkout");
    let frames: Vec<Vec<u8>> =
        slice.chunks(PROBE_BATCH).map(|c| IndexOp::encode_batch(&upserts(c))).collect();

    let wal_path = dir.join("probe.wal");
    let (mut append_s, mut sync_s, mut bytes) = (f64::INFINITY, f64::INFINITY, 0);
    rec.span("index.wal", 0, |rec| {
        for rep in 0..REPEATS {
            let _ = std::fs::remove_file(&wal_path);
            let mut wal = Wal::open(&wal_path).expect("open probe wal");
            let (mut a, mut s) = (0.0, 0.0);
            for frame in &frames {
                a += rec
                    .span("index.wal_append", rep as u64, |_| wal.append(frame).expect("append"))
                    .1;
                s += rec.span("index.wal_sync", rep as u64, |_| wal.sync().expect("sync")).1;
            }
            append_s = append_s.min(a);
            sync_s = sync_s.min(s);
            bytes = wal.byte_size();
        }
    });
    rows.push(("index.wal_append_us_per_frame", append_s * 1e6 / frames.len() as f64));
    rows.push(("index.wal_sync_us", sync_s * 1e6 / frames.len() as f64));
    rows.push(("index.wal_bytes_per_op", bytes as f64 / slice.len() as f64));

    // A durable group: snapshot it, then recover it from the snapshot.
    let group_dir = dir.join("group");
    std::fs::create_dir_all(&group_dir).expect("create the probe group directory");
    let config = || GroupConfig {
        wal: Wal::open(group_dir.join("acg-1.wal")).expect("open group wal"),
        snapshot_dir: Some(group_dir.clone()),
        ..GroupConfig::default()
    };
    let mut group = AcgIndexGroup::new(AcgId::new(1), config());
    group.enqueue_batch(upserts(slice), Timestamp::EPOCH).expect("durable enqueue");
    group.commit(Timestamp::EPOCH).expect("durable commit");
    group.sync_wal().expect("durable sync");
    let mut touch = 0u64;
    let s = fastest(rec, "index.snapshot", || {
        // A snapshot of already-covered state is skipped: move the state.
        touch += 1;
        let mut record = slice[0].clone();
        record.attrs.size = touch;
        group
            .enqueue_batch(
                vec![IndexOp::Upsert(record.clone()), IndexOp::Upsert(record)],
                Timestamp::EPOCH,
            )
            .expect("durable enqueue");
        group.commit(Timestamp::EPOCH).expect("durable commit");
        group.snapshot().expect("snapshot")
    });
    rows.push(("index.snapshot_ms", s * 1e3));
    let newest = propeller_index::snapshot::list_snapshots(&group_dir, AcgId::new(1))
        .into_iter()
        .max_by_key(|(lsn, _)| *lsn)
        .and_then(|(_, path)| std::fs::metadata(path).ok())
        .map_or(0, |m| m.len());
    rows.push(("index.snapshot_bytes_per_file", newest as f64 / slice.len() as f64));
    drop(group);
    let s = fastest(rec, "index.recover", || {
        AcgIndexGroup::recover(AcgId::new(1), config()).expect("recover").0.len()
    });
    rows.push(("index.recover_ms", s * 1e3));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cluster.*` probes against node state machines driven in-process (no
/// fabric, no actor threads) and against a bare worker pool.
pub fn node_probes(rec: &mut Recorder, corpus: &Corpus, ops: &[Op], rows: &mut Rows) {
    let slice = &corpus.records[..PROBE_FILES.min(corpus.records.len())];
    let acg = AcgId::new(1);

    let s = fastest(rec, "cluster.node_ingest", || {
        let mut node = IndexNode::new(NodeId::new(1), IndexNodeConfig::default());
        for chunk in slice.chunks(PROBE_BATCH) {
            let req = Request::IndexBatch {
                acg,
                ops: upserts(chunk),
                now: Timestamp::EPOCH,
                ctx: TraceContext::NONE,
            };
            assert!(
                matches!(node.handle(req), Response::BatchLogged { .. }),
                "probe batch refused"
            );
        }
        node.acg_count()
    });
    rows.push(("cluster.node_ingest_us_per_op", s * 1e6 / slice.len() as f64));

    let mut node = IndexNode::new(NodeId::new(1), IndexNodeConfig::default());
    node.handle(Request::IndexBatch {
        acg,
        ops: upserts(slice),
        now: Timestamp::EPOCH,
        ctx: TraceContext::NONE,
    });
    let s = fastest(rec, "cluster.node_search", || {
        ops.iter()
            .map(|op| {
                let req = Request::Search {
                    acgs: vec![acg],
                    request: op.request.clone(),
                    now: corpus.now,
                    ctx: TraceContext::NONE,
                };
                match node.handle(req) {
                    Response::SearchHits { hits, .. } => hits.len(),
                    other => panic!("probe search refused: {other:?}"),
                }
            })
            .sum::<usize>()
    });
    rows.push(("cluster.node_search_us", s * 1e6 / ops.len() as f64));

    let files: Vec<FileId> = slice.iter().map(|r| r.file).collect();
    let s = fastest(rec, "cluster.master_resolve", || {
        let mut master = MasterNode::new(
            vec![NodeId::new(1), NodeId::new(2)],
            MasterConfig {
                group_capacity: system::group_capacity(corpus.records.len()),
                ..MasterConfig::default()
            },
        );
        for chunk in files.chunks(LOAD_BATCH) {
            let req = Request::ResolveFiles {
                files: chunk.to_vec(),
                hints_since: 0,
                ctx: TraceContext::NONE,
            };
            assert!(
                matches!(master.handle(req), Response::Resolved { .. }),
                "probe resolve refused"
            );
        }
        master.acg_count()
    });
    rows.push(("cluster.master_resolve_us_per_file", s * 1e6 / files.len() as f64));

    // Two-job batches: the smallest `run` that leaves the calling thread.
    const DISPATCHES: usize = 2_000;
    let pool = WorkerPool::new(2);
    let s = fastest(rec, "cluster.pool_dispatch", || {
        (0..DISPATCHES)
            .map(|i| {
                let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
                    vec![Box::new(move || i), Box::new(move || i)];
                pool.run(jobs).len()
            })
            .sum::<usize>()
    });
    rows.push(("cluster.pool_dispatch_us", s * 1e6 / DISPATCHES as f64));
}

/// `cluster.rpc_hop_us` and `cluster.master_locate_us`: round trips
/// through the running cluster's fabric.
pub fn fabric_probes(rec: &mut Recorder, cluster: &Cluster, rows: &mut Rows) {
    const CALLS: usize = 2_000;
    let node = cluster.index_node_ids()[0];
    let s = fastest(rec, "cluster.rpc_hop", || {
        (0..CALLS).filter(|_| cluster.rpc().call(node, Request::NodeStats).is_ok()).count()
    });
    rows.push(("cluster.rpc_hop_us", s * 1e6 / CALLS as f64));
    let s = fastest(rec, "cluster.master_locate", || {
        (0..CALLS / 4)
            .filter(|_| cluster.rpc().call(cluster.master_id(), Request::LocateAcgs).is_ok())
            .count()
    });
    rows.push(("cluster.master_locate_us", s * 1e6 / (CALLS / 4) as f64));
}

/// `obs.hist_record_ns` and `obs.span_record_ns`: what one recording costs.
pub fn obs_probes(rec: &mut Recorder, rows: &mut Rows) {
    const RECORDS: u64 = 1_000_000;
    let histogram = Histogram::default();
    let s = fastest(rec, "obs.hist_record", || {
        for v in 0..RECORDS {
            histogram.record(black_box(v & 0xFFFF));
        }
        histogram.count()
    });
    rows.push(("obs.hist_record_ns", s * 1e9 / RECORDS as f64));
    const SPANS: u64 = 100_000;
    let buffer = SpanBuffer::new(Lane::Master, propeller_obs::DEFAULT_SPAN_CAPACITY);
    let s = fastest(rec, "obs.span_record", || {
        for i in 0..SPANS {
            let open =
                buffer.begin(TraceContext::root(1), SpanKind::Search, Timestamp::from_micros(i));
            buffer.finish(open, Timestamp::from_micros(i + 1));
        }
        buffer.len()
    });
    rows.push(("obs.span_record_ns", s * 1e9 / SPANS as f64));
}

/// `core.*`: the same corpus and ops through the single-process service —
/// the stack without the fabric or actor threads.
pub fn core_probes(rec: &mut Recorder, corpus: &Corpus, ops: &[Op], rows: &mut Rows) {
    let mut service = Propeller::new(PropellerConfig {
        group_capacity: system::group_capacity(corpus.records.len()),
        ..PropellerConfig::default()
    });
    let mut index_s = 0.0;
    rec.span("core.index", 0, |_| {
        for chunk in corpus.records.chunks(LOAD_BATCH) {
            let batch = chunk.to_vec();
            let t = Instant::now();
            service.index_batch(batch).expect("core index");
            index_s += t.elapsed().as_secs_f64();
        }
    });
    rows.push(("core.index_us_per_file", index_s * 1e6 / corpus.records.len() as f64));
    // Two passes, per-op fastest — the replay's estimator.
    let mut best = vec![f64::INFINITY; ops.len()];
    rec.span("core.search", 0, |_| {
        for _ in 0..2 {
            for (slot, op) in best.iter_mut().zip(ops) {
                let t = Instant::now();
                black_box(service.search_with(&op.request).expect("core search").hits.len());
                *slot = slot.min(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    });
    rows.push(("core.search_us", best.iter().sum::<f64>() / ops.len() as f64));
}
