//! The client's cached search plan: in steady state a search sends
//! nothing to the Master, and a plan gone stale — a group created, split,
//! migrated, bound or adopted since it was located — is caught by the
//! Index Nodes, so a long-lived client answers exactly what a fresh
//! client and brute force over the acknowledged writes answer.

use std::collections::BTreeMap;

use propeller::cluster::{Cluster, ClusterConfig, FileQueryEngine, Request, Response};
use propeller::query::{run_local_search, CompareOp, Predicate, SearchRequest, SortKey};
use propeller::types::{AttrName, FileId, InodeAttrs, Value};
use propeller::FileRecord;
use propeller_obs::{names, SpanKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn record(file: u64, size: u64) -> FileRecord {
    FileRecord::new(FileId::new(file), InodeAttrs::builder().size(size).build())
}

/// The Master's `LocateAcgs` count (reading it locates nothing).
fn locates(cluster: &Cluster) -> u64 {
    match cluster.rpc().call(cluster.master_id(), Request::Metrics) {
        Ok(Response::Metrics(snap)) => {
            snap.counters.get(names::LOCATES_SERVED).copied().unwrap_or(0)
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn a_steady_client_locates_once_and_once_more_after_a_new_group() {
    let cluster =
        Cluster::start(ClusterConfig { index_nodes: 2, group_capacity: 50, ..Default::default() });
    let mut writer = cluster.client();
    writer.index_files((0..40).map(|i| record(i, i)).collect()).unwrap();
    let reader = cluster.client().with_trace_sampling(1);
    let all = SearchRequest::new(Predicate::cmp(AttrName::Size, CompareOp::Ge, Value::U64(0)));
    let before = locates(&cluster);
    for _ in 0..100 {
        assert_eq!(reader.search_with(&all).unwrap().hits.len(), 40);
    }
    assert_eq!(locates(&cluster), before + 1, "100 searches, one plan");
    let steady = reader.dump_trace(reader.last_trace_id().unwrap()).unwrap();
    assert!(steady.find(SpanKind::RouteRetry).is_empty(), "{}", steady.render());

    // Another client's write fills the first group and rolls into a new one.
    writer.index_files((40..100).map(|i| record(i, i)).collect()).unwrap();
    assert_eq!(reader.search_with(&all).unwrap().hits.len(), 100);
    let relocated = reader.dump_trace(reader.last_trace_id().unwrap()).unwrap();
    let retry = relocated.find(SpanKind::RouteRetry);
    assert_eq!(retry.len(), 1, "{}", relocated.render());
    let root = relocated.find(SpanKind::Request)[0].id;
    assert_eq!(retry[0].parent, root, "the relocation hangs under the search's root");
    for _ in 0..99 {
        assert_eq!(reader.search_with(&all).unwrap().hits.len(), 100);
    }
    assert_eq!(locates(&cluster), before + 2, "the new group costs exactly one more locate");
    assert_eq!(cluster.acg_count(), 2);
    cluster.shutdown();
}

/// What one check asks: a range of sizes, either whole by file id or as
/// a top-5 by size.
fn random_request(rng: &mut StdRng) -> SearchRequest {
    let op = if rng.gen_range(0..2) == 0 { CompareOp::Lt } else { CompareOp::Ge };
    let request =
        SearchRequest::new(Predicate::cmp(AttrName::Size, op, Value::U64(rng.gen_range(0..1_000))));
    match rng.gen_range(0..3) {
        0 => request.sorted_by(SortKey::Descending(AttrName::Size)).with_limit(5),
        _ => request,
    }
}

fn ids(response: propeller::SearchResponse) -> Vec<FileId> {
    response.hits.iter().map(|hit| hit.file).collect()
}

/// The long-lived `reader` answers what a fresh client answers, and —
/// while every replica is caught up — what brute force over `model`
/// answers.
fn check(
    cluster: &Cluster,
    reader: &FileQueryEngine,
    model: &BTreeMap<FileId, FileRecord>,
    caught_up: bool,
    rng: &mut StdRng,
    step: &str,
) {
    for _ in 0..3 {
        let request = random_request(rng);
        let long_lived = ids(reader.search_with(&request).unwrap());
        let fresh = ids(cluster.client().search_with(&request).unwrap());
        assert_eq!(long_lived, fresh, "after {step}: {request:?}");
        if caught_up {
            let brute = ids(run_local_search(model.values().cloned(), &request));
            assert_eq!(long_lived, brute, "after {step}: {request:?}");
        }
    }
}

/// Upserts `files` through `client` at random sizes, or removes them.
fn write(
    client: &mut FileQueryEngine,
    files: Vec<u64>,
    model: &mut BTreeMap<FileId, FileRecord>,
    rng: &mut StdRng,
) {
    if rng.gen_range(0..4) == 0 {
        let files: Vec<FileId> = files.into_iter().map(FileId::new).collect();
        client.remove_files(files.clone()).unwrap();
        files.iter().for_each(|file| drop(model.remove(file)));
    } else {
        let records: Vec<FileRecord> =
            files.into_iter().map(|f| record(f, rng.gen_range(0..1_000))).collect();
        client.index_files(records.clone()).unwrap();
        model.extend(records.into_iter().map(|r| (r.file, r)));
    }
}

/// One random interleaving on a durable cluster: a killed node revives
/// from its disk, as a crashed one does.
fn freshness_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let replication = 1 + (seed % 2) as usize;
    let dir = std::env::temp_dir().join(format!("propeller-plan-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cluster = Cluster::start(ClusterConfig {
        index_nodes: 3,
        group_capacity: 12,
        split_threshold: 8,
        replication,
        seed,
        data_dir: Some(dir.clone()),
        ..Default::default()
    });
    let mut writer = cluster.client();
    let mut reader = cluster.client();
    let mut model = BTreeMap::new();
    let mut next = 0u64;
    write(&mut writer, (0..6).collect(), &mut model, &mut rng);
    next += 6;
    check(&cluster, &reader, &model, true, &mut rng, "the first write");
    for step in 0..40 {
        let what = match rng.gen_range(0..10) {
            // Another client's new files: they fill the open group and
            // roll into new ones, wherever the Master places them.
            0..=2 => {
                let n = rng.gen_range(1..10);
                write(&mut writer, (next..next + n).collect(), &mut model, &mut rng);
                next += n;
                "new files"
            }
            // Another client's churn on files already written.
            3 => {
                let n = rng.gen_range(1..6);
                let old: Vec<u64> = (0..n).map(|_| rng.gen_range(0..next)).collect();
                write(&mut writer, old, &mut model, &mut rng);
                "churn"
            }
            // The long-lived client's own writes.
            4 => {
                let n = rng.gen_range(1..6);
                write(&mut reader, (next..next + n).collect(), &mut model, &mut rng);
                next += n;
                "own files"
            }
            // A group bound out of band, then written.
            5 => {
                let n = rng.gen_range(1..14);
                let files: Vec<u64> = (next..next + n).collect();
                next += n;
                writer
                    .bind_group(&files.iter().copied().map(FileId::new).collect::<Vec<_>>())
                    .unwrap();
                write(&mut writer, files, &mut model, &mut rng);
                "bind"
            }
            // Heartbeats (which move placement loads), splits, migrations.
            6 | 7 => {
                cluster.run_maintenance().unwrap();
                "maintenance"
            }
            // An Index Node dies, revives from disk and catches up.
            8 if replication > 1 => {
                let victim = cluster.index_node_ids()[rng.gen_range(0..3)];
                cluster.rpc().call(victim, Request::Shutdown).unwrap();
                cluster.rpc().deregister(victim);
                check(&cluster, &reader, &model, true, &mut rng, "a kill");
                cluster.revive_index_node(victim);
                check(&cluster, &reader, &model, false, &mut rng, "a revival");
                cluster.catch_up_node(victim).unwrap();
                "a catch-up"
            }
            _ => "nothing",
        };
        check(&cluster, &reader, &model, true, &mut rng, &format!("step {step}: {what}"));
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_long_lived_plan_answers_what_a_fresh_one_does() {
    for seed in 0..12 {
        freshness_case(seed);
    }
}
