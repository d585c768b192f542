//! The traced run: every per-layer metric of one workload.
//!
//! Fixed work, no time budget: each phase runs once or twice. Two span
//! sources are read (see `spans.rs`): the benchmark's own spans around the
//! layer probes, written to `perf-trace-<workload>.jsonl`, and the
//! program's propagated span trees, harvested per op through a client that
//! samples every request. End-to-end metrics never come from here; what
//! tracing costs is reported as `obs.trace_overhead_ratio`.

use std::time::Instant;

use propeller_cluster::FileQueryEngine;
use propeller_obs::{names, MetricsSnapshot};

use crate::catalogue::SPAN_KINDS;
use crate::gen::{self, Corpus, Op};
use crate::layers::{self, Rows};
use crate::run::{
    self, fresh_round, mixed_round, search_pass, shape_of, Args, Counters, Outcome, Tally,
};
use crate::spans::{Recorder, SelfTimes};
use crate::stats::{round_spread, BestOf, Summary};
use crate::system;

/// Create batches in the write cycle of a workload that is not
/// `ingest_fresh` (which runs its own full round).
const SIDE_FRESH_BATCHES: usize = 100;
/// Restarts timed for `cluster.recovery_s`; the fastest counts.
const RESTARTS: usize = 3;

fn p50(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

fn mean(samples: &[f64]) -> f64 {
    Summary::of(samples).mean
}

/// Harvests the span tree of the client's last request into `times`.
fn harvest(client: &FileQueryEngine, times: &mut SelfTimes) {
    if let Some(tree) = client.last_trace_id().and_then(|id| client.dump_trace(id).ok()) {
        times.absorb(&tree);
    }
}

/// The counters every search reports, per search (or per hit).
fn counter_rows(c: &Counters, rows: &mut Rows) {
    let per_search = |n: usize| n as f64 / c.searches.max(1) as f64;
    let per_hit = |n: usize| n as f64 / c.hits.max(1) as f64;
    let s = &c.stats;
    rows.push(("query.scanned_per_hit", per_hit(s.candidates_scanned)));
    rows.push(("query.early_terminated_per_search", per_search(s.early_terminated)));
    rows.push(("query.merge_skipped_per_search", per_search(s.merge_skipped)));
    rows.push(("query.bound_pruned_per_search", per_search(s.bound_pruned)));
    rows.push(("cluster.epoch_pins_per_search", per_search(s.epoch_pins)));
    rows.push(("cluster.commits_during_search_per_search", per_search(s.commits_during_search)));
    rows.push(("cluster.acgs_consulted_per_search", per_search(s.acgs_consulted)));
    rows.push(("cluster.pages_pulled_per_search", per_search(s.pages_pulled)));
    rows.push(("cluster.hits_shipped_per_hit", per_hit(s.hits_shipped)));
    rows.push(("cluster.node_hits_unsent_per_search", per_search(s.node_hits_unsent)));
}

/// What the nodes' registries recorded, merged cluster-wide.
fn registry_rows(snap: &MetricsSnapshot, rows: &mut Rows) {
    let quantile =
        |name: &str, q: f64| snap.histograms.get(name).map_or(0.0, |h| h.quantile(q) as f64);
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    rows.push(("cluster.epoch_pin_wait_p99_us", quantile(names::EPOCH_PIN_WAIT, 0.99)));
    rows.push(("cluster.node_ingest_p50_us", quantile(names::INGEST_LATENCY, 0.50)));
    rows.push(("cluster.wal_fsync_p50_us", quantile(names::WAL_FSYNC, 0.50)));
    rows.push(("cluster.node_search_p50_us", quantile(names::SEARCH_LATENCY, 0.50)));
    rows.push(("cluster.commits_published", counter(names::COMMITS_PUBLISHED)));
    rows.push(("cluster.snapshots_offloaded", counter(names::SNAPSHOTS_OFFLOADED)));
}

fn route_cache_hit_ratio(clients: &[&FileQueryEngine]) -> f64 {
    let (mut hits, mut misses) = (0, 0);
    for client in clients {
        let snap = client.obs().metrics.snapshot();
        hits += snap.counters.get(names::ROUTE_CACHE_HITS).copied().unwrap_or(0);
        misses += snap.counters.get(names::ROUTE_CACHE_MISSES).copied().unwrap_or(0);
    }
    hits as f64 / (hits + misses).max(1) as f64
}

/// Two untraced and two traced passes over `ops`, alternated; per-op
/// fastest of each pair. Returns the untraced and traced means, the
/// untraced counters and the untraced pass totals.
fn search_passes(
    plain: &FileQueryEngine,
    traced: &FileQueryEngine,
    ops: &[Op],
    times: &mut SelfTimes,
    tally: &mut Tally,
) -> (f64, f64, Counters, Vec<f64>) {
    let (mut plain_best, mut traced_best) = (BestOf::new(ops.len()), BestOf::new(ops.len()));
    let mut counters = Counters::default();
    let mut totals = Vec::new();
    for _ in 0..2 {
        let pass = search_pass(plain, ops, tally, |_, _, _| ());
        plain_best.absorb(&pass.us);
        totals.push(pass.us.iter().sum());
        counters = pass.counters;
        let pass = search_pass(traced, ops, tally, |_, _, _| harvest(traced, times));
        traced_best.absorb(&pass.us);
    }
    (mean(plain_best.values()), mean(traced_best.values()), counters, totals)
}

/// Runs `args.workload` traced and returns every per-layer metric.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let scale = run::scale_of(&args.workload, args.smoke);
    let shape = shape_of(&args.workload);
    let mut rec = Recorder::new();
    let mut rows: Rows = Vec::new();
    let mut tally = Tally::default();
    let mut times = SelfTimes::default();

    // Inputs, all from the seed.
    let t = Instant::now();
    let mixed = (args.workload == "mixed_rw").then(|| run::mixed_inputs(args, scale));
    let corpus: Corpus = match (args.workload.as_str(), &mixed) {
        ("content_rank", _) => gen::content_corpus(scale.files, args.seed),
        (_, Some(inputs)) => inputs.corpus.clone(),
        _ => gen::attr_corpus(scale.files, args.seed),
    };
    let own_round = args.workload == "ingest_fresh";
    let fresh = gen::fresh_batches(
        if own_round { scale.fresh_batches } else { SIDE_FRESH_BATCHES.min(scale.fresh_batches) },
        scale.fresh_batch_files,
        corpus.now,
        args.seed,
    );
    let ops: Vec<Op> = match (args.workload.as_str(), &mixed) {
        ("attr_topk", _) => gen::attr_ops(&corpus, scale.ops, args.seed),
        ("content_rank", _) => gen::content_ops(&corpus, scale.ops, args.seed),
        (_, Some(inputs)) => inputs.searches.clone(),
        _ => fresh.iter().map(|b| b.probe.clone()).collect(),
    };
    rows.push(("bench.gen_s", t.elapsed().as_secs_f64()));

    let warm_up =
        if args.workload == "content_rank" { ops[0].clone() } else { gen::warm_up(corpus.now) };
    let mut built = system::build(&args.workload, shape, &corpus, &warm_up.request)?;
    let mut traced = built.cluster.client().with_trace_sampling(1);
    if let Some(inputs) = &mixed {
        run::settle(&mut built.client, inputs)?;
    }

    // Searches, untraced against traced.
    let mut lag_p99 = 0.0;
    let (plain_us, traced_us, counters, totals) = if own_round {
        // The searches of `ingest_fresh` are its probes: one untraced and
        // one traced round of the whole workload.
        let plain = fresh_round(&mut built.client, &fresh, corpus.now, &mut tally, |_| ());
        let with_spans =
            fresh_round(&mut traced, &fresh, corpus.now, &mut tally, |c| harvest(c, &mut times));
        rows.push(("cluster.ingest_batch_p50_us", p50(&plain.batch_us)));
        rows.push(("cluster.visible_p50_us", p50(&plain.visible_us)));
        let total =
            |r: &run::FreshRound| r.batch_us.iter().chain(&r.probe_us).chain(&r.remove_us).sum();
        let totals = vec![total(&plain), total(&with_spans)];
        (mean(&plain.probe_us), mean(&with_spans.probe_us), plain.counters, totals)
    } else {
        let out = search_passes(&built.client, &traced, &ops, &mut times, &mut tally);
        // The write cycle, for the write-side span kinds and latencies.
        let cycle =
            fresh_round(&mut traced, &fresh, corpus.now, &mut tally, |c| harvest(c, &mut times));
        rows.push(("cluster.ingest_batch_p50_us", p50(&cycle.batch_us)));
        rows.push(("cluster.visible_p50_us", p50(&cycle.visible_us)));
        out
    };
    let counters = match &mixed {
        // Under the open loop the reader's searches overlap the writer's
        // commits: that round's counters and generator lateness.
        Some(inputs) => {
            let mut reader = built.cluster.client();
            let round = mixed_round(
                &mut reader,
                &mut built.client,
                &inputs.searches,
                &inputs.batches,
                scale,
                &mut tally,
            );
            built
                .client
                .remove_files(inputs.leftovers.clone())
                .map_err(|e| format!("round end: {e}"))?;
            lag_p99 = run::lag_p99(&round.lag_us);
            round.counters
        }
        None => counters,
    };
    counter_rows(&counters, &mut rows);
    rows.push(("obs.trace_overhead_ratio", traced_us / plain_us));
    rows.push(("bench.round_spread", round_spread(&totals)));
    rows.push(("bench.sched_lag_p99_us", lag_p99));
    for (kind, metric) in SPAN_KINDS {
        rows.push((metric, times.mean_us(kind)));
    }

    registry_rows(&built.cluster.metrics_snapshot(), &mut rows);
    rows.push(("cluster.route_cache_hit_ratio", route_cache_hit_ratio(&[&built.client, &traced])));
    layers::fabric_probes(&mut rec, &built.cluster, &mut rows);
    drop(traced);

    // Recovery, then what the durable root weighs once everything stopped.
    let mut recovery_s = if shape.durable { f64::INFINITY } else { 0.0 };
    if shape.durable {
        for _ in 0..RESTARTS {
            let (next, s) = run::verified_restart(built, &corpus, &fresh[0].probe, &mut tally);
            built = next;
            recovery_s = recovery_s.min(s);
        }
    }
    rows.push(("cluster.recovery_s", recovery_s));
    let data_dir = built.stop();
    rows.push((
        "index.disk_bytes_per_file",
        data_dir
            .as_deref()
            .map_or(0.0, |d| system::dir_bytes(d) as f64 / corpus.records.len() as f64),
    ));
    if let Some(dir) = data_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    layers::library_probes(&mut rec, &corpus, &ops, &mut rows);
    layers::durable_probes(&mut rec, &corpus, &mut rows);
    layers::node_probes(&mut rec, &corpus, &ops, &mut rows);
    layers::obs_probes(&mut rec, &mut rows);
    layers::core_probes(&mut rec, &corpus, &ops, &mut rows);

    let trace_file = system::scratch_root().join(format!("perf-trace-{}.jsonl", args.workload));
    rec.write_jsonl(&trace_file).map_err(|e| format!("write {}: {e}", trace_file.display()))?;
    eprintln!("{} benchmark spans written to {}", rec.spans().len(), trace_file.display());

    let mut outcome = Outcome {
        tally,
        files: corpus.records.len(),
        ops: ops.len(),
        rounds: 1,
        rounds_agree: true,
        ..Outcome::default()
    };
    for (name, value) in rows {
        outcome.put(name, value);
    }
    Ok(outcome)
}
