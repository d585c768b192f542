//! The metric catalogue: every name the benchmark may print, with its
//! unit. `BENCHMARK.json` lists the same names (a test holds the two
//! together); README.md says what each one means and which end-to-end
//! metric each layer metric should move.

/// The four workloads, in the order `--repeat-check` runs them.
pub const WORKLOADS: [&str; 4] = ["attr_topk", "content_rank", "ingest_fresh", "mixed_rw"];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: its unit, its direction, and the share of the
/// parent's median by which it may worsen before a change is a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// End-to-end metrics: printed by every workload with `--trace 0`.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("search_mean_us", "us", Better::Lower, 0.25),
    e2e("search_p50_us", "us", Better::Lower, 0.25),
    e2e("search_p99_us", "us", Better::Lower, 0.25),
    e2e("ingest_files_per_s", "files/s", Better::Higher, 0.25),
    e2e("rss_bytes_per_file", "B/file", Better::Lower, 0.05),
];

/// Span kinds whose self time the traced run reports, with the metric
/// each one is reported as.
pub const SPAN_KINDS: [(&str, &str); 12] = [
    ("request", "cluster.span_request_self_us"),
    ("resolve", "cluster.span_resolve_self_us"),
    ("open", "cluster.span_open_self_us"),
    ("pull", "cluster.span_pull_self_us"),
    ("merge", "cluster.span_merge_self_us"),
    ("search", "cluster.span_search_self_us"),
    ("acg-exec", "cluster.span_acg_exec_self_us"),
    ("pool-job", "cluster.span_pool_job_self_us"),
    ("epoch-pin", "cluster.span_epoch_pin_self_us"),
    ("ingest", "cluster.span_ingest_self_us"),
    ("wal-fsync", "cluster.span_wal_fsync_self_us"),
    ("replicate", "cluster.span_replicate_self_us"),
];

/// Per-layer metrics: printed by every workload with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("query.exec_us", "us"),
    ("query.scanned_per_hit", "count"),
    ("query.early_terminated_per_search", "count"),
    ("query.merge_skipped_per_search", "count"),
    ("query.bound_pruned_per_search", "count"),
    ("query.wand_docs_pruned_per_search", "count"),
    ("query.wand_blocks_skipped_per_search", "count"),
    ("index.inverted_insert_us_per_doc", "us"),
    ("index.apply_us_per_op", "us"),
    ("index.wal_append_us_per_frame", "us"),
    ("index.wal_sync_us", "us"),
    ("index.wal_bytes_per_op", "B"),
    ("index.pin_ns", "ns"),
    ("index.snapshot_ms", "ms"),
    ("index.snapshot_bytes_per_file", "B/file"),
    ("index.recover_ms", "ms"),
    ("index.disk_bytes_per_file", "B/file"),
    ("cluster.epoch_pin_wait_p99_us", "us"),
    ("cluster.epoch_pins_per_search", "count"),
    ("cluster.commits_during_search_per_search", "count"),
    ("cluster.rpc_hop_us", "us"),
    ("cluster.pool_dispatch_us", "us"),
    ("cluster.master_locate_us", "us"),
    ("cluster.master_resolve_us_per_file", "us"),
    ("cluster.route_cache_hit_ratio", "ratio"),
    ("cluster.node_ingest_us_per_op", "us"),
    ("cluster.node_ingest_p50_us", "us"),
    ("cluster.wal_fsync_p50_us", "us"),
    ("cluster.node_search_us", "us"),
    ("cluster.node_search_p50_us", "us"),
    ("cluster.acgs_consulted_per_search", "count"),
    ("cluster.pages_pulled_per_search", "count"),
    ("cluster.hits_shipped_per_hit", "ratio"),
    ("cluster.node_hits_unsent_per_search", "count"),
    ("cluster.span_request_self_us", "us"),
    ("cluster.span_resolve_self_us", "us"),
    ("cluster.span_open_self_us", "us"),
    ("cluster.span_pull_self_us", "us"),
    ("cluster.span_merge_self_us", "us"),
    ("cluster.span_search_self_us", "us"),
    ("cluster.span_acg_exec_self_us", "us"),
    ("cluster.span_pool_job_self_us", "us"),
    ("cluster.span_epoch_pin_self_us", "us"),
    ("cluster.span_ingest_self_us", "us"),
    ("cluster.span_wal_fsync_self_us", "us"),
    ("cluster.span_replicate_self_us", "us"),
    ("cluster.commits_published", "count"),
    ("cluster.snapshots_offloaded", "count"),
    ("cluster.ingest_batch_p50_us", "us"),
    ("cluster.visible_p50_us", "us"),
    ("cluster.recovery_s", "s"),
    ("core.search_us", "us"),
    ("core.index_us_per_file", "us"),
    ("obs.hist_record_ns", "ns"),
    ("obs.span_record_ns", "ns"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("bench.gen_s", "s"),
    ("bench.sched_lag_p99_us", "us"),
    ("bench.round_spread", "ratio"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
    end_to_end.chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, unit)| unit)
}
