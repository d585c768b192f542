//! Smoke: every workload, measured and traced, at a scale that takes
//! seconds — and the catalogue held against `BENCHMARK.json`.

use crate::catalogue::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::Args;
use crate::{result_line, run_workload};

const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// The string value of `"key": "…"` on a line of `BENCHMARK.json`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tail = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
    Some(&tail[..tail.find('"')?])
}

/// `(name, line)` of every object in the JSON array called `section`
/// (the file keeps one object per line).
fn section(name: &str) -> Vec<(&'static str, &'static str)> {
    let start = BENCHMARK_JSON.find(&format!("\"{name}\": [")).expect("section present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section closed")];
    body.lines().filter_map(|l| Some((field(l, "name")?, l))).collect()
}

fn args(workload: &str, trace: bool) -> Args {
    Args { workload: workload.into(), seed: 3, seconds: 0.2, trace, smoke: true }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_and_the_catalogue_agree() {
    let workloads: Vec<&str> = section("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    let listed = section("end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (metric, (name, line)) in END_TO_END.iter().zip(listed) {
        assert_eq!(name, metric.name);
        assert_eq!(field(line, "unit"), Some(metric.unit), "{name}");
        let better = if metric.better == Better::Lower { "lower" } else { "higher" };
        assert_eq!(field(line, "better"), Some(better), "{name}");
        assert!(line.contains(&format!("\"bound\": {}}}", metric.bound)), "{name}: {line}");
        assert!(metric.bound > 0.0 && metric.bound <= 0.25);
    }
    let listed = section("per_layer");
    assert_eq!(listed.len(), PER_LAYER.len());
    for ((name, unit), (listed_name, line)) in PER_LAYER.iter().zip(listed) {
        assert_eq!(listed_name, *name);
        assert_eq!(field(line, "unit"), Some(*unit), "{name}");
    }
    let mut names: Vec<&str> =
        END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.0)).collect();
    assert!(names.iter().all(|n| well_formed(n)));
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len(), "names are used once");
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let outcome = run_workload(&args(workload, false)).unwrap();
        assert_eq!(outcome.tally.failed, 0, "{workload}: {:?}", outcome.tally.notes);
        assert!(outcome.rounds_agree && outcome.rounds >= 2, "{workload}");
        assert!(outcome.tally.attempted > 0);
        let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name), "{workload}");
        for (name, value) in &outcome.metrics {
            // Tests share one process: a workload's index can fit in what
            // an earlier one freed, so only here may the growth read 0.
            let floor = if *name == "rss_bytes_per_file" { -1.0 } else { 0.0 };
            assert!(value.is_finite() && *value > floor, "{workload} {name} = {value}");
        }
        let line = result_line(&outcome, true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        for metric in END_TO_END {
            assert!(line.contains(&format!("\"unit\": \"{}\"", metric.unit)), "{line}");
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_when_traced() {
    for workload in WORKLOADS {
        let outcome = run_workload(&args(workload, true)).unwrap();
        assert_eq!(outcome.tally.failed, 0, "{workload}: {:?}", outcome.tally.notes);
        let mut names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
        let mut want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.sort_unstable();
        want.sort_unstable();
        assert_eq!(names, want, "{workload}");
        for (name, value) in &outcome.metrics {
            assert!(value.is_finite() && *value >= 0.0, "{workload} {name} = {value}");
        }
        // The layers that do this workload's work are never silent.
        let value = |name: &str| outcome.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        for name in [
            "query.exec_us",
            "cluster.span_search_self_us",
            "cluster.span_ingest_self_us",
            "core.search_us",
        ] {
            assert!(value(name) > 0.0, "{workload} {name}");
        }
        if workload == "ingest_fresh" {
            assert!(value("cluster.span_replicate_self_us") > 0.0);
            assert!(value("cluster.recovery_s") > 0.0 && value("index.disk_bytes_per_file") > 0.0);
        }
    }
}

#[test]
fn same_seed_same_digest_and_counts() {
    let a = run_workload(&args("attr_topk", false)).unwrap();
    let b = run_workload(&args("attr_topk", false)).unwrap();
    assert_eq!(a.digest, b.digest);
    let other = run_workload(&Args { seed: 4, ..args("attr_topk", false) }).unwrap();
    assert_ne!(a.digest, other.digest);
}
