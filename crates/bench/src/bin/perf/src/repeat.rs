//! `perf --repeat-check K`: is the benchmark repeatable on this host?
//!
//! Runs every workload K times in each of two alternating sets (A B A B
//! …), every run a fresh process with its own seed, and compares the sets
//! the way the acceptance rule does: each end-to-end metric's spread
//! inside a set (first to third quartile, as a share of the median) and
//! the gap between the two sets' medians must both stay inside the
//! metric's bound. `setup_s`' spread is printed but not held to its bound:
//! a 1–2 s build is inside the host's slow periods, only its median is
//! required to repeat.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::catalogue::{Better, END_TO_END, WORKLOADS};
use crate::stats::quartiles;

/// The metric values on a result line, by name.
fn parse_result(line: &str) -> Option<BTreeMap<String, f64>> {
    if !line.contains("\"correct\": true") || !line.contains("\"failed\": 0,") {
        return None;
    }
    let mut out = BTreeMap::new();
    for metric in END_TO_END {
        let key = format!("\"{}\": {{\"value\": ", metric.name);
        let rest = &line[line.find(&key)? + key.len()..];
        let value = rest[..rest.find(',')?].trim().parse().ok()?;
        out.insert(metric.name.to_owned(), value);
    }
    Some(out)
}

/// One fresh-process run of `workload`; `None` if it failed.
fn one_run(workload: &str, seed: u64, seconds: f64) -> Option<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    out.status.success().then(|| text.lines().last().and_then(parse_result)).flatten()
}

/// Relative worsening from `first` to `second` (negative = improved).
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

pub fn check(k: usize, seconds: f64) -> ExitCode {
    let mut misses = 0;
    for workload in WORKLOADS {
        // sets[set][metric] = values
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for i in 0..k {
            for (set, values) in sets.iter_mut().enumerate() {
                let seed = 1_000 * (set as u64 + 1) + i as u64;
                let Some(run) = one_run(workload, seed, seconds) else {
                    eprintln!("perf: {workload} seed {seed} failed");
                    return ExitCode::FAILURE;
                };
                for (name, value) in run {
                    values.entry(name).or_default().push(value);
                }
            }
        }
        println!("{workload}: {k} runs per set");
        println!(
            "  {:<22} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
            "metric", "median A", "median B", "gap", "iqr A", "iqr B", "bound"
        );
        for metric in END_TO_END {
            let (a, b) = (&sets[0][metric.name], &sets[1][metric.name]);
            let ((a1, am, a3), (b1, bm, b3)) = (quartiles(a), quartiles(b));
            let gap = worsening(metric.better, am, bm);
            let (iqr_a, iqr_b) = ((a3 - a1) / am, (b3 - b1) / bm);
            let spread_held = metric.name == "setup_s" || iqr_a.max(iqr_b) <= metric.bound;
            let held = gap <= metric.bound && spread_held;
            misses += usize::from(!held);
            println!(
                "  {:<22} {:>14.3} {:>14.3} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}% {}",
                metric.name,
                am,
                bm,
                gap * 100.0,
                iqr_a * 100.0,
                iqr_b * 100.0,
                metric.bound * 100.0,
                if held { "" } else { "MISS" }
            );
        }
    }
    if misses == 0 {
        println!("repeatable: every metric of every workload inside its bound");
        ExitCode::SUCCESS
    } else {
        println!("{misses} metric(s) outside their bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_and_failed_runs_do_not() {
        let mut line =
            String::from("{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {");
        for (i, m) in END_TO_END.iter().enumerate() {
            line += &format!("\"{}\": {{\"value\": {}.5, \"unit\": \"{}\"}}, ", m.name, i, m.unit);
        }
        line += "}}";
        let parsed = parse_result(&line).unwrap();
        assert_eq!(parsed.len(), END_TO_END.len());
        assert_eq!(parsed["search_mean_us"], 1.5);
        assert!(parse_result(&line.replace("\"correct\": true", "\"correct\": false")).is_none());
        assert!(parse_result(&line.replace("\"failed\": 0,", "\"failed\": 2,")).is_none());
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert_eq!(worsening(Better::Lower, 100.0, 110.0), 0.10);
        assert_eq!(worsening(Better::Higher, 100.0, 90.0), 0.10);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }
}
