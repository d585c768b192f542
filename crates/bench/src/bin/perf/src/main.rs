//! `perf` — Propeller's benchmark: four workloads, end-to-end metrics from
//! an untraced run, per-layer metrics from a separate traced run.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! perf --repeat-check <K> [--seconds <s>]
//! ```
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. See README.md for
//! the metric catalogue, the timing rules and the reference numbers.

mod catalogue;
mod gen;
mod layers;
mod oracle;
mod repeat;
mod run;
mod spans;
mod stats;
mod system;
mod traced;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use run::{Args, Outcome};

/// A run that has not finished by now never will (the cluster's deferred
/// reply path has a known lost-wakeup; see ROADMAP.md): fail loudly
/// rather than hang the caller.
const WATCHDOG_S: u64 = 170;

/// `--seconds` when the command line does not say: `run_seconds` of
/// `BENCHMARK.json`.
const RUN_SECONDS: f64 = 18.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       \
         perf --repeat-check <K, at least 3> [--seconds <s>]",
        catalogue::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// What the command line asks for.
enum Mode {
    Run(Args),
    RepeatCheck { k: usize, seconds: f64 },
}

fn parse_args(argv: &[String]) -> Option<Mode> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: RUN_SECONDS, trace: false, smoke: false };
    let mut repeat = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--repeat-check" => repeat = Some(it.next()?.parse().ok().filter(|k| *k >= 3)?),
            "--workload" => args.workload = it.next()?.clone(),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = it.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => {
                args.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    if let Some(k) = repeat {
        return Some(Mode::RepeatCheck { k, seconds: args.seconds });
    }
    catalogue::WORKLOADS.contains(&args.workload.as_str()).then_some(Mode::Run(args))
}

/// Runs one workload: the measured run, or the traced one.
fn run_workload(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return traced::run(args);
    }
    let scale = run::scale_of(&args.workload, args.smoke);
    let t = Instant::now();
    match args.workload.as_str() {
        "attr_topk" => {
            let corpus = gen::attr_corpus(scale.files, args.seed);
            let ops = gen::attr_ops(&corpus, scale.ops, args.seed);
            eprintln!("gen_s {:.3}", t.elapsed().as_secs_f64());
            run::read_only(args, &corpus, &ops)
        }
        "content_rank" => {
            let corpus = gen::content_corpus(scale.files, args.seed);
            let ops = gen::content_ops(&corpus, scale.ops, args.seed);
            eprintln!("gen_s {:.3}", t.elapsed().as_secs_f64());
            run::read_only(args, &corpus, &ops)
        }
        "ingest_fresh" => run::ingest_fresh(args, scale),
        "mixed_rw" => run::mixed_rw(args, scale),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome, correct: bool) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.tally.attempted.max(1),
        outcome.tally.failed
    );
    for (i, (name, value)) in outcome.metrics.iter().enumerate() {
        let unit = catalogue::unit_of(name).expect("every emitted metric is catalogued");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    line
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Some(Mode::Run(args)) => args,
        Some(Mode::RepeatCheck { k, seconds }) => return repeat::check(k, seconds),
        None => return usage(),
    };
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_S));
        eprintln!("perf: no result after {WATCHDOG_S} s; giving up");
        std::process::exit(3);
    });
    let started = Instant::now();
    let ticks = system::cpu_ticks();
    let outcome = match run_workload(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perf: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.tally.notes {
        eprintln!("perf: failed op: {note}");
    }
    if !outcome.rounds_agree {
        eprintln!("perf: rounds disagree on their result digest");
    }
    let correct = outcome.tally.failed == 0 && outcome.rounds_agree;
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "{{\"workload\": \"{}\", \"host_cores\": {cores}, \"files\": {}, \"N\": {}, \"R\": {}, \
         \"seed\": {}, \"result_digest\": \"{:016x}\", \"wall_s\": {:.1}, \
         \"host_steal_pct\": {:.1}}}",
        args.workload,
        outcome.files,
        outcome.ops,
        outcome.rounds,
        args.seed,
        outcome.digest,
        started.elapsed().as_secs_f64(),
        system::steal_pct(ticks)
    );
    println!("{}", result_line(&outcome, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
