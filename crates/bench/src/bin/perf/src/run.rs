//! The measured (untraced) run of each workload, and the pieces the
//! traced run shares with it.
//!
//! Timing rules, applied everywhere (README.md gives the measurements
//! behind them):
//!
//! 1. Ops, parameters and batch contents are generated up front from the
//!    seed; every round does identical work.
//! 2. Read-only workloads replay the same N ops for as many whole rounds
//!    as fit in `--seconds`; op *i*'s latency is the fastest of its
//!    samples, and mean/p50/p99 are taken over those N values. Write and
//!    open-loop workloads compute each statistic per round and report the
//!    best round. Interference only ever adds time.
//! 3. `setup_s` comes from three identical builds — one before the
//!    measurement, two after the measured system is shut down — each load
//!    call keeping the fastest of its three samples.
//! 4. Writers redraw attributes from the base generator and every create
//!    is deleted inside its round, so the state a round starts from is the
//!    state the previous one started from; a fixed set of searches at the
//!    end of every round must keep returning the same answer.

use std::time::{Duration, Instant};

use propeller_cluster::FileQueryEngine;
use propeller_index::FileRecord;
use propeller_query::{SearchResponse, SearchStats};
use propeller_types::{FileId, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::{self, Corpus, FreshBatch, Op};
use crate::oracle;
use crate::stats::{round_spread, BestOf, Digest, Summary};
use crate::system::{self, Built, SetupBest, Shape};

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// How big a workload is. The full sizes give one build of ≥ 1.5 s on the
/// reference host; the smoke sizes exist so the tests can run every
/// workload end to end in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Files in the base corpus.
    pub files: usize,
    /// Searches per replay round (N).
    pub ops: usize,
    /// Create batches per write round, and files per batch.
    pub fresh_batches: usize,
    pub fresh_batch_files: usize,
    /// Open-loop arrival rates and round length.
    pub searches_per_s: f64,
    pub batches_per_s: f64,
    pub round_s: f64,
}

/// The rounds a run makes at least, however short `--seconds` is: rounds
/// must be compared with each other.
pub const MIN_ROUNDS: usize = 2;
/// Answers checked against the oracle per workload.
pub const ORACLE_SAMPLE: usize = 60;

pub fn scale_of(workload: &str, smoke: bool) -> Scale {
    let full = Scale {
        files: 200_000,
        ops: 1_000,
        fresh_batches: 250,
        fresh_batch_files: 100,
        searches_per_s: 200.0,
        batches_per_s: 50.0,
        round_s: 2.5,
    };
    let full = match workload {
        "attr_topk" => Scale { files: 487_000, ..full },
        "content_rank" => Scale { files: 60_000, ..full },
        _ => full,
    };
    if smoke {
        Scale {
            files: 2_000,
            ops: 100,
            fresh_batches: 20,
            fresh_batch_files: 10,
            searches_per_s: 200.0,
            batches_per_s: 50.0,
            round_s: 0.25,
        }
    } else {
        full
    }
}

pub fn shape_of(workload: &str) -> Shape {
    match workload {
        "ingest_fresh" => Shape { durable: true, replication: 2 },
        "mixed_rw" => Shape { durable: true, replication: 1 },
        _ => Shape { durable: false, replication: 1 },
    }
}

/// Attempted and failed operations: errors, refusals and wrong answers
/// all count as failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    pub fn record(&mut self, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.ok(),
            Err(why) => self.fail(why),
        }
    }

    /// Folds in what another thread tallied.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// What a run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
    /// Carried on the context line: files, N, R, digest.
    pub files: usize,
    pub ops: usize,
    pub rounds: usize,
    pub digest: u64,
    /// Whether every round agreed on its result digest.
    pub rounds_agree: bool,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Per-round sums of the deterministic search counters.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub searches: u64,
    pub hits: u64,
    pub stats: SearchStats,
}

impl Counters {
    /// Moves the response's stats into the sums (nothing downstream of
    /// the counters reads them).
    fn absorb(&mut self, response: &mut SearchResponse) {
        self.searches += 1;
        self.hits += response.hits.len() as u64;
        let mut stats = std::mem::take(&mut response.stats);
        // Per-ACG and per-node rows would grow with every op; only the
        // sums are reported.
        stats.access_paths.clear();
        stats.node_elapsed.clear();
        self.stats.absorb(stats);
    }
}

/// One closed-loop pass over `ops`.
pub struct Pass {
    /// µs per op, in op order.
    pub us: Vec<f64>,
    pub digest: u64,
    pub counters: Counters,
}

/// Runs every op once, one after the other. `after` is called, untimed,
/// with each answered op and the tally — the traced run harvests the op's span tree
/// there, the replay keeps the oracle sample.
pub fn search_pass(
    client: &FileQueryEngine,
    ops: &[Op],
    tally: &mut Tally,
    mut after: impl FnMut(usize, SearchResponse, &mut Tally),
) -> Pass {
    let mut pass =
        Pass { us: Vec::with_capacity(ops.len()), digest: 0, counters: Counters::default() };
    let mut digest = Digest::default();
    for (i, op) in ops.iter().enumerate() {
        let (us, response) = timed_search(client, op, tally);
        pass.us.push(us);
        let Some(mut response) = response else { continue };
        digest.push(i as u64);
        for hit in &response.hits {
            digest.push(hit.file.raw());
        }
        pass.counters.absorb(&mut response);
        after(i, response, tally);
    }
    pass.digest = digest.value();
    pass
}

/// A closed-loop replay of `ops`: whole rounds until `budget` is spent.
pub struct Replay {
    pub best: BestOf,
    /// Wall seconds of each round.
    pub round_s: Vec<f64>,
    pub digests: Vec<u64>,
    /// Round-one answers of the oracle sample.
    pub sampled: Vec<(usize, SearchResponse)>,
}

/// A seeded sample of op indices for the oracle.
pub fn oracle_sample(ops: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x04AC1E);
    let mut picked: Vec<usize> =
        (0..ORACLE_SAMPLE.min(ops)).map(|_| rng.gen_range(0..ops)).collect();
    picked.sort_unstable();
    picked.dedup();
    picked
}

/// One timed search; an error is tallied and timed like any other sample.
fn timed_search(
    client: &FileQueryEngine,
    op: &Op,
    tally: &mut Tally,
) -> (f64, Option<SearchResponse>) {
    let t = Instant::now();
    let out = client.search_with(&op.request);
    let us = micros(t.elapsed());
    match out {
        Ok(response) => {
            tally.ok();
            (us, Some(response))
        }
        Err(e) => {
            tally.fail(format!("{}: {e}", op.text));
            (us, None)
        }
    }
}

pub fn replay(
    client: &FileQueryEngine,
    ops: &[Op],
    sample: &[usize],
    budget: Duration,
    tally: &mut Tally,
) -> Replay {
    let mut out = Replay {
        best: BestOf::new(ops.len()),
        round_s: Vec::new(),
        digests: Vec::new(),
        sampled: Vec::new(),
    };
    out.round_s = rounds_within(budget, || {
        let first = out.digests.is_empty();
        let mut sampled = Vec::new();
        let pass = search_pass(client, ops, tally, |i, response, _| {
            if first && sample.binary_search(&i).is_ok() {
                sampled.push((i, response));
            }
        });
        if first {
            out.sampled = sampled;
        }
        out.best.absorb(&pass.us);
        out.digests.push(pass.digest);
    });
    out
}

/// Runs `round` at least [`MIN_ROUNDS`] times, then for as long as one
/// more round of the last one's length should still end inside `budget`:
/// `--seconds` decides how many whole rounds run, never what one contains.
/// Returns each round's wall seconds.
fn rounds_within(budget: Duration, mut round: impl FnMut()) -> Vec<f64> {
    let started = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        round();
        let wall = t.elapsed();
        walls.push(wall.as_secs_f64());
        if walls.len() >= MIN_ROUNDS && started.elapsed() + wall > budget {
            return walls;
        }
    }
}

/// The measured system, what it runs on and what one file cost in memory.
pub struct Measured<'a> {
    pub built: Built,
    tag: &'a str,
    shape: Shape,
    rss_per_file: f64,
}

/// Builds the system a run measures.
pub fn build_measured<'a>(
    tag: &'a str,
    corpus: &Corpus,
    warm_up: &Op,
) -> Result<Measured<'a>, String> {
    let shape = shape_of(tag);
    let before = system::rss_bytes();
    let built = system::build(tag, shape, corpus, &warm_up.request)?;
    let grown = system::rss_bytes().saturating_sub(before);
    Ok(Measured { built, tag, shape, rss_per_file: grown as f64 / corpus.records.len() as f64 })
}

/// The end of every measured run: shut the measured system down, build
/// twice more, and report the six end-to-end metrics. `searches_us` are
/// the per-op search latencies; `ingest_files_per_s` is the workload's own
/// write rate, or `None` for the bulk-load rate of the corpus.
fn conclude(
    mut outcome: Outcome,
    built: Measured,
    (corpus, warm_up): (&Corpus, &Op),
    searches_us: &[f64],
    ingest_files_per_s: Option<f64>,
) -> Result<Outcome, String> {
    let Measured { built, tag, shape, rss_per_file } = built;
    let first = built.cost.clone();
    built.shutdown();
    let mut setup = SetupBest::new(&first);
    for _ in 0..2 {
        let again = system::build(tag, shape, corpus, &warm_up.request)?;
        setup.absorb(&again.cost);
        again.shutdown();
    }
    let search = Summary::of(searches_us);
    outcome.put("setup_s", setup.setup_s());
    outcome.put("search_mean_us", search.mean);
    outcome.put("search_p50_us", search.p50);
    outcome.put("search_p99_us", search.p99);
    let bulk_load = setup.files_per_s(corpus.records.len());
    outcome.put("ingest_files_per_s", ingest_files_per_s.unwrap_or(bulk_load));
    outcome.put("rss_bytes_per_file", rss_per_file);
    Ok(outcome)
}

/// `attr_topk` and `content_rank`: a read-only closed loop, one client,
/// in memory. `ingest_files_per_s` is the bulk-load rate of the corpus.
pub fn read_only(args: &Args, corpus: &Corpus, ops: &[Op]) -> Result<Outcome, String> {
    let mut outcome = Outcome { files: corpus.records.len(), ops: ops.len(), ..Outcome::default() };
    let measured = build_measured(&args.workload, corpus, &ops[0])?;
    let sample = oracle_sample(ops.len(), args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let replay = replay(&measured.built.client, ops, &sample, budget, &mut outcome.tally);
    for (i, response) in &replay.sampled {
        let checked = oracle::check(&ops[*i], response, corpus.records.iter(), corpus.now);
        outcome.tally.record(checked);
    }
    outcome.rounds = replay.best.rounds();
    outcome.digest = replay.digests[0];
    outcome.rounds_agree = replay.digests.windows(2).all(|w| w[0] == w[1]);
    report_rounds(&replay.round_s);
    template_breakdown(ops, replay.best.values());
    conclude(outcome, measured, (corpus, &ops[0]), replay.best.values(), None)
}

/// Seconds per round and their spread, to standard error: the host-noise
/// indicator that goes with every run.
fn report_rounds(round_s: &[f64]) {
    let rounds: Vec<String> = round_s.iter().map(|s| format!("{s:.2}")).collect();
    eprintln!("round_s [{}] round_spread {:.3}", rounds.join(", "), round_spread(round_s));
}

/// Mean best-of-R latency per template, to standard error: where the mix's
/// mean comes from.
fn template_breakdown(ops: &[Op], best_us: &[f64]) {
    let mut by_template: Vec<(&str, f64, usize)> = Vec::new();
    for (op, &us) in ops.iter().zip(best_us) {
        match by_template.iter_mut().find(|(t, _, _)| *t == op.template) {
            Some(row) => {
                row.1 += us;
                row.2 += 1;
            }
            None => by_template.push((op.template, us, 1)),
        }
    }
    for (template, sum, n) in by_template {
        eprintln!("template {template}: n {n}, mean {:.1} us", sum / n as f64);
    }
}

/// What one PostMark-shaped write round measured.
pub struct FreshRound {
    /// µs per acknowledged create batch.
    pub batch_us: Vec<f64>,
    /// µs per probe search.
    pub probe_us: Vec<f64>,
    /// µs from sending a create batch to its probe returning the file.
    pub visible_us: Vec<f64>,
    /// µs per acknowledged remove batch.
    pub remove_us: Vec<f64>,
    pub digest: u64,
    /// Counters of the probe searches.
    pub counters: Counters,
}

/// The per-op lower envelope of the write rounds: each create batch,
/// probe and remove batch keeps the fastest of its samples.
pub struct FreshBest {
    pub batch: BestOf,
    pub probe: BestOf,
    pub remove: BestOf,
}

impl FreshBest {
    pub fn new(batches: usize) -> FreshBest {
        let best = || BestOf::new(batches);
        FreshBest { batch: best(), probe: best(), remove: best() }
    }

    pub fn absorb(&mut self, round: &FreshRound) {
        self.batch.absorb(&round.batch_us);
        self.probe.absorb(&round.probe_us);
        self.remove.absorb(&round.remove_us);
    }

    /// Files created plus files deleted, per second inside the program's
    /// calls (creates, probes and removes).
    pub fn files_per_s(&self, files_per_batch: usize) -> f64 {
        let busy_us: f64 =
            [&self.batch, &self.probe, &self.remove].iter().flat_map(|best| best.values()).sum();
        (2 * files_per_batch * self.batch.values().len()) as f64 / (busy_us / 1e6)
    }
}

/// One write round: every batch is created and probed, then every batch
/// is removed again, and a last search checks a removed file is gone.
/// `after` is called, untimed, after each call into the program (the
/// traced run harvests that call's span tree there).
pub fn fresh_round(
    client: &mut FileQueryEngine,
    batches: &[FreshBatch],
    now: Timestamp,
    tally: &mut Tally,
    mut after: impl FnMut(&FileQueryEngine),
) -> FreshRound {
    let mut round = FreshRound {
        batch_us: Vec::with_capacity(batches.len()),
        probe_us: Vec::with_capacity(batches.len()),
        visible_us: Vec::with_capacity(batches.len()),
        remove_us: Vec::with_capacity(batches.len()),
        digest: 0,
        counters: Counters::default(),
    };
    let mut digest = Digest::default();
    for batch in batches {
        let records = batch.records.clone();
        let sent = Instant::now();
        let acked = client.index_files(records);
        let batch_us = micros(sent.elapsed());
        tally.record(acked.map_err(|e| format!("create batch: {e}")));
        after(client);
        let probe_sent = Instant::now();
        let (probe_us, response) = timed_search(client, &batch.probe, tally);
        // Send to visible, less whatever the hook spent in between.
        round.visible_us.push(batch_us + micros(probe_sent.elapsed()));
        round.batch_us.push(batch_us);
        round.probe_us.push(probe_us);
        after(client);
        if let Some(mut response) = response {
            tally.record(oracle::check(&batch.probe, &response, batch.records.iter(), now));
            for hit in &response.hits {
                digest.push(hit.file.raw());
            }
            round.counters.absorb(&mut response);
        }
    }
    for batch in batches {
        let files: Vec<FileId> = batch.files.clone();
        let t = Instant::now();
        let removed = client.remove_files(files);
        round.remove_us.push(micros(t.elapsed()));
        tally.record(removed.map_err(|e| format!("remove batch: {e}")));
        after(client);
    }
    // No deleted file may stay searchable.
    let (_, response) = timed_search(client, &batches[0].probe, tally);
    if let Some(response) = response {
        digest.push(response.hits.len() as u64);
        if !response.hits.is_empty() {
            tally.fail("a removed file is still searchable".into());
        }
    }
    round.digest = digest.value();
    round
}

/// After a restart every base file and no created-then-deleted file must
/// be searchable; returns seconds from `restart()` to that verified search.
pub fn verified_restart(
    built: Built,
    corpus: &Corpus,
    gone: &Op,
    tally: &mut Tally,
) -> (Built, f64) {
    let Built { cluster, client, cost, data_dir } = built;
    drop(client);
    let t = Instant::now();
    let cluster = cluster.restart();
    let client = cluster.client();
    let all = gen::match_all(corpus.now);
    let found = client.search_with(&all.request);
    let recovery_s = t.elapsed().as_secs_f64();
    match found {
        Ok(r) if r.hits.len() == corpus.records.len() && r.complete => tally.ok(),
        Ok(r) => tally.fail(format!(
            "after restart {} of {} base files are searchable",
            r.hits.len(),
            corpus.records.len()
        )),
        Err(e) => tally.fail(format!("search after restart: {e}")),
    }
    match client.search_with(&gone.request) {
        Ok(r) if r.hits.is_empty() => tally.ok(),
        Ok(_) => tally.fail("a removed file came back with the restart".into()),
        Err(e) => tally.fail(format!("search after restart: {e}")),
    }
    (Built { cluster, client, cost, data_dir }, recovery_s)
}

/// `ingest_fresh`: write-only with visibility probes, closed loop, durable,
/// replication 2. `search_*` are the probe searches.
pub fn ingest_fresh(args: &Args, scale: Scale) -> Result<Outcome, String> {
    let corpus = gen::attr_corpus(scale.files, args.seed);
    let batches =
        gen::fresh_batches(scale.fresh_batches, scale.fresh_batch_files, corpus.now, args.seed);
    let warm_up = gen::warm_up(corpus.now);
    let mut outcome =
        Outcome { files: corpus.records.len(), ops: batches.len(), ..Outcome::default() };
    let mut measured = build_measured(&args.workload, &corpus, &warm_up)?;

    let mut best = FreshBest::new(batches.len());
    let mut digests = Vec::new();
    let walls = rounds_within(Duration::from_secs_f64(args.seconds), || {
        let client = &mut measured.built.client;
        let round = fresh_round(client, &batches, corpus.now, &mut outcome.tally, |_| ());
        best.absorb(&round);
        digests.push(round.digest);
    });
    // Durability: what was acknowledged survives a restart, what was
    // deleted stays deleted.
    let gone = &batches[0].probe;
    measured.built = verified_restart(measured.built, &corpus, gone, &mut outcome.tally).0;

    outcome.rounds = digests.len();
    outcome.digest = digests[0];
    outcome.rounds_agree = digests.windows(2).all(|w| w[0] == w[1]);
    report_rounds(&walls);
    let files_per_s = best.files_per_s(scale.fresh_batch_files);
    conclude(outcome, measured, (&corpus, &warm_up), best.probe.values(), Some(files_per_s))
}

/// One writer batch of `mixed_rw`: upserts (attribute updates of base
/// files plus creates) and the removal of earlier creates.
#[derive(Debug, Clone)]
pub struct WriterBatch {
    pub upserts: Vec<FileRecord>,
    pub removes: Vec<FileId>,
}

/// The writer's round: per batch 80 % attribute updates of existing files
/// (redrawn from the base generator), 10 % creates and 10 % deletes of
/// creates made [`DELETE_LAG`] batches earlier. Returns the batches and
/// the creates still alive at the end, which the round removes untimed.
pub fn writer_round(corpus: &Corpus, batches: usize, seed: u64) -> (Vec<WriterBatch>, Vec<FileId>) {
    const OPS: usize = 20;
    const CREATES: usize = OPS / 10;
    const UPDATES: usize = OPS - 2 * CREATES;
    const DELETE_LAG: usize = 5;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3817E);
    let redrawn = gen::redraw_attrs(batches * OPS, seed ^ 0x3817E);
    let mut next_attr = redrawn.into_iter();
    let mut created: Vec<Vec<FileId>> = Vec::with_capacity(batches);
    let mut out = Vec::with_capacity(batches);
    for b in 0..batches {
        let mut upserts = Vec::with_capacity(UPDATES + CREATES);
        for _ in 0..UPDATES {
            let base = &corpus.records[rng.gen_range(0..corpus.records.len())];
            let mut record = base.clone();
            record.attrs = next_attr.next().expect("one redrawn row per op");
            upserts.push(record);
        }
        let fresh: Vec<FileId> =
            (0..CREATES).map(|i| FileId::new(gen::FRESH_BASE + (b * CREATES + i) as u64)).collect();
        for &file in &fresh {
            upserts.push(FileRecord::new(file, next_attr.next().expect("one redrawn row per op")));
        }
        created.push(fresh);
        let removes =
            if b >= DELETE_LAG { std::mem::take(&mut created[b - DELETE_LAG]) } else { Vec::new() };
        out.push(WriterBatch { upserts, removes });
    }
    (out, created.into_iter().flatten().collect())
}

/// What one open-loop round measured.
pub struct MixedRound {
    /// µs per search, from its intended send time, in schedule order.
    pub search_us: Vec<f64>,
    /// µs per acknowledged writer batch, in schedule order.
    pub batch_us: Vec<f64>,
    /// How late the generators ran, µs, both threads.
    pub lag_us: Vec<f64>,
    /// Counters of the reader's searches.
    pub counters: Counters,
}

/// Waits until `due` and returns how late the generator ran. Sleeps to
/// just short of the time and spins the rest: a bare sleep wakes 50–100 µs
/// late and that lateness would be charged to the program, while spinning
/// throughout would take a core from the actor threads.
fn wait_until(origin: Instant, due: Duration) -> Duration {
    const SPIN: Duration = Duration::from_micros(150);
    let now = origin.elapsed();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while origin.elapsed() < due {
        std::hint::spin_loop();
    }
    origin.elapsed().saturating_sub(due)
}

/// One open-loop round: the reader and the writer each follow their own
/// fixed schedule. Latency counts from the *intended* send time, so a
/// stall charges every op it delayed.
pub fn mixed_round(
    reader: &mut FileQueryEngine,
    writer: &mut FileQueryEngine,
    searches: &[Op],
    batches: &[WriterBatch],
    scale: Scale,
    tally: &mut Tally,
) -> MixedRound {
    let origin = Instant::now();
    let (read, write) = std::thread::scope(|s| {
        let read = s.spawn(move || {
            let mut tally = Tally::default();
            let mut counters = Counters::default();
            let mut latency = Vec::with_capacity(searches.len());
            let mut lag = Vec::with_capacity(searches.len());
            for (i, op) in searches.iter().enumerate() {
                let due = Duration::from_secs_f64(i as f64 / scale.searches_per_s);
                lag.push(micros(wait_until(origin, due)));
                let answered = reader.search_with(&op.request);
                latency.push(micros(origin.elapsed().saturating_sub(due)));
                match answered {
                    Ok(mut response) => {
                        tally.record(oracle::check_shape(op, &response));
                        counters.absorb(&mut response);
                    }
                    Err(e) => tally.fail(format!("{}: {e}", op.text)),
                }
            }
            (latency, lag, tally, counters)
        });
        let write = s.spawn(move || {
            let mut tally = Tally::default();
            let mut lag = Vec::with_capacity(batches.len());
            let mut batch_us = Vec::with_capacity(batches.len());
            for (i, batch) in batches.iter().enumerate() {
                let due = Duration::from_secs_f64(i as f64 / scale.batches_per_s);
                let (upserts, removes) = (batch.upserts.clone(), batch.removes.clone());
                lag.push(micros(wait_until(origin, due)));
                let t = Instant::now();
                let mut acked = writer.index_files(upserts);
                if acked.is_ok() && !removes.is_empty() {
                    acked = writer.remove_files(removes);
                }
                batch_us.push(micros(t.elapsed()));
                tally.record(acked.map_err(|e| format!("writer batch: {e}")));
            }
            (batch_us, lag, tally)
        });
        (read.join().expect("reader thread"), write.join().expect("writer thread"))
    });
    let (search_us, mut lag_us, read_tally, counters) = read;
    let (batch_us, write_lag, write_tally) = write;
    lag_us.extend(write_lag);
    tally.merge(read_tally);
    tally.merge(write_tally);
    MixedRound { search_us, batch_us, lag_us, counters }
}

/// Files the writer's batches move (upserts plus removes) per second
/// inside its calls, from the per-batch lower envelope.
pub fn writer_files_per_s(batches: &[WriterBatch], best: &BestOf) -> f64 {
    let files: usize = batches.iter().map(|b| b.upserts.len() + b.removes.len()).sum();
    files as f64 / (best.values().iter().sum::<f64>() / 1e6)
}

/// Everything `mixed_rw` generates from the seed.
pub struct MixedInputs {
    pub corpus: Corpus,
    pub searches: Vec<Op>,
    pub batches: Vec<WriterBatch>,
    /// Creates still alive when a round's last batch is acknowledged.
    pub leftovers: Vec<FileId>,
}

pub fn mixed_inputs(args: &Args, scale: Scale) -> MixedInputs {
    let corpus = gen::attr_corpus(scale.files, args.seed);
    let searches =
        gen::cheap_attr_ops(&corpus, (scale.searches_per_s * scale.round_s) as usize, args.seed);
    let (batches, leftovers) =
        writer_round(&corpus, (scale.batches_per_s * scale.round_s) as usize, args.seed);
    MixedInputs { corpus, searches, batches, leftovers }
}

/// Applies the round's updates once, unmeasured, and removes its creates
/// again. Every round applies the same updates, so from here on the rows
/// returned are what each round starts from and ends with.
pub fn settle(client: &mut FileQueryEngine, inputs: &MixedInputs) -> Result<Corpus, String> {
    let mut rows = inputs.corpus.clone();
    let mut fresh = Vec::new();
    for batch in &inputs.batches {
        client.index_files(batch.upserts.clone()).map_err(|e| format!("settle: {e}"))?;
        for record in &batch.upserts {
            match rows.records.get_mut(record.file.raw() as usize) {
                Some(row) => *row = record.clone(),
                None => fresh.push(record.file),
            }
        }
    }
    client.remove_files(fresh).map_err(|e| format!("settle: {e}"))?;
    Ok(rows)
}

/// `mixed_rw`: open loop, durable, replication 1 — one reader thread and
/// one writer thread on fixed schedules. Every round follows the same
/// schedule, so search *i* always overlaps the same writer batch and its
/// fastest sample across rounds still carries that interference.
pub fn mixed_rw(args: &Args, scale: Scale) -> Result<Outcome, String> {
    let inputs = mixed_inputs(args, scale);
    let MixedInputs { corpus, searches, batches, leftovers } = &inputs;
    let warm_up = gen::warm_up(corpus.now);
    let mut outcome =
        Outcome { files: corpus.records.len(), ops: searches.len(), ..Outcome::default() };
    let mut measured = build_measured(&args.workload, corpus, &warm_up)?;
    let mut reader = measured.built.cluster.client();
    let writer = &mut measured.built.client;
    let rows = settle(writer, &inputs)?;

    let sampled: Vec<Op> =
        oracle_sample(searches.len(), args.seed).into_iter().map(|i| searches[i].clone()).collect();
    let mut search_best = BestOf::new(searches.len());
    let mut batch_best = BestOf::new(batches.len());
    let mut lag_us = Vec::new();
    let mut digests = Vec::new();
    let walls = rounds_within(Duration::from_secs_f64(args.seconds), || {
        let round = mixed_round(&mut reader, writer, searches, batches, scale, &mut outcome.tally);
        let removed = writer.remove_files(leftovers.clone());
        outcome.tally.record(removed.map_err(|e| format!("round end: {e}")));
        search_best.absorb(&round.search_us);
        batch_best.absorb(&round.batch_us);
        lag_us.extend(round.lag_us);
        // The round is over and its creates are gone: the state must be
        // the settled rows again, exactly.
        let pass = search_pass(&reader, &sampled, &mut outcome.tally, |i, response, tally| {
            tally.record(oracle::check(&sampled[i], &response, rows.records.iter(), rows.now));
        });
        digests.push(pass.digest);
    });
    drop(reader);
    report_rounds(&walls);

    outcome.rounds = digests.len();
    outcome.digest = digests[0];
    outcome.rounds_agree = digests.windows(2).all(|w| w[0] == w[1]);
    eprintln!("sched_lag_p99_us {:.1}", lag_p99(&lag_us));
    template_breakdown(searches, search_best.values());
    let files_per_s = writer_files_per_s(batches, &batch_best);
    conclude(outcome, measured, (corpus, &warm_up), search_best.values(), Some(files_per_s))
}

/// p99 of generator lateness, µs.
pub fn lag_p99(lag_us: &[f64]) -> f64 {
    Summary::of(lag_us).p99
}
