//! Epoch-pinned read consistency under concurrent ingest.
//!
//! The Index Node commits `IndexBatch` ops on its actor thread while
//! searches execute on the worker pool against pinned epochs. These
//! properties pin down what that concurrency is allowed to look like:
//!
//! * every search answer equals a brute-force oracle evaluated at *some*
//!   published epoch — i.e. after a whole prefix of the committed batches,
//!   never a half-applied batch or a mix of epochs;
//! * a paginated session serves **all** of its pages from the single epoch
//!   pinned at open time, no matter how many commits land between pulls.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};

use propeller::cluster::{IndexNode, IndexNodeConfig, Request, Response};
use propeller::index::IndexOp;
use propeller::query::SearchRequest;
use propeller::types::{AcgId, FileId, InodeAttrs, NodeId, Timestamp};
use propeller::FileRecord;
use proptest::prelude::*;

/// One generated WAL op: upsert `file` at `size`, or remove it.
type Op = (u64, u64, bool);

type Envelope = (Request, Sender<Response>);

/// How long one test body (one proptest case) may run before it is declared
/// hung. Healthy bodies finish in well under a second.
const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(60);

/// Runs `body` on its own thread and fails the test, by name, if it has not
/// finished within [`WATCHDOG`] — a lost wake-up anywhere under the actor
/// then costs a minute and names its test instead of wedging the suite. A
/// panic in `body` (a failed assertion) is re-raised unchanged.
fn with_watchdog(test: &str, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    if finished.recv_timeout(WATCHDOG) == Err(RecvTimeoutError::Timeout) {
        panic!("{test} hung: not finished after {WATCHDOG:?}");
    }
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
}

/// Spawns an actor thread owning `node`, mirroring the cluster's deferred
/// actor loop: batches commit on the actor, searches reply from pool jobs.
fn spawn_actor(node: IndexNode) -> (Sender<Envelope>, std::thread::JoinHandle<()>) {
    let (tx, rx) = channel::<Envelope>();
    let handle = std::thread::spawn(move || {
        let mut node = node;
        while let Ok((req, reply)) = rx.recv() {
            if matches!(req, Request::Shutdown) {
                let _ = reply.send(Response::Ok);
                break;
            }
            node.handle_deferred(req, move |resp| {
                let _ = reply.send(resp);
            });
        }
    });
    (tx, handle)
}

fn call(tx: &Sender<Envelope>, req: Request) -> Response {
    let (rtx, rrx) = channel();
    tx.send((req, rtx)).expect("actor alive");
    rrx.recv().expect("reply delivered")
}

fn record(file: u64, size: u64) -> FileRecord {
    FileRecord::new(FileId::new(file), InodeAttrs::builder().size(size).build())
}

/// The brute-force oracle: live `file → size` maps after each whole prefix
/// of `batches` (index 0 = empty node), reduced to the sorted hit set for
/// `size > threshold`.
fn prefix_hit_sets(batches: &[Vec<Op>], threshold: u64) -> Vec<Vec<u64>> {
    let mut state: BTreeMap<u64, u64> = BTreeMap::new();
    let mut sets = Vec::with_capacity(batches.len() + 1);
    let hits = |state: &BTreeMap<u64, u64>| -> Vec<u64> {
        state.iter().filter(|(_, &size)| size > threshold).map(|(&f, _)| f).collect()
    };
    sets.push(hits(&state));
    for batch in batches {
        for &(file, size, remove) in batch {
            if remove {
                state.remove(&file);
            } else {
                state.insert(file, size);
            }
        }
        sets.push(hits(&state));
    }
    sets
}

fn hit_files(hits: &[propeller::query::Hit]) -> Vec<u64> {
    let mut files: Vec<u64> = hits.iter().map(|h| h.file.raw()).collect();
    files.sort_unstable();
    files
}

fn to_ops(batch: &[Op]) -> Vec<IndexOp> {
    batch
        .iter()
        .map(|&(file, size, remove)| {
            if remove {
                IndexOp::Remove(FileId::new(file))
            } else {
                IndexOp::Upsert(record(file, size))
            }
        })
        .collect()
}

fn arb_batches() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(
        prop::collection::vec((0u64..48, 1u64..1_000_000, prop::bool::ANY), 1..8),
        1..10,
    )
}

/// Stress: a commit hammer (batches + lazy-commit ticks) races several
/// search hammers — one-shot searches and paginated sessions — against one
/// node for a fixed bout. No request may error, every search must pin all
/// its epochs, every session's concatenated pages must be duplicate-free
/// (a torn cross-epoch read would re-ship or drop hits), and the node's
/// counters must account for everything afterwards.
#[test]
fn commit_and_search_hammers_race_without_torn_reads() {
    with_watchdog("commit_and_search_hammers_race_without_torn_reads", move || {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        const ACGS: u64 = 8;
        const PER_ACG: u64 = 250;
        const SEARCHERS: u64 = 3;
        const ITERS: u64 = 40;

        let mut node = IndexNode::new(NodeId::new(1), IndexNodeConfig::default());
        for acg in 0..ACGS {
            node.handle(Request::IndexBatch {
                acg: AcgId::new(acg + 1),
                ops: (0..PER_ACG)
                    .map(|i| {
                        let id = acg * PER_ACG + i;
                        IndexOp::Upsert(record(id, 1 + id))
                    })
                    .collect(),
                now: Timestamp::from_secs(1),
                ctx: propeller_obs::TraceContext::NONE,
            });
        }
        let (tx, actor) = spawn_actor(node);
        let all_acgs: Vec<AcgId> = (1..=ACGS).map(AcgId::new).collect();
        let request =
            SearchRequest::parse("size>0", Timestamp::from_secs(1)).unwrap().with_limit(5_000);

        // Commit hammer: churn upserts and removes through one group per
        // round, then tick past the 5 s lazy-commit timeout so the round's
        // batch publishes a fresh epoch.
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let tx = tx.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let acg = round % ACGS;
                    let ops: Vec<IndexOp> = (0..16)
                        .map(|i| {
                            let id = acg * PER_ACG + (round + i) % PER_ACG;
                            if (round + i).is_multiple_of(5) {
                                IndexOp::Remove(FileId::new(id))
                            } else {
                                IndexOp::Upsert(record(id, 1 + id + round))
                            }
                        })
                        .collect();
                    let now = Timestamp::from_secs(100 + round * 10);
                    match call(
                        &tx,
                        Request::IndexBatch {
                            acg: AcgId::new(acg + 1),
                            ops,
                            now,
                            ctx: propeller_obs::TraceContext::NONE,
                        },
                    ) {
                        Response::BatchLogged { .. } => {}
                        other => panic!("writer: {other:?}"),
                    }
                    call(&tx, Request::Tick { now: Timestamp::from_secs(100 + round * 10 + 6) });
                    round += 1;
                }
            })
        };

        let searchers: Vec<_> = (0..SEARCHERS)
            .map(|s| {
                let tx = tx.clone();
                let request = request.clone();
                let all_acgs = all_acgs.clone();
                std::thread::spawn(move || {
                    for i in 0..ITERS {
                        let now = Timestamp::from_secs(10_000 + s * 1_000 + i);
                        if i.is_multiple_of(4) {
                            // Paginated session: pull to exhaustion while the
                            // hammer keeps committing between pulls.
                            let (mut session, mut pages, mut exhausted) = match call(
                                &tx,
                                Request::OpenSearch {
                                    acgs: all_acgs.clone(),
                                    expect: None,
                                    request: request.clone(),
                                    client: s,
                                    page: 64,
                                    now,
                                    ctx: propeller_obs::TraceContext::NONE,
                                },
                            ) {
                                Response::SearchPage { session, hits, exhausted, .. } => {
                                    (session, hits, exhausted)
                                }
                                other => panic!("open: {other:?}"),
                            };
                            while !exhausted {
                                match call(
                                    &tx,
                                    Request::PullHits {
                                        session,
                                        page: 64,
                                        ctx: propeller_obs::TraceContext::NONE,
                                    },
                                ) {
                                    Response::SearchPage {
                                        session: sid,
                                        hits,
                                        exhausted: done,
                                        ..
                                    } => {
                                        pages.extend(hits);
                                        session = sid;
                                        exhausted = done;
                                    }
                                    other => panic!("pull: {other:?}"),
                                }
                            }
                            let unique: std::collections::HashSet<u64> =
                                pages.iter().map(|h| h.file.raw()).collect();
                            assert_eq!(
                                unique.len(),
                                pages.len(),
                                "a session shipped a duplicate hit — pages mixed epochs"
                            );
                            assert!(pages.len() <= (ACGS * PER_ACG) as usize);
                        } else {
                            match call(
                                &tx,
                                Request::Search {
                                    acgs: all_acgs.clone(),
                                    request: request.clone(),
                                    now,
                                    ctx: propeller_obs::TraceContext::NONE,
                                },
                            ) {
                                Response::SearchHits { hits, stats } => {
                                    assert_eq!(stats.epoch_pins, ACGS as usize);
                                    assert!(hits.len() <= (ACGS * PER_ACG) as usize);
                                }
                                other => panic!("search: {other:?}"),
                            }
                        }
                    }
                })
            })
            .collect();

        for s in searchers {
            s.join().expect("searcher");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer");

        match call(&tx, Request::NodeStats) {
            Response::NodeStatsReport {
                searches_served, open_sessions, commits_published, ..
            } => {
                assert_eq!(searches_served, SEARCHERS * ITERS, "every hammer request was served");
                assert_eq!(open_sessions, 0, "every session drained to exhaustion and closed");
                assert!(commits_published > 0, "the commit hammer must have published epochs");
            }
            other => panic!("{other:?}"),
        }
        call(&tx, Request::Shutdown);
        actor.join().expect("actor");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One-shot searches racing a committer always observe a whole prefix
    /// of the batches — some published epoch, never a torn one.
    #[test]
    fn concurrent_searches_observe_whole_epochs(
        batches in arb_batches(),
        threshold in 0u64..1_000_000,
    ) {
        with_watchdog("concurrent_searches_observe_whole_epochs", move || {
            let acg = AcgId::new(1);
            let node = IndexNode::new(NodeId::new(1), IndexNodeConfig::default());
            let (tx, actor) = spawn_actor(node);
            let oracle = prefix_hit_sets(&batches, threshold);
            let request = SearchRequest::parse(&format!("size>{threshold}"), Timestamp::from_secs(1))
                .unwrap()
                .with_limit(500);

            // Writer thread: commit batches one by one through the actor.
            let writer = {
                let tx = tx.clone();
                let batches = batches.clone();
                std::thread::spawn(move || {
                    for (i, batch) in batches.iter().enumerate() {
                        let resp = call(&tx, Request::IndexBatch {
                            acg,
                            ops: to_ops(batch),
                            now: Timestamp::from_secs(10 + i as u64),
                        ctx: propeller_obs::TraceContext::NONE, });
                        assert!(matches!(resp, Response::BatchLogged { .. }), "{resp:?}");
                        std::thread::yield_now();
                    }
                })
            };

            // Searcher (this thread): race one-shot searches against ingest.
            for i in 0..5u64 {
                match call(&tx, Request::Search {
                    acgs: vec![acg],
                    request: request.clone(),
                    now: Timestamp::from_secs(100 + i),
                ctx: propeller_obs::TraceContext::NONE, }) {
                    Response::SearchHits { hits, .. } => {
                        let got = hit_files(&hits);
                        prop_assert!(
                            oracle.contains(&got),
                            "search answer matches no whole-prefix epoch: {got:?}"
                        );
                    }
                    other => panic!("{other:?}"),
                }
            }

            writer.join().unwrap();
            // After the writer drains, a search must see the *full* state.
            match call(&tx, Request::Search {
                acgs: vec![acg],
                request: request.clone(),
                now: Timestamp::from_secs(200),
            ctx: propeller_obs::TraceContext::NONE, }) {
                Response::SearchHits { hits, .. } => {
                    prop_assert_eq!(&hit_files(&hits), oracle.last().unwrap());
                }
                other => panic!("{other:?}"),
            }
            call(&tx, Request::Shutdown);
            actor.join().unwrap();
        });
    }

    /// A paginated session opened mid-ingest serves every page from the
    /// one epoch pinned at open time: the concatenation of its pages is a
    /// whole-prefix answer even though commits land between pulls.
    #[test]
    fn session_pages_all_come_from_the_pinned_epoch(
        before in arb_batches(),
        after in arb_batches(),
        threshold in 0u64..1_000_000,
    ) {
        with_watchdog("session_pages_all_come_from_the_pinned_epoch", move || {
            let acg = AcgId::new(1);
            let node = IndexNode::new(NodeId::new(1), IndexNodeConfig::default());
            let (tx, actor) = spawn_actor(node);
            let request = SearchRequest::parse(&format!("size>{threshold}"), Timestamp::from_secs(1))
                .unwrap()
                .with_limit(500);

            // Apply the pre-open batches synchronously: the session's pinned
            // epoch is exactly their cumulative state.
            for (i, batch) in before.iter().enumerate() {
                call(&tx, Request::IndexBatch {
                    acg,
                    ops: to_ops(batch),
                    now: Timestamp::from_secs(10 + i as u64),
                ctx: propeller_obs::TraceContext::NONE, });
            }
            let pinned = prefix_hit_sets(&before, threshold).pop().unwrap();

            let (mut session, mut pages, mut exhausted) = match call(&tx, Request::OpenSearch {
                acgs: vec![acg],
                expect: None,
                request: request.clone(),
                client: 7,
                page: 3,
                now: Timestamp::from_secs(100),
            ctx: propeller_obs::TraceContext::NONE, }) {
                Response::SearchPage { session, hits, exhausted, .. } => (session, hits, exhausted),
                other => panic!("{other:?}"),
            };

            // Hammer commits between every pull: none of them may leak into
            // the open session.
            let mut i = 0;
            while !exhausted {
                let batch = &after[i % after.len()];
                call(&tx, Request::IndexBatch {
                    acg,
                    ops: to_ops(batch),
                    now: Timestamp::from_secs(200 + i as u64),
                ctx: propeller_obs::TraceContext::NONE, });
                match call(&tx, Request::PullHits { session, page: 3 , ctx: propeller_obs::TraceContext::NONE }) {
                    Response::SearchPage { session: s, hits, exhausted: done, .. } => {
                        pages.extend(hits);
                        session = s;
                        exhausted = done;
                    }
                    other => panic!("{other:?}"),
                }
                i += 1;
            }
            prop_assert_eq!(
                hit_files(&pages),
                pinned,
                "session pages must all come from the epoch pinned at open"
            );
            call(&tx, Request::Shutdown);
            actor.join().unwrap();
        });
    }
}
