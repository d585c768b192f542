//! A persistent worker pool for intra-node search parallelism.
//!
//! Before this pool, every multi-ACG search spawned a fresh set of scoped
//! threads (`std::thread::scope`) and tore them down again — measurable
//! per-search overhead at high QPS. An [`IndexNode`](crate::IndexNode) now
//! owns one `WorkerPool`, created once from its configured
//! `search_parallelism` and reused across every search it serves. The
//! client side follows the same rule without needing a pool: its fan-out
//! (ingest dispatch, search opens, session closes) sends from the calling
//! thread and gathers on it ([`Gather`](crate::Gather)), so a warm request
//! creates no thread on either side of the fabric.
//!
//! Design notes:
//!
//! * **Lazy spawn** — worker threads start on the first batch that needs
//!   them, so single-ACG nodes, `search_parallelism: 1` configs and the
//!   many short-lived nodes of simulated clusters never pay for idle
//!   threads.
//! * **Caller participation** — [`WorkerPool::run`] executes jobs on the
//!   calling (actor) thread too, so a pool of width `w` applies exactly
//!   `w` execution streams, matching the semantics of the scoped pool it
//!   replaces.
//! * **Shared queue** — jobs are pulled off one queue as workers free up
//!   (cheap dynamic load balancing: ACG sizes are skewed, so static
//!   striping would leave workers idle behind one big group).
//! * **Panic isolation** — a panicking job is caught on the worker,
//!   reported back, and re-raised on the caller; the worker itself
//!   survives for the next search.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A queued unit of work: type-erased, result delivery captured inside.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The two job lanes shared between submitting threads and the workers.
///
/// `batch` holds the subjobs of a [`WorkerPool::run`] call; `detached`
/// holds fire-and-forget [`WorkerPool::submit`] jobs (whole searches with
/// the reply captured inside). They are separate lanes on purpose: a
/// detached search job may itself call `run` for its per-ACG scans, and
/// the helping loop inside `run` must only ever execute *batch* subjobs —
/// picking up another whole search there would nest searches and inflate
/// the outer one's latency unboundedly.
struct Queues {
    batch: VecDeque<Job>,
    detached: VecDeque<Job>,
}

struct Shared {
    queue: Mutex<Queues>,
    /// Signalled when jobs arrive or shutdown begins.
    available: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queues> {
        // Jobs run under `catch_unwind`, so a poisoned queue can only come
        // from a panic in the pool's own bookkeeping; recover rather than
        // cascade.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The spawned half of the pool (created on first use).
struct PoolInner {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl PoolInner {
    fn spawn(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queues { batch: VecDeque::new(), detached: VecDeque::new() }),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("propeller-search-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn search worker")
            })
            .collect();
        PoolInner { shared, handles }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queues = shared.lock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Batch subjobs first: they are the inner stages of
                // already-running searches, so finishing them unblocks a
                // waiting `run` caller; detached jobs are brand-new work.
                if let Some(job) = queues.batch.pop_front().or_else(|| queues.detached.pop_front())
                {
                    break job;
                }
                queues = shared.available.wait(queues).unwrap_or_else(PoisonError::into_inner);
            }
        };
        job();
    }
}

/// A persistent, lazily-spawned worker pool of fixed width.
///
/// `width` is the total number of concurrent execution streams a
/// [`WorkerPool::run`] call uses — `width - 1` pooled threads plus the
/// calling thread. A width of 0 or 1 degrades to inline sequential
/// execution (no threads are ever spawned).
pub struct WorkerPool {
    width: usize,
    inner: OnceLock<PoolInner>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("width", &self.width)
            .field("spawned", &self.inner.get().is_some())
            .finish()
    }
}

impl WorkerPool {
    /// A pool of the given width. No threads are spawned until the first
    /// [`WorkerPool::run`] that can use them.
    pub fn new(width: usize) -> Self {
        WorkerPool { width: width.max(1), inner: OnceLock::new() }
    }

    /// The configured width (total concurrent execution streams).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Spawns the worker threads on first use. `run` on a width-1 pool
    /// never calls this (it stays inline); `submit` always needs at least
    /// one worker, so even a width-1 pool spawns one for its detached
    /// lane.
    fn spawned(&self) -> &PoolInner {
        self.inner.get_or_init(|| PoolInner::spawn(self.width.max(2) - 1))
    }

    /// Enqueues a fire-and-forget job (result delivery captured inside)
    /// and returns immediately — the submitting thread never blocks. Jobs
    /// run on the pool's workers in submission order as they free up; a
    /// panicking job is swallowed by the worker (the job owns its reply
    /// channel, so its caller observes a dropped reply, not a crash).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let inner = self.spawned();
        inner.shared.lock().detached.push_back(Box::new(move || {
            let _ = catch_unwind(AssertUnwindSafe(job));
        }));
        inner.shared.available.notify_one();
    }

    /// Runs `jobs` across the pool, returning their results **in job
    /// order**. Blocks until every job finished. With a single job or a
    /// width of 1 the jobs run inline on the caller; otherwise the caller
    /// participates as one of the `width` execution streams, pulling from
    /// the same queue as the workers.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic on the caller) if any job panicked.
    pub fn run<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        if self.width <= 1 || jobs.len() <= 1 {
            return jobs.into_iter().map(|job| job()).collect();
        }
        let inner = self.spawned();
        let total = jobs.len();
        let (tx, rx) = std::sync::mpsc::channel::<(usize, std::thread::Result<T>)>();
        {
            let mut queues = inner.shared.lock();
            for (i, job) in jobs.into_iter().enumerate() {
                let tx: Sender<(usize, std::thread::Result<T>)> = tx.clone();
                queues.batch.push_back(Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(job));
                    // The receiver only disappears if the caller panicked
                    // out of the collection loop; nothing left to report.
                    let _ = tx.send((i, result));
                }));
            }
        }
        drop(tx);
        inner.shared.available.notify_all();
        // The caller is one of the execution streams: drain *batch*
        // subjobs from the shared queue until it runs dry (other batches'
        // subjobs included — helping is always sound, the closures are
        // self-contained; detached whole-search jobs are never picked up
        // here, see `Queues`).
        loop {
            let job = inner.shared.lock().batch.pop_front();
            match job {
                Some(job) => job(),
                None => break,
            }
        }
        let mut results: Vec<Option<T>> = (0..total).map(|_| None).collect();
        for _ in 0..total {
            let (i, result) = rx.recv().expect("search worker died before finishing its job");
            match result {
                Ok(value) => results[i] = Some(value),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        results.into_iter().map(|r| r.expect("every job reported")).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            // Set the flag under the queue lock: a worker checks it and
            // enters `Condvar::wait` under that same lock, so it either
            // sees the flag or is already waiting when the notification
            // fires. Storing it unlocked loses the wake-up in between, and
            // the join below then blocks forever.
            {
                let _queues = inner.shared.lock();
                inner.shared.shutdown.store(true, Ordering::Release);
            }
            inner.shared.available.notify_all();
            // The pool is shared with detached jobs (`submit` closures own
            // an `Arc<WorkerPool>`), so the last drop can happen *on a
            // worker thread* — when the owning node shuts down while a
            // search job is still in flight. Joining our own handle would
            // deadlock (EDEADLK); detach it instead — the shutdown flag is
            // set, so it exits right after this drop returns.
            let me = std::thread::current().id();
            for handle in inner.handles {
                if handle.thread().id() == me {
                    drop(handle);
                } else {
                    let _ = handle.join();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..64usize)
            .map(|i| {
                Box::new(move || {
                    // Uneven work so completion order scrambles.
                    std::thread::sleep(std::time::Duration::from_micros((64 - i as u64) * 10));
                    i * i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let results = pool.run(jobs);
        assert_eq!(results, (0..64usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn width_one_runs_inline_without_spawning() {
        let pool = WorkerPool::new(1);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0..8usize).map(|i| Box::new(move || i) as Box<dyn FnOnce() -> usize + Send>).collect();
        assert_eq!(pool.run(jobs), (0..8).collect::<Vec<_>>());
        assert!(pool.inner.get().is_none(), "width 1 must never spawn threads");
    }

    #[test]
    fn pool_is_reused_across_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..10usize {
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16usize)
                .map(|i| Box::new(move || round + i) as Box<dyn FnOnce() -> usize + Send>)
                .collect();
            let results = pool.run(jobs);
            assert_eq!(results, (0..16).map(|i| round + i).collect::<Vec<_>>());
        }
        assert_eq!(pool.inner.get().expect("spawned").handles.len(), 2, "width - 1 workers");
    }

    #[test]
    fn job_panic_propagates_but_pool_survives() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom")), Box::new(|| 3)];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(jobs)));
        assert!(caught.is_err(), "the job panic must reach the caller");
        // The pool still serves the next batch.
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0..4usize).map(|i| Box::new(move || i) as Box<dyn FnOnce() -> usize + Send>).collect();
        assert_eq!(pool.run(jobs), vec![0, 1, 2, 3]);
    }

    #[test]
    fn drop_never_loses_the_shutdown_wakeup() {
        // A worker that has checked `shutdown` under the lock and is about
        // to wait must not miss drop's notification. The window is a few
        // instructions wide, so it takes thousands of create/submit/drop
        // cycles to hit; the watchdog turns a hang into a failure.
        let (done, finished) = std::sync::mpsc::channel();
        let stress = std::thread::spawn(move || {
            for _ in 0..20_000 {
                let pool = WorkerPool::new(3);
                pool.submit(|| {});
                drop(pool);
            }
            let _ = done.send(());
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("WorkerPool::drop hung joining a worker that missed the shutdown wake-up");
        stress.join().expect("stress thread");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(8);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = Vec::new();
        assert!(pool.run(jobs).is_empty());
        assert!(pool.inner.get().is_none());
    }
}
