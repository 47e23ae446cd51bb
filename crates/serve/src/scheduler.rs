//! The micro-batch coalescing query scheduler.
//!
//! Requests admitted by the server land on a **bounded queue** (full ⇒
//! a structured `overloaded` error, never an unbounded backlog). A
//! small pool of executor threads drains it with inference-server-style
//! **micro-batching**: the first job to arrive opens a collection
//! window (a few milliseconds, [`SchedulerConfig::window`]); every
//! compatible cache-miss plan that arrives inside the window joins the
//! same [`Session::run_batch_at`] call, where plans with the same
//! evaluation signature share **one** fused enumeration + evaluation
//! pass. A bursty all-miss workload therefore pays ~one pass per
//! window, not one pass per request.
//!
//! Epochs make rolling catalog updates stall-free: each job carries the
//! epoch it was **admitted** at, the batch is grouped by admission
//! epoch, and a delta published mid-window never bleeds into requests
//! admitted before it — they finish on their pinned epoch,
//! bit-identically to a cold run at that epoch. After a delta, a
//! background thread walks the session's cached plan keys and
//! [`Session::refresh`]es each (incremental delta repair), re-warming
//! the hot entries off the request path.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use f1_components::{CatalogDelta, CatalogEpoch, ComponentError, EpochSnapshot};
use f1_skyline::plan::QueryPlan;
use f1_skyline::session::{ResultSet, Session};
use f1_skyline::SkylineError;

/// Tuning knobs of the [`Scheduler`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// The micro-batch collection window: how long the first queued
    /// request waits for compatible company before the batch executes.
    /// `Duration::ZERO` disables coalescing entirely — every request
    /// runs in its own pass (the serial baseline the load generator
    /// compares against).
    pub window: Duration,
    /// Bounded admission-queue capacity; submissions past it are
    /// rejected with a structured `overloaded` error.
    pub queue_capacity: usize,
    /// Most requests one batch may coalesce.
    pub max_batch: usize,
    /// Executor threads draining the queue. Each batch runs on one
    /// executor (the sharded pass is internally parallel); extra
    /// executors let independent batches overlap.
    pub executors: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            window: Duration::from_millis(2),
            queue_capacity: 1024,
            max_batch: 64,
            executors: std::thread::available_parallelism().map_or(2, |n| n.get().clamp(1, 4)),
        }
    }
}

/// A point-in-time snapshot of the scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Requests accepted onto the queue.
    pub admitted: u64,
    /// Requests rejected because the queue was full.
    pub rejected: u64,
    /// Requests answered by the connection-side cache fast path,
    /// without ever touching the queue.
    pub fast_path_hits: u64,
    /// Batches executed (one `run_batch_at` call per admission-epoch
    /// group).
    pub batches: u64,
    /// Requests executed through batches (Σ batch sizes).
    pub batched_requests: u64,
    /// Requests that shared a batch with at least one other request
    /// (`batched_requests − batches` over multi-request batches).
    pub coalesced: u64,
    /// Largest batch executed so far.
    pub max_batch: u64,
    /// Catalog deltas applied.
    pub deltas_applied: u64,
    /// Cached plans re-repaired by the background refresh thread after
    /// deltas.
    pub background_repairs: u64,
}

/// One queued request: the parsed plan, its admission epoch, and the
/// channel its result goes back on.
struct Job {
    plan: QueryPlan,
    epoch: CatalogEpoch,
    reply: SyncSender<Result<Arc<ResultSet>, SkylineError>>,
}

/// Queue state guarded by one mutex: the jobs plus the collector flag
/// that guarantees only **one** executor holds a collection window open
/// at a time (otherwise competing executors would steal jobs out of a
/// filling batch and defeat coalescing).
struct QueueState {
    jobs: VecDeque<Job>,
    collecting: bool,
}

struct Inner {
    session: Arc<Session>,
    config: SchedulerConfig,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    /// Bumped per applied delta; the repair thread sweeps the cache
    /// whenever it lags the generation.
    repair_gen: Mutex<u64>,
    repair_cv: Condvar,
    shutdown: AtomicBool,
    /// One mutex (not per-counter atomics) so [`Scheduler::stats`]
    /// snapshots are **consistent**: every logical update happens in one
    /// critical section, so no snapshot can observe a torn state like
    /// `coalesced > batched_requests` or `batched_requests > admitted`.
    /// Lock order: `queue` → `stats` (admission bumps `admitted` while
    /// the job is still invisible to executors); never the reverse.
    stats: Mutex<SchedulerStats>,
}

/// The scheduler: bounded admission, micro-batch coalescing executors,
/// and background cache repair across catalog deltas. See the [module
/// docs](self).
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("config", &self.inner.config)
            .finish_non_exhaustive()
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity.
    Overloaded,
    /// The scheduler is shutting down.
    ShuttingDown,
}

impl Scheduler {
    /// Starts the executor pool and the background repair thread over a
    /// shared session.
    #[must_use]
    pub fn start(session: Arc<Session>, config: SchedulerConfig) -> Self {
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(config.max_batch > 0, "max batch must be positive");
        assert!(config.executors > 0, "executor count must be positive");
        let inner = Arc::new(Inner {
            session,
            config: config.clone(),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                collecting: false,
            }),
            queue_cv: Condvar::new(),
            repair_gen: Mutex::new(0),
            repair_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: Mutex::new(SchedulerStats::default()),
        });
        let mut workers = Vec::with_capacity(config.executors + 1);
        for i in 0..config.executors {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("skyline-exec-{i}"))
                    .spawn(move || executor_loop(&inner))
                    // analyze::allow(panic, reason = "startup-time spawn, before any request is served")
                    .expect("spawning an executor thread"),
            );
        }
        {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name("skyline-repair".to_owned())
                    .spawn(move || repair_loop(&inner))
                    // analyze::allow(panic, reason = "startup-time spawn, before any request is served")
                    .expect("spawning the repair thread"),
            );
        }
        Self {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// The session this scheduler executes on.
    #[must_use]
    pub fn session(&self) -> &Arc<Session> {
        &self.inner.session
    }

    /// Admits a parsed plan onto the bounded queue at its admission
    /// epoch. Returns the receiver the result will arrive on.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the queue is full,
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit(
        &self,
        plan: QueryPlan,
        epoch: CatalogEpoch,
    ) -> Result<Receiver<Result<Arc<ResultSet>, SkylineError>>, SubmitError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let (reply, rx) = mpsc::sync_channel(1);
        {
            let mut queue = lock(&self.inner.queue);
            if queue.jobs.len() >= self.inner.config.queue_capacity {
                lock(&self.inner.stats).rejected += 1;
                return Err(SubmitError::Overloaded);
            }
            queue.jobs.push_back(Job { plan, epoch, reply });
            // Count admission while still holding the queue lock: the
            // job is not yet visible to executors, so no snapshot can
            // observe `batched_requests > admitted` (lock order:
            // queue → stats).
            lock(&self.inner.stats).admitted += 1;
        }
        self.inner.queue_cv.notify_all();
        Ok(rx)
    }

    /// Applies a catalog delta: publishes the next epoch (in-flight
    /// queries keep their admission epochs) and wakes the background
    /// repair thread to re-warm cached plans at the new epoch.
    ///
    /// # Errors
    ///
    /// Any [`ComponentError`] the store rejects the delta with — no
    /// epoch is published then.
    pub fn apply_delta(&self, delta: &CatalogDelta) -> Result<EpochSnapshot, ComponentError> {
        let snapshot = self.inner.session.store().apply(delta)?;
        lock(&self.inner.stats).deltas_applied += 1;
        *lock(&self.inner.repair_gen) += 1;
        self.inner.repair_cv.notify_all();
        Ok(snapshot)
    }

    /// Counts a connection-side cache fast-path hit (the request never
    /// reached the queue).
    pub fn note_fast_path_hit(&self) {
        lock(&self.inner.stats).fast_path_hits += 1;
    }

    /// Current queue depth (diagnostic).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        lock(&self.inner.queue).jobs.len()
    }

    /// A consistent snapshot of the counters: taken under the stats
    /// mutex, so it can never show a torn state (`coalesced >
    /// batched_requests`, `batched_requests > admitted`, `max_batch >
    /// batched_requests` are all impossible).
    #[must_use]
    pub fn stats(&self) -> SchedulerStats {
        *lock(&self.inner.stats)
    }

    /// Flags shutdown and joins every executor and the repair thread.
    /// Queued jobs still drain (their connections are waiting); new
    /// submissions are rejected.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.queue_cv.notify_all();
        self.inner.repair_cv.notify_all();
        let workers = std::mem::take(&mut *lock(&self.workers));
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One executor: claim the collector role, hold the micro-batch window
/// open, drain up to `max_batch` jobs, execute them grouped by
/// admission epoch, answer every reply channel.
fn executor_loop(inner: &Inner) {
    loop {
        let batch = collect_batch(inner);
        let Some(batch) = batch else { return };
        execute_batch(inner, batch);
    }
}

/// Blocks until jobs are available (or shutdown drains the queue dry),
/// then coalesces one batch. Returns `None` when it is time to exit.
fn collect_batch(inner: &Inner) -> Option<Vec<Job>> {
    let config = &inner.config;
    let mut queue = lock(&inner.queue);
    // Wait for work — or for the collector role to free up while work
    // exists (only one executor holds a window open at a time).
    loop {
        if !queue.jobs.is_empty() && !queue.collecting {
            break;
        }
        if inner.shutdown.load(Ordering::Acquire) && queue.jobs.is_empty() {
            return None;
        }
        let (next, _) = inner
            .queue_cv
            .wait_timeout(queue, Duration::from_millis(50))
            .unwrap_or_else(PoisonError::into_inner);
        queue = next;
    }
    // Collector role claimed: hold the window open for stragglers.
    if !config.window.is_zero() && queue.jobs.len() < config.max_batch {
        queue.collecting = true;
        let deadline = Instant::now() + config.window;
        loop {
            let now = Instant::now();
            if now >= deadline
                || queue.jobs.len() >= config.max_batch
                || inner.shutdown.load(Ordering::Acquire)
            {
                break;
            }
            let (next, _) = inner
                .queue_cv
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            queue = next;
        }
        queue.collecting = false;
    }
    let take = if config.window.is_zero() {
        // Coalescing disabled: strictly one request per pass.
        1
    } else {
        config.max_batch.min(queue.jobs.len())
    };
    let batch: Vec<Job> = queue.jobs.drain(..take).collect();
    drop(queue);
    // More jobs may remain — hand the collector role to a waiting peer.
    inner.queue_cv.notify_all();
    Some(batch)
}

/// Groups a batch by admission epoch and runs each group through one
/// shared-pass `run_batch_at` call.
fn execute_batch(inner: &Inner, batch: Vec<Job>) {
    {
        // One critical section for the whole batch-shape update, so a
        // concurrent snapshot sees all of it or none of it.
        let mut stats = lock(&inner.stats);
        stats.batched_requests += batch.len() as u64;
        stats.max_batch = stats.max_batch.max(batch.len() as u64);
        if batch.len() > 1 {
            stats.coalesced += batch.len() as u64;
        }
    }
    // Group by admission epoch, preserving arrival order within groups.
    let mut groups: Vec<(CatalogEpoch, Vec<Job>)> = Vec::new();
    for job in batch {
        match groups.iter_mut().find(|(epoch, _)| *epoch == job.epoch) {
            Some((_, jobs)) => jobs.push(job),
            None => groups.push((job.epoch, vec![job])),
        }
    }
    for (epoch, jobs) in groups {
        lock(&inner.stats).batches += 1;
        let mut plans = Vec::with_capacity(jobs.len());
        let mut replies = Vec::with_capacity(jobs.len());
        for job in jobs {
            plans.push(job.plan);
            replies.push(job.reply);
        }
        // Contain panics from the pass: the executor thread must
        // outlive any one bad batch. On a panic the replies are dropped,
        // so each waiting connection observes the closed channel and
        // answers a structured `err internal` instead of hanging.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inner.session.run_batch_at(&plans, epoch)
        }));
        match outcome {
            Ok(Ok(results)) => {
                for (reply, result) in replies.into_iter().zip(results) {
                    let _ = reply.send(Ok(result));
                }
            }
            Err(_panic) => drop(replies),
            Ok(Err(error)) => {
                // One bad plan fails its whole epoch group (the batch
                // executor is all-or-nothing); each member gets the
                // structured error. Plan-shape errors are caught at
                // parse/validate time on the connection, so this is the
                // rare path.
                for reply in replies {
                    let _ = reply.send(Err(error.clone()));
                }
            }
        }
    }
}

/// The background repair thread: after each delta, walk the cached plan
/// keys and bring each forward to the current epoch via incremental
/// repair, so the hot set re-warms off the request path.
fn repair_loop(inner: &Inner) {
    let mut seen = 0u64;
    loop {
        {
            let mut gen = lock(&inner.repair_gen);
            while *gen == seen && !inner.shutdown.load(Ordering::Acquire) {
                let (next, _) = inner
                    .repair_cv
                    .wait_timeout(gen, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                gen = next;
            }
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            seen = *gen;
        }
        for key in inner.session.cached_plan_keys() {
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Keys in the cache are canonical by construction; a parse
            // or repair failure just leaves the entry cold.
            if let Ok(plan) = QueryPlan::from_key(&key) {
                if inner.session.refresh(&plan).is_ok() {
                    lock(&inner.stats).background_repairs += 1;
                }
            }
        }
    }
}

/// A loom-lite deterministic interleaving harness for the
/// window-collector protocol.
///
/// Instead of sampling interleavings from the OS scheduler, these tests
/// build the scheduler core **without** executor threads and drive
/// every protocol step (admission, window collection, batch execution,
/// delta publication, shutdown) explicitly. An interleaving is then a
/// plain sequence of steps, enumerated exhaustively where it matters —
/// each run reproduces its schedule exactly. The three scenarios cover
/// the protocol's racy edges: a collector exiting while the queue is
/// still nonempty, a delta published into an open window, and shutdown
/// arriving while waiters are parked on the condvar.
#[cfg(test)]
mod interleave {
    use super::*;
    use f1_components::{Catalog, CatalogStore};
    use f1_skyline::query::{Constraint, Objective};
    use f1_units::Watts;

    fn plan(cap: f64) -> QueryPlan {
        QueryPlan::builder()
            .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
            .constraint(Constraint::MaxTotalTdp(Watts::new(cap)))
            .build()
            .expect("plan builds")
    }

    type ReplyRx = Receiver<Result<Arc<ResultSet>, SkylineError>>;

    /// The scheduler core with no threads of its own.
    struct Core {
        inner: Arc<Inner>,
    }

    impl Core {
        fn new(window: Duration, max_batch: usize) -> Self {
            let store = Arc::new(CatalogStore::from_shared(Arc::new(Catalog::paper())));
            let session = Arc::new(Session::over(store));
            Self {
                inner: Arc::new(Inner {
                    session,
                    config: SchedulerConfig {
                        window,
                        queue_capacity: 64,
                        max_batch,
                        executors: 1,
                    },
                    queue: Mutex::new(QueueState {
                        jobs: VecDeque::new(),
                        collecting: false,
                    }),
                    queue_cv: Condvar::new(),
                    repair_gen: Mutex::new(0),
                    repair_cv: Condvar::new(),
                    shutdown: AtomicBool::new(false),
                    stats: Mutex::new(SchedulerStats::default()),
                }),
            }
        }

        /// Admission step: the job lands on the queue at the *current*
        /// epoch, which is returned so the test can assert the answer
        /// is pinned to it.
        fn submit(&self, cap: f64) -> (f64, CatalogEpoch, ReplyRx) {
            let epoch = self.inner.session.epoch();
            let (reply, rx) = mpsc::sync_channel(1);
            {
                let mut queue = lock(&self.inner.queue);
                queue.jobs.push_back(Job {
                    plan: plan(cap),
                    epoch,
                    reply,
                });
                lock(&self.inner.stats).admitted += 1;
            }
            self.inner.queue_cv.notify_all();
            (cap, epoch, rx)
        }

        /// Delta-publication step: a new epoch becomes current.
        fn delta(&self) {
            let delta = CatalogDelta::new().retire_compute(f1_components::names::TX2);
            self.inner
                .session
                .store()
                .apply(&delta)
                .expect("delta applies");
        }

        fn collect(&self) -> Option<Vec<Job>> {
            collect_batch(&self.inner)
        }

        fn execute(&self, batch: Vec<Job>) {
            execute_batch(&self.inner, batch);
        }

        /// Bit-identical expectation: a cold run at the given epoch.
        fn cold_run_at(&self, cap: f64, epoch: CatalogEpoch) -> Arc<ResultSet> {
            Session::over(Arc::clone(self.inner.session.store()))
                .run_at(&plan(cap), epoch)
                .expect("cold run succeeds")
        }
    }

    #[test]
    fn collector_exit_with_nonempty_queue_releases_the_role() {
        // Three jobs, max_batch 2: the collector must cap its drain,
        // leave the remainder queued, and release the collector flag so
        // a peer can claim the leftovers — a stuck `collecting` flag
        // would deadlock every later window.
        let core = Core::new(Duration::from_millis(5), 2);
        let submitted = [core.submit(20.0), core.submit(21.0), core.submit(22.0)];
        let first = core.collect().expect("work is available");
        assert_eq!(first.len(), 2, "max_batch caps the drain");
        {
            let queue = lock(&core.inner.queue);
            assert_eq!(queue.jobs.len(), 1, "the remainder stays queued");
            assert!(!queue.collecting, "the collector role is released");
        }
        core.execute(first);
        let second = core.collect().expect("the remainder is claimable");
        assert_eq!(second.len(), 1);
        core.execute(second);
        for (cap, epoch, rx) in submitted {
            let got = rx.recv().expect("answered").expect("feasible");
            assert_eq!(*got, *core.cold_run_at(cap, epoch), "epoch-pinned answer");
        }
    }

    #[test]
    fn delta_during_an_open_window_pins_jobs_to_their_admission_epochs() {
        // Every interleaving of {submit a, submit b, publish delta}:
        // whichever side of the delta a job lands on, its answer must be
        // bit-identical to a cold run at its own admission epoch, even
        // when both epochs share one collected batch.
        let schedules: [&[&str]; 3] = [
            &["a", "b", "delta"],
            &["a", "delta", "b"],
            &["delta", "a", "b"],
        ];
        for schedule in schedules {
            let core = Core::new(Duration::from_millis(5), 2);
            let mut submitted = Vec::new();
            for step in schedule {
                match *step {
                    "a" => submitted.push(core.submit(18.0)),
                    "b" => submitted.push(core.submit(19.0)),
                    "delta" => core.delta(),
                    other => unreachable!("unknown step {other}"),
                }
            }
            // Both jobs are queued, so the collector drains one full
            // batch without waiting out the window.
            let batch = core.collect().expect("two jobs queued");
            assert_eq!(batch.len(), 2, "schedule {schedule:?}");
            core.execute(batch);
            for (cap, epoch, rx) in submitted {
                let got = rx.recv().expect("answered").expect("feasible");
                assert_eq!(
                    *got,
                    *core.cold_run_at(cap, epoch),
                    "schedule {schedule:?}: job admitted at {epoch:?} must answer there"
                );
            }
        }
    }

    #[test]
    fn shutdown_with_parked_waiters_drains_the_queue_then_frees_everyone() {
        // Two waiters park on the empty queue's condvar; a job arrives
        // and shutdown follows immediately. In every interleaving the
        // job must still be drained (its connection is waiting on the
        // reply) and both waiters must exit — no lost wakeup, no
        // stranded job.
        let core = Core::new(Duration::from_millis(5), 2);
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let inner = Arc::clone(&core.inner);
                std::thread::spawn(move || collect_batch(&inner))
            })
            .collect();
        let (cap, epoch, rx) = core.submit(23.0);
        core.inner.shutdown.store(true, Ordering::Release);
        core.inner.queue_cv.notify_all();
        let mut batches = Vec::new();
        for waiter in waiters {
            if let Some(batch) = waiter.join().expect("waiter exits cleanly") {
                batches.push(batch);
            }
        }
        assert_eq!(batches.len(), 1, "exactly one waiter drains the job");
        assert_eq!(batches[0].len(), 1);
        {
            let queue = lock(&core.inner.queue);
            assert!(queue.jobs.is_empty(), "no job is stranded");
            assert!(
                !queue.collecting,
                "the collector flag is clear after shutdown"
            );
        }
        for batch in batches {
            core.execute(batch);
        }
        let got = rx.recv().expect("answered").expect("feasible");
        assert_eq!(*got, *core.cold_run_at(cap, epoch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_components::Catalog;
    use f1_skyline::query::{Constraint, Objective};
    use f1_units::Watts;

    fn plan(cap: f64) -> QueryPlan {
        QueryPlan::builder()
            .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
            .constraint(Constraint::MaxTotalTdp(Watts::new(cap)))
            .build()
            .unwrap()
    }

    fn scheduler(window: Duration, capacity: usize) -> Scheduler {
        Scheduler::start(
            Arc::new(Session::new(Arc::new(Catalog::paper()))),
            SchedulerConfig {
                window,
                queue_capacity: capacity,
                max_batch: 64,
                executors: 2,
            },
        )
    }

    #[test]
    fn coalesces_concurrent_submissions_into_shared_batches() {
        let sched = scheduler(Duration::from_millis(20), 64);
        let epoch = sched.session().epoch();
        let receivers: Vec<_> = (0..8)
            .map(|i| sched.submit(plan(20.0 - i as f64), epoch).unwrap())
            .collect();
        for rx in receivers {
            let result = rx.recv().unwrap().unwrap();
            assert!(!result.is_empty());
        }
        let stats = sched.stats();
        assert_eq!(stats.admitted, 8);
        assert_eq!(stats.batched_requests, 8);
        assert!(
            stats.batches < 8,
            "a 20 ms window must coalesce 8 back-to-back submissions, got {stats:?}"
        );
        assert!(stats.coalesced > 0);
        sched.shutdown();
    }

    #[test]
    fn window_zero_runs_serially() {
        let sched = scheduler(Duration::ZERO, 64);
        let epoch = sched.session().epoch();
        let receivers: Vec<_> = (0..4)
            .map(|i| sched.submit(plan(10.0 + i as f64), epoch).unwrap())
            .collect();
        for rx in receivers {
            rx.recv().unwrap().unwrap();
        }
        let stats = sched.stats();
        assert_eq!(stats.batches, 4, "window=0 must not coalesce: {stats:?}");
        assert_eq!(stats.max_batch, 1);
        assert_eq!(stats.coalesced, 0);
        sched.shutdown();
    }

    #[test]
    fn bounded_queue_rejects_overload() {
        // Capacity 1 with a long window: the first job occupies the
        // window, the second fills the queue, the third is rejected.
        let sched = scheduler(Duration::from_millis(200), 1);
        let epoch = sched.session().epoch();
        let first = sched.submit(plan(30.0), epoch).unwrap();
        let mut rejected = false;
        let mut receivers = vec![first];
        for i in 0..50 {
            match sched.submit(plan(40.0 + i as f64), epoch) {
                Ok(rx) => receivers.push(rx),
                Err(SubmitError::Overloaded) => {
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(rejected, "a capacity-1 queue must reject a burst");
        assert!(sched.stats().rejected >= 1);
        for rx in receivers {
            rx.recv().unwrap().unwrap();
        }
        sched.shutdown();
    }

    #[test]
    fn delta_wakes_background_repair() {
        let sched = scheduler(Duration::from_millis(1), 64);
        let session = Arc::clone(sched.session());
        let p = plan(25.0);
        let rx = sched.submit(p.clone(), session.epoch()).unwrap();
        rx.recv().unwrap().unwrap();
        assert_eq!(session.cache_stats().entries, 1);
        let delta = CatalogDelta::new().retire_algorithm(f1_components::names::DRONET);
        let snapshot = sched.apply_delta(&delta).unwrap();
        assert_eq!(snapshot.epoch().get(), 1);
        // The repair thread refreshes the cached plan at the new epoch.
        let deadline = Instant::now() + Duration::from_secs(10);
        while sched.stats().background_repairs == 0 {
            assert!(Instant::now() < deadline, "repair thread never ran");
            std::thread::sleep(Duration::from_millis(5));
        }
        let repaired = session.cached(p.key()).expect("repaired entry is cached");
        let expected = Session::over(Arc::clone(session.store())).run(&p).unwrap();
        assert_eq!(*repaired, *expected, "background repair is bit-identical");
        sched.shutdown();
        assert!(matches!(
            sched.submit(p, session.epoch()),
            Err(SubmitError::ShuttingDown)
        ));
    }

    /// The cross-counter invariants every [`Scheduler::stats`] snapshot
    /// must satisfy, however the reader interleaves with admission and
    /// batch execution.
    fn assert_consistent(s: &SchedulerStats) {
        assert!(
            s.batched_requests <= s.admitted,
            "executed more than admitted: {s:?}"
        );
        assert!(
            s.coalesced <= s.batched_requests,
            "coalesced without executing: {s:?}"
        );
        assert!(
            s.batches <= s.batched_requests,
            "more batches than batched requests: {s:?}"
        );
        assert!(
            s.max_batch <= s.batched_requests,
            "max batch larger than everything executed: {s:?}"
        );
        if s.deltas_applied == 0 {
            assert_eq!(s.background_repairs, 0, "repairs before any delta: {s:?}");
        }
    }

    #[test]
    fn stats_snapshots_are_never_torn() {
        let sched = Arc::new(scheduler(Duration::from_millis(2), 1024));
        let epoch = sched.session().epoch();
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let sched = Arc::clone(&sched);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut observed = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let s = sched.stats();
                    assert_consistent(&s);
                    observed += 1;
                }
                observed
            })
        };
        let receivers: Vec<_> = (0..200)
            .map(|i| sched.submit(plan(10.0 + (i % 40) as f64), epoch).unwrap())
            .collect();
        for rx in receivers {
            rx.recv().unwrap().unwrap();
        }
        stop.store(true, Ordering::Release);
        let observed = reader.join().expect("reader thread panicked");
        assert!(observed > 0, "the reader never got a snapshot in");
        let fin = sched.stats();
        assert_consistent(&fin);
        assert_eq!(fin.admitted, 200);
        assert_eq!(fin.batched_requests, 200);
        sched.shutdown();
    }

    #[test]
    fn mid_window_delta_answers_at_admission_epoch() {
        let sched = scheduler(Duration::from_millis(150), 64);
        let session = Arc::clone(sched.session());
        let p = plan(18.0);
        let admission = session.epoch();
        let rx = sched.submit(p.clone(), admission).unwrap();
        // While the window is open, retire a part the plan's candidates
        // use. The in-flight job must still answer at epoch 0.
        std::thread::sleep(Duration::from_millis(20));
        sched
            .apply_delta(&CatalogDelta::new().retire_compute(f1_components::names::TX2))
            .unwrap();
        let got = rx.recv().unwrap().unwrap();
        let expected = Session::over(Arc::clone(session.store()))
            .run_at(&p, admission)
            .unwrap();
        assert_eq!(*got, *expected, "old-epoch answer is bit-identical");
        // A fresh run at the current epoch sees the retirement.
        let now = Session::over(Arc::clone(session.store())).run(&p).unwrap();
        assert!(now.len() < got.len());
        sched.shutdown();
    }
}
