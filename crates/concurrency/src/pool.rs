//! A fixed-size thread pool with a work-stealing scheduler.
//!
//! The paper's §4.4 lists *thread pools* among the optimisations that can be
//! modularised as aspects: the concurrency aspect spawns a thread per call
//! (Figure 12), and a separately pluggable optimisation aspect replaces that
//! with pooled execution. Both styles are exposed uniformly through
//! [`Executor`](crate::executor::Executor).
//!
//! # Scheduling
//!
//! The pool is a Cilk-style work-stealing scheduler: every worker owns a LIFO
//! deque, tasks submitted from outside the pool land in a shared FIFO
//! injector, and tasks spawned *by* a pool worker (divide-and-conquer
//! recursion generates these heavily) go to that worker's own deque, where the
//! LIFO pop keeps the most recently spawned — cache-hot — task first. Idle
//! workers steal batches from the injector or from a peer's deque, so a burst
//! of nested spawns seeded on a single worker spreads across the pool without
//! any submitter-side routing. Idle workers park on a condition variable
//! behind an atomic sleeper count: submitters skip the wakeup entirely while
//! every worker is busy, which keeps the submission fast path lock-free with
//! respect to parking.
//!
//! [`ThreadPool::spawn_batch`] submits a whole pack of tasks with one
//! completion-tracker increment, one queue-lock acquisition and one wakeup —
//! the skeleton layer (farm, divide-and-conquer) uses it to submit
//! pack-granular batches instead of per-task sends.
//!
//! # Joins
//!
//! A task that blocks on a future **from a worker of the pool** does
//! not give its thread up (`Joiner`): it runs queued tasks — its own deque
//! first, so a divide level runs its youngest child inline (the work-first
//! join), then the injector, then a steal — and sleeps only when nothing is
//! runnable, on the same condition variable as an idle worker, woken by the
//! future's fulfilment or by new work. That is what lets a nested fork/join
//! deeper than the pool is wide complete on it. Two rules:
//!
//! * a helped task starts from a clean thread-local weaving context, as on a
//!   fresh worker; the waiting frame's context is set aside and put back;
//! * a thread that holds an object monitor does not help (monitors are
//!   re-entrant: the helped task could enter the critical section) — it
//!   blocks.
//!
//! Helping is deadlock-free for joins on a task's own descendants (fork/join)
//! and on independent work; a task that joins a future owed by a frame
//! *beneath it on the same stack* would wait forever, as in every help-first
//! scheduler.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

use weavepar_weave::metrics::MetricsRegistry;

use crate::tracker::{CompletionTracker, TaskToken};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// One queued unit of work: the job plus its completion-tracker token, kept
/// side by side so the batch path does not re-box the job to attach the
/// token.
struct Task {
    token: TaskToken,
    job: Job,
}

impl Task {
    /// Run the job. A panic ends the job, not the thread under it: the pool
    /// would silently lose capacity (a 1-worker pool would deadlock every
    /// later caller), and a joining frame would be torn down by a task it
    /// only helped.
    fn run(self) {
        let _token = self.token; // released when the job ends, even on panic
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(self.job));
    }
}

thread_local! {
    /// The pool whose worker runs on this thread, and its index. Not in the
    /// weaving context: a task run while that is set aside still runs on this
    /// worker.
    static WORKER: RefCell<Option<(Arc<StealCore>, usize)>> = const { RefCell::new(None) };
}

/// Always-on scheduler event counters, cheap relaxed atomics held in `Arc`s
/// so a metrics registry can bind them by name ([`ThreadPool::install_metrics`])
/// without the scheduler double-bookkeeping.
#[derive(Clone, Default)]
struct PoolStats {
    /// Task batches stolen from a peer worker's deque.
    steals: Arc<AtomicU64>,
    /// Times a worker parked on the condition variable.
    parks: Arc<AtomicU64>,
    /// Times a submitter issued a wakeup (notify) toward parked workers.
    wakeups: Arc<AtomicU64>,
    /// Tasks a joining worker ran inline while its future was pending.
    helped: Arc<AtomicU64>,
    /// Times a joining worker found nothing runnable and slept.
    join_parks: Arc<AtomicU64>,
}

/// The scheduler state a pool shares with its workers.
pub(crate) struct StealCore {
    /// FIFO entry queue for tasks submitted from outside the pool.
    injector: Injector<Task>,
    /// One LIFO deque per worker. Indexed by worker; a worker pushes nested
    /// spawns here and pops its own end, peers steal the other end.
    locals: Vec<Worker<Task>>,
    stealers: Vec<Stealer<Task>>,
    /// Number of workers currently parked (or about to park) — submitters
    /// only touch the park lock when this is non-zero.
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    park_lock: Mutex<()>,
    unpark: Condvar,
    stats: PoolStats,
}

impl StealCore {
    fn has_work(&self) -> bool {
        !self.injector.is_empty() || self.locals.iter().any(|w| !w.is_empty())
    }

    /// Wake one parked worker if any worker is parked.
    fn wake_one(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            let _guard = self.park_lock.lock();
            self.unpark.notify_one();
        }
    }

    /// Wake every parked worker (batch submission, a fulfilled future some
    /// worker joins on, shutdown).
    pub(crate) fn wake_all(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            let _guard = self.park_lock.lock();
            self.unpark.notify_all();
        }
    }

    /// Next task for worker `idx`: own deque first (LIFO — cache-hot nested
    /// spawns), then a batch from the injector, then a batch stolen from a
    /// peer (rotating the starting victim so thieves spread out).
    fn find_task(&self, idx: usize) -> Option<Task> {
        if let Some(task) = self.locals[idx].pop() {
            return Some(task);
        }
        loop {
            match self.injector.steal_batch_and_pop(&self.locals[idx]) {
                Steal::Success(task) => return Some(task),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        let n = self.stealers.len();
        for offset in 1..n {
            let victim = (idx + offset) % n;
            loop {
                match self.stealers[victim].steal_batch_and_pop(&self.locals[idx]) {
                    Steal::Success(task) => {
                        self.stats.steals.fetch_add(1, Ordering::Relaxed);
                        return Some(task);
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    /// The index of the current thread among this pool's workers.
    fn worker_index(self: &Arc<Self>) -> Option<usize> {
        WORKER.with(|w| match &*w.borrow() {
            Some((core, idx)) if Arc::ptr_eq(core, self) => Some(*idx),
            _ => None,
        })
    }

    /// Sleep until notified, unless there is work to run or `awake()` holds.
    ///
    /// The sleeper count is incremented under the park lock and *before* the
    /// conditions are re-checked; a waker changes the state first (pushes a
    /// task, fulfils a future, sets `shutdown`) and reads the count second.
    /// Whichever critical section runs first, either the waker observes the
    /// sleeper and notifies, or the re-check observes the change — a missed
    /// wakeup requires both to lose, which the lock ordering forbids. The
    /// timeout is a pure backstop: a (theoretically impossible) missed
    /// wakeup would cost 10 ms of latency, never a hang.
    fn park_unless(&self, awake: impl Fn() -> bool, parks: &AtomicU64) {
        let mut guard = self.park_lock.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if !(self.has_work() || awake()) {
            parks.fetch_add(1, Ordering::Relaxed);
            self.unpark.wait_for(&mut guard, Duration::from_millis(10));
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    fn worker_loop(self: &Arc<Self>, idx: usize) {
        WORKER.with(|w| *w.borrow_mut() = Some((self.clone(), idx)));
        let shutdown = || self.shutdown.load(Ordering::SeqCst);
        loop {
            if let Some(task) = self.find_task(idx) {
                task.run();
            } else if shutdown() {
                return; // queues drained and the pool is going away
            } else {
                self.park_unless(shutdown, &self.stats.parks);
            }
        }
    }
}

/// A pool worker about to wait on a join: it helps instead of blocking (see
/// the module docs).
pub(crate) struct Joiner {
    core: Arc<StealCore>,
    idx: usize,
}

impl Joiner {
    /// `Some` on a pool worker that holds no object monitor; everyone else
    /// joins by blocking.
    pub(crate) fn current() -> Option<Joiner> {
        if weavepar_weave::object::monitors_held() > 0 {
            return None;
        }
        WORKER.with(|w| w.borrow().clone()).map(|(core, idx)| Joiner { core, idx })
    }

    /// The pool to wake (`wake_all`) when the awaited state changes.
    pub(crate) fn pool(&self) -> &Arc<StealCore> {
        &self.core
    }

    /// Run queued tasks until `ready()`; sleep, as an idle worker does, only
    /// while nothing is runnable. Whoever makes `ready()` true must call
    /// [`StealCore::wake_all`] on [`Joiner::pool`] afterwards.
    pub(crate) fn help_until(&self, ready: impl Fn() -> bool) {
        while !ready() {
            match self.core.find_task(self.idx) {
                Some(task) => {
                    self.core.stats.helped.fetch_add(1, Ordering::Relaxed);
                    // The task sees a fresh worker's thread-local state; the
                    // waiting frame gets its own back afterwards.
                    let _fresh = crate::batch::set_aside();
                    task.run();
                }
                None => self.core.park_unless(&ready, &self.core.stats.join_parks),
            }
        }
    }
}

/// A fixed set of worker threads consuming work-stealing deques.
pub struct ThreadPool {
    core: Arc<StealCore>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    tracker: CompletionTracker,
    size: usize,
}

impl ThreadPool {
    /// Spawn `size` workers (at least one) named `{name}-{i}`.
    pub fn new(size: usize, name: &str) -> Arc<Self> {
        let size = size.max(1);
        let locals: Vec<Worker<Task>> = (0..size).map(|_| Worker::new_lifo()).collect();
        let stealers = locals.iter().map(|w| w.stealer()).collect();
        let core = Arc::new(StealCore {
            injector: Injector::new(),
            locals,
            stealers,
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            park_lock: Mutex::new(()),
            unpark: Condvar::new(),
            stats: PoolStats::default(),
        });
        let mut workers = Vec::with_capacity(size);
        for i in 0..size {
            let core = core.clone();
            let handle = std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || core.worker_loop(i))
                .expect("spawning pool worker");
            workers.push(handle);
        }
        Arc::new(ThreadPool {
            core,
            workers: Mutex::new(workers),
            tracker: CompletionTracker::new(),
            size,
        })
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Enqueue a job. Never blocks (unbounded queues). Called from a pool
    /// worker, the job goes to that worker's own deque (LIFO, cache-hot);
    /// called from anywhere else it goes to the shared injector.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let task = Task { token: self.tracker.begin(), job: Box::new(job) };
        self.push_task(task);
    }

    /// Enqueue a whole pack of jobs: one tracker increment, one queue-lock
    /// acquisition and one wakeup for the entire batch. Semantically
    /// identical to calling [`spawn`](Self::spawn) once per job.
    pub fn spawn_batch<I>(&self, jobs: I)
    where
        I: IntoIterator,
        I::Item: FnOnce() + Send + 'static,
    {
        self.spawn_batch_boxed(jobs.into_iter().map(|j| Box::new(j) as Job).collect());
    }

    pub(crate) fn spawn_batch_boxed(&self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        let tokens = self.tracker.begin_many(jobs.len());
        let tasks = tokens.into_iter().zip(jobs).map(|(token, job)| Task { token, job });
        let core = &self.core;
        match core.worker_index() {
            Some(idx) => {
                for task in tasks {
                    core.locals[idx].push(task);
                }
            }
            None => core.injector.push_batch(tasks),
        }
        core.wake_all();
    }

    fn push_task(&self, task: Task) {
        match self.core.worker_index() {
            Some(idx) => self.core.locals[idx].push(task),
            None => self.core.injector.push(task),
        }
        self.core.wake_one();
    }

    /// Jobs queued or running.
    pub fn in_flight(&self) -> usize {
        self.tracker.in_flight()
    }

    /// Block until every submitted job (including jobs submitted by other
    /// jobs) has finished.
    pub fn wait_idle(&self) {
        self.tracker.wait_idle();
    }

    /// The pool's completion tracker (shared with
    /// [`Executor`](crate::executor::Executor)).
    pub fn tracker(&self) -> &CompletionTracker {
        &self.tracker
    }

    /// Bind this pool's always-on scheduler counters into `registry` under
    /// `{prefix}.steals` / `{prefix}.parks` / `{prefix}.wakeups`, the join
    /// counters `{prefix}.helped` (tasks a join ran inline) /
    /// `{prefix}.join_parks` (joins that found nothing runnable and slept),
    /// plus the live queue depth as the gauge `{prefix}.in_flight`. The
    /// scheduler keeps incrementing its own relaxed atomics; installation
    /// only names the cells, so an uninstalled pool pays nothing extra.
    pub fn install_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        let PoolStats { steals, parks, wakeups, helped, join_parks } = &self.core.stats;
        for (name, cell) in [
            ("steals", steals),
            ("parks", parks),
            ("wakeups", wakeups),
            ("helped", helped),
            ("join_parks", join_parks),
        ] {
            registry.bind_counter(&format!("{prefix}.{name}"), cell.clone());
        }
        registry.bind_gauge(&format!("{prefix}.in_flight"), self.tracker.in_flight_cell());
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.core.park_lock.lock();
            self.core.unpark.notify_all();
        }
        // Take the handles out before joining: joining while holding the
        // `workers` mutex would deadlock a concurrent `Debug`-format or
        // `size()` caller for the whole shutdown.
        let handles = std::mem::take(self.workers.get_mut());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("size", &self.size)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::FutureValue;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// A rendezvous for ordering proofs: a method body [`enter`](Gate::enter)s
    /// and stays inside until the test [`open`](Gate::open)s the gate, so "the
    /// call returned while its body is held" and "two bodies were inside at
    /// once" are states a test waits for, not durations it measures.
    #[derive(Clone, Default)]
    pub(crate) struct Gate(Arc<GateState>);

    #[derive(Default)]
    struct GateState {
        entered: AtomicUsize,
        open: AtomicBool,
    }

    impl Gate {
        pub(crate) fn enter(&self) {
            self.0.entered.fetch_add(1, Ordering::SeqCst);
            wait_until("the gate to open", || self.0.open.load(Ordering::SeqCst));
        }

        /// Bodies that have entered (none leaves before the gate opens).
        pub(crate) fn inside(&self) -> usize {
            self.0.entered.load(Ordering::SeqCst)
        }

        pub(crate) fn open(&self) {
            self.0.open.store(true, Ordering::SeqCst);
        }
    }

    impl weavepar_weave::ByteSize for Gate {
        fn byte_size(&self) -> usize {
            0
        }
    }

    #[test]
    fn runs_jobs() {
        let pool = ThreadPool::new(4, "steal");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = counter.clone();
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn size_is_clamped_to_one() {
        let pool = ThreadPool::new(0, "tiny");
        assert_eq!(pool.size(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        pool.spawn(move || {
            d.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn jobs_actually_run_in_parallel() {
        let pool = ThreadPool::new(4, "par");
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let (running, peak) = (running.clone(), peak.clone());
            pool.spawn(move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                // Stay inside until a second job is inside too.
                wait_until("two jobs to overlap", || peak.load(Ordering::SeqCst) >= 2);
                running.fetch_sub(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert!(peak.load(Ordering::SeqCst) >= 2, "no overlap observed");
    }

    #[test]
    fn nested_submission_is_tracked() {
        let pool = ThreadPool::new(4, "steal");
        let hits = Arc::new(AtomicUsize::new(0));
        let (p2, h2) = (pool.clone(), hits.clone());
        pool.spawn(move || {
            h2.fetch_add(1, Ordering::Relaxed);
            let h3 = h2.clone();
            p2.spawn(move || {
                h3.fetch_add(1, Ordering::Relaxed);
            });
        });
        pool.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn panicking_job_does_not_wedge_the_pool() {
        let pool = ThreadPool::new(1, "panicky");
        pool.spawn(|| panic!("boom"));
        let idle = pool.clone();
        watchdog("the pool after a panicking job", move || idle.wait_idle());
        // The single worker survived the panic and keeps serving jobs.
        let ok = Arc::new(AtomicUsize::new(0));
        let ok2 = ok.clone();
        pool.spawn(move || {
            ok2.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(2, "drop");
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let h = hits.clone();
            pool.spawn(move || {
                h.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(hits.load(Ordering::Relaxed), 10, "queued jobs drain before drop completes");
    }

    #[test]
    fn spawn_batch_runs_every_job() {
        let pool = ThreadPool::new(4, "steal");
        let counter = Arc::new(AtomicUsize::new(0));
        pool.spawn_batch((0..250).map(|_| {
            let c = counter.clone();
            move || {
                c.fetch_add(1, Ordering::Relaxed);
            }
        }));
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 250);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = ThreadPool::new(2, "empty");
        pool.spawn_batch(std::iter::empty::<fn()>());
        pool.wait_idle();
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn nested_spawns_seeded_on_one_worker_are_stolen() {
        // One externally submitted job fans out nested spawns; they all land
        // on that worker's local deque, so any parallelism proves stealing.
        let pool = ThreadPool::new(4, "thief");
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let p2 = pool.clone();
        let (r2, k2) = (running.clone(), peak.clone());
        pool.spawn(move || {
            for _ in 0..8 {
                let (r3, k3) = (r2.clone(), k2.clone());
                p2.spawn(move || {
                    let now = r3.fetch_add(1, Ordering::SeqCst) + 1;
                    k3.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    r3.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        pool.wait_idle();
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "idle peers must steal from the seeding worker's deque"
        );
    }

    /// Spin (yielding) until `cond` holds; a watchdog turns a hang into a
    /// failure. Waits for an observable state, never for an amount of time.
    pub(crate) fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(60), "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    /// Run `f` on its own thread and fail, instead of hanging the suite, if
    /// it does not finish.
    pub(crate) fn watchdog<R: Send + 'static>(
        what: &str,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(60)).unwrap_or_else(|_| panic!("{what}: hung"))
    }

    fn metered(size: usize) -> (Arc<ThreadPool>, MetricsRegistry) {
        let pool = ThreadPool::new(size, "metered");
        let reg = MetricsRegistry::new();
        pool.install_metrics(&reg, "pool");
        (pool, reg)
    }

    #[test]
    fn installed_metrics_expose_scheduler_events() {
        let (pool, reg) = metered(4);
        let count = |name: &str| reg.snapshot().counter(name).unwrap();
        // With nothing to do, workers park; a submission made while one is
        // parked issues a wakeup.
        wait_until("an idle worker to park", || count("pool.parks") >= 1);
        wait_until("a submission to wake a sleeper", || {
            pool.spawn(|| {});
            count("pool.wakeups") >= 1
        });
        // The fan-out job pushes nested jobs onto its own deque and then
        // holds its worker until one of them has run — which only a thief
        // can make happen.
        let (ran_tx, ran_rx) = std::sync::mpsc::channel();
        let p2 = pool.clone();
        pool.spawn(move || {
            for _ in 0..4 {
                let ran = ran_tx.clone();
                p2.spawn(move || ran.send(()).expect("fan-out job is listening"));
            }
            ran_rx.recv().expect("a nested job ran");
            // Later nested jobs may find the receiver gone; not our concern.
            drop(ran_rx);
        });
        pool.wait_idle();
        assert!(count("pool.steals") >= 1, "a peer stole: {:?}", reg.snapshot());
        assert_eq!(reg.snapshot().gauge("pool.in_flight"), Some(0), "idle pool has empty queue");
    }

    /// Sum `lo..hi` by binary fork/join on `pool`: both halves are spawned,
    /// then joined from the spawning worker.
    fn fork_join_sum(pool: &Arc<ThreadPool>, lo: u64, hi: u64) -> u64 {
        if hi - lo == 1 {
            return lo;
        }
        let mid = lo + (hi - lo) / 2;
        let halves = [(lo, mid), (mid, hi)].map(|(lo, hi)| {
            let future = FutureValue::new();
            let (setter, pool2) = (future.clone(), pool.clone());
            pool.spawn(move || {
                setter.fulfill(fork_join_sum(&pool2, lo, hi));
            });
            future
        });
        halves.iter().map(|f| f.take().unwrap()).sum()
    }

    #[test]
    fn nested_joins_deeper_than_the_pool_help_instead_of_deadlocking() {
        for size in [1, 2, 4] {
            let (helped, leaves) = watchdog("fork/join", move || {
                let (pool, reg) = metered(size);
                let root = FutureValue::new();
                let (setter, p2) = (root.clone(), pool.clone());
                // Depth 12: 4096 leaves, 8190 tasks below the root.
                pool.spawn(move || {
                    setter.fulfill(fork_join_sum(&p2, 0, 1 << 12));
                });
                let total = root.take().unwrap();
                pool.wait_idle();
                assert_eq!(pool.in_flight(), 0);
                (reg.snapshot().counter("pool.helped").unwrap(), total)
            });
            assert_eq!(leaves, (0..1u64 << 12).sum::<u64>(), "{size} workers");
            assert!(helped >= 1, "joins on a worker run queued tasks ({size} workers)");
            if size == 1 {
                assert_eq!(helped, 8190, "one worker: every task below the root runs inline");
            }
        }
    }

    #[test]
    fn joins_off_the_pool_block() {
        // From a non-worker thread: the plain blocking path.
        let (pool, reg) = metered(2);
        let futures: Vec<FutureValue<u64>> = (0..64).map(|_| FutureValue::new()).collect();
        for (i, f) in futures.iter().enumerate() {
            let setter = f.clone();
            pool.spawn(move || {
                setter.fulfill(i as u64);
            });
        }
        assert_eq!(futures.iter().map(|f| f.take().unwrap()).sum::<u64>(), 63 * 64 / 2);
        pool.wait_idle();
        assert_eq!(reg.snapshot().counter("pool.helped"), Some(0));
        assert_eq!(reg.snapshot().counter("pool.join_parks"), Some(0));
    }

    struct Guarded;

    weavepar_weave::weaveable! {
        class Guarded as GuardedProxy {
            fn new() -> Self { Guarded }
            fn touch(&mut self) {}
        }
    }

    #[test]
    fn a_thread_holding_a_monitor_does_not_help() {
        assert!(Joiner::current().is_none(), "not a pool worker");
        let pool = ThreadPool::new(1, "monitor");
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn(move || {
            let space = weavepar_weave::ObjectSpace::new();
            let id = space.insert(Guarded);
            let free = Joiner::current().is_some();
            let held = {
                let _monitor = space.monitor(id).unwrap();
                Joiner::current().is_some()
            };
            tx.send((free, held, Joiner::current().is_some())).unwrap();
        });
        assert_eq!(rx.recv().unwrap(), (true, false, true));
    }

    #[test]
    fn a_panicking_helped_task_spares_the_joining_frame_and_the_worker() {
        let alive = watchdog("panicking helped task", || {
            let (pool, reg) = metered(1);
            let (tx, rx) = std::sync::mpsc::channel();
            let p2 = pool.clone();
            pool.spawn(move || {
                let child = FutureValue::new();
                let setter = child.clone();
                p2.spawn(move || {
                    setter.fulfill(7u64);
                });
                p2.spawn(|| panic!("helped task blew up")); // youngest: helped first
                tx.send(child.take().unwrap()).unwrap();
            });
            assert_eq!(rx.recv().unwrap(), 7, "the joining frame outlived the panic");
            pool.wait_idle();
            assert_eq!(reg.snapshot().counter("pool.helped"), Some(2));
            // The worker is still serving.
            let after = FutureValue::new();
            let setter = after.clone();
            pool.spawn(move || {
                setter.fulfill(true);
            });
            let alive = after.take().unwrap();
            pool.wait_idle();
            assert_eq!(pool.in_flight(), 0);
            alive
        });
        assert!(alive);
    }

    #[test]
    fn a_helped_task_does_not_inherit_the_waiting_frames_batch_scope() {
        use crate::{BatchScope, Executor};
        watchdog("helped task under a batch scope", || {
            let executor = Executor::pool(1, "scoped");
            let Executor::Pool(pool) = executor.clone() else { unreachable!() };
            let (e2, e3) = (executor.clone(), executor.clone());
            let (tx, rx) = std::sync::mpsc::channel();
            executor.spawn(move || {
                // The waiting frame: joins inside its own open scope.
                let child = FutureValue::new();
                let setter = child.clone();
                e2.spawn(move || {
                    // Helped. Spawns and joins a grandchild: were the spawn
                    // deferred into the waiting frame's scope, this join
                    // would never return.
                    let grandchild = FutureValue::new();
                    let g = grandchild.clone();
                    let deferred = crate::scope_active();
                    e3.spawn(move || {
                        g.fulfill(1u64);
                    });
                    setter.fulfill((deferred, grandchild.take().unwrap()));
                });
                let scope = BatchScope::enter();
                let seen = child.take().unwrap();
                tx.send((seen, crate::scope_active())).unwrap();
                scope.flush();
            });
            assert_eq!(rx.recv().unwrap(), ((false, 1), true), "scope hidden, then restored");
            pool.wait_idle();
            assert_eq!(pool.in_flight(), 0);
        });
    }

    #[test]
    fn lifo_local_order_fifo_injector_order() {
        // Single worker: injector submissions run FIFO; nested spawns run
        // LIFO (most recent first). Observable only with one worker.
        let pool = ThreadPool::new(1, "order");
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let p2 = pool.clone();
        let o2 = order.clone();
        pool.spawn(move || {
            for i in 0..3 {
                let o3 = o2.clone();
                p2.spawn(move || o3.lock().push(i));
            }
        });
        pool.wait_idle();
        assert_eq!(*order.lock(), vec![2, 1, 0], "nested spawns pop LIFO");
    }
}
