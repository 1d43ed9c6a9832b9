//! Execution policies for asynchronous invocations.
//!
//! The concurrency aspect decides *that* a call runs asynchronously; the
//! [`Executor`] decides *how*: a fresh thread per call (the paper's
//! Figure 12) or a shared work-stealing [`ThreadPool`] (the §4.4 thread-pool
//! optimisation). Swapping one for the other is a one-line change — or, at
//! the aspect level, the plugging of a different optimisation module.
//!
//! [`Executor::spawn`] cooperates with [`BatchScope`](crate::BatchScope):
//! while a scope is active on the calling thread, spawns are buffered and
//! later submitted through [`Executor::spawn_batch`], which registers and
//! enqueues a whole pack of tasks at once; and with
//! [`continue_here`](crate::continue_here), whose first spawn does not leave
//! the thread.

use std::sync::Arc;

use crate::pool::ThreadPool;
use crate::tracker::CompletionTracker;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// How asynchronous work is executed.
#[derive(Clone, Debug)]
pub enum Executor {
    /// Spawn a dedicated OS thread per call.
    ThreadPerCall(CompletionTracker),
    /// Run on a shared fixed-size pool.
    Pool(Arc<ThreadPool>),
}

impl Executor {
    /// Thread-per-call executor with a fresh tracker.
    pub fn thread_per_call() -> Self {
        Executor::ThreadPerCall(CompletionTracker::new())
    }

    /// Pooled executor with `size` workers (work-stealing scheduler).
    pub fn pool(size: usize, name: &str) -> Self {
        Executor::Pool(ThreadPool::new(size, name))
    }

    /// Run `f` asynchronously under this policy. Inside an active
    /// [`BatchScope`](crate::BatchScope) on this thread, the job is buffered
    /// and submitted at the scope's flush instead; as the first spawn under
    /// [`continue_here`](crate::continue_here), it runs here and now.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        if let Some(job) = crate::batch::defer(self, Box::new(f)) {
            self.spawn_boxed(job);
        }
    }

    fn spawn_boxed(&self, job: Job) {
        match self {
            Executor::ThreadPerCall(tracker) => {
                let token = tracker.begin();
                std::thread::spawn(move || {
                    let _token = token;
                    job();
                });
            }
            Executor::Pool(pool) => pool.spawn(job),
        }
    }

    /// Run a whole pack of jobs asynchronously: tracker registration and (on
    /// a pooled executor) queue submission happen once for the entire batch.
    pub fn spawn_batch<I>(&self, jobs: I)
    where
        I: IntoIterator,
        I::Item: FnOnce() + Send + 'static,
    {
        self.spawn_batch_boxed(jobs.into_iter().map(|j| Box::new(j) as Job).collect());
    }

    pub(crate) fn spawn_batch_boxed(&self, jobs: Vec<Job>) {
        match self {
            Executor::ThreadPerCall(tracker) => {
                let tokens = tracker.begin_many(jobs.len());
                for (token, job) in tokens.into_iter().zip(jobs) {
                    std::thread::spawn(move || {
                        let _token = token;
                        job();
                    });
                }
            }
            Executor::Pool(pool) => pool.spawn_batch_boxed(jobs),
        }
    }

    /// Bind this executor's scheduler counters and queue depth into
    /// `registry` under `prefix` (see
    /// [`ThreadPool::install_metrics`](crate::pool::ThreadPool::install_metrics)).
    /// The thread-per-call executor has no scheduler, so only the
    /// `{prefix}.in_flight` gauge is bound.
    pub fn install_metrics(&self, registry: &weavepar_weave::MetricsRegistry, prefix: &str) {
        match self {
            Executor::ThreadPerCall(tracker) => {
                registry.bind_gauge(&format!("{prefix}.in_flight"), tracker.in_flight_cell());
            }
            Executor::Pool(pool) => pool.install_metrics(registry, prefix),
        }
    }

    /// True when `other` is a clone of this executor (same tracker/pool).
    pub fn same_as(&self, other: &Executor) -> bool {
        match (self, other) {
            (Executor::ThreadPerCall(a), Executor::ThreadPerCall(b)) => a.same_as(b),
            (Executor::Pool(a), Executor::Pool(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Block until all work spawned through this executor has finished.
    pub fn wait_idle(&self) {
        match self {
            Executor::ThreadPerCall(tracker) => tracker.wait_idle(),
            Executor::Pool(pool) => pool.wait_idle(),
        }
    }

    /// The tracker covering this executor's in-flight work.
    pub fn tracker(&self) -> &CompletionTracker {
        match self {
            Executor::ThreadPerCall(tracker) => tracker,
            Executor::Pool(pool) => pool.tracker(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn exercise(executor: &Executor) {
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let h = hits.clone();
            executor.spawn(move || {
                h.fetch_add(1, Ordering::Relaxed);
            });
        }
        executor.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 50);
        assert_eq!(executor.tracker().in_flight(), 0);
    }

    #[test]
    fn thread_per_call_executes_everything() {
        exercise(&Executor::thread_per_call());
    }

    #[test]
    fn pool_executes_everything() {
        exercise(&Executor::pool(3, "exec-test"));
    }

    #[test]
    fn spawn_batch_executes_everything() {
        for executor in [Executor::thread_per_call(), Executor::pool(3, "exec-batch")] {
            let hits = Arc::new(AtomicUsize::new(0));
            executor.spawn_batch((0..64).map(|_| {
                let h = hits.clone();
                move || {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            }));
            executor.wait_idle();
            assert_eq!(hits.load(Ordering::Relaxed), 64);
            assert_eq!(executor.tracker().in_flight(), 0);
        }
    }

    #[test]
    fn clones_share_the_tracker() {
        let e = Executor::thread_per_call();
        let e2 = e.clone();
        assert!(e.same_as(&e2));
        assert!(!e.same_as(&Executor::thread_per_call()));
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        e2.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            h.fetch_add(1, Ordering::Relaxed);
        });
        e.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }
}
