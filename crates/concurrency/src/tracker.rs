//! Quiescence detection for asynchronous invocations.
//!
//! Asynchronous method calls return before the work is done, so clients (and
//! tests, and the benchmark harness) need a way to wait for *all* outstanding
//! work — including work transitively spawned by other asynchronous work.
//! A [`CompletionTracker`] counts in-flight tasks; [`CompletionTracker::wait_idle`]
//! blocks until the count reaches zero.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Counts in-flight tasks and lets callers block until none remain.
///
/// Cloning shares the counter. Registering and finishing a task is a single
/// atomic op — the asynchronous-invocation aspect calls `begin` once per
/// woven call, so the common path must not serialise spawners on a lock.
/// The mutex exists only to park waiters in `wait_idle`.
#[derive(Clone)]
pub struct CompletionTracker {
    inner: Arc<Inner>,
}

struct Inner {
    /// In its own `Arc` so a metrics registry can bind the live count as a
    /// queue-depth gauge without the tracker updating anything twice.
    count: Arc<AtomicU64>,
    idle_lock: Mutex<()>,
    cv: Condvar,
}

/// RAII token for one in-flight task; dropping it marks the task finished.
pub struct TaskToken {
    inner: Arc<Inner>,
}

impl Drop for TaskToken {
    fn drop(&mut self) {
        // Release pairs with the Acquire load in `wait_idle`: a waiter woken
        // by the count reaching zero also sees the task's side effects.
        if self.inner.count.fetch_sub(1, Ordering::Release) == 1 {
            // Take the waiters' lock before notifying so a waiter cannot slip
            // between its count check and `cv.wait` and miss this wakeup.
            let _guard = self.inner.idle_lock.lock();
            self.inner.cv.notify_all();
        }
    }
}

impl CompletionTracker {
    /// A tracker with nothing in flight.
    pub fn new() -> Self {
        CompletionTracker {
            inner: Arc::new(Inner {
                count: Arc::new(AtomicU64::new(0)),
                idle_lock: Mutex::new(()),
                cv: Condvar::new(),
            }),
        }
    }

    /// Register one in-flight task. The returned token must travel with the
    /// task and be dropped when it finishes (a panic unwinding through the
    /// task still drops it, so a crashing task cannot wedge `wait_idle`).
    pub fn begin(&self) -> TaskToken {
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        TaskToken { inner: self.inner.clone() }
    }

    /// Register `n` in-flight tasks with a single counter increment — the
    /// batch-submission path (`spawn_batch`) registers a whole pack of tasks
    /// without `n` round-trips on the shared counter's cache line. Each
    /// returned token behaves exactly like one from [`begin`](Self::begin).
    pub fn begin_many(&self, n: usize) -> Vec<TaskToken> {
        if n == 0 {
            return Vec::new();
        }
        self.inner.count.fetch_add(n as u64, Ordering::Relaxed);
        (0..n).map(|_| TaskToken { inner: self.inner.clone() }).collect()
    }

    /// True when `other` shares this tracker's counter (clone identity).
    pub fn same_as(&self, other: &CompletionTracker) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Number of tasks currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inner.count.load(Ordering::Acquire) as usize
    }

    /// The live in-flight count cell, for binding as a queue-depth gauge in
    /// a metrics registry. Read-only use expected.
    pub fn in_flight_cell(&self) -> Arc<AtomicU64> {
        self.inner.count.clone()
    }

    /// Block until no task is in flight.
    pub fn wait_idle(&self) {
        let mut guard = self.inner.idle_lock.lock();
        while self.inner.count.load(Ordering::Acquire) > 0 {
            self.inner.cv.wait(&mut guard);
        }
    }
}

impl Default for CompletionTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CompletionTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionTracker").field("in_flight", &self.in_flight()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::tests::watchdog;
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn starts_idle() {
        let t = CompletionTracker::new();
        assert_eq!(t.in_flight(), 0);
        t.wait_idle(); // must not block
    }

    #[test]
    fn token_lifecycle() {
        let t = CompletionTracker::new();
        let tok = t.begin();
        assert_eq!(t.in_flight(), 1);
        drop(tok);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn begin_many_mints_independent_tokens() {
        let t = CompletionTracker::new();
        let tokens = t.begin_many(5);
        assert_eq!(t.in_flight(), 5);
        for tok in tokens {
            drop(tok);
        }
        assert_eq!(t.in_flight(), 0);
        assert!(t.begin_many(0).is_empty());
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn wait_idle_blocks_until_tokens_dropped() {
        let t = CompletionTracker::new();
        let tok = t.begin();
        let t2 = t.clone();
        let waiter = thread::spawn(move || {
            t2.wait_idle();
            Instant::now()
        });
        thread::sleep(Duration::from_millis(40));
        let released_at = Instant::now();
        drop(tok);
        let woke_at = waiter.join().unwrap();
        assert!(woke_at >= released_at);
    }

    #[test]
    fn nested_spawns_are_covered() {
        let t = CompletionTracker::new();
        let outer = t.begin();
        let t2 = t.clone();
        thread::spawn(move || {
            let _outer = outer; // finishes only after inner is registered
            let inner = t2.begin();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(30));
                drop(inner);
            });
        });
        t.wait_idle();
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn timeout_reports_busy() {
        // Busy while a token lives; once it is dropped `wait_idle` returns,
        // and the watchdog fails the test if it does not.
        let t = CompletionTracker::new();
        let tok = t.begin();
        assert_eq!(t.in_flight(), 1);
        drop(tok);
        watchdog("an idle tracker", move || t.wait_idle());
    }

    #[test]
    fn panic_in_task_still_releases() {
        let t = CompletionTracker::new();
        let tok = t.begin();
        let handle = thread::spawn(move || {
            let _tok = tok;
            panic!("task crashed");
        });
        assert!(handle.join().is_err());
        watchdog("the tracker after a panicking task", move || t.wait_idle());
    }
}
