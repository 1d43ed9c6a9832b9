//! Pack-granular submission: defer [`Executor::spawn`]s and flush them as one
//! batch.
//!
//! The skeleton layer submits one asynchronous invocation per pack, but each
//! of those goes through a woven advice chain that ends in an
//! `executor.spawn(...)` — per-task queue traffic the submitter cannot batch
//! from the outside. A [`BatchScope`] fixes that at the executor boundary:
//! while a scope is active on the current thread, `Executor::spawn` buffers
//! the job instead of submitting it, and [`BatchScope::flush`] (or dropping
//! the scope) hands the whole buffer to [`Executor::spawn_batch`] — one
//! tracker increment, one queue lock, one wakeup per pack.
//!
//! Scopes nest with stack discipline: an inner scope only defers (and only
//! flushes) spawns made after it was entered, so a divide-and-conquer advice
//! running inside a farm's scope batches its own sub-problems independently.
//!
//! **Callers must flush before blocking on any result of a deferred spawn**
//! (the skeletons flush between submitting their packs and resolving the
//! returned futures); the RAII flush-on-drop exists so an error path cannot
//! strand buffered work, not as the primary API.
//!
//! A scope belongs to the frame that opened it, not to the thread: a task a
//! pool worker *helps* while one of its frames waits on a join (see
//! [`pool`](crate::pool), "Joins") runs with the enclosing scopes hidden
//! (`set_aside`), so its spawns are submitted at once, as on a fresh worker.

use std::cell::{Cell, RefCell};

use crate::executor::Executor;

type Job = Box<dyn FnOnce() + Send + 'static>;
type FlushHook = Box<dyn FnOnce()>;

/// This thread's open scopes and what they have deferred.
#[derive(Default)]
struct Scopes {
    /// Depth of nested scopes; `Executor::spawn` defers only when > 0.
    depth: Cell<usize>,
    /// Jobs deferred on this thread, tagged with their destination executor.
    deferred: RefCell<Vec<(Executor, Job)>>,
    /// Hooks to run when the innermost owning scope flushes (message
    /// packing registers one per destination node to ship its pack with the
    /// batch).
    hooks: RefCell<Vec<FlushHook>>,
}

thread_local! {
    // Not in the weaving context, which lives a crate below and cannot name
    // an `Executor`; [`set_aside`] hides these scopes together with it.
    static SCOPES: Scopes = Scopes::default();
}

/// Is a [`BatchScope`] active on the current thread?
pub fn scope_active() -> bool {
    SCOPES.with(|s| s.depth.get()) > 0
}

/// Run `hook` when the innermost active scope on this thread flushes (after
/// its deferred jobs are submitted). Without an active scope the hook runs
/// immediately — callers can register unconditionally.
pub fn on_scope_flush(hook: impl FnOnce() + 'static) {
    if scope_active() {
        SCOPES.with(|s| s.hooks.borrow_mut().push(Box::new(hook)));
    } else {
        hook();
    }
}

/// Buffer a job if a batch scope is active on this thread. Returns the job
/// back when no scope is active (the caller submits it directly).
pub(crate) fn defer(executor: &Executor, job: Job) -> Option<Job> {
    SCOPES.with(|s| {
        if s.depth.get() == 0 {
            return Some(job);
        }
        s.deferred.borrow_mut().push((executor.clone(), job));
        None
    })
}

/// What [`set_aside`] lifted off the thread, put back when dropped.
#[doc(hidden)]
pub struct SetAside {
    depth: usize,
    _context: weavepar_weave::context::SetAside,
}

/// Give the work about to run on this thread a fresh worker's view of it: the
/// weaving context is lifted off (`weavepar_weave::context::set_aside`) and
/// the enclosing scopes are hidden, so its spawns are submitted at once — it
/// may well block on them before the waiting frame's scope flushes. The
/// buffers stay put: scopes own them by offset, and nothing is added at depth
/// 0. A joining pool worker does this around a task it helps, the middleware
/// around a remote call it serves on the caller's thread.
#[doc(hidden)]
pub fn set_aside() -> SetAside {
    SetAside {
        depth: SCOPES.with(|s| s.depth.replace(0)),
        _context: weavepar_weave::context::set_aside(),
    }
}

impl Drop for SetAside {
    fn drop(&mut self) {
        SCOPES.with(|s| s.depth.set(self.depth));
    }
}

/// RAII marker making [`Executor::spawn`] on this thread buffer jobs until
/// [`flush`](BatchScope::flush) — see the module docs.
pub struct BatchScope {
    /// Buffer length at entry: this scope owns everything past it.
    start: usize,
    /// Hook-list length at entry, same ownership rule.
    hooks_start: usize,
    flushed: bool,
}

impl BatchScope {
    /// Start deferring `Executor::spawn`s on the current thread.
    pub fn enter() -> BatchScope {
        SCOPES.with(|s| {
            s.depth.set(s.depth.get() + 1);
            BatchScope {
                start: s.deferred.borrow().len(),
                hooks_start: s.hooks.borrow().len(),
                flushed: false,
            }
        })
    }

    /// Submit everything deferred under this scope, grouping consecutive
    /// jobs bound for the same executor into one `spawn_batch`.
    pub fn flush(mut self) {
        self.flush_inner();
    }

    fn flush_inner(&mut self) {
        if self.flushed {
            return;
        }
        self.flushed = true;
        let drained: Vec<(Executor, Job)> = SCOPES.with(|s| {
            s.depth.set(s.depth.get() - 1);
            s.deferred.borrow_mut().split_off(self.start)
        });
        let mut drained = drained.into_iter().peekable();
        while let Some((executor, job)) = drained.next() {
            let mut group = vec![job];
            while drained.peek().is_some_and(|(e, _)| e.same_as(&executor)) {
                group.push(drained.next().expect("peeked").1);
            }
            executor.spawn_batch_boxed(group);
        }
        let hooks: Vec<FlushHook> =
            SCOPES.with(|s| s.hooks.borrow_mut().split_off(self.hooks_start));
        for hook in hooks {
            hook();
        }
    }
}

impl Drop for BatchScope {
    fn drop(&mut self) {
        self.flush_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn spawns_are_deferred_until_flush() {
        let executor = Executor::pool(2, "defer");
        let hits = Arc::new(AtomicUsize::new(0));
        let scope = BatchScope::enter();
        for _ in 0..10 {
            let h = hits.clone();
            executor.spawn(move || {
                h.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Nothing registered yet: the jobs sit in the thread-local buffer.
        assert_eq!(executor.tracker().in_flight(), 0);
        scope.flush();
        executor.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn drop_flushes_stranded_work() {
        let executor = Executor::pool(1, "strand");
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let _scope = BatchScope::enter();
            let h = hits.clone();
            executor.spawn(move || {
                h.fetch_add(1, Ordering::Relaxed);
            });
            // Early exit (as on an error path): the scope drops unflushed.
        }
        executor.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_scopes_flush_their_own_spawns_only() {
        let executor = Executor::pool(2, "nest");
        let hits = Arc::new(AtomicUsize::new(0));
        let outer = BatchScope::enter();
        let h = hits.clone();
        executor.spawn(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        {
            let inner = BatchScope::enter();
            let h = hits.clone();
            executor.spawn(move || {
                h.fetch_add(10, Ordering::Relaxed);
            });
            inner.flush();
            executor.wait_idle();
            // Only the inner spawn ran; the outer one is still buffered.
            assert_eq!(hits.load(Ordering::Relaxed), 10);
        }
        outer.flush();
        executor.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn flush_hooks_run_after_scope_jobs_or_immediately() {
        // No scope: the hook runs on the spot.
        let ran = Arc::new(AtomicUsize::new(0));
        let r = ran.clone();
        assert!(!scope_active());
        on_scope_flush(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);

        // Active scope: the hook runs at flush, after the deferred jobs are
        // submitted.
        let executor = Executor::pool(1, "hook");
        let hits = Arc::new(AtomicUsize::new(0));
        let scope = BatchScope::enter();
        assert!(scope_active());
        let h = hits.clone();
        executor.spawn(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let r = ran.clone();
        on_scope_flush(move || {
            r.fetch_add(10, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1, "hook deferred while scope is active");
        scope.flush();
        assert_eq!(ran.load(Ordering::Relaxed), 11);
        executor.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn mixed_executors_group_consecutively() {
        let a = Executor::pool(1, "mix-a");
        let b = Executor::thread_per_call();
        let hits = Arc::new(AtomicUsize::new(0));
        let scope = BatchScope::enter();
        for i in 0..6 {
            let h = hits.clone();
            let job = move || {
                h.fetch_add(1, Ordering::Relaxed);
            };
            if i % 2 == 0 {
                a.spawn(job);
            } else {
                b.spawn(job);
            }
        }
        scope.flush();
        a.wait_idle();
        b.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 6);
    }
}
