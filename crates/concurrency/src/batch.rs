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
//!
//! The same boundary also lets a spawn *not* leave the thread.
//! [`continue_here`] marks the next `Executor::spawn` on this thread as the
//! continuation of the work that is finishing: that job runs inline, before
//! the spawn returns, ahead of any open scope. A pipeline's hop to its next
//! stage is such a spawn — its own asynchronous invocation, continued on the
//! thread that finished the previous stage instead of on a fresh one. Running
//! a job where it was spawned cannot deadlock where deferring it could: the
//! spawner waits on nothing until the job has run.

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
    /// Set by [`continue_here`]: the next spawn runs inline, and clears it.
    tail: Cell<bool>,
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

/// Run `call`, and run the job of the first [`Executor::spawn`] it makes on
/// this thread right here, inside that spawn, instead of submitting or
/// deferring it (see the module docs). Later spawns are submitted as usual,
/// and nothing carries past `call`'s return, whether it spawned or not. The
/// first spawn is whichever `call` reaches first: a pipeline hop that no
/// asynchronous invocation detaches runs the next stage's body in `call`, and
/// a spawn that body makes is the one that runs inline.
pub fn continue_here<R>(call: impl FnOnce() -> R) -> R {
    /// Clears the mark on every way out of `call`, unwinding included.
    struct Cleared;
    impl Drop for Cleared {
        fn drop(&mut self) {
            SCOPES.with(|s| s.tail.set(false));
        }
    }
    SCOPES.with(|s| s.tail.set(true));
    let _cleared = Cleared;
    call()
}

/// Run a job [`continue_here`] marked, or buffer it if a batch scope is
/// active on this thread. Returns the job back otherwise (the caller submits
/// it directly).
pub(crate) fn defer(executor: &Executor, job: Job) -> Option<Job> {
    SCOPES.with(|s| {
        if s.tail.replace(false) {
            job();
            return None;
        }
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
    tail: bool,
    _context: weavepar_weave::context::SetAside,
}

/// Give the work about to run on this thread a fresh worker's view of it: the
/// weaving context is lifted off (`weavepar_weave::context::set_aside`) and
/// the enclosing scopes are hidden, so its spawns are submitted at once — it
/// may well block on them before the waiting frame's scope flushes. A
/// [`continue_here`] mark is lifted with them: it belongs to the waiting
/// frame. The buffers stay put: scopes own them by offset, and nothing is
/// added at depth 0. A joining pool worker does this around a task it helps,
/// the middleware around a remote call it serves on the caller's thread.
#[doc(hidden)]
pub fn set_aside() -> SetAside {
    let (depth, tail) = SCOPES.with(|s| (s.depth.replace(0), s.tail.replace(false)));
    SetAside { depth, tail, _context: weavepar_weave::context::set_aside() }
}

impl Drop for SetAside {
    fn drop(&mut self) {
        SCOPES.with(|s| {
            s.depth.set(self.depth);
            s.tail.set(self.tail);
        });
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

    /// A job that records the thread it ran on into `ran`.
    fn record(ran: &Arc<parking_lot::Mutex<Vec<std::thread::ThreadId>>>) -> impl FnOnce() + Send {
        let ran = ran.clone();
        move || ran.lock().push(std::thread::current().id())
    }

    #[test]
    fn only_the_first_spawn_under_continue_here_runs_inline() {
        for executor in [Executor::thread_per_call(), Executor::pool(1, "tail")] {
            let ran = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let here = std::thread::current().id();
            continue_here(|| {
                executor.spawn(record(&ran));
                // Already run, on this thread, before the spawn returned.
                assert_eq!(*ran.lock(), [here]);
                executor.spawn(record(&ran));
            });
            executor.wait_idle();
            let ran = ran.lock();
            assert_eq!(ran.len(), 2);
            assert_ne!(ran[1], here, "the second spawn was submitted");
        }
    }

    #[test]
    fn continue_here_leaves_nothing_behind_when_nothing_spawned() {
        let executor = Executor::pool(1, "tail-unused");
        assert_eq!(continue_here(|| 7), 7);
        let ran = Arc::new(parking_lot::Mutex::new(Vec::new()));
        executor.spawn(record(&ran));
        executor.wait_idle();
        assert_ne!(ran.lock()[0], std::thread::current().id(), "a later spawn ran inline");
        // Nor when the closure unwinds.
        let unwound = std::panic::catch_unwind(|| continue_here(|| panic!("before any spawn")));
        assert!(unwound.is_err());
        executor.spawn(record(&ran));
        executor.wait_idle();
        assert_ne!(ran.lock()[1], std::thread::current().id(), "a later spawn ran inline");
    }

    #[test]
    fn a_spawn_inside_set_aside_is_submitted_not_inlined() {
        let executor = Executor::pool(1, "tail-aside");
        let ran = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let here = std::thread::current().id();
        continue_here(|| {
            {
                // A helped task: the mark belongs to the frame beneath it.
                let _fresh = set_aside();
                executor.spawn(record(&ran));
                executor.wait_idle();
                assert_ne!(ran.lock()[0], here, "the helped task's spawn ran inline");
            }
            // Back in the marked frame, the mark is still there.
            executor.spawn(record(&ran));
            assert_eq!(ran.lock()[1], here);
        });
    }

    #[test]
    fn inside_a_scope_the_tail_job_runs_inline_and_the_others_are_deferred() {
        let executor = Executor::pool(2, "tail-scope");
        let ran = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let here = std::thread::current().id();
        let scope = BatchScope::enter();
        executor.spawn(record(&ran));
        continue_here(|| executor.spawn(record(&ran)));
        executor.spawn(record(&ran));
        assert_eq!(*ran.lock(), [here], "only the tail job has run");
        assert_eq!(executor.tracker().in_flight(), 0, "the other two are still deferred");
        scope.flush();
        executor.wait_idle();
        assert_eq!(ran.lock().len(), 3);
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
