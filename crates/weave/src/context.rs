//! The per-thread weaving context.
//!
//! The paper's pointcuts distinguish *where a call comes from*: the split
//! advice of the Partition aspect applies only to calls made by core
//! functionality, while the forward advice also applies (recursively) to calls
//! the aspect itself makes (Figure 7, block 3). AspectJ gets this from
//! `within(..)`; we reproduce it with a thread-local provenance frame that the
//! runtime replaces around base-method execution and around advice execution.
//!
//! That frame is one field of `Context`, the single value holding everything
//! the runtime knows per thread about the join point in flight. Every field
//! is a `Copy` value in a `Cell`, so the value has no destructor: running
//! unrelated work on a thread ([`set_aside`]) and carrying a join point to
//! another thread (a [`Detached`](crate::invocation::Detached) chain) both
//! copy and swap the whole value, and neither allocates.

use std::cell::Cell;

use crate::aspect::AspectId;
use crate::trace::TaskId;

/// Who issued the call currently being woven.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Top-level application code or a core-functionality method body.
    #[default]
    Core,
    /// Code executing inside an advice body of the given aspect.
    Aspect(AspectId),
}

/// What a thread knows about the join point it is executing. Every field is
/// a `Cell` of a `Copy` value, so advice may re-enter freely and no access
/// borrows. A new field is carried by [`Context::swap`] or the crate does not
/// compile, and [`CurrentContext::capture`] takes every field across threads.
#[derive(Debug, Clone)]
pub(crate) struct Context {
    /// The innermost provenance frame and how many frames are open. The
    /// frames beneath it live in their guards: each holds the value it
    /// replaced.
    pub(crate) frame: Cell<(Provenance, usize)>,
    /// The recorded task whose base method body is executing, if any; an
    /// outer one lives in the [`TaskGuard`](crate::trace::TaskGuard) that
    /// masked it.
    pub(crate) task: Cell<Option<TaskId>>,
    /// Data-dependency marker, tagged with the recorder id it belongs to so a
    /// stale marker from an earlier recording session (or a reused pool
    /// thread) is never mistaken for an edge in the current trace.
    pub(crate) data_dep: Cell<Option<(u64, TaskId)>>,
}

impl Context {
    /// A fresh thread's context: `Core` with no frame open, no task, no marker.
    const fn new() -> Self {
        Context {
            frame: Cell::new((Provenance::Core, 0)),
            task: Cell::new(None),
            data_dep: Cell::new(None),
        }
    }

    fn swap(&self, other: &Context) {
        let Context { frame, task, data_dep } = self;
        frame.swap(&other.frame);
        task.swap(&other.task);
        data_dep.swap(&other.data_dep);
    }
}

// Every access to a `const`-initialised thread-local without a destructor
// skips the lazy-registration check, and the context is read on every join
// point. A new field keeps it that way by being `Copy`, as the three are.
const _: () = assert!(!std::mem::needs_drop::<Context>());

thread_local! {
    static CONTEXT: Context = const { Context::new() };
}

/// This thread's context (runtime use; `f` must not run advice).
pub(crate) fn with<R>(f: impl FnOnce(&Context) -> R) -> R {
    CONTEXT.with(f)
}

/// The thread's own weaving context, lifted off the thread until dropped.
///
/// A pool worker that *helps* while it waits on a join (see
/// `weavepar_concurrency::pool`) runs an unrelated task on top of the waiting
/// frame. That task must see what it would see on a fresh worker — empty
/// provenance frame, no current trace task — and the waiting frame must find
/// its own context intact afterwards.
pub struct SetAside(Context);

/// Lift the current thread's weaving context off the thread; dropping the
/// returned value puts it back (discarding whatever was left in between).
pub fn set_aside() -> SetAside {
    CurrentContext(Context::new()).install()
}

impl Drop for SetAside {
    fn drop(&mut self) {
        with(|c| c.swap(&self.0));
    }
}

/// The provenance of the code currently executing on this thread.
///
/// Defaults to [`Provenance::Core`] when nothing has been pushed — top-level
/// application code *is* core functionality.
pub fn current() -> Provenance {
    with(|c| c.frame.get().0)
}

/// Number of open provenance frames (used in tests and diagnostics).
pub fn depth() -> usize {
    with(|c| c.frame.get().1)
}

/// RAII guard that restores the previous provenance when dropped.
pub struct ProvenanceGuard {
    replaced: Option<(Provenance, usize)>,
}

impl Drop for ProvenanceGuard {
    fn drop(&mut self) {
        if let Some(frame) = self.replaced {
            with(|c| c.frame.set(frame));
        }
    }
}

/// Push a provenance frame for the duration of the returned guard.
///
/// Pushing `Core` while the current provenance is already `Core` (including
/// with no frame open, where the default is `Core`) is elided: `current()`
/// cannot observe the difference, and base-method dispatch pushes exactly
/// this frame on every unwoven call.
pub fn push(p: Provenance) -> ProvenanceGuard {
    with(|c| {
        let (top, depth) = c.frame.get();
        if p == Provenance::Core && top == Provenance::Core {
            ProvenanceGuard { replaced: None }
        } else {
            c.frame.set((p, depth + 1));
            ProvenanceGuard { replaced: Some((top, depth)) }
        }
    })
}

/// A thread's weaving context as a value: what
/// [`Detached`](crate::invocation::Detached) takes along so that provenance
/// and the trace's causal parent survive the thread hop. A copy: capturing
/// and installing it allocate nothing.
#[derive(Debug, Clone)]
pub(crate) struct CurrentContext(Context);

impl CurrentContext {
    /// Capture the current thread's weaving context, all of it.
    pub(crate) fn capture() -> Self {
        CurrentContext(with(Context::clone))
    }

    /// Make the captured context the current thread's until the guard drops;
    /// the thread's own is set aside meanwhile, as by [`set_aside`].
    pub(crate) fn install(self) -> SetAside {
        with(|c| c.swap(&self.0));
        SetAside(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_core() {
        assert_eq!(current(), Provenance::Core);
        assert_eq!(depth(), 0);
    }

    #[test]
    fn push_pop_nesting() {
        assert_eq!(current(), Provenance::Core);
        {
            let _g1 = push(Provenance::Aspect(AspectId::from_raw(1)));
            assert_eq!(current(), Provenance::Aspect(AspectId::from_raw(1)));
            {
                let _g2 = push(Provenance::Core);
                assert_eq!(current(), Provenance::Core);
                assert_eq!(depth(), 2);
            }
            assert_eq!(current(), Provenance::Aspect(AspectId::from_raw(1)));
        }
        assert_eq!(current(), Provenance::Core);
        assert_eq!(depth(), 0);
    }

    #[test]
    fn contexts_are_per_thread() {
        let _g = push(Provenance::Aspect(AspectId::from_raw(9)));
        let other = std::thread::spawn(current).join().unwrap();
        assert_eq!(other, Provenance::Core);
        assert_eq!(current(), Provenance::Aspect(AspectId::from_raw(9)));
    }

    #[test]
    fn set_aside_hides_and_restores_the_whole_context() {
        let _p = push(Provenance::Aspect(AspectId::from_raw(4)));
        let _t = crate::trace::push_task(Some(TaskId::from_raw(7)));
        {
            let _clean = set_aside();
            assert_eq!((current(), depth()), (Provenance::Core, 0));
            assert_eq!(crate::trace::current_task(), None);
            // Whatever the helped task leaves behind is discarded.
            std::mem::forget(crate::trace::push_task(Some(TaskId::from_raw(8))));
        }
        assert_eq!(current(), Provenance::Aspect(AspectId::from_raw(4)));
        assert_eq!(crate::trace::current_task(), Some(TaskId::from_raw(7)));
    }

    #[test]
    fn set_aside_inside_nested_frames_restores_current_and_depth_exactly() {
        let (a, b) = (AspectId::from_raw(1), AspectId::from_raw(2));
        let _advice = push(Provenance::Aspect(a));
        let _base = push(Provenance::Core);
        let _nested_advice = push(Provenance::Aspect(b));
        assert_eq!((current(), depth()), (Provenance::Aspect(b), 3));
        {
            let _clean = set_aside();
            assert_eq!((current(), depth()), (Provenance::Core, 0));
            // The elided `Core` on `Core` push stays elided on the clean slate.
            let _elided = push(Provenance::Core);
            assert_eq!(depth(), 0);
            let _helped = push(Provenance::Aspect(a));
            assert_eq!((current(), depth()), (Provenance::Aspect(a), 1));
            // A frame the helped task leaks is discarded with the rest.
            std::mem::forget(push(Provenance::Aspect(b)));
        }
        assert_eq!((current(), depth()), (Provenance::Aspect(b), 3));
        drop(_nested_advice);
        assert_eq!((current(), depth()), (Provenance::Core, 2));
        drop(_base);
        assert_eq!((current(), depth()), (Provenance::Aspect(a), 1));
    }

    #[test]
    fn a_panic_unwinding_through_three_frames_leaves_depth_zero() {
        let unwound = std::panic::catch_unwind(|| {
            let _advice = push(Provenance::Aspect(AspectId::from_raw(1)));
            let _base = push(Provenance::Core);
            let _nested = push(Provenance::Aspect(AspectId::from_raw(2)));
            assert_eq!(depth(), 3);
            panic!("advice body failed");
        });
        assert!(unwound.is_err());
        assert_eq!((current(), depth()), (Provenance::Core, 0));
    }

    /// The context, field by field. Exhaustive on purpose: whoever adds a
    /// field has to say below what `set_aside` and `capture` do with it.
    #[allow(clippy::type_complexity)]
    fn fields() -> ((Provenance, usize), Option<TaskId>, Option<(u64, TaskId)>) {
        let Context { frame, task, data_dep } = with(Context::clone);
        (frame.get(), task.get(), data_dep.get())
    }

    #[test]
    fn every_field_is_set_aside_and_crosses_threads() {
        let task = TaskId::from_raw(9);
        let frame = (Provenance::Aspect(AspectId::from_raw(5)), 1);
        let _p = push(frame.0);
        let _t = crate::trace::push_task(Some(task));
        crate::trace::note_completion(3, task);
        let mine = (frame, Some(task), Some((3, task)));
        assert_eq!(fields(), mine);
        {
            let _clean = set_aside();
            assert_eq!(fields(), ((Provenance::Core, 0), None, None));
        }
        assert_eq!(fields(), mine);

        let captured = CurrentContext::capture();
        assert_eq!(fields(), mine, "capturing takes nothing away");
        std::thread::spawn(move || {
            let _own = push(Provenance::Aspect(AspectId::from_raw(6)));
            let theirs = fields();
            {
                let _installed = captured.install();
                assert_eq!(fields(), mine);
            }
            assert_eq!(fields(), theirs, "the installing thread gets its own context back");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn capture_and_install_transfers_provenance() {
        let snap = {
            let _g = push(Provenance::Aspect(AspectId::from_raw(3)));
            CurrentContext::capture()
        };
        assert_eq!(current(), Provenance::Core);
        let _guards = snap.install();
        assert_eq!(current(), Provenance::Aspect(AspectId::from_raw(3)));
    }
}
