//! Call-site provenance tracking.
//!
//! The paper's pointcuts distinguish *where a call comes from*: the split
//! advice of the Partition aspect applies only to calls made by core
//! functionality, while the forward advice also applies (recursively) to calls
//! the aspect itself makes (Figure 7, block 3). AspectJ gets this from
//! `within(..)`; we reproduce it with a thread-local provenance frame that the
//! runtime replaces around base-method execution and around advice execution.

use std::cell::{Cell, RefCell};

use crate::aspect::AspectId;
use crate::signature::{MethodPattern, Signature};

/// Who issued the call currently being woven.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Top-level application code or a core-functionality method body.
    Core,
    /// Code executing inside an advice body of the given aspect.
    Aspect(AspectId),
}

thread_local! {
    // The innermost provenance frame and how many frames are open. The frames
    // beneath it live in their guards: each holds the value it replaced.
    static FRAME: Cell<(Provenance, usize)> = const { Cell::new((Provenance::Core, 0)) };
    // The join points currently executing on this thread, outermost first —
    // the dynamic extent AspectJ's `cflow` quantifies over.
    static CFLOW: RefCell<Vec<Signature>> = const { RefCell::new(Vec::new()) };
    // Grain hints a tuned skeleton aspect publishes around an application
    // closure (`weavepar_skeletons::hints` names the slots; 0 = unset). They
    // live here so that `set_aside` lifts them with the rest of the context.
    static HINTS: Cell<[u32; HINT_SLOTS]> = const { Cell::new([0; HINT_SLOTS]) };
}

/// Number of grain-hint slots (see [`replace_hint`]).
pub const HINT_SLOTS: usize = 3;

/// The grain hint published in `slot` on this thread (0 = none).
pub fn hint(slot: usize) -> u32 {
    HINTS.with(|h| h.get()[slot])
}

/// Publish `value` in hint `slot`, returning the previous value (the caller
/// restores it: hints are scoped like the provenance frames).
pub fn replace_hint(slot: usize, value: u32) -> u32 {
    HINTS.with(|h| {
        let mut hints = h.get();
        let prev = std::mem::replace(&mut hints[slot], value);
        h.set(hints);
        prev
    })
}

/// The thread's whole weaving context, lifted off the thread until dropped.
///
/// A pool worker that *helps* while it waits on a join (see
/// `weavepar_concurrency::pool`) runs an unrelated task on top of the waiting
/// frame. That task must see what it would see on a fresh worker — empty
/// provenance frame and control-flow stack, no current trace task, no hints —
/// and the waiting frame must find its own context intact afterwards.
pub struct SetAside {
    frame: (Provenance, usize),
    cflow: Vec<Signature>,
    hints: [u32; HINT_SLOTS],
    trace: crate::trace::SetAside,
}

/// Lift the current thread's weaving context off the thread; dropping the
/// returned value puts it back (discarding whatever was left in between).
pub fn set_aside() -> SetAside {
    SetAside {
        frame: FRAME.replace((Provenance::Core, 0)),
        cflow: CFLOW.with(|s| std::mem::take(&mut *s.borrow_mut())),
        hints: HINTS.with(|h| h.replace([0; HINT_SLOTS])),
        trace: crate::trace::set_aside(),
    }
}

impl Drop for SetAside {
    fn drop(&mut self) {
        FRAME.set(self.frame);
        CFLOW.with(|s| *s.borrow_mut() = std::mem::take(&mut self.cflow));
        HINTS.with(|h| h.set(self.hints));
        crate::trace::restore(std::mem::take(&mut self.trace));
    }
}

/// RAII guard for one frame of the control-flow stack.
pub struct CflowGuard {
    _priv: (),
}

impl Drop for CflowGuard {
    fn drop(&mut self) {
        CFLOW.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Push a join point onto the control-flow stack (runtime use).
pub fn push_cflow(sig: Signature) -> CflowGuard {
    CFLOW.with(|s| s.borrow_mut().push(sig));
    CflowGuard { _priv: () }
}

/// Is the current thread executing within the dynamic extent of a join point
/// matching `pattern` — AspectJ's `cflow(call(pattern))`?
///
/// Pointcut *matching* is cached per static signature, so `cflow` cannot be a
/// static designator here; use it as the guard of
/// [`AspectBuilder::around_if`](crate::aspect::AspectBuilder::around_if),
/// which is evaluated per join point.
pub fn in_cflow_of(pattern: &MethodPattern) -> bool {
    CFLOW.with(|s| s.borrow().iter().any(|sig| pattern.matches(sig)))
}

/// Snapshot of the control-flow stack (crossing async boundaries).
pub fn cflow_snapshot() -> Vec<Signature> {
    CFLOW.with(|s| s.borrow().clone())
}

/// Install a captured control-flow stack beneath the current one; frames pop
/// when the guard drops.
pub fn install_cflow(stack: &[Signature]) -> Vec<CflowGuard> {
    stack.iter().map(|sig| push_cflow(*sig)).collect()
}

/// The provenance of the code currently executing on this thread.
///
/// Defaults to [`Provenance::Core`] when nothing has been pushed — top-level
/// application code *is* core functionality.
pub fn current() -> Provenance {
    FRAME.get().0
}

/// Number of open provenance frames (used in tests and diagnostics).
pub fn depth() -> usize {
    FRAME.get().1
}

/// RAII guard that restores the previous provenance when dropped.
pub struct ProvenanceGuard {
    replaced: Option<(Provenance, usize)>,
}

impl Drop for ProvenanceGuard {
    fn drop(&mut self) {
        if let Some(frame) = self.replaced {
            FRAME.set(frame);
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
    let (top, depth) = FRAME.get();
    if p == Provenance::Core && top == Provenance::Core {
        ProvenanceGuard { replaced: None }
    } else {
        FRAME.set((p, depth + 1));
        ProvenanceGuard { replaced: Some((top, depth)) }
    }
}

/// Snapshot of the per-thread weaving context, used by
/// [`Detached`](crate::invocation::Detached) to re-establish provenance (and by
/// the trace recorder to re-establish the causal parent) on another thread.
#[derive(Debug, Clone)]
pub struct CurrentContext {
    /// Provenance at capture time.
    pub provenance: Provenance,
    /// Trace task identifier at capture time, if recording.
    pub task: Option<crate::trace::TaskId>,
    /// Data-dependency marker at capture time (see
    /// [`trace::note_completion`](crate::trace::note_completion)).
    pub data_dep: Option<(u64, crate::trace::TaskId)>,
    /// Control-flow stack at capture time (so `cflow` guards keep working
    /// across asynchronous boundaries).
    pub cflow: Vec<Signature>,
}

impl CurrentContext {
    /// Capture the current thread's weaving context.
    pub fn capture() -> Self {
        CurrentContext {
            provenance: current(),
            task: crate::trace::current_task(),
            data_dep: crate::trace::data_dep_raw(),
            cflow: cflow_snapshot(),
        }
    }

    /// Re-establish the captured context on the current thread for the
    /// lifetime of the returned guards.
    pub fn install(
        &self,
    ) -> (ProvenanceGuard, crate::trace::TaskGuard, crate::trace::DataDepGuard, Vec<CflowGuard>)
    {
        (
            push(self.provenance),
            crate::trace::push_task(self.task),
            crate::trace::push_data_dep(self.data_dep),
            install_cflow(&self.cflow),
        )
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
        let sig = Signature::new("C", "m");
        let _p = push(Provenance::Aspect(AspectId::from_raw(4)));
        let _c = push_cflow(sig);
        let _t = crate::trace::push_task(Some(crate::trace::TaskId::from_raw(7)));
        replace_hint(1, 33);
        {
            let _clean = set_aside();
            assert_eq!((current(), depth()), (Provenance::Core, 0));
            assert!(cflow_snapshot().is_empty());
            assert_eq!(crate::trace::current_task(), None);
            assert_eq!(hint(1), 0);
            // Whatever the helped task leaves behind is discarded.
            std::mem::forget(push_cflow(Signature::new("Other", "leak")));
            replace_hint(1, 99);
        }
        assert_eq!(current(), Provenance::Aspect(AspectId::from_raw(4)));
        assert_eq!(cflow_snapshot(), vec![sig]);
        assert_eq!(crate::trace::current_task(), Some(crate::trace::TaskId::from_raw(7)));
        assert_eq!(replace_hint(1, 0), 33);
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
