//! Join-point invocations: the advice chain walker with `proceed` semantics.
//!
//! An [`Invocation`] is handed to around advice. The advice may:
//!
//! * call [`Invocation::proceed`] zero, one or (with explicit arguments,
//!   [`Invocation::proceed_with`]) several times — replacing, executing or
//!   duplicating the original event;
//! * inspect or rewrite the arguments first;
//! * [`Invocation::detach`] the remainder of the chain and run it on another
//!   thread — the primitive the concurrency aspect uses to turn a method call
//!   into an asynchronous invocation;
//! * make further join points through [`Invocation::weaver`]: the paper's
//!   Partition aspect builds its pipeline of `PrimeFilter`s from a
//!   construction advice with woven `construct_dyn` calls, so that a plugged
//!   distribution aspect places each of them.

use std::time::{Duration, Instant};

use crate::context::{self, CurrentContext, Provenance};
use crate::dispatch::ClassInfo;
use crate::error::{WeaveError, WeaveResult};
use crate::object::ObjId;
use crate::registry::Weaver;
use crate::signature::Signature;
use crate::snapshot::Chain;
use crate::value::{AnyValue, Args};

/// The two join-point kinds the paper's methodology intercepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinPointKind {
    /// A method call on a woven object.
    Call,
    /// A construction of a woven object.
    Construct,
}

/// What executing the innermost `proceed` does.
#[derive(Clone, Copy)]
pub(crate) enum BaseAction {
    /// Dispatch the method on the target object.
    Call,
    /// Construct an instance of the class and insert it into the object space.
    Construct(ClassInfo),
}

/// A join point in flight, walking its advice chain towards the base event.
///
/// It borrows the weaver and the matched chain from the frame that dispatched
/// the join point, so walking the chain touches no reference count;
/// [`Detached`] is the owning form.
pub struct Invocation<'a> {
    weaver: &'a Weaver,
    signature: Signature,
    kind: JoinPointKind,
    target: Option<ObjId>,
    caller: Provenance,
    args: Option<Args>,
    chain: &'a Chain,
    index: usize,
    base: BaseAction,
    async_boundary: bool,
    issuer: u64,
}

impl<'a> Invocation<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        weaver: &'a Weaver,
        signature: Signature,
        kind: JoinPointKind,
        target: Option<ObjId>,
        caller: Provenance,
        args: Args,
        chain: &'a Chain,
        base: BaseAction,
        async_boundary: bool,
    ) -> Self {
        Invocation {
            weaver,
            signature,
            kind,
            target,
            caller,
            args: Some(args),
            chain,
            index: 0,
            base,
            async_boundary,
            issuer: crate::trace::thread_tag(),
        }
    }

    /// Static signature of the join point.
    pub fn signature(&self) -> Signature {
        self.signature
    }

    /// Call or construction.
    pub fn kind(&self) -> JoinPointKind {
        self.kind
    }

    /// Target object (present on calls; `None` on constructions).
    pub fn target(&self) -> Option<ObjId> {
        self.target
    }

    /// Target object, or an error for advice that requires one.
    pub fn target_required(&self) -> WeaveResult<ObjId> {
        self.target.ok_or(WeaveError::NoTarget)
    }

    /// Provenance of the call site that created this join point.
    pub fn caller(&self) -> Provenance {
        self.caller
    }

    /// The weaver this invocation runs under (for advice that makes further
    /// woven calls, constructs objects or touches inter-type state).
    pub fn weaver(&self) -> &Weaver {
        self.weaver
    }

    /// Will advice at `precedence` run inside this advice's `proceed`? Asked
    /// of the chain this join point matched, so an aspect that is unplugged,
    /// disabled or whose pointcut skips this call is not ahead.
    pub fn runs_ahead(&self, precedence: i32) -> bool {
        self.chain[self.index..].iter().any(|entry| entry.precedence == precedence)
    }

    /// Borrow the (not yet consumed) argument pack.
    pub fn args(&self) -> WeaveResult<&Args> {
        self.args.as_ref().ok_or(WeaveError::AlreadyProceeded)
    }

    /// Mutably borrow the argument pack (advice rewriting parameters).
    pub fn args_mut(&mut self) -> WeaveResult<&mut Args> {
        self.args.as_mut().ok_or(WeaveError::AlreadyProceeded)
    }

    /// Borrow argument `i` with its concrete type.
    pub fn arg<T: 'static>(&self, i: usize) -> WeaveResult<&T> {
        self.args()?.get(i)
    }

    /// Run the rest of the chain (and ultimately the base event) with the
    /// original arguments. The arguments stay in place for the next advice and
    /// are consumed by the base event (or a `detach`): a second plain `proceed`
    /// then fails with [`WeaveError::AlreadyProceeded`].
    pub fn proceed(&mut self) -> WeaveResult<AnyValue> {
        if self.index < self.chain.len() {
            if self.args.is_none() {
                return Err(WeaveError::AlreadyProceeded);
            }
            self.next_advice()
        } else {
            let args = self.args.take().ok_or(WeaveError::AlreadyProceeded)?;
            self.execute_base(args)
        }
    }

    /// [`proceed`](Invocation::proceed), with the wall time it took: the one
    /// place an observer advice (metrics, logging, autotuning) reads the clock.
    pub fn proceed_timed(&mut self) -> (WeaveResult<AnyValue>, Duration) {
        let start = Instant::now();
        let result = self.proceed();
        (result, start.elapsed())
    }

    /// Run the rest of the chain with explicit arguments. May be called
    /// multiple times (AspectJ allows repeated `proceed`); each call replays
    /// the remainder of the chain.
    pub fn proceed_with(&mut self, args: Args) -> WeaveResult<AnyValue> {
        if self.index < self.chain.len() {
            self.args = Some(args);
            self.next_advice()
        } else {
            self.execute_base(args)
        }
    }

    /// One hop: run the advice at `index` with `self` advanced past it.
    fn next_advice(&mut self) -> WeaveResult<AnyValue> {
        let chain: &'a Chain = self.chain;
        let entry = &chain[self.index];
        self.index += 1;
        let result = {
            let _prov = context::push(Provenance::Aspect(entry.aspect));
            entry.advice.around(self)
        };
        self.index -= 1;
        result
    }

    /// Move the remainder of this chain (advice not yet run, plus the base
    /// event) into a [`Detached`] value that can be executed on another
    /// thread. Consumes the arguments.
    pub fn detach(&mut self) -> WeaveResult<Detached> {
        let args = self.args.take().ok_or(WeaveError::AlreadyProceeded)?;
        Ok(Detached {
            weaver: self.weaver.clone(),
            signature: self.signature,
            kind: self.kind,
            target: self.target,
            caller: self.caller,
            args,
            chain: Chain::clone(self.chain),
            index: self.index,
            base: self.base,
            ctx: CurrentContext::capture(),
            issuer: self.issuer,
        })
    }

    fn execute_base(&mut self, args: Args) -> WeaveResult<AnyValue> {
        match self.base {
            BaseAction::Call => {
                let target = self.target.ok_or(WeaveError::NoTarget)?;
                self.weaver.base_call(
                    self.signature,
                    target,
                    args,
                    self.async_boundary,
                    self.issuer,
                )
            }
            BaseAction::Construct(info) => {
                let id =
                    self.weaver.base_construct(info, args, self.async_boundary, self.issuer)?;
                Ok(crate::ret!(id))
            }
        }
    }
}

impl std::fmt::Debug for Invocation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Invocation")
            .field("signature", &self.signature.to_string())
            .field("kind", &self.kind)
            .field("target", &self.target)
            .field("index", &self.index)
            .field("chain_len", &self.chain.len())
            .field("async_boundary", &self.async_boundary)
            .finish()
    }
}

/// The remainder of an advice chain, severed from its original thread.
///
/// Produced by [`Invocation::detach`]; running it executes the not-yet-run
/// advice and the base event. The weaving context (provenance and trace
/// parent) captured at detach time is re-established on the running thread,
/// so causality in recorded traces survives the thread hop.
pub struct Detached {
    weaver: Weaver,
    signature: Signature,
    kind: JoinPointKind,
    target: Option<ObjId>,
    caller: Provenance,
    args: Args,
    chain: Chain,
    index: usize,
    base: BaseAction,
    ctx: CurrentContext,
    issuer: u64,
}

impl Detached {
    /// Execute the remainder of the chain on the current thread.
    pub fn run(self) -> WeaveResult<AnyValue> {
        let _guards = self.ctx.install();
        let mut inv = Invocation {
            weaver: &self.weaver,
            signature: self.signature,
            kind: self.kind,
            target: self.target,
            caller: self.caller,
            args: None,
            chain: &self.chain,
            index: self.index,
            base: self.base,
            async_boundary: true,
            issuer: self.issuer,
        };
        inv.proceed_with(self.args)
    }

    /// Signature of the detached join point (for schedulers that route by
    /// class or method).
    pub fn signature(&self) -> Signature {
        self.signature
    }

    /// Target of the detached join point.
    pub fn target(&self) -> Option<ObjId> {
        self.target
    }
}

impl std::fmt::Debug for Detached {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Detached")
            .field("signature", &self.signature.to_string())
            .field("index", &self.index)
            .field("chain_len", &self.chain.len())
            .finish()
    }
}

// What a chain of advice computes is `registry::model`'s property; the tests
// here pin the `proceed` contract and what a join point may touch.
#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::aspect::Aspect;
    use crate::pointcut::Pointcut;
    use crate::registry::tests::{total, Acc};
    use crate::value::downcast_ret;
    use crate::{args, ret};

    const ADD: Signature = Signature::new("Acc", "add");

    fn pass_through(name: &str, precedence: i32) -> Aspect {
        Aspect::named(name)
            .precedence(precedence)
            .around(Pointcut::call("Acc.add"), |inv: &mut Invocation| inv.proceed())
            .build()
    }

    #[test]
    fn arguments_stay_in_place_until_the_base_event_takes_them() {
        let weaver = Weaver::new();
        let outer = Aspect::named("Outer")
            .precedence(1)
            .around(Pointcut::call("Acc.add"), |inv: &mut Invocation| {
                let v = *inv.arg::<i64>(0)?;
                inv.args_mut()?.set(0, v + 1)?;
                let first = inv.proceed()?;
                // The base event consumed them, two hops further in.
                assert!(matches!(inv.args(), Err(WeaveError::AlreadyProceeded)));
                assert!(matches!(inv.proceed(), Err(WeaveError::AlreadyProceeded)));
                // Explicit arguments replay the rest of the chain, repeatedly.
                inv.proceed_with(args![100i64])?;
                inv.proceed_with(args![100i64])?;
                assert!(matches!(inv.proceed(), Err(WeaveError::AlreadyProceeded)));
                Ok(first)
            })
            .build();
        let inner = Aspect::named("Inner")
            .precedence(2)
            .around(Pointcut::call("Acc.add"), |inv: &mut Invocation| {
                // The rewrite of the advice before this one is what arrives here.
                let v = *inv.arg::<i64>(0)?;
                inv.args_mut()?.set(0, v * 2)?;
                inv.proceed()
            })
            .build();
        weaver.plug(outer);
        weaver.plug(inner);
        weaver.plug(pass_through("Innermost", 3));
        let id = weaver.construct::<Acc>(args![0i64]).unwrap().id();
        weaver.invoke_call(id, "Acc", "add", args![4i64]).unwrap();
        // (4 + 1) * 2, then twice 100 * 2.
        assert_eq!(total(&weaver, id), 10 + 200 + 200);
    }

    #[test]
    fn an_advice_that_replaces_the_event_leaves_the_arguments_with_its_caller() {
        let weaver = Weaver::new();
        let swallowed = Arc::new(AtomicUsize::new(0));
        let seen = swallowed.clone();
        let outer = Aspect::named("Outer")
            .precedence(1)
            .around(Pointcut::call("Acc.add"), |inv: &mut Invocation| {
                inv.proceed()?;
                // Nothing further in consumed the arguments, so they are
                // still here, and a second `proceed` is a second attempt.
                assert_eq!(*inv.arg::<i64>(0)?, 7);
                inv.proceed()
            })
            .build();
        let inner = Aspect::named("Replace")
            .precedence(2)
            .around(Pointcut::call("Acc.add"), move |_inv: &mut Invocation| {
                seen.fetch_add(1, Ordering::Relaxed);
                Ok(ret!())
            })
            .build();
        weaver.plug(outer);
        weaver.plug(inner);
        let id = weaver.construct::<Acc>(args![0i64]).unwrap().id();
        weaver.invoke_call(id, "Acc", "add", args![7i64]).unwrap();
        assert_eq!(swallowed.load(Ordering::Relaxed), 2);
        assert_eq!(total(&weaver, id), 0);
    }

    #[test]
    fn runs_ahead_sees_only_the_advice_still_to_run_on_this_call() {
        let weaver = Weaver::new();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let log = seen.clone();
        let asking = Aspect::named("Ask")
            .precedence(2)
            .around(Pointcut::call("Acc.add"), move |inv: &mut Invocation| {
                log.lock().push([1, 2, 3].map(|p| inv.runs_ahead(p)));
                inv.proceed()
            })
            .build();
        weaver.plug(pass_through("Outer", 1));
        weaver.plug(asking);
        let inner = weaver.plug(pass_through("Inner", 3));
        let id = weaver.construct::<Acc>(args![0i64]).unwrap().id();
        weaver.invoke_call(id, "Acc", "add", args![1i64]).unwrap();
        weaver.set_enabled(&inner, false);
        weaver.invoke_call(id, "Acc", "add", args![1i64]).unwrap();
        weaver.set_enabled(&inner, true);
        weaver.unplug(&inner);
        weaver.invoke_call(id, "Acc", "add", args![1i64]).unwrap();
        // Neither the advice that already ran nor the asker itself is ahead;
        // the inner one is, until it is disabled or unplugged.
        let (plugged, gone) = ([false, false, true], [false, false, false]);
        assert_eq!(*seen.lock(), [plugged, gone, gone]);
        assert_eq!(total(&weaver, id), 3);
    }

    #[test]
    fn detach_mid_chain_runs_the_remainder_once_on_another_thread() {
        let weaver = Weaver::new();
        let inner_runs = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let runs = inner_runs.clone();
        let detaching = Aspect::named("Detach")
            .precedence(2)
            .around(Pointcut::call("Acc.add"), |inv: &mut Invocation| {
                let detached = inv.detach()?;
                assert!(matches!(inv.proceed(), Err(WeaveError::AlreadyProceeded)));
                assert!(matches!(inv.detach(), Err(WeaveError::AlreadyProceeded)));
                std::thread::spawn(move || detached.run()).join().expect("remainder panicked")
            })
            .build();
        let inner = Aspect::named("Inner")
            .precedence(3)
            .around(Pointcut::call("Acc.add"), move |inv: &mut Invocation| {
                runs.lock().push((std::thread::current().id(), inv.async_boundary));
                inv.proceed()
            })
            .build();
        weaver.plug(pass_through("Outer", 1));
        weaver.plug(detaching);
        weaver.plug(inner);
        let id = weaver.construct::<Acc>(args![0i64]).unwrap().id();
        weaver.invoke_call(id, "Acc", "add", args![5i64]).unwrap();
        let runs = inner_runs.lock();
        assert_eq!(runs.len(), 1);
        assert_ne!(runs[0].0, std::thread::current().id());
        assert!(runs[0].1);
        assert_eq!(total(&weaver, id), 5);
    }

    #[test]
    fn a_join_point_touches_no_shared_reference_count() {
        let weaver = Weaver::new();
        let id = weaver.construct::<Acc>(args![0i64]).unwrap().id();
        // Inside the base event of an unadvised call: nothing was cloned.
        let handles = weaver.debug_strong_count();
        weaver.intertype().add_method(
            "Acc",
            "handles",
            Arc::new(|w: &Weaver, _obj, _args| Ok(ret!(w.debug_strong_count()))),
        );
        let inside = weaver.invoke_call(id, "Acc", "handles", args![]).unwrap();
        assert_eq!(downcast_ret::<usize>(inside).unwrap(), handles);

        // Inside the innermost of three advices: the frame's chain handle is
        // the only count that moved.
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = seen.clone();
        let probe = Aspect::named("Probe")
            .precedence(3)
            .around(Pointcut::call("Acc.add"), move |inv: &mut Invocation| {
                assert_eq!(inv.weaver.debug_strong_count(), handles);
                seen2.store(Arc::strong_count(inv.chain), Ordering::Relaxed);
                inv.proceed()
            })
            .build();
        weaver.plug(pass_through("A", 1));
        weaver.plug(pass_through("B", 2));
        weaver.plug(probe);
        weaver.invoke_call(id, "Acc", "add", args![1i64]).unwrap();
        let cached = weaver.debug_chain(ADD).expect("three advices match");
        assert_eq!(cached.len(), 3);
        let outside = Arc::strong_count(&cached) - 1; // without `cached` itself
        drop(cached);
        assert_eq!(seen.load(Ordering::Relaxed), outside + 1);
        seen.store(0, Ordering::Relaxed);
        weaver.invoke_call(id, "Acc", "add", args![1i64]).unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), outside + 1);
        assert_eq!(weaver.debug_strong_count(), handles);
    }
}
