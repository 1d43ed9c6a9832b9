//! The pluggable concurrency aspects (paper §4.2, Figure 12).
//!
//! ```text
//! aspect Concurrency {
//!     void around( PrimeFilter.filter(..) ) {           // oneway advice
//!         (new Thread() { void run() { proceed(); } }).start();
//!     }
//!     void around( PrimeFilter.filter(..) ) {           // synchronised advice
//!         synchronized(/* target */) { proceed(); }
//!     }
//! }
//! ```
//!
//! [`future_concurrency_aspect`] is that module: the first advice detaches
//! the remainder of the chain onto an [`Executor`] and hands the caller a
//! [`FutureAny`]; the second holds the target object's monitor across
//! `proceed` (not a stub's on a redirected call: the instance it reaches is
//! exclusive on its node, see [`synchronized_aspect`]). Figure 12's `void`
//! oneway advice is the same advice with the future left untaken; a call
//! that fails fails its own future. Each half is also available alone so
//! the combinations in the paper's Table 1 can be assembled piecemeal.

use weavepar_weave::aspect::precedence;
use weavepar_weave::intertype::REMOTE_FIELD;
use weavepar_weave::prelude::*;

use crate::executor::Executor;
use crate::future::FutureAny;
use crate::pool::Joiner;

/// Asynchronous invocation with a future result: the matched calls
/// immediately return a [`FutureAny`] carrying the eventual result. Clients
/// consume it through [`resolve_any`](crate::future::resolve_any), which also
/// transparently accepts the synchronous value when this aspect is unplugged.
///
/// The spawn is [`BatchScope`](crate::BatchScope)-aware — under an active
/// scope the detached chain is buffered and the whole pack is submitted in
/// one batch; callers must flush the scope before blocking on a returned
/// future.
///
/// A call that panics fails its own future with an application error (the
/// joiner is not left waiting for a value nobody will write).
pub fn future_aspect(name: impl Into<String>, pointcut: Pointcut, executor: Executor) -> Aspect {
    Aspect::named(name)
        .precedence(precedence::ASYNC_INVOCATION)
        .around(pointcut, move |inv: &mut Invocation| {
            let detached = inv.detach()?;
            let future = FutureAny::new();
            let running = future.clone();
            executor.spawn(move || running.run(detached));
            Ok(weavepar_weave::ret!(future))
        })
        .build()
}

/// Synchronisation advice: hold the target object's monitor across the rest
/// of the chain — the paper's `synchronized(target) { proceed(); }` — unless
/// this call goes to a remote instance (in AspectJ, `&& !target(Remote)`): a
/// distribution advice runs ahead of this one and the target is a stub, one
/// that carries [`REMOTE_FIELD`]. Such a call leaves the stub's own object
/// untouched, and the instance it reaches is exclusive where it lives: its
/// node serves one request at a time, and base dispatch there takes the
/// instance's monitor. Every other call keeps the monitor: a call on a local
/// object, on an object built before distribution was plugged, or on a stub
/// while distribution is unplugged or disabled.
///
/// A pool worker that finds the monitor held runs queued tasks until it is
/// free (see [`pool`](crate::pool), "Joins"), so a call it helps may take a
/// monitor ahead of the call that waits on it: mutual exclusion, not FIFO.
pub fn synchronized_aspect(name: impl Into<String>, pointcut: Pointcut) -> Aspect {
    Aspect::named(name)
        .precedence(precedence::SYNCHRONISATION)
        .around(pointcut, move |inv: &mut Invocation| {
            let target = inv.target_required()?;
            if inv.runs_ahead(precedence::DISTRIBUTION)
                && inv.weaver().intertype().has_field(target, REMOTE_FIELD)
            {
                return inv.proceed();
            }
            let _monitor = Joiner::monitor(inv.weaver().space(), target)?;
            inv.proceed()
        })
        .build()
}

/// The paper's complete Concurrency module (Figure 12): asynchronous
/// invocation with a future result plus per-target synchronisation — the
/// ref-\[3\] pattern of §4.2 that result-carrying partition protocols
/// (pipeline/farm `combine`) require. Returned as two aspects so that a
/// partition aspect can weave *between* them (spawn outside the forwarding,
/// monitor inside the spawned thread — the structure Figure 11 depicts);
/// plug both, unplug both.
pub fn future_concurrency_aspect(
    name: impl Into<String>,
    pointcut: Pointcut,
    executor: Executor,
) -> [Aspect; 2] {
    let name = name.into();
    [
        future_aspect(format!("{name}.async"), pointcut.clone(), executor),
        synchronized_aspect(format!("{name}.sync"), pointcut),
    ]
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use parking_lot::Mutex;

    use super::*;
    use crate::future::resolve_any;
    use crate::pool::tests::{wait_until, watchdog, Gate};
    use weavepar_weave::value::downcast_ret;
    use weavepar_weave::{args, Weaver};

    struct Slowpoke {
        log: Vec<u64>,
    }

    weavepar_weave::weaveable! {
        class Slowpoke as SlowpokeProxy {
            fn new() -> Self { Slowpoke { log: Vec::new() } }
            fn work(&mut self, id: u64) {
                self.log.push(id);
            }
            fn held(&mut self, id: u64, gate: Gate) {
                gate.enter();
                self.log.push(id);
            }
            fn compute(&mut self, x: u64) -> u64 {
                x * 2
            }
            fn log_len(&mut self) -> u64 {
                self.log.len() as u64
            }
        }
    }

    /// Plug Figure 12's module on `Slowpoke.<method>` over `executor`.
    fn concurrent(weaver: &Weaver, method: &str, executor: &Executor) -> Vec<PluggedAspect> {
        let pointcut = Pointcut::call(&format!("Slowpoke.{method}"));
        let module = future_concurrency_aspect("Concurrency", pointcut, executor.clone());
        module.into_iter().map(|a| weaver.plug(a)).collect()
    }

    /// A matched `void` call: its future, which the oneway caller leaves untaken.
    fn spawned(p: &SlowpokeProxy, method: &'static str, args: Args) -> AnyValue {
        p.handle().call(method, args).unwrap()
    }

    #[test]
    fn oneway_returns_immediately_and_completes() {
        let weaver = Weaver::new();
        let executor = Executor::thread_per_call();
        concurrent(&weaver, "held", &executor);
        let p = SlowpokeProxy::construct(&weaver).unwrap();
        watchdog("oneway calls", move || {
            let gate = Gate::default();
            for i in 0..4u64 {
                // Figure 12's oneway call: the future is left untaken.
                spawned(&p, "held", args![i, gate.clone()]);
            }
            // All four calls are back while the first body is still held: a
            // call that waited for its body would never have returned.
            wait_until("a body to be inside", || gate.inside() >= 1);
            gate.open();
            executor.wait_idle();
            assert_eq!(p.log_len().unwrap(), 4);
        });
    }

    #[test]
    fn oneway_parallelism_beats_sequential() {
        let weaver = Weaver::new();
        let executor = Executor::thread_per_call();
        concurrent(&weaver, "held", &executor);
        // Four independent objects: executed one after the other, the first
        // body would wait for a second one for ever.
        let objs: Vec<_> = (0..4).map(|_| SlowpokeProxy::construct(&weaver).unwrap()).collect();
        watchdog("parallel bodies", move || {
            let gate = Gate::default();
            let futures: Vec<_> = (0..4u64)
                .zip(&objs)
                .map(|(i, o)| spawned(o, "held", args![i, gate.clone()]))
                .collect();
            wait_until("two bodies to be inside at once", || gate.inside() >= 2);
            gate.open();
            for f in futures {
                resolve_any(f).unwrap();
            }
        });
    }

    #[test]
    fn synchronized_serialises_per_object() {
        let weaver = Weaver::new();
        let executor = Executor::thread_per_call();
        concurrent(&weaver, "work", &executor);
        let p = SlowpokeProxy::construct(&weaver).unwrap();
        let futures: Vec<_> = (0..6u64).map(|i| spawned(&p, "work", args![i])).collect();
        for f in futures {
            resolve_any(f).unwrap();
        }
        // All six writes landed despite racing threads.
        assert_eq!(p.log_len().unwrap(), 6);
    }

    /// The synchronisation advice around a probe at OPTIMISATION precedence
    /// that notes how many monitors its thread holds, then waits at `gate`
    /// and, once the rest of the chain is done, logs `"call"`.
    fn synchronized_around_a_probe(
        gate: Gate,
        log: Arc<Mutex<Vec<&'static str>>>,
    ) -> (Weaver, Arc<Mutex<Vec<usize>>>) {
        use weavepar_weave::object::monitors_held;
        let weaver = Weaver::new();
        weaver.plug(synchronized_aspect("Sync", Pointcut::call("Slowpoke.compute")));
        let held = Arc::new(Mutex::new(Vec::new()));
        let seen = held.clone();
        weaver.plug(
            Aspect::named("Probe")
                .precedence(precedence::OPTIMISATION)
                .around(Pointcut::call("Slowpoke.compute"), move |inv: &mut Invocation| {
                    seen.lock().push(monitors_held());
                    gate.enter();
                    let result = inv.proceed();
                    log.lock().push("call");
                    result
                })
                .build(),
        );
        (weaver, held)
    }

    #[test]
    fn a_local_targets_monitor_is_held_across_the_inner_advice() {
        let (gate, log) = (Gate::default(), Arc::new(Mutex::new(Vec::new())));
        let (weaver, held) = synchronized_around_a_probe(gate.clone(), log.clone());
        let p = SlowpokeProxy::construct(&weaver).unwrap();
        watchdog("a local call", move || {
            let target = p.id();
            let trying = AtomicBool::new(false);
            std::thread::scope(|s| {
                let call = s.spawn(|| p.compute(21).unwrap());
                wait_until("the call to reach the probe", || gate.inside() == 1);
                s.spawn(|| {
                    trying.store(true, Ordering::SeqCst);
                    let _monitor = weaver.space().monitor(target).unwrap();
                    log.lock().push("monitor");
                });
                wait_until("the second thread to ask for the monitor", || {
                    trying.load(Ordering::SeqCst)
                });
                gate.open();
                assert_eq!(call.join().unwrap(), 42);
            });
            assert_eq!(*held.lock(), [1], "the probe ran under the target's monitor");
            assert_eq!(*log.lock(), ["call", "monitor"], "the monitor waited for the call");
        });
    }

    /// A stand-in for the distribution aspect: a call on an object that
    /// carries [`REMOTE_FIELD`] is answered without reaching it.
    fn redirecting() -> Aspect {
        Aspect::named("Distribution")
            .precedence(precedence::DISTRIBUTION)
            .around(Pointcut::call("Slowpoke.compute"), |inv: &mut Invocation| {
                if !inv.weaver().intertype().has_field(inv.target_required()?, REMOTE_FIELD) {
                    return inv.proceed();
                }
                Ok(weavepar_weave::ret!(*inv.arg::<u64>(0)? * 2))
            })
            .build()
    }

    fn stub(weaver: &Weaver) -> SlowpokeProxy {
        let p = SlowpokeProxy::construct(weaver).unwrap();
        weaver.intertype().set_field(p.id(), REMOTE_FIELD, ());
        p
    }

    #[test]
    fn a_redirected_calls_stub_monitor_is_not_taken() {
        let (gate, log) = (Gate::default(), Arc::new(Mutex::new(Vec::new())));
        let (weaver, held) = synchronized_around_a_probe(gate.clone(), log);
        weaver.plug(redirecting());
        let p = stub(&weaver);
        watchdog("a stub call", move || {
            let target = p.id();
            std::thread::scope(|s| {
                let call = s.spawn(|| p.compute(21).unwrap());
                wait_until("the call to reach the probe", || gate.inside() == 1);
                // Free while the call sits in the probe: nothing holds it.
                drop(weaver.space().monitor(target).unwrap());
                gate.open();
                assert_eq!(call.join().unwrap(), 42);
            });
            assert_eq!(*held.lock(), [0], "no monitor around the inner advice of a stub");
        });
    }

    #[test]
    fn a_call_that_is_not_redirected_keeps_its_monitor() {
        let gate = Gate::default();
        gate.open();
        let (weaver, held) = synchronized_around_a_probe(gate, Arc::default());
        let early = SlowpokeProxy::construct(&weaver).unwrap();
        let distribution = weaver.plug(redirecting());
        let p = stub(&weaver);
        // The class is tagged Remote, as a distribution aspect leaves it, but
        // what counts is the call: `early`, built before distribution was
        // plugged, is local; `p` is local while distribution is off.
        weaver.intertype().declare_tag("Slowpoke", weavepar_weave::intertype::REMOTE_TAG);
        assert_eq!(early.compute(1).unwrap(), 2);
        assert_eq!(p.compute(2).unwrap(), 4);
        weaver.set_enabled(&distribution, false);
        assert_eq!(p.compute(3).unwrap(), 6);
        weaver.set_enabled(&distribution, true);
        weaver.unplug(&distribution);
        assert_eq!(p.compute(4).unwrap(), 8);
        assert_eq!(*held.lock(), [1, 0, 1, 1], "only the redirected call skips the monitor");
    }

    #[test]
    fn future_aspect_roundtrip() {
        let weaver = Weaver::new();
        let executor = Executor::pool(2, "fut");
        weaver.plug(future_aspect("Futures", Pointcut::call("Slowpoke.compute"), executor));
        let p = SlowpokeProxy::construct(&weaver).unwrap();
        // The typed proxy method would downcast to u64 and fail; the future
        // protocol goes through the raw handle.
        let ret = p.handle().call("compute", args![21u64]).unwrap();
        assert!(ret.downcast_ref::<FutureAny>().is_some());
        assert_eq!(downcast_ret::<u64>(resolve_any(ret).unwrap()).unwrap(), 42);
    }

    #[test]
    fn resolve_any_passes_an_unplugged_result_through() {
        let weaver = Weaver::new();
        let p = SlowpokeProxy::construct(&weaver).unwrap();
        let ret = p.handle().call("compute", args![5u64]).unwrap();
        assert_eq!(downcast_ret::<u64>(resolve_any(ret).unwrap()).unwrap(), 10);
    }

    #[test]
    fn oneway_errors_reach_the_sink() {
        // The sink of a failing call is its own future.
        let weaver = Weaver::new();
        let executor = Executor::thread_per_call();
        concurrent(&weaver, "work", &executor);
        let p = SlowpokeProxy::construct(&weaver).unwrap();
        // Wrong argument type: dispatch fails inside the detached chain.
        let failing = spawned(&p, "work", args!["wrong".to_string()]);
        let fine = spawned(&p, "work", args![1u64]);
        let err = resolve_any(failing).unwrap_err();
        assert!(matches!(err, WeaveError::TypeMismatch { .. }), "{err:?}");
        resolve_any(fine).unwrap();
        assert_eq!(p.log_len().unwrap(), 1);
    }

    #[test]
    fn unplugging_concurrency_restores_sequential_debuggability() {
        let weaver = Weaver::new();
        let executor = Executor::thread_per_call();
        let plugged = concurrent(&weaver, "work", &executor);
        let p = SlowpokeProxy::construct(&weaver).unwrap();
        resolve_any(spawned(&p, "work", args![1u64])).unwrap();
        for p in &plugged {
            weaver.unplug(p);
        }
        // Now strictly synchronous: the typed call returns `()` itself, and
        // its effect is visible immediately.
        p.work(2).unwrap();
        assert_eq!(p.log_len().unwrap(), 2);
    }
}
