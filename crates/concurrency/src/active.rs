//! Active objects — the ABCL model the paper builds on (§2).
//!
//! "One of the most relevant works was ABCL, which provided active objects
//! to model concurrent activities. Each active object can be implemented by
//! a process and inter-object communication can be performed by asynchronous
//! or synchronous method invocation."
//!
//! [`active_object_aspect`] turns the matched calls of a class into exactly
//! that: each target object gets its own mailbox (a `std::sync::mpsc`
//! channel: many posters, one server) and a dedicated server thread draining
//! it **in issue order** (a stronger guarantee than the monitor-based
//! concurrency aspect, whose lock acquisition order is scheduler-dependent).
//! Calls return [`FutureAny`] — synchronous use is taking the future
//! immediately, asynchronous use is taking it later. A call that panics fails
//! its own future; the object keeps serving.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use weavepar_weave::aspect::precedence;
use weavepar_weave::prelude::*;
use weavepar_weave::ObjId;

use crate::future::FutureAny;
use crate::tracker::CompletionTracker;

type Mail = (Detached, FutureAny, crate::tracker::TaskToken);

struct Mailbox {
    tx: Sender<Mail>,
    handle: JoinHandle<()>,
}

/// Handle on the mailboxes and server threads behind an active-object
/// aspect. Keep it around to [`ActiveRuntime::wait_idle`] and
/// [`ActiveRuntime::shutdown`].
#[derive(Clone)]
pub struct ActiveRuntime {
    inner: Arc<Inner>,
}

struct Inner {
    mailboxes: Mutex<HashMap<ObjId, Mailbox>>,
    tracker: CompletionTracker,
}

impl ActiveRuntime {
    fn new() -> Self {
        ActiveRuntime {
            inner: Arc::new(Inner {
                mailboxes: Mutex::new(HashMap::new()),
                tracker: CompletionTracker::new(),
            }),
        }
    }

    /// Enqueue a detached invocation into the target's mailbox, creating the
    /// object's server thread on first use.
    fn post(&self, target: ObjId, mail: Mail) -> WeaveResult<()> {
        let mut mailboxes = self.inner.mailboxes.lock();
        let mailbox = mailboxes.entry(target).or_insert_with(|| {
            let (tx, rx) = channel::<Mail>();
            let handle = std::thread::Builder::new()
                .name(format!("active-{}", target.raw()))
                .spawn(move || {
                    for (detached, future, token) in rx {
                        future.run(detached);
                        drop(token); // one invocation done, even on failure
                    }
                })
                .expect("spawning active-object server");
            Mailbox { tx, handle }
        });
        mailbox
            .tx
            .send(mail)
            .map_err(|_| WeaveError::app(format!("active object {target} is shut down")))
    }

    /// Number of live active objects (server threads).
    pub fn active_objects(&self) -> usize {
        self.inner.mailboxes.lock().len()
    }

    /// Block until every posted invocation has completed.
    pub fn wait_idle(&self) {
        self.inner.tracker.wait_idle();
    }

    /// The tracker counting in-flight invocations.
    pub fn tracker(&self) -> &CompletionTracker {
        &self.inner.tracker
    }

    /// Stop all server threads after their mailboxes drain.
    pub fn shutdown(&self) {
        let drained: Vec<Mailbox> = {
            let mut mailboxes = self.inner.mailboxes.lock();
            mailboxes.drain().map(|(_, m)| m).collect()
        };
        for mailbox in drained {
            drop(mailbox.tx); // closes the channel; the loop ends after the queue
            let _ = mailbox.handle.join();
        }
    }
}

impl std::fmt::Debug for ActiveRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveRuntime")
            .field("active_objects", &self.active_objects())
            .field("in_flight", &self.inner.tracker.in_flight())
            .finish()
    }
}

/// Turn the matched calls into active-object sends: per-target mailbox,
/// issue-order execution, future results. Returns the aspect and the runtime
/// handle.
pub fn active_object_aspect(
    name: impl Into<String>,
    pointcut: Pointcut,
) -> (Aspect, ActiveRuntime) {
    let runtime = ActiveRuntime::new();
    let rt = runtime.clone();
    let aspect = Aspect::named(name)
        .precedence(precedence::ASYNC_INVOCATION)
        .around(pointcut, move |inv: &mut Invocation| {
            let target = inv.target_required()?;
            let detached = inv.detach()?;
            let future = FutureAny::new();
            // The token travels in the mailbox message and is dropped by the
            // server after fulfilment, so `wait_idle` covers queued work.
            let token = rt.inner.tracker.begin();
            rt.post(target, (detached, future.clone(), token))?;
            Ok(weavepar_weave::ret!(future))
        })
        .build();
    (aspect, runtime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::future::resolve_any;
    use crate::pool::tests::{wait_until, watchdog, Gate};
    use weavepar_weave::{args, value::downcast_ret};

    struct Logger {
        seen: Vec<u64>,
    }

    weavepar_weave::weaveable! {
        class Logger as LoggerProxy {
            fn new() -> Self { Logger { seen: Vec::new() } }
            fn record(&mut self, x: u64) -> u64 {
                self.seen.push(x);
                x
            }
            fn hold(&mut self, gate: Gate) {
                gate.enter();
            }
            fn seen(&mut self) -> Vec<u64> {
                self.seen.clone()
            }
            fn boom(&mut self) -> u64 {
                panic!("boom")
            }
        }
    }

    #[test]
    fn calls_execute_in_issue_order() {
        let weaver = Weaver::new();
        let (aspect, runtime) = active_object_aspect("Active", Pointcut::call("Logger.record"));
        weaver.plug(aspect);
        let l = LoggerProxy::construct(&weaver).unwrap();
        for i in 0..50u64 {
            l.handle().call("record", args![i]).unwrap();
        }
        runtime.wait_idle();
        let seen = l.seen().unwrap();
        assert_eq!(seen, (0..50).collect::<Vec<u64>>(), "active objects preserve issue order");
        runtime.shutdown();
    }

    #[test]
    fn futures_carry_results() {
        let weaver = Weaver::new();
        let (aspect, runtime) = active_object_aspect("Active", Pointcut::call("Logger.record"));
        weaver.plug(aspect);
        let l = LoggerProxy::construct(&weaver).unwrap();
        let ret = l.handle().call("record", args![7u64]).unwrap();
        let v = downcast_ret::<u64>(resolve_any(ret).unwrap()).unwrap();
        assert_eq!(v, 7);
        runtime.shutdown();
    }

    #[test]
    fn objects_run_concurrently_with_each_other() {
        let weaver = Weaver::new();
        let (aspect, runtime) = active_object_aspect(
            "Active",
            Pointcut::call("Logger.record").or(Pointcut::call("Logger.hold")),
        );
        weaver.plug(aspect);
        let objs: Vec<_> = (0..4).map(|_| LoggerProxy::construct(&weaver).unwrap()).collect();
        watchdog("inter-object concurrency", move || {
            // Each object's first message holds its server inside `hold`: one
            // thread serving all four would never get to a second object.
            let gate = Gate::default();
            for o in &objs {
                o.handle().call("hold", args![gate.clone()]).unwrap();
                for i in 0..100u64 {
                    o.handle().call("record", args![i]).unwrap();
                }
            }
            wait_until("two objects to be inside at once", || gate.inside() >= 2);
            gate.open();
            runtime.wait_idle();
            assert_eq!(runtime.active_objects(), 4);
            for o in &objs {
                assert_eq!(o.seen().unwrap().len(), 100);
            }
            runtime.shutdown();
            assert_eq!(runtime.active_objects(), 0);
        });
    }

    #[test]
    fn a_panicking_call_fails_its_own_future_and_the_object_keeps_serving() {
        let weaver = Weaver::new();
        let (aspect, runtime) = active_object_aspect(
            "Active",
            Pointcut::call("Logger.record").or(Pointcut::call("Logger.boom")),
        );
        weaver.plug(aspect);
        let l = LoggerProxy::construct(&weaver).unwrap();
        watchdog("panicking active call", move || {
            let boom = l.handle().call("boom", args![]).unwrap();
            let after = l.handle().call("record", args![7u64]).unwrap();
            let err = resolve_any(boom).unwrap_err();
            assert!(matches!(err, WeaveError::App(_)), "typed failure, not a hang: {err:?}");
            // The same server thread went on to the next message.
            assert_eq!(downcast_ret::<u64>(resolve_any(after).unwrap()).unwrap(), 7);
            runtime.wait_idle();
            assert_eq!(runtime.active_objects(), 1);
            runtime.shutdown();
        });
    }

    #[test]
    fn shutdown_drains_before_stopping() {
        let weaver = Weaver::new();
        let (aspect, runtime) = active_object_aspect("Active", Pointcut::call("Logger.record"));
        weaver.plug(aspect);
        let l = LoggerProxy::construct(&weaver).unwrap();
        for i in 0..10u64 {
            l.handle().call("record", args![i]).unwrap();
        }
        runtime.shutdown(); // must not lose queued work
        assert_eq!(l.seen().unwrap().len(), 10);
    }

    #[test]
    fn post_after_shutdown_errors() {
        let weaver = Weaver::new();
        let (aspect, runtime) = active_object_aspect("Active", Pointcut::call("Logger.record"));
        weaver.plug(aspect);
        let l = LoggerProxy::construct(&weaver).unwrap();
        l.handle().call("record", args![1u64]).unwrap();
        runtime.shutdown();
        // The mailbox is gone; a new one is created transparently.
        l.handle().call("record", args![2u64]).unwrap();
        runtime.wait_idle();
        assert_eq!(l.seen().unwrap().len(), 2);
        runtime.shutdown();
    }
}
