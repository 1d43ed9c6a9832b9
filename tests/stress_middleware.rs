//! Middleware stress: the message-packing aspect under concurrent issuers
//! and repeated plug/unplug cycles (run in `--release` by ci.sh).
//!
//! Pins the §4.4 packing optimisation's correctness contract:
//!
//! * every oneway call issued while the aspect is plugged, unplugged, or
//!   mid-unplug is delivered **exactly once** — never lost in a buffer
//!   nobody flushes, never shipped twice;
//! * replied calls outside the packing pointcut behave identically whether
//!   the aspect is plugged or not.
//!
//! The `served_inline` module pins the rules under which an idle node's
//! replied calls run on the caller's own thread (`middleware::node` module
//! docs): per-sender FIFO, exact sums under contention, kill and panics,
//! clean context, nesting, deadlines. None of its tests sleeps; each runs
//! under a watchdog that fails instead of hanging.

use std::sync::Arc;
use std::time::Duration;

use weavepar::distribution::RemoteRef;
use weavepar::prelude::*;
use weavepar::{args, weaveable};

struct Counter {
    hits: u64,
}

weaveable! {
    class Counter as CounterProxy {
        fn new() -> Self { Counter { hits: 0 } }
        fn bump(&mut self, x: u64) {
            self.hits += x;
        }
        fn total(&mut self) -> u64 {
            self.hits
        }
    }
}

fn fabric() -> Arc<InProcFabric> {
    let m = MarshalRegistry::new();
    m.register::<(), ()>("Counter", "new");
    m.register::<(u64,), ()>("Counter", "bump");
    m.register::<(), u64>("Counter", "total");
    let f = InProcFabric::new(1, m);
    f.register_class::<Counter>();
    f
}

/// Replied call straight through the fabric — FIFO-drains the node's queue
/// (packs included) and reads the server-side count.
fn remote_total(f: &InProcFabric, remote: RemoteRef) -> u64 {
    let args = f.marshal().encode_args("Counter", "total", &args![]).unwrap();
    let total = f.marshal().method_id("Counter", "total").unwrap();
    let reply = f.call(remote, total, args, &CallPolicy::unbounded()).unwrap();
    *f.marshal().decode_ret("Counter", "total", &reply).unwrap().downcast::<u64>().unwrap()
}

#[test]
fn packing_plug_unplug_stress_loses_nothing() {
    const CYCLES: usize = 12;
    const THREADS: usize = 4;
    const CALLS: usize = 250;

    let weaver = Weaver::new();
    let f = fabric();
    // One distribution aspect covers the whole class: `bump` and `total`
    // both execute remotely, with replies awaited.
    weaver.plug(
        MppConfig::new("Counter", Pointcut::call("Counter.*"), f.clone())
            .placement(Policy::fixed(0))
            .aspect("Distribution"),
    );
    let c = CounterProxy::construct(&weaver).unwrap();
    let remote = weaver
        .intertype()
        .get_field::<RemoteRef>(c.id(), weavepar::distribution::aspects::REMOTE_FIELD)
        .unwrap();

    let mut expected = 0u64;
    for cycle in 0..CYCLES {
        // Fresh aspect + packer per cycle: a packer stays closed once its
        // aspect is unplugged.
        let (aspect, packer) = message_packing_aspect(
            "Packing",
            Pointcut::call("Counter.bump"),
            f.clone(),
            8,
            Duration::from_secs(3600),
        );
        let plugged = weaver.plug(aspect);

        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..CALLS {
                        c.handle().call("bump", args![1u64]).unwrap();
                    }
                });
            }
            // Unplug while the issuers are mid-burst; vary the timing so
            // different cycles race different phases of the burst.
            std::thread::sleep(Duration::from_micros(100 * (cycle as u64 % 5)));
            packer.unplug(&weaver, &plugged).unwrap();
        });

        expected += (THREADS * CALLS) as u64;
        assert_eq!(packer.pending_calls(), 0, "cycle {cycle}: unplug left a buffered call");
        // A call that raced the unplug ships on its own; everything else
        // went packed or direct. Either way the server saw each exactly once.
        assert_eq!(
            remote_total(&f, remote),
            expected,
            "cycle {cycle}: lost or duplicated calls across the unplug"
        );
        // Replied calls through the woven path are untouched by the (now
        // unplugged) packing aspect.
        assert_eq!(c.total().unwrap(), expected, "cycle {cycle}: replied call disagreed");
    }
}

#[test]
fn packing_replied_calls_identical_plugged_or_not() {
    let weaver = Weaver::new();
    let f = fabric();
    weaver.plug(
        MppConfig::new("Counter", Pointcut::call("Counter.*"), f.clone())
            .placement(Policy::fixed(0))
            .aspect("Distribution"),
    );
    let c = CounterProxy::construct(&weaver).unwrap();

    let (aspect, packer) = message_packing_aspect(
        "Packing",
        Pointcut::call("Counter.bump"),
        f.clone(),
        1024,
        Duration::from_secs(3600),
    );

    // Unplugged: replied total sees every bump immediately.
    c.handle().call("bump", args![5u64]).unwrap();
    assert_eq!(c.total().unwrap(), 5);

    // Plugged: bumps buffer (outside the replied pointcut), total is live.
    let plugged = weaver.plug(aspect);
    c.handle().call("bump", args![7u64]).unwrap();
    assert_eq!(packer.pending_calls(), 1);
    assert_eq!(c.total().unwrap(), 5, "buffered bump not yet visible");

    // Unplugging ships the backlog; replied path identical to before.
    packer.unplug(&weaver, &plugged).unwrap();
    assert_eq!(c.total().unwrap(), 12);
}

mod served_inline {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use weavepar::concurrency::{scope_active, BatchScope};
    use weavepar::distribution::{Bytes, MethodId, RemoteRef};
    use weavepar::prelude::*;
    use weavepar::weave::context;
    use weavepar::weave::object::monitors_held;
    use weavepar::weave::trace::{current_task, push_task};
    use weavepar::weave::value::downcast_ret;
    use weavepar::weave::TaskId;
    use weavepar::{args, weaveable};

    /// Run `f` on its own thread and fail, instead of hanging the suite, if
    /// it does not finish.
    fn watchdog<R: Send + 'static>(what: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(120)).unwrap_or_else(|_| panic!("{what}: hung"))
    }

    /// What a served `Ledger.relay` / `Ledger.hold` reaches from inside the
    /// node, keyed by an argument of the call (constructor arguments are
    /// marshalled, so a served object cannot capture them).
    enum Outside {
        /// `relay` forwards to this object on another node.
        Forward(Arc<InProcFabric>, RemoteRef),
        /// `hold` announces itself on the first, then blocks on the second.
        Latch(SyncSender<()>, Receiver<()>),
    }

    static OUTSIDE: Mutex<Vec<(u64, Outside)>> = Mutex::new(Vec::new());

    fn register(outside: Outside) -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let key = NEXT.fetch_add(1, Ordering::Relaxed);
        OUTSIDE.lock().unwrap().push((key, outside));
        key
    }

    fn take_outside(key: u64) -> Outside {
        let mut outside = OUTSIDE.lock().unwrap();
        let at = outside.iter().position(|(k, _)| *k == key).expect("registered");
        outside.swap_remove(at).1
    }

    struct Ledger {
        total: u64,
    }

    weaveable! {
        class Ledger as LedgerProxy {
            fn new() -> Self { Ledger { total: 0 } }
            fn add(&mut self, x: u64) -> u64 {
                self.total += x;
                self.total
            }
            fn note(&mut self, x: u64) {
                self.total += x;
            }
            fn relay(&mut self, key: u64, x: u64) -> u64 {
                let crate::served_inline::Outside::Forward(fabric, to) =
                    crate::served_inline::take_outside(key)
                else {
                    panic!("relay wants a forward")
                };
                self.total += 1;
                crate::served_inline::add(&fabric, to, x).expect("the far node is up")
            }
            fn hold(&mut self, key: u64) -> u64 {
                let crate::served_inline::Outside::Latch(entered, release) =
                    crate::served_inline::take_outside(key)
                else {
                    panic!("hold wants a latch")
                };
                entered.send(()).expect("test is listening");
                release.recv().expect("test releases");
                key
            }
            fn explode(&mut self) -> u64 {
                panic!("Ledger.explode blew up")
            }
            fn counted_add(&mut self, x: u64) -> u64 {
                use std::sync::atomic::Ordering::SeqCst;
                let inside = crate::served_inline::INSIDE.fetch_add(1, SeqCst) + 1;
                crate::served_inline::MOST_INSIDE.fetch_max(inside, SeqCst);
                std::thread::yield_now();
                self.total += x;
                crate::served_inline::INSIDE.fetch_sub(1, SeqCst);
                self.total
            }
        }
    }

    /// `Ledger.counted_add` bodies executing now, and the most ever inside
    /// at once (one test calls it).
    static INSIDE: AtomicU64 = AtomicU64::new(0);
    static MOST_INSIDE: AtomicU64 = AtomicU64::new(0);

    fn fabric(nodes: usize) -> (Arc<InProcFabric>, MetricsRegistry) {
        let m = MarshalRegistry::new();
        m.register::<(), ()>("Ledger", "new");
        m.register::<(u64,), u64>("Ledger", "add");
        m.register::<(u64,), ()>("Ledger", "note");
        m.register::<(u64, u64), u64>("Ledger", "relay");
        m.register::<(u64,), u64>("Ledger", "hold");
        m.register::<(), u64>("Ledger", "explode");
        m.register::<(u64,), u64>("Ledger", "counted_add");
        let f = InProcFabric::new(nodes, m);
        f.register_class::<Ledger>();
        let registry = MetricsRegistry::new();
        f.install_metrics(&registry, "fabric");
        (f, registry)
    }

    fn method(f: &InProcFabric, name: &str) -> MethodId {
        f.marshal().method_id("Ledger", name).unwrap()
    }

    fn encode(f: &InProcFabric, name: &str, args: &Args) -> Bytes {
        let mut buf = f.buffers().take();
        f.marshal().encode_args_id(method(f, name), args, &mut buf).unwrap();
        buf.freeze()
    }

    fn decode(f: &InProcFabric, name: &str, reply: Bytes) -> u64 {
        let value = f.marshal().decode_ret_id(method(f, name), &mut reply.clone()).unwrap();
        f.buffers().recycle(reply);
        *value.downcast::<u64>().unwrap()
    }

    /// A replied `add` straight through the fabric.
    fn add(f: &InProcFabric, to: RemoteRef, x: u64) -> WeaveResult<u64> {
        let args = encode(f, "add", &args![x]);
        let reply = f.call(to, method(f, "add"), args, &CallPolicy::unbounded())?;
        Ok(decode(f, "add", reply))
    }

    fn served_inline(registry: &MetricsRegistry) -> u64 {
        registry.snapshot().counter("fabric.served_inline").unwrap()
    }

    /// A `Ledger` on `node`. Returns once that node is idle again (a call
    /// has been served inline), so that a lone caller finds the token from
    /// here on. The warm-up adds are all `add(0)`.
    fn ledger_on(f: &InProcFabric, registry: &MetricsRegistry, node: usize) -> RemoteRef {
        let ledger = f.construct_on(node, "Ledger", encode(f, "new", &args![])).unwrap();
        let before = served_inline(registry);
        while served_inline(registry) == before {
            add(f, ledger, 0).unwrap();
        }
        ledger
    }

    /// A `Ledger` stub under the future-returning concurrency module and
    /// RMI: a call returns a future at once, and its chain (synchronisation,
    /// then redirection) runs on a thread of its own.
    fn woven_stub(f: &Arc<InProcFabric>) -> (LedgerProxy, Executor) {
        let weaver = Weaver::new();
        let executor = Executor::thread_per_call();
        let pointcut = Pointcut::call("Ledger.*");
        for aspect in future_concurrency_aspect("Concurrency", pointcut.clone(), executor.clone()) {
            weaver.plug(aspect);
        }
        weaver.plug(RmiConfig::new("Ledger", pointcut, f.clone()).aspect("Rmi"));
        (LedgerProxy::construct(&weaver).unwrap(), executor)
    }

    /// Issue `method` on the stub and wait for its future.
    fn through(stub: &LedgerProxy, method: &'static str, args: Args) -> u64 {
        downcast_ret(resolve_any(stub.handle().call(method, args).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn a_stub_call_queues_at_its_node_while_another_is_held_there() {
        watchdog("two calls on one stub", || {
            let (f, registry) = fabric(1);
            let (stub, executor) = woven_stub(&f);
            let before = served_inline(&registry);
            while served_inline(&registry) == before {
                through(&stub, "add", args![0u64]);
            }
            let calls = || registry.snapshot().counter("fabric.calls").unwrap();
            let (calls_before, inline_before) = (calls(), served_inline(&registry));

            // A: served inline on its thread, and held there.
            let (entered_tx, entered) = sync_channel(1);
            let (release, release_rx) = sync_channel(1);
            let key = register(Outside::Latch(entered_tx, release_rx));
            let a = stub.handle().call("hold", args![key]).unwrap();
            entered.recv().unwrap();
            // B: nothing on the stub holds it back; it reaches the fabric,
            // where the node is busy with A, so it queues there.
            let b = stub.handle().call("add", args![5u64]).unwrap();
            while calls() - calls_before < 2 {
                std::thread::yield_now();
            }
            release.send(()).unwrap();
            assert_eq!(downcast_ret::<u64>(resolve_any(a).unwrap()).unwrap(), key);
            assert_eq!(downcast_ret::<u64>(resolve_any(b).unwrap()).unwrap(), 5);
            executor.wait_idle();
            let calls = calls() - calls_before;
            assert_eq!(calls, 2);
            assert_eq!(served_inline(&registry) - inline_before, calls - 1, "A inline, B queued");
        });
    }

    #[test]
    fn eight_threads_on_one_stub_meet_its_instance_one_at_a_time() {
        const THREADS: u64 = 8;
        const CALLS: u64 = 1_000;
        watchdog("exclusive instance", || {
            let (f, _registry) = fabric(1);
            let (stub, executor) = woven_stub(&f);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        for _ in 0..CALLS {
                            through(&stub, "counted_add", args![1u64]);
                        }
                    });
                }
            });
            executor.wait_idle();
            assert_eq!(through(&stub, "add", args![0u64]), THREADS * CALLS);
            assert_eq!(MOST_INSIDE.load(Ordering::SeqCst), 1, "two calls inside one instance");
        });
    }

    #[test]
    fn oneways_and_packs_run_before_the_replied_call_that_follows_them() {
        watchdog("per-sender FIFO", || {
            let (f, registry) = fabric(1);
            let ledger = ledger_on(&f, &registry, 0);
            let note = method(&f, "note");
            let mut expected = 0;
            for n in [0u64, 1, 2, 7, 100, 5_000, 3, 0, 1] {
                for _ in 0..n {
                    f.send(ledger, note, encode(&f, "note", &args![1u64])).unwrap();
                }
                let mut frame = f.new_pack();
                for _ in 0..n {
                    frame.push(ledger.obj, note, f.marshal(), &args![2u64]).unwrap();
                }
                assert_eq!(f.submit_pack(0, frame).unwrap(), n as usize);
                expected += 3 * n;
                assert_eq!(add(&f, ledger, 0).unwrap(), expected, "after {n} oneways + a pack");
            }
            assert!(served_inline(&registry) > 0);
        });
    }

    #[test]
    fn eight_threads_of_replied_adds_sum_exactly() {
        const THREADS: u64 = 8;
        const CALLS: u64 = 10_000;
        for nodes in [1usize, 2] {
            watchdog("contended adds", move || {
                let (f, registry) = fabric(nodes);
                let ledgers: Vec<_> = (0..nodes).map(|n| ledger_on(&f, &registry, n)).collect();
                std::thread::scope(|s| {
                    for t in 0..THREADS as usize {
                        let (f, ledger) = (&f, ledgers[t % nodes]);
                        s.spawn(move || {
                            let mut last = 0;
                            for _ in 0..CALLS {
                                let total = add(f, ledger, 1).unwrap();
                                assert!(total > last, "totals of one caller only grow");
                                last = total;
                            }
                        });
                    }
                });
                let total: u64 = ledgers.iter().map(|l| add(&f, *l, 0).unwrap()).sum();
                assert_eq!(total, THREADS * CALLS, "{nodes} node(s): lost or doubled adds");
                let snap = registry.snapshot();
                assert!(snap.counter("fabric.served_inline") <= snap.counter("fabric.calls"));
                assert_eq!(snap.gauge("fabric.in_flight"), Some(0));
            });
        }
    }

    #[test]
    fn kill_node_racing_inline_calls_fails_or_answers_every_call() {
        const CALLERS: usize = 4;
        for round in 0..40u64 {
            watchdog("kill vs inline", move || {
                let (f, registry) = fabric(1);
                let ledger = ledger_on(&f, &registry, 0);
                let killed = AtomicBool::new(false);
                let answered = AtomicU64::new(0);
                let (oks, highest) = std::thread::scope(|s| {
                    let callers: Vec<_> = (0..CALLERS)
                        .map(|_| {
                            s.spawn(|| {
                                let (mut oks, mut highest) = (0u64, 0u64);
                                loop {
                                    let after_kill = killed.load(Ordering::SeqCst);
                                    match add(&f, ledger, 1) {
                                        Ok(total) => {
                                            assert!(
                                                !after_kill,
                                                "executed after the kill was seen"
                                            );
                                            answered.fetch_add(1, Ordering::SeqCst);
                                            oks += 1;
                                            highest = highest.max(total);
                                        }
                                        Err(WeaveError::NodeDown { node: 0 }) => {
                                            return (oks, highest);
                                        }
                                        Err(other) => {
                                            panic!("neither a value nor NodeDown: {other}")
                                        }
                                    }
                                }
                            })
                        })
                        .collect();
                    // Let the callers get going; vary how far before the kill.
                    while answered.load(Ordering::SeqCst) < round * 25 {
                        std::thread::yield_now();
                    }
                    f.kill_node(0).unwrap();
                    killed.store(true, Ordering::SeqCst);
                    callers
                        .into_iter()
                        .map(|c| c.join().unwrap())
                        .fold((0, 0), |(oks, highest), (o, h)| (oks + o, highest.max(h)))
                });
                // Every add that executed was answered: the highest total any
                // caller saw is the number of answers.
                assert_eq!(oks, highest, "round {round}: an add executed without an answer");
                assert!(matches!(add(&f, ledger, 1), Err(WeaveError::NodeDown { node: 0 })));
            });
        }
    }

    /// What a node-side advice sees of the thread it runs on.
    #[derive(Debug, PartialEq)]
    struct Seen {
        provenance_depth: usize,
        task: Option<TaskId>,
        in_scope: bool,
    }

    const CALLER_TASK: u64 = 4343;

    #[test]
    fn a_woven_node_sees_none_of_the_callers_context() {
        watchdog("context isolation", || {
            let (f, registry) = fabric(1);
            let ledger = ledger_on(&f, &registry, 0);
            let node = f.node(0).unwrap();
            node.set_woven(true);
            // On the node: an advice that reports what the serving thread
            // carries.
            let (seen_tx, seen_rx) = channel();
            let seen_tx = Mutex::new(seen_tx);
            node.weaver().plug(
                Aspect::named("Spy")
                    .around(Pointcut::call("Ledger.add"), move |inv: &mut Invocation| {
                        let seen = Seen {
                            provenance_depth: context::depth(),
                            task: current_task(),
                            in_scope: scope_active(),
                        };
                        let sent = seen_tx.lock().unwrap().send((seen, monitors_held()));
                        sent.expect("test is listening");
                        inv.proceed()
                    })
                    .build(),
            );

            // The caller: inside an advice (aspect provenance) on Front.outer,
            // with a trace task of its own, under an open batch scope.
            struct Front;
            weaveable! {
                class Front as FrontProxy {
                    fn new() -> Self { Front }
                    fn outer(&mut self) -> u64 { 0 }
                }
            }
            let client = Weaver::new();
            let f2 = f.clone();
            client.plug(
                Aspect::named("Caller")
                    .around(Pointcut::call("Front.outer"), move |_inv: &mut Invocation| {
                        let _task = push_task(Some(TaskId::from_raw(CALLER_TASK)));
                        let scope = BatchScope::enter();
                        let depth = context::depth();
                        // Inline (the node is idle), then queued: a deadline
                        // keeps a call off the inline path.
                        add(&f2, ledger, 1)?;
                        let patient = CallPolicy::with_deadline(Duration::from_secs(60));
                        let args = encode(&f2, "add", &args![1u64]);
                        let reply = f2.call(ledger, method(&f2, "add"), args, &patient)?;
                        let total = decode(&f2, "add", reply);
                        // The caller's own context is back in place.
                        assert!(scope_active());
                        assert_eq!(current_task(), Some(TaskId::from_raw(CALLER_TASK)));
                        assert_eq!(context::depth(), depth);
                        scope.flush();
                        Ok(weavepar::ret!(total))
                    })
                    .build(),
            );
            let front = FrontProxy::construct(&client).unwrap();
            let inline_before = served_inline(&registry);
            assert_eq!(front.outer().unwrap(), 2);
            assert_eq!(served_inline(&registry) - inline_before, 1, "one inline, one queued");

            let (inline, inline_monitors) = seen_rx.recv().unwrap();
            let (queued, queued_monitors) = seen_rx.recv().unwrap();
            // The serve token counts as a held monitor on the caller's
            // thread, so a join in there blocks rather than helps.
            assert_eq!((inline_monitors, queued_monitors), (1, 0));
            assert_eq!(inline, queued, "served inline as on the node thread");
            assert!(!inline.in_scope);
            assert_eq!(inline.task, None, "the served call saw the caller's task");
        });
    }

    #[test]
    fn a_call_served_inline_makes_a_nested_inline_call_to_another_node() {
        watchdog("nested inline", || {
            let (f, registry) = fabric(2);
            let near = ledger_on(&f, &registry, 0);
            let far = ledger_on(&f, &registry, 1);
            let before = served_inline(&registry);
            for i in 1..=100u64 {
                let key = register(Outside::Forward(f.clone(), far));
                let args = encode(&f, "relay", &args![key, 1u64]);
                let reply =
                    f.call(near, method(&f, "relay"), args, &CallPolicy::unbounded()).unwrap();
                assert_eq!(decode(&f, "relay", reply), i, "the far ledger's running total");
            }
            // A on this thread, then B on this thread from inside A.
            assert_eq!(served_inline(&registry) - before, 200);
            assert_eq!(add(&f, near, 0).unwrap(), 100);
        });
    }

    #[test]
    fn a_blocked_call_under_a_deadline_still_times_out() {
        watchdog("deadline", || {
            let (f, registry) = fabric(1);
            let weaver = Weaver::new();
            weaver.plug(
                RmiConfig::new("Ledger", Pointcut::call("Ledger.*"), f.clone())
                    .policy(CallPolicy::with_deadline(Duration::from_millis(20)))
                    .aspect("Rmi"),
            );
            let ledger = LedgerProxy::construct(&weaver).unwrap();
            let inline_before = served_inline(&registry);
            let (entered_tx, entered) = sync_channel(1);
            let (release, release_rx) = sync_channel(1);
            let key = register(Outside::Latch(entered_tx, release_rx));
            let err = ledger.hold(key).unwrap_err();
            assert!(matches!(err, WeaveError::Timeout { waited_ms: 20 }), "{err}");
            // It was executing on the node thread all along.
            entered.recv().unwrap();
            release.send(()).unwrap();
            assert_eq!(served_inline(&registry), inline_before);
            assert_eq!(registry.snapshot().counter("fabric.timeouts"), Some(1));
        });
    }

    #[test]
    fn a_panicking_served_method_fails_only_its_own_call() {
        watchdog("panic containment", || {
            let (f, registry) = fabric(2);
            let weaver = Weaver::new();
            weaver.plug(
                RmiConfig::new("Ledger", Pointcut::call("Ledger.*"), f.clone())
                    .placement(Policy::fixed(0))
                    .aspect("Rmi"),
            );
            let ledger = LedgerProxy::construct(&weaver).unwrap();
            let bystander = ledger_on(&f, &registry, 1);
            assert_eq!(ledger.add(2).unwrap(), 2);
            // An Err through the whole woven stack, never an unwind.
            let err = ledger.explode().unwrap_err();
            assert!(
                matches!(&err, WeaveError::Remote(msg)
                    if msg.contains("node 0: served call panicked: Ledger.explode blew up")),
                "{err}"
            );
            assert!(f.node(0).unwrap().is_down());
            assert!(matches!(ledger.add(1), Err(WeaveError::NodeDown { node: 0 })));
            assert_eq!(add(&f, bystander, 5).unwrap(), 5, "the other node is untouched");
        });
    }
}
