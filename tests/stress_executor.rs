//! Stress tests for the work-stealing executor (the §4.4 thread-pool
//! optimisation's engine).
//!
//! Three properties beyond the unit tests in `weavepar-concurrency`:
//!
//! 1. **Stealing**: a deep, *one-sided* nested spawn tree — every task
//!    spawned from the same worker, so everything lands on that worker's
//!    local deque — must still spread across the pool: idle peers steal.
//! 2. **Batch quiescence**: `spawn_batch` from many threads at once, with
//!    each batched task spawning nested work, and `wait_idle` must cover
//!    every transitively spawned task.
//! 3. **Skeleton integration**: a farmed computation over the pooled
//!    executor (pack-granular batch submission end to end) matches the
//!    sequential result, repeatedly, while the pool is shared.
//! 4. **Fork/join** (the `fork_join` module): a woven divide-and-conquer far
//!    deeper than the pool is wide completes, because a join on a pool
//!    worker helps instead of blocking — under the rules of
//!    `concurrency::pool`'s "Joins" section (clean context for the helped
//!    task, no helping under a monitor, panics stay in their own future).
//!    A wait for a held monitor helps by the same rules, and a farm whose
//!    packs all meet at one object stays within the pool's nesting bound.
//!    The Table 1 sieves, the sort, the dynamic-farm render and the
//!    concurrent heartbeat share one process-wide pool, and run on it at
//!    once. None of these tests sleeps; each runs under a watchdog
//!    that fails instead of hanging.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use weavepar::concurrency::{BatchScope, Executor, ThreadPool};

/// Spawn a chain of depth `depth`; every level fans out `width` leaves and
/// recurses once — all from whichever worker runs it.
fn seed_tree(
    pool: &Arc<ThreadPool>,
    depth: usize,
    width: usize,
    running: &Arc<AtomicUsize>,
    peak: &Arc<AtomicUsize>,
    done: &Arc<AtomicUsize>,
) {
    for _ in 0..width {
        let (running, peak, done) = (running.clone(), peak.clone(), done.clone());
        pool.spawn(move || {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(5));
            running.fetch_sub(1, Ordering::SeqCst);
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    if depth > 0 {
        let pool2 = pool.clone();
        let (running, peak, done) = (running.clone(), peak.clone(), done.clone());
        pool.spawn(move || {
            seed_tree(&pool2, depth - 1, width, &running, &peak, &done);
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
}

#[test]
fn deep_nested_spawns_from_one_worker_are_stolen() {
    let pool = ThreadPool::new(4, "steal-stress");
    let running = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicUsize::new(0));

    // One injector submission; every other task is spawned from a worker
    // thread, so it is seeded on a single worker's LIFO deque.
    let depth = 6;
    let width = 4;
    let pool2 = pool.clone();
    let (r2, k2, d2) = (running.clone(), peak.clone(), done.clone());
    pool.spawn(move || {
        seed_tree(&pool2, depth, width, &r2, &k2, &d2);
    });
    pool.wait_idle();

    let expected = (depth + 1) * width + depth; // leaves + recursion tasks
    assert_eq!(done.load(Ordering::SeqCst), expected, "every spawned task ran");
    assert!(
        peak.load(Ordering::SeqCst) > 1,
        "peers never stole from the seeding worker (peak parallelism 1)"
    );
}

#[test]
fn concurrent_spawn_batches_reach_quiescence() {
    let pool = ThreadPool::new(4, "batch-stress");
    let hits = Arc::new(AtomicUsize::new(0));
    let submitters = 4;
    let batches = 8;
    let batch_size = 32;

    let mut threads = Vec::new();
    for _ in 0..submitters {
        let pool = pool.clone();
        let hits = hits.clone();
        threads.push(std::thread::spawn(move || {
            for _ in 0..batches {
                let pool2 = pool.clone();
                let hits2 = hits.clone();
                pool.spawn_batch((0..batch_size).map(move |i| {
                    let pool3 = pool2.clone();
                    let hits3 = hits2.clone();
                    move || {
                        hits3.fetch_add(1, Ordering::Relaxed);
                        // Every fourth batched task spawns a straggler, so
                        // wait_idle must cover nested work too.
                        if i % 4 == 0 {
                            let hits4 = hits3.clone();
                            pool3.spawn(move || {
                                hits4.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    }
                }));
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    pool.wait_idle();

    let direct = submitters * batches * batch_size;
    let nested = submitters * batches * batch_size / 4;
    assert_eq!(hits.load(Ordering::Relaxed), direct + nested);
    assert_eq!(pool.in_flight(), 0, "wait_idle returned with work in flight");
}

#[test]
fn batch_scope_defers_across_repeated_rounds() {
    // The executor-level deferral the skeletons rely on, exercised directly
    // under contention: rounds of scoped spawns against a shared pool.
    let executor = Executor::pool(4, "scope-stress");
    let hits = Arc::new(AtomicUsize::new(0));
    for _ in 0..50 {
        let scope = BatchScope::enter();
        for _ in 0..20 {
            let h = hits.clone();
            executor.spawn(move || {
                h.fetch_add(1, Ordering::Relaxed);
            });
        }
        scope.flush();
    }
    executor.wait_idle();
    assert_eq!(hits.load(Ordering::Relaxed), 1000);
}

#[test]
fn both_schedulers_agree_under_load() {
    // Named for the two backends it once compared; the case is the nested
    // workload: every job spawns a second one from inside the pool, and
    // `wait_idle` has to cover both generations.
    let pool = ThreadPool::new(3, "agree");
    let hits = Arc::new(AtomicUsize::new(0));
    for _ in 0..100 {
        let pool2 = pool.clone();
        let h = hits.clone();
        pool.spawn(move || {
            h.fetch_add(1, Ordering::Relaxed);
            let h2 = h.clone();
            pool2.spawn(move || {
                h2.fetch_add(1, Ordering::Relaxed);
            });
        });
    }
    pool.wait_idle();
    assert_eq!(hits.load(Ordering::Relaxed), 200);
}

mod fork_join {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{channel, Sender};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    use weavepar::concurrency::{
        future_aspect, future_concurrency_aspect, resolve_any, scope_active, BatchScope, Executor,
        FutureAny, FutureValue,
    };
    use weavepar::prelude::*;
    use weavepar::weave::aspect::precedence;
    use weavepar::weave::object::MonitorGuard;
    use weavepar::weave::trace::{current_task, push_task};
    use weavepar::weave::value::downcast_ret;
    use weavepar::weave::{Recorder, TaskId};
    use weavepar::{args, ret};
    use weavepar_apps::heat::{solve_heartbeat_concurrent, solve_sequential};
    use weavepar_apps::mandel::{
        mandel_protocol, render_dynamic, render_sequential, MandelbrotProxy,
    };
    use weavepar_apps::sieve::{build_sieve, run_sieve, sequential_sieve, SieveConfig};
    use weavepar_apps::sort::sort_divide_conquer;

    /// Run `f` on its own thread and fail, instead of hanging the suite, if
    /// it does not finish (on the parent commit the nested joins deadlock).
    fn watchdog<R: Send + 'static>(what: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(120)).unwrap_or_else(|_| panic!("{what}: hung"))
    }

    /// A pool executor with its scheduler counters readable by name.
    fn metered_pool(size: usize) -> (Executor, MetricsRegistry) {
        let executor = Executor::pool(size, "fork-join");
        let registry = MetricsRegistry::new();
        executor.install_metrics(&registry, "pool");
        (executor, registry)
    }

    fn quiesce(executor: &Executor) {
        executor.wait_idle();
        assert_eq!(executor.tracker().in_flight(), 0, "wait_idle returned with work in flight");
    }

    struct Summer;

    weavepar::weaveable! {
        class Summer as SummerProxy {
            fn new() -> Self { Summer }
            fn solve(&mut self, lo: u64, hi: u64) -> u64 {
                (lo..hi).sum()
            }
        }
    }

    /// Binary divide down to single elements: `1 << depth` leaves.
    fn summer_config() -> DivideConquerConfig {
        DivideConquerConfig {
            class: "Summer",
            method: "solve",
            should_divide: Arc::new(|a: &Args| Ok(a.get::<u64>(1)? - a.get::<u64>(0)? > 1)),
            divide: Arc::new(|a: &Args| {
                let (lo, hi) = (*a.get::<u64>(0)?, *a.get::<u64>(1)?);
                let mid = lo + (hi - lo) / 2;
                Ok(vec![args![lo, mid], args![mid, hi]])
            }),
            worker_args: Arc::new(|_sub| Ok(args![])),
            combine: Arc::new(|vs: Vec<AnyValue>| {
                let mut total = 0u64;
                for v in vs {
                    total += downcast_ret::<u64>(v)?;
                }
                Ok(ret!(total))
            }),
        }
    }

    #[test]
    fn depth_12_fork_join_completes_on_pools_narrower_than_the_tree() {
        for size in [1, 2, 4] {
            let (total, helped, divides) = watchdog("depth-12 fork/join", move || {
                let (executor, registry) = metered_pool(size);
                let weaver = Weaver::new();
                weaver.register_class::<Summer>();
                weaver.plug(summer_config().metrics(&registry).aspect("dc"));
                weaver.plug(future_aspect(
                    "async",
                    Pointcut::call("Summer.solve"),
                    executor.clone(),
                ));
                let root = SummerProxy::construct(&weaver).unwrap();
                let raw = root.handle().call("solve", args![0u64, 1u64 << 12]).unwrap();
                let total = downcast_ret::<u64>(resolve_any(raw).unwrap()).unwrap();
                quiesce(&executor);
                let snap = registry.snapshot();
                (total, snap.counter("pool.helped").unwrap(), snap.counter("dc.divides").unwrap())
            });
            assert_eq!(total, (0..1u64 << 12).sum::<u64>(), "{size} workers");
            assert_eq!(divides, (1 << 12) - 1, "the whole tree unfolded ({size} workers)");
            assert!(helped >= 1, "joins on a worker run queued tasks ({size} workers)");
            if size == 1 {
                // One worker: only the root call is started by the idle loop.
                assert_eq!(helped, 2 * divides, "every sub-call ran inline in a join");
            }
        }
    }

    #[test]
    fn sort_divide_conquer_runs_on_the_pool_at_any_threshold() {
        let mut seed = 12u64;
        let xs: Vec<u64> = (0..6_000)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                seed >> 33
            })
            .collect();
        let mut expect = xs.clone();
        expect.sort_unstable();
        for threshold in [1, 64, 1024] {
            let input = xs.clone();
            let got = watchdog("sort_divide_conquer", move || {
                sort_divide_conquer(input, threshold, true).unwrap()
            });
            assert_eq!(got, expect, "threshold {threshold}");
        }
    }

    #[test]
    fn concurrent_callers_share_the_sort_pool() {
        // Four callers at once on the one process-wide pool: a join that
        // helps may run another caller's sub-problem, and each caller's
        // result is still its own. At 40 000 items the upper merges build
        // packs of recycled sizes, so the callers also hand each other
        // buffers that another caller's merge filled.
        let inputs: Vec<Vec<u64>> = (0..4u64)
            .map(|caller| {
                let mut seed = 31 + caller;
                (0..40_000)
                    .map(|_| {
                        seed = seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        seed >> 33
                    })
                    .collect()
            })
            .collect();
        for threshold in [1, 64, 1024] {
            let callers = inputs.clone();
            let got = watchdog("four concurrent sort_divide_conquer callers", move || {
                let start = Arc::new(Barrier::new(callers.len()));
                let threads: Vec<_> = callers
                    .into_iter()
                    .map(|xs| {
                        let start = start.clone();
                        std::thread::spawn(move || {
                            start.wait();
                            sort_divide_conquer(xs, threshold, true).unwrap()
                        })
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().unwrap()).collect::<Vec<_>>()
            });
            for (got, xs) in got.iter().zip(&inputs) {
                let mut expect = xs.clone();
                expect.sort_unstable();
                assert_eq!(got, &expect, "threshold {threshold}");
            }
        }
    }

    /// Run `f` on a thread of its own once every party of `start` is there.
    fn after<R: Send + 'static>(
        start: &Arc<Barrier>,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> std::thread::JoinHandle<R> {
        let start = start.clone();
        std::thread::spawn(move || {
            start.wait();
            f()
        })
    }

    #[test]
    fn every_concurrent_app_shares_the_one_pool_at_once() {
        // Pool workers park on reply slots (a queued remote call) next to
        // workers whose joins help: node threads, not pool workers, serve the
        // queued requests, and a dynamic-farm pack waits for an idle worker
        // only while every worker is held by a pack that is running.
        const MAX: u64 = 20_000;
        let mut seed = 77u64;
        let xs: Vec<u64> = (0..5_000)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                seed >> 33
            })
            .collect();
        let (width, height, iters) = (32, 16, 60);
        let (len, initial, left, right, steps) = (32, 0.0, 2.0, -1.0, 30);
        for _round in 0..3 {
            let input = xs.clone();
            let (sieves, sorted, image, rod) = watchdog("every app on one pool", move || {
                let rows = [SieveConfig::pipe_rmi, SieveConfig::farm_rmi, SieveConfig::farm_drmi];
                let runs: Vec<_> = rows
                    .into_iter()
                    .map(|row| build_sieve(SieveConfig { packs: 8, nodes: 3, ..row(4) }))
                    .collect();
                let start = Arc::new(Barrier::new(runs.len() + 3));
                let sieves: Vec<_> = runs
                    .into_iter()
                    .map(|run| {
                        after(&start, move || (run.config.label(), run_sieve(&run, MAX).unwrap()))
                    })
                    .collect();
                let image = after(&start, move || render_dynamic(width, height, iters, 3, 6));
                let rod = after(&start, move || {
                    solve_heartbeat_concurrent(len, initial, left, right, steps, 4)
                });
                start.wait();
                let sorted = sort_divide_conquer(input, 64, true).unwrap();
                let sieves: Vec<_> = sieves.into_iter().map(|t| t.join().unwrap()).collect();
                (sieves, sorted, image.join().unwrap().unwrap(), rod.join().unwrap().unwrap())
            });
            let primes = sequential_sieve(MAX);
            for (label, got) in sieves {
                assert_eq!(got, primes, "{label}");
            }
            let mut expect = xs.clone();
            expect.sort_unstable();
            assert_eq!(sorted, expect);
            assert_eq!(image, render_sequential(width, height, iters));
            let reference = solve_sequential(len, initial, left, right, steps);
            assert_eq!(rod.len(), reference.len());
            assert!(rod.iter().zip(&reference).all(|(a, b)| (a - b).abs() < 1e-9), "{rod:?}");
        }
    }

    #[test]
    fn an_outside_taker_is_woken_for_every_fulfilment_on_the_pool() {
        const N: usize = 10_000;
        let taken = watchdog("10 000 futures fulfilled by pool workers", || {
            let executor = Executor::pool(2, "fulfil");
            let futures: Vec<FutureValue<usize>> = (0..N).map(|_| FutureValue::new()).collect();
            executor.spawn_batch(futures.iter().cloned().enumerate().map(|(i, f)| {
                move || {
                    f.fulfill(i);
                }
            }));
            let taken: Vec<usize> = futures.iter().map(|f| f.take().unwrap()).collect();
            quiesce(&executor);
            taken
        });
        assert_eq!(taken, (0..N).collect::<Vec<_>>());
    }

    /// What a frame sees of its thread-local weaving context.
    #[derive(Debug, PartialEq)]
    struct Seen {
        task: Option<TaskId>,
        in_scope: bool,
    }

    fn look() -> Seen {
        Seen { task: current_task(), in_scope: scope_active() }
    }

    struct Probe;

    weavepar::weaveable! {
        class Probe as ProbeProxy {
            fn new() -> Self { Probe }
            fn outer(&mut self) -> u64 { 1 }
            fn ping(&mut self) -> u64 { 2 }
            fn explode(&mut self) -> u64 { panic!("Probe.explode blew up") }
        }
    }

    /// A 1-worker pool whose worker sits in a join it can only leave by
    /// helping: `Probe.outer` is woven with an advice that waits on `gate`
    /// (with aspect provenance, a trace task and a batch scope of its own),
    /// and the test fulfils `gate` only after the calls it queued behind it
    /// have completed.
    struct Gated {
        executor: Executor,
        registry: MetricsRegistry,
        weaver: Weaver,
        probe: ProbeProxy,
        gate: FutureAny,
        /// What the waiting frame saw after its join returned.
        after_join: std::sync::mpsc::Receiver<Seen>,
        outer: AnyValue,
    }

    const WAITING_TASK: u64 = 4242;

    fn gated() -> Gated {
        let (executor, registry) = metered_pool(1);
        let weaver = Weaver::new();
        let gate = FutureAny::new();
        let (entered_tx, entered_rx) = channel();
        let (after_tx, after_join) = channel();
        let (gate2, entered_tx, after_tx) =
            (gate.clone(), parking_lot::Mutex::new(entered_tx), parking_lot::Mutex::new(after_tx));
        weaver.plug(
            Aspect::named("Gate")
                .precedence(precedence::PARTITION)
                .around(Pointcut::call("Probe.outer"), move |inv: &mut Invocation| {
                    let _task = push_task(Some(TaskId::from_raw(WAITING_TASK)));
                    let scope = BatchScope::enter();
                    entered_tx.lock().send(()).expect("test is listening");
                    gate2.take()?;
                    after_tx.lock().send(look()).expect("test is listening");
                    scope.flush();
                    inv.proceed()
                })
                .build(),
        );
        weaver.plug(future_aspect("async", Pointcut::call("Probe.*"), executor.clone()));
        let probe = ProbeProxy::construct(&weaver).unwrap();
        let outer = probe.handle().call("outer", args![]).unwrap();
        entered_rx.recv().expect("the worker reached the gate");
        Gated { executor, registry, weaver, probe, gate, after_join, outer }
    }

    impl Gated {
        /// Open the gate and check the waiting frame found its context back.
        fn release(self) -> (Executor, MetricsRegistry) {
            assert!(self.gate.fulfill(Ok(ret!())));
            let expect = Seen { task: Some(TaskId::from_raw(WAITING_TASK)), in_scope: true };
            assert_eq!(self.after_join.recv().unwrap(), expect, "waiting frame's own context");
            assert_eq!(downcast_ret::<u64>(resolve_any(self.outer).unwrap()).unwrap(), 1);
            quiesce(&self.executor);
            (self.executor, self.registry)
        }
    }

    #[test]
    fn a_helped_task_sees_its_own_context_not_the_waiting_frames() {
        watchdog("context isolation", || {
            let g = gated();
            // An advice on ping, which the test issues with no trace task:
            // it must not see the waiting frame's, wherever it runs.
            let leaked = Arc::new(AtomicBool::new(false));
            let leaked2 = leaked.clone();
            g.weaver.plug(
                Aspect::named("Spy")
                    .precedence(precedence::PARTITION)
                    .around(Pointcut::call("Probe.ping"), move |inv: &mut Invocation| {
                        if current_task().is_some() {
                            leaked2.store(true, Ordering::SeqCst);
                        }
                        inv.proceed()
                    })
                    .build(),
            );
            let recorder = Recorder::measuring();
            g.weaver.set_recorder(Some(recorder.clone()));

            // Queued behind the gate, so only the joining worker can run them.
            let ping = g.probe.handle().call("ping", args![]).unwrap();
            let (seen_tx, seen_rx) = channel::<(Seen, u64)>();
            let nested = g.executor.clone();
            g.executor.spawn(move || {
                let seen = look();
                // Its own spawn goes out at once (not into the waiting
                // frame's scope), or this join would never return.
                let child = FutureValue::new();
                let setter = child.clone();
                nested.spawn(move || {
                    setter.fulfill(3u64);
                });
                seen_tx.send((seen, child.take().unwrap())).expect("test is listening");
            });
            assert_eq!(downcast_ret::<u64>(resolve_any(ping).unwrap()).unwrap(), 2);
            let clean = Seen { task: None, in_scope: false };
            assert_eq!(seen_rx.recv().unwrap(), (clean, 3), "helped task starts clean");

            g.weaver.set_recorder(None);
            let (_executor, registry) = g.release();
            assert!(!leaked.load(Ordering::SeqCst), "helped ping saw the waiting frame's task");
            let trace = recorder.finish();
            let ping = trace.tasks.iter().find(|t| t.signature.method == "ping").unwrap();
            assert_eq!(ping.parent, None, "parent edge comes from ping's own captured context");
            assert_eq!(registry.snapshot().counter("pool.helped"), Some(3));
        });
    }

    #[test]
    fn a_panicking_helped_call_fails_only_its_own_future() {
        watchdog("panicking helped call", || {
            let g = gated();
            let boom = g.probe.handle().call("explode", args![]).unwrap();
            let ping = g.probe.handle().call("ping", args![]).unwrap();
            let err = resolve_any(boom).unwrap_err();
            assert!(matches!(err, WeaveError::App(_)), "typed failure, not a hang: {err:?}");
            assert_eq!(downcast_ret::<u64>(resolve_any(ping).unwrap()).unwrap(), 2);
            let probe = ProbeProxy::construct(&g.weaver).unwrap();
            let (executor, registry) = g.release();
            assert_eq!(registry.snapshot().counter("pool.helped"), Some(2));
            // The worker outlived the panic it helped into.
            let again = probe.handle().call("ping", args![]).unwrap();
            assert_eq!(downcast_ret::<u64>(resolve_any(again).unwrap()).unwrap(), 2);
            quiesce(&executor);
        });
    }

    /// `gated`'s twin for a monitor wait: Figure 12's module on `Probe.*`
    /// over a 1-worker pool, and the test holding the monitor of the probe
    /// that `Probe.outer` is called on. An advice ahead of the
    /// synchronisation advice (with a trace task and a batch scope of its
    /// own) holds the worker until the test has queued the calls it wants
    /// helped: a monitor wait that finds nothing runnable blocks on the
    /// monitor and looks no further.
    struct MonitorGated {
        executor: Executor,
        registry: MetricsRegistry,
        weaver: Weaver,
        /// A second probe, whose calls take a monitor nobody holds.
        other: ProbeProxy,
        monitor: MonitorGuard,
        go: Sender<()>,
        /// What the waiting frame saw once it had the monitor.
        after_wait: std::sync::mpsc::Receiver<Seen>,
        outer: AnyValue,
    }

    fn monitor_gated() -> MonitorGated {
        let (executor, registry) = metered_pool(1);
        let weaver = Weaver::new();
        let (entered_tx, entered_rx) = channel();
        let (go, go_rx) = channel::<()>();
        let (after_tx, after_wait) = channel();
        let (entered_tx, go_rx, after_tx) = (
            parking_lot::Mutex::new(entered_tx),
            parking_lot::Mutex::new(go_rx),
            parking_lot::Mutex::new(after_tx),
        );
        weaver.plug(
            Aspect::named("Hold")
                .precedence(precedence::PARTITION)
                .around(Pointcut::call("Probe.outer"), move |inv: &mut Invocation| {
                    let _task = push_task(Some(TaskId::from_raw(WAITING_TASK)));
                    let scope = BatchScope::enter();
                    entered_tx.lock().send(()).expect("test is listening");
                    go_rx.lock().recv().expect("the test lets the worker on");
                    // The synchronisation advice waits for the test's monitor.
                    let ret = inv.proceed();
                    after_tx.lock().send(look()).expect("test is listening");
                    scope.flush();
                    ret
                })
                .build(),
        );
        let module =
            future_concurrency_aspect("Concurrency", Pointcut::call("Probe.*"), executor.clone());
        for aspect in module {
            weaver.plug(aspect);
        }
        let held = ProbeProxy::construct(&weaver).unwrap();
        let other = ProbeProxy::construct(&weaver).unwrap();
        let monitor = weaver.space().monitor(held.handle().id()).unwrap();
        let outer = held.handle().call("outer", args![]).unwrap();
        entered_rx.recv().expect("the worker reached the advice");
        MonitorGated { executor, registry, weaver, other, monitor, go, after_wait, outer }
    }

    impl MonitorGated {
        /// Let the worker on into the monitor wait, with the queued calls.
        fn wait(&self) {
            self.go.send(()).expect("the worker is held in the advice");
        }

        /// Drop the monitor and check the waiting frame found its context back.
        fn release(self) -> (Executor, MetricsRegistry) {
            drop(self.monitor);
            let expect = Seen { task: Some(TaskId::from_raw(WAITING_TASK)), in_scope: true };
            assert_eq!(self.after_wait.recv().unwrap(), expect, "waiting frame's own context");
            assert_eq!(downcast_ret::<u64>(resolve_any(self.outer).unwrap()).unwrap(), 1);
            quiesce(&self.executor);
            (self.executor, self.registry)
        }
    }

    #[test]
    fn a_task_helped_in_a_monitor_wait_sees_its_own_context_and_batch_scope() {
        watchdog("context isolation in a monitor wait", || {
            let g = monitor_gated();
            let leaked = Arc::new(AtomicBool::new(false));
            let leaked2 = leaked.clone();
            g.weaver.plug(
                Aspect::named("Spy")
                    .precedence(precedence::PARTITION)
                    .around(Pointcut::call("Probe.ping"), move |inv: &mut Invocation| {
                        if current_task().is_some() || scope_active() {
                            leaked2.store(true, Ordering::SeqCst);
                        }
                        inv.proceed()
                    })
                    .build(),
            );
            let ping = g.other.handle().call("ping", args![]).unwrap();
            let (seen_tx, seen_rx) = channel::<(Seen, u64)>();
            let nested = g.executor.clone();
            g.executor.spawn(move || {
                let seen = look();
                // Its own spawn goes out at once (not into the waiting
                // frame's scope), or this join would never return.
                let child = FutureValue::new();
                let setter = child.clone();
                nested.spawn(move || {
                    setter.fulfill(3u64);
                });
                seen_tx.send((seen, child.take().unwrap())).expect("test is listening");
            });
            g.wait();
            // Both complete while the test still holds the monitor.
            assert_eq!(downcast_ret::<u64>(resolve_any(ping).unwrap()).unwrap(), 2);
            let clean = Seen { task: None, in_scope: false };
            assert_eq!(seen_rx.recv().unwrap(), (clean, 3), "helped task starts clean");
            let (_executor, registry) = g.release();
            assert!(!leaked.load(Ordering::SeqCst), "helped ping saw the waiting frame's context");
            assert_eq!(registry.snapshot().counter("pool.helped"), Some(3));
        });
    }

    #[test]
    fn a_panicking_call_helped_in_a_monitor_wait_fails_only_its_own_future() {
        watchdog("panicking call in a monitor wait", || {
            let g = monitor_gated();
            let boom = g.other.handle().call("explode", args![]).unwrap();
            let ping = g.other.handle().call("ping", args![]).unwrap();
            g.wait();
            let err = resolve_any(boom).unwrap_err();
            assert!(matches!(err, WeaveError::App(_)), "typed failure, not a hang: {err:?}");
            assert_eq!(downcast_ret::<u64>(resolve_any(ping).unwrap()).unwrap(), 2);
            let probe = ProbeProxy::construct(&g.weaver).unwrap();
            let (executor, registry) = g.release();
            assert_eq!(registry.snapshot().counter("pool.helped"), Some(2));
            // The worker outlived the panic it helped into.
            let again = probe.handle().call("ping", args![]).unwrap();
            assert_eq!(downcast_ret::<u64>(resolve_any(again).unwrap()).unwrap(), 2);
            quiesce(&executor);
        });
    }

    /// A farm with one worker object: every pack meets at its monitor. A
    /// worker that finds it held helps, and would nest a wait inside every
    /// pack it helps (8 192 deep) if the pool did not bound the nesting.
    #[test]
    fn a_farm_whose_packs_all_meet_at_one_object_completes_on_the_pool() {
        let (width, height, max_iter) = (64, 8192, 32);
        let reference = render_sequential(width, height, max_iter);
        for size in [1, 2, 4] {
            let image = watchdog("a one-object farm", move || {
                let executor = Executor::pool(size, "one-object");
                let weaver = Weaver::new();
                let protocol = mandel_protocol(1, height as usize);
                weaver.plug(FarmConfig::new(protocol).aspect("Partition.farm"));
                let pointcut = Pointcut::call("Mandelbrot.render_rows");
                for aspect in future_concurrency_aspect("Concurrency", pointcut, executor.clone()) {
                    weaver.plug(aspect);
                }
                let m = MandelbrotProxy::construct(&weaver, width, height, max_iter).unwrap();
                let rows = (0..height).collect::<Pack>();
                let raw = m.handle().call("render_rows", args![rows]).unwrap();
                let image = downcast_ret::<Pack>(resolve_any(raw).unwrap()).unwrap();
                quiesce(&executor);
                image.to_vec()
            });
            assert_eq!(image, reference, "{size} workers");
        }
    }

    struct Vault {
        inside: bool,
    }

    impl Weaveable for Vault {
        const CLASS: &'static str = "Vault";

        fn construct(_: Args) -> WeaveResult<Self> {
            Ok(Vault { inside: false })
        }

        fn dispatch(&mut self, method: &'static str, mut args: Args) -> WeaveResult<AnyValue> {
            match method {
                // The critical section: joins a future in the middle of it.
                "enter" => {
                    let gate: FutureAny = args.take(0)?;
                    let entered: Sender<()> = args.take(1)?;
                    self.inside = true;
                    entered.send(()).expect("test is listening");
                    let joined = gate.take();
                    self.inside = false;
                    joined
                }
                "poke" => Ok(ret!(self.inside)),
                other => {
                    Err(WeaveError::NoSuchMethod { class: "Vault".into(), method: other.into() })
                }
            }
        }

        fn methods() -> &'static [&'static str] {
            &["enter", "poke"]
        }
    }

    #[test]
    fn a_join_under_a_monitor_never_lets_another_call_into_the_critical_section() {
        watchdog("monitor rule", || {
            let (executor, registry) = metered_pool(1);
            let weaver = Weaver::new();
            weaver.register_class::<Vault>();
            for aspect in future_concurrency_aspect(
                "Concurrency",
                Pointcut::call("Vault.*"),
                executor.clone(),
            ) {
                weaver.plug(aspect);
            }
            let vault = weaver.construct_dyn("Vault", args![]).unwrap();
            let gate = FutureAny::new();
            let (entered_tx, entered_rx) = channel::<()>();
            let enter = weaver
                .invoke_call(vault, "Vault", "enter", args![gate.clone(), entered_tx])
                .unwrap();
            entered_rx.recv().expect("the worker is inside the critical section");
            // Queued behind it on the only worker. Helping here would run
            // `poke` inside `enter`'s critical section (the monitor is
            // re-entrant); the rule makes the worker block instead.
            let poke = weaver.invoke_call(vault, "Vault", "poke", args![]).unwrap();
            assert!(gate.fulfill(Ok(ret!())));
            resolve_any(enter).unwrap();
            let inside = downcast_ret::<bool>(resolve_any(poke).unwrap()).unwrap();
            assert!(!inside, "poke ran inside enter's critical section");
            quiesce(&executor);
            assert_eq!(registry.snapshot().counter("pool.helped"), Some(0));
        });
    }

    #[test]
    fn joins_from_the_client_thread_do_not_help() {
        let (executor, registry) = metered_pool(2);
        let weaver = Weaver::new();
        weaver.plug(future_aspect("async", Pointcut::call("Probe.ping"), executor.clone()));
        let probe = ProbeProxy::construct(&weaver).unwrap();
        let pending: Vec<AnyValue> =
            (0..64).map(|_| probe.handle().call("ping", args![]).unwrap()).collect();
        for ret in pending {
            assert_eq!(downcast_ret::<u64>(resolve_any(ret).unwrap()).unwrap(), 2);
        }
        quiesce(&executor);
        let snap = registry.snapshot();
        assert_eq!(
            (snap.counter("pool.helped"), snap.counter("pool.join_parks")),
            (Some(0), Some(0))
        );
    }
}
