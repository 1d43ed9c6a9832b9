//! Concurrent plug/unplug stress test for the lock-free snapshot dispatch
//! path.
//!
//! The paper's methodology leans on plugging and unplugging concerns *at run
//! time* (§1, §5). With the generation-stamped snapshot cache, a dispatch
//! racing a plug/unplug must observe either the old aspect set or the new one
//! — never a torn chain, and never a chain from an aspect set that was
//! unplugged *before* the call started.
//!
//! Three properties are exercised here:
//!
//! 1. **Atomicity**: every woven call returns either the unwoven result or
//!    the fully-woven result, even while a chaos thread flips the aspect set
//!    as fast as it can.
//! 2. **No staleness after quiescence**: once `unplug` has returned, no
//!    subsequent call — from a thread with a warm thread-local chain cache or
//!    a cold one — runs the unplugged advice.
//! 3. **Liveness**: nothing deadlocks or panics under the mix of dispatch,
//!    republish and recorder swaps.
//!
//! The last test holds a *bound* view (`Weaver::bind`, made by the heartbeat
//! skeleton once per run) to the same rules, and to a fourth: no call issued
//! after `ObjectSpace::remove` returned is served from what the view
//! resolved earlier.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use weavepar::prelude::*;
use weavepar::weave::Recorder;

struct Counter {
    calls: u64,
}

weavepar::weaveable! {
    class Counter as CounterProxy {
        fn new() -> Self { Counter { calls: 0 } }
        fn bump(&mut self, x: u64) -> u64 { self.calls += 1; x }
    }
}

/// Offset the around-advice adds on top of the base result. A woven call
/// returns `x + WOVEN_OFFSET`, an unwoven call returns `x`; anything else is
/// a torn dispatch.
const WOVEN_OFFSET: u64 = 1_000_000;

fn woven_aspect(fired: &Arc<AtomicU64>) -> Aspect {
    woven_aspect_on("Counter.bump", fired)
}

fn woven_aspect_on(pattern: &str, fired: &Arc<AtomicU64>) -> Aspect {
    let fired = Arc::clone(fired);
    Aspect::named("Stress")
        .around(Pointcut::call(pattern), move |inv: &mut Invocation| {
            fired.fetch_add(1, Ordering::Relaxed);
            let base: u64 = *inv.proceed()?.downcast::<u64>().expect("base returns u64");
            Ok(ret!(base + WOVEN_OFFSET))
        })
        .build()
}

#[test]
fn concurrent_plug_unplug_never_tears_a_dispatch() {
    const WORKERS: usize = 4;
    const CHAOS_CYCLES: usize = 200;
    const RACING_CALLS: u64 = 100;
    const QUIESCED_CALLS: u64 = 200;

    let weaver = Weaver::new();
    let fired = Arc::new(AtomicU64::new(0));
    let stop = AtomicBool::new(false);
    let dispatched = AtomicU64::new(0);
    // The race is gated on counts, not on time. The chaos starts once every
    // worker has made its first call (`started`); the workers race only once
    // the chaos has started (`racing`); and the chaos stops only after its
    // cycles *and* once every worker has made `RACING_CALLS` calls while it
    // ran (`raced`). So every call `dispatched` counts raced the chaos.
    let started = AtomicUsize::new(0);
    let racing = AtomicBool::new(false);
    let raced = AtomicUsize::new(0);

    let proxies: Vec<CounterProxy> =
        (0..WORKERS).map(|_| CounterProxy::construct(&weaver).unwrap()).collect();

    std::thread::scope(|s| {
        // Workers: hammer the join point, asserting woven-or-unwoven on every
        // single result. Once the chaos signals quiescence (its final unplug
        // happens-before the Release store of `stop`), the *same* thread —
        // with its warm thread-local chain cache — must see only unwoven
        // calls.
        let workers: Vec<_> = proxies
            .iter()
            .map(|proxy| {
                let (stop, dispatched) = (&stop, &dispatched);
                let (started, racing, raced) = (&started, &racing, &raced);
                s.spawn(move || {
                    // Counted before it is checked, so the chaos never waits
                    // on a worker whose first call failed.
                    let first = proxy.bump(0);
                    started.fetch_add(1, Ordering::Release);
                    assert_eq!(first.unwrap(), 0, "nothing is plugged until every worker started");
                    while !racing.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    let mut x = 1u64;
                    while !stop.load(Ordering::Acquire) {
                        let got = proxy.bump(x).unwrap();
                        assert!(
                            got == x || got == x + WOVEN_OFFSET,
                            "torn dispatch: bump({x}) returned {got}"
                        );
                        dispatched.fetch_add(1, Ordering::Relaxed);
                        if x == RACING_CALLS {
                            raced.fetch_add(1, Ordering::Release);
                        }
                        x += 1;
                    }
                    for q in 0..QUIESCED_CALLS {
                        assert_eq!(
                            proxy.bump(q).unwrap(),
                            q,
                            "warm thread-local cache served a stale chain after unplug"
                        );
                    }
                })
            })
            .collect();

        // Chaos, on this thread: plug/unplug the aspect as fast as possible,
        // with occasional enable/disable flips and recorder swaps thrown in —
        // every operation that republishes a snapshot. A worker that ended
        // before `stop` panicked, so the chaos stops waiting for it.
        while started.load(Ordering::Acquire) < WORKERS {
            std::thread::yield_now();
        }
        let _stop = SetOnDrop(&stop);
        racing.store(true, Ordering::Release);
        let mut cycle = 0;
        while cycle < CHAOS_CYCLES
            || (raced.load(Ordering::Acquire) < WORKERS && !workers.iter().any(|w| w.is_finished()))
        {
            let plugged = weaver.plug(woven_aspect(&fired));
            if cycle % 7 == 0 {
                weaver.set_enabled(&plugged, false);
                weaver.set_enabled(&plugged, true);
            }
            if cycle % 11 == 0 {
                weaver.set_recorder(Some(Recorder::measuring()));
                weaver.set_recorder(None);
            }
            assert!(weaver.unplug(&plugged), "unplug of a live aspect must succeed");
            std::thread::yield_now();
            cycle += 1;
        }
    });

    assert!(
        dispatched.load(Ordering::Relaxed) > 0,
        "workers never dispatched — stress loop is vacuous"
    );

    // Quiescence from a cold thread too: the workers' warm-cache check ran
    // inside the scope; the main thread (which never dispatched) must equally
    // see the unwoven program, and the advice counter must not move again.
    let baseline = fired.load(Ordering::Relaxed);
    for (i, proxy) in proxies.iter().enumerate() {
        let x = i as u64;
        assert_eq!(proxy.bump(x).unwrap(), x, "stale chain served to a cold thread");
    }
    assert_eq!(
        fired.load(Ordering::Relaxed),
        baseline,
        "unplugged advice fired after unplug returned"
    );
}

#[test]
fn plug_during_dispatch_becomes_visible_without_restart() {
    // The inverse direction: a *plug* concurrent with dispatch must become
    // visible to already-running worker threads (no permanently-stale
    // thread-local cache).
    let weaver = Weaver::new();
    let fired = Arc::new(AtomicU64::new(0));
    let proxy = CounterProxy::construct(&weaver).unwrap();

    std::thread::scope(|s| {
        let weaver = &weaver;
        let fired = &fired;
        let proxy = &proxy;
        s.spawn(move || {
            // Warm the thread-local cache unwoven, then wait for the plug to
            // land and assert this same thread observes it.
            assert_eq!(proxy.bump(1).unwrap(), 1);
            let plugged = weaver.plug(woven_aspect(fired));
            let mut x = 2u64;
            loop {
                let got = proxy.bump(x).unwrap();
                assert!(got == x || got == x + WOVEN_OFFSET);
                if got == x + WOVEN_OFFSET {
                    break;
                }
                x += 1;
            }
            weaver.unplug(&plugged);
        });
    });
    assert!(fired.load(Ordering::Relaxed) > 0);
}

struct Beat;

weavepar::weaveable! {
    class Beat as BeatProxy {
        fn new() -> Self { Beat }
        fn bump(&mut self, x: u64) -> u64 { x }
        fn step(&mut self) {}
        fn run(&mut self, iterations: u64) -> u64 { iterations }
    }
}

/// Sets the flag when dropped, on a panic too, so that no helper thread spins
/// on a driver that is gone.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[test]
fn bound_heartbeat_run_races_plug_unplug_and_a_removal() {
    // One thread drives heartbeat runs, each bound to its three workers at
    // whatever the aspect set is when it starts; a second flips a counting
    // aspect on the call the exchange makes; a third removes the last worker
    // once both are well under way. Every call either runs the advice or does
    // not — and does what the aspect set says whenever that was settled for
    // the whole call — a call issued after `remove` returned is not served,
    // and the runs end with `NoSuchObject` for exactly that worker.
    const WORKERS: usize = 3;
    const WARM_ITERATIONS: u64 = 300;
    const WARM_CYCLES: u64 = 50;

    let weaver = Weaver::new();
    let fired = Arc::new(AtomicU64::new(0));
    let woven_seen = Arc::new(AtomicU64::new(0));
    let iterations = Arc::new(AtomicU64::new(0));
    let removed = Arc::new(AtomicBool::new(false));
    // The flipping thread's position, mod 4: 0 unplugged, 1 plugging,
    // 2 plugged, 3 unplugging. Bumped (`Release`) before a transition starts
    // and after it returned, so a call that reads the same even value
    // (`Acquire`) before and after itself saw that aspect set and no other.
    let phase = Arc::new(AtomicU64::new(0));
    let runs_over = AtomicBool::new(false);

    let (seen, progress, gone) = (woven_seen.clone(), iterations.clone(), removed.clone());
    let flipper = phase.clone();
    let config = HeartbeatConfig {
        class: "Beat",
        workers: WORKERS,
        worker_args: Arc::new(|_rank, _n, _orig: &Args| Ok(args![])),
        run_method: "run",
        iterations: Arc::new(|a: &Args| Ok(*a.get::<u64>(0)?)),
        step_method: "step",
        step_args: Arc::new(|_iteration| Ok(args![])),
        exchange: Arc::new(move |weaver: &Weaver, workers: &[ObjId], iteration| {
            let spare = *workers.last().expect("three workers");
            for &w in workers {
                let x = iteration + w.raw();
                // Read before the call is issued: set means `remove` returned.
                let after_remove = gone.load(Ordering::Acquire);
                let before = flipper.load(Ordering::Acquire);
                match weaver.invoke_call(w, "Beat", "bump", args![x]) {
                    Ok(ret) => {
                        let got = *ret.downcast::<u64>().expect("bump returns u64");
                        assert!(got == x || got == x + WOVEN_OFFSET, "torn: bump({x}) = {got}");
                        if flipper.load(Ordering::Acquire) == before {
                            match before % 4 {
                                0 => assert_eq!(got, x, "stale chain after unplug returned"),
                                2 => assert_eq!(
                                    got,
                                    x + WOVEN_OFFSET,
                                    "plug missed by the next call"
                                ),
                                _ => {}
                            }
                        }
                        assert!(!(w == spare && after_remove), "served after remove returned");
                        seen.fetch_add(u64::from(got != x), Ordering::Relaxed);
                    }
                    Err(WeaveError::NoSuchObject(id)) if id == spare && w == spare => {
                        return Err(WeaveError::NoSuchObject(id));
                    }
                    Err(other) => panic!("bump on {w}: {other:?}"),
                }
            }
            progress.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }),
        collect: Arc::new(|_weaver: &Weaver, workers: &[ObjId]| Ok(ret!(workers.len() as u64))),
    };
    weaver.plug(config.aspect("Partition"));
    let beat = BeatProxy::construct(&weaver).unwrap();
    let workers = weaver.space().ids_of_class("Beat");
    let spare = *workers.last().unwrap();

    std::thread::scope(|s| {
        let driver = s.spawn(|| {
            let _over = SetOnDrop(&runs_over);
            loop {
                // Short runs: each binds anew, under the aspect set of its moment.
                match beat.run(64) {
                    Ok(workers) => assert_eq!(workers, WORKERS as u64),
                    Err(err) => break err,
                }
            }
        });
        s.spawn(|| {
            while !runs_over.load(Ordering::Acquire) {
                phase.fetch_add(1, Ordering::Release);
                let plugged = weaver.plug(woven_aspect_on("Beat.bump", &fired));
                phase.fetch_add(1, Ordering::Release);
                std::thread::yield_now();
                phase.fetch_add(1, Ordering::Release);
                assert!(weaver.unplug(&plugged));
                phase.fetch_add(1, Ordering::Release);
                std::thread::yield_now();
            }
        });
        s.spawn(|| {
            while !runs_over.load(Ordering::Acquire)
                && (iterations.load(Ordering::Relaxed) < WARM_ITERATIONS
                    || phase.load(Ordering::Relaxed) < 4 * WARM_CYCLES)
            {
                std::thread::yield_now();
            }
            assert!(weaver.space().remove(spare));
            removed.store(true, Ordering::Release);
        });
        let err = driver.join().expect("the driver panicked");
        assert!(matches!(err, WeaveError::NoSuchObject(id) if id == spare), "got {err:?}");
    });

    assert!(iterations.load(Ordering::Relaxed) >= WARM_ITERATIONS, "the runs never got going");
    // Each firing produced one woven result, but for a last one whose base
    // call may have found the worker gone.
    let (fired_now, woven) = (fired.load(Ordering::Relaxed), woven_seen.load(Ordering::Relaxed));
    assert!(fired_now == woven || fired_now == woven + 1, "{fired_now} firings, {woven} woven");
    // Quiesced: a view bound now holds the unwoven chain and the live workers.
    let view = weaver.bind(&workers);
    for &w in &workers[..WORKERS - 1] {
        let ret = view.invoke_call(w, "Beat", "bump", args![7u64]).unwrap();
        assert_eq!(*ret.downcast::<u64>().unwrap(), 7);
    }
    assert!(matches!(
        view.invoke_call(spare, "Beat", "bump", args![7u64]),
        Err(WeaveError::NoSuchObject(_))
    ));
    assert_eq!(fired.load(Ordering::Relaxed), fired_now, "unplugged advice fired again");
}
