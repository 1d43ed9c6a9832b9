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

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    let fired = Arc::clone(fired);
    Aspect::named("Stress")
        .around(Pointcut::call("Counter.bump"), move |inv: &mut Invocation| {
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
    const QUIESCED_CALLS: u64 = 200;

    let weaver = Weaver::new();
    let fired = Arc::new(AtomicU64::new(0));
    let stop = AtomicBool::new(false);
    let dispatched = AtomicU64::new(0);

    let proxies: Vec<CounterProxy> =
        (0..WORKERS).map(|_| CounterProxy::construct(&weaver).unwrap()).collect();

    std::thread::scope(|s| {
        // Workers: hammer the join point, asserting woven-or-unwoven on every
        // single result. Once the chaos thread signals quiescence (its final
        // unplug happens-before the Release store of `stop`), the *same*
        // thread — with its warm thread-local chain cache — must see only
        // unwoven calls.
        for proxy in &proxies {
            let stop = &stop;
            let dispatched = &dispatched;
            s.spawn(move || {
                let mut x = 1u64;
                while !stop.load(Ordering::Acquire) {
                    let got = proxy.bump(x).unwrap();
                    assert!(
                        got == x || got == x + WOVEN_OFFSET,
                        "torn dispatch: bump({x}) returned {got}"
                    );
                    dispatched.fetch_add(1, Ordering::Relaxed);
                    x += 1;
                }
                for q in 0..QUIESCED_CALLS {
                    assert_eq!(
                        proxy.bump(q).unwrap(),
                        q,
                        "warm thread-local cache served a stale chain after unplug"
                    );
                }
            });
        }

        // Chaos: plug/unplug the aspect as fast as possible, with occasional
        // enable/disable flips and recorder swaps thrown in — every operation
        // that republishes a snapshot.
        let weaver = &weaver;
        let fired = &fired;
        let stop = &stop;
        s.spawn(move || {
            for cycle in 0..CHAOS_CYCLES {
                let plugged = weaver.plug(woven_aspect(fired));
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
            }
            stop.store(true, Ordering::Release);
        });
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
