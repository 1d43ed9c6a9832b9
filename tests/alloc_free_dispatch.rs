//! Proof of the inline-value fast path: steady-state scalar-argument
//! dispatch through a plugged aspect chain performs **zero heap
//! allocations** (PR 9 tentpole acceptance).
//!
//! A counting wrapper around the system allocator is installed as the
//! global allocator for this test binary only. Each test warms the weaver
//! (first calls populate dispatch tables and advice-chain caches), then
//! counts allocations across a burst of steady-state calls.
//!
//! The counter is per thread: the harness runs the tests of this binary on
//! parallel threads, and a sibling test's set-up must not land in another
//! test's measuring window. (Every measured call is synchronous, so all of
//! its allocations would be made by the measuring thread — including the
//! replied remote call, which an idle node serves on the caller's thread.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use weavepar::prelude::*;
use weavepar::weaveable;

/// Counts the calling thread's allocations while its `COUNTING` flag is
/// set; delegates to [`System`].
struct CountingAlloc;

thread_local! {
    // Const-initialised and without destructors: reading them allocates
    // nothing and stays valid during thread teardown.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.with(|c| c.get()) {
        ALLOCS.with(|a| a.set(a.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Count allocations performed by `f` on the calling thread.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (usize, T) {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(|a| a.get()), out)
}

struct Alu;

weaveable! {
    class Alu as AluProxy {
        fn new() -> Self { Alu }
        fn fma(&mut self, a: u64, b: u64, c: u64, d: u64) -> u64 {
            a.wrapping_mul(b).wrapping_add(c).wrapping_mul(d | 1)
        }
        fn poke(&mut self, x: u64) -> u64 { x.wrapping_add(1) }
    }
}

fn plugged_proxy(aspects: usize) -> AluProxy {
    let weaver = Weaver::new();
    for i in 0..aspects {
        weaver.plug(
            Aspect::named(format!("P{i}"))
                .around(Pointcut::call("Alu.*"), |inv: &mut Invocation| inv.proceed())
                .build(),
        );
    }
    AluProxy::construct(&weaver).unwrap()
}

#[test]
fn steady_state_scalar_dispatch_is_allocation_free() {
    let proxy = plugged_proxy(3);
    // Warm-up: the first calls build dispatch tables and advice chains.
    for i in 0..16 {
        proxy.fma(i, i + 1, i + 2, i + 3).unwrap();
        proxy.poke(i).unwrap();
    }
    let (allocs, sum) = count_allocs(|| {
        let mut sum = 0u64;
        for i in 0..1_000u64 {
            sum = sum.wrapping_add(proxy.fma(i, 3, 5, 7).unwrap());
            sum = sum.wrapping_add(proxy.poke(i).unwrap());
        }
        sum
    });
    assert_ne!(sum, 0, "calls really ran");
    assert_eq!(allocs, 0, "steady-state scalar dispatch through 3 aspects must not allocate");
}

#[test]
fn unwoven_proxy_dispatch_is_allocation_free() {
    let proxy = plugged_proxy(0);
    for i in 0..16 {
        proxy.poke(i).unwrap();
    }
    let (allocs, _) = count_allocs(|| {
        let mut sum = 0u64;
        for i in 0..1_000u64 {
            sum = sum.wrapping_add(proxy.poke(i).unwrap());
        }
        sum
    });
    assert_eq!(allocs, 0, "bare proxy dispatch must not allocate");
}

#[test]
fn metered_dispatch_stays_allocation_free() {
    // The observability tentpole's bound: plugging the metrics aspect keeps
    // steady-state dispatch allocation-free. The aspect resolves its
    // counters and histogram once at build time, so the hot path is pure
    // relaxed-atomic bumps into pre-resolved cells.
    let weaver = Weaver::new();
    let registry = MetricsRegistry::new();
    weaver.plug(metrics_aspect("Metrics", Pointcut::call("Alu.*"), &registry));
    weaver.plug(
        Aspect::named("P0")
            .around(Pointcut::call("Alu.*"), |inv: &mut Invocation| inv.proceed())
            .build(),
    );
    let proxy = AluProxy::construct(&weaver).unwrap();
    for i in 0..16 {
        proxy.poke(i).unwrap();
    }
    let (allocs, sum) = count_allocs(|| {
        let mut sum = 0u64;
        for i in 0..1_000u64 {
            sum = sum.wrapping_add(proxy.poke(i).unwrap());
        }
        sum
    });
    assert_ne!(sum, 0, "calls really ran");
    assert_eq!(allocs, 0, "recording into the metrics registry must not allocate");
    // And the registry really saw the burst (warm-up + measured calls).
    assert_eq!(registry.snapshot().counter("Metrics.calls"), Some(1_016));
}

#[test]
fn an_idle_metrics_aspect_costs_an_unwatched_call_nothing() {
    // Pay for what you watch, as counts rather than as a ratio of two
    // timings: the metrics aspect watches `Alu.poke`, the burst calls
    // `Alu.fma`. Its advice never fires, the burst allocates nothing, and
    // the values are those of the same burst with the aspect unplugged.
    let weaver = Weaver::new();
    let registry = MetricsRegistry::new();
    let metrics = weaver.plug(metrics_aspect("Metrics", Pointcut::call("Alu.poke"), &registry));
    let fired = Arc::new(AtomicU64::new(0));
    let p0 = fired.clone();
    weaver.plug(
        Aspect::named("P0")
            .around(Pointcut::call("Alu.fma"), move |inv: &mut Invocation| {
                p0.fetch_add(1, Ordering::Relaxed);
                inv.proceed()
            })
            .build(),
    );
    let proxy = AluProxy::construct(&weaver).unwrap();
    let burst = || {
        let mut values = [0u64; 1_000];
        for (i, value) in values.iter_mut().enumerate() {
            *value = proxy.fma(i as u64, 3, 5, 7).unwrap();
        }
        values
    };
    burst();
    let (allocs, idle) = count_allocs(burst);
    assert_eq!(allocs, 0, "an unwatched call must not allocate under an idle metrics aspect");
    assert_eq!(fired.load(Ordering::Relaxed), 2_000, "the burst really went through the weaver");
    // The idle aspect's advice never fired: it counts every call it sees.
    assert_eq!(registry.snapshot().counter("Metrics.calls"), Some(0));
    assert!(weaver.unplug(&metrics));
    assert_eq!(burst(), idle, "installing the aspect must not change an unwatched call");
}

#[test]
fn a_detached_chain_carries_its_context_without_allocating() {
    // What an asynchronous call takes across threads: the rest of the chain
    // and the caller's weaving context. Run here on the calling thread, so
    // the counter sees every allocation the detach and the run make.
    let weaver = Weaver::new();
    weaver.plug(
        Aspect::named("Detach")
            .around(Pointcut::call("Alu.poke"), |inv: &mut Invocation| inv.detach()?.run())
            .build(),
    );
    let proxy = AluProxy::construct(&weaver).unwrap();
    for i in 0..16 {
        proxy.poke(i).unwrap();
    }
    let (allocs, sum) = count_allocs(|| {
        let mut sum = 0u64;
        for i in 0..1_000u64 {
            sum = sum.wrapping_add(proxy.poke(i).unwrap());
        }
        sum
    });
    assert_eq!(sum, (1..=1_000u64).sum::<u64>(), "calls really ran");
    assert_eq!(allocs, 0, "a detached chain and its context must not allocate");
}

/// An `Alu` behind the RMI proxy on a one-node fabric, its replied calls
/// under `policy`, and a registry reading the fabric's counters.
fn remote_alu(policy: CallPolicy) -> (AluProxy, MetricsRegistry) {
    let marshal = MarshalRegistry::new();
    marshal.register::<(), ()>("Alu", "new");
    marshal.register::<(u64,), u64>("Alu", "poke");
    let fabric = InProcFabric::new(1, marshal);
    fabric.register_class::<Alu>();
    let registry = MetricsRegistry::new();
    fabric.install_metrics(&registry, "fabric");
    let weaver = Weaver::new();
    weaver
        .plug(RmiConfig::new("Alu", Pointcut::call("Alu.*"), fabric).policy(policy).aspect("Rmi"));
    (AluProxy::construct(&weaver).unwrap(), registry)
}

#[test]
fn replied_remote_call_is_allocation_free() {
    // Marshal, serve inline, unmarshal: argument and reply frames cycle
    // through the fabric's pool, and freezing a pooled frame reuses its Arc.
    let (proxy, registry) = remote_alu(CallPolicy::unbounded());
    let inline = || registry.snapshot().counter("fabric.served_inline").unwrap();
    // Warm-up: until the node thread has put the serve token down after the
    // construct (a call is served inline), then fill pools and caches.
    while inline() == 0 {
        proxy.poke(0).unwrap();
    }
    for i in 0..16 {
        proxy.poke(i).unwrap();
    }
    let before = inline();
    let (allocs, sum) = count_allocs(|| {
        let mut sum = 0u64;
        for i in 0..1_000u64 {
            sum = sum.wrapping_add(proxy.poke(i).unwrap());
        }
        sum
    });
    assert_eq!(sum, (1..=1_000u64).sum::<u64>(), "calls really ran");
    assert_eq!(inline() - before, 1_000, "the whole call ran on the counted thread");
    assert_eq!(allocs, 0, "a steady-state replied remote call must not allocate");
}

#[test]
fn queued_replied_call_gives_its_frame_away() {
    // A deadline keeps the call on the queue, and with no retry to follow the
    // caller keeps no second handle on the argument frame: the node thread
    // reclaims it, so the caller's next `take()` finds a pooled frame. A
    // clone per attempt would show here as two allocations a call.
    let patient = CallPolicy::with_deadline(std::time::Duration::from_secs(60));
    let (proxy, registry) = remote_alu(patient);
    for i in 0..64 {
        proxy.poke(i).unwrap();
    }
    let (allocs, sum) = count_allocs(|| {
        let mut sum = 0u64;
        for i in 0..1_000u64 {
            sum = sum.wrapping_add(proxy.poke(i).unwrap());
        }
        sum
    });
    assert_eq!(sum, (1..=1_000u64).sum::<u64>(), "calls really ran");
    assert_eq!(registry.snapshot().counter("fabric.served_inline"), Some(0), "all queued");
    assert_eq!(allocs, 0, "the calling side of a queued replied call must not allocate");
}

#[test]
fn heartbeat_iterations_are_allocation_free() {
    // Set-up and collection allocate (stack, blocks, the bound view, the
    // result); an iteration — two `edges`, two `set_halos`, two `step`, all
    // through the view bound before the loop — does not, so twice the
    // iterations cost exactly the same allocations.
    use weavepar_apps::heat::solve_heartbeat;
    let solve = |iterations| solve_heartbeat(64, 0.0, 100.0, 0.0, iterations, 2).unwrap();
    solve(8); // this thread's lazily built state (context, chain cache)
    let (short, _) = count_allocs(|| solve(100));
    let (long, out) = count_allocs(|| solve(200));
    assert!(out.iter().all(|v| v.is_finite()) && out[0] > 0.0, "the solver really ran");
    assert_eq!(long, short, "100 more heartbeat iterations changed the allocation count");
}

#[test]
fn the_sort_kernel_allocates_per_call_not_per_item() {
    // A bound, not a timing: a merge sort that builds a `Vec` and an `Arc`
    // at every node of its recursion makes ≈ 2 n allocations, and a combine
    // that collects then wraps makes two of n items each.
    use weavepar::weave::value::downcast_ret;
    use weavepar::weave::Pack;
    use weavepar_apps::sort::{sort_dc_config, Sorter};
    let xs: Vec<u64> = (1..=10_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let mut expect = xs.clone();
    expect.sort_unstable();

    // The only owner of its allocation: sorted in place, no scratch.
    let unique = Pack::from_slice(&xs);
    let (allocs, sorted) = count_allocs(|| Sorter::new().sort(unique));
    assert_eq!(sorted.as_slice(), &expect[..]);
    assert_eq!(allocs, 0, "sorting a unique 10 000-item pack must not allocate");

    // One of two views: its own copy of the items, and nothing else.
    let shared = Pack::from_slice(&xs);
    let other_view = shared.clone();
    let (allocs, sorted) = count_allocs(|| Sorter::new().sort(shared));
    assert_eq!(sorted.as_slice(), &expect[..]);
    assert_eq!(other_view.as_slice(), &xs[..]);
    assert_eq!(allocs, 1, "sorting a shared 10 000-item pack allocates exactly its copy");

    // The result's allocation and the `Vec<Pack>` of the sub-results.
    let combine = sort_dc_config(1024).combine;
    let halves = vec![weavepar::ret!(sorted.clone()), weavepar::ret!(sorted)];
    let (allocs, merged) = count_allocs(|| combine(halves));
    let merged: Pack = downcast_ret(merged.unwrap()).unwrap();
    assert!(merged.len() == 20_000 && merged.as_slice().windows(2).all(|w| w[0] <= w[1]));
    assert!(allocs <= 3, "combining two 10 000-item packs made {allocs} allocations");
}

#[test]
fn a_pack_is_encoded_in_place_and_decoded_into_one_allocation() {
    // Encoding writes into the frame's room; decoding allocates the pack's
    // own `Arc` and nothing else (a `Vec` then a copy would count 2).
    use weavepar::distribution::{BytesMut, Wire};
    use weavepar::weave::Pack;
    let pack: Pack = (0..10_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let mut frame = BytesMut::with_capacity(4 + 8 * pack.len());
    let (allocs, ()) = count_allocs(|| pack.encode(&mut frame));
    assert_eq!(allocs, 0, "encoding a pack into a frame with room must not allocate");
    let mut bytes = frame.freeze();
    let (allocs, back) = count_allocs(|| Pack::decode(&mut bytes));
    assert_eq!(back.unwrap(), pack);
    assert_eq!(allocs, 1, "decoding a pack allocates exactly its own Arc");
}

#[test]
fn the_candidate_pack_is_built_in_one_allocation() {
    // Collected straight into the pack's `Arc` (a `Vec` then a copy would
    // count 2).
    use weavepar_apps::sieve::{candidate_pack, candidates};
    let (allocs, pack) = count_allocs(|| candidate_pack(200_000));
    assert_eq!(pack.as_slice(), candidates(200_000));
    assert_eq!(allocs, 1, "building the candidate pack allocates exactly its own Arc");
}

#[test]
fn wrong_type_take_keeps_inline_value_intact() {
    let mut args = weavepar::args![41u64];
    // A mistyped take must fail AND leave the argument in place. (The error
    // itself carries a formatted context string, so the failure path is
    // allowed to allocate; only the success path below must not.)
    assert!(args.take::<i64>(0).is_err());
    assert_eq!(*args.get::<u64>(0).expect("value still present after failed take"), 41);

    // The correctly typed round trip is allocation-free.
    let (allocs, value) = count_allocs(|| {
        let taken: u64 = args.take::<u64>(0).expect("correctly typed take succeeds");
        let ret = AnyValue::new(taken);
        *ret.downcast_ref::<u64>().expect("inline return")
    });
    assert_eq!(value, 41);
    assert_eq!(allocs, 0, "inline args round trip must not allocate");
}
