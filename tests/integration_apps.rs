//! Cross-application integration: the farm and heartbeat case studies, the
//! optimisation aspects layered on real applications, and trace capture
//! feeding the cluster simulator.

use weavepar::cluster::{simulate, MiddlewareProfile, SimParams};
use weavepar::optimisation::{object_cache_aspect, CachePolicy};
use weavepar::prelude::*;
use weavepar::weave::trace::Recorder;
use weavepar_apps::heat::{solve_heartbeat, solve_sequential};
use weavepar_apps::mandel::{render_dynamic, render_farmed, render_sequential};
use weavepar_apps::sieve::{build_sieve, run_sieve, sequential_sieve, SieveConfig};

#[test]
fn mandelbrot_farm_and_dynamic_farm_agree() {
    let reference = render_sequential(32, 16, 60);
    assert_eq!(render_farmed(32, 16, 60, 4, 8, true).unwrap(), reference);
    assert_eq!(render_dynamic(32, 16, 60, 4, 8).unwrap(), reference);
}

#[test]
fn heat_heartbeat_scales_workers() {
    let reference = solve_sequential(30, 0.0, 10.0, 0.0, 40);
    for workers in [1usize, 2, 5] {
        let got = solve_heartbeat(30, 0.0, 10.0, 0.0, 40, workers).unwrap();
        assert_eq!(got.len(), 30);
        for (a, b) in got.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-9, "workers={workers}");
        }
    }
}

#[test]
fn cache_optimisation_composes_with_the_farm() {
    // Plug the §4.4 cache-objects optimisation *inside* the farm: it
    // memoises per-worker pack calls, so re-filtering the same candidate
    // list is answered entirely from the cache.
    use weavepar::concurrency::resolve_any;
    use weavepar::weave::value::downcast_ret;
    use weavepar_apps::sieve::{candidate_pack, isqrt, PrimeFilterProxy};

    let packs = 6u64;
    let run = build_sieve(SieveConfig { packs: packs as usize, ..SieveConfig::farm_threads(3) });
    let (aspect, stats) = object_cache_aspect(
        "Optimisation.cache",
        Pointcut::call("PrimeFilter.filter"),
        CachePolicy::unary::<Pack, Pack>(),
    );
    run.stack.plug(Concern::Optimisation, aspect);

    let max = 2_000u64;
    let weaver = run.stack.weaver();
    let proxy = PrimeFilterProxy::construct(weaver, 2, isqrt(max)).unwrap();
    let call = || -> Vec<u64> {
        let cands = candidate_pack(max);
        let raw = proxy.handle().call("filter", weavepar::args![cands]).unwrap();
        downcast_ret::<Pack>(resolve_any(raw).unwrap()).unwrap().to_vec()
    };
    let first = call();
    let mut primes = vec![2u64];
    primes.extend(first.iter().copied());
    assert_eq!(primes, sequential_sieve(max));
    assert_eq!(stats.misses(), packs, "every pack misses on the first pass");
    assert_eq!(stats.hits(), 0);

    let second = call();
    assert_eq!(second, first);
    assert_eq!(stats.hits(), packs, "every pack hits on the second pass");
    assert_eq!(stats.misses(), packs);
}

#[test]
fn recorded_trace_replays_on_the_simulator() {
    // Capture a real farmed-sieve execution and replay it on the paper
    // cluster: the bridge the benchmark harness is built on.
    let run = build_sieve(SieveConfig { packs: 8, ..SieveConfig::farm_threads(4) });
    let recorder = Recorder::measuring();
    run.stack.weaver().set_recorder(Some(recorder.clone()));
    let got = run_sieve(&run, 20_000).unwrap();
    run.stack.weaver().set_recorder(None);
    assert_eq!(got.len(), sequential_sieve(20_000).len());

    let trace = recorder.finish();
    // 4 worker constructions + 8 pack calls (the original construction never
    // reaches its base: the partition advice replaces it).
    assert!(trace.len() >= 12, "trace too small: {} tasks", trace.len());
    let filter_tasks = trace.tasks.iter().filter(|t| t.signature.method == "filter").count();
    assert_eq!(filter_tasks, 8, "one task per pack");
    assert!(
        trace.tasks.iter().filter(|t| t.signature.method == "filter").all(|t| t.async_spawn),
        "farmed packs run asynchronously"
    );

    // Replay on one node (threads) and on the 7-node cluster (MPP).
    let local = simulate(&trace, &SimParams::threads_on_single_node());
    assert!(local.makespan > 0.0);
    assert_eq!(local.messages, 0, "shared memory: no messages");

    let clustered = simulate(&trace, &SimParams::paper_cluster(MiddlewareProfile::mpp()));
    assert!(clustered.messages > 0, "distributed placement must send messages");
    assert!(clustered.bytes > 0);
    assert_eq!(local.tasks, clustered.tasks);
}

#[test]
fn trace_costs_reflect_real_work() {
    // Bigger workloads must record more CPU cost.
    let capture = |max: u64| {
        let run = build_sieve(SieveConfig { packs: 4, ..SieveConfig::farm_threads(2) });
        let recorder = Recorder::measuring();
        run.stack.weaver().set_recorder(Some(recorder.clone()));
        run_sieve(&run, max).unwrap();
        recorder.finish().total_cost()
    };
    let small = capture(5_000);
    let large = capture(200_000);
    assert!(large > small, "cost must grow with the workload: {small:?} vs {large:?}");
}

#[test]
fn pipeline_trace_has_forwarding_chains() {
    let run = build_sieve(SieveConfig { packs: 5, ..SieveConfig::sequential_pipeline(3) });
    let recorder = Recorder::measuring();
    run.stack.weaver().set_recorder(Some(recorder.clone()));
    run_sieve(&run, 10_000).unwrap();
    let trace = recorder.finish();
    // Each pack crosses 3 stages; stages 2 and 3 carry `after` edges.
    let filter_tasks: Vec<_> =
        trace.tasks.iter().filter(|t| t.signature.method == "filter").collect();
    assert_eq!(filter_tasks.len(), 15, "5 packs × 3 stages");
    let forwarded = filter_tasks.iter().filter(|t| t.after.is_some()).count();
    assert!(forwarded >= 10, "pipeline hops must record data dependencies: {forwarded}");
    // Critical path of a pipeline exceeds any single task but is far below
    // total work when stages overlap.
    let cp = weavepar::cluster::critical_path(&trace);
    let total = trace.total_cost().as_secs_f64();
    assert!(cp <= total + 1e-9);
}

#[test]
fn mandel_dynamic_farm_balances_uneven_rows() {
    // Rows near the set's bulk are much more expensive; the dynamic farm
    // must still produce identical output (scheduling differs, data doesn't).
    let reference = render_sequential(48, 24, 200);
    let dynamic = render_dynamic(48, 24, 200, 3, 12).unwrap();
    assert_eq!(dynamic, reference);
}

#[test]
fn active_objects_can_replace_the_concurrency_module() {
    // The ABCL-style active-object aspect is an alternative concurrency
    // module: per-filter mailboxes serialise packs in issue order, futures
    // carry the results, the farm's combine is unchanged.
    use weavepar::concurrency::active_object_aspect;
    use weavepar_apps::sieve::PartitionStrategy;

    let config = SieveConfig {
        partition: PartitionStrategy::Farm,
        concurrency: false, // we plug active objects instead
        middleware: weavepar_apps::sieve::Middleware::None,
        filters: 3,
        packs: 6,
        nodes: 1,
    };
    let run = build_sieve(config);
    // Scope the mailboxes to the aspect-issued pack calls only: if the core
    // call itself were posted, the farm's split advice would run inside
    // worker 0's mailbox and then block on a pack posted to that same
    // mailbox — the classic actor re-entrancy deadlock.
    let (aspect, runtime) = active_object_aspect(
        "ActiveObjects",
        Pointcut::call("PrimeFilter.filter").and(Pointcut::within_aspects()),
    );
    run.stack.plug(Concern::Concurrency, aspect);

    let got = run_sieve(&run, 3_000).unwrap();
    assert_eq!(got, sequential_sieve(3_000));
    runtime.wait_idle();
    assert!(runtime.active_objects() >= 3, "each farmed filter got a mailbox");
    runtime.shutdown();
}
