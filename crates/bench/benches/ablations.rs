//! Ablation benchmarks for the design choices called out in DESIGN.md.
//!
//! Run with: `cargo bench -p weavepar-bench --bench ablations`
//!
//! * `executor` — thread-per-call vs pooled execution of a farmed workload
//!   (the §4.4 thread-pool optimisation);
//! * `object_cache` — the §4.4 cache-objects aspect on a repeat-heavy
//!   workload, plugged vs unplugged;
//! * `monitor` — per-object monitor acquisition cost (synchronisation aspect
//!   plugged vs not).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use weavepar::concurrency::resolve_any;
use weavepar::optimisation::{object_cache_aspect, CachePolicy};
use weavepar::prelude::*;
use weavepar_apps::sieve::{candidates, isqrt, PrimeFilterProxy};

const MAX: u64 = 200_000;

fn bench_executor(c: &mut Criterion) {
    use weavepar::concurrency::future_concurrency_aspect;
    use weavepar_apps::sieve::PrimeFilter;

    let sqrt = isqrt(MAX);
    let packs: Vec<Pack> = Pack::from_vec(candidates(MAX)).split_chunks(8_000);

    let mut group = c.benchmark_group("executor");
    group.sample_size(10);
    for (name, pooled) in [("thread_per_call", false), ("pool_4", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let weaver = Weaver::new();
                weaver.register_class::<PrimeFilter>();
                let executor =
                    if pooled { Executor::pool(4, "bench") } else { Executor::thread_per_call() };
                for a in future_concurrency_aspect(
                    "Concurrency",
                    Pointcut::call("PrimeFilter.filter"),
                    executor.clone(),
                ) {
                    weaver.plug(a);
                }
                let proxies: Vec<_> = (0..4)
                    .map(|_| PrimeFilterProxy::construct(&weaver, 2, sqrt).unwrap())
                    .collect();
                let pending: Vec<_> = packs
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        proxies[i % proxies.len()]
                            .handle()
                            .call("filter", weavepar::args![p.clone()])
                            .unwrap()
                    })
                    .collect();
                let mut survivors = 0usize;
                for ret in pending {
                    let v = resolve_any(ret).unwrap().downcast::<Pack>().unwrap();
                    survivors += v.len();
                }
                executor.wait_idle();
                black_box(survivors)
            });
        });
    }
    group.finish();
}

fn bench_object_cache(c: &mut Criterion) {
    let sqrt = isqrt(MAX);
    let pack: Pack = candidates(MAX).into_iter().take(10_000).collect();

    let mut group = c.benchmark_group("object_cache");
    group.sample_size(20);
    for (name, cached) in [("uncached", false), ("cached", true)] {
        group.bench_function(name, |b| {
            let weaver = Weaver::new();
            if cached {
                let (aspect, _stats) = object_cache_aspect(
                    "Cache",
                    Pointcut::call("PrimeFilter.filter"),
                    CachePolicy::unary::<Pack, Pack>(),
                );
                weaver.plug(aspect);
            }
            let proxy = PrimeFilterProxy::construct(&weaver, 2, sqrt).unwrap();
            // Repeat-heavy workload: the same pack filtered over and over.
            b.iter(|| black_box(proxy.filter(pack.clone()).unwrap()));
        });
    }
    group.finish();
}

fn bench_monitor(c: &mut Criterion) {
    use weavepar::concurrency::synchronized_aspect;

    let mut group = c.benchmark_group("monitor");
    for (name, synchronised) in [("unsynchronised", false), ("synchronised", true)] {
        group.bench_function(name, |b| {
            let weaver = Weaver::new();
            if synchronised {
                weaver.plug(synchronized_aspect("Sync", Pointcut::call("PrimeFilter.filter")));
            }
            let proxy = PrimeFilterProxy::construct(&weaver, 2, 100).unwrap();
            b.iter(|| {
                black_box(proxy.filter(black_box(Pack::from_slice(&[101, 103, 105]))).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_wire_roundtrip(c: &mut Criterion) {
    use weavepar::distribution::MarshalRegistry;

    let registry = MarshalRegistry::new();
    registry.register::<(Vec<u64>,), Vec<u64>>("PrimeFilter", "filter");
    let pack: Vec<u64> = (0..100_000u64).collect();
    let args = weavepar::args![pack];

    let mut group = c.benchmark_group("wire");
    group.bench_function("encode_100k_pack", |b| {
        b.iter(|| black_box(registry.encode_args("PrimeFilter", "filter", &args).unwrap()));
    });
    let bytes = registry.encode_args("PrimeFilter", "filter", &args).unwrap();
    group.bench_function("decode_100k_pack", |b| {
        b.iter(|| black_box(registry.decode_args("PrimeFilter", "filter", &bytes).unwrap()));
    });
    group.finish();
    let _ = Arc::strong_count(&Arc::new(()));
}

criterion_group!(benches, bench_executor, bench_object_cache, bench_monitor, bench_wire_roundtrip);
criterion_main!(benches);
