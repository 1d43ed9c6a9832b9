//! The per-layer probes: each layer measured from outside, through public
//! functions only, on inputs of its own. They do not depend on the workload;
//! every traced run repeats them, so that a layer's figure and the workload's
//! spans come from the same process on the same machine state.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use weavepar::cluster::{simulate, MiddlewareProfile, SimParams};
use weavepar::concurrency::resolve_any;
use weavepar::distribution::wire::{from_bytes, to_bytes};
use weavepar::prelude::*;
use weavepar::weave::trace::Recorder;
use weavepar::weave::value::downcast_ret;
use weavepar::{args, ret, weaveable};
use weavepar_apps::heat::solve_sequential;
use weavepar_apps::mandel::render_sequential;
use weavepar_apps::sieve::{build_sieve, candidates, isqrt, run_sieve, PrimeFilter, SieveConfig};
use weavepar_apps::sort::merge_slices;

use super::err;
use super::programs::{cell_marshal, pass_through, Cell, CellProxy};
use crate::alloc::count_allocations;
use crate::confine::Confined;
use crate::spans::now_ns;
use crate::stats;
use crate::timing::{Budget, Sample};

type Out = Vec<(&'static str, Sample)>;

/// Run every probe. `workers` is the pool size of the pooled-executor probes.
pub fn run_all(budget: Budget, workers: usize) -> Result<Out, String> {
    let mut out = Out::new();
    weave(budget, &mut out)?;
    concurrency(budget, workers, &mut out)?;
    middleware(budget, &mut out)?;
    skeletons(budget, &mut out)?;
    core(budget, &mut out)?;
    cluster(budget, &mut out)?;
    apps(budget, &mut out);
    Ok(out)
}

/// A weaver with `aspects` plugged and one `Cell` on it.
fn cell_on(aspects: Vec<Aspect>) -> Result<(Weaver, CellProxy), String> {
    let weaver = Weaver::new();
    for aspect in aspects {
        weaver.plug(aspect);
    }
    let cell = CellProxy::construct(&weaver, 0).map_err(err)?;
    Ok((weaver, cell))
}

fn pass_throughs(n: usize) -> Vec<Aspect> {
    (0..n).map(|i| pass_through(&format!("Pass{i}"), 10 * (i as i32 + 1))).collect()
}

/// Nanoseconds per `Cell.add` join point on a weaver with `aspects` plugged.
fn joinpoint_ns(budget: Budget, aspects: Vec<Aspect>) -> Result<Sample, String> {
    let (_weaver, cell) = cell_on(aspects)?;
    Ok(budget.ns_per_op(20_000, |n| {
        for _ in 0..n {
            black_box(cell.add(black_box(1)).expect("a local Cell.add cannot fail"));
        }
    }))
}

/// Least-squares slope of `ys` over `xs`.
fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

fn weave(budget: Budget, out: &mut Out) -> Result<(), String> {
    let counts = [0usize, 1, 3, 8];
    let names = [
        "weave.joinpoint_ns.a0",
        "weave.joinpoint_ns.a1",
        "weave.joinpoint_ns.a3",
        "weave.joinpoint_ns.a8",
    ];
    let mut by_count = Vec::new();
    for (k, name) in counts.iter().zip(names) {
        let sample = joinpoint_ns(budget, pass_throughs(*k))?;
        by_count.push(sample.value);
        out.push((name, sample));
    }
    let xs: Vec<f64> = counts.iter().map(|k| *k as f64).collect();
    out.push(("weave.advice_hop_ns", Sample::exact(slope(&xs, &by_count))));

    out.push((
        "weave.value_roundtrip_ns",
        budget.ns_per_op(50_000, |n| {
            for i in 0..n as u64 {
                let mut packed = args![black_box(i)];
                let x: u64 = packed.take(0).expect("slot 0 holds the u64 just put there");
                let back: u64 = downcast_ret(ret!(x)).expect("the value is the u64 just boxed");
                black_box(back);
            }
        }),
    ));

    // One recording metrics aspect against one pass-through: the difference
    // is the clock pair, the histogram and the counters.
    let registry = MetricsRegistry::new();
    let recording =
        joinpoint_ns(budget, vec![metrics_aspect("cell", Pointcut::call("Cell.add"), &registry)])?;
    out.push((
        "weave.metrics_record_ns",
        Sample { value: recording.value - by_count[1], ..recording },
    ));

    let (weaver, cell) = cell_on(pass_throughs(3))?;
    const COUNTED: u64 = 10_000;
    cell.add(1).map_err(err)?;
    let allocations = count_allocations(|| {
        for _ in 0..COUNTED {
            black_box(cell.add(1).expect("a local Cell.add cannot fail"));
        }
    });
    out.push(("weave.allocs_per_joinpoint", Sample::exact(allocations as f64 / COUNTED as f64)));

    // Plug and unplug a fourth aspect, without and with a call after each:
    // the call after a (un)plug misses the chain cache.
    let toggle = budget.ns_per_op(2_000, |n| {
        for _ in 0..n {
            let plugged = weaver.plug(pass_through("Pass3", 40));
            weaver.unplug(&plugged);
        }
    });
    out.push(("weave.plug_unplug_ns", toggle));
    let toggle_and_call = budget.ns_per_op(2_000, |n| {
        for _ in 0..n {
            let plugged = weaver.plug(pass_through("Pass3", 40));
            black_box(cell.add(1).expect("a local Cell.add cannot fail"));
            weaver.unplug(&plugged);
            black_box(cell.add(1).expect("a local Cell.add cannot fail"));
        }
    });
    out.push((
        "weave.chain_miss_ns",
        Sample { value: (toggle_and_call.value - toggle.value) / 2.0, ..toggle_and_call },
    ));

    let bare = Weaver::new();
    out.push((
        "weave.construct_ns",
        budget.ns_per_op(5_000, |n| {
            for _ in 0..n {
                black_box(CellProxy::construct(&bare, 0).expect("a local Cell::new cannot fail"));
            }
        }),
    ));

    // A 16 MB pack cut into 4 KB chunks, and put together again.
    const WORDS: usize = 2 << 20;
    const CHUNK: usize = 512;
    let pack: Pack = (0..WORDS as u64).collect();
    out.push((
        "weave.pack_split_ns_per_chunk",
        budget.ns_per_op(WORDS / CHUNK, |_| {
            black_box(pack.split_chunks(CHUNK));
        }),
    ));
    let chunks = pack.split_chunks(CHUNK);
    out.push((
        "weave.pack_concat_us_per_mb",
        budget
            .ns_per_op((WORDS * 8) >> 20, |_| {
                black_box(Pack::concat(&chunks));
            })
            .scaled(1e-3),
    ));
    Ok(())
}

struct Stamp;

weaveable! {
    class Stamp as StampProxy {
        fn new() -> Self { Stamp }
        fn lag(&mut self, sent_ns: u64) -> u64 {
            now_ns().saturating_sub(sent_ns)
        }
    }
}

/// Median microseconds from entering the asynchronous advice to the start of
/// the method body on the executor's thread.
fn handoff_us(executor: &Executor, calls: usize) -> Result<Sample, String> {
    let weaver = Weaver::new();
    for aspect in
        future_concurrency_aspect("Concurrency", Pointcut::call("Stamp.lag"), executor.clone())
    {
        weaver.plug(aspect);
    }
    let stamp = StampProxy::construct(&weaver).map_err(err)?;
    let mut lags = Vec::with_capacity(calls);
    for _ in 0..calls {
        let raw = stamp.handle().call("lag", args![now_ns()]).map_err(err)?;
        let lag: u64 = downcast_ret(resolve_any(raw).map_err(err)?).map_err(err)?;
        lags.push(lag as f64 / 1e3);
    }
    executor.wait_idle();
    Ok(Sample { value: stats::median(&lags), samples: lags.len() })
}

fn concurrency(budget: Budget, workers: usize, out: &mut Out) -> Result<(), String> {
    let threads = Executor::thread_per_call();
    let pool = Executor::pool(workers, "probe");
    let spawn_all = |executor: &Executor, n: usize| {
        for _ in 0..n {
            executor.spawn(|| {
                black_box(0u64);
            });
        }
        executor.wait_idle();
    };
    out.push((
        "concurrency.spawn_ns_per_task.thread_per_call",
        budget.ns_per_op(100, |n| spawn_all(&threads, n)),
    ));
    out.push((
        "concurrency.spawn_ns_per_task.pool",
        budget.ns_per_op(2_000, |n| spawn_all(&pool, n)),
    ));
    out.push((
        "concurrency.batch_ns_per_task.pool",
        budget.ns_per_op(2_000, |n| {
            pool.spawn_batch((0..n).map(|_| {
                || {
                    black_box(0u64);
                }
            }));
            pool.wait_idle();
        }),
    ));
    let roundtrip = |executor: &Executor| {
        budget
            .ns_per_op(50, |n| {
                for _ in 0..n {
                    spawn_all(executor, 1);
                }
            })
            .scaled(1e-3)
    };
    out.push(("concurrency.future_roundtrip_us.thread_per_call", roundtrip(&threads)));
    out.push(("concurrency.future_roundtrip_us.pool", roundtrip(&pool)));

    // The synchronisation half of the concurrency module alone, against one
    // pass-through: an uncontended monitor.
    let [_asynchronous, synchronised] =
        future_concurrency_aspect("Concurrency", Pointcut::call("Cell.*"), threads.clone());
    let monitored = joinpoint_ns(budget, vec![synchronised])?;
    let plain = joinpoint_ns(budget, pass_throughs(1))?;
    out.push((
        "concurrency.monitor_ns",
        Sample { value: monitored.value - plain.value, ..monitored },
    ));

    let calls = (budget.per_probe.as_micros() as usize / 60).clamp(5, 400);
    out.push(("concurrency.handoff_us_p50.thread_per_call", handoff_us(&threads, calls)?));
    out.push(("concurrency.handoff_us_p50.pool", handoff_us(&pool, calls)?));
    Ok(())
}

struct Tally {
    hits: u64,
}

weaveable! {
    class Tally as TallyProxy {
        fn new() -> Self { Tally { hits: 0 } }
        fn bump(&mut self, x: u64) {
            self.hits = self.hits.wrapping_add(x);
        }
    }
}

fn middleware(budget: Budget, out: &mut Out) -> Result<(), String> {
    let small = to_bytes(&7u64);
    out.push((
        "middleware.encode_ns_small",
        budget.ns_per_op(50_000, |n| {
            for i in 0..n as u64 {
                black_box(to_bytes(black_box(&i)));
            }
        }),
    ));
    out.push((
        "middleware.decode_ns_small",
        budget.ns_per_op(50_000, |n| {
            for _ in 0..n {
                black_box(from_bytes::<u64>(black_box(&small)).expect("a u64 was encoded"));
            }
        }),
    ));
    const MEGABYTES: usize = 16;
    let pack: Pack = (0..(MEGABYTES as u64) << 17).collect();
    let large = to_bytes(&pack);
    out.push((
        "middleware.encode_us_per_mb",
        budget
            .ns_per_op(MEGABYTES, |_| {
                black_box(to_bytes(black_box(&pack)));
            })
            .scaled(1e-3),
    ));
    out.push((
        "middleware.decode_us_per_mb",
        budget
            .ns_per_op(MEGABYTES, |_| {
                black_box(from_bytes::<Pack>(black_box(&large)).expect("a Pack was encoded"));
            })
            .scaled(1e-3),
    ));
    drop((pack, large));

    // The call paths, on one CPU (see `confine`): a replied call hands the
    // CPU to the node's thread and back.
    let _confined = Confined::to_one_cpu()?;
    let marshal = cell_marshal();
    marshal.register::<(), ()>("Tally", "new");
    marshal.register::<(u64,), ()>("Tally", "bump");
    let fabric = InProcFabric::new(1, marshal);
    fabric.register_class::<Cell>();
    fabric.register_class::<Tally>();

    let sent = fabric.marshal().encode_args("Cell", "add", &args![7u64]).map_err(err)?;
    let replied = fabric.marshal().encode_ret("Cell", "add", &ret!(7u64)).map_err(err)?;
    out.push(("middleware.bytes_per_call", Sample::exact((sent.len() + replied.len()) as f64)));

    let rmi = Weaver::new();
    rmi.plug(
        RmiConfig::new("Cell", Pointcut::call("Cell.*"), fabric.clone())
            .placement(Policy::round_robin())
            .aspect("Distribution"),
    );
    let cell = CellProxy::construct(&rmi, 0).map_err(err)?;
    let replied_calls = |n: usize| {
        for _ in 0..n {
            black_box(cell.add(1).expect("the fabric is healthy"));
        }
    };
    out.push(("middleware.sync_call_us", budget.ns_per_op(1_000, replied_calls).scaled(1e-3)));
    const COUNTED: usize = 2_000;
    let allocations = count_allocations(|| replied_calls(COUNTED));
    out.push((
        "middleware.allocs_per_remote_call",
        Sample::exact(allocations as f64 / COUNTED as f64),
    ));
    out.push((
        "middleware.construct_remote_us",
        budget
            .ns_per_op(200, |n| {
                for _ in 0..n {
                    black_box(CellProxy::construct(&rmi, 0).expect("the fabric is healthy"));
                }
            })
            .scaled(1e-3),
    ));
    let name = fabric.nameserver().names().pop().ok_or("the RMI aspect binds a name")?;
    out.push((
        "middleware.nameserver_lookup_ns",
        budget.ns_per_op(20_000, |n| {
            for _ in 0..n {
                black_box(fabric.nameserver().lookup(black_box(&name)).expect("bound above"));
            }
        }),
    ));

    // Oneway calls, alone and packed 64 to a frame. A replied call on the
    // same node drains its FIFO queue, so a batch is timed until served.
    let oneway = |packed: bool| -> Result<Sample, String> {
        let mpp = Weaver::new();
        mpp.plug(
            MppConfig::new("Tally", Pointcut::call("Tally.bump"), fabric.clone())
                .oneway(true)
                .aspect("Distribution"),
        );
        let packer = if packed {
            let (aspect, packer) = message_packing_aspect(
                "Packing",
                Pointcut::call("Tally.bump"),
                fabric.clone(),
                64,
                Duration::from_secs(1),
            );
            mpp.plug(aspect);
            Some(packer)
        } else {
            None
        };
        let tally = TallyProxy::construct(&mpp).map_err(err)?;
        Ok(budget.ns_per_op(2_000, |n| {
            for _ in 0..n {
                tally.bump(1).expect("the fabric is healthy");
            }
            if let Some(packer) = &packer {
                packer.flush().expect("the fabric is healthy");
            }
            black_box(cell.get().expect("the fabric is healthy"));
        }))
    };
    out.push(("middleware.oneway_call_ns", oneway(false)?));
    out.push(("middleware.packed_oneway_call_ns", oneway(true)?));
    Ok(())
}

struct Noop;

weaveable! {
    class Noop as NoopProxy {
        fn new() -> Self { Noop }
        fn work(&mut self, pack: Pack) -> Pack {
            pack
        }
    }
}

struct Beat;

weaveable! {
    class Beat as BeatProxy {
        fn new() -> Self { Beat }
        fn step(&mut self) {}
        fn run(&mut self, iterations: u64) -> u64 {
            iterations
        }
    }
}

const EMPTY_WORKERS: usize = 2;
const EMPTY_PACKS: usize = 64;
const EMPTY_STAGES: usize = 4;

/// A protocol over `Noop.work`: the skeleton's own cost per pack.
fn noop_protocol(workers: usize) -> Protocol {
    Protocol {
        class: "Noop",
        method: "work",
        workers,
        worker_args: Arc::new(|_rank, _n, _orig: &Args| Ok(args![])),
        split: Arc::new(|a: &Args| {
            let pack = a.get::<Pack>(0)?;
            Ok(pack.split_packs(EMPTY_PACKS).into_iter().map(|p| args![p]).collect())
        }),
        reforward: Arc::new(|v: AnyValue| Ok(Args::from_value(v))),
        combine: Arc::new(|vs: Vec<AnyValue>| {
            let mut parts = Vec::with_capacity(vs.len());
            for v in vs {
                parts.push(downcast_ret::<Pack>(v)?);
            }
            Ok(ret!(Pack::concat(&parts)))
        }),
    }
}

/// Microseconds per pack of one `Noop.work` call under `partition`.
fn per_pack_us(budget: Budget, partition: Aspect, packs: usize) -> Result<Sample, String> {
    let weaver = Weaver::new();
    weaver.plug(partition);
    let noop = NoopProxy::construct(&weaver).map_err(err)?;
    let input: Pack = (0..EMPTY_PACKS as u64 * 8).collect();
    Ok(budget
        .ns_per_op(packs, |_| {
            black_box(noop.work(input.clone()).expect("an empty method cannot fail"));
        })
        .scaled(1e-3))
}

fn skeletons(budget: Budget, out: &mut Out) -> Result<(), String> {
    out.push((
        "skeletons.farm_us_per_pack.empty",
        per_pack_us(
            budget,
            FarmConfig::new(noop_protocol(EMPTY_WORKERS)).aspect("Partition"),
            EMPTY_PACKS,
        )?,
    ));
    out.push((
        "skeletons.dynamic_farm_us_per_pack.empty",
        per_pack_us(
            budget,
            DynamicFarmConfig::new(noop_protocol(EMPTY_WORKERS)).aspect("Partition"),
            EMPTY_PACKS,
        )?,
    ));
    out.push((
        "skeletons.pipeline_us_per_pack_stage.empty",
        per_pack_us(
            budget,
            PipelineConfig::new(noop_protocol(EMPTY_STAGES)).aspect("Partition"),
            EMPTY_PACKS * EMPTY_STAGES,
        )?,
    ));

    const ITERATIONS: u64 = 1_000;
    let weaver = Weaver::new();
    weaver.plug(
        HeartbeatConfig {
            class: "Beat",
            workers: EMPTY_WORKERS,
            worker_args: Arc::new(|_rank, _n, _orig: &Args| Ok(args![])),
            run_method: "run",
            iterations: Arc::new(|a: &Args| Ok(*a.get::<u64>(0)?)),
            step_method: "step",
            step_args: Arc::new(|_iteration| Ok(args![])),
            exchange: Arc::new(|_weaver: &Weaver, _workers: &[ObjId], _iteration| Ok(())),
            collect: Arc::new(|_weaver: &Weaver, workers: &[ObjId]| Ok(ret!(workers.len() as u64))),
        }
        .aspect("Partition"),
    );
    let beat = BeatProxy::construct(&weaver).map_err(err)?;
    out.push((
        "skeletons.heartbeat_us_per_iter.empty",
        budget
            .ns_per_op(ITERATIONS as usize, |_| {
                black_box(beat.run(ITERATIONS).expect("an empty method cannot fail"));
            })
            .scaled(1e-3),
    ));

    // Halve an `EMPTY_PACKS`-word pack down to single words: one divide per
    // inner node of the recursion tree.
    let weaver = Weaver::new();
    weaver.plug(
        DivideConquerConfig {
            class: "Noop",
            method: "work",
            should_divide: Arc::new(|a: &Args| Ok(a.get::<Pack>(0)?.len() > 1)),
            divide: Arc::new(|a: &Args| {
                let pack = a.get::<Pack>(0)?;
                let (left, right) = pack.split_at(pack.len() / 2);
                Ok(vec![args![left], args![right]])
            }),
            worker_args: Arc::new(|_sub| Ok(args![])),
            combine: Arc::new(|mut vs: Vec<AnyValue>| {
                vs.pop().ok_or_else(|| WeaveError::remote("a divide yields two parts"))
            }),
        }
        .aspect("Partition"),
    );
    let noop = NoopProxy::construct(&weaver).map_err(err)?;
    let input: Pack = (0..EMPTY_PACKS as u64).collect();
    out.push((
        "skeletons.dc_us_per_divide.empty",
        budget
            .ns_per_op(EMPTY_PACKS - 1, |_| {
                black_box(noop.work(input.clone()).expect("an empty method cannot fail"));
            })
            .scaled(1e-3),
    ));
    Ok(())
}

fn core(budget: Budget, out: &mut Out) -> Result<(), String> {
    // Node threads are spawned once, outside the timed region.
    let fabric = InProcFabric::new(1, cell_marshal());
    let farm = || FarmConfig::new(noop_protocol(EMPTY_WORKERS)).aspect("Partition");
    let executor = Executor::thread_per_call();
    let build = || {
        let stack = ConcernStack::new();
        stack.plug(Concern::Partition, farm());
        stack.plug_all(
            Concern::Concurrency,
            future_concurrency_aspect("Concurrency", Pointcut::call("Noop.work"), executor.clone()),
        );
        stack.plug(
            Concern::Distribution,
            RmiConfig::new("Noop", Pointcut::call("Noop.work"), fabric.clone())
                .aspect("Distribution"),
        );
        stack
    };
    out.push((
        "core.stack_build_us",
        budget
            .ns_per_op(200, |n| {
                for _ in 0..n {
                    black_box(build());
                }
            })
            .scaled(1e-3),
    ));
    let stack = build();
    out.push((
        "core.stack_swap_us",
        budget
            .ns_per_op(200, |n| {
                for _ in 0..n {
                    stack.swap(Concern::Partition, [farm()]);
                }
            })
            .scaled(1e-3),
    ));

    // An observer against one pass-through.
    let plain = joinpoint_ns(budget, pass_throughs(1))?;
    let logged = joinpoint_ns(
        budget,
        vec![logging_aspect("Log", Pointcut::call("Cell.add"), CallLog::new())],
    )?;
    out.push(("core.calllog_record_ns", Sample { value: logged.value - plain.value, ..logged }));
    let tuner = Autotuner::new(TuneConfig::default());
    let tuned =
        joinpoint_ns(budget, vec![autotune_aspect("Tune", Pointcut::call("Cell.add"), tuner)])?;
    out.push(("core.autotune_observe_ns", Sample { value: tuned.value - plain.value, ..tuned }));
    Ok(())
}

fn cluster(budget: Budget, out: &mut Out) -> Result<(), String> {
    const MAX: u64 = 200_000;
    let run = build_sieve(SieveConfig { nodes: 4, packs: 50, ..SieveConfig::pipe_rmi(4) });
    let timed_run = || -> Result<f64, String> {
        let start = Instant::now();
        black_box(run_sieve(&run, MAX).map_err(err)?);
        Ok(start.elapsed().as_secs_f64())
    };
    timed_run()?;
    let (mut plain, mut captured) = (Vec::new(), Vec::new());
    let mut trace = None;
    let deadline = Instant::now() + budget.per_probe * 2;
    while plain.len() < 3 || (Instant::now() < deadline && plain.len() < 50) {
        plain.push(timed_run()?);
        let recorder = Recorder::measuring();
        run.stack.weaver().set_recorder(Some(recorder.clone()));
        let secs = timed_run();
        run.stack.weaver().set_recorder(None);
        captured.push(secs?);
        trace = Some(recorder.finish());
    }
    out.push((
        "cluster.trace_capture_ratio",
        Sample { value: stats::ratio_of_medians(&captured, &plain), samples: plain.len() },
    ));
    let trace = trace.ok_or("at least one run was captured")?;
    let params = SimParams::paper_cluster(MiddlewareProfile::rmi());
    out.push((
        "cluster.simulate_us_per_task",
        budget
            .ns_per_op(trace.len().max(1), |_| {
                black_box(simulate(&trace, &params));
            })
            .scaled(1e-3),
    ));
    Ok(())
}

/// The applications' kernels, called directly on one thread.
fn apps(budget: Budget, out: &mut Out) {
    const MAX: u64 = 500_000;
    let numbers = Pack::from_vec(candidates(MAX));
    let mut filter = PrimeFilter::new(2, isqrt(MAX));
    out.push((
        "apps.sieve_ns_per_candidate",
        budget.ns_per_op(numbers.len(), |_| {
            black_box(filter.filter(numbers.clone()));
        }),
    ));

    // The image's values are its escape counts: their sum is the number of
    // inner-loop iterations the render performed.
    let iterations: u64 = render_sequential(256, 128, 32).iter().sum();
    out.push((
        "apps.mandel_ns_per_pixel_iter",
        budget.ns_per_op(iterations as usize, |_| {
            black_box(render_sequential(256, 128, 32));
        }),
    ));
    out.push((
        "apps.heat_ns_per_cell_step",
        budget.ns_per_op(512 * 2_000, |_| {
            black_box(solve_sequential(512, 0.0, 100.0, 0.0, 2_000));
        }),
    ));
    let left: Vec<u64> = (0..65_536).map(|i| 2 * i).collect();
    let right: Vec<u64> = (0..65_536).map(|i| 2 * i + 1).collect();
    out.push((
        "apps.sort_merge_ns_per_elem",
        budget.ns_per_op(left.len() + right.len(), |_| {
            black_box(merge_slices(&left, &right));
        }),
    ));
}
