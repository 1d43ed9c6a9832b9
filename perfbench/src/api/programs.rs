//! The seven workloads' programs: what is set up, what one woven run and one
//! reference run call, and how the traced run is assembled.

use std::sync::Arc;

use weavepar::concurrency::resolve_any;
use weavepar::prelude::*;
use weavepar::weave::value::downcast_ret;
use weavepar::{args, weaveable};
use weavepar_apps::heat::{heat_heartbeat_config, solve_heartbeat, solve_sequential, RodProxy};
use weavepar_apps::mandel::{mandel_protocol, render_sequential, MandelbrotProxy};
use weavepar_apps::sieve::{
    build_sieve, run_handcoded_rmi, run_sieve, sequential_sieve, SieveConfig, SieveRun,
};
use weavepar_apps::sort::{sort_dc_config, sort_divide_conquer, Sorter, SorterProxy};

use super::boundary::{plug_boundaries, plug_served, Bands};
use super::err;
use crate::confine::Confined;
use crate::rng::Rng;
use crate::spans::{self, Boundary, Clock, Layer};
use crate::workload::{Counts, Program, Sizes};

/// The `COUNT_METRICS` out of a registry snapshot, in their order.
fn counts_from(registry: &MetricsRegistry) -> Counts {
    let snap = registry.snapshot();
    let get = |name: &str| snap.counter(name).unwrap_or(0);
    Counts([
        get("Partition.packs_issued"),
        get("Partition.redispatched"),
        get("Partition.divides"),
        get("pool.steals"),
        get("pool.parks"),
        get("pool.wakeups"),
        get("fabric.calls"),
        get("fabric.retries"),
        get("fabric.timeouts"),
    ])
}

type SplitFn = Arc<dyn Fn(&Args) -> WeaveResult<Vec<Args>> + Send + Sync>;
type CombineFn = Arc<dyn Fn(Vec<AnyValue>) -> WeaveResult<AnyValue> + Send + Sync>;

/// Wrap an application closure a skeleton calls back, so that its time is
/// the application's and not the skeleton's.
fn spanned_split(f: SplitFn) -> SplitFn {
    Arc::new(move |a: &Args| {
        let _s = spans::enter(Boundary::Split);
        f(a)
    })
}

/// [`spanned_split`] for a combine closure.
fn spanned_combine(f: CombineFn) -> CombineFn {
    Arc::new(move |vs: Vec<AnyValue>| {
        let _s = spans::enter(Boundary::Combine);
        f(vs)
    })
}

// ---- sieve_coarse -----------------------------------------------------------

const SIEVE_FILTERS: usize = 4;
const SIEVE_PACKS: usize = 50;
const SIEVE_NODES: usize = 4;

/// The paper's Fig. 16: woven `PipeRMI` against the hand-coded RMI pipeline.
pub struct SieveCoarse {
    run: SieveRun,
    max: u64,
    expect: Vec<u64>,
    registry: MetricsRegistry,
}

impl SieveCoarse {
    pub fn setup(_rng: &mut Rng, sizes: &Sizes) -> Result<Self, String> {
        let max = sizes.sieve_max;
        let run = build_sieve(SieveConfig {
            nodes: SIEVE_NODES,
            packs: SIEVE_PACKS,
            ..SieveConfig::pipe_rmi(SIEVE_FILTERS)
        });
        let registry = MetricsRegistry::new();
        if let Some(fabric) = &run.fabric {
            fabric.install_metrics(&registry, "fabric");
        }
        Ok(SieveCoarse { run, max, expect: sequential_sieve(max), registry })
    }
}

impl Program for SieveCoarse {
    type Out = Vec<u64>;

    fn woven(&mut self) -> Result<Vec<u64>, String> {
        run_sieve(&self.run, self.max).map_err(err)
    }

    fn reference(&mut self) -> Result<Vec<u64>, String> {
        run_handcoded_rmi(self.max, SIEVE_FILTERS, SIEVE_PACKS, SIEVE_NODES).map_err(err)
    }

    fn start_tracing(&mut self) -> Result<(), String> {
        plug_boundaries(
            self.run.stack.weaver(),
            Bands {
                asynchronous: true,
                partition: true,
                synchronisation: true,
                distribution: true,
                ..Bands::default()
            },
        );
        plug_served(self.run.fabric.as_ref().ok_or("PipeRMI has a fabric")?)
    }

    /// The application's own driver; the boundaries are on its stack.
    fn traced(&mut self) -> Result<Vec<u64>, String> {
        let _root = spans::enter(Boundary::Driver);
        run_sieve(&self.run, self.max).map_err(err)
    }

    fn valid(&mut self, out: &Vec<u64>) -> bool {
        *out == self.expect
    }

    fn counts(&self) -> Counts {
        counts_from(&self.registry)
    }

    // A thread per pack and stage, blocked on monitors and replies.
    const CLOCK: Clock = Clock::ThreadCpu;
}

// ---- sort_dc ----------------------------------------------------------------

const SORT_THRESHOLD: usize = 1024;

/// Nested fork/join over thread-per-call through the D&C skeleton.
pub struct SortDc {
    xs: Vec<u64>,
    expect: Vec<u64>,
    registry: MetricsRegistry,
}

impl SortDc {
    pub fn setup(rng: &mut Rng, sizes: &Sizes) -> Result<Self, String> {
        let xs: Vec<u64> = (0..sizes.sort_n).map(|_| rng.next()).collect();
        let mut expect = xs.clone();
        expect.sort_unstable();
        Ok(SortDc { xs, expect, registry: MetricsRegistry::new() })
    }
}

impl Program for SortDc {
    type Out = Vec<u64>;

    fn woven(&mut self) -> Result<Vec<u64>, String> {
        sort_divide_conquer(self.xs.clone(), SORT_THRESHOLD, true).map_err(err)
    }

    fn reference(&mut self) -> Result<Vec<u64>, String> {
        let mut xs = self.xs.clone();
        xs.sort_unstable();
        Ok(xs)
    }

    /// `sort_divide_conquer`'s body, re-assembled from `sort_dc_config`.
    fn traced(&mut self) -> Result<Vec<u64>, String> {
        let _root = spans::enter(Boundary::Run);
        let xs = self.xs.clone();
        let (stack, executor) = {
            let _s = spans::enter(Boundary::Assemble);
            let stack = ConcernStack::new();
            stack.weaver().register_class::<Sorter>();
            let mut config = sort_dc_config(SORT_THRESHOLD);
            config.divide = spanned_split(config.divide);
            config.combine = spanned_combine(config.combine);
            stack.plug(Concern::Partition, config.metrics(&self.registry).aspect("Partition"));
            let executor = Executor::thread_per_call();
            stack.plug_all(
                Concern::Concurrency,
                future_concurrency_aspect(
                    "Concurrency",
                    Pointcut::call("Sorter.sort"),
                    executor.clone(),
                ),
            );
            plug_boundaries(
                stack.weaver(),
                Bands {
                    asynchronous: true,
                    partition: true,
                    synchronisation: true,
                    ..Bands::default()
                },
            );
            (stack, executor)
        };
        let sorter = {
            let _s = spans::enter(Boundary::Construct);
            SorterProxy::construct(stack.weaver()).map_err(err)?
        };
        let raw = {
            let _s = spans::enter(Boundary::Call);
            sorter.handle().call("sort", args![Pack::from_vec(xs)]).map_err(err)?
        };
        let sorted: Pack = {
            let _s = spans::enter(Boundary::Resolve);
            downcast_ret(resolve_any(raw).map_err(err)?).map_err(err)?
        };
        {
            let _s = spans::enter(Boundary::WaitIdle);
            executor.wait_idle();
        }
        let _s = spans::enter(Boundary::ToVec);
        Ok(sorted.to_vec())
    }

    fn valid(&mut self, out: &Vec<u64>) -> bool {
        *out == self.expect
    }

    fn counts(&self) -> Counts {
        counts_from(&self.registry)
    }

    // A thread per sub-problem, each blocked on its children's futures.
    const CLOCK: Clock = Clock::ThreadCpu;
}

// ---- heat_sync --------------------------------------------------------------

const HEAT_LEN: u64 = 512;
const HEAT_WORKERS: usize = 2;
const HEAT_BOUNDS: (f64, f64, f64) = (0.0, 100.0, 0.0);

/// Single-threaded heartbeat: join points and skeleton, almost no kernel.
pub struct HeatSync {
    iterations: u64,
    expect: Vec<f64>,
}

impl HeatSync {
    pub fn setup(_rng: &mut Rng, sizes: &Sizes) -> Result<Self, String> {
        let (initial, left, right) = HEAT_BOUNDS;
        let iterations = sizes.heat_iterations;
        Ok(HeatSync {
            iterations,
            expect: solve_sequential(HEAT_LEN, initial, left, right, iterations),
        })
    }
}

impl Program for HeatSync {
    type Out = Vec<f64>;

    fn woven(&mut self) -> Result<Vec<f64>, String> {
        let (initial, left, right) = HEAT_BOUNDS;
        solve_heartbeat(HEAT_LEN, initial, left, right, self.iterations, HEAT_WORKERS).map_err(err)
    }

    fn reference(&mut self) -> Result<Vec<f64>, String> {
        let (initial, left, right) = HEAT_BOUNDS;
        Ok(solve_sequential(HEAT_LEN, initial, left, right, self.iterations))
    }

    /// `solve_heartbeat`'s body, re-assembled from `heat_heartbeat_config`.
    fn traced(&mut self) -> Result<Vec<f64>, String> {
        let (initial, left, right) = HEAT_BOUNDS;
        let _root = spans::enter(Boundary::Run);
        let stack = {
            let _s = spans::enter(Boundary::Assemble);
            let stack = ConcernStack::new();
            let mut config = heat_heartbeat_config(HEAT_WORKERS);
            let (exchange, collect) = (config.exchange, config.collect);
            config.exchange = Arc::new(move |weaver: &Weaver, workers: &[ObjId], iteration| {
                let _s = spans::enter(Boundary::Exchange);
                exchange(weaver, workers, iteration)
            });
            config.collect = Arc::new(move |weaver: &Weaver, workers: &[ObjId]| {
                let _s = spans::enter(Boundary::Exchange);
                collect(weaver, workers)
            });
            stack.plug(Concern::Partition, config.aspect("Partition"));
            plug_boundaries(stack.weaver(), Bands { partition: true, ..Bands::default() });
            stack
        };
        let rod = {
            let _s = spans::enter(Boundary::Construct);
            RodProxy::construct(stack.weaver(), HEAT_LEN, initial, left, right).map_err(err)?
        };
        let _s = spans::enter(Boundary::Call);
        rod.run(self.iterations).map_err(err)
    }

    fn valid(&mut self, out: &Vec<f64>) -> bool {
        out.len() == self.expect.len()
            && out.iter().zip(&self.expect).all(|(a, b)| (a - b).abs() <= 1e-9)
    }
}

// ---- mandel_pool_fine -------------------------------------------------------

const MANDEL_WIDTH: u64 = 256;
const MANDEL_ITERS: u64 = 32;

/// Farm over the work-stealing pool, one image row per pack.
pub struct MandelPoolFine {
    stack: ConcernStack,
    executor: Executor,
    height: u64,
    workers: usize,
    expect: Vec<u64>,
    registry: MetricsRegistry,
}

impl MandelPoolFine {
    pub fn setup(_rng: &mut Rng, sizes: &Sizes) -> Result<Self, String> {
        let height = sizes.mandel_height;
        let workers = sizes.workers;
        let registry = MetricsRegistry::new();
        let stack = ConcernStack::new();
        // One image row per pack. The closures' spans record only in the
        // traced run; untraced they cost one relaxed load each.
        let mut protocol = mandel_protocol(workers, height as usize);
        protocol.split = spanned_split(protocol.split);
        protocol.combine = spanned_combine(protocol.combine);
        stack.plug(
            Concern::Partition,
            FarmConfig::new(protocol).metrics(&registry).aspect("Partition"),
        );
        let executor = Executor::pool(workers, "mandel");
        executor.install_metrics(&registry, "pool");
        stack.plug_all(
            Concern::Concurrency,
            future_concurrency_aspect(
                "Concurrency",
                Pointcut::call("Mandelbrot.render_rows"),
                executor.clone(),
            ),
        );
        Ok(MandelPoolFine {
            stack,
            executor,
            height,
            workers,
            expect: render_sequential(MANDEL_WIDTH, height, MANDEL_ITERS),
            registry,
        })
    }

    /// One render; the spans record only while the traced run has them on.
    fn render(&self) -> Result<Vec<u64>, String> {
        let _root = spans::enter(Boundary::Run);
        let m = {
            let _s = spans::enter(Boundary::Construct);
            MandelbrotProxy::construct(self.stack.weaver(), MANDEL_WIDTH, self.height, MANDEL_ITERS)
                .map_err(err)?
        };
        let raw = {
            let _s = spans::enter(Boundary::Call);
            m.handle()
                .call("render_rows", args![(0..self.height).collect::<Pack>()])
                .map_err(err)?
        };
        let image: Pack = {
            let _s = spans::enter(Boundary::Resolve);
            downcast_ret(resolve_any(raw).map_err(err)?).map_err(err)?
        };
        {
            let _s = spans::enter(Boundary::WaitIdle);
            self.executor.wait_idle();
        }
        let _s = spans::enter(Boundary::ToVec);
        Ok(image.to_vec())
    }
}

impl Program for MandelPoolFine {
    type Out = Vec<u64>;

    fn woven(&mut self) -> Result<Vec<u64>, String> {
        self.render()
    }

    fn reference(&mut self) -> Result<Vec<u64>, String> {
        Ok(render_sequential(MANDEL_WIDTH, self.height, MANDEL_ITERS))
    }

    fn start_tracing(&mut self) -> Result<(), String> {
        plug_boundaries(
            self.stack.weaver(),
            Bands {
                asynchronous: true,
                partition: true,
                synchronisation: true,
                ..Bands::default()
            },
        );
        Ok(())
    }

    fn traced(&mut self) -> Result<Vec<u64>, String> {
        self.render()
    }

    fn valid(&mut self, out: &Vec<u64>) -> bool {
        *out == self.expect
    }

    fn counts(&self) -> Counts {
        counts_from(&self.registry)
    }

    const CLOCK: Clock = Clock::ThreadCpu;

    fn threads(&self) -> usize {
        1 + self.workers
    }
}

// ---- the Cell class of the three call-path workloads --------------------------

pub struct Cell {
    value: u64,
}

weaveable! {
    class Cell as CellProxy {
        fn new(start: u64) -> Self { Cell { value: start } }
        fn add(&mut self, x: u64) -> u64 {
            self.value = self.value.wrapping_add(x);
            self.value
        }
        fn get(&mut self) -> u64 {
            self.value
        }
    }
}

pub(super) fn cell_marshal() -> MarshalRegistry {
    let m = MarshalRegistry::new();
    m.register::<(u64,), ()>("Cell", "new");
    m.register::<(u64,), u64>("Cell", "add");
    m.register::<(), u64>("Cell", "get");
    m
}

fn addends(rng: &mut Rng, n: usize) -> (Vec<u64>, u64) {
    let xs: Vec<u64> = (0..n).map(|_| rng.next() >> 8).collect();
    let sum = xs.iter().fold(0u64, |a, x| a.wrapping_add(*x));
    (xs, sum)
}

/// Issue every addend as one `add` call; the increase of the cell's value.
fn add_all(cell: &CellProxy, xs: &[u64]) -> Result<u64, String> {
    let before = cell.get().map_err(err)?;
    let mut last = before;
    for x in xs {
        last = cell.add(*x).map_err(err)?;
    }
    Ok(last.wrapping_sub(before))
}

// ---- remote_sync ------------------------------------------------------------

/// Replied remote calls through the RMI proxy, no kernel, one CPU.
pub struct RemoteSync {
    remote: CellProxy,
    local: CellProxy,
    fabric: Arc<InProcFabric>,
    stack: ConcernStack,
    xs: Vec<u64>,
    sum: u64,
    registry: MetricsRegistry,
    // Last, so dropped last: one CPU for as long as the fabric lives.
    _confined: Confined,
}

impl RemoteSync {
    pub fn setup(rng: &mut Rng, sizes: &Sizes) -> Result<Self, String> {
        // Before the fabric spawns its node threads, which inherit the mask.
        let confined = Confined::to_one_cpu()?;
        let (xs, sum) = addends(rng, sizes.remote_calls);
        let fabric = InProcFabric::new(2, cell_marshal());
        fabric.register_class::<Cell>();
        let registry = MetricsRegistry::new();
        fabric.install_metrics(&registry, "fabric");
        let stack = ConcernStack::new();
        stack.plug(
            Concern::Distribution,
            RmiConfig::new("Cell", Pointcut::call("Cell.*"), fabric.clone())
                .placement(Policy::round_robin())
                .aspect("Distribution"),
        );
        let remote = CellProxy::construct(stack.weaver(), 0).map_err(err)?;
        let local = CellProxy::construct(ConcernStack::new().weaver(), 0).map_err(err)?;
        Ok(RemoteSync { remote, local, fabric, stack, xs, sum, registry, _confined: confined })
    }
}

impl Program for RemoteSync {
    type Out = u64;

    fn woven(&mut self) -> Result<u64, String> {
        add_all(&self.remote, &self.xs)
    }

    fn reference(&mut self) -> Result<u64, String> {
        add_all(&self.local, &self.xs)
    }

    fn start_tracing(&mut self) -> Result<(), String> {
        plug_boundaries(self.stack.weaver(), Bands { distribution: true, ..Bands::default() });
        plug_served(&self.fabric)
    }

    fn traced(&mut self) -> Result<u64, String> {
        // The loop's own time is the proxy and the dispatch up to the first
        // boundary, so it is the weaver's.
        let _root = spans::enter(Boundary::Calls);
        add_all(&self.remote, &self.xs)
    }

    fn valid(&mut self, out: &u64) -> bool {
        *out == self.sum
    }

    fn counts(&self) -> Counts {
        counts_from(&self.registry)
    }

    const BODY: Layer = Layer::Weave;
}

// ---- weave_calls and weave_churn ---------------------------------------------

pub(super) fn pass_through(name: &str, at: i32) -> Aspect {
    Aspect::named(name)
        .precedence(at)
        .around(Pointcut::call("Cell.*"), |inv: &mut Invocation| inv.proceed())
        .build()
}

/// A weaver with three pass-through aspects and a recording metrics aspect.
struct AdvisedCell {
    weaver: Weaver,
    cell: CellProxy,
    registry: MetricsRegistry,
    baseline_aspects: usize,
}

impl AdvisedCell {
    fn new() -> Result<Self, String> {
        let weaver = Weaver::new();
        for (i, at) in [10, 20, 30].into_iter().enumerate() {
            weaver.plug(pass_through(&format!("Pass{i}"), at));
        }
        let registry = MetricsRegistry::new();
        weaver.plug(metrics_aspect("cell", Pointcut::call("Cell.add"), &registry));
        let cell = CellProxy::construct(&weaver, 0).map_err(err)?;
        let baseline_aspects = weaver.aspect_names().len();
        Ok(AdvisedCell { weaver, cell, registry, baseline_aspects })
    }

    fn recorded_calls(&self) -> u64 {
        self.registry.snapshot().counter("cell.calls").unwrap_or(0)
    }

    /// The boundaries count among the aspects the weaver must hold again
    /// after a run.
    fn plug_tracing(&mut self) {
        plug_boundaries(&self.weaver, Bands { outer: true, ..Bands::default() });
        self.baseline_aspects = self.weaver.aspect_names().len();
    }
}

/// The weaver's read path: snapshot load, chain-cache hit, four advice hops.
pub struct WeaveCalls {
    advised: AdvisedCell,
    bare: CellProxy,
    xs: Vec<u64>,
    sum: u64,
    issued: u64,
}

impl WeaveCalls {
    pub fn setup(rng: &mut Rng, sizes: &Sizes) -> Result<Self, String> {
        let (xs, sum) = addends(rng, sizes.weave_calls);
        Ok(WeaveCalls {
            advised: AdvisedCell::new()?,
            bare: CellProxy::construct(&Weaver::new(), 0).map_err(err)?,
            xs,
            sum,
            issued: 0,
        })
    }
}

impl Program for WeaveCalls {
    type Out = u64;

    fn woven(&mut self) -> Result<u64, String> {
        self.issued += self.xs.len() as u64;
        add_all(&self.advised.cell, &self.xs)
    }

    fn reference(&mut self) -> Result<u64, String> {
        add_all(&self.bare, &self.xs)
    }

    fn start_tracing(&mut self) -> Result<(), String> {
        self.advised.plug_tracing();
        Ok(())
    }

    fn traced(&mut self) -> Result<u64, String> {
        let _root = spans::enter(Boundary::Calls);
        self.woven()
    }

    fn valid(&mut self, out: &u64) -> bool {
        *out == self.sum && self.advised.recorded_calls() == self.issued
    }

    const BODY: Layer = Layer::Weave;
}

/// `weave_calls`' stack and loop while a fourth aspect is plugged and
/// unplugged: republish, generation bump and chain-cache misses.
pub struct WeaveChurn {
    churned: AdvisedCell,
    steady: AdvisedCell,
    xs: Vec<u64>,
    sum: u64,
    /// Call indices before which the fourth aspect is toggled: one in every
    /// block of `CHURN_EVERY` calls, at an offset drawn from the seed.
    toggles: Vec<usize>,
}

const CHURN_EVERY: usize = 4;

impl WeaveChurn {
    pub fn setup(rng: &mut Rng, sizes: &Sizes) -> Result<Self, String> {
        let (xs, sum) = addends(rng, sizes.weave_calls);
        let mut toggles: Vec<usize> = (0..xs.len() / CHURN_EVERY)
            .map(|block| block * CHURN_EVERY + (rng.next() % CHURN_EVERY as u64) as usize)
            .collect();
        // An even number, so the fourth aspect ends every run unplugged.
        toggles.truncate(toggles.len() & !1);
        Ok(WeaveChurn {
            churned: AdvisedCell::new()?,
            steady: AdvisedCell::new()?,
            xs,
            sum,
            toggles,
        })
    }
}

impl Program for WeaveChurn {
    type Out = u64;

    fn woven(&mut self) -> Result<u64, String> {
        let weaver = &self.churned.weaver;
        let cell = &self.churned.cell;
        let before = cell.get().map_err(err)?;
        let mut last = before;
        let mut fourth: Option<PluggedAspect> = None;
        let mut toggles = self.toggles.iter().copied().peekable();
        for (i, x) in self.xs.iter().enumerate() {
            if toggles.peek() == Some(&i) {
                toggles.next();
                match fourth.take() {
                    Some(plugged) => {
                        weaver.unplug(&plugged);
                    }
                    None => fourth = Some(weaver.plug(pass_through("Pass3", 40))),
                }
            }
            last = cell.add(*x).map_err(err)?;
        }
        Ok(last.wrapping_sub(before))
    }

    fn reference(&mut self) -> Result<u64, String> {
        add_all(&self.steady.cell, &self.xs)
    }

    fn start_tracing(&mut self) -> Result<(), String> {
        self.churned.plug_tracing();
        Ok(())
    }

    fn traced(&mut self) -> Result<u64, String> {
        let _root = spans::enter(Boundary::Calls);
        self.woven()
    }

    fn valid(&mut self, out: &u64) -> bool {
        *out == self.sum
            && self.churned.weaver.aspect_names().len() == self.churned.baseline_aspects
    }

    const BODY: Layer = Layer::Weave;
}
