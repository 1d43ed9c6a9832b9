//! The divide-and-conquer partition aspect.
//!
//! §4.1: "Object duplication is specified by intercepting the creation of
//! objects and method split calls are specified by intercepting method
//! calls, but **it is also possible to perform object creations when
//! intercepting method calls (e.g., in divide and conquer algorithms)**."
//!
//! That is exactly what this aspect does: intercepting a `solve` call whose
//! problem is still large, it *creates sub-worker objects at the call join
//! point*, dispatches the sub-problems to them, and combines. The sub-calls
//! are themselves intercepted (advice applies recursively to aspect-made
//! calls, like the pipeline's forwarding), so the recursion tree unfolds
//! through the weaver — and the concurrency/distribution aspects apply at
//! every level.
//!
//! With the concurrency module plugged, every divide level joins its
//! sub-results on whatever thread the level runs on. Any executor works: on
//! thread-per-call each level blocks a thread of its own; on the
//! work-stealing pool the join *helps* — the worker runs queued sub-problems
//! (its own youngest child first) until its results are in — so the tree may
//! be far deeper than the pool is wide (see `weavepar_concurrency::pool`,
//! "Joins").

use std::sync::Arc;

use weavepar_concurrency::{resolve_any, BatchScope};
use weavepar_weave::aspect::precedence;
use weavepar_weave::prelude::*;
use weavepar_weave::MetricsRegistry;

use crate::common::{MapArgsFn, PredicateFn, SplitFn};

/// Configuration of a concrete divide-and-conquer computation.
#[derive(Clone)]
pub struct DivideConquerConfig {
    /// Weaveable class of the solvers.
    pub class: &'static str,
    /// The recursive method (e.g. `solve`).
    pub method: &'static str,
    /// Should this call's problem be divided further (false = solve
    /// directly via `proceed`)? A tuned cutoff is a tunable's cell this
    /// closure captures and reads, as a partition's `split` reads its grain.
    pub should_divide: PredicateFn,
    /// Split the call's arguments into sub-problem argument packs.
    pub divide: SplitFn,
    /// Constructor arguments for a sub-worker created for the given
    /// sub-problem.
    pub worker_args: MapArgsFn,
    /// Combine the sub-results into this call's result.
    pub combine: Arc<dyn Fn(Vec<AnyValue>) -> WeaveResult<AnyValue> + Send + Sync>,
}

impl std::fmt::Debug for DivideConquerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DivideConquerConfig")
            .field("class", &self.class)
            .field("method", &self.method)
            .finish()
    }
}

impl DivideConquerConfig {
    /// Meter the recursion into `registry`: `{name}.divides` counts divide
    /// events, `{name}.sub_calls` counts sub-problems dispatched.
    pub fn metrics(self, registry: &MetricsRegistry) -> DivideConquerBuilder {
        self.builder().metrics(registry)
    }

    /// Build the divide-and-conquer aspect named `name`, unmetered.
    pub fn aspect(self, name: impl Into<String>) -> Aspect {
        self.builder().aspect(name)
    }

    fn builder(self) -> DivideConquerBuilder {
        DivideConquerBuilder { config: self, metrics: None }
    }
}

/// Option carrier produced by [`DivideConquerConfig::metrics`]; finish with
/// [`aspect`](DivideConquerBuilder::aspect).
#[derive(Clone)]
pub struct DivideConquerBuilder {
    config: DivideConquerConfig,
    metrics: Option<MetricsRegistry>,
}

impl DivideConquerBuilder {
    /// See [`DivideConquerConfig::metrics`].
    pub fn metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(registry.clone());
        self
    }

    /// Build the divide-and-conquer aspect named `name`.
    pub fn aspect(self, name: impl Into<String>) -> Aspect {
        let name = name.into();
        let DivideConquerBuilder { config, metrics } = self;
        // Counters resolved once at build time; the recursion bumps pre-bound
        // atomics only.
        let meters = metrics.map(|m| {
            (m.counter(&format!("{name}.divides")), m.counter(&format!("{name}.sub_calls")))
        });
        let cfg = config;
        Aspect::named(name)
            .precedence(precedence::PARTITION)
            // Applies to every call site — core and aspect alike — so the
            // recursion unfolds until `should_divide` says stop.
            .around(Pointcut::call_sig(cfg.class, cfg.method), {
                let cfg = cfg.clone();
                move |inv: &mut Invocation| {
                    if !(cfg.should_divide)(inv.args()?)? {
                        return inv.proceed();
                    }
                    let weaver = inv.weaver().clone();
                    let subproblems = (cfg.divide)(inv.args()?)?;
                    if let Some((divides, sub_calls)) = &meters {
                        divides.inc();
                        sub_calls.add(subproblems.len() as u64);
                    }
                    let mut pending = Vec::with_capacity(subproblems.len());
                    // One batch submission per divide level. Each level flushes
                    // before joining its sub-results; a sub-call that a pool
                    // worker runs inline during that join opens a scope of its
                    // own and never sees this one.
                    let scope = BatchScope::enter();
                    for sub in subproblems {
                        // Object creation at a *call* join point: a fresh
                        // aspect-managed worker per sub-problem, constructed through
                        // the weaver so distribution places it.
                        let worker = weaver.construct_dyn(cfg.class, (cfg.worker_args)(&sub)?)?;
                        pending.push(weaver.invoke_call(worker, cfg.class, cfg.method, sub)?);
                    }
                    scope.flush();
                    let mut results = Vec::with_capacity(pending.len());
                    for ret in pending {
                        results.push(resolve_any(ret)?);
                    }
                    (cfg.combine)(results)
                }
            })
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weavepar_concurrency::{future_concurrency_aspect, Executor};
    use weavepar_weave::{args, value::downcast_ret};

    /// Summation solver: trivially divisible, easy to verify.
    struct Summer {
        calls: u64,
    }

    weavepar_weave::weaveable! {
        class Summer as SummerProxy {
            fn new() -> Self { Summer { calls: 0 } }
            fn solve(&mut self, xs: Vec<u64>) -> u64 {
                self.calls += 1;
                xs.iter().sum()
            }
        }
    }

    fn config(threshold: usize) -> DivideConquerConfig {
        DivideConquerConfig {
            class: "Summer",
            method: "solve",
            should_divide: Arc::new(move |a: &Args| Ok(a.get::<Vec<u64>>(0)?.len() > threshold)),
            divide: Arc::new(|a: &Args| {
                let xs = a.get::<Vec<u64>>(0)?;
                let mid = xs.len() / 2;
                Ok(vec![args![xs[..mid].to_vec()], args![xs[mid..].to_vec()]])
            }),
            worker_args: Arc::new(|_sub| Ok(args![])),
            combine: Arc::new(|vs: Vec<AnyValue>| {
                let mut total = 0u64;
                for v in vs {
                    total += downcast_ret::<u64>(v)?;
                }
                Ok(weavepar_weave::ret!(total))
            }),
        }
    }

    #[test]
    fn recursion_divides_to_the_threshold() {
        let weaver = Weaver::new();
        weaver.register_class::<Summer>();
        weaver.plug(config(4).aspect("Partition.dc"));
        let s = SummerProxy::construct(&weaver).unwrap();
        let xs: Vec<u64> = (1..=32).collect();
        assert_eq!(s.solve(xs).unwrap(), 32 * 33 / 2);
        // 32 elements over threshold 4: the tree creates workers at every
        // divide — 2 + 4 + 8 = 14 internal splits' children... at minimum
        // more than one object must now exist.
        let objects = weaver.space().ids_of_class("Summer").len();
        assert!(objects > 8, "recursive division must create sub-workers: {objects}");
    }

    #[test]
    fn small_problems_solve_directly() {
        let weaver = Weaver::new();
        weaver.register_class::<Summer>();
        weaver.plug(config(100).aspect("Partition.dc"));
        let s = SummerProxy::construct(&weaver).unwrap();
        assert_eq!(s.solve(vec![1, 2, 3]).unwrap(), 6);
        assert_eq!(weaver.space().ids_of_class("Summer").len(), 1, "no division, no workers");
    }

    #[test]
    fn concurrent_divide_conquer_matches() {
        let weaver = Weaver::new();
        weaver.register_class::<Summer>();
        weaver.plug(config(8).aspect("Partition.dc"));
        let executor = Executor::thread_per_call();
        for a in future_concurrency_aspect(
            "Concurrency",
            Pointcut::call("Summer.solve"),
            executor.clone(),
        ) {
            weaver.plug(a);
        }
        let s = SummerProxy::construct(&weaver).unwrap();
        let xs: Vec<u64> = (0..256).collect();
        let raw = s.handle().call("solve", args![xs]).unwrap();
        let total = downcast_ret::<u64>(resolve_any(raw).unwrap()).unwrap();
        assert_eq!(total, 255 * 256 / 2);
        executor.wait_idle();
    }

    #[test]
    fn unplugged_solves_sequentially() {
        let weaver = Weaver::new();
        let plugged = weaver.plug(config(2).aspect("Partition.dc"));
        weaver.unplug(&plugged);
        let s = SummerProxy::construct(&weaver).unwrap();
        assert_eq!(s.solve((0..64).collect()).unwrap(), 63 * 64 / 2);
        assert_eq!(weaver.space().ids_of_class("Summer").len(), 1);
    }

    #[test]
    fn empty_input() {
        let weaver = Weaver::new();
        weaver.register_class::<Summer>();
        weaver.plug(config(4).aspect("Partition.dc"));
        let s = SummerProxy::construct(&weaver).unwrap();
        assert_eq!(s.solve(vec![]).unwrap(), 0);
    }
}
