//! The reusable farm partition aspect (paper Figure 10).
//!
//! "In a simple farming parallelisation each filter has ALL the primes up to
//! the square root of the maximum number and each pack of numbers can be
//! processed by ANY PrimeFilter." Relative to the pipeline this changes two
//! things: worker constructor arguments are broadcast (every worker gets the
//! full problem), and each pack is routed to exactly one worker instead of
//! being forwarded along a chain.
//!
//! The paper realises routing by editing the forward advice's `next`
//! selection (its blocks 2 and 3); here routing lives in the split advice
//! directly, since both blocks are private to the partition module — a
//! deviation recorded in DESIGN.md.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use weavepar_concurrency::{resolve_any, BatchScope};
use weavepar_weave::aspect::precedence;
use weavepar_weave::prelude::*;
use weavepar_weave::{Counter, MetricsRegistry};

use crate::common::{hints, Protocol, WORKERS_FIELD};

/// Builder-style configuration of a concrete farm. The mandatory part is the
/// [`Protocol`] (whose `worker_args` typically broadcasts the original
/// constructor arguments); everything optional chains:
///
/// ```ignore
/// weaver.plug(FarmConfig::new(protocol).tuned(cell).metrics(&reg).aspect("Partition"));
/// ```
#[derive(Clone)]
pub struct FarmConfig {
    protocol: Protocol,
    packs_hint: Option<Arc<AtomicU32>>,
    metrics: Option<MetricsRegistry>,
}

impl FarmConfig {
    /// A farm over `protocol`, untuned and unmetered.
    pub fn new(protocol: Protocol) -> Self {
        Self { protocol, packs_hint: None, metrics: None }
    }

    /// Follow a live pack-count hint: before each split the aspect publishes
    /// the cell's current value through
    /// [`hints::set_packs`](crate::common::hints), so grain-aware `split`
    /// closures (ones reading
    /// [`hints::packs_or`](crate::common::hints::packs_or)) follow the tuner
    /// while the farm runs.
    pub fn tuned(mut self, packs_hint: Arc<AtomicU32>) -> Self {
        self.packs_hint = Some(packs_hint);
        self
    }

    /// Meter the farm into `registry`: `{name}.packs_issued` counts packs
    /// dispatched by the split advice, `{name}.redispatched` counts packs
    /// re-offered to surviving workers after a node loss.
    pub fn metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(registry.clone());
        self
    }

    /// Build the farm partition aspect named `name`.
    pub fn aspect(self, name: impl Into<String>) -> Aspect {
        let name = name.into();
        let FarmConfig { protocol, packs_hint, metrics } = self;
        // Counters resolved once at build time: the hot path bumps two
        // pre-bound atomics, never consulting the registry.
        let meters = metrics.map(|m| FarmMeters {
            packs: m.counter(&format!("{name}.packs_issued")),
            redispatched: m.counter(&format!("{name}.redispatched")),
        });
        let dup = protocol.clone();
        let route = protocol.clone();

        Aspect::named(name)
            .precedence(precedence::PARTITION)
            // Object duplication with broadcast construction.
            .around(
                Pointcut::construct(protocol.class).and(Pointcut::within_core()),
                move |inv: &mut Invocation| {
                    let weaver = inv.weaver().clone();
                    let ids = dup.create_workers(&weaver, inv.args()?)?;
                    let first = *ids.first().ok_or_else(|| {
                        WeaveError::app("farm protocol needs at least one worker")
                    })?;
                    weaver.intertype().set_field(first, WORKERS_FIELD, ids);
                    Ok(weavepar_weave::ret!(first))
                },
            )
            // Split + round-robin routing of packs to workers.
            .around(
                Pointcut::call_sig(protocol.class, protocol.method).and(Pointcut::within_core()),
                move |inv: &mut Invocation| {
                    let weaver = inv.weaver().clone();
                    let target = inv.target_required()?;
                    let workers = weaver
                        .intertype()
                        .get_field::<Vec<ObjId>>(target, WORKERS_FIELD)
                        .unwrap_or_else(|| vec![target]);
                    let _hint = packs_hint
                        .as_ref()
                        .map(|cell| hints::set_packs(cell.load(Ordering::Relaxed)));
                    let packs = (route.split)(inv.args()?)?;
                    if let Some(m) = &meters {
                        m.packs.add(packs.len() as u64);
                    }
                    let mut pending = Vec::with_capacity(packs.len());
                    // With a concurrency aspect plugged, every invoke below ends
                    // in an executor spawn; the scope coalesces them into one
                    // batch submission for the whole pack set, flushed before the
                    // results are awaited.
                    let scope = BatchScope::enter();
                    for (k, pack) in packs.into_iter().enumerate() {
                        let worker = workers[k % workers.len()];
                        pending
                            .push((k, weaver.invoke_call(worker, route.class, route.method, pack)));
                    }
                    scope.flush();
                    let mut results = Vec::with_capacity(pending.len());
                    // Packs regenerated for orphan re-dispatch, shared across
                    // orphans so one wave of losses costs one extra split, not
                    // one per pack per attempt.
                    let mut regen: Option<Vec<Option<Args>>> = None;
                    for (k, ret) in pending {
                        match ret.and_then(resolve_any) {
                            Ok(v) => results.push(v),
                            Err(err) if err.is_node_loss() => {
                                // Farm property: any worker can process any pack.
                                // A pack orphaned by a dead node is regenerated
                                // from the original arguments and offered to the
                                // surviving workers.
                                if let Some(m) = &meters {
                                    m.redispatched.inc();
                                }
                                results.push(redispatch_pack(
                                    &weaver,
                                    &route,
                                    &workers,
                                    k,
                                    inv.args()?,
                                    &mut regen,
                                    err,
                                )?);
                            }
                            Err(err) => return Err(err),
                        }
                    }
                    (route.combine)(results)
                },
            )
            .build()
    }
}

/// Pre-resolved farm counters (see [`FarmConfig::metrics`]).
#[derive(Clone)]
struct FarmMeters {
    packs: Counter,
    redispatched: Counter,
}

/// Re-dispatch pack `k`, lost to a dead node, on the other workers in
/// round-robin order starting after the one that failed. Argument packs are
/// consumed by dispatch, so a retry needs a fresh pack; `regen` caches one
/// whole regenerated split per orphan wave (filled lazily, packs taken as
/// orphans claim them) so the common one-attempt recovery re-splits the
/// original arguments once in total instead of once per orphaned pack.
/// Returns the last node-loss error when every worker is unreachable;
/// non-loss errors abort immediately.
fn redispatch_pack(
    weaver: &Weaver,
    route: &Protocol,
    workers: &[ObjId],
    k: usize,
    original: &Args,
    regen: &mut Option<Vec<Option<Args>>>,
    err: WeaveError,
) -> WeaveResult<AnyValue> {
    let mut last = err;
    for offset in 1..workers.len() {
        let alt = workers[(k + offset) % workers.len()];
        let cached = match regen {
            Some(packs) => packs.get_mut(k).and_then(Option::take),
            None => {
                let packs: Vec<Option<Args>> =
                    (route.split)(original)?.into_iter().map(Some).collect();
                *regen = Some(packs);
                regen.as_mut().expect("just filled").get_mut(k).and_then(Option::take)
            }
        };
        let pack = match cached {
            Some(pack) => pack,
            // A second attempt for the same pack: the cached copy was
            // consumed by the failed dispatch, regenerate just this one.
            None => (route.split)(original)?
                .into_iter()
                .nth(k)
                .ok_or_else(|| WeaveError::app("farm cannot regenerate a lost pack"))?,
        };
        match weaver.invoke_call(alt, route.class, route.method, pack).and_then(resolve_any) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_node_loss() => last = e,
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;
    use weavepar_concurrency::{future_concurrency_aspect, Executor};
    use weavepar_weave::{args, value::downcast_ret};

    /// Doubles every item; counts how many packs it served.
    pub(crate) struct Worker {
        pub(crate) served: u64,
    }

    weavepar_weave::weaveable! {
        class Worker as WorkerProxy {
            fn new(_seed: u64) -> Self { Worker { served: 0 } }
            fn compute(&mut self, items: Vec<u64>) -> Vec<u64> {
                self.served += 1;
                items.into_iter().map(|x| x * 2).collect()
            }
            fn served(&mut self) -> u64 { self.served }
        }
    }

    fn protocol(workers: usize, packs: usize) -> Protocol {
        Protocol {
            class: "Worker",
            method: "compute",
            workers,
            // Broadcast: every worker receives the original arguments.
            worker_args: Arc::new(|_rank, _n, orig: &Args| Ok(args![*orig.get::<u64>(0)?])),
            split: Arc::new(move |a: &Args| {
                let items = a.get::<Vec<u64>>(0)?;
                let chunk = items.len().div_ceil(packs.max(1)).max(1);
                Ok(items.chunks(chunk).map(|c| args![c.to_vec()]).collect())
            }),
            reforward: Arc::new(|v: AnyValue| Ok(Args::from_values(vec![v]))),
            combine: Arc::new(|vs: Vec<AnyValue>| {
                let mut all = Vec::new();
                for v in vs {
                    all.extend(downcast_ret::<Vec<u64>>(v)?);
                }
                Ok(weavepar_weave::ret!(all))
            }),
        }
    }

    #[test]
    fn farm_computes_and_preserves_order() {
        let weaver = Weaver::new();
        weaver.plug(FarmConfig::new(protocol(3, 6)).aspect("Partition"));
        let w = WorkerProxy::construct(&weaver, 42).unwrap();
        assert_eq!(weaver.space().ids_of_class("Worker").len(), 3);
        let input: Vec<u64> = (0..24).collect();
        let out = w.compute(input.clone()).unwrap();
        assert_eq!(out, input.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn packs_are_spread_round_robin() {
        let weaver = Weaver::new();
        weaver.plug(FarmConfig::new(protocol(3, 6)).aspect("Partition"));
        let w = WorkerProxy::construct(&weaver, 0).unwrap();
        w.compute((0..24).collect()).unwrap();
        // 6 packs over 3 workers: 2 each.
        for id in weaver.space().ids_of_class("Worker") {
            let served = weaver.space().with_object::<Worker, _>(id, |w| w.served).unwrap();
            assert_eq!(served, 2, "round robin must balance packs");
        }
        let _ = w;
    }

    #[test]
    fn farm_with_concurrency_matches_sequential() {
        let weaver = Weaver::new();
        weaver.plug(FarmConfig::new(protocol(4, 8)).aspect("Partition"));
        let executor = Executor::thread_per_call();
        for a in future_concurrency_aspect(
            "Concurrency",
            Pointcut::call("Worker.compute"),
            executor.clone(),
        ) {
            weaver.plug(a);
        }
        let w = WorkerProxy::construct(&weaver, 0).unwrap();
        let ret = w.handle().call("compute", args![(0..64).collect::<Vec<u64>>()]).unwrap();
        let out = downcast_ret::<Vec<u64>>(resolve_any(ret).unwrap()).unwrap();
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
        executor.wait_idle();
    }

    #[test]
    fn unmanaged_target_falls_back_to_itself() {
        // Plug the farm aspect *after* construction: the object has no
        // workers field, so packs all route to the original object.
        let weaver = Weaver::new();
        let w = WorkerProxy::construct(&weaver, 0).unwrap();
        weaver.plug(FarmConfig::new(protocol(3, 2)).aspect("Partition"));
        let out = w.compute(vec![1, 2, 3, 4]).unwrap();
        assert_eq!(out, vec![2, 4, 6, 8]);
        assert_eq!(w.served().unwrap(), 2, "both packs served by the original");
    }

    #[test]
    fn swap_pipeline_for_farm_is_a_replug() {
        // The paper's headline: exchanging one partition strategy for the
        // other is plugging a different aspect — core code untouched.
        let weaver = Weaver::new();
        let pipeline = weaver.plug(
            crate::pipeline::PipelineConfig::new(Protocol {
                // Pipeline of no-op-ish taggers is unsuitable for Worker, so
                // use a 1-stage pipeline: semantically same as the farm of 1.
                workers: 1,
                ..protocol(1, 2)
            })
            .aspect("Partition"),
        );
        let w = WorkerProxy::construct(&weaver, 0).unwrap();
        assert_eq!(w.compute(vec![3]).unwrap(), vec![6]);
        weaver.unplug(&pipeline);
        weaver.plug(FarmConfig::new(protocol(3, 3)).aspect("Partition"));
        let w2 = WorkerProxy::construct(&weaver, 0).unwrap();
        assert_eq!(w2.compute(vec![3]).unwrap(), vec![6]);
    }

    fn marshal() -> weavepar_middleware::MarshalRegistry {
        let m = weavepar_middleware::MarshalRegistry::new();
        m.register::<(u64,), ()>("Worker", "new");
        m.register::<(Vec<u64>,), Vec<u64>>("Worker", "compute");
        m
    }

    #[test]
    fn farm_redispatches_orphaned_packs_without_a_supervisor() {
        use weavepar_middleware::{InProcFabric, RmiConfig};
        let fabric = InProcFabric::new(2, marshal());
        fabric.register_class::<Worker>();
        let weaver = Weaver::new();
        weaver.plug(FarmConfig::new(protocol(2, 4)).aspect("Partition"));
        weaver.plug(
            RmiConfig::new("Worker", Pointcut::call("Worker.compute"), fabric.clone())
                .aspect("Distribution"),
        );
        let w = WorkerProxy::construct(&weaver, 0).unwrap();
        // Two workers on nodes 0 and 1; node 1 dies. Its packs are
        // regenerated and served by the survivor — results identical.
        fabric.kill_node(1).unwrap();
        let input: Vec<u64> = (0..16).collect();
        let out = w.compute(input.clone()).unwrap();
        assert_eq!(out, input.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn farm_with_every_worker_dead_fails_typed() {
        use weavepar_middleware::{InProcFabric, RmiConfig};
        let fabric = InProcFabric::new(2, marshal());
        fabric.register_class::<Worker>();
        let weaver = Weaver::new();
        weaver.plug(FarmConfig::new(protocol(2, 2)).aspect("Partition"));
        weaver.plug(
            RmiConfig::new("Worker", Pointcut::call("Worker.compute"), fabric.clone())
                .aspect("Distribution"),
        );
        let w = WorkerProxy::construct(&weaver, 0).unwrap();
        fabric.kill_node(0).unwrap();
        fabric.kill_node(1).unwrap();
        let err = w.compute(vec![1, 2]).unwrap_err();
        assert!(err.is_node_loss(), "unexpected error: {err}");
    }

    #[test]
    fn metered_farm_counts_packs_and_redispatches() {
        use weavepar_middleware::{InProcFabric, RmiConfig};
        let registry = MetricsRegistry::new();
        let fabric = InProcFabric::new(2, marshal());
        fabric.register_class::<Worker>();
        let weaver = Weaver::new();
        weaver.plug(FarmConfig::new(protocol(2, 4)).metrics(&registry).aspect("Partition"));
        weaver.plug(
            RmiConfig::new("Worker", Pointcut::call("Worker.compute"), fabric.clone())
                .aspect("Distribution"),
        );
        let w = WorkerProxy::construct(&weaver, 0).unwrap();
        fabric.kill_node(1).unwrap();
        let input: Vec<u64> = (0..16).collect();
        let out = w.compute(input.clone()).unwrap();
        assert_eq!(out, input.iter().map(|x| x * 2).collect::<Vec<_>>());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("Partition.packs_issued"), Some(4));
        // Packs 1 and 3 landed on the dead node and came back through
        // re-dispatch.
        assert_eq!(snap.counter("Partition.redispatched"), Some(2));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{Worker, WorkerProxy};
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;
    use weavepar_weave::{args, value::downcast_ret};

    fn protocol(workers: usize, packs: usize) -> Protocol {
        Protocol {
            class: "Worker",
            method: "compute",
            workers,
            worker_args: Arc::new(|_rank, _n, orig: &Args| Ok(args![*orig.get::<u64>(0)?])),
            split: Arc::new(move |a: &Args| {
                let items = a.get::<Vec<u64>>(0)?;
                if items.is_empty() {
                    return Ok(Vec::new());
                }
                let chunk = items.len().div_ceil(packs.max(1)).max(1);
                Ok(items.chunks(chunk).map(|c| args![c.to_vec()]).collect())
            }),
            reforward: Arc::new(|v: AnyValue| Ok(Args::from_values(vec![v]))),
            combine: Arc::new(|vs: Vec<AnyValue>| {
                let mut all = Vec::new();
                for v in vs {
                    all.extend(downcast_ret::<Vec<u64>>(v)?);
                }
                Ok(weavepar_weave::ret!(all))
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Farming is semantically invisible: any input, worker count and
        /// pack count produces exactly the sequential map, in order.
        #[test]
        fn farm_is_semantically_invisible(
            input in proptest::collection::vec(any::<u32>(), 0..200),
            workers in 1usize..6,
            packs in 1usize..10,
        ) {
            let input: Vec<u64> = input.into_iter().map(u64::from).collect();
            let weaver = Weaver::new();
            weaver.plug(FarmConfig::new(protocol(workers, packs)).aspect("Partition"));
            let w = WorkerProxy::construct(&weaver, 0).unwrap();
            let out = w.compute(input.clone()).unwrap();
            let expect: Vec<u64> = input.iter().map(|x| x * 2).collect();
            prop_assert_eq!(out, expect);
            // The duplication invariant: exactly `workers` aspect-managed
            // objects exist besides nothing else.
            prop_assert_eq!(weaver.space().ids_of_class("Worker").len(), workers);
        }

        /// Pack routing covers every worker when there are at least as many
        /// packs as workers (round-robin coverage).
        #[test]
        fn round_robin_covers_all_workers(workers in 1usize..5, multiplier in 1usize..4) {
            let packs = workers * multiplier;
            let weaver = Weaver::new();
            weaver.plug(FarmConfig::new(protocol(workers, packs)).aspect("Partition"));
            let w = WorkerProxy::construct(&weaver, 0).unwrap();
            let input: Vec<u64> = (0..(packs as u64 * 4)).collect();
            w.compute(input).unwrap();
            for id in weaver.space().ids_of_class("Worker") {
                let served = weaver.space().with_object::<Worker, _>(id, |w| w.served).unwrap();
                prop_assert!(served >= 1, "worker {id} starved");
            }
        }
    }
}
