//! The reusable pipeline partition aspect — Figure 8's three blocks, made
//! generic (Figure 9).
//!
//! 1. **Object duplication** (`around Class.new`, core-made only): the single
//!    core construction becomes a chain of `workers` stage objects linked by
//!    the `pipeline.next` inter-type field; the client receives the first.
//! 2. **Method-call split** (`around Class.method`, core-made only): the one
//!    big call becomes one call per pack; pack results are combined into the
//!    original call's result.
//! 3. **Forwarding** (`around Class.method`, *all* call sites — applies
//!    recursively to the aspect's own calls, as the paper highlights): after
//!    the stage processes a pack, its output is forwarded to the next stage;
//!    the value of a pack call is the value produced by the *end* of the
//!    chain.
//!
//! Block 3 runs *inside* a plugged asynchronous-invocation aspect (see
//! `weavepar_weave::aspect::precedence`), so with concurrency plugged every
//! hop returns a future and packs stream through the stages concurrently —
//! the paper's Figure 11.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use weavepar_concurrency::resolve_any;
use weavepar_weave::aspect::precedence;
use weavepar_weave::prelude::*;
use weavepar_weave::{Gauge, MetricsRegistry};

use crate::common::{hints, Protocol, NEXT_FIELD};

/// Builder-style configuration of a concrete pipeline (see [`Protocol`]):
///
/// ```ignore
/// weaver.plug(PipelineConfig::new(protocol).tuned(cell).metrics(&reg).aspect("Partition"));
/// ```
#[derive(Clone)]
pub struct PipelineConfig {
    protocol: Protocol,
    fusion_hint: Option<Arc<AtomicU32>>,
    metrics: Option<MetricsRegistry>,
}

impl PipelineConfig {
    /// A pipeline over `protocol`, untuned and unmetered.
    pub fn new(protocol: Protocol) -> Self {
        Self { protocol, fusion_hint: None, metrics: None }
    }

    /// Follow a live stage-fusion hint: the cell's value is published through
    /// [`hints::set_fusion`](crate::common::hints) around each split, so a
    /// fusion-aware `split` closure (reading
    /// [`hints::fusion_or`](crate::common::hints::fusion_or)) can coarsen its
    /// packs — fewer, larger packs amortise the per-hop forwarding cost when
    /// a tuner observes the stages are under-loaded.
    pub fn tuned(mut self, fusion_hint: Arc<AtomicU32>) -> Self {
        self.fusion_hint = Some(fusion_hint);
        self
    }

    /// Meter the pipeline into `registry`: `{name}.packs_issued` counts packs
    /// produced by the split, `{name}.stage_occupancy` gauges how many packs
    /// are being processed inside a stage right now (forwarding hops
    /// excluded) — under a plugged concurrency aspect it rises towards the
    /// stage count while packs stream.
    pub fn metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(registry.clone());
        self
    }

    /// Build the pipeline partition aspect named `name`.
    pub fn aspect(self, name: impl Into<String>) -> Aspect {
        let name = name.into();
        let PipelineConfig { protocol, fusion_hint, metrics } = self;
        // Resolved once at build time; the hot path touches pre-bound atomics
        // only.
        let packs_issued = metrics.as_ref().map(|m| m.counter(&format!("{name}.packs_issued")));
        let occupancy = metrics.map(|m| m.gauge(&format!("{name}.stage_occupancy")));
        let dup = protocol.clone();
        let split = protocol.clone();
        let fwd = protocol.clone();

        Aspect::named(name)
            .precedence(precedence::PARTITION)
            // Block 1: object duplication (core constructions only).
            .around(
                Pointcut::construct(protocol.class).and(Pointcut::within_core()),
                move |inv: &mut Invocation| {
                    let weaver = inv.weaver().clone();
                    let ids = dup.create_workers(&weaver, inv.args()?)?;
                    // Link the chain: ids[i] -> ids[i+1], last -> None.
                    for (i, id) in ids.iter().enumerate() {
                        let next = ids.get(i + 1).copied();
                        weaver.intertype().set_field(*id, NEXT_FIELD, next);
                    }
                    let first = *ids.first().ok_or_else(|| {
                        WeaveError::app("pipeline protocol needs at least one stage")
                    })?;
                    Ok(weavepar_weave::ret!(first))
                },
            )
            // Block 2: method-call split (core calls only).
            .around(
                Pointcut::call_sig(protocol.class, protocol.method).and(Pointcut::within_core()),
                move |inv: &mut Invocation| {
                    let weaver = inv.weaver().clone();
                    let target = inv.target_required()?;
                    let packs = {
                        let _hint = fusion_hint
                            .as_ref()
                            .map(|cell| hints::set_fusion(cell.load(Ordering::Relaxed)));
                        (split.split)(inv.args()?)?
                    };
                    if let Some(c) = &packs_issued {
                        c.add(packs.len() as u64);
                    }
                    // Issue every pack call (aspect provenance: matched by the
                    // forward advice and by concurrency/distribution, not by this
                    // split again), then resolve and combine.
                    //
                    // Deliberately NOT wrapped in a `BatchScope` (unlike the farm
                    // and divide-and-conquer skeletons): packs must *enter stage
                    // one in submission order* so the stages see them in the
                    // sequence the split produced — a pack's journey overlaps the
                    // next pack's, which is the pipeline's parallelism. A batch
                    // flush hands the whole set to the work-stealing pool, whose
                    // LIFO deques and stealing give no FIFO guarantee.
                    let mut pending = Vec::with_capacity(packs.len());
                    for pack in packs {
                        pending.push(weaver.invoke_call(
                            target,
                            split.class,
                            split.method,
                            pack,
                        )?);
                    }
                    let mut results = Vec::with_capacity(pending.len());
                    for ret in pending {
                        results.push(resolve_any(ret)?);
                    }
                    (split.combine)(results)
                },
            )
            // Block 3: forwarding (all call sites, applied recursively).
            .around(
                Pointcut::call_sig(protocol.class, protocol.method),
                move |inv: &mut Invocation| {
                    let weaver = inv.weaver().clone();
                    let target = inv.target_required()?;
                    let out = {
                        // Occupancy covers the stage's own processing; the
                        // guard restores the gauge on the error path too.
                        let _occ = occupancy.as_ref().map(|g| {
                            g.inc();
                            OccupancyGuard(g)
                        });
                        inv.proceed()?
                    };
                    match weaver.intertype().get_field::<Option<ObjId>>(target, NEXT_FIELD) {
                        Some(Some(next)) => {
                            // Forward this stage's output down the chain; the
                            // downstream return value (possibly a future) IS this
                            // pack's result.
                            let fwd_args = (fwd.reforward)(out)?;
                            weaver.invoke_call(next, fwd.class, fwd.method, fwd_args)
                        }
                        // Last stage (or an unmanaged object): its output is final.
                        _ => Ok(out),
                    }
                },
            )
            .build()
    }
}

/// Decrements the stage-occupancy gauge on every exit path.
struct OccupancyGuard<'a>(&'a Gauge);

impl Drop for OccupancyGuard<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;
    use weavepar_concurrency::{future_concurrency_aspect, Executor};
    use weavepar_weave::{args, value::downcast_ret};

    /// A stage that appends its tag to every item it sees.
    pub(crate) struct Tagger {
        pub(crate) tag: u64,
    }

    weavepar_weave::weaveable! {
        class Tagger as TaggerProxy {
            fn new(tag: u64) -> Self { Tagger { tag } }
            fn process(&mut self, items: Vec<u64>) -> Vec<u64> {
                items.into_iter().map(|x| x * 10 + self.tag).collect()
            }
        }
    }

    fn protocol(stages: usize, packs: usize) -> Protocol {
        Protocol {
            class: "Tagger",
            method: "process",
            workers: stages,
            worker_args: Arc::new(|rank, _n, _orig| Ok(args![rank as u64 + 1])),
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
    fn sequential_pipeline_transforms_through_all_stages() {
        let weaver = Weaver::new();
        weaver.plug(PipelineConfig::new(protocol(3, 2)).aspect("Partition"));
        let p = TaggerProxy::construct(&weaver, 99).unwrap();
        // 3 stages exist, not 1, and the ctor arg 99 was replaced per stage.
        assert_eq!(weaver.space().ids_of_class("Tagger").len(), 3);
        // Each item passes stages 1, 2, 3: x -> x*10+1 -> ... -> ((x*10+1)*10+2)*10+3.
        let out = p.process(vec![0, 1]).unwrap();
        let f = |x: u64| ((x * 10 + 1) * 10 + 2) * 10 + 3;
        assert_eq!(out, vec![f(0), f(1)]);
    }

    #[test]
    fn pack_order_is_preserved_by_combine() {
        let weaver = Weaver::new();
        weaver.plug(PipelineConfig::new(protocol(1, 4)).aspect("Partition"));
        let p = TaggerProxy::construct(&weaver, 0).unwrap();
        let input: Vec<u64> = (0..16).collect();
        let out = p.process(input.clone()).unwrap();
        let expect: Vec<u64> = input.iter().map(|x| x * 10 + 1).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn concurrent_pipeline_gives_same_answer() {
        let weaver = Weaver::new();
        weaver.plug(PipelineConfig::new(protocol(3, 4)).aspect("Partition"));
        let executor = Executor::thread_per_call();
        for a in future_concurrency_aspect(
            "Concurrency",
            Pointcut::call("Tagger.process"),
            executor.clone(),
        ) {
            weaver.plug(a);
        }
        let p = TaggerProxy::construct(&weaver, 0).unwrap();
        // With concurrency plugged the core-level call returns a future.
        let ret = p.handle().call("process", args![(0..32).collect::<Vec<u64>>()]).unwrap();
        let out = downcast_ret::<Vec<u64>>(resolve_any(ret).unwrap()).unwrap();
        let f = |x: u64| ((x * 10 + 1) * 10 + 2) * 10 + 3;
        let expect: Vec<u64> = (0..32).map(f).collect();
        assert_eq!(out, expect);
        executor.wait_idle();
    }

    #[test]
    fn unplugging_restores_single_object_semantics() {
        let weaver = Weaver::new();
        let plugged = weaver.plug(PipelineConfig::new(protocol(3, 2)).aspect("Partition"));
        weaver.unplug(&plugged);
        let p = TaggerProxy::construct(&weaver, 7).unwrap();
        assert_eq!(weaver.space().ids_of_class("Tagger").len(), 1);
        assert_eq!(p.process(vec![1]).unwrap(), vec![17]);
    }

    #[test]
    fn zero_stage_pipeline_is_an_error() {
        let weaver = Weaver::new();
        weaver.plug(PipelineConfig::new(protocol(0, 1)).aspect("Partition"));
        assert!(TaggerProxy::construct(&weaver, 0).is_err());
    }

    #[test]
    fn metered_pipeline_counts_packs_and_restores_occupancy() {
        let registry = MetricsRegistry::new();
        let weaver = Weaver::new();
        weaver.plug(PipelineConfig::new(protocol(3, 4)).metrics(&registry).aspect("Partition"));
        let p = TaggerProxy::construct(&weaver, 0).unwrap();
        p.process((0..16).collect()).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("Partition.packs_issued"), Some(4));
        // Quiescent pipeline: every occupancy increment was paired with its
        // guard's decrement.
        assert_eq!(snap.gauge("Partition.stage_occupancy"), Some(0));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{Tagger, TaggerProxy};
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;
    use weavepar_weave::{args, value::downcast_ret};

    fn protocol(stages: usize, packs: usize) -> Protocol {
        Protocol {
            class: "Tagger",
            method: "process",
            workers: stages,
            worker_args: Arc::new(|rank, _n, _orig| Ok(args![rank as u64 + 1])),
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

    /// What a pipeline of `stages` tag-appenders computes, by definition.
    fn staged_reference(input: &[u64], stages: usize) -> Vec<u64> {
        let mut data = input.to_vec();
        for stage in 1..=stages as u64 {
            let mut t = Tagger { tag: stage };
            data = t.process(data);
        }
        data
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every pack crosses every stage exactly once, in stage order, and
        /// pack order survives the combine.
        #[test]
        fn pipeline_composes_stages_in_order(
            input in proptest::collection::vec(0u64..1000, 0..120),
            stages in 1usize..5,
            packs in 1usize..8,
        ) {
            let weaver = Weaver::new();
            weaver.plug(PipelineConfig::new(protocol(stages, packs)).aspect("Partition"));
            let p = TaggerProxy::construct(&weaver, 0).unwrap();
            let out = p.process(input.clone()).unwrap();
            prop_assert_eq!(out, staged_reference(&input, stages));
            prop_assert_eq!(weaver.space().ids_of_class("Tagger").len(), stages);
        }

        /// Pack granularity never changes the result.
        #[test]
        fn pack_count_is_irrelevant(
            input in proptest::collection::vec(0u64..1000, 1..80),
            stages in 1usize..4,
        ) {
            let run = |packs: usize| {
                let weaver = Weaver::new();
                weaver.plug(PipelineConfig::new(protocol(stages, packs)).aspect("Partition"));
                let p = TaggerProxy::construct(&weaver, 0).unwrap();
                p.process(input.clone()).unwrap()
            };
            let one = run(1);
            let many = run(7);
            prop_assert_eq!(one, many);
        }
    }
}
