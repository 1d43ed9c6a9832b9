//! # weavepar-skeletons — reusable partition aspects (paper §4.1, §5.2)
//!
//! The paper's Figure 9 turns the sieve-specific Partition aspect into an
//! abstract, reusable `PipelineProtocol`; its conclusion reports reusable
//! strategies for "the three most common categories: pipeline, farm with
//! separable dependencies and heartbeat". This crate is that library:
//!
//! * [`PipelineConfig`], [`FarmConfig`], [`DynamicFarmConfig`] — **one**
//!   partition module (`partition.rs`, whose three names are re-exported
//!   here and nowhere else: Figure 8's three advice blocks —
//!   object duplication, method-call split into packs, recursive forwarding —
//!   made abstract as in Figure 9) under the three names of its *routing*,
//!   the two blocks the paper edits to get Figure 10: how the workers are
//!   linked (a chain | a list | an idle queue), how a wave of packs reaches
//!   them (in split order at stage one | round robin in one batch submission
//!   | each to the next idle worker when it starts). No routing owns a
//!   thread: concurrency is plugged, even where the paper merged it;
//! * [`heartbeat`] — block duplication plus an iterate/exchange/step driver
//!   for stencil-style computations;
//! * [`divide_conquer`] — object creation at *call* join points, unfolding a
//!   recursion tree of sub-workers (the §4.1 divide-and-conquer remark);
//! * [`supervisor`] — fault tolerance as one more pluggable layer, and the
//!   only one: worker checkpoints, node-loss detection and re-dispatch of
//!   orphaned tasks, woven outside the distribution aspect.
//!
//! Every protocol is *generic*: it quantifies over a weaveable class by name
//! and composes with the application through a small set of closures
//! ([`Protocol`]) that say how to derive per-worker constructor arguments,
//! how to split a call's data into packs, and how to combine pack results —
//! the "concrete aspect refining the abstract aspect" of Figure 9.
//!
//! All protocols issue their internal calls through the weaver, so the
//! concurrency and distribution aspects (plugged or not) apply to them
//! exactly as the paper's Figure 11 depicts: every forwarded pipeline call is
//! its own asynchronous invocation, continued on the thread that finished the
//! previous stage.

pub mod common;
pub mod divide_conquer;
pub mod heartbeat;
// Private: the routing is neither an option nor an extension point, so only
// its three names leave the crate, not the type they parameterise.
mod partition;
pub mod supervisor;

pub use common::{
    CollectFn, ExchangeFn, IterationsFn, MapArgsFn, PredicateFn, Protocol, RankedArgsFn, SplitFn,
};
pub use divide_conquer::{DivideConquerBuilder, DivideConquerConfig};
pub use heartbeat::HeartbeatConfig;
pub use partition::{DynamicFarmConfig, FarmConfig, PipelineConfig};
pub use supervisor::{supervisor_aspect, SupervisorStats};

// Each routing's own tests, under the routing's name; the cross-routing
// properties and the fixture they share are `partition`'s.
#[cfg(test)]
mod pipeline {
    mod tests {
        use crate::partition::fixture::*;
        use crate::PipelineConfig;
        use weavepar_concurrency::{future_concurrency_aspect, resolve_any, Executor};
        use weavepar_weave::prelude::*;
        use weavepar_weave::{args, value::downcast_ret, MetricsRegistry};

        #[test]
        fn sequential_pipeline_transforms_through_all_stages() {
            let (weaver, p) = plugged(PIPELINE, 3, 2);
            // 3 stages exist, not 1, and the ctor arg was replaced per stage.
            assert_eq!(weaver.space().ids_of_class("Stage").len(), 3);
            // Each item passes stages 1, 2, 3: x -> x*10+1 -> ... -> ((x*10+1)*10+2)*10+3.
            assert_eq!(p.apply(vec![0, 1]).unwrap(), vec![123, 1123]);
        }

        #[test]
        fn pack_order_is_preserved_by_combine() {
            let (_weaver, p) = plugged(PIPELINE, 1, 4);
            let input: Vec<u64> = (0..16).collect();
            assert_eq!(p.apply(input.clone()).unwrap(), expected(PIPELINE, 1, &input));
        }

        #[test]
        fn concurrent_pipeline_gives_same_answer() {
            let weaver = Weaver::new();
            weaver.plug(PipelineConfig::new(protocol(PIPELINE, 3, 4)).aspect("Partition"));
            let executor = Executor::thread_per_call();
            for a in future_concurrency_aspect(
                "Concurrency",
                Pointcut::call("Stage.apply"),
                executor.clone(),
            ) {
                weaver.plug(a);
            }
            let p = StageProxy::construct(&weaver, TAG).unwrap();
            // With concurrency plugged the core-level call returns a future.
            let input: Vec<u64> = (0..32).collect();
            let ret = p.handle().call("apply", args![input.clone()]).unwrap();
            let out = downcast_ret::<Vec<u64>>(resolve_any(ret).unwrap()).unwrap();
            assert_eq!(out, expected(PIPELINE, 3, &input));
            executor.wait_idle();
        }

        #[test]
        fn unplugging_restores_single_object_semantics() {
            let weaver = Weaver::new();
            let plugged =
                weaver.plug(PipelineConfig::new(protocol(PIPELINE, 3, 2)).aspect("Partition"));
            weaver.unplug(&plugged);
            let p = StageProxy::construct(&weaver, TAG).unwrap();
            assert_eq!(weaver.space().ids_of_class("Stage").len(), 1);
            assert_eq!(p.apply(vec![1]).unwrap(), vec![17]);
        }

        #[test]
        fn zero_stage_pipeline_is_an_error() {
            let weaver = Weaver::new();
            weaver.plug(PipelineConfig::new(protocol(PIPELINE, 0, 1)).aspect("Partition"));
            assert!(StageProxy::construct(&weaver, TAG).is_err());
        }

        #[test]
        fn metered_pipeline_counts_packs_and_restores_occupancy() {
            let registry = MetricsRegistry::new();
            let weaver = Weaver::new();
            let config = PipelineConfig::new(protocol(PIPELINE, 3, 4)).metrics(&registry);
            weaver.plug(config.aspect("Partition"));
            let p = StageProxy::construct(&weaver, TAG).unwrap();
            p.apply((0..16).collect()).unwrap();
            let snap = registry.snapshot();
            assert_eq!(snap.counter("Partition.packs_issued"), Some(4));
            // Quiescent pipeline: every occupancy increment was paired with its
            // guard's decrement.
            assert_eq!(snap.gauge("Partition.stage_occupancy"), Some(0));
        }
    }
}

#[cfg(test)]
mod farm {
    mod tests {
        use crate::partition::fixture::*;
        use crate::FarmConfig;
        use weavepar_concurrency::{future_concurrency_aspect, resolve_any, Executor};
        use weavepar_weave::prelude::*;
        use weavepar_weave::{args, value::downcast_ret};

        #[test]
        fn farm_computes_and_preserves_order() {
            let (weaver, w) = plugged(FARM, 3, 6);
            assert_eq!(weaver.space().ids_of_class("Stage").len(), 3);
            let input: Vec<u64> = (0..24).collect();
            assert_eq!(w.apply(input.clone()).unwrap(), expected(FARM, 3, &input));
        }

        #[test]
        fn packs_are_spread_round_robin() {
            let (weaver, w) = plugged(FARM, 3, 6);
            w.apply((0..24).collect()).unwrap();
            assert_eq!(served(&weaver), [2, 2, 2], "6 packs over 3 workers: round robin balances");
        }

        #[test]
        fn farm_with_concurrency_matches_sequential() {
            let weaver = Weaver::new();
            weaver.plug(FarmConfig::new(protocol(FARM, 4, 8)).aspect("Partition"));
            let executor = Executor::thread_per_call();
            for a in future_concurrency_aspect(
                "Concurrency",
                Pointcut::call("Stage.apply"),
                executor.clone(),
            ) {
                weaver.plug(a);
            }
            let w = StageProxy::construct(&weaver, TAG).unwrap();
            // The wave's batch is flushed before its first join: unflushed, the
            // deferred spawns would never run and this would hang.
            let input: Vec<u64> = (0..64).collect();
            let ret = w.handle().call("apply", args![input.clone()]).unwrap();
            let out = downcast_ret::<Vec<u64>>(resolve_any(ret).unwrap()).unwrap();
            assert_eq!(out, expected(FARM, 4, &input));
            executor.wait_idle();
        }

        #[test]
        fn unmanaged_target_falls_back_to_itself() {
            // Plug the farm aspect *after* construction: the object has no
            // workers field, so packs all route to the original object.
            let weaver = Weaver::new();
            let w = StageProxy::construct(&weaver, TAG).unwrap();
            weaver.plug(FarmConfig::new(protocol(FARM, 3, 2)).aspect("Partition"));
            assert_eq!(w.apply(vec![1, 2, 3, 4]).unwrap(), vec![17, 27, 37, 47]);
            assert_eq!(w.served().unwrap(), 2, "both packs served by the original");
        }

        #[test]
        fn swap_pipeline_for_farm_is_a_replug() {
            // The paper's headline: exchanging one partition strategy for the
            // other is plugging a different aspect — core code untouched.
            let weaver = Weaver::new();
            let pipeline = crate::PipelineConfig::new(protocol(PIPELINE, 2, 2));
            let pipeline = weaver.plug(pipeline.aspect("Partition"));
            let w = StageProxy::construct(&weaver, TAG).unwrap();
            assert_eq!(w.apply(vec![3]).unwrap(), vec![312]);
            weaver.unplug(&pipeline);
            weaver.plug(FarmConfig::new(protocol(FARM, 3, 3)).aspect("Partition"));
            let w2 = StageProxy::construct(&weaver, TAG).unwrap();
            assert_eq!(w2.apply(vec![3]).unwrap(), vec![37]);
        }

        #[test]
        fn farm_with_every_worker_dead_fails_typed() {
            let config = FarmConfig::new(protocol(FARM, 2, 2));
            let (_weaver, w, _) = distributed(config.aspect("Partition"), 2, &[0, 1], false);
            let err = w.apply(vec![1, 2]).unwrap_err();
            assert!(err.is_node_loss(), "unexpected error: {err}");
        }
    }

    mod proptests {
        use crate::partition::fixture::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Pack routing covers every worker when there are at least as many
            /// packs as workers (round-robin coverage).
            #[test]
            fn round_robin_covers_all_workers(workers in 1usize..5, multiplier in 1usize..4) {
                let packs = workers * multiplier;
                let (weaver, w) = plugged(FARM, workers, packs);
                w.apply((0..(packs as u64 * 4)).collect()).unwrap();
                prop_assert!(served(&weaver).iter().all(|&n| n >= 1), "a worker starved");
            }
        }
    }
}

#[cfg(test)]
mod dynamic_farm {
    mod tests {
        use crate::partition::fixture::*;
        use crate::DynamicFarmConfig;
        use parking_lot::Mutex;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        use weavepar_weave::prelude::*;

        #[test]
        fn dynamic_farm_computes_in_order() {
            let (weaver, w) = plugged(DYNAMIC_FARM, 3, 9);
            assert_eq!(weaver.space().ids_of_class("Stage").len(), 3);
            let input: Vec<u64> = (0..18).collect();
            assert_eq!(w.apply(input.clone()).unwrap(), expected(DYNAMIC_FARM, 3, &input));
        }

        #[test]
        fn demand_driven_pull_uses_parallel_workers() {
            // Four packs inside at once, each holding a worker of its own: a pack
            // that found no idle worker would wait, and the watchdog would fire.
            for executor in executors(4) {
                let (weaver, w) = plugged(DYNAMIC_FARM, 4, 4);
                concurrent(&weaver, &executor);
                weaver.plug(rendezvous(4, 4));
                let on = Arc::new(Mutex::new(Vec::new()));
                let log = on.clone();
                weaver.plug(on_pack_calls(move |inv| {
                    log.lock().push(inv.target_required()?);
                    Ok(())
                }));
                let input: Vec<u64> = (0..16).collect();
                let expect = expected(DYNAMIC_FARM, 4, &input);
                assert_eq!(watchdog(move || w.apply(input).unwrap()), expect, "{executor:?}");
                executor.wait_idle();
                let mut workers = on.lock().clone();
                workers.sort();
                assert_eq!(workers, weaver.space().ids_of_class("Stage"), "{executor:?}");
            }
        }

        #[test]
        fn unplugged_every_pack_runs_on_the_callers_thread_round_robin() {
            let (weaver, w) = plugged(DYNAMIC_FARM, 3, 6);
            let seen = Arc::new(Mutex::new(Vec::new()));
            let log = seen.clone();
            weaver.plug(on_pack_calls(move |inv| {
                // No monitor is taken before the base method: what is held here
                // is the worker the pack took.
                let held = weavepar_weave::object::monitors_held();
                log.lock().push((std::thread::current().id(), inv.target_required()?, held));
                Ok(())
            }));
            let input: Vec<u64> = (0..12).collect();
            assert_eq!(w.apply(input.clone()).unwrap(), expected(DYNAMIC_FARM, 3, &input));
            let (here, ids) = (std::thread::current().id(), weaver.space().ids_of_class("Stage"));
            let round_robin: Vec<_> = (0..6).map(|k| (here, ids[k % 3], 1)).collect();
            assert_eq!(*seen.lock(), round_robin);
        }

        #[test]
        fn a_panicking_pack_fails_the_call_and_its_worker_serves_the_next() {
            for executor in executors(2) {
                // One worker, so the panic unwinds through the block that took
                // it, and every later pack needs it back.
                let (weaver, w) = plugged(DYNAMIC_FARM, 1, 4);
                concurrent(&weaver, &executor);
                let armed = AtomicBool::new(true);
                weaver.plug(on_pack_calls(move |_| {
                    assert!(!armed.swap(false, Ordering::SeqCst), "the first pack panics");
                    Ok(())
                }));
                let input: Vec<u64> = (0..8).collect();
                let expect = expected(DYNAMIC_FARM, 1, &input);
                let (first, second) = watchdog(move || (w.apply(input.clone()), w.apply(input)));
                let err = first.unwrap_err();
                let panicked =
                    matches!(&err, WeaveError::App(m) if m == "asynchronous invocation panicked");
                assert!(panicked, "{executor:?}: {err:?}");
                assert_eq!(second.unwrap(), expect, "{executor:?}");
                executor.wait_idle();
            }
        }

        #[test]
        fn single_worker_degenerates_to_sequential() {
            let (_weaver, w) = plugged(DYNAMIC_FARM, 1, 4);
            assert_eq!(w.apply(vec![1, 2, 3, 4]).unwrap(), vec![17, 27, 37, 47]);
        }

        #[test]
        fn empty_input_yields_empty_output() {
            let (_weaver, w) = plugged(DYNAMIC_FARM, 2, 4);
            assert!(w.apply(vec![]).unwrap().is_empty());
        }

        #[test]
        fn dynamic_farm_with_every_worker_dead_fails_typed() {
            let config = DynamicFarmConfig::new(protocol(DYNAMIC_FARM, 2, 2));
            let aspect = config.aspect("Partition");
            let (_weaver, w, _) = distributed(aspect, 2, &[0, 1], false);
            let err = w.apply(vec![1, 2]).unwrap_err();
            assert!(matches!(err, WeaveError::NodeDown { .. }), "unexpected error: {err}");
        }
    }
}
