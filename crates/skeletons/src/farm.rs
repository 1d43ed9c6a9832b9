//! The farm (paper Figure 10): the partition module routed round robin.
//! "Each filter has ALL the primes up to the square root of the maximum
//! number and each pack of numbers can be processed by ANY PrimeFilter."

pub use crate::partition::FarmConfig;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::fixture::*;
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
        let pipeline = crate::pipeline::PipelineConfig::new(protocol(PIPELINE, 2, 2));
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

#[cfg(test)]
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
