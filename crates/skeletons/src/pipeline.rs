//! The pipeline (paper Figures 8 and 9): the partition module with its
//! workers chained and its forwarding block on.

pub use crate::partition::PipelineConfig;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::fixture::*;
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
