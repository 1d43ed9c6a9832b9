//! The dynamic farm (the paper's `FarmDRMI`): the partition module with its
//! packs pulled on demand by a thread per worker — partition and concurrency
//! in one aspect, as the paper concedes.

pub use crate::partition::DynamicFarmConfig;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::fixture::*;
    use weavepar_weave::prelude::*;
    use weavepar_weave::{trace, TaskId};

    #[test]
    fn dynamic_farm_computes_in_order() {
        let (weaver, w) = plugged(DYNAMIC_FARM, 3, 9);
        assert_eq!(weaver.space().ids_of_class("Stage").len(), 3);
        let input: Vec<u64> = (0..18).collect();
        assert_eq!(w.apply(input.clone()).unwrap(), expected(DYNAMIC_FARM, 3, &input));
    }

    #[test]
    fn demand_driven_pull_uses_parallel_workers() {
        // Every pack call waits until four are inside at once: two rounds of
        // four distinct pullers, or the watchdog fires.
        let (weaver, w) = plugged(DYNAMIC_FARM, 4, 8);
        weaver.plug(rendezvous(4, 8));
        let input: Vec<u64> = (0..32).collect();
        let expect = expected(DYNAMIC_FARM, 4, &input);
        assert_eq!(watchdog(move || w.apply(input).unwrap()), expect);
    }

    #[test]
    fn pullers_run_under_the_callers_context_with_the_data_dependency_masked() {
        // The context carries the caller's aspect provenance (or the pack
        // calls would match the split again and never end) and its trace
        // marker, which each pack call must not see: a pack's data comes from
        // the cursor, not from what its puller ran before.
        let (weaver, w) = plugged(DYNAMIC_FARM, 2, 4);
        weaver.plug(on_pack_calls(|_| match trace::data_dep_for(7) {
            None => Ok(()),
            Some(task) => Err(WeaveError::app(format!("a pack call depends on {task}"))),
        }));
        trace::note_completion(7, TaskId::from_raw(1));
        assert_eq!(w.apply(vec![1, 2, 3, 4]).unwrap(), vec![17, 27, 37, 47]);
        assert_eq!(trace::data_dep_for(7), Some(TaskId::from_raw(1)));
    }

    #[test]
    fn a_panicking_puller_loses_only_its_own_packs() {
        // The puller that draws the pack holding item 0 dies with it; the
        // other one drains the cursor, and the call reports the loss.
        let (weaver, w) = plugged(DYNAMIC_FARM, 2, 4);
        weaver.plug(on_pack_calls(|inv| {
            assert!(!inv.args()?.get::<Vec<u64>>(0)?.contains(&0), "item 0 kills its puller");
            Ok(())
        }));
        let err = watchdog(move || w.apply((0..8).collect()).unwrap_err());
        assert!(matches!(&err, WeaveError::App(m) if m.contains("lost a pack")), "got {err:?}");
        assert_eq!(served(&weaver).iter().sum::<u64>(), 3, "the three other packs were served");
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
        let aspect = config.aspect("Partition+Concurrency");
        let (_weaver, w, _) = distributed(aspect, 2, &[0, 1], false);
        let err = w.apply(vec![1, 2]).unwrap_err();
        assert!(matches!(err, WeaveError::NodeDown { .. }), "unexpected error: {err}");
    }
}
