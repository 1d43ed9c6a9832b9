//! The dynamic farm (the paper's `FarmDRMI`): the partition module with one
//! more advice block, which gives each pack the next idle worker when it
//! starts. Its parallelism is a plugged concurrency aspect's.

pub use crate::partition::DynamicFarmConfig;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::fixture::*;
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
