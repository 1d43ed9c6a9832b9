//! Shared pieces of the partition protocols.

use std::sync::Arc;

use weavepar_weave::{AnyValue, Args, ObjId, WeaveError, WeaveResult, Weaver};

/// Derives a worker's constructor arguments from `(rank, workers, original)`.
pub type RankedArgsFn = Arc<dyn Fn(usize, usize, &Args) -> WeaveResult<Args> + Send + Sync>;

/// Splits one call's arguments into per-pack argument packs.
pub type SplitFn = Arc<dyn Fn(&Args) -> WeaveResult<Vec<Args>> + Send + Sync>;

/// Maps one call's arguments to another call's arguments.
pub type MapArgsFn = Arc<dyn Fn(&Args) -> WeaveResult<Args> + Send + Sync>;

/// Decides a yes/no question about a call's arguments.
pub type PredicateFn = Arc<dyn Fn(&Args) -> WeaveResult<bool> + Send + Sync>;

/// Extracts an iteration count from a call's arguments.
pub type IterationsFn = Arc<dyn Fn(&Args) -> WeaveResult<u64> + Send + Sync>;

/// Boundary exchange between workers at a given iteration, expressed as
/// woven calls so a plugged distribution aspect applies to it.
pub type ExchangeFn = Arc<dyn Fn(&Weaver, &[ObjId], u64) -> WeaveResult<()> + Send + Sync>;

/// Gathers a final result from the workers.
pub type CollectFn = Arc<dyn Fn(&Weaver, &[ObjId]) -> WeaveResult<AnyValue> + Send + Sync>;

/// How a concrete application refines an abstract partition protocol —
/// the closure-shaped analogue of implementing the paper's `Pipe` marker
/// interface under the abstract `PipelineProtocol` aspect (Figure 9).
#[derive(Clone)]
pub struct Protocol {
    /// Weaveable class the protocol quantifies over.
    pub class: &'static str,
    /// The compute method whose calls are split (`filter`, `compute`, ...).
    pub method: &'static str,
    /// Number of aspect-managed workers/stages to create.
    pub workers: usize,
    /// Derive worker `rank`'s constructor arguments from the original
    /// construction's arguments (`rank` ∈ `0..workers`). A farm typically
    /// broadcasts the originals; a pipeline slices a range per stage.
    pub worker_args: RankedArgsFn,
    /// Split the original call's arguments into per-pack argument packs.
    pub split: SplitFn,
    /// Rebuild call arguments from a value flowing between stages (pipeline
    /// forwarding: the previous stage's output becomes the next stage's
    /// input).
    pub reforward: Arc<dyn Fn(AnyValue) -> WeaveResult<Args> + Send + Sync>,
    /// Combine the per-pack results into the original call's result.
    pub combine: Arc<dyn Fn(Vec<AnyValue>) -> WeaveResult<AnyValue> + Send + Sync>,
}

/// Create `workers` aspect-managed objects of `class` through *woven*
/// constructions (provenance: aspect), so a plugged distribution aspect
/// places each of them remotely, and return their ids in rank order — never
/// empty: a partition without a worker is a configuration error. The one
/// duplication loop of the partition and heartbeat aspects.
pub(crate) fn create_workers(
    weaver: &Weaver,
    class: &'static str,
    workers: usize,
    worker_args: &RankedArgsFn,
    original_ctor_args: &Args,
) -> WeaveResult<Vec<ObjId>> {
    if workers == 0 {
        return Err(WeaveError::app(format!("partition of `{class}` needs at least one worker")));
    }
    (0..workers)
        .map(|rank| weaver.construct_dyn(class, worker_args(rank, workers, original_ctor_args)?))
        .collect()
}

impl std::fmt::Debug for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Protocol")
            .field("class", &self.class)
            .field("method", &self.method)
            .field("workers", &self.workers)
            .finish()
    }
}

/// Inter-type field linking a pipeline stage to its successor
/// (the paper's `next` HashMap in Figure 8).
pub const NEXT_FIELD: &str = "pipeline.next";

/// Inter-type field on the lead object listing all farm workers.
pub const WORKERS_FIELD: &str = "farm.workers";

/// Inter-type field on a dynamic farm's lead object: its idle-worker queue.
pub const IDLE_FIELD: &str = "farm.idle";

#[cfg(test)]
mod tests {
    use super::*;
    use weavepar_weave::args;

    struct W {
        rank: u64,
    }

    weavepar_weave::weaveable! {
        class W as WProxy {
            fn new(rank: u64) -> Self { W { rank } }
            fn rank(&mut self) -> u64 { self.rank }
        }
    }

    fn protocol(workers: usize) -> Protocol {
        Protocol {
            class: "W",
            method: "rank",
            workers,
            worker_args: Arc::new(|rank, _n, _orig| Ok(args![rank as u64])),
            split: Arc::new(|_args| Ok(vec![])),
            reforward: Arc::new(|_v| Ok(args![])),
            combine: Arc::new(|_v| Ok(weavepar_weave::ret!())),
        }
    }

    fn create(weaver: &Weaver, p: &Protocol) -> WeaveResult<Vec<ObjId>> {
        create_workers(weaver, p.class, p.workers, &p.worker_args, &args![])
    }

    #[test]
    fn create_workers_in_rank_order() {
        let weaver = Weaver::new();
        weaver.register_class::<W>();
        let ids = create(&weaver, &protocol(4)).unwrap();
        assert_eq!(ids.len(), 4);
        for (rank, id) in ids.iter().enumerate() {
            let got = weaver.space().with_object::<W, _>(*id, |w| w.rank).unwrap();
            assert_eq!(got, rank as u64);
        }
    }

    #[test]
    fn create_workers_requires_registered_class() {
        let weaver = Weaver::new();
        let err = create(&weaver, &protocol(1)).unwrap_err();
        assert!(matches!(err, weavepar_weave::WeaveError::Construction(_)));
    }
}
