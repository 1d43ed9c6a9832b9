//! Assembly of the paper's Table 1 module combinations.
//!
//! | label       | partition    | concurrency | distribution |
//! |-------------|--------------|-------------|--------------|
//! | FarmThreads | Farm         | yes         | –            |
//! | PipeRMI     | Pipeline     | yes         | RMI          |
//! | FarmRMI     | Farm         | yes         | RMI          |
//! | FarmDRMI    | Dynamic farm | yes         | RMI          |
//! | FarmMPP     | Farm         | yes         | MPP          |
//!
//! Each combination is obtained purely by plugging aspects into a
//! [`ConcernStack`]; the core functionality ([`PrimeFilter`]) and the driver
//! ([`run_sieve`]) are byte-for-byte identical across all of them — the
//! paper's central claim. Every row's concurrency module runs on the crate's
//! one process-wide work-stealing pool (the §4.4 thread-pool optimisation,
//! shared with the concurrent sort), so no row starts a thread per pack.

use std::sync::Arc;

use weavepar::concurrency::resolve_any;
use weavepar::prelude::*;
use weavepar::skeletons::RankedArgsFn;
use weavepar::weave::value::downcast_ret;
use weavepar::{args, ret};

use super::core::{candidate_pack, isqrt, primes_upto, PrimeFilter, PrimeFilterProxy};

/// Which partition aspect to plug (§4.1, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Each filter owns a contiguous range of the pre-primes; packs traverse
    /// the whole chain (Figure 7).
    Pipeline,
    /// Every filter owns all pre-primes; each pack goes to one filter
    /// (Figure 10).
    Farm,
    /// Farm with demand-driven pack assignment: each pack goes to whichever
    /// filter is idle when it starts. The paper merged this strategy's
    /// concurrency into its partition; here concurrency is plugged as for
    /// the others.
    DynamicFarm,
}

/// Which distribution aspect to plug (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Middleware {
    /// No distribution: shared-memory threads only.
    None,
    /// The RMI-style middleware (name server + synchronous calls).
    Rmi,
    /// The MPP-style middleware (direct node addressing).
    Mpp,
}

/// A full module combination plus workload shape.
#[derive(Debug, Clone, Copy)]
pub struct SieveConfig {
    /// Partition aspect.
    pub partition: PartitionStrategy,
    /// Plug the concurrency module?
    pub concurrency: bool,
    /// Distribution aspect.
    pub middleware: Middleware,
    /// Number of `PrimeFilter` instances (the figures' x-axis).
    pub filters: usize,
    /// Number of packs the candidate list is split into (the paper: 50).
    pub packs: usize,
    /// Fabric size when distributed (the paper: 7 nodes).
    pub nodes: usize,
}

impl SieveConfig {
    fn base(partition: PartitionStrategy, middleware: Middleware, filters: usize) -> Self {
        SieveConfig { partition, concurrency: true, middleware, filters, packs: 50, nodes: 7 }
    }

    /// Partition only — no concurrency, no distribution (debugging mode).
    pub fn sequential_pipeline(filters: usize) -> Self {
        SieveConfig {
            concurrency: false,
            ..Self::base(PartitionStrategy::Pipeline, Middleware::None, filters)
        }
    }

    /// Table 1 `FarmThreads`.
    pub fn farm_threads(filters: usize) -> Self {
        Self::base(PartitionStrategy::Farm, Middleware::None, filters)
    }

    /// Table 1 `PipeRMI`.
    pub fn pipe_rmi(filters: usize) -> Self {
        Self::base(PartitionStrategy::Pipeline, Middleware::Rmi, filters)
    }

    /// Table 1 `FarmRMI`.
    pub fn farm_rmi(filters: usize) -> Self {
        Self::base(PartitionStrategy::Farm, Middleware::Rmi, filters)
    }

    /// Table 1 `FarmDRMI`.
    pub fn farm_drmi(filters: usize) -> Self {
        Self::base(PartitionStrategy::DynamicFarm, Middleware::Rmi, filters)
    }

    /// Table 1 `FarmMPP`.
    pub fn farm_mpp(filters: usize) -> Self {
        Self::base(PartitionStrategy::Farm, Middleware::Mpp, filters)
    }

    /// The paper's row label for this combination.
    pub fn label(&self) -> String {
        let partition = match self.partition {
            PartitionStrategy::Pipeline => "Pipe",
            PartitionStrategy::Farm => "Farm",
            PartitionStrategy::DynamicFarm => "FarmD",
        };
        let middleware = match self.middleware {
            Middleware::None if self.concurrency => "Threads",
            Middleware::None => "Seq",
            Middleware::Rmi => "RMI",
            Middleware::Mpp => "MPP",
        };
        format!("{partition}{middleware}")
    }
}

/// Contiguous pre-prime ranges for pipeline stages: stage `rank` divides by
/// the primes in `ranges[rank]`. Empty stages get an empty range.
pub fn stage_ranges(pmin: u64, pmax: u64, stages: usize) -> Vec<(u64, u64)> {
    let primes: Vec<u64> = primes_upto(pmax).into_iter().filter(|p| *p >= pmin).collect();
    let stages = stages.max(1);
    let chunk = primes.len().div_ceil(stages).max(1);
    (0..stages)
        .map(|rank| match primes.chunks(chunk).nth(rank) {
            Some(slice) => (slice[0], slice[slice.len() - 1]),
            // An empty divisor range: pmin > pmax yields a filter with no
            // primes (it passes everything through).
            None => (3, 2),
        })
        .collect()
}

/// The `Protocol` closures shared by all sieve partitions.
fn sieve_protocol(strategy: PartitionStrategy, filters: usize, packs: usize) -> Protocol {
    let worker_args: RankedArgsFn = match strategy {
        PartitionStrategy::Pipeline => Arc::new(|rank, n, orig: &Args| {
            let pmin = *orig.get::<u64>(0)?;
            let pmax = *orig.get::<u64>(1)?;
            let (lo, hi) = stage_ranges(pmin, pmax, n)[rank];
            Ok(args![lo, hi])
        }),
        // Farms broadcast: every worker owns the full divisor range.
        PartitionStrategy::Farm | PartitionStrategy::DynamicFarm => {
            Arc::new(|_rank, _n, orig: &Args| Ok(args![*orig.get::<u64>(0)?, *orig.get::<u64>(1)?]))
        }
    };
    Protocol {
        class: "PrimeFilter",
        method: "filter",
        workers: filters,
        worker_args,
        split: Arc::new(move |a: &Args| {
            let nums = a.get::<Pack>(0)?;
            if nums.is_empty() {
                return Ok(Vec::new());
            }
            let chunk = nums.len().div_ceil(packs.max(1)).max(1);
            // Copy-on-write split: every pack aliases the candidate list's
            // single allocation.
            Ok(nums.split_chunks(chunk).into_iter().map(|p| args![p]).collect())
        }),
        reforward: Arc::new(|v: AnyValue| Ok(Args::from_value(v))),
        combine: Arc::new(|vs: Vec<AnyValue>| {
            let mut parts = Vec::with_capacity(vs.len());
            for v in vs {
                parts.push(downcast_ret::<Pack>(v)?);
            }
            Ok(ret!(Pack::concat(&parts)))
        }),
    }
}

/// Marshalling knowledge for the distributed configurations.
fn sieve_marshal() -> MarshalRegistry {
    let m = MarshalRegistry::new();
    m.register::<(u64, u64), ()>("PrimeFilter", "new");
    m.register::<(Pack,), Pack>("PrimeFilter", "filter");
    // State codec: lets the migration capability move filters between nodes.
    m.register_state::<PrimeFilter, Vec<u64>, _, _>(
        |f| f.primes().to_vec(),
        PrimeFilter::from_primes,
    );
    m
}

/// An assembled sieve: the concern stack plus the runtime pieces a caller
/// needs to drive and inspect it.
pub struct SieveRun {
    /// The configured concern stack.
    pub stack: ConcernStack,
    /// The executor behind the concurrency module, when plugged: the
    /// process-wide pool, which other callers share.
    pub executor: Option<Executor>,
    /// The node fabric behind the distribution aspect, when plugged.
    pub fabric: Option<Arc<InProcFabric>>,
    /// The configuration this run was built from.
    pub config: SieveConfig,
}

impl std::fmt::Debug for SieveRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SieveRun({}, {})", self.config.label(), self.stack.describe())
    }
}

/// Assemble a sieve configuration by plugging the requested modules.
pub fn build_sieve(config: SieveConfig) -> SieveRun {
    let stack = ConcernStack::new();
    stack.weaver().register_class::<PrimeFilter>();

    // Partition concern.
    let protocol = sieve_protocol(config.partition, config.filters, config.packs);
    let partition = match config.partition {
        PartitionStrategy::Pipeline => PipelineConfig::new(protocol).aspect("Partition.pipeline"),
        PartitionStrategy::Farm => FarmConfig::new(protocol).aspect("Partition.farm"),
        PartitionStrategy::DynamicFarm => {
            DynamicFarmConfig::new(protocol).aspect("Partition.dynamic-farm")
        }
    };
    stack.plug(Concern::Partition, partition);

    // Concurrency concern.
    let executor = if config.concurrency {
        let executor = crate::shared_pool().clone();
        stack.plug_all(
            Concern::Concurrency,
            future_concurrency_aspect(
                "Concurrency",
                Pointcut::call("PrimeFilter.filter"),
                executor.clone(),
            ),
        );
        Some(executor)
    } else {
        None
    };

    // Distribution concern.
    let fabric = match config.middleware {
        Middleware::None => None,
        Middleware::Rmi | Middleware::Mpp => {
            let fabric = InProcFabric::new(config.nodes, sieve_marshal());
            fabric.register_class::<PrimeFilter>();
            let aspect = match config.middleware {
                Middleware::Rmi => RmiConfig::new(
                    "PrimeFilter",
                    Pointcut::call("PrimeFilter.filter"),
                    fabric.clone(),
                )
                .placement(Policy::round_robin())
                .aspect("Distribution.rmi"),
                _ => MppConfig::new(
                    "PrimeFilter",
                    Pointcut::call("PrimeFilter.filter"),
                    fabric.clone(),
                )
                .placement(Policy::round_robin())
                .aspect("Distribution.mpp"),
            };
            stack.plug(Concern::Distribution, aspect);
            Some(fabric)
        }
    };

    SieveRun { stack, executor, fabric, config }
}

/// Drive an assembled sieve: the paper's `main`, verbatim across every
/// configuration. Returns all primes `<= max`, in order.
pub fn run_sieve(run: &SieveRun, max: u64) -> WeaveResult<Vec<u64>> {
    if max < 2 {
        return Ok(Vec::new());
    }
    if max == 2 {
        return Ok(vec![2]);
    }
    let weaver = run.stack.weaver();
    let filter = PrimeFilterProxy::construct(weaver, 2, isqrt(max))?;
    let raw = filter.handle().call("filter", args![candidate_pack(max)])?;
    // No `wait_idle`: it would wait for other callers' work on the shared
    // pool. Every pack's future is settled once the root resolves: the
    // combine takes each one, and a pipeline or dynamic-farm hop continues
    // inline into the future its pack already returned.
    let survivors: Pack = downcast_ret(resolve_any(raw)?)?;
    let mut primes = vec![2];
    primes.extend_from_slice(survivors.as_slice());
    Ok(primes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sieve::core::sequential_sieve;

    const MAX: u64 = 5_000;

    fn check(config: SieveConfig) {
        let run = build_sieve(config);
        let got = run_sieve(&run, MAX).unwrap();
        assert_eq!(got, sequential_sieve(MAX), "{} diverged", config.label());
    }

    #[test]
    fn every_concurrent_row_runs_on_the_process_wide_pool() {
        let rows = [
            SieveConfig::farm_threads(4),
            SieveConfig::pipe_rmi(4),
            SieveConfig::farm_rmi(4),
            SieveConfig::farm_drmi(4),
            SieveConfig::farm_mpp(4),
        ];
        for config in rows {
            let run = build_sieve(config);
            let executor = run.executor.as_ref().expect("every Table 1 row plugs concurrency");
            assert!(
                executor.same_as(crate::shared_pool()),
                "{} has its own executor",
                config.label()
            );
        }
        assert!(build_sieve(SieveConfig::sequential_pipeline(4)).executor.is_none());
    }

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(SieveConfig::farm_threads(4).label(), "FarmThreads");
        assert_eq!(SieveConfig::pipe_rmi(4).label(), "PipeRMI");
        assert_eq!(SieveConfig::farm_rmi(4).label(), "FarmRMI");
        assert_eq!(SieveConfig::farm_drmi(4).label(), "FarmDRMI");
        assert_eq!(SieveConfig::farm_mpp(4).label(), "FarmMPP");
        assert_eq!(SieveConfig::sequential_pipeline(4).label(), "PipeSeq");
    }

    #[test]
    fn stage_ranges_cover_all_primes() {
        let ranges = stage_ranges(2, 100, 4);
        assert_eq!(ranges.len(), 4);
        let all = primes_upto(100);
        let mut covered = Vec::new();
        for (lo, hi) in &ranges {
            covered.extend(all.iter().copied().filter(|p| p >= lo && p <= hi));
        }
        assert_eq!(covered, all, "ranges must partition the pre-primes");
    }

    #[test]
    fn stage_ranges_with_more_stages_than_primes() {
        // Only 4 primes <= 10; 8 stages: the tail stages are empty.
        let ranges = stage_ranges(2, 10, 8);
        assert_eq!(ranges.len(), 8);
        assert!(ranges.iter().skip(4).all(|r| *r == (3, 2)));
        // An empty-range filter passes everything through.
        let mut f = PrimeFilter::new(3, 2);
        assert_eq!(f.filter(Pack::from_slice(&[4, 6, 8])).to_vec(), vec![4, 6, 8]);
    }

    #[test]
    fn sequential_pipeline_partition_only() {
        check(SieveConfig::sequential_pipeline(4));
    }

    #[test]
    fn farm_threads_is_correct() {
        check(SieveConfig { packs: 10, ..SieveConfig::farm_threads(4) });
    }

    #[test]
    fn pipe_rmi_is_correct() {
        check(SieveConfig { packs: 8, nodes: 3, ..SieveConfig::pipe_rmi(4) });
    }

    #[test]
    fn farm_rmi_is_correct() {
        check(SieveConfig { packs: 8, nodes: 3, ..SieveConfig::farm_rmi(4) });
    }

    #[test]
    fn farm_drmi_is_correct() {
        check(SieveConfig { packs: 8, nodes: 3, ..SieveConfig::farm_drmi(4) });
    }

    #[test]
    fn a_dynamic_farm_finds_the_same_primes_with_or_without_concurrency() {
        let executors =
            [None, Some(crate::shared_pool().clone()), Some(Executor::pool(2, "sieve"))];
        for executor in executors {
            let config =
                SieveConfig { concurrency: false, packs: 8, nodes: 3, ..SieveConfig::farm_drmi(4) };
            let mut run = build_sieve(config);
            if let Some(executor) = &executor {
                let pointcut = Pointcut::call("PrimeFilter.filter");
                let aspects = future_concurrency_aspect("Concurrency", pointcut, executor.clone());
                run.stack.plug_all(Concern::Concurrency, aspects);
            }
            run.executor = executor;
            let primes = run_sieve(&run, MAX).unwrap();
            assert_eq!(primes, sequential_sieve(MAX), "{:?}", run.executor);
        }
    }

    #[test]
    fn farm_mpp_is_correct() {
        check(SieveConfig { packs: 8, nodes: 3, ..SieveConfig::farm_mpp(4) });
    }

    #[test]
    fn single_filter_degenerates_gracefully() {
        check(SieveConfig { filters: 1, packs: 4, ..SieveConfig::farm_threads(1) });
        check(SieveConfig { filters: 1, packs: 4, ..SieveConfig::sequential_pipeline(1) });
    }

    #[test]
    fn more_filters_than_nodes() {
        check(SieveConfig { filters: 9, packs: 6, nodes: 3, ..SieveConfig::farm_rmi(9) });
    }

    #[test]
    fn tiny_maxima() {
        let run = build_sieve(SieveConfig { packs: 4, ..SieveConfig::farm_threads(2) });
        assert_eq!(run_sieve(&run, 0).unwrap(), Vec::<u64>::new());
        assert_eq!(run_sieve(&run, 2).unwrap(), vec![2]);
        assert_eq!(run_sieve(&run, 3).unwrap(), vec![2, 3]);
    }
}
