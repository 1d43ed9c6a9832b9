//! The dynamic (demand-driven) farm.
//!
//! The paper's `FarmDRMI` row in Table 1: packs are not pre-assigned
//! round-robin but pulled by whichever worker becomes free, which absorbs
//! load imbalance. The paper notes this is the one strategy where it could
//! not separate partition from concurrency — the demand-driven pull *is*
//! the concurrency structure. The same holds here: this aspect owns its
//! worker threads, and is meant to be plugged **without** a separate
//! concurrency aspect.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crossbeam::channel::unbounded;

use weavepar_concurrency::resolve_any;
use weavepar_weave::aspect::precedence;
use weavepar_weave::context::CurrentContext;
use weavepar_weave::prelude::*;
use weavepar_weave::{Counter, MetricsRegistry};

use crate::common::{hints, Protocol, WORKERS_FIELD};

/// Builder-style configuration of a concrete dynamic farm (see
/// [`Protocol`]):
///
/// ```ignore
/// weaver.plug(DynamicFarmConfig::new(protocol).tuned(cell).metrics(&reg).aspect("Partition+Concurrency"));
/// ```
#[derive(Clone)]
pub struct DynamicFarmConfig {
    protocol: Protocol,
    packs_hint: Option<Arc<AtomicU32>>,
    metrics: Option<MetricsRegistry>,
}

impl DynamicFarmConfig {
    /// A dynamic farm over `protocol`, untuned and unmetered.
    pub fn new(protocol: Protocol) -> Self {
        Self { protocol, packs_hint: None, metrics: None }
    }

    /// Follow a live pack-count hint, published through
    /// [`hints::set_packs`](crate::common::hints) around each split exactly
    /// like the static farm's tuned variant.
    pub fn tuned(mut self, packs_hint: Arc<AtomicU32>) -> Self {
        self.packs_hint = Some(packs_hint);
        self
    }

    /// Meter the farm into `registry`: `{name}.packs_issued` counts packs
    /// queued for the pulling workers, `{name}.redispatched` counts packs
    /// re-offered to surviving workers after a node loss.
    pub fn metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(registry.clone());
        self
    }

    /// Build the dynamic-farm aspect (partition *and* concurrency, merged)
    /// named `name`.
    pub fn aspect(self, name: impl Into<String>) -> Aspect {
        let name = name.into();
        let DynamicFarmConfig { protocol, packs_hint, metrics } = self;
        // Counters resolved once at build time; the advice bumps pre-bound
        // atomics only.
        let meters = metrics.map(|m| FarmMeters {
            packs: m.counter(&format!("{name}.packs_issued")),
            redispatched: m.counter(&format!("{name}.redispatched")),
        });
        let dup = protocol.clone();
        let drive = protocol.clone();

        Aspect::named(name)
            .precedence(precedence::PARTITION)
            // Object duplication, identical to the static farm.
            .around(
                Pointcut::construct(protocol.class).and(Pointcut::within_core()),
                move |inv: &mut Invocation| {
                    let weaver = inv.weaver().clone();
                    let ids = dup.create_workers(&weaver, inv.args()?)?;
                    let first = *ids.first().ok_or_else(|| {
                        WeaveError::app("dynamic farm protocol needs at least one worker")
                    })?;
                    weaver.intertype().set_field(first, WORKERS_FIELD, ids);
                    Ok(weavepar_weave::ret!(first))
                },
            )
            // Split + demand-driven execution on per-worker threads.
            .around(
                Pointcut::call_sig(protocol.class, protocol.method).and(Pointcut::within_core()),
                move |inv: &mut Invocation| {
                    let weaver = inv.weaver().clone();
                    let target = inv.target_required()?;
                    let workers = weaver
                        .intertype()
                        .get_field::<Vec<ObjId>>(target, WORKERS_FIELD)
                        .unwrap_or_else(|| vec![target]);
                    // The hint guard covers the whole advice, so orphan
                    // regeneration below splits with the same grain the original
                    // dispatch used even if the tuner moves mid-call.
                    let _hint = packs_hint
                        .as_ref()
                        .map(|cell| hints::set_packs(cell.load(Ordering::Relaxed)));
                    let packs = (drive.split)(inv.args()?)?;
                    let total = packs.len();
                    if let Some(m) = &meters {
                        m.packs.add(total as u64);
                    }

                    let (task_tx, task_rx) = unbounded::<(usize, Args)>();
                    // Seed the whole pack set in one batch send: one queue-lock
                    // acquisition instead of one per pack.
                    task_tx.send_batch(packs.into_iter().enumerate()).expect("queue open");
                    drop(task_tx); // workers stop when the queue drains

                    let (res_tx, res_rx) = unbounded::<(usize, WeaveResult<AnyValue>)>();
                    let ctx = CurrentContext::capture();
                    let mut threads = Vec::with_capacity(workers.len());
                    for &worker in &workers {
                        let rx = task_rx.clone();
                        let tx = res_tx.clone();
                        let weaver = weaver.clone();
                        let ctx = ctx.clone();
                        let (class, method) = (drive.class, drive.method);
                        threads.push(std::thread::spawn(move || {
                            // Keep aspect provenance (and the trace context) on
                            // this thread so the farm's own calls do not re-match
                            // its within-core pointcut.
                            let _guards = ctx.install();
                            while let Ok((k, pack)) = rx.recv() {
                                // Each pack's data comes from the client's queue,
                                // not from the previous pack this thread happened
                                // to execute: mask the data-dependency marker so
                                // traces don't record a spurious node-local edge
                                // (per-worker serialisation is already captured
                                // by the object monitor).
                                let _dep = weavepar_weave::trace::push_data_dep(None);
                                let result = weaver
                                    .invoke_call(worker, class, method, pack)
                                    .and_then(resolve_any);
                                if tx.send((k, result)).is_err() {
                                    break;
                                }
                            }
                        }));
                    }
                    drop(res_tx);

                    let mut slots: Vec<Option<AnyValue>> = (0..total).map(|_| None).collect();
                    let mut first_error = None;
                    let mut orphans: Vec<usize> = Vec::new();
                    for (k, result) in res_rx {
                        match result {
                            Ok(v) => slots[k] = Some(v),
                            // A pack lost to a dead node is not fatal: a
                            // demand-driven farm can re-offer it to whichever
                            // worker still answers once the main wave is done.
                            Err(e) if e.is_node_loss() => orphans.push(k),
                            Err(e) => {
                                if first_error.is_none() {
                                    first_error = Some(e);
                                }
                            }
                        }
                    }
                    for t in threads {
                        let _ = t.join();
                    }
                    if let Some(e) = first_error {
                        return Err(e);
                    }
                    // Packs are consumed by dispatch, so orphans must be rebuilt
                    // from the original arguments. One full re-split (shared by
                    // every orphan) replaces the old split-per-attempt; only a
                    // retry of the *same* pack, whose cached slot is already
                    // taken, pays for another split.
                    let mut regen: Option<Vec<Option<Args>>> = None;
                    for k in orphans {
                        if let Some(m) = &meters {
                            m.redispatched.inc();
                        }
                        let mut recovered = None;
                        let mut last = None;
                        for offset in 0..workers.len() {
                            let alt = workers[(k + offset) % workers.len()];
                            let cached = regen
                                .get_or_insert_with(Vec::new)
                                .get_mut(k)
                                .and_then(Option::take);
                            let pack = match cached {
                                Some(pack) => pack,
                                None => {
                                    let fresh: Vec<Option<Args>> =
                                        (drive.split)(inv.args()?)?.into_iter().map(Some).collect();
                                    let slot =
                                        regen.insert(fresh).get_mut(k).and_then(Option::take);
                                    slot.ok_or_else(|| {
                                        WeaveError::app(
                                            "dynamic farm cannot regenerate a lost pack",
                                        )
                                    })?
                                }
                            };
                            match weaver
                                .invoke_call(alt, drive.class, drive.method, pack)
                                .and_then(resolve_any)
                            {
                                Ok(v) => {
                                    recovered = Some(v);
                                    break;
                                }
                                Err(e) if e.is_node_loss() => last = Some(e),
                                Err(e) => return Err(e),
                            }
                        }
                        match recovered {
                            Some(v) => slots[k] = Some(v),
                            None => {
                                return Err(last.unwrap_or_else(|| {
                                    WeaveError::app("dynamic farm lost a pack")
                                }))
                            }
                        }
                    }
                    let results: WeaveResult<Vec<AnyValue>> = slots
                        .into_iter()
                        .map(|s| s.ok_or_else(|| WeaveError::app("dynamic farm lost a pack")))
                        .collect();
                    (drive.combine)(results?)
                },
            )
            .build()
    }
}

/// Pre-resolved dynamic-farm counters (see [`DynamicFarmConfig::metrics`]).
#[derive(Clone)]
struct FarmMeters {
    packs: Counter,
    redispatched: Counter,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use weavepar_weave::{args, value::downcast_ret};

    /// Workload with deliberately unequal pack costs.
    struct Uneven {
        served: u64,
    }

    weavepar_weave::weaveable! {
        class Uneven as UnevenProxy {
            fn new(_seed: u64) -> Self { Uneven { served: 0 } }
            fn crunch(&mut self, items: Vec<u64>) -> Vec<u64> {
                self.served += 1;
                // Item value doubles as per-item cost.
                let cost: u64 = items.iter().sum();
                std::thread::sleep(std::time::Duration::from_micros(cost * 20));
                items.into_iter().map(|x| x + 1).collect()
            }
        }
    }

    fn protocol(workers: usize, packs: usize) -> Protocol {
        Protocol {
            class: "Uneven",
            method: "crunch",
            workers,
            worker_args: Arc::new(|_r, _n, orig: &Args| Ok(args![*orig.get::<u64>(0)?])),
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
    fn dynamic_farm_computes_in_order() {
        let weaver = Weaver::new();
        weaver.plug(DynamicFarmConfig::new(protocol(3, 9)).aspect("Partition+Concurrency"));
        let w = UnevenProxy::construct(&weaver, 0).unwrap();
        assert_eq!(weaver.space().ids_of_class("Uneven").len(), 3);
        let input: Vec<u64> = (0..18).collect();
        let out = w.crunch(input.clone()).unwrap();
        assert_eq!(out, input.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn demand_driven_pull_uses_parallel_workers() {
        let weaver = Weaver::new();
        weaver.plug(DynamicFarmConfig::new(protocol(4, 8)).aspect("Partition+Concurrency"));
        let w = UnevenProxy::construct(&weaver, 0).unwrap();
        // 8 packs, each sleeping ~: with 4 pulling workers wall time is well
        // under the serial sum.
        let input: Vec<u64> = vec![100; 32]; // 32*100*20 µs = 64 ms serial
        let start = std::time::Instant::now();
        let out = w.crunch(input).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(out.len(), 32);
        assert!(
            elapsed < std::time::Duration::from_millis(45),
            "no demand-driven parallelism: {elapsed:?}"
        );
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let weaver = Weaver::new();
        weaver.plug(DynamicFarmConfig::new(protocol(1, 4)).aspect("Partition+Concurrency"));
        let w = UnevenProxy::construct(&weaver, 0).unwrap();
        let out = w.crunch(vec![1, 2, 3, 4]).unwrap();
        assert_eq!(out, vec![2, 3, 4, 5]);
    }

    #[test]
    fn dynamic_farm_redispatches_packs_lost_to_a_dead_node() {
        use weavepar_middleware::{InProcFabric, MarshalRegistry, RmiConfig};
        let m = MarshalRegistry::new();
        m.register::<(u64,), ()>("Uneven", "new");
        m.register::<(Vec<u64>,), Vec<u64>>("Uneven", "crunch");
        let fabric = InProcFabric::new(2, m);
        fabric.register_class::<Uneven>();
        let registry = MetricsRegistry::new();
        let weaver = Weaver::new();
        weaver.plug(
            DynamicFarmConfig::new(protocol(2, 6))
                .metrics(&registry)
                .aspect("Partition+Concurrency"),
        );
        weaver.plug(
            RmiConfig::new("Uneven", Pointcut::call("Uneven.crunch"), fabric.clone())
                .aspect("Distribution"),
        );
        let w = UnevenProxy::construct(&weaver, 0).unwrap();
        // One of the two workers' nodes dies: every pack its thread pulls
        // fails with NodeDown, is collected as an orphan, and is re-offered
        // to the survivor — the crunch still completes with exact results.
        fabric.kill_node(1).unwrap();
        let input: Vec<u64> = (0..12).collect();
        let out = w.crunch(input.clone()).unwrap();
        assert_eq!(out, input.iter().map(|x| x + 1).collect::<Vec<_>>());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("Partition+Concurrency.packs_issued"), Some(6));
        // At least the packs the dead worker pulled first came back through
        // re-dispatch (the exact count depends on the pull race).
        assert!(snap.counter("Partition+Concurrency.redispatched").unwrap_or(0) >= 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let weaver = Weaver::new();
        weaver.plug(DynamicFarmConfig::new(protocol(2, 4)).aspect("Partition+Concurrency"));
        let w = UnevenProxy::construct(&weaver, 0).unwrap();
        let out = w.crunch(vec![]).unwrap();
        assert!(out.is_empty());
    }
}
