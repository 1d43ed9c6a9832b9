//! The reusable partition aspect — the paper's Figure 9 protocol, with the
//! three routings its Figure 10 gets by editing two blocks.
//!
//! Figure 8's sieve-specific Partition aspect is three advice blocks, which
//! Figure 9 makes abstract over a [`Protocol`]:
//!
//! 1. **Object duplication** (`around Class.new`, core-made only): the single
//!    core construction becomes `workers` aspect-managed objects; the client
//!    receives the first.
//! 2. **Method-call split** (`around Class.method`, core-made only): the one
//!    big call becomes a *wave* of one call per pack; pack results are
//!    combined, in pack order, into the original call's result.
//! 3. **Forwarding** (`around Class.method`, *all* call sites — applies
//!    recursively to the aspect's own calls, as the paper highlights): a
//!    stage's output is forwarded to the next stage; the value of a pack call
//!    is the value produced by the *end* of the chain.
//!
//! "In a simple farming parallelisation each filter has ALL the primes … and
//! each pack of numbers can be processed by ANY PrimeFilter": the paper's
//! farm is this module with the construction broadcast (a matter of the
//! protocol's `worker_args`) and the `next` selection edited, its dynamic
//! farm one more edit. Here those edits are a *routing*, fixed by which of
//! the three names builds the aspect:
//!
//! | | [`PipelineConfig`] | [`FarmConfig`] | [`DynamicFarmConfig`] |
//! |---|---|---|---|
//! | workers are linked | each to its successor ([`NEXT_FIELD`]) | as a list on the first ([`WORKERS_FIELD`]) | as an idle queue on the first ([`IDLE_FIELD`]) |
//! | a wave reaches them | in split order at stage one, no `BatchScope` | round robin, one `BatchScope` flushed before the join | at the first, one `BatchScope`; block 3 hands each pack on |
//! | block 3 | forwarding, with the `.stage_occupancy` gauge | none | taking the next idle worker |
//!
//! Block 3 runs *inside* a plugged asynchronous-invocation aspect (see
//! `weavepar_weave::aspect::precedence`), so with concurrency plugged every
//! hop is its own asynchronous invocation and returns a future, continued
//! on the thread that finished the previous stage
//! ([`continue_here`](weavepar_concurrency::continue_here)): packs stream
//! through the stages concurrently, each on the thread its first stage ran
//! on — the paper's Figure 11. A dynamic farm's pack takes the next idle
//! worker when its invocation *starts*. No routing owns a thread.
//!
//! Fault tolerance is not this module's concern: a pack lost with its node
//! fails the call, typed, under every routing. Plug
//! [`supervisor_aspect`](crate::supervisor_aspect) and it repairs the worker
//! and re-dispatches the pack before the partition sees the loss.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use weavepar_concurrency::{continue_here, resolve_any, BatchScope};
use weavepar_weave::aspect::precedence;
use weavepar_weave::object::Held;
use weavepar_weave::prelude::*;
use weavepar_weave::{Counter, Gauge, MetricsRegistry};

use crate::common::{create_workers, Protocol, IDLE_FIELD, NEXT_FIELD, WORKERS_FIELD};

// The routings, as `PartitionConfig`'s parameter. The type is reachable only
// through the three aliases below, so no other value can be named.
pub(crate) const PIPELINE: u8 = 0;
pub(crate) const FARM: u8 = 1;
pub(crate) const DYNAMIC_FARM: u8 = 2;

/// Builder-style configuration of a partition aspect. Its three names are
/// the paper's three strategies and differ in nothing but the routing: how
/// the workers are linked and how a wave of packs reaches them. The mandatory
/// part is the [`Protocol`]; the one option chains:
///
/// ```ignore
/// weaver.plug(FarmConfig::new(protocol).metrics(&reg).aspect("Partition"));
/// ```
///
/// A tuner reaches the grain through the protocol, not the config: a `split`
/// closure that captures a tunable's cell reads the pack count on each call.
#[derive(Clone)]
pub struct PartitionConfig<const ROUTING: u8> {
    protocol: Protocol,
    metrics: Option<MetricsRegistry>,
}

/// The pipeline (Figure 8's three blocks): `workers` stages, every pack
/// crosses all of them in order.
pub type PipelineConfig = PartitionConfig<PIPELINE>;

/// The farm (Figure 10): the protocol's `worker_args` typically broadcasts
/// the original constructor arguments, and each pack is served by exactly
/// one worker, assigned round robin.
pub type FarmConfig = PartitionConfig<FARM>;

/// The demand-driven farm, the paper's `FarmDRMI`: a pack is served by
/// whichever worker is idle when it starts, which absorbs load imbalance.
/// The paper merged this strategy's partition and concurrency; here it is the
/// farm plus one advice block, with concurrency plugged beside it.
pub type DynamicFarmConfig = PartitionConfig<DYNAMIC_FARM>;

impl<const ROUTING: u8> PartitionConfig<ROUTING> {
    /// A partition over `protocol`, unmetered.
    pub fn new(protocol: Protocol) -> Self {
        Self { protocol, metrics: None }
    }

    /// Meter the partition into `registry`: `{name}.packs_issued` counts the
    /// packs the split produced, and a pipeline's `{name}.stage_occupancy`
    /// gauges how many packs are being processed inside a stage right now
    /// (forwarding hops excluded) — under a plugged concurrency aspect it
    /// rises towards the stage count while packs stream.
    pub fn metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(registry.clone());
        self
    }

    /// Build the partition aspect named `name`.
    pub fn aspect(self, name: impl Into<String>) -> Aspect {
        let name = name.into();
        let PartitionConfig { protocol, metrics } = self;
        let (class, method) = (protocol.class, protocol.method);
        // Resolved once at build time: the hot path bumps pre-bound atomics,
        // never consulting the registry.
        let meters = metrics.map(|m| Meters {
            packs: m.counter(&format!("{name}.packs_issued")),
            occupancy: (ROUTING == PIPELINE).then(|| m.gauge(&format!("{name}.stage_occupancy"))),
        });
        let partition = Arc::new(Partition::<ROUTING> { protocol, meters });
        let (duplicate, split, route) = (partition.clone(), partition.clone(), partition);
        let blocks = Aspect::named(name)
            .precedence(precedence::PARTITION)
            .around(
                Pointcut::construct(class).and(Pointcut::within_core()),
                move |inv: &mut Invocation| duplicate.duplicate(inv),
            )
            .around(
                Pointcut::call_sig(class, method).and(Pointcut::within_core()),
                move |inv: &mut Invocation| split.split(inv),
            );
        if ROUTING == FARM {
            return blocks.build();
        }
        blocks
            .around(Pointcut::call_sig(class, method), move |inv: &mut Invocation| match ROUTING {
                PIPELINE => route.forward(inv),
                _ => route.take_worker(inv),
            })
            .build()
    }
}

/// Pre-resolved instruments (see [`PartitionConfig::metrics`]).
struct Meters {
    packs: Counter,
    occupancy: Option<Gauge>,
}

/// What the advice blocks of one built aspect share.
struct Partition<const ROUTING: u8> {
    protocol: Protocol,
    meters: Option<Meters>,
}

impl<const ROUTING: u8> Partition<ROUTING> {
    /// Block 1: object duplication.
    fn duplicate(&self, inv: &Invocation) -> WeaveResult<AnyValue> {
        let (weaver, p) = (inv.weaver(), &self.protocol);
        let ids = create_workers(weaver, p.class, p.workers, &p.worker_args, inv.args()?)?;
        let (first, fields) = (ids[0], weaver.intertype());
        match ROUTING {
            // Link the chain: ids[i] -> ids[i+1], last -> None.
            PIPELINE => {
                for (i, id) in ids.iter().enumerate() {
                    fields.set_field(*id, NEXT_FIELD, ids.get(i + 1).copied());
                }
            }
            // Shared, so that a farm call clones a pointer, not the list.
            FARM => fields.set_field(first, WORKERS_FIELD, Arc::<[ObjId]>::from(ids)),
            _ => {
                let queue = IdleQueue { idle: Mutex::new((ids.into(), 0)), freed: Condvar::new() };
                fields.set_field(first, IDLE_FIELD, Arc::new(queue))
            }
        }
        Ok(weavepar_weave::ret!(first))
    }

    /// Block 2: method-call split.
    fn split(&self, inv: &Invocation) -> WeaveResult<AnyValue> {
        let (weaver, target, original) = (inv.weaver(), inv.target_required()?, inv.args()?);
        // A farm's lead lists its workers; every other pack enters at the
        // object the client holds (a dynamic farm's block 3 hands it on). An
        // object constructed before the aspect was plugged serves it itself.
        let workers = match ROUTING {
            FARM => weaver.intertype().get_field::<Arc<[ObjId]>>(target, WORKERS_FIELD),
            _ => None,
        }
        .unwrap_or_else(|| Arc::from([target]));
        let packs = (self.protocol.split)(original)?;
        if let Some(m) = &self.meters {
            m.packs.add(packs.len() as u64);
        }
        (self.protocol.combine)(settle(self.issued_wave(weaver, &workers, packs))?)
    }

    /// Issue every pack call (aspect provenance: matched by block 3 and by
    /// concurrency/distribution, not by the split again) round robin over
    /// `workers`; the outcomes resolve, in pack order, as they are asked for.
    fn issued_wave(
        &self,
        weaver: &Weaver,
        workers: &[ObjId],
        packs: Vec<Args>,
    ) -> impl Iterator<Item = WeaveResult<AnyValue>> {
        let p = &self.protocol;
        // With a concurrency aspect plugged, every invoke below ends in an
        // executor spawn; a farm's scope coalesces them into one submission,
        // flushed before the results are awaited. Not so for a pipeline: its
        // packs must *enter stage one in split order* (a pack's journey
        // overlaps the next one's), and a batch handed to the work-stealing
        // pool keeps no order.
        let scope = (ROUTING != PIPELINE).then(BatchScope::enter);
        let pending: Vec<_> = packs
            .into_iter()
            .enumerate()
            .map(|(k, pack)| {
                weaver.invoke_call(workers[k % workers.len()], p.class, p.method, pack)
            })
            .collect();
        if let Some(scope) = scope {
            scope.flush();
        }
        pending.into_iter().map(|ret| ret.and_then(resolve_any))
    }

    /// Block 3 of a dynamic farm: a pack call to the lead runs on the idle
    /// worker at the front of its queue — the lead itself, or another by a
    /// hop continued on this thread. A target with no queue (a hop's worker,
    /// or an object built before the aspect was plugged) serves it itself.
    fn take_worker(&self, inv: &mut Invocation) -> WeaveResult<AnyValue> {
        let lead = inv.target_required()?;
        let idle = inv.weaver().intertype().get_field::<Arc<IdleQueue>>(lead, IDLE_FIELD);
        let Some(taken) = idle.map(IdleQueue::take) else { return inv.proceed() };
        if taken.worker == lead {
            return inv.proceed();
        }
        let args = std::mem::take(inv.args_mut()?);
        let (weaver, p) = (inv.weaver(), &self.protocol);
        continue_here(|| weaver.invoke_call(taken.worker, p.class, p.method, args))
    }

    /// Block 3 of a pipeline: forwarding.
    fn forward(&self, inv: &mut Invocation) -> WeaveResult<AnyValue> {
        let target = inv.target_required()?;
        let out = {
            // Occupancy covers the stage's own processing; the guard restores
            // the gauge on the error path too.
            let _occupied = self.meters.as_ref().and_then(|m| m.occupancy.as_ref()).map(|g| {
                g.inc();
                OccupancyGuard(g)
            });
            inv.proceed()?
        };
        let (weaver, p) = (inv.weaver(), &self.protocol);
        match weaver.intertype().get_field::<Option<ObjId>>(target, NEXT_FIELD) {
            // Forward this stage's output down the chain; the downstream
            // return value (possibly a future) IS this pack's result. The hop
            // is a join point like any other, so a plugged asynchronous
            // invocation still detaches it, but its spawn continues on this
            // thread: the stage is done, and a fresh thread per pack and stage
            // would only hand the pack over.
            Some(Some(next)) => {
                let args = (p.reforward)(out)?;
                continue_here(|| weaver.invoke_call(next, p.class, p.method, args))
            }
            // Last stage (or an unmanaged object): its output is final.
            _ => Ok(out),
        }
    }
}

/// A dynamic farm's idle workers, FIFO (unplugged, packs go round robin), and
/// how many packs wait for one. The farm's, not a wave's: calls share it.
struct IdleQueue {
    idle: Mutex<(VecDeque<ObjId>, usize)>,
    freed: Condvar,
}

/// A worker taken for one pack, held like a node's serve token: a join inside
/// the pack blocks rather than help a pack that may wait on this worker.
struct Taken {
    worker: ObjId,
    queue: Arc<IdleQueue>,
    _held: Held,
}

impl IdleQueue {
    /// The worker at the front, waiting only while every worker is busy.
    fn take(queue: Arc<IdleQueue>) -> Taken {
        let mut idle = queue.idle.lock();
        while idle.0.is_empty() {
            idle.1 += 1;
            queue.freed.wait(&mut idle);
            idle.1 -= 1;
        }
        let worker = idle.0.pop_front().expect("a worker is idle");
        drop(idle);
        Taken { worker, queue, _held: Held::new() }
    }
}

impl Drop for Taken {
    /// Back at the end on every way out, unwinding included; a waiting pack
    /// is woken (a system call, so only then).
    fn drop(&mut self) {
        let mut idle = self.queue.idle.lock();
        idle.0.push_back(self.worker);
        if idle.1 > 0 {
            self.queue.freed.notify_one();
        }
    }
}

/// A wave's outcomes as results, in pack order: the first error is the
/// call's, as itself — a pack lost with its node included. Written out
/// because collecting into a `Result` would not pre-size the `Vec`.
fn settle(outcomes: impl Iterator<Item = WeaveResult<AnyValue>>) -> WeaveResult<Vec<AnyValue>> {
    let mut results = Vec::with_capacity(outcomes.size_hint().0);
    for outcome in outcomes {
        results.push(outcome?);
    }
    Ok(results)
}

/// Decrements the stage-occupancy gauge on every exit path.
struct OccupancyGuard<'a>(&'a Gauge);

impl Drop for OccupancyGuard<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// The one fixture of the partition tests: a worker class, a protocol over
/// it, the result it must produce, and a cluster to lose nodes from — each
/// taking the routing as an input.
#[cfg(test)]
pub(crate) mod fixture {
    use super::*;
    pub(crate) use super::{DYNAMIC_FARM, FARM, PIPELINE};
    use crate::common::SplitFn;
    use crate::supervisor::{supervisor_aspect, SupervisorStats};
    use std::sync::atomic::{AtomicU32, Ordering};
    use weavepar_concurrency::{future_aspect, Executor};
    use weavepar_middleware::{InProcFabric, MarshalRegistry, RmiConfig};
    use weavepar_weave::{args, value::downcast_ret};

    pub(crate) const ROUTINGS: [u8; 3] = [PIPELINE, FARM, DYNAMIC_FARM];

    /// The tag the client constructs its `Stage` with.
    pub(crate) const TAG: u64 = 7;

    /// Appends its tag to every item it sees and counts the packs it served.
    pub(crate) struct Stage {
        pub(crate) tag: u64,
        pub(crate) served: u64,
    }

    weavepar_weave::weaveable! {
        class Stage as StageProxy {
            fn new(tag: u64) -> Self { Stage { tag, served: 0 } }
            fn apply(&mut self, items: Vec<u64>) -> Vec<u64> {
                self.served += 1;
                // Wrapping: a deep pipeline shifts an item past `u64::MAX`.
                items.into_iter().map(|x| x.wrapping_mul(10).wrapping_add(self.tag)).collect()
            }
            fn served(&mut self) -> u64 { self.served }
        }
    }

    /// A `split` cutting the items into `packs()` packs, asked on every call.
    pub(crate) fn chunked(packs: impl Fn() -> usize + Send + Sync + 'static) -> SplitFn {
        Arc::new(move |a: &Args| {
            let items = a.get::<Vec<u64>>(0)?;
            let chunk = items.len().div_ceil(packs().max(1)).max(1);
            Ok(items.chunks(chunk).map(|c| args![c.to_vec()]).collect())
        })
    }

    /// `Stage.apply` over `workers` workers and `packs` packs. A pipeline's
    /// stages are tagged `1..=workers`; a farm broadcasts the client's tag.
    pub(crate) fn protocol(routing: u8, workers: usize, packs: usize) -> Protocol {
        Protocol {
            class: "Stage",
            method: "apply",
            workers,
            worker_args: Arc::new(move |rank, _n, orig: &Args| match routing {
                PIPELINE => Ok(args![rank as u64 + 1]),
                _ => Ok(args![*orig.get::<u64>(0)?]),
            }),
            split: chunked(move || packs),
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

    /// What `protocol(routing, workers, _)` computes for a client that
    /// constructed `Stage::new(TAG)`, by definition: every item crosses every
    /// pipeline stage in stage order, or one farm worker.
    pub(crate) fn expected(routing: u8, workers: usize, input: &[u64]) -> Vec<u64> {
        let tags = if routing == PIPELINE { 1..=workers as u64 } else { TAG..=TAG };
        tags.fold(input.to_vec(), |data, tag| Stage { tag, served: 0 }.apply(data))
    }

    /// The aspect named "Partition" that `routing` builds from `protocol`.
    pub(crate) fn partition(routing: u8, protocol: Protocol) -> Aspect {
        match routing {
            PIPELINE => PipelineConfig::new(protocol).aspect("Partition"),
            FARM => FarmConfig::new(protocol).aspect("Partition"),
            _ => DynamicFarmConfig::new(protocol).aspect("Partition"),
        }
    }

    /// A weaver with `routing`'s partition plugged, and the client's `Stage`.
    pub(crate) fn plugged(routing: u8, workers: usize, packs: usize) -> (Weaver, StageProxy) {
        let weaver = Weaver::new();
        weaver.plug(partition(routing, protocol(routing, workers, packs)));
        let stage = StageProxy::construct(&weaver, TAG).unwrap();
        (weaver, stage)
    }

    /// How many packs each managed `Stage` of a local run served, in id order.
    pub(crate) fn served(weaver: &Weaver) -> Vec<u64> {
        let ids = weaver.space().ids_of_class("Stage");
        ids.iter()
            .map(|&id| weaver.space().with_object(id, |s: &mut Stage| s.served).unwrap())
            .collect()
    }

    /// Test-side advice on the packs' own calls (aspect-made `Stage.apply`,
    /// a pipeline's forwards included), woven between partition and
    /// distribution: it runs on the thread that issues the call, before the
    /// call leaves for its node.
    pub(crate) fn on_pack_calls(
        f: impl Fn(&mut Invocation<'_>) -> WeaveResult<()> + Send + Sync + 'static,
    ) -> Aspect {
        Aspect::named("OnPackCalls")
            .precedence(precedence::SYNCHRONISATION)
            .before(Pointcut::call("Stage.apply").and(Pointcut::within_core().not()), f)
            .build()
    }

    /// Holds each of the first `calls` pack calls until `parties` of them are
    /// inside at once — an interleaving forced, not slept for.
    pub(crate) fn rendezvous(parties: usize, calls: u32) -> Aspect {
        let (barrier, seen) = (std::sync::Barrier::new(parties), AtomicU32::new(0));
        on_pack_calls(move |_| {
            if seen.fetch_add(1, Ordering::SeqCst) < calls {
                barrier.wait();
            }
            Ok(())
        })
    }

    /// The two executors a concurrent run is checked under: a thread per
    /// call, and a pool `workers` wide.
    pub(crate) fn executors(workers: usize) -> [Executor; 2] {
        [Executor::thread_per_call(), Executor::pool(workers, "fixture")]
    }

    /// Make the packs' own calls under `weaver` — a pipeline's forwards
    /// included — asynchronous invocations on `executor`. The client's own
    /// call stays synchronous, so the typed proxy returns the combined result.
    pub(crate) fn concurrent(weaver: &Weaver, executor: &Executor) {
        let pack_calls = Pointcut::call("Stage.apply").and(Pointcut::within_core().not());
        weaver.plug(future_aspect("Concurrency", pack_calls, executor.clone()));
    }

    /// A pipeline of `stages` stages and `packs` packs, metered into
    /// `registry`, its pack calls [`concurrent`] on `executor`.
    pub(crate) fn streaming(
        stages: usize,
        packs: usize,
        executor: &Executor,
        registry: &MetricsRegistry,
    ) -> (Weaver, StageProxy) {
        let weaver = Weaver::new();
        let config = PipelineConfig::new(protocol(PIPELINE, stages, packs)).metrics(registry);
        weaver.plug(config.aspect("Partition"));
        concurrent(&weaver, executor);
        let stage = StageProxy::construct(&weaver, TAG).unwrap();
        (weaver, stage)
    }

    /// Run `f` on a thread of its own and fail, instead of hanging, when it
    /// does not come back.
    pub(crate) fn watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(std::time::Duration::from_secs(60)).expect("the partition call hung")
    }

    /// The client's `Stage` under `partition`, distributed over `nodes` nodes
    /// (round-robin placement: worker `i` lives on node `i`), the nodes in
    /// `dead` killed once the workers exist. With `supervise`, a
    /// `supervisor_aspect` is plugged before the workers are built, and its
    /// stats come back.
    pub(crate) fn distributed(
        partition: Aspect,
        nodes: usize,
        dead: &[usize],
        supervise: bool,
    ) -> (Weaver, StageProxy, Option<Arc<SupervisorStats>>) {
        let marshal = MarshalRegistry::new();
        marshal.register::<(u64,), ()>("Stage", "new");
        marshal.register::<(Vec<u64>,), Vec<u64>>("Stage", "apply");
        let fabric = InProcFabric::new(nodes, marshal);
        fabric.register_class::<Stage>();
        let weaver = Weaver::new();
        weaver.plug(partition);
        let stats = supervise.then(|| {
            let pointcut = Pointcut::call("Stage.apply");
            let (aspect, stats) =
                supervisor_aspect("Supervision", "Stage", pointcut, fabric.clone());
            weaver.plug(aspect);
            stats
        });
        weaver.plug(
            RmiConfig::new("Stage", Pointcut::call("Stage.apply"), fabric.clone())
                .aspect("Distribution"),
        );
        let stage = StageProxy::construct(&weaver, TAG).unwrap();
        for &node in dead {
            fabric.kill_node(node).unwrap();
        }
        (weaver, stage, stats)
    }

    /// Packs of a node-loss row: two for each of its two workers.
    pub(crate) const ROW_PACKS: usize = 4;

    /// The items a node-loss row's call carries: `0..ROW_ITEMS`.
    pub(crate) const ROW_ITEMS: u64 = 16;

    /// One node-loss row: `routing` over two workers and [`ROW_PACKS`] packs,
    /// the second worker's node dead, with or without a supervisor. Returns
    /// the call's outcome and how many pack calls reached the live worker
    /// (the client's `Stage`). A dynamic farm's idle queue is FIFO, so its
    /// dead worker draws every second pack, as the farm's does.
    pub(crate) fn node_loss(
        routing: u8,
        supervise: bool,
    ) -> (WeaveResult<Vec<u64>>, u32, Option<Arc<SupervisorStats>>) {
        let partition = partition(routing, protocol(routing, 2, ROW_PACKS));
        let (weaver, stage, stats) = distributed(partition, 2, &[1], supervise);
        let live = Arc::new(AtomicU32::new(0));
        let (first, counter) = (stage.handle().id(), live.clone());
        weaver.plug(on_pack_calls(move |inv| {
            counter.fetch_add((inv.target() == Some(first)) as u32, Ordering::Relaxed);
            Ok(())
        }));
        let outcome = watchdog(move || stage.apply((0..ROW_ITEMS).collect()));
        (outcome, live.load(Ordering::Relaxed), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::fixture::*;
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

    #[test]
    fn an_application_error_in_a_pack_is_returned_as_itself() {
        for routing in ROUTINGS {
            let (weaver, stage) = plugged(routing, 3, 4);
            // Pack 2 of 4 is the one holding item 5.
            weaver.plug(on_pack_calls(|inv| match inv.args()?.get::<Vec<u64>>(0)?.contains(&5) {
                true => Err(WeaveError::app("item 5 is poison")),
                false => Ok(()),
            }));
            let err = stage.apply((0..8).collect()).unwrap_err();
            assert!(
                matches!(&err, WeaveError::App(m) if m == "item 5 is poison"),
                "{routing}: {err:?}"
            );
        }
    }

    #[test]
    fn only_the_farm_issues_its_wave_under_a_batch_scope() {
        for routing in ROUTINGS {
            let (weaver, stage) = plugged(routing, 2, 4);
            let in_scope = Arc::new(AtomicU32::new(0));
            let counter = in_scope.clone();
            weaver.plug(on_pack_calls(move |_| {
                counter.fetch_add(weavepar_concurrency::scope_active() as u32, Ordering::Relaxed);
                Ok(())
            }));
            stage.apply((0..8).collect()).unwrap();
            // Both farms, static and dynamic; a pipeline's packs must enter
            // stage one in split order, which a batch flush to the pool does
            // not keep.
            let expect = if routing == PIPELINE { 0 } else { 4 };
            assert_eq!(in_scope.load(Ordering::Relaxed), expect, "routing {routing}");
        }
    }

    /// One `split` written for all three routings follows a tuner's cell
    /// under each of them: the closure captures the cell (what
    /// `Tunable::cell` hands out) and reads it on every call — 5 packs, then
    /// 3 once the tuner has moved.
    #[test]
    fn a_tuned_partition_splits_with_the_cells_pack_count_under_every_routing() {
        fn metered<const R: u8>(protocol: Protocol, registry: &MetricsRegistry) -> Aspect {
            PartitionConfig::<R>::new(protocol).metrics(registry).aspect("Partition")
        }
        for routing in ROUTINGS {
            let (cell, registry) = (Arc::new(AtomicU64::new(5)), MetricsRegistry::new());
            let mut protocol = protocol(routing, 2, 1);
            let grain = cell.clone();
            protocol.split = chunked(move || grain.load(Ordering::Relaxed) as usize);
            let weaver = Weaver::new();
            weaver.plug(match routing {
                PIPELINE => metered::<PIPELINE>(protocol, &registry),
                FARM => metered::<FARM>(protocol, &registry),
                _ => metered::<DYNAMIC_FARM>(protocol, &registry),
            });
            let stage = StageProxy::construct(&weaver, TAG).unwrap();
            let input: Vec<u64> = (0..20).collect();
            assert_eq!(stage.apply(input.clone()).unwrap(), expected(routing, 2, &input));
            cell.store(3, Ordering::Relaxed);
            assert_eq!(stage.apply(input.clone()).unwrap(), expected(routing, 2, &input));
            let issued = registry.snapshot().counter("Partition.packs_issued");
            assert_eq!(issued, Some(5 + 3), "routing {routing}");
        }
    }

    /// Without a supervisor nothing stands in for a lost worker: the call
    /// fails typed under every routing, and the live worker sees each pack
    /// it was given exactly once — a pipeline's stage one all of them, a
    /// farm's survivor its half — so none is re-offered.
    #[test]
    fn a_pack_lost_with_its_node_fails_the_call_typed_under_every_routing() {
        for routing in ROUTINGS {
            let (outcome, live, _) = node_loss(routing, false);
            let err = outcome.unwrap_err();
            assert!(matches!(err, WeaveError::NodeDown { node: 1 }), "{routing}: {err:?}");
            let given = if routing == PIPELINE { ROW_PACKS } else { ROW_PACKS / 2 };
            assert_eq!(live as usize, given, "routing {routing}");
        }
    }

    /// The same rows with `supervisor_aspect` plugged: it rebuilds the dead
    /// worker and re-dispatches what it lost, so every routing returns the
    /// sequential result.
    #[test]
    fn a_supervised_partition_recovers_a_pack_lost_with_its_node_under_every_routing() {
        let input: Vec<u64> = (0..ROW_ITEMS).collect();
        for routing in ROUTINGS {
            let (outcome, _, stats) = node_loss(routing, true);
            assert_eq!(outcome.unwrap(), expected(routing, 2, &input), "routing {routing}");
            let stats = stats.unwrap();
            assert!(stats.tasks_redispatched() >= 1, "routing {routing}: nothing re-dispatched");
        }
    }

    /// With concurrency plugged, a hop is an asynchronous invocation
    /// continued on the thread that finished the stage before it: under
    /// either executor the stages of one pack run on one OS thread, and the
    /// run uses as many threads as there are packs.
    #[test]
    fn a_streaming_pack_crosses_every_stage_on_one_thread() {
        const STAGES: usize = 3;
        const PACKS: usize = 4;
        for executor in executors(PACKS) {
            let registry = MetricsRegistry::new();
            let (weaver, stage) = streaming(STAGES, PACKS, &executor, &registry);
            // Every pack inside stage one at once: no thread serves two.
            weaver.plug(rendezvous(PACKS, PACKS as u32));
            let seen = Arc::new(Mutex::new(Vec::new()));
            let log = seen.clone();
            weaver.plug(on_pack_calls(move |inv| {
                let first = inv.args()?.get::<Vec<u64>>(0)?[0];
                log.lock().push((std::thread::current().id(), first));
                Ok(())
            }));
            let input: Vec<u64> = (0..20).collect();
            let expect = expected(PIPELINE, STAGES, &input);
            assert_eq!(watchdog(move || stage.apply(input)).unwrap(), expect);
            executor.wait_idle();

            let mut journeys = std::collections::HashMap::<_, Vec<u64>>::new();
            for &(thread, first) in seen.lock().iter() {
                journeys.entry(thread).or_default().push(first);
            }
            assert_eq!(journeys.len(), PACKS, "{executor:?}: {journeys:?}");
            for firsts in journeys.values() {
                // One pack's first item as stages 1, 2, 3 received it.
                let journey: Vec<u64> = (1..STAGES as u64).fold(vec![firsts[0]], |mut j, tag| {
                    j.push(j[j.len() - 1] * 10 + tag);
                    j
                });
                assert_eq!(*firsts, journey, "{executor:?}: {journeys:?}");
            }
            let occupancy = registry.snapshot().gauge("Partition.stage_occupancy");
            assert_eq!(occupancy, Some(0), "{executor:?}");
        }
    }

    /// A stage that errors or panics on the thread its pack continued on
    /// fails that pack, typed: the hop's own future takes the failure, the
    /// stage before it returns on the same thread, and the other packs go on.
    #[test]
    fn a_failing_streaming_stage_fails_its_own_pack_and_its_thread_lives_on() {
        for panics in [false, true] {
            for executor in executors(2) {
                let registry = MetricsRegistry::new();
                let (weaver, stage) = streaming(3, 4, &executor, &registry);
                let second = weaver.space().ids_of_class("Stage")[1];
                let failed_on = Arc::new(Mutex::new(None));
                let at = failed_on.clone();
                weaver.plug(on_pack_calls(move |inv| {
                    // Item 5 of pack 2 reaches stage two as 51.
                    let poisoned = inv.args()?.get::<Vec<u64>>(0)?.contains(&51);
                    if inv.target() == Some(second) && poisoned {
                        *at.lock() = Some(std::thread::current().id());
                        if panics {
                            panic!("stage two panicked");
                        }
                        return Err(WeaveError::app("stage two failed"));
                    }
                    Ok(())
                }));
                // Which threads came back from a pack call, woven outside
                // the forwarding.
                let returned = Arc::new(Mutex::new(Vec::new()));
                let log = returned.clone();
                weaver.plug(
                    Aspect::named("Returns")
                        .precedence(precedence::ASYNC_INVOCATION + 1)
                        .around(
                            Pointcut::call("Stage.apply").and(Pointcut::within_core().not()),
                            move |inv: &mut Invocation| {
                                let out = inv.proceed();
                                log.lock().push(std::thread::current().id());
                                out
                            },
                        )
                        .build(),
                );
                let err = watchdog(move || stage.apply((0..20).collect())).unwrap_err();
                let expect =
                    if panics { "asynchronous invocation panicked" } else { "stage two failed" };
                assert!(matches!(&err, WeaveError::App(m) if m == expect), "{executor:?}: {err:?}");
                executor.wait_idle();
                // Stage one served all four packs, the later stages the three
                // that were not poisoned.
                assert_eq!(served(&weaver), [4, 3, 3], "{executor:?}");
                let thread = failed_on.lock().expect("stage two saw the poisoned pack");
                assert!(returned.lock().contains(&thread), "{executor:?}: its thread died");
                let occupancy = registry.snapshot().gauge("Partition.stage_occupancy");
                assert_eq!(occupancy, Some(0), "{executor:?}");
            }
        }
    }

    /// A pack's hops nest on its thread's stack, each inside the one before:
    /// 64 stages still complete under both executors.
    #[test]
    fn a_64_stage_streaming_pipeline_completes_under_both_executors() {
        for executor in executors(2) {
            let (_weaver, stage) = streaming(64, 4, &executor, &MetricsRegistry::new());
            let input: Vec<u64> = (0..16).collect();
            let expect = expected(PIPELINE, 64, &input);
            assert_eq!(watchdog(move || stage.apply(input)).unwrap(), expect, "{executor:?}");
            executor.wait_idle();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Partitioning is semantically invisible under every routing: any
        /// input, worker count and pack count produces exactly the
        /// sequential result — every pack crosses every pipeline stage once,
        /// in stage order, or is served by one farm worker, and pack order
        /// survives the combine — from exactly `workers` managed objects.
        #[test]
        fn every_routing_is_semantically_invisible(
            input in proptest::collection::vec(any::<u32>(), 0..200),
            workers in 1usize..6,
            packs in 1usize..10,
        ) {
            let input: Vec<u64> = input.into_iter().map(u64::from).collect();
            for routing in ROUTINGS {
                let (weaver, stage) = plugged(routing, workers, packs);
                prop_assert_eq!(stage.apply(input.clone()).unwrap(), expected(routing, workers, &input));
                prop_assert_eq!(weaver.space().ids_of_class("Stage").len(), workers);
            }
        }

        /// Pack granularity never changes the result.
        #[test]
        fn pack_count_is_irrelevant(
            input in proptest::collection::vec(0u64..1000, 1..80),
            workers in 1usize..4,
        ) {
            for routing in ROUTINGS {
                let run = |packs: usize| plugged(routing, workers, packs).1.apply(input.clone()).unwrap();
                prop_assert_eq!(run(1), run(7));
            }
        }
    }
}
