//! The supervision aspect: fault detection and worker recovery as one more
//! pluggable concern.
//!
//! The paper's fault handling stops at wrapping `RemoteException` in
//! try/catch (Figure 14). This module is the next increment the methodology
//! promises: plug one aspect and the skeletons become fault-tolerant, unplug
//! it and they are exactly the non-tolerant build — core and partition code
//! untouched. It is the one recovery path: no partition routing re-offers a
//! pack lost with its node, so unsupervised such a loss fails the call typed.
//!
//! It weaves at [`precedence::SUPERVISION`], *outside* distribution, so a
//! typed [`WeaveError::NodeDown`] surfacing from a remote call is caught and
//! repaired before the partition layer ever sees it:
//!
//! * **checkpoints** — each aspect-managed worker's marshalled constructor
//!   arguments are recorded when it is built, and (when the class has a
//!   state codec) its post-construction state is snapshotted; each
//!   redirected call's argument pack is encoded *before* the call leaves,
//!   so a lost task's input chunk survives the node that was computing it;
//! * **detection** — the call advice catches `NodeDown` from the layers
//!   beneath it (the distribution aspect's remote call, or the name-server
//!   tombstone);
//! * **recovery** — under a recovery lock the dead worker is rebuilt on a
//!   surviving node ([`InProcFabric::restore`] from its checkpointed state,
//!   falling back to re-construction from its recorded constructor
//!   arguments), the stub's remote reference is repointed, and the orphaned
//!   task is re-dispatched from its saved argument pack. Concurrent calls
//!   that hit the same dead worker find the repaired reference and only
//!   re-dispatch themselves.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use weavepar_middleware::aspects::REMOTE_FIELD;
use weavepar_middleware::{Bytes, CallPolicy, InProcFabric, RemoteRef};
use weavepar_weave::aspect::precedence;
use weavepar_weave::prelude::*;

/// Counters for what the supervisor actually did.
#[derive(Debug, Default)]
pub struct SupervisorStats {
    workers_recovered: AtomicUsize,
    tasks_redispatched: AtomicUsize,
}

impl SupervisorStats {
    /// Workers rebuilt on a surviving node after their node died.
    pub fn workers_recovered(&self) -> usize {
        self.workers_recovered.load(Ordering::Relaxed)
    }

    /// Calls re-dispatched from their checkpointed argument pack.
    pub fn tasks_redispatched(&self) -> usize {
        self.tasks_redispatched.load(Ordering::Relaxed)
    }
}

/// Shared supervisor state: per-worker checkpoints plus the recovery lock.
struct Supervisor {
    fabric: Arc<InProcFabric>,
    class: &'static str,
    /// Marshalled constructor arguments per local stub (recorded pre-proceed,
    /// so they exist even if the node dies later).
    ctor_args: Mutex<HashMap<ObjId, Bytes>>,
    /// Post-construction state snapshot per local stub (only for classes
    /// with a registered state codec).
    states: Mutex<HashMap<ObjId, Bytes>>,
    /// Serialises recoveries so N concurrent failures of one worker rebuild
    /// it once, not N times.
    recovery: Mutex<()>,
    stats: Arc<SupervisorStats>,
}

impl Supervisor {
    /// Find a node that is still alive.
    fn survivor(&self) -> WeaveResult<usize> {
        for n in 0..self.fabric.node_count() {
            if !self.fabric.node(n)?.is_down() {
                return Ok(n);
            }
        }
        Err(WeaveError::remote("supervisor: no surviving node to recover on"))
    }

    /// Rebuild the worker behind `target` after `dead` was lost; returns the
    /// reference calls should go to now. Re-checks under the recovery lock:
    /// if another thread already repaired the stub, its new reference is
    /// reused instead of rebuilding again.
    fn recover(&self, weaver: &Weaver, target: ObjId, dead: RemoteRef) -> WeaveResult<RemoteRef> {
        let _guard = self.recovery.lock();
        if let Some(current) = weaver.intertype().get_field::<RemoteRef>(target, REMOTE_FIELD) {
            if current != dead && !self.fabric.node(current.node)?.is_down() {
                return Ok(current);
            }
        }
        let survivor = self.survivor()?;
        let checkpoint = self.states.lock().get(&target).cloned();
        let rebuilt = match checkpoint {
            Some(state) => self.fabric.restore(survivor, self.class, state)?,
            None => {
                let ctor_args =
                    self.ctor_args.lock().get(&target).cloned().ok_or_else(|| {
                        WeaveError::remote("supervisor: no checkpoint for worker")
                    })?;
                let ctor = self.fabric.marshal().method_id(self.class, "new")?;
                self.fabric.construct_on_id(survivor, ctor, ctor_args)?
            }
        };
        weaver.intertype().set_field(target, REMOTE_FIELD, rebuilt);
        self.stats.workers_recovered.fetch_add(1, Ordering::Relaxed);
        Ok(rebuilt)
    }
}

/// Build the supervision aspect for `class`, catching node loss on calls
/// matched by `call_pointcut` (use the same pointcut as the distribution
/// aspect, *without* `within_core`, so aspect-issued skeleton calls are
/// protected too). Returns the aspect plus its stats handle.
pub fn supervisor_aspect(
    name: impl Into<String>,
    class: &'static str,
    call_pointcut: Pointcut,
    fabric: Arc<InProcFabric>,
) -> (Aspect, Arc<SupervisorStats>) {
    let stats = Arc::new(SupervisorStats::default());
    let supervisor = Arc::new(Supervisor {
        fabric: fabric.clone(),
        class,
        ctor_args: Mutex::new(HashMap::new()),
        states: Mutex::new(HashMap::new()),
        recovery: Mutex::new(()),
        stats: stats.clone(),
    });
    let construct_supervisor = supervisor.clone();
    let aspect = Aspect::named(name)
        .precedence(precedence::SUPERVISION)
        // Checkpoint every construction of the class (worker or lead):
        // marshalled constructor arguments before `proceed` consumes them,
        // and — once the distribution aspect beneath created the remote
        // instance — a snapshot of its initial state.
        .around(Pointcut::construct(class), move |inv: &mut Invocation| {
            let sup = &construct_supervisor;
            // Without a registered codec there is nothing to checkpoint;
            // supervision degrades to a pass-through.
            let Ok(ctor) = sup.fabric.marshal().method_id(class, "new") else {
                return inv.proceed();
            };
            let encode = |buf: &mut _| sup.fabric.marshal().encode_args_id(ctor, inv.args()?, buf);
            let saved = sup.fabric.buffers().encode(encode)?;
            let ret = inv.proceed()?;
            if let Some(local) = ret.downcast_ref::<ObjId>().copied() {
                sup.ctor_args.lock().insert(local, saved);
                if sup.fabric.marshal().knows_state(class) {
                    if let Some(remote) =
                        inv.weaver().intertype().get_field::<RemoteRef>(local, REMOTE_FIELD)
                    {
                        if let Ok(state) = sup.fabric.snapshot(remote, false) {
                            sup.states.lock().insert(local, state);
                        }
                    }
                }
            }
            Ok(ret)
        })
        // Detection + recovery + re-dispatch around every protected call.
        .around(call_pointcut, move |inv: &mut Invocation| {
            let sup = &supervisor;
            let target = inv.target_required()?;
            let weaver = inv.weaver().clone();
            let Some(remote) = weaver.intertype().get_field::<RemoteRef>(target, REMOTE_FIELD)
            else {
                // Purely local object: node loss cannot reach it.
                return inv.proceed();
            };
            let Ok(method) = sup.fabric.marshal().method_id(sup.class, inv.signature().method)
            else {
                return inv.proceed();
            };
            // Per-task checkpoint: the input chunk leaves in marshalled form
            // before the call does, so it survives the worker's node.
            let encode =
                |buf: &mut _| sup.fabric.marshal().encode_args_id(method, inv.args()?, buf);
            let saved = sup.fabric.buffers().encode(encode)?;
            match inv.proceed() {
                Ok(ret) => Ok(ret),
                Err(err) if err.is_node_loss() => {
                    let repaired = sup.recover(&weaver, target, remote)?;
                    let reply =
                        sup.fabric.call(repaired, method, saved, &CallPolicy::unbounded())?;
                    let mut view = reply.clone();
                    let ret = sup.fabric.marshal().decode_ret_id(method, &mut view);
                    drop(view);
                    sup.fabric.buffers().recycle(reply);
                    sup.stats.tasks_redispatched.fetch_add(1, Ordering::Relaxed);
                    ret
                }
                Err(err) => Err(err),
            }
        })
        .build();
    (aspect, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Protocol;
    use crate::FarmConfig;
    use std::sync::Arc;
    use weavepar_middleware::wire::MarshalRegistry;
    use weavepar_middleware::{Policy, RmiConfig};
    use weavepar_weave::{args, value::downcast_ret};

    struct Squarer {
        bias: u64,
    }

    weavepar_weave::weaveable! {
        class Squarer as SquarerProxy {
            fn new(bias: u64) -> Self { Squarer { bias } }
            fn compute(&mut self, items: Vec<u64>) -> Vec<u64> {
                items.into_iter().map(|x| x * x + self.bias).collect()
            }
        }
    }

    fn marshal() -> MarshalRegistry {
        let m = MarshalRegistry::new();
        m.register::<(u64,), ()>("Squarer", "new");
        m.register::<(Vec<u64>,), Vec<u64>>("Squarer", "compute");
        m.register_state::<Squarer, u64, _, _>(|s| s.bias, |bias| Squarer { bias });
        m
    }

    fn protocol(workers: usize, packs: usize) -> Protocol {
        Protocol {
            class: "Squarer",
            method: "compute",
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

    /// The full stack: farm partition, supervision, RMI distribution.
    fn stack(
        nodes: usize,
        workers: usize,
        packs: usize,
    ) -> (Weaver, Arc<InProcFabric>, Arc<SupervisorStats>) {
        let weaver = Weaver::new();
        let fabric = InProcFabric::new(nodes, marshal());
        fabric.register_class::<Squarer>();
        weaver.plug(FarmConfig::new(protocol(workers, packs)).aspect("Partition"));
        let (sup, stats) = supervisor_aspect(
            "Supervision",
            "Squarer",
            Pointcut::call("Squarer.compute"),
            fabric.clone(),
        );
        weaver.plug(sup);
        weaver.plug(
            RmiConfig::new("Squarer", Pointcut::call("Squarer.compute"), fabric.clone())
                .placement(Policy::round_robin())
                .aspect("Distribution"),
        );
        (weaver, fabric, stats)
    }

    #[test]
    fn farm_survives_a_worker_node_loss() {
        let (weaver, fabric, stats) = stack(4, 4, 8);
        let lead = SquarerProxy::construct(&weaver, 3).unwrap();
        let input: Vec<u64> = (0..32).collect();
        let expect: Vec<u64> = input.iter().map(|x| x * x + 3).collect();
        // Warm run, then kill one worker's node and run again: the
        // supervisor rebuilds the dead workers on survivors and the farm
        // completes with identical results.
        assert_eq!(lead.compute(input.clone()).unwrap(), expect);
        fabric.kill_node(1).unwrap();
        assert_eq!(lead.compute(input.clone()).unwrap(), expect, "degraded run must match");
        assert!(stats.workers_recovered() >= 1, "at least one worker was rebuilt");
        assert!(stats.tasks_redispatched() >= 1, "orphaned packs were re-dispatched");
        // A third run hits the repaired references without new recoveries.
        let recovered = stats.workers_recovered();
        assert_eq!(lead.compute(input).unwrap(), expect);
        assert_eq!(stats.workers_recovered(), recovered, "repair is sticky");
    }

    #[test]
    fn recovery_restores_checkpointed_state() {
        let (weaver, fabric, stats) = stack(3, 3, 3);
        let lead = SquarerProxy::construct(&weaver, 7).unwrap();
        // Kill two of the three nodes: every worker that lived there must be
        // revived with its bias intact (restore path, state codec present).
        fabric.kill_node(1).unwrap();
        fabric.kill_node(2).unwrap();
        let input: Vec<u64> = (0..9).collect();
        let expect: Vec<u64> = input.iter().map(|x| x * x + 7).collect();
        assert_eq!(lead.compute(input).unwrap(), expect);
        assert!(stats.workers_recovered() >= 1);
    }

    #[test]
    fn no_survivor_is_a_typed_failure() {
        let (weaver, fabric, _stats) = stack(2, 2, 2);
        let lead = SquarerProxy::construct(&weaver, 0).unwrap();
        fabric.kill_node(0).unwrap();
        fabric.kill_node(1).unwrap();
        let err = lead.compute(vec![1, 2]).unwrap_err();
        // Unrecoverable: the error is typed (node loss or the supervisor's
        // "no surviving node"), never a hang.
        assert!(
            err.is_node_loss() || matches!(err, WeaveError::Remote(_)),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn unplugged_supervision_leaves_failures_typed_but_unhandled() {
        // Without the supervisor the same kill surfaces as NodeDown to the
        // caller — fault tolerance really lives in the aspect.
        let weaver = Weaver::new();
        let fabric = InProcFabric::new(2, marshal());
        fabric.register_class::<Squarer>();
        weaver.plug(
            RmiConfig::new("Squarer", Pointcut::call("Squarer.compute"), fabric.clone())
                .placement(Policy::fixed(1))
                .aspect("Distribution"),
        );
        let s = SquarerProxy::construct(&weaver, 0).unwrap();
        fabric.kill_node(1).unwrap();
        let err = s.compute(vec![1]).unwrap_err();
        assert!(err.is_node_loss(), "unexpected error: {err}");
    }
}
