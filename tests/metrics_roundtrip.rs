//! Observability round-trip: a live supervised farm run under injected
//! faults and a simulated fault replay of the *same captured structure*
//! export into one [`MetricsRegistry`], and their re-dispatch accounts agree.
//!
//! This pins the unified-snapshot contract: skeleton taps
//! (`Partition.packs_issued`), distribution and fabric taps
//! (`Distribution.calls`, `fabric.retries`), and
//! [`SimReport::install_metrics`] all land in the same [`Snapshot`]
//! namespace, so a simulated cluster run and a live run can be diffed with
//! `to_text()` alone.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use weavepar::cluster::{
    simulate_schedule, simulate_with_faults, ClusterConfig, FaultTimeline, MiddlewareProfile,
    Placement, SimParams,
};
use weavepar::distribution::{Backoff, FaultAction, FaultPlan, FaultRule, RequestClass};
use weavepar::prelude::*;
use weavepar::skeletons::{supervisor_aspect, SupervisorStats};
use weavepar::weave::trace::Recorder;
use weavepar::weave::value::downcast_ret;
use weavepar::{args, ret, weaveable};

/// The chaos seed: `CHAOS_SEED` from the environment (ci.sh's randomised
/// run) or a pinned default. Assertion messages carry it so a failing
/// randomised run prints how to replay itself.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0FFEE)
}

struct Cruncher;

weaveable! {
    class Cruncher as CruncherProxy {
        fn new() -> Self { Cruncher }
        fn crunch(&mut self, items: Vec<u64>) -> Vec<u64> {
            items.into_iter().map(|x| x * x).collect()
        }
    }
}

fn marshal() -> MarshalRegistry {
    let m = MarshalRegistry::new();
    m.register::<(), ()>("Cruncher", "new");
    m.register::<(Vec<u64>,), Vec<u64>>("Cruncher", "crunch");
    m
}

fn protocol(workers: usize, packs: usize) -> Protocol {
    Protocol {
        class: "Cruncher",
        method: "crunch",
        workers,
        worker_args: Arc::new(|_r, _n, _orig: &Args| Ok(args![])),
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
            Ok(ret!(all))
        }),
    }
}

/// One pack per worker: the supervisor and the replay count re-dispatches
/// alike only then (DESIGN.md §5).
const PACKS: usize = 2;

/// Farm + supervision + RMI distribution over a fresh 2-node fabric,
/// everything metered into `registry`.
fn supervised_farm(
    registry: &MetricsRegistry,
) -> (Weaver, Arc<InProcFabric>, Arc<SupervisorStats>) {
    let fabric = InProcFabric::new(2, marshal());
    fabric.register_class::<Cruncher>();
    fabric.install_metrics(registry, "fabric");
    let weaver = Weaver::new();
    weaver.plug(FarmConfig::new(protocol(2, PACKS)).metrics(registry).aspect("Partition"));
    let pointcut = Pointcut::call("Cruncher.crunch");
    let (supervision, stats) =
        supervisor_aspect("Supervision", "Cruncher", pointcut.clone(), fabric.clone());
    weaver.plug(supervision);
    weaver.plug(
        RmiConfig::new("Cruncher", pointcut, fabric.clone())
            .metrics(registry)
            .aspect("Distribution"),
    );
    (weaver, fabric, stats)
}

#[test]
fn live_redispatches_match_simulated_fault_replay() {
    let registry = MetricsRegistry::new();

    // --- 1. Capture the farm's structure. Like the benchmark harness, the
    // capture runs without the distribution aspect (the recorder sees only
    // locally executed join points); node placement and faults are applied
    // during replay. ---
    let recorder = Recorder::measuring();
    let rec_weaver = Weaver::new();
    rec_weaver.plug(FarmConfig::new(protocol(2, PACKS)).aspect("Partition"));
    rec_weaver.set_recorder(Some(recorder.clone()));
    let c = CruncherProxy::construct(&rec_weaver).unwrap();
    let input: Vec<u64> = (0..16).collect();
    let expect: Vec<u64> = input.iter().map(|x| x * x).collect();
    assert_eq!(c.crunch(input.clone()).unwrap(), expect);
    rec_weaver.set_recorder(None);
    let trace = recorder.finish();

    // Mirror the live placement: `RmiConfig` defaults to round-robin
    // construction placement, so the k-th constructed object (in trace
    // order) lives on node k % 2.
    let mut by_obj: HashMap<ObjId, usize> = HashMap::new();
    let mut constructed = 0usize;
    for t in &trace.tasks {
        if t.signature.is_construction() {
            if let Some(obj) = t.target {
                by_obj.insert(obj, constructed % 2);
                constructed += 1;
            }
        }
    }
    // The farm serves worker 0 from the root object itself, so the trace
    // holds exactly two constructions: the root (→ node 0, like the live
    // round-robin) and one duplicate (→ node 1).
    assert_eq!(constructed, 2, "root + 1 duplicated worker were constructed");
    let params = SimParams {
        cluster: ClusterConfig {
            nodes: 2,
            cores_per_node: 2,
            link_latency: 60e-6,
            bandwidth: 117e6,
            cpu_speed: 1.0,
        },
        middleware: MiddlewareProfile::rmi(),
        placement: Placement::ByObject(by_obj),
        client_node: 0,
        cpu_inflation: 1.0,
    };

    // --- 2. Replay with node 1 crashing right after its constructions. ---
    // The kill time comes from the fault-free schedule, so every `crunch`
    // pack bound to node 1 is lost mid-flight and re-dispatched — the same
    // packs the live farm below loses.
    let (_, schedule) = simulate_schedule(&trace, &params);
    let constructions_done = schedule
        .entries
        .iter()
        .filter(|e| e.signature.is_construction())
        .map(|e| e.end)
        .fold(0.0f64, f64::max);
    let faults = FaultTimeline::new().kill(1, constructions_done + 1e-9);
    let report = simulate_with_faults(&trace, &params, &faults).unwrap();
    assert!(report.redispatched > 0, "the replay lost node 1's in-flight packs");
    report.install_metrics(&registry, "sim");

    // --- 3. The live run: same farm, supervised, node 1 killed before the
    // call. ---
    let (weaver, fabric, stats) = supervised_farm(&registry);
    let c = CruncherProxy::construct(&weaver).unwrap();
    fabric.kill_node(1).unwrap();
    assert_eq!(c.crunch(input).unwrap(), expect, "node loss degrades, never corrupts");

    // --- 4. One snapshot holds both accounts, and they agree. ---
    let snap = registry.snapshot();
    assert_eq!(snap.counter("Partition.packs_issued"), Some(PACKS as u64));
    assert_eq!(
        Some(stats.tasks_redispatched() as u64),
        snap.counter("sim.redispatched"),
        "the supervisor and the simulated replay disagree on re-dispatches:\n{}",
        snap.to_text()
    );
    assert_eq!(stats.tasks_redispatched(), 1, "node 1's one pack was re-dispatched");
    // Every pack crossed the distribution aspect and one failed there; the
    // supervisor re-dispatched it through the fabric itself.
    assert_eq!(snap.counter("Distribution.calls"), Some(PACKS as u64));
    assert_eq!(snap.counter("Distribution.errors"), Some(1));
    assert_eq!(snap.counter("fabric.calls"), Some(PACKS as u64 + 1));
}

#[test]
fn chaos_drops_surface_as_retries_in_the_snapshot() {
    let seed = chaos_seed();
    let registry = MetricsRegistry::new();
    let fabric = InProcFabric::new(2, marshal());
    fabric.register_class::<Cruncher>();
    fabric.install_metrics(&registry, "fabric");
    let plan = Arc::new(
        FaultPlan::seeded(seed).rule(FaultRule::on(RequestClass::Call, FaultAction::Drop).times(2)),
    );
    fabric.install_faults(plan.clone());

    let weaver = Weaver::new();
    weaver.plug(FarmConfig::new(protocol(2, 4)).metrics(&registry).aspect("Partition"));
    weaver.plug(
        RmiConfig::new("Cruncher", Pointcut::call("Cruncher.crunch"), fabric.clone())
            .policy(
                CallPolicy::with_deadline(Duration::from_millis(25))
                    .retries(3)
                    .backoff(Backoff {
                        base: Duration::from_millis(1),
                        max: Duration::from_millis(4),
                    })
                    .seed(seed),
            )
            .metrics(&registry)
            .aspect("Distribution"),
    );
    let c = CruncherProxy::construct(&weaver).unwrap();
    let input: Vec<u64> = (0..16).collect();
    let expect: Vec<u64> = input.iter().map(|x| x * x).collect();
    assert_eq!(c.crunch(input).unwrap(), expect, "seed {seed}: retries recover every drop");

    // Every injected drop forced exactly one timed-out attempt, and the
    // fabric's bound counter saw each retry.
    let dropped = plan.stats().snapshot().dropped as u64;
    assert!(dropped >= 1, "seed {seed}: the plan injected at least one drop");
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("fabric.retries"),
        Some(dropped),
        "seed {seed}: retries must match injected drops:\n{}",
        snap.to_text()
    );
}

#[test]
fn snapshots_render_deterministically() {
    let fill = |names: &[&str]| {
        let reg = MetricsRegistry::new();
        for name in names {
            reg.counter(name).add(name.len() as u64);
        }
        reg.gauge("pool.occupancy").set(3);
        reg.histogram("latency_ns").record(Duration::from_micros(7));
        reg
    };
    // Same instruments registered in different orders render identically:
    // the snapshot is BTreeMap-ordered, not insertion-ordered.
    let a = fill(&["farm.packs", "rmi.calls", "exec.steals"]);
    let b = fill(&["exec.steals", "farm.packs", "rmi.calls"]);
    let (sa, sb) = (a.snapshot(), b.snapshot());
    assert_eq!(sa.to_text(), sb.to_text(), "text render is registration-order independent");
    assert_eq!(sa.to_json(), sb.to_json(), "json render is registration-order independent");
    assert_eq!(sa.to_text(), a.snapshot().to_text(), "rendering is a pure function");
}
