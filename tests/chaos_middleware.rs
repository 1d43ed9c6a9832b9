//! Chaos matrix: farm/pipeline workloads under seeded fault plans (run in
//! `--release` by ci.sh, once with a pinned seed and once with a randomised
//! seed exported as `CHAOS_SEED`).
//!
//! Every fault schedule is a pure function of the seed
//! ([`FaultPlan::seeded`]), so a failing randomised run is replayed exactly
//! by re-running with the printed seed. The matrix pins the fault-tolerance
//! layer's contract:
//!
//! * a node crashed **mid-flight** under a farm costs nothing but time — the
//!   supervision aspect rebuilds the dead workers and re-dispatches the
//!   orphaned packs, and the result is byte-identical to the undisturbed run;
//! * dropped replies are retried under a [`CallPolicy`] and recover;
//! * an **unrecoverable** loss fails with a typed [`WeaveError::Timeout`]
//!   within the policy's worst case (every attempt hitting its deadline plus
//!   one full backoff ladder) — never a hang;
//! * an injected duplicate oneway is executed **at most once** (the node's
//!   dedup window answers the second delivery);
//! * losing 1 or 2 of 4 worker nodes degrades throughput, not correctness.

use std::sync::Arc;
use std::time::{Duration, Instant};

use weavepar::distribution::{
    Backoff, FaultAction, FaultPlan, FaultRule, MethodId, RemoteRef, RequestClass,
};
use weavepar::prelude::*;
use weavepar::skeletons::{supervisor_aspect, SupervisorStats};
use weavepar::weave::value::downcast_ret;
use weavepar::{args, ret, weaveable};
use weavepar_apps::sieve::{build_sieve, run_sieve, sequential_sieve, SieveConfig};

/// The chaos seed: `CHAOS_SEED` from the environment (ci.sh's randomised
/// run) or a pinned default (the regression run). Assertion messages carry
/// it so a failing randomised run prints how to replay itself.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0FFEE)
}

struct Cruncher {
    bias: u64,
}

weaveable! {
    class Cruncher as CruncherProxy {
        fn new(bias: u64) -> Self { Cruncher { bias } }
        fn crunch(&mut self, items: Vec<u64>) -> Vec<u64> {
            items.into_iter().map(|x| x * x + self.bias).collect()
        }
    }
}

struct Counter {
    hits: u64,
}

weaveable! {
    class Counter as CounterProxy {
        fn new() -> Self { Counter { hits: 0 } }
        fn bump(&mut self, x: u64) { self.hits += x; }
        fn total(&mut self) -> u64 { self.hits }
    }
}

fn cruncher_marshal() -> MarshalRegistry {
    let m = MarshalRegistry::new();
    m.register::<(u64,), ()>("Cruncher", "new");
    m.register::<(Vec<u64>,), Vec<u64>>("Cruncher", "crunch");
    m.register_state::<Cruncher, u64, _, _>(|c| c.bias, |bias| Cruncher { bias });
    m
}

fn cruncher_protocol(workers: usize, packs: usize) -> Protocol {
    Protocol {
        class: "Cruncher",
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
            Ok(ret!(all))
        }),
    }
}

/// Farm partition + supervision + RMI distribution (under `call_policy`)
/// over a fresh fabric — the full fault-tolerant stack.
fn supervised_farm(
    nodes: usize,
    workers: usize,
    packs: usize,
    call_policy: CallPolicy,
) -> (Weaver, Arc<InProcFabric>, Arc<SupervisorStats>) {
    let weaver = Weaver::new();
    let fabric = InProcFabric::new(nodes, cruncher_marshal());
    fabric.register_class::<Cruncher>();
    weaver.plug(FarmConfig::new(cruncher_protocol(workers, packs)).aspect("Partition"));
    let (sup, stats) = supervisor_aspect(
        "Supervision",
        "Cruncher",
        Pointcut::call("Cruncher.crunch"),
        fabric.clone(),
    );
    weaver.plug(sup);
    weaver.plug(
        RmiConfig::new("Cruncher", Pointcut::call("Cruncher.crunch"), fabric.clone())
            .placement(Policy::round_robin())
            .policy(call_policy)
            .aspect("Distribution"),
    );
    (weaver, fabric, stats)
}

fn expect_crunch(input: &[u64], bias: u64) -> Vec<u64> {
    input.iter().map(|x| x * x + bias).collect()
}

#[test]
fn farm_survives_a_node_crashed_mid_flight() {
    // The first replied call delivered to node 1 kills the whole node while
    // the farm's packs are in flight. The supervisor must detect the typed
    // NodeDown, rebuild node 1's workers on a survivor and re-dispatch the
    // orphaned packs — same bytes out as a run nobody disturbed.
    let seed = chaos_seed();
    let (weaver, fabric, stats) = supervised_farm(4, 4, 8, CallPolicy::unbounded());
    fabric.install_faults(Arc::new(
        FaultPlan::seeded(seed)
            .rule(FaultRule::on(RequestClass::Call, FaultAction::CrashNode).node(1).times(1)),
    ));
    let lead = CruncherProxy::construct(&weaver, 3).unwrap();
    let input: Vec<u64> = (0..64).collect();
    let got = lead.crunch(input.clone()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    assert_eq!(got, expect_crunch(&input, 3), "seed {seed}: degraded result diverged");
    let injected = fabric.faults().unwrap().stats().snapshot();
    assert_eq!(injected.crashed, 1, "seed {seed}: the crash rule must fire exactly once");
    assert!(stats.workers_recovered() >= 1, "seed {seed}: no worker was rebuilt");
    assert!(stats.tasks_redispatched() >= 1, "seed {seed}: no orphaned pack was re-dispatched");
    assert!(fabric.node(1).unwrap().is_down(), "seed {seed}: node 1 should stay dead");
}

#[test]
fn seeded_fault_matrix_keeps_farm_results_identical() {
    // Probabilistic drops and delays over several derived seeds. The drop
    // budget (3) is strictly below the retry budget (4), so completion is
    // guaranteed for *every* seed — the seed only decides which calls pay.
    let base = chaos_seed();
    let input: Vec<u64> = (0..48).collect();
    let expect = expect_crunch(&input, 9);
    for seed in [base, base ^ 0x5bd1e995, base.wrapping_add(12_345)] {
        let policy = CallPolicy::with_deadline(Duration::from_millis(250))
            .retries(4)
            .backoff(Backoff { base: Duration::from_millis(2), max: Duration::from_millis(10) })
            .seed(seed);
        let (weaver, fabric, _stats) = supervised_farm(3, 3, 12, policy);
        fabric.install_faults(Arc::new(
            FaultPlan::seeded(seed)
                .rule(FaultRule::on(RequestClass::Call, FaultAction::Drop).per_mille(400).times(3))
                .rule(
                    FaultRule::on(RequestClass::Call, FaultAction::Delay(Duration::from_millis(2)))
                        .per_mille(250),
                ),
        ));
        let lead = CruncherProxy::construct(&weaver, 9).unwrap();
        let got = lead.crunch(input.clone()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(got, expect, "seed {seed}: farm result diverged under faults");
    }
}

#[test]
fn delayed_pipeline_sieve_is_undisturbed() {
    // The pipeline leg of the matrix: every request class may be delivered
    // late, which exercises the futures + reforwarding chain under jitter
    // without ever losing data — the primes must come out exactly.
    let seed = chaos_seed();
    let run = build_sieve(SieveConfig { packs: 6, nodes: 3, ..SieveConfig::pipe_rmi(4) });
    run.fabric.as_ref().unwrap().install_faults(Arc::new(
        FaultPlan::seeded(seed).rule(
            FaultRule::on(RequestClass::Any, FaultAction::Delay(Duration::from_millis(2)))
                .per_mille(300),
        ),
    ));
    let got = run_sieve(&run, 3_000).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    assert_eq!(got, sequential_sieve(3_000), "seed {seed}: delayed pipeline diverged");
    let injected = run.fabric.as_ref().unwrap().faults().unwrap().stats().snapshot();
    assert!(injected.delayed >= 1, "seed {seed}: p=0.3 over a whole sieve must delay something");
}

fn lone_cruncher(bias: u64) -> (Arc<InProcFabric>, RemoteRef, MethodId) {
    let f = InProcFabric::new(1, cruncher_marshal());
    f.register_class::<Cruncher>();
    let ctor = f.marshal().encode_args("Cruncher", "new", &args![bias]).unwrap();
    let r = f.construct_on(0, "Cruncher", ctor).unwrap();
    let crunch = f.marshal().method_id("Cruncher", "crunch").unwrap();
    (f, r, crunch)
}

#[test]
fn dropped_replies_recover_under_retry() {
    let seed = chaos_seed();
    let (f, r, crunch) = lone_cruncher(5);
    // Lose the first two replied deliveries, then behave.
    f.install_faults(Arc::new(
        FaultPlan::seeded(seed).rule(FaultRule::on(RequestClass::Call, FaultAction::Drop).times(2)),
    ));
    let policy = CallPolicy::with_deadline(Duration::from_millis(40))
        .retries(3)
        .backoff(Backoff { base: Duration::from_millis(2), max: Duration::from_millis(8) })
        .seed(seed);
    let args = f.marshal().encode_args("Cruncher", "crunch", &args![vec![3u64]]).unwrap();
    let reply = f.call(r, crunch, args, &policy).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    let ret = f.marshal().decode_ret("Cruncher", "crunch", &reply).unwrap();
    assert_eq!(*ret.downcast::<Vec<u64>>().unwrap(), vec![14], "seed {seed}");
    assert_eq!(
        f.faults().unwrap().stats().snapshot().dropped,
        2,
        "seed {seed}: both budgeted drops must have fired"
    );
}

#[test]
fn unrecoverable_loss_fails_typed_within_the_policy_worst_case() {
    let seed = chaos_seed();
    let (f, r, crunch) = lone_cruncher(0);
    // Every replied delivery is lost: no retry can help, so the call
    // must fail with a typed Timeout inside deadline × attempts plus
    // one full backoff ladder (CallPolicy::worst_case), never hang.
    f.install_faults(Arc::new(
        FaultPlan::seeded(seed).rule(FaultRule::on(RequestClass::Call, FaultAction::Drop)),
    ));
    let policy = CallPolicy::with_deadline(Duration::from_millis(30))
        .retries(2)
        .backoff(Backoff { base: Duration::from_millis(2), max: Duration::from_millis(6) })
        .seed(seed);
    let bound = policy.worst_case().unwrap();
    let args = f.marshal().encode_args("Cruncher", "crunch", &args![vec![1u64]]).unwrap();
    let start = Instant::now();
    let err = f.call(r, crunch, args, &policy).unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        matches!(err, WeaveError::Timeout { .. }),
        "seed {seed}: expected Timeout, got {err:?}"
    );
    // Generous scheduling slack: the bound is ~100ms, the slack covers a
    // loaded CI box without masking a hang.
    assert!(
        elapsed <= bound + Duration::from_millis(400),
        "seed {seed}: failure took {elapsed:?}, policy worst case is {bound:?}"
    );
}

#[test]
fn duplicated_oneways_execute_at_most_once() {
    let m = MarshalRegistry::new();
    m.register::<(), ()>("Counter", "new");
    m.register::<(u64,), ()>("Counter", "bump");
    m.register::<(), u64>("Counter", "total");
    let f = InProcFabric::new(1, m);
    f.register_class::<Counter>();
    let ctor = f.marshal().encode_args("Counter", "new", &args![]).unwrap();
    let r = f.construct_on(0, "Counter", ctor).unwrap();

    // Every oneway is delivered twice with the same dedup key.
    let seed = chaos_seed();
    f.install_faults(Arc::new(
        FaultPlan::seeded(seed).rule(FaultRule::on(RequestClass::Oneway, FaultAction::Duplicate)),
    ));
    const BUMPS: usize = 64;
    let bump = f.marshal().method_id("Counter", "bump").unwrap();
    for _ in 0..BUMPS {
        let args = f.marshal().encode_args("Counter", "bump", &args![1u64]).unwrap();
        f.send(r, bump, args).unwrap();
    }
    // The replied read drains the node FIFO behind every duplicate.
    let total = f.marshal().method_id("Counter", "total").unwrap();
    let args = f.marshal().encode_args("Counter", "total", &args![]).unwrap();
    let reply = f.call(r, total, args, &CallPolicy::unbounded()).unwrap();
    let total =
        *f.marshal().decode_ret("Counter", "total", &reply).unwrap().downcast::<u64>().unwrap();
    let injected = f.faults().unwrap().stats().snapshot();
    assert_eq!(
        injected.duplicated, BUMPS,
        "seed {seed}: every oneway must have been duplicated on the wire"
    );
    assert_eq!(
        total,
        BUMPS as u64,
        "seed {seed}: {} duplicate deliveries leaked past the dedup window",
        total as i64 - BUMPS as i64
    );
}

#[test]
fn farm_degrades_gracefully_losing_one_then_two_of_four_workers() {
    // The EXPERIMENTS.md degradation row: same workload, 0/1/2 worker nodes
    // killed after warm-up. Correctness must be bit-identical in all three
    // columns; the killed columns only pay recovery time.
    let input: Vec<u64> = (0..4096).collect();
    let expect = expect_crunch(&input, 1);
    let mut timings = Vec::new();
    for kills in 0..=2usize {
        let (weaver, fabric, stats) = supervised_farm(4, 4, 16, CallPolicy::unbounded());
        let lead = CruncherProxy::construct(&weaver, 1).unwrap();
        // Warm-up places one worker per node and caches the farm.
        assert_eq!(lead.crunch(input.clone()).unwrap(), expect);
        for node in 1..=kills {
            fabric.kill_node(node).unwrap();
        }
        let start = Instant::now();
        let got = lead.crunch(input.clone()).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(got, expect, "{kills} kills: degraded result diverged");
        if kills > 0 {
            assert!(stats.workers_recovered() >= kills, "{kills} kills: recovery did not run");
        }
        timings.push((kills, elapsed, stats.workers_recovered(), stats.tasks_redispatched()));
    }
    // Printed under --nocapture; EXPERIMENTS.md quotes a run of this loop.
    for (kills, elapsed, recovered, redispatched) in timings {
        eprintln!(
            "degradation: kills={kills} elapsed={elapsed:?} recovered={recovered} redispatched={redispatched}"
        );
    }
}
