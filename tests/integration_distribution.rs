//! Distribution-focused integration: middleware swap, remote placement,
//! name-server behaviour, failure propagation.

use weavepar::prelude::*;
use weavepar_apps::heat::{heat_heartbeat_config, solve_sequential, Rod, RodProxy};
use weavepar_apps::sieve::{build_sieve, run_sieve, sequential_sieve, PrimeFilter, SieveConfig};

fn sieve_marshal() -> MarshalRegistry {
    let m = MarshalRegistry::new();
    m.register::<(u64, u64), ()>("PrimeFilter", "new");
    m.register::<(Pack,), Pack>("PrimeFilter", "filter");
    m
}

#[test]
fn middleware_swap_preserves_results() {
    // "it becomes easier to switch among underlying middleware
    // implementations" — §4.3.
    let rmi = build_sieve(SieveConfig { packs: 6, nodes: 3, ..SieveConfig::farm_rmi(3) });
    let mpp = build_sieve(SieveConfig { packs: 6, nodes: 3, ..SieveConfig::farm_mpp(3) });
    let a = run_sieve(&rmi, 3_000).unwrap();
    let b = run_sieve(&mpp, 3_000).unwrap();
    assert_eq!(a, b);
    assert_eq!(a, sequential_sieve(3_000));
}

#[test]
fn rmi_populates_the_name_server_mpp_does_not() {
    let rmi = build_sieve(SieveConfig { packs: 4, nodes: 2, ..SieveConfig::farm_rmi(3) });
    run_sieve(&rmi, 500).unwrap();
    let ns = rmi.fabric.as_ref().unwrap().nameserver();
    assert_eq!(ns.len(), 3, "one PS<n> binding per farm worker");
    assert!(ns.names().iter().all(|n| n.starts_with("PS")));

    let mpp = build_sieve(SieveConfig { packs: 4, nodes: 2, ..SieveConfig::farm_mpp(3) });
    run_sieve(&mpp, 500).unwrap();
    assert!(mpp.fabric.as_ref().unwrap().nameserver().is_empty());
}

#[test]
fn workers_are_actually_remote() {
    let run = build_sieve(SieveConfig { packs: 4, nodes: 4, ..SieveConfig::farm_rmi(4) });
    run_sieve(&run, 1_000).unwrap();
    let fabric = run.fabric.as_ref().unwrap();
    // Round-robin placement: one worker instance per node.
    let mut remote_objects = 0;
    for node in 0..4 {
        remote_objects += fabric.node(node).unwrap().weaver().space().len();
    }
    assert_eq!(remote_objects, 4, "each worker lives on a fabric node");
    // The class is tagged Remote on the client (declare-parents analogue).
    let tag = weavepar::weave::intertype::REMOTE_TAG;
    assert!(run.stack.weaver().intertype().has_tag("PrimeFilter", tag));
}

#[test]
fn placement_policies_spread_or_pin() {
    let marshal = sieve_marshal();
    let fabric = InProcFabric::new(4, marshal);
    fabric.register_class::<PrimeFilter>();
    let weaver = Weaver::new();
    weaver.register_class::<PrimeFilter>();
    weaver.plug(
        RmiConfig::new("PrimeFilter", Pointcut::call("PrimeFilter.filter"), fabric.clone())
            .placement(Policy::fixed(2))
            .aspect("Distribution"),
    );
    for _ in 0..3 {
        weaver.construct_dyn("PrimeFilter", weavepar::args![2u64, 10u64]).unwrap();
    }
    assert_eq!(fabric.node(2).unwrap().weaver().space().len(), 3, "fixed policy pins to node 2");
    assert_eq!(fabric.node(0).unwrap().weaver().space().len(), 0);
}

#[test]
fn random_policy_is_seed_deterministic() {
    let pick = |seed: u64| {
        let p = Policy::random(seed);
        (0..20).map(|_| p.pick(5)).collect::<Vec<_>>()
    };
    assert_eq!(pick(99), pick(99));
    assert_ne!(pick(99), pick(100), "different seeds should differ somewhere");
}

#[test]
fn remote_failure_surfaces_as_remote_error() {
    // A fabric whose marshaller lacks `filter`: the remote call must fail
    // loudly with the RemoteException analogue, not hang or corrupt.
    let marshal = MarshalRegistry::new();
    marshal.register::<(u64, u64), ()>("PrimeFilter", "new");
    let fabric = InProcFabric::new(2, marshal);
    fabric.register_class::<PrimeFilter>();
    let weaver = Weaver::new();
    weaver.register_class::<PrimeFilter>();
    weaver.plug(
        MppConfig::new("PrimeFilter", Pointcut::call("PrimeFilter.filter"), fabric)
            .placement(Policy::round_robin())
            .aspect("Distribution"),
    );
    let id = weaver.construct_dyn("PrimeFilter", weavepar::args![2u64, 10u64]).unwrap();
    let err = weaver
        .invoke_call_dyn(id, "filter", weavepar::args![Pack::from_slice(&[4u64])])
        .unwrap_err();
    assert!(matches!(err, WeaveError::Remote(_)), "got {err:?}");
}

#[test]
fn heat_heartbeat_under_rmi_matches_sequential() {
    // The exchange reaches its rods through join points only, so it works on
    // stubs: every `Rod.*` call is redirected, the "keep this side" NaN of
    // `set_halos` crosses the `f64` wire codec, and the heartbeat's bound
    // view of the stubs never stands in for the redirecting advice.
    let marshal = MarshalRegistry::new();
    marshal.register::<(u64, f64, f64, f64), ()>("Rod", "new");
    marshal.register::<(f64, f64), ()>("Rod", "set_halos");
    marshal.register::<(), (f64, f64)>("Rod", "edges");
    marshal.register::<(), ()>("Rod", "step");
    marshal.register::<(), Vec<f64>>("Rod", "snapshot");
    let fabric = InProcFabric::new(2, marshal);
    fabric.register_class::<Rod>();
    let stack = ConcernStack::new();
    stack.plug(Concern::Partition, heat_heartbeat_config(2).aspect("Partition.heartbeat"));
    stack.plug(
        Concern::Distribution,
        RmiConfig::new("Rod", Pointcut::call("Rod.*"), fabric.clone()).aspect("Distribution"),
    );
    let rod = RodProxy::construct(stack.weaver(), 24, 0.0, 1.0, 3.0).unwrap();
    let got = rod.run(50).unwrap();
    let want = solve_sequential(24, 0.0, 1.0, 3.0, 50);
    assert_eq!(got.len(), want.len());
    assert!(got.iter().zip(&want).all(|(a, b)| (a - b).abs() < 1e-9), "{got:?} vs {want:?}");
    // The work happened on the nodes: one block each, and the local stubs
    // still hold what they were constructed with.
    for node in 0..2 {
        assert_eq!(fabric.node(node).unwrap().weaver().space().len(), 1);
    }
    let stubs = stack.weaver().space().ids_of_class("Rod");
    assert_eq!(stubs.len(), 2);
    for stub in stubs {
        let cells = stack.weaver().space().with_object::<Rod, _>(stub, |r| r.cells().to_vec());
        assert_eq!(cells.unwrap(), vec![0.0; 12], "a stub was stepped locally");
    }
}

#[test]
fn hybrid_stacks_coexist() {
    // "It is also possible to use a combination of middleware
    // implementations" — two classes, one per middleware, on one weaver.
    struct Doubler;
    weavepar::weaveable! {
        class Doubler as DoublerProxy {
            fn new() -> Self { Doubler }
            fn double(&mut self, x: u64) -> u64 { x * 2 }
        }
    }
    struct Tripler;
    weavepar::weaveable! {
        class Tripler as TriplerProxy {
            fn new() -> Self { Tripler }
            fn triple(&mut self, x: u64) -> u64 { x * 3 }
        }
    }

    let m = MarshalRegistry::new();
    m.register::<(), ()>("Doubler", "new");
    m.register::<(u64,), u64>("Doubler", "double");
    m.register::<(), ()>("Tripler", "new");
    m.register::<(u64,), u64>("Tripler", "triple");
    let fabric = InProcFabric::new(2, m);
    fabric.register_class::<Doubler>();
    fabric.register_class::<Tripler>();

    let weaver = Weaver::new();
    weaver.plug(
        RmiConfig::new("Doubler", Pointcut::call("Doubler.double"), fabric.clone())
            .placement(Policy::fixed(0))
            .aspect("Distribution.rmi"),
    );
    weaver.plug(
        MppConfig::new("Tripler", Pointcut::call("Tripler.triple"), fabric.clone())
            .placement(Policy::fixed(1))
            .aspect("Distribution.mpp"),
    );

    let d = DoublerProxy::construct(&weaver).unwrap();
    let t = TriplerProxy::construct(&weaver).unwrap();
    assert_eq!(d.double(21).unwrap(), 42);
    assert_eq!(t.triple(14).unwrap(), 42);
    assert_eq!(fabric.nameserver().len(), 1, "only the RMI class registers names");
}

#[test]
fn only_a_redirected_call_leaves_the_stubs_monitor_alone() {
    // The synchronisation advice holds every target's monitor but a stub's
    // on a call that is redirected: an object of the distributed class built
    // before distribution was plugged, and a stub once it is unplugged, run
    // locally and under their monitor.
    use std::sync::{Arc, Mutex};
    use weavepar::concurrency::synchronized_aspect;
    use weavepar::weave::{aspect::precedence, object::monitors_held};
    struct Doubler;
    weavepar::weaveable! {
        class Doubler as DoublerProxy {
            fn new() -> Self { Doubler }
            fn double(&mut self, x: u64) -> u64 { x * 2 }
        }
    }
    let m = MarshalRegistry::new();
    m.register::<(), ()>("Doubler", "new");
    m.register::<(u64,), u64>("Doubler", "double");
    let fabric = InProcFabric::new(1, m);
    fabric.register_class::<Doubler>();

    let weaver = Weaver::new();
    let pointcut = Pointcut::call("Doubler.double");
    weaver.plug(synchronized_aspect("Sync", pointcut.clone()));
    let held = Arc::new(Mutex::new(Vec::new()));
    let seen = held.clone();
    weaver.plug(
        Aspect::named("Probe")
            .precedence(precedence::OPTIMISATION)
            .around(pointcut.clone(), move |inv: &mut Invocation| {
                seen.lock().unwrap().push(monitors_held());
                inv.proceed()
            })
            .build(),
    );
    let early = DoublerProxy::construct(&weaver).unwrap();
    let rmi = weaver.plug(RmiConfig::new("Doubler", pointcut, fabric).aspect("Distribution"));
    let stub = DoublerProxy::construct(&weaver).unwrap();
    assert_eq!(early.double(1).unwrap(), 2);
    assert_eq!(stub.double(2).unwrap(), 4);
    weaver.unplug(&rmi);
    assert!(weaver.intertype().has_tag("Doubler", weavepar::weave::intertype::REMOTE_TAG));
    assert_eq!(stub.double(3).unwrap(), 6);
    assert_eq!(*held.lock().unwrap(), [1, 0, 1], "early, redirected stub, unplugged stub");
}

#[test]
fn filters_can_migrate_mid_run() {
    use weavepar::distribution::{introduce_migration, migrate_object};

    // A farmed, distributed sieve whose workers are moved to other nodes
    // between two runs — results must be identical, and the objects must
    // really have moved.
    let run = build_sieve(SieveConfig { packs: 4, nodes: 4, ..SieveConfig::farm_rmi(3) });
    let weaver = run.stack.weaver();
    let fabric = run.fabric.clone().unwrap();
    introduce_migration(weaver, "PrimeFilter", fabric.clone());

    let first = run_sieve(&run, 2_000).unwrap();
    assert_eq!(first, sequential_sieve(2_000));

    // Move every distributed worker to node 3.
    let stubs = weaver.space().ids_of_class("PrimeFilter");
    let mut moved = 0;
    for stub in stubs {
        if weaver.intertype().has_field(stub, "remote") {
            migrate_object(weaver, stub, 3).unwrap();
            moved += 1;
        }
    }
    assert!(moved >= 3, "expected the farm workers to be migratable: {moved}");
    let on_node3 = fabric.node(3).unwrap().weaver().space().len();
    assert!(on_node3 >= moved, "workers must live on node 3 now");

    // The same stubs keep working after migration (calls follow the move).
    use weavepar::concurrency::resolve_any;
    use weavepar::weave::value::downcast_ret;
    let stub = weaver
        .space()
        .ids_of_class("PrimeFilter")
        .into_iter()
        .find(|s| weaver.intertype().has_field(*s, "remote"))
        .unwrap();
    let raw = weaver
        .invoke_call_dyn(stub, "filter", weavepar::args![Pack::from_slice(&[1999u64, 2000])])
        .unwrap();
    let out = downcast_ret::<Pack>(resolve_any(raw).unwrap()).unwrap();
    assert_eq!(out.to_vec(), vec![1999], "migrated filter still filters correctly");
}

#[test]
fn node_failure_surfaces_through_the_whole_stack() {
    // Failure injection: crash a fabric node, then run. The remote error
    // must propagate through distribution advice, the concurrency futures
    // and the partition combine up to the caller — Figure 14's
    // RemoteException path, end to end.
    let run = build_sieve(SieveConfig { packs: 6, nodes: 3, ..SieveConfig::farm_rmi(3) });
    run.fabric.as_ref().unwrap().kill_node(1).unwrap();
    let err = run_sieve(&run, 2_000).unwrap_err();
    assert!(err.is_node_loss(), "expected a typed NodeDown, got {err:?}");
}

#[test]
fn surviving_nodes_keep_serving_after_a_crash() {
    let run = build_sieve(SieveConfig { packs: 4, nodes: 4, ..SieveConfig::farm_rmi(4) });
    // Build the farm first (places one worker per node), then crash node 3.
    let first = run_sieve(&run, 1_000).unwrap();
    assert_eq!(first, sequential_sieve(1_000));
    run.fabric.as_ref().unwrap().kill_node(3).unwrap();
    // A fresh farm construction now fails when placement reaches node 3...
    let second = run_sieve(&run, 1_000);
    assert!(second.is_err(), "round-robin placement must hit the dead node");
    // ...but direct calls to workers on live nodes still succeed.
    use weavepar::concurrency::resolve_any;
    use weavepar::weave::value::downcast_ret;
    let weaver = run.stack.weaver();
    let live_stub = weaver
        .space()
        .ids_of_class("PrimeFilter")
        .into_iter()
        .find(|s| {
            weaver
                .intertype()
                .get_field::<weavepar::distribution::RemoteRef>(*s, "remote")
                .is_some_and(|r| r.node != 3)
        })
        .expect("a worker on a live node");
    let raw = weaver
        .invoke_call_dyn(live_stub, "filter", weavepar::args![Pack::from_slice(&[7u64, 8])])
        .unwrap();
    let out = downcast_ret::<Pack>(resolve_any(raw).unwrap()).unwrap();
    assert_eq!(out.to_vec(), vec![7]);
}
