//! The incremental-development story, end to end: develop sequentially, plug
//! concerns one at a time, unplug for debugging, swap strategies — the
//! workflow of the paper's §1 and conclusion.

use weavepar::prelude::*;
use weavepar_apps::sieve::{
    build_sieve, run_sieve, sequential_sieve, PrimeFilter, PrimeFilterProxy, SieveConfig,
};

const MAX: u64 = 3_000;

#[test]
fn step0_core_runs_without_any_weaver() {
    // The core functionality is an ordinary sequential type.
    let mut f = PrimeFilter::new(2, 54);
    let out = f.filter(Pack::from_slice(&[55, 56, 57, 59]));
    assert_eq!(out.to_vec(), vec![59]);
    assert_eq!(sequential_sieve(100).len(), 25);
}

#[test]
fn step1_core_through_an_empty_weaver_is_identity() {
    // A proxy over a weaver with nothing plugged behaves exactly like the
    // bare object.
    let weaver = Weaver::new();
    let proxy = PrimeFilterProxy::construct(&weaver, 2, 54).unwrap();
    assert_eq!(proxy.filter(Pack::from_slice(&[55, 56, 57, 59])).unwrap().to_vec(), vec![59]);
    assert_eq!(weaver.space().len(), 1);
}

#[test]
fn step2_incremental_plugging_preserves_output() {
    let reference = sequential_sieve(MAX);

    // Partition only.
    let run = build_sieve(SieveConfig::sequential_pipeline(3));
    assert_eq!(run_sieve(&run, MAX).unwrap(), reference);

    // Partition + concurrency.
    let run = build_sieve(SieveConfig { packs: 6, ..SieveConfig::farm_threads(3) });
    assert_eq!(run_sieve(&run, MAX).unwrap(), reference);

    // Partition + concurrency + distribution.
    let run = build_sieve(SieveConfig { packs: 6, nodes: 3, ..SieveConfig::farm_rmi(3) });
    assert_eq!(run_sieve(&run, MAX).unwrap(), reference);
}

#[test]
fn step3_unplugging_returns_to_sequential_semantics() {
    let run = build_sieve(SieveConfig { packs: 6, ..SieveConfig::farm_threads(3) });
    // Unplug everything: back to the sequential program.
    assert!(run.stack.unplug(Concern::Partition));
    assert!(run.stack.unplug(Concern::Concurrency));
    assert!(!run.stack.unplug(Concern::Distribution), "was never plugged");

    let got = run_sieve(&run, MAX).unwrap();
    assert_eq!(got, sequential_sieve(MAX));
    // And only one PrimeFilter object per construction now.
    let weaver = run.stack.weaver();
    let before = weaver.space().ids_of_class("PrimeFilter").len();
    let _p = PrimeFilterProxy::construct(weaver, 2, 50).unwrap();
    assert_eq!(weaver.space().ids_of_class("PrimeFilter").len(), before + 1);
}

#[test]
fn step4_disable_for_debugging_then_reenable() {
    let run = build_sieve(SieveConfig { packs: 6, ..SieveConfig::farm_threads(3) });
    let reference = sequential_sieve(MAX);

    assert!(run.stack.set_enabled(Concern::Concurrency, false));
    assert_eq!(run_sieve(&run, MAX).unwrap(), reference, "sequential debugging mode");
    assert!(run.stack.set_enabled(Concern::Concurrency, true));
    assert_eq!(run_sieve(&run, MAX).unwrap(), reference, "parallel mode restored");
}

#[test]
fn step5_swap_pipeline_for_farm() {
    // "exchanging a pipeline by a farm partition" — conclusion.
    let reference = sequential_sieve(MAX);
    let run = build_sieve(SieveConfig { packs: 6, nodes: 3, ..SieveConfig::pipe_rmi(3) });
    assert_eq!(run_sieve(&run, MAX).unwrap(), reference);

    let farm = build_sieve(SieveConfig { packs: 6, nodes: 3, ..SieveConfig::farm_rmi(3) });
    assert_eq!(run_sieve(&farm, MAX).unwrap(), reference);
    assert_ne!(
        run.stack.plugged_names(Concern::Partition),
        farm.stack.plugged_names(Concern::Partition),
        "different partition aspects are plugged"
    );
}

#[test]
fn aspect_inventory_matches_configuration() {
    let run = build_sieve(SieveConfig { packs: 4, nodes: 2, ..SieveConfig::farm_mpp(2) });
    assert_eq!(run.stack.plugged_names(Concern::Partition), vec!["Partition.farm".to_string()]);
    assert_eq!(
        run.stack.plugged_names(Concern::Concurrency),
        vec!["Concurrency.async".to_string(), "Concurrency.sync".to_string()]
    );
    assert_eq!(
        run.stack.plugged_names(Concern::Distribution),
        vec!["Distribution.mpp".to_string()]
    );
    assert!(run.stack.plugged_names(Concern::Optimisation).is_empty());
    let d = run.stack.describe();
    assert!(d.contains("partition="), "{d}");
}

#[test]
fn plugging_is_per_weaver_not_global() {
    // Two stacks with different strategies coexist in one process.
    let a = build_sieve(SieveConfig { packs: 4, ..SieveConfig::farm_threads(2) });
    let b = build_sieve(SieveConfig::sequential_pipeline(3));
    assert_eq!(run_sieve(&a, 500).unwrap(), run_sieve(&b, 500).unwrap());
    assert_eq!(a.stack.weaver().space().ids_of_class("PrimeFilter").len(), 2);
    assert_eq!(b.stack.weaver().space().ids_of_class("PrimeFilter").len(), 3);
}
