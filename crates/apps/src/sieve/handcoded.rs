//! The hand-coded RMI pipeline — Figure 16's "Java" baseline.
//!
//! This is what the paper compares the woven version against: the same
//! pipeline-over-RMI structure written directly against the middleware, with
//! the partition, threading and distribution logic tangled into the driver —
//! no weaver, no aspects, no join points. Functionally identical output;
//! structurally everything the methodology argues against.

use weavepar::args;
use weavepar::distribution::{CallPolicy, InProcFabric, MarshalRegistry, RemoteRef};
use weavepar::weave::{Pack, WeaveError, WeaveResult};

use super::core::{candidates, isqrt, PrimeFilter};
use super::variants::stage_ranges;

fn marshal() -> MarshalRegistry {
    let m = MarshalRegistry::new();
    m.register::<(u64, u64), ()>("PrimeFilter", "new");
    m.register::<(Pack,), Pack>("PrimeFilter", "filter");
    m
}

/// Run the hand-coded RMI pipeline: `filters` stages spread round-robin over
/// `nodes` nodes, `packs` packs pushed through by one client thread per pack.
/// Returns all primes `<= max`.
pub fn run_handcoded_rmi(
    max: u64,
    filters: usize,
    packs: usize,
    nodes: usize,
) -> WeaveResult<Vec<u64>> {
    if max < 2 {
        return Ok(Vec::new());
    }
    if max == 2 {
        return Ok(vec![2]);
    }

    let fabric = InProcFabric::new(nodes, marshal());
    fabric.register_class::<PrimeFilter>();

    // Server side: create and register each stage (Figure 14's main).
    let mut stages: Vec<RemoteRef> = Vec::with_capacity(filters);
    for (i, (lo, hi)) in stage_ranges(2, isqrt(max), filters).into_iter().enumerate() {
        let ctor = fabric.marshal().encode_args("PrimeFilter", "new", &args![lo, hi])?;
        let remote = fabric.construct_on(i % nodes.max(1), "PrimeFilter", ctor)?;
        let name = fabric.nameserver().next_name("PS");
        fabric.nameserver().rebind(&name, remote);
        // Client side: obtain the reference through the name server.
        stages.push(fabric.nameserver().lookup(&name)?);
    }

    // Client side: one thread per pack pushes it through every stage.
    let filter = fabric.marshal().method_id("PrimeFilter", "filter")?;
    let cands = candidates(max);
    if cands.is_empty() {
        return Ok(vec![2]);
    }
    let chunk = cands.len().div_ceil(packs.max(1)).max(1);
    let filtered: Vec<WeaveResult<Pack>> = std::thread::scope(|scope| {
        let clients: Vec<_> = cands
            .chunks(chunk)
            .map(|pack| {
                let fabric = fabric.clone();
                let stages = stages.clone();
                let pack = Pack::from_slice(pack);
                scope.spawn(move || {
                    let mut data = pack;
                    for stage in &stages {
                        let bytes =
                            fabric.marshal().encode_args("PrimeFilter", "filter", &args![data])?;
                        let reply = fabric.call(*stage, filter, bytes, &CallPolicy::unbounded())?;
                        let ret = fabric.marshal().decode_ret("PrimeFilter", "filter", &reply)?;
                        data = *ret
                            .downcast::<Pack>()
                            .map_err(|_| WeaveError::remote("bad filter reply type"))?;
                    }
                    Ok(data)
                })
            })
            .collect();
        // Spawn order is pack order.
        clients.into_iter().map(|c| c.join().expect("a pack's client thread panicked")).collect()
    });

    let mut primes = vec![2];
    for pack in filtered {
        primes.extend_from_slice(pack?.as_slice());
    }
    Ok(primes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sieve::core::sequential_sieve;

    #[test]
    fn handcoded_matches_sequential() {
        for (filters, packs, nodes) in [(1, 1, 1), (3, 4, 2), (4, 8, 3), (7, 5, 7)] {
            let got = run_handcoded_rmi(3_000, filters, packs, nodes).unwrap();
            assert_eq!(
                got,
                sequential_sieve(3_000),
                "filters={filters} packs={packs} nodes={nodes}"
            );
        }
    }

    #[test]
    fn handcoded_tiny_maxima() {
        assert_eq!(run_handcoded_rmi(0, 2, 2, 2).unwrap(), Vec::<u64>::new());
        assert_eq!(run_handcoded_rmi(2, 2, 2, 2).unwrap(), vec![2]);
        assert_eq!(run_handcoded_rmi(3, 2, 2, 2).unwrap(), vec![2, 3]);
    }

    #[test]
    fn handcoded_matches_woven_piperri() {
        use crate::sieve::variants::{build_sieve, run_sieve, SieveConfig};
        let woven = build_sieve(SieveConfig { packs: 6, nodes: 3, ..SieveConfig::pipe_rmi(4) });
        let a = run_sieve(&woven, 2_000).unwrap();
        let b = run_handcoded_rmi(2_000, 4, 6, 3).unwrap();
        assert_eq!(a, b, "hand-coded and woven pipelines must agree");
    }
}
