//! Micro-benchmarks of the weaving runtime's dispatch overhead — the real
//! measurement behind Figure 16's "< 5% penalty" claim (§6, first test).
//!
//! Run with: `cargo bench -p weavepar-bench --bench weaving_overhead`
//!
//! Groups:
//! * `dispatch` — one `filter` call over a realistic pack: direct method
//!   call, unwoven proxy call, proxy with the paper's three-aspect stack;
//! * `join_point` — the fixed per-join-point cost on a no-op method, with
//!   0 / 1 / 3 / 8 pass-through aspects.
//!
//! Hand-rolled harness (same contract as `autotune_throughput`): writes
//! `BENCH_weave.json` at the workspace root with median ns/call per cell and
//! the host's `nproc` (the `dispatch_contended` rows are per-thread wall time,
//! which only reads as contention next to the core count).
//! With `WEAVEPAR_BENCH_QUICK=1` it runs a tiny smoke and skips the JSON
//! (used by ci.sh).

use std::hint::black_box;
use std::time::Instant;

use weavepar::prelude::*;
use weavepar_apps::sieve::{candidates, isqrt, PrimeFilter, PrimeFilterProxy};

const MAX: u64 = 1_000_000;
const PACK: usize = 20_000;

struct Knobs {
    /// Timed rounds per cell (median reported).
    rounds: usize,
    /// filter calls per round.
    filter_iters: usize,
    /// poke calls per round.
    poke_iters: usize,
    quick: bool,
}

impl Knobs {
    fn from_env() -> Self {
        if std::env::var("WEAVEPAR_BENCH_QUICK").is_ok_and(|v| v == "1") {
            Knobs { rounds: 3, filter_iters: 2, poke_iters: 2_000, quick: true }
        } else {
            Knobs { rounds: 15, filter_iters: 10, poke_iters: 200_000, quick: false }
        }
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

/// Median ns/call over `rounds` rounds of `iters` calls each.
fn bench(rounds: usize, iters: usize, mut call: impl FnMut()) -> f64 {
    // One untimed warmup round populates dispatch and advice-chain caches.
    for _ in 0..iters {
        call();
    }
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..iters {
            call();
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(samples)
}

fn passthrough(name: &str, pointcut: &str) -> Aspect {
    let pointcut = Pointcut::call(pointcut);
    Aspect::named(name).around(pointcut, |inv: &mut Invocation| inv.proceed()).build()
}

/// `dispatch`: a realistic `filter` pack through direct / proxy / 3-aspect
/// paths. Pack clones share one allocation, so the setup cost per call is a
/// refcount bump, not a 20k-item copy.
fn bench_dispatch(knobs: &Knobs, cells: &mut Vec<String>) -> (f64, f64) {
    let sqrt = isqrt(MAX);
    let pack: Pack = candidates(MAX).into_iter().take(PACK).collect();

    let mut direct = PrimeFilter::new(2, sqrt);
    let direct_ns = bench(knobs.rounds, knobs.filter_iters, || {
        black_box(direct.filter(black_box(pack.clone())));
    });

    let weaver = Weaver::new();
    let proxy = PrimeFilterProxy::construct(&weaver, 2, sqrt).unwrap();
    let bare_ns = bench(knobs.rounds, knobs.filter_iters, || {
        black_box(proxy.filter(black_box(pack.clone())).unwrap());
    });

    let weaver = Weaver::new();
    for name in ["Partition", "Concurrency", "Distribution"] {
        weaver.plug(passthrough(name, "PrimeFilter.*"));
    }
    let proxy = PrimeFilterProxy::construct(&weaver, 2, sqrt).unwrap();
    let woven_ns = bench(knobs.rounds, knobs.filter_iters, || {
        black_box(proxy.filter(black_box(pack.clone())).unwrap());
    });

    for (config, ns) in [
        ("direct_call", direct_ns),
        ("proxy_no_aspects", bare_ns),
        ("proxy_three_aspects", woven_ns),
    ] {
        println!("{config:>22} {ns:>14.0} ns/call");
        cells.push(format!(
            "    {{\"group\": \"dispatch\", \"config\": \"{config}\", \"median_ns_per_call\": {ns:.1}}}"
        ));
    }
    (direct_ns, woven_ns)
}

/// `join_point`: fixed per-join-point cost on a no-op method.
fn bench_join_point(knobs: &Knobs, cells: &mut Vec<String>) {
    struct Noop;
    weavepar::weaveable! {
        class Noop as NoopProxy {
            fn new() -> Self { Noop }
            fn poke(&mut self, x: u64) -> u64 { x }
        }
    }

    let mut noop = Noop::new();
    let direct_ns = bench(knobs.rounds, knobs.poke_iters, || {
        black_box(noop.poke(black_box(7)));
    });
    println!("{:>22} {direct_ns:>14.1} ns/call", "direct_baseline");
    cells.push(format!(
        "    {{\"group\": \"join_point\", \"config\": \"direct_baseline\", \"median_ns_per_call\": {direct_ns:.1}}}"
    ));

    for aspects in [0usize, 1, 3, 8] {
        let weaver = Weaver::new();
        for i in 0..aspects {
            weaver.plug(passthrough(&format!("P{i}"), "Noop.poke"));
        }
        let proxy = NoopProxy::construct(&weaver).unwrap();
        let ns = bench(knobs.rounds, knobs.poke_iters, || {
            black_box(proxy.poke(black_box(7)).unwrap());
        });
        println!("{:>22} {ns:>14.1} ns/call", format!("{aspects}_aspects"));
        cells.push(format!(
            "    {{\"group\": \"join_point\", \"config\": \"{aspects}_aspects\", \"median_ns_per_call\": {ns:.1}}}"
        ));
    }
}

/// `dispatch_contended`: the three-aspect stack under thread contention —
/// per-thread ns/call as more threads hammer one weaver.
fn bench_contended(knobs: &Knobs, cells: &mut Vec<String>) {
    struct Busy;
    weavepar::weaveable! {
        class Busy as BusyProxy {
            fn new() -> Self { Busy }
            fn poke(&mut self, x: u64) -> u64 { x.wrapping_mul(0x9e37_79b9) }
        }
    }

    let ops = (knobs.poke_iters / 50).max(100) as u64;
    for threads in [1usize, 2, 4, 8] {
        let weaver = Weaver::new();
        for name in ["Partition", "Concurrency", "Distribution"] {
            weaver.plug(passthrough(name, "Busy.poke"));
        }
        let proxies: Vec<BusyProxy> =
            (0..threads).map(|_| BusyProxy::construct(&weaver).unwrap()).collect();
        let ns = bench(knobs.rounds.min(7), 1, || {
            std::thread::scope(|s| {
                for proxy in &proxies {
                    s.spawn(move || {
                        let mut acc = 0u64;
                        for i in 0..ops {
                            acc = acc.wrapping_add(proxy.poke(black_box(i)).unwrap());
                        }
                        black_box(acc)
                    });
                }
            });
        }) / ops as f64;
        println!("{:>22} {ns:>14.1} ns/call/thread", format!("{threads}_threads"));
        cells.push(format!(
            "    {{\"group\": \"dispatch_contended\", \"config\": \"{threads}_threads\", \"median_ns_per_call\": {ns:.1}}}"
        ));
    }
}

fn main() {
    let _ = std::env::args();
    let knobs = Knobs::from_env();

    println!("== dispatch (median of {} rounds × {} calls) ==", knobs.rounds, knobs.filter_iters);
    let mut cells = Vec::new();
    let (direct_ns, woven_ns) = bench_dispatch(&knobs, &mut cells);
    let inflation = woven_ns / direct_ns.max(1e-9);
    println!("{:>22} {inflation:>14.3}x", "woven/direct");

    println!("\n== join_point (median of {} rounds × {} calls) ==", knobs.rounds, knobs.poke_iters);
    bench_join_point(&knobs, &mut cells);

    println!("\n== dispatch_contended (three aspects, shared weaver) ==");
    bench_contended(&knobs, &mut cells);

    if knobs.quick {
        println!("\nquick mode: skipping BENCH_weave.json");
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"weaving_overhead\",\n  \"unit\": \"ns_per_call\",\n  \"nproc\": {},\n  \"rounds\": {},\n  \"woven_over_direct\": {inflation:.3},\n  \"cells\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        knobs.rounds,
        cells.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_weave.json");
    std::fs::write(out, json).expect("write BENCH_weave.json");
    println!("\nwrote {out}");
}
