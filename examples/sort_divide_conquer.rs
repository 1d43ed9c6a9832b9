//! Merge sort on the divide-and-conquer partition aspect (§4.1's remark on
//! object creation at call join points), and §4.4's executor swap on it: the
//! same partition and core code with the concurrency module unplugged, on
//! thread-per-call (Figure 12), and on the work-stealing pool — whose joins
//! help instead of block, so the recursion may be far deeper than the pool
//! is wide.
//!
//! Run with: `cargo run --release --example sort_divide_conquer`
//! (prints the table recorded in EXPERIMENTS.md; `-- <n> <threshold> <runs>`
//! to change the 200 000 / 1024 / 21 defaults).

use std::time::{Duration, Instant};

use weavepar::args;
use weavepar::concurrency::resolve_any;
use weavepar::prelude::*;
use weavepar::weave::value::downcast_ret;
use weavepar::weave::Pack;
use weavepar_apps::sort::{dc_pool_size, sort_dc_config, sort_divide_conquer, Sorter, SorterProxy};

fn pseudo_random(n: usize, mut seed: u64) -> Vec<u64> {
    (0..n)
        .map(|_| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            seed >> 33
        })
        .collect()
}

/// `sort_divide_conquer`'s stack with the executor of the caller's choice
/// (`None` = concurrency unplugged) and every layer metered.
fn sort_on(xs: Vec<u64>, threshold: usize, executor: Option<&Executor>) -> (Vec<u64>, Snapshot) {
    let registry = MetricsRegistry::new();
    let stack = ConcernStack::new();
    stack.weaver().register_class::<Sorter>();
    stack.plug(Concern::Partition, sort_dc_config(threshold).metrics(&registry).aspect("dc"));
    if let Some(executor) = executor {
        executor.install_metrics(&registry, "pool");
        stack.plug_all(
            Concern::Concurrency,
            future_concurrency_aspect(
                "Concurrency",
                Pointcut::call("Sorter.sort"),
                executor.clone(),
            ),
        );
    }
    let sorter = SorterProxy::construct(stack.weaver()).expect("construct");
    let raw = sorter.handle().call("sort", args![Pack::from_vec(xs)]).expect("sort");
    let sorted: Pack = downcast_ret(resolve_any(raw).expect("resolve")).expect("a Pack");
    if let Some(executor) = executor {
        executor.wait_idle();
    }
    (sorted.to_vec(), registry.snapshot())
}

fn main() {
    let mut argv = std::env::args().skip(1).map(|a| a.parse::<usize>().expect("a number"));
    let n = argv.next().unwrap_or(200_000);
    let threshold = argv.next().unwrap_or(1024);
    let runs = argv.next().unwrap_or(21);
    let nproc = dc_pool_size();

    let xs = pseudo_random(n, 2026);
    let mut expect = xs.clone();
    let t0 = Instant::now();
    expect.sort_unstable();
    println!("n = {n}, threshold = {threshold}, median of {runs} runs, nproc = {nproc}");
    println!("std sort_unstable: {:?}", t0.elapsed());
    let got = sort_divide_conquer(xs.clone(), threshold, true).expect("sort failed");
    println!(
        "sort_divide_conquer(.., true): {} on a pool of {nproc}\n",
        if got == expect { "correct" } else { "MISMATCH" }
    );

    type MakeExecutor = Box<dyn Fn() -> Option<Executor>>;
    let variants: [(&str, MakeExecutor); 4] = [
        ("sequential woven (concurrency unplugged)", Box::new(|| None)),
        ("thread-per-call", Box::new(|| Some(Executor::thread_per_call()))),
        ("pool(1)", Box::new(|| Some(Executor::pool(1, "sort-dc")))),
        ("pool(nproc)", Box::new(move || Some(Executor::pool(nproc, "sort-dc")))),
    ];
    println!("| executor | wall ms | OS threads created | helped | steals | join_parks |");
    println!("|---|---|---|---|---|---|");
    for (label, make) in &variants {
        let mut walls = Vec::with_capacity(runs);
        let mut last = None;
        for _ in 0..runs.max(1) {
            let input = xs.clone();
            let t0 = Instant::now();
            // The executor is built inside the timed run, as in
            // `sort_divide_conquer` and the benchmark's `sort_dc`.
            let executor = make();
            let (got, snap) = sort_on(input, threshold, executor.as_ref());
            walls.push(t0.elapsed());
            assert!(got == expect, "{label}: MISMATCH");
            let threads = match &executor {
                None => 0,
                Some(Executor::Pool(pool)) => pool.size() as u64,
                // One per asynchronous call: the root and every sub-call.
                Some(Executor::ThreadPerCall(_)) => 1 + snap.counter("dc.sub_calls").unwrap_or(0),
            };
            last = Some((snap, threads));
        }
        walls.sort();
        let wall: Duration = walls[walls.len() / 2];
        let (snap, threads) = last.expect("at least one run");
        let counter = |name: &str| snap.counter(name).map_or("–".into(), |v| v.to_string());
        println!(
            "| {label} | {:.1} | {threads} | {} | {} | {} |",
            wall.as_secs_f64() * 1e3,
            counter("pool.helped"),
            counter("pool.steals"),
            counter("pool.join_parks"),
        );
    }
}
