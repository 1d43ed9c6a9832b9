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
/// (`None` = concurrency unplugged), the partition metered into `registry`.
/// As there, the result is written back into `xs`.
fn sort_on(
    mut xs: Vec<u64>,
    threshold: usize,
    executor: Option<&Executor>,
    registry: &MetricsRegistry,
) -> Vec<u64> {
    let stack = ConcernStack::new();
    stack.weaver().register_class::<Sorter>();
    stack.plug(Concern::Partition, sort_dc_config(threshold).metrics(registry).aspect("dc"));
    if let Some(executor) = executor {
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
    let raw = sorter.handle().call("sort", args![Pack::from_slice(&xs)]).expect("sort");
    let sorted: Pack = downcast_ret(resolve_any(raw).expect("resolve")).expect("a Pack");
    xs.copy_from_slice(sorted.as_slice());
    xs
}

/// This process's minor page faults so far: field 10 of `/proc/self/stat`
/// (`None` where that file cannot be read).
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields 3.. follow the parenthesised command name, which may hold spaces.
    let fields = stat.get(stat.rfind(')')? + 1..)?;
    fields.split_whitespace().nth(10 - 3)?.parse().ok()
}

fn median<T: Ord + Copy>(mut xs: Vec<T>) -> T {
    xs.sort();
    xs[xs.len() / 2]
}

fn main() {
    let mut argv = std::env::args().skip(1).map(|a| a.parse::<usize>().expect("a number"));
    let n = argv.next().unwrap_or(200_000);
    let threshold = argv.next().unwrap_or(1024);
    let runs = argv.next().unwrap_or(21).max(1);
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

    // A per-run executor is built inside the timed run: the cold cost. The
    // "built once" pool is built here and shared by every run, as
    // `sort_divide_conquer` shares its process-wide pool: the warm cost.
    let built_once = Executor::pool(nproc, "sort-dc");
    let shared = built_once.clone();
    type MakeExecutor = Box<dyn Fn() -> Option<Executor>>;
    let variants: [(&str, MakeExecutor); 5] = [
        ("sequential woven (concurrency unplugged)", Box::new(|| None)),
        ("thread-per-call", Box::new(|| Some(Executor::thread_per_call()))),
        ("pool(1)", Box::new(|| Some(Executor::pool(1, "sort-dc")))),
        ("pool(nproc)", Box::new(move || Some(Executor::pool(nproc, "sort-dc")))),
        ("pool(nproc), built once", Box::new(move || Some(shared.clone()))),
    ];
    println!(
        "| executor | wall ms | minor faults / run | OS threads created | helped | steals | join_parks |"
    );
    println!("|---|---|---|---|---|---|---|");
    for (label, make) in &variants {
        let mut walls = Vec::with_capacity(runs);
        let mut faults = Vec::with_capacity(runs);
        let mut last = None;
        for _ in 0..runs {
            let input = xs.clone();
            let registry = MetricsRegistry::new();
            let faults_before = minor_faults();
            let t0 = Instant::now();
            let executor = make();
            if let Some(executor) = &executor {
                executor.install_metrics(&registry, "pool");
            }
            // A shared pool's counters run on from one run to the next: each
            // run reads what it added.
            let before = registry.snapshot();
            let got = sort_on(input, threshold, executor.as_ref(), &registry);
            if let Some(executor) = &executor {
                executor.wait_idle();
            }
            walls.push(t0.elapsed());
            faults.push(minor_faults().zip(faults_before).map(|(now, then)| now - then));
            assert!(got == expect, "{label}: MISMATCH");
            last = Some((before, registry.snapshot(), executor));
        }
        let wall: Duration = median(walls);
        let faults = faults.into_iter().collect::<Option<Vec<u64>>>().map(median);
        let (before, after, executor) = last.expect("at least one run");
        let added = |name: &str| after.counter(name).map(|v| v - before.counter(name).unwrap_or(0));
        let threads = match &executor {
            None => "0".to_string(),
            Some(executor) if executor.same_as(&built_once) => {
                format!("0 ({nproc} before the first run)")
            }
            Some(Executor::Pool(pool)) => pool.size().to_string(),
            // One per asynchronous call: the root and every sub-call.
            Some(Executor::ThreadPerCall(_)) => {
                (1 + added("dc.sub_calls").unwrap_or(0)).to_string()
            }
        };
        let shown = |v: Option<u64>| v.map_or("–".into(), |v| v.to_string());
        println!(
            "| {label} | {:.1} | {} | {threads} | {} | {} | {} |",
            wall.as_secs_f64() * 1e3,
            shown(faults),
            shown(added("pool.helped")),
            shown(added("pool.steals")),
            shown(added("pool.join_parks")),
        );
    }
}
