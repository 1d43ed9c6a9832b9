//! Throughput benchmark for the work-stealing executor (§4.4 thread-pool
//! optimisation, PR 2).
//!
//! Run with: `cargo bench -p weavepar-bench --bench executor_throughput`
//!
//! Two workloads, each at 1/2/4/8 workers:
//!
//! * `fanout`  — a flat burst of empty tasks submitted from the caller
//!   thread; measures pure submission + dispatch overhead per task.
//! * `nested`  — a fork/join tree: seeded roots each spawn children from
//!   inside the pool; measures the worker-local spawn path (LIFO slot) and
//!   stealing.
//!
//! Two ways to submit:
//!
//! * `steal_spawn`  — one `spawn` per task;
//! * `steal_batch`  — `spawn_batch` pack submission (what the skeletons use).
//!
//! This is a hand-rolled harness rather than the criterion shim because the
//! contract (satellite 5) is a machine-readable `BENCH_executor.json` at the
//! workspace root with the median ns/task per (workload, scheduler, workers)
//! cell. CLI arguments (cargo passes `--bench`) are ignored.
//!
//! The container has one or two cores (`nproc` is written into the JSON):
//! numbers measure per-task scheduling overhead on the serialized path, not
//! parallel speedup (see EXPERIMENTS.md).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use weavepar::concurrency::ThreadPool;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const FANOUT_TASKS: usize = 1_000;
const NESTED_ROOTS: usize = 100;
const NESTED_CHILDREN: usize = 9; // total tasks = roots * (1 + children)
const WARMUP_ROUNDS: usize = 3;
const ROUNDS: usize = 15;

#[derive(Clone, Copy, PartialEq)]
enum Config {
    StealSpawn,
    StealBatch,
}

impl Config {
    fn name(self) -> &'static str {
        match self {
            Config::StealSpawn => "steal_spawn",
            Config::StealBatch => "steal_batch",
        }
    }
}

/// One timed round of the flat fan-out workload; returns ns/task.
fn fanout_round(pool: &Arc<ThreadPool>, config: Config, hits: &Arc<AtomicUsize>) -> f64 {
    let start = Instant::now();
    match config {
        Config::StealBatch => {
            pool.spawn_batch((0..FANOUT_TASKS).map(|_| {
                let hits = hits.clone();
                move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        Config::StealSpawn => {
            for _ in 0..FANOUT_TASKS {
                let hits = hits.clone();
                pool.spawn(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
    }
    pool.wait_idle();
    start.elapsed().as_nanos() as f64 / FANOUT_TASKS as f64
}

/// One timed round of the nested fork/join workload; returns ns/task.
fn nested_round(pool: &Arc<ThreadPool>, config: Config, hits: &Arc<AtomicUsize>) -> f64 {
    let root = |pool: Arc<ThreadPool>, hits: Arc<AtomicUsize>| {
        move || {
            hits.fetch_add(1, Ordering::Relaxed);
            for _ in 0..NESTED_CHILDREN {
                let hits = hits.clone();
                pool.spawn(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
    };
    let start = Instant::now();
    match config {
        Config::StealBatch => {
            pool.spawn_batch((0..NESTED_ROOTS).map(|_| root(pool.clone(), hits.clone())));
        }
        Config::StealSpawn => {
            for _ in 0..NESTED_ROOTS {
                pool.spawn(root(pool.clone(), hits.clone()));
            }
        }
    }
    pool.wait_idle();
    let total = NESTED_ROOTS * (1 + NESTED_CHILDREN);
    start.elapsed().as_nanos() as f64 / total as f64
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

fn run_cell(workload: &str, config: Config, workers: usize) -> f64 {
    let pool = ThreadPool::new(workers, "bench");
    let hits = Arc::new(AtomicUsize::new(0));
    let mut samples = Vec::with_capacity(ROUNDS);
    let mut expected = 0;
    for round in 0..WARMUP_ROUNDS + ROUNDS {
        let ns = match workload {
            "fanout" => {
                expected += FANOUT_TASKS;
                fanout_round(&pool, config, &hits)
            }
            _ => {
                expected += NESTED_ROOTS * (1 + NESTED_CHILDREN);
                nested_round(&pool, config, &hits)
            }
        };
        if round >= WARMUP_ROUNDS {
            samples.push(ns);
        }
    }
    assert_eq!(hits.load(Ordering::Relaxed), expected, "lost tasks in {workload}");
    median(samples)
}

fn main() {
    // cargo passes `--bench`; this harness has no options.
    let _ = std::env::args();

    let configs = [Config::StealSpawn, Config::StealBatch];
    let workloads = ["fanout", "nested"];

    let mut json_cells = Vec::new();
    for workload in workloads {
        println!("\n== {workload} (median ns/task, {ROUNDS} rounds) ==");
        println!("{:>8} {:>14} {:>14} {:>8}", "workers", "steal_spawn", "steal_batch", "gain");
        for workers in WORKER_COUNTS {
            let mut row = Vec::new();
            for config in configs {
                let ns = run_cell(workload, config, workers);
                json_cells.push(format!(
                    "    {{\"workload\": \"{workload}\", \"scheduler\": \"{}\", \"workers\": {workers}, \"median_ns_per_task\": {ns:.1}}}",
                    config.name()
                ));
                row.push(ns);
            }
            let gain = row[0] / row[1];
            println!("{:>8} {:>14.0} {:>14.0} {:>7.2}x", workers, row[0], row[1], gain);
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"executor_throughput\",\n  \"unit\": \"ns_per_task\",\n  \"nproc\": {},\n  \"rounds\": {ROUNDS},\n  \"cells\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_cells.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_executor.json");
    std::fs::write(out, json).expect("write BENCH_executor.json");
    println!("\nwrote {out}");
}
