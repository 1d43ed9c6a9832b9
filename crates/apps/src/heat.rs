//! 1-D heat diffusion (Jacobi relaxation) — the heartbeat category.
//!
//! Core functionality: a [`Rod`] of cells with fixed boundary temperatures,
//! relaxed one Jacobi step at a time. The heartbeat aspect splits the rod
//! into blocks, and each iteration exchanges the block-edge temperatures
//! before stepping — the "exchange updated data among objects between
//! iterations" of §4.1.

use std::sync::Arc;

use weavepar::concurrency::resolve_any;
use weavepar::prelude::*;
use weavepar::weave::value::downcast_ret;
use weavepar::{args, ret, weaveable};

/// A rod segment with explicit halo cells at both ends.
///
/// `next` is a persistent scratch buffer: each `step` writes into it and
/// swaps, so the steady-state iteration loop allocates nothing.
pub struct Rod {
    cells: Vec<f64>,
    next: Vec<f64>,
    left_halo: f64,
    right_halo: f64,
}

impl Rod {
    /// Current cell values (tests, assembly).
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }
}

weaveable! {
    class Rod as RodProxy {
        fn new(len: u64, initial: f64, left: f64, right: f64) -> Self {
            Rod {
                cells: vec![initial; len as usize],
                next: vec![initial; len as usize],
                left_halo: left,
                right_halo: right,
            }
        }

        /// A NaN keeps that side as it is (the outermost halos are the fixed
        /// boundary temperatures), like an empty row in `heat2d`.
        fn set_halos(&mut self, left: f64, right: f64) {
            if !left.is_nan() {
                self.left_halo = left;
            }
            if !right.is_nan() {
                self.right_halo = right;
            }
        }

        fn edges(&mut self) -> (f64, f64) {
            let first = self.cells.first().copied().unwrap_or(self.left_halo);
            let last = self.cells.last().copied().unwrap_or(self.right_halo);
            (first, last)
        }

        fn step(&mut self) {
            let n = self.cells.len();
            for (i, cell) in self.next.iter_mut().enumerate() {
                let left = if i == 0 { self.left_halo } else { self.cells[i - 1] };
                let right = if i + 1 == n { self.right_halo } else { self.cells[i + 1] };
                *cell = (left + right) / 2.0;
            }
            std::mem::swap(&mut self.cells, &mut self.next);
        }

        fn snapshot(&mut self) -> Vec<f64> {
            self.cells.clone()
        }

        fn run(&mut self, iterations: u64) -> Vec<f64> {
            for _ in 0..iterations {
                self.step();
            }
            self.cells.clone()
        }
    }
}

/// The sequential reference solution.
pub fn solve_sequential(
    len: u64,
    initial: f64,
    left: f64,
    right: f64,
    iterations: u64,
) -> Vec<f64> {
    let mut rod = Rod::new(len, initial, left, right);
    rod.run(iterations)
}

/// The heartbeat configuration for the rod: block partition, per-iteration
/// edge exchange, snapshot concatenation.
pub fn heat_heartbeat_config(workers: usize) -> HeartbeatConfig {
    HeartbeatConfig {
        class: "Rod",
        workers,
        worker_args: Arc::new(move |rank, n, orig: &Args| {
            let len = *orig.get::<u64>(0)?;
            let initial = *orig.get::<f64>(1)?;
            let left = *orig.get::<f64>(2)?;
            let right = *orig.get::<f64>(3)?;
            // Block partition of `len` cells; edge blocks keep the fixed
            // boundary temperatures, interior halos are refreshed by the
            // exchange phase.
            let base = len / n as u64;
            let extra = (len % n as u64) as usize;
            let block = base + u64::from(rank < extra);
            let left_halo = if rank == 0 { left } else { initial };
            let right_halo = if rank + 1 == n { right } else { initial };
            Ok(args![block, initial, left_halo, right_halo])
        }),
        run_method: "run",
        iterations: Arc::new(|a: &Args| Ok(*a.get::<u64>(0)?)),
        step_method: "step",
        step_args: Arc::new(|_iter| Ok(args![])),
        exchange: Arc::new(|weaver: &Weaver, workers: &[ObjId], _iter| {
            let edges = |w: ObjId| -> WeaveResult<(f64, f64)> {
                downcast_ret(resolve_any(weaver.invoke_call(w, "Rod", "edges", args![])?)?)
            };
            let Some(&first) = workers.first() else { return Ok(()) };
            // A window of three blocks rolls over the rod: edges are cells
            // and `set_halos` writes halos, so a block's halos can be set as
            // soon as both neighbours' edges are known, and nothing is
            // gathered. NaN (no neighbour) keeps the fixed boundary.
            let mut left = f64::NAN;
            let mut current = edges(first)?;
            for (i, &w) in workers.iter().enumerate() {
                let next = workers.get(i + 1).map(|&n| edges(n)).transpose()?;
                if workers.len() > 1 {
                    let right = next.map_or(f64::NAN, |(first, _)| first);
                    let raw = weaver.invoke_call(w, "Rod", "set_halos", args![left, right])?;
                    resolve_any(raw)?;
                }
                left = current.1;
                current = next.unwrap_or(current);
            }
            Ok(())
        }),
        collect: Arc::new(|weaver: &Weaver, workers: &[ObjId]| {
            let mut all = Vec::new();
            for &w in workers {
                let raw = weaver.invoke_call(w, "Rod", "snapshot", args![])?;
                all.extend(downcast_ret::<Vec<f64>>(resolve_any(raw)?)?);
            }
            Ok(ret!(all))
        }),
    }
}

/// Solve with the heartbeat aspect over `workers` blocks.
pub fn solve_heartbeat(
    len: u64,
    initial: f64,
    left: f64,
    right: f64,
    iterations: u64,
    workers: usize,
) -> WeaveResult<Vec<f64>> {
    solve(false, len, initial, left, right, iterations, workers)
}

/// Solve with heartbeat + concurrent steps on the crate's shared pool.
pub fn solve_heartbeat_concurrent(
    len: u64,
    initial: f64,
    left: f64,
    right: f64,
    iterations: u64,
    workers: usize,
) -> WeaveResult<Vec<f64>> {
    solve(true, len, initial, left, right, iterations, workers)
}

/// The heartbeat aspect over `workers` blocks, plus the concurrency module
/// on the shared pool when `concurrent`. The run's result is its steps'
/// last barrier, so nothing is left to wait for on the pool.
fn solve(
    concurrent: bool,
    len: u64,
    initial: f64,
    left: f64,
    right: f64,
    iterations: u64,
    workers: usize,
) -> WeaveResult<Vec<f64>> {
    // Never create empty blocks (see the 2-D variant for the rationale).
    let workers = workers.clamp(1, len.max(1) as usize);
    let stack = ConcernStack::new();
    stack.plug(Concern::Partition, heat_heartbeat_config(workers).aspect("Partition.heartbeat"));
    if concurrent {
        let executor = crate::shared_pool().clone();
        stack.plug_all(
            Concern::Concurrency,
            future_concurrency_aspect("Concurrency", Pointcut::call("Rod.step"), executor),
        );
    }
    let rod = RodProxy::construct(stack.weaver(), len, initial, left, right)?;
    rod.run(iterations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    #[test]
    fn sequential_diffusion_converges_to_linear_profile() {
        // With fixed halos 0 and 1 (at virtual positions -1 and n), the
        // steady state is the linear profile u_i = (i + 1) / (n + 1).
        let out = solve_sequential(8, 0.5, 0.0, 1.0, 2_000);
        for (i, v) in out.iter().enumerate() {
            let expect = (i as f64 + 1.0) / 9.0;
            assert!((v - expect).abs() < 1e-6, "cell {i}: {v} vs {expect}");
        }
    }

    #[test]
    fn heartbeat_matches_sequential() {
        let reference = solve_sequential(24, 0.0, 1.0, 3.0, 50);
        for workers in [1usize, 2, 3, 4] {
            let got = solve_heartbeat(24, 0.0, 1.0, 3.0, 50, workers).unwrap();
            assert!(close(&got, &reference), "workers={workers}");
        }
    }

    #[test]
    fn heartbeat_concurrent_matches() {
        let reference = solve_sequential(32, 0.0, 2.0, -1.0, 30);
        // 40 workers on 32 cells: clamped to one block a cell, as sequentially.
        for workers in [1usize, 2, 4, 40] {
            let got = solve_heartbeat_concurrent(32, 0.0, 2.0, -1.0, 30, workers).unwrap();
            assert!(close(&got, &reference), "workers={workers}");
        }
    }

    #[test]
    fn uneven_block_sizes_are_handled() {
        // 10 cells over 3 workers: blocks of 4, 3, 3.
        let reference = solve_sequential(10, 0.0, 5.0, 5.0, 25);
        let got = solve_heartbeat(10, 0.0, 5.0, 5.0, 25, 3).unwrap();
        assert!(close(&got, &reference));
    }

    #[test]
    fn zero_iterations_returns_initial_state() {
        let got = solve_heartbeat(6, 0.25, 0.0, 0.0, 0, 2).unwrap();
        assert_eq!(got, vec![0.25; 6]);
    }

    #[test]
    fn rod_edges_and_snapshot() {
        let mut rod = Rod::new(4, 1.0, 9.0, 9.0);
        assert_eq!(rod.edges(), (1.0, 1.0));
        assert_eq!(rod.snapshot(), vec![1.0; 4]);
        rod.set_halos(2.0, 4.0);
        rod.step();
        assert_eq!(rod.cells()[0], 1.5); // (2.0 + 1.0)/2
        assert_eq!(rod.cells()[3], 2.5); // (1.0 + 4.0)/2
                                         // NaN keeps a side.
        rod.set_halos(f64::NAN, 6.0);
        rod.set_halos(f64::NAN, f64::NAN);
        assert_eq!((rod.left_halo, rod.right_halo), (2.0, 6.0));
        rod.set_halos(8.0, f64::NAN);
        assert_eq!((rod.left_halo, rod.right_halo), (8.0, 6.0));
    }
}
