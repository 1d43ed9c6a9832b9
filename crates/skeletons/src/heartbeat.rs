//! The heartbeat partition aspect.
//!
//! The paper's conclusion names *heartbeat* as the third strategy category it
//! developed reusable aspects for: iterative computations where, between
//! iterations, neighbouring partitions exchange updated boundary data (§4.1:
//! "in iterative applications the full data set can be initially distributed
//! into several objects in a block fashion ... Between iterations, the
//! partition code must exchange updated data among objects").
//!
//! The aspect intercepts the core's *run* call and replaces it with the
//! heartbeat driver: per iteration, an exchange phase followed by a step on
//! every worker (a barrier separates iterations). All worker interactions go
//! through the weaver, so concurrency and distribution aspects compose; the
//! driver binds its workers once per run ([`Weaver::bind`]), so the loop's
//! join points skip the object and chain look-ups while nothing is plugged,
//! unplugged or removed.

use std::sync::Arc;

use weavepar_concurrency::resolve_any;
use weavepar_weave::aspect::precedence;
use weavepar_weave::prelude::*;

use crate::common::{
    create_workers, CollectFn, ExchangeFn, IterationsFn, RankedArgsFn, WORKERS_FIELD,
};

/// Configuration of a concrete heartbeat computation.
#[derive(Clone)]
pub struct HeartbeatConfig {
    /// Weaveable class of the workers.
    pub class: &'static str,
    /// Number of block workers.
    pub workers: usize,
    /// Derive worker `rank`'s constructor arguments from the original
    /// construction's arguments.
    pub worker_args: RankedArgsFn,
    /// The core method that drives the whole computation (intercepted).
    pub run_method: &'static str,
    /// Extract the iteration count from the run call's arguments.
    pub iterations: IterationsFn,
    /// Per-iteration method invoked on every worker.
    pub step_method: &'static str,
    /// Arguments for the step call at a given iteration.
    pub step_args: Arc<dyn Fn(u64) -> WeaveResult<Args> + Send + Sync>,
    /// Boundary exchange between workers before each iteration, expressed as
    /// woven calls so distribution applies.
    pub exchange: ExchangeFn,
    /// Gather the final result from the workers.
    pub collect: CollectFn,
}

impl std::fmt::Debug for HeartbeatConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeartbeatConfig")
            .field("class", &self.class)
            .field("workers", &self.workers)
            .field("run_method", &self.run_method)
            .field("step_method", &self.step_method)
            .finish()
    }
}

impl HeartbeatConfig {
    /// Build the heartbeat partition aspect named `name` (the builder-style
    /// terminal, like the other skeleton configs):
    ///
    /// ```ignore
    /// weaver.plug(HeartbeatConfig { /* ... */ }.aspect("Partition"));
    /// ```
    pub fn aspect(self, name: impl Into<String>) -> Aspect {
        let dup = self.clone();
        let drive = self.clone();

        Aspect::named(name)
            .precedence(precedence::PARTITION)
            // Block duplication: one construction becomes `workers` block objects.
            .around(
                Pointcut::construct(self.class).and(Pointcut::within_core()),
                move |inv: &mut Invocation| {
                    let weaver = inv.weaver();
                    let ids = create_workers(
                        weaver,
                        dup.class,
                        dup.workers,
                        &dup.worker_args,
                        inv.args()?,
                    )?;
                    let first = ids[0];
                    weaver.intertype().set_field(first, WORKERS_FIELD, ids);
                    Ok(weavepar_weave::ret!(first))
                },
            )
            // The heartbeat driver replaces the core run call.
            .around(
                Pointcut::call_sig(self.class, self.run_method).and(Pointcut::within_core()),
                move |inv: &mut Invocation| {
                    let target = inv.target_required()?;
                    let workers = inv
                        .weaver()
                        .intertype()
                        .get_field::<Vec<ObjId>>(target, WORKERS_FIELD)
                        .unwrap_or_else(|| vec![target]);
                    // Worker set and aspect set are fixed for the run: weave the
                    // workers once, ahead of the loop, as AspectJ would have at
                    // compile time. `exchange`, `collect` and the steps all call
                    // through the view.
                    let weaver = inv.weaver().bind(&workers);
                    let iterations = (drive.iterations)(inv.args()?)?;
                    // One exchange buffer reused across iterations — the step
                    // phase runs every heartbeat, so a fresh Vec per iteration
                    // is avoidable hot-path allocation.
                    let mut pending = Vec::with_capacity(workers.len());
                    for iteration in 0..iterations {
                        (drive.exchange)(&weaver, &workers, iteration)?;
                        // Step phase: issue to all workers, then barrier.
                        for &worker in &workers {
                            let args = (drive.step_args)(iteration)?;
                            pending.push(weaver.invoke_call(
                                worker,
                                drive.class,
                                drive.step_method,
                                args,
                            )?);
                        }
                        for ret in pending.drain(..) {
                            resolve_any(ret)?;
                        }
                    }
                    (drive.collect)(&weaver, &workers)
                },
            )
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use weavepar_concurrency::{future_concurrency_aspect, Executor};
    use weavepar_weave::{args, value::downcast_ret};

    /// A 1-D block that relaxes towards the average of its neighbours —
    /// a miniature Jacobi worker with explicit halo cells.
    struct Block {
        cells: Vec<f64>,
        left_halo: f64,
        right_halo: f64,
    }

    weavepar_weave::weaveable! {
        class Block as BlockProxy {
            fn new(value: f64, len: u64) -> Self {
                Block { cells: vec![value; len as usize], left_halo: 0.0, right_halo: 0.0 }
            }
            fn set_halos(&mut self, left: f64, right: f64) {
                self.left_halo = left;
                self.right_halo = right;
            }
            fn edge_values(&mut self) -> (f64, f64) {
                (*self.cells.first().unwrap(), *self.cells.last().unwrap())
            }
            fn step(&mut self) {
                let mut next = self.cells.clone();
                let n = self.cells.len();
                for (i, cell) in next.iter_mut().enumerate() {
                    let left = if i == 0 { self.left_halo } else { self.cells[i - 1] };
                    let right = if i + 1 == n { self.right_halo } else { self.cells[i + 1] };
                    *cell = (left + right) / 2.0;
                }
                self.cells = next;
            }
            fn sum(&mut self) -> f64 {
                self.cells.iter().sum()
            }
            fn run(&mut self, iterations: u64) -> f64 {
                // Sequential reference semantics: a single block with fixed
                // zero halos, relaxed `iterations` times.
                for _ in 0..iterations {
                    self.step();
                }
                self.sum()
            }
        }
    }

    fn config(workers: usize) -> HeartbeatConfig {
        HeartbeatConfig {
            class: "Block",
            workers,
            worker_args: Arc::new(move |_rank, n, orig: &Args| {
                let value = *orig.get::<f64>(0)?;
                let len = *orig.get::<u64>(1)?;
                Ok(args![value, len / n as u64])
            }),
            run_method: "run",
            iterations: Arc::new(|a: &Args| Ok(*a.get::<u64>(0)?)),
            step_method: "step",
            step_args: Arc::new(|_iter| Ok(args![])),
            exchange: Arc::new(|weaver: &Weaver, workers: &[ObjId], _iter| {
                // Gather edges, then set halos (outermost halos stay 0).
                let mut edges = Vec::with_capacity(workers.len());
                for &w in workers {
                    let ret = weaver.invoke_call(w, "Block", "edge_values", args![])?;
                    edges.push(downcast_ret::<(f64, f64)>(resolve_any(ret)?)?);
                }
                for (i, &w) in workers.iter().enumerate() {
                    let left = if i == 0 { 0.0 } else { edges[i - 1].1 };
                    let right = if i + 1 == workers.len() { 0.0 } else { edges[i + 1].0 };
                    let ret = weaver.invoke_call(w, "Block", "set_halos", args![left, right])?;
                    resolve_any(ret)?;
                }
                Ok(())
            }),
            collect: Arc::new(|weaver: &Weaver, workers: &[ObjId]| {
                let mut total = 0.0;
                for &w in workers {
                    let ret = weaver.invoke_call(w, "Block", "sum", args![])?;
                    total += downcast_ret::<f64>(resolve_any(ret)?)?;
                }
                Ok(weavepar_weave::ret!(total))
            }),
        }
    }

    fn sequential_reference(value: f64, len: usize, iterations: u64) -> f64 {
        let mut b = Block::new(value, len as u64);
        b.run(iterations)
    }

    #[test]
    fn heartbeat_matches_sequential_reference() {
        for workers in [1usize, 2, 4] {
            let weaver = Weaver::new();
            weaver.plug(config(workers).aspect("Partition"));
            let b = BlockProxy::construct(&weaver, 1.0, 16).unwrap();
            assert_eq!(weaver.space().ids_of_class("Block").len(), workers);
            let got = b.run(10).unwrap();
            let want = sequential_reference(1.0, 16, 10);
            assert!((got - want).abs() < 1e-9, "workers={workers}: {got} vs sequential {want}");
        }
    }

    #[test]
    fn heartbeat_with_concurrent_steps_matches() {
        let weaver = Weaver::new();
        weaver.plug(config(4).aspect("Partition"));
        let executor = Executor::thread_per_call();
        // Only the per-iteration steps run asynchronously; the exchange
        // calls stay synchronous (they are matched by their own names).
        for a in
            future_concurrency_aspect("Concurrency", Pointcut::call("Block.step"), executor.clone())
        {
            weaver.plug(a);
        }
        let b = BlockProxy::construct(&weaver, 2.0, 32).unwrap();
        let got = b.run(8).unwrap();
        executor.wait_idle();
        let want = sequential_reference(2.0, 32, 8);
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    /// `config(workers)` whose exchange first lets `before` act on the run's
    /// weaver and worker set.
    fn config_with(
        workers: usize,
        before: impl Fn(&Weaver, &[ObjId], u64) + Send + Sync + 'static,
    ) -> HeartbeatConfig {
        let base = config(workers);
        let exchange = base.exchange.clone();
        HeartbeatConfig {
            exchange: Arc::new(move |weaver: &Weaver, workers: &[ObjId], iteration| {
                before(weaver, workers, iteration);
                exchange(weaver, workers, iteration)
            }),
            ..base
        }
    }

    #[test]
    fn an_aspect_plugged_mid_run_fires_from_the_next_join_point_on() {
        // The run's workers are bound before the loop; a plug from inside
        // the exchange of iteration `PLUG_AT` must reach that iteration's
        // steps, and an unplug at `unplug_at` must keep it from that one's.
        const WORKERS: u64 = 2;
        const ITERATIONS: u64 = 10;
        const PLUG_AT: u64 = 3;
        for (unplug_at, stepped) in [(None, ITERATIONS - PLUG_AT), (Some(7), 7 - PLUG_AT)] {
            let weaver = Weaver::new();
            let fired = Arc::new(AtomicU64::new(0));
            let token = parking_lot::Mutex::new(None);
            let counter = fired.clone();
            let toggling = config_with(WORKERS as usize, move |weaver, _, iteration| {
                if iteration == PLUG_AT {
                    let counter = counter.clone();
                    let counting = Aspect::named("Counting")
                        .before(Pointcut::call("Block.step"), move |_| {
                            counter.fetch_add(1, Ordering::Relaxed);
                            Ok(())
                        })
                        .build();
                    *token.lock() = Some(weaver.plug(counting));
                }
                if Some(iteration) == unplug_at {
                    assert!(weaver.unplug(&token.lock().take().expect("plugged earlier")));
                }
            });
            weaver.plug(toggling.aspect("Partition"));
            let b = BlockProxy::construct(&weaver, 1.0, 16).unwrap();
            let got = b.run(ITERATIONS).unwrap();
            assert_eq!(fired.load(Ordering::Relaxed), WORKERS * stepped, "unplug: {unplug_at:?}");
            assert!((got - sequential_reference(1.0, 16, ITERATIONS)).abs() < 1e-9);
        }
    }

    #[test]
    fn a_worker_removed_mid_run_is_missed_at_the_next_call_on_it() {
        const REMOVE_AT: u64 = 2;
        let weaver = Weaver::new();
        let removing = config_with(2, |weaver, workers, iteration| {
            if iteration == REMOVE_AT {
                assert!(weaver.space().remove(workers[1]));
            }
        });
        weaver.plug(removing.aspect("Partition"));
        // Counts attempts: the advice runs before the base call looks the
        // object up.
        let asked = Arc::new(AtomicU64::new(0));
        let counter = asked.clone();
        let counting = Aspect::named("Counting")
            .before(Pointcut::call("Block.edge_values"), move |_| {
                counter.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .build();
        weaver.plug(counting);
        let b = BlockProxy::construct(&weaver, 1.0, 16).unwrap();
        let workers = weaver.space().ids_of_class("Block");
        let err = b.run(10).unwrap_err();
        assert!(matches!(err, WeaveError::NoSuchObject(id) if id == workers[1]), "got {err:?}");
        // Two full exchanges, then the first worker answered once more
        // before the removed one was asked and missed.
        assert_eq!(asked.load(Ordering::Relaxed), 2 * REMOVE_AT + 2);
        assert_eq!(weaver.space().ids_of_class("Block"), vec![workers[0]]);
    }

    #[test]
    fn zero_iterations_is_identity() {
        let weaver = Weaver::new();
        weaver.plug(config(2).aspect("Partition"));
        let b = BlockProxy::construct(&weaver, 3.0, 8).unwrap();
        let got = b.run(0).unwrap();
        assert!((got - 24.0).abs() < 1e-12);
    }

    #[test]
    fn unplugged_heartbeat_runs_the_core_sequentially() {
        let weaver = Weaver::new();
        let plugged = weaver.plug(config(4).aspect("Partition"));
        weaver.unplug(&plugged);
        let b = BlockProxy::construct(&weaver, 1.0, 16).unwrap();
        assert_eq!(weaver.space().ids_of_class("Block").len(), 1);
        let got = b.run(10).unwrap();
        let want = sequential_reference(1.0, 16, 10);
        assert!((got - want).abs() < 1e-12);
    }
}
