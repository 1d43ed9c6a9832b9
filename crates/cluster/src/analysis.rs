//! Trace analysis independent of any cluster: critical path and work bounds.
//!
//! These are the invariants the property tests pin the simulator against:
//! no schedule can beat the critical path, and no schedule can beat total
//! work divided by total cores.

use std::time::Duration;

use weavepar_weave::trace::TraceGraph;

use crate::config::SimParams;

/// Length of the longest dependency chain (`after` + `parent` edges) through
/// the trace, in seconds of task cost. Communication-free lower bound on any
/// replay's makespan at `cpu_speed == 1`, `cpu_inflation == 1`.
pub fn critical_path(trace: &TraceGraph) -> f64 {
    // Tasks are id-ordered and edges always point to smaller ids, so one
    // forward pass suffices.
    let mut finish = vec![0.0f64; trace.len()];
    for t in &trace.tasks {
        let i = t.id.raw() as usize;
        let mut ready = 0.0f64;
        if let Some(a) = t.after {
            ready = ready.max(finish[a.raw() as usize]);
        }
        if let Some(p) = t.parent {
            // A child cannot start before its parent started; the parent's
            // start is its finish minus its own cost.
            let pi = p.raw() as usize;
            let p_cost = trace.tasks[pi].cost.as_secs_f64();
            ready = ready.max(finish[pi] - p_cost);
        }
        finish[i] = ready + t.cost.as_secs_f64();
    }
    finish.into_iter().fold(0.0, f64::max)
}

/// The greatest communication-free lower bound on the makespan of replaying
/// `trace` under `params`: max(critical path, total work / total cores),
/// scaled by the params' CPU model.
pub fn lower_bound(trace: &TraceGraph, params: &SimParams) -> f64 {
    let scale = params.cpu_inflation / params.cluster.cpu_speed.max(1e-12);
    let work = trace.total_cost().as_secs_f64() * scale;
    let cores = params.cluster.total_cores().max(1) as f64;
    let cp = critical_path(trace) * scale;
    cp.max(work / cores)
}

/// Convenience: total recorded work as a `Duration`.
pub fn total_work(trace: &TraceGraph) -> Duration {
    trace.total_cost()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, MiddlewareProfile, Placement};
    use weavepar_weave::trace::{TaskId, TaskRecord};
    use weavepar_weave::{ObjId, Signature};

    fn task(id: u64, parent: Option<u64>, after: Option<u64>, cost_ms: u64) -> TaskRecord {
        TaskRecord {
            id: TaskId::from_raw(id),
            parent: parent.map(TaskId::from_raw),
            after: after.map(TaskId::from_raw),
            signature: Signature::new("T", "m"),
            target: Some(ObjId::from_raw(id)),
            async_spawn: true,
            issuer: 0,
            args_bytes: 0,
            ret_bytes: 0,
            cost: Duration::from_millis(cost_ms),
            seq: id,
        }
    }

    #[test]
    fn empty_trace_bounds() {
        let g = TraceGraph::default();
        assert_eq!(critical_path(&g), 0.0);
    }

    #[test]
    fn independent_tasks_cp_is_max() {
        let g = TraceGraph { tasks: vec![task(0, None, None, 100), task(1, None, None, 300)] };
        assert!((critical_path(&g) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn chain_cp_is_sum() {
        let g = TraceGraph {
            tasks: vec![
                task(0, None, None, 100),
                task(1, None, Some(0), 100),
                task(2, None, Some(1), 100),
            ],
        };
        assert!((critical_path(&g) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn parent_edges_count_from_parent_start() {
        // Child issued inside the parent overlaps it entirely.
        let g = TraceGraph { tasks: vec![task(0, None, None, 100), task(1, Some(0), None, 50)] };
        assert!((critical_path(&g) - 0.1).abs() < 1e-9);
        // A long child extends past the parent.
        let g = TraceGraph { tasks: vec![task(0, None, None, 100), task(1, Some(0), None, 500)] };
        assert!((critical_path(&g) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lower_bound_uses_cores() {
        let g = TraceGraph { tasks: (0..8).map(|i| task(i, None, None, 100)).collect() };
        let params = SimParams {
            cluster: ClusterConfig {
                nodes: 1,
                cores_per_node: 2,
                link_latency: 0.0,
                bandwidth: f64::INFINITY,
                cpu_speed: 1.0,
            },
            middleware: MiddlewareProfile::local(),
            placement: Placement::AllOn(0),
            client_node: 0,
            cpu_inflation: 1.0,
        };
        // 0.8 s of work on 2 cores: bound 0.4 s (critical path only 0.1 s).
        assert!((lower_bound(&g, &params) - 0.4).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::{ClusterConfig, MiddlewareProfile, Placement, SimParams};
    use crate::sim::simulate;
    use proptest::prelude::*;
    use weavepar_weave::trace::{TaskId, TaskRecord};
    use weavepar_weave::{ObjId, Signature};

    #[derive(Debug, Clone)]
    struct RandTask {
        after_offset: Option<u64>,
        target: u64,
        cost_ms: u64,
        async_spawn: bool,
        bytes: usize,
    }

    fn arb_trace() -> impl Strategy<Value = TraceGraph> {
        proptest::collection::vec(
            (proptest::option::of(1u64..4), 0u64..6, 0u64..50, proptest::bool::ANY, 0usize..10_000)
                .prop_map(|(after_offset, target, cost_ms, async_spawn, bytes)| RandTask {
                    after_offset,
                    target,
                    cost_ms,
                    async_spawn,
                    bytes,
                }),
            0..40,
        )
        .prop_map(|list| {
            let tasks = list
                .into_iter()
                .enumerate()
                .map(|(i, rt)| {
                    let id = i as u64;
                    let after = rt
                        .after_offset
                        .and_then(|off| id.checked_sub(off))
                        .filter(|_| id > 0)
                        .map(TaskId::from_raw);
                    TaskRecord {
                        id: TaskId::from_raw(id),
                        parent: None,
                        after,
                        signature: Signature::new("T", "m"),
                        target: Some(ObjId::from_raw(rt.target)),
                        async_spawn: rt.async_spawn,
                        issuer: 0,
                        args_bytes: rt.bytes,
                        ret_bytes: 0,
                        cost: Duration::from_millis(rt.cost_ms),
                        seq: id,
                    }
                })
                .collect();
            TraceGraph { tasks }
        })
    }

    fn arb_params() -> impl Strategy<Value = SimParams> {
        (1usize..5, 1usize..5, 0u32..3, prop_oneof![Just(0), Just(1), Just(2)]).prop_map(
            |(nodes, cores, mw, _)| {
                let middleware = match mw {
                    0 => MiddlewareProfile::local(),
                    1 => MiddlewareProfile::mpp(),
                    _ => MiddlewareProfile::rmi(),
                };
                SimParams {
                    cluster: ClusterConfig {
                        nodes,
                        cores_per_node: cores,
                        link_latency: 50e-6,
                        bandwidth: 1e8,
                        cpu_speed: 1.0,
                    },
                    middleware,
                    placement: Placement::RoundRobin { nodes },
                    client_node: 0,
                    cpu_inflation: 1.0,
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The schedule never beats the communication-free lower bound.
        #[test]
        fn makespan_respects_lower_bound(trace in arb_trace(), params in arb_params()) {
            let r = simulate(&trace, &params);
            prop_assert!(r.makespan + 1e-9 >= lower_bound(&trace, &params),
                "makespan {} < bound {}", r.makespan, lower_bound(&trace, &params));
        }

        /// Every task executes; busy time equals total work plus receive
        /// overheads (per-call demarshalling CPU plus per-byte marshalling).
        #[test]
        fn work_conservation(trace in arb_trace(), params in arb_params()) {
            let r = simulate(&trace, &params);
            prop_assert_eq!(r.tasks, trace.len());
            let busy: f64 = r.busy.iter().sum();
            let min_work = trace.total_cost().as_secs_f64();
            prop_assert!(busy + 1e-9 >= min_work);
            let max_overhead = trace
                .tasks
                .iter()
                .map(|t| params.middleware.recv_cpu + params.middleware.marshal_cpu(t.args_bytes))
                .sum::<f64>();
            prop_assert!(busy <= min_work + max_overhead + 1e-9);
        }

        /// Replay is deterministic.
        #[test]
        fn determinism(trace in arb_trace(), params in arb_params()) {
            prop_assert_eq!(simulate(&trace, &params), simulate(&trace, &params));
        }

        /// Adding nodes (with round-robin placement) never *increases* the
        /// total amount of work executed, and utilisation stays in [0, 1].
        #[test]
        fn utilization_is_a_fraction(trace in arb_trace(), params in arb_params()) {
            let r = simulate(&trace, &params);
            let u = r.utilization(params.cluster.total_cores());
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        }

        /// Communication-free single-node replays: middleware constants are
        /// irrelevant, so MPP and RMI coincide exactly (no Graham anomalies
        /// are possible without messages).
        #[test]
        fn middleware_is_irrelevant_on_one_node(trace in arb_trace()) {
            let mk = |mw: MiddlewareProfile| SimParams {
                cluster: ClusterConfig { nodes: 1, cores_per_node: 3, link_latency: 0.0, bandwidth: f64::INFINITY, cpu_speed: 1.0 },
                middleware: mw,
                placement: Placement::AllOn(0),
                client_node: 0,
                cpu_inflation: 1.0,
            };
            let a = simulate(&trace, &mk(MiddlewareProfile::mpp()));
            let b = simulate(&trace, &mk(MiddlewareProfile::rmi()));
            prop_assert_eq!(a, b);
        }
    }
}
