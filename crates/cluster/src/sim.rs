//! The discrete-event replay engine.
//!
//! ## Replay semantics
//!
//! The trace is a DAG of *tasks* (base method executions) with three kinds of
//! ordering constraints, all of which were true of the recorded execution:
//!
//! 1. **Client order** — tasks with no parent were issued by the client
//!    (`main`) in `seq` order. A synchronous root blocks the client until its
//!    completion (plus the reply transfer); an asynchronous root only costs
//!    the client the send overhead.
//! 2. **`after` edges** — the task was issued by a logical flow on which the
//!    `after` task had already completed (pipeline forwarding). The
//!    arguments travel as a message from the `after` task's node.
//! 3. **`parent` edges** — the task was issued from within the parent's
//!    method body; it cannot become ready before the parent started.
//!
//! Tasks execute on one core of the node hosting their target object; tasks
//! sharing a target serialise (per-object monitors). Cross-node messages pay
//! `middleware.send_cpu` on the sender, `call_latency + link_latency +
//! bytes/bandwidth` in flight, and `middleware.recv_cpu` on the receiver's
//! core before the task body.
//!
//! The engine pops ready tasks in `(ready_time, seq)` order, which yields a
//! deterministic FIFO schedule: ready times only ever resolve to values no
//! smaller than the ready time of the task whose completion resolved them, so
//! the pop sequence is monotone in time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use weavepar_weave::trace::{TaskId, TraceGraph};
use weavepar_weave::ObjId;

use crate::config::{FaultTimeline, SimParams};
use crate::report::SimReport;

/// Total-ordered f64 for use in heaps (simulation times are finite and
/// non-negative).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

struct Engine<'a> {
    trace: &'a TraceGraph,
    params: &'a SimParams,
    node_of_task: Vec<usize>,
    cost_of_task: Vec<f64>,
    // Constraint bookkeeping.
    client_ready: Vec<Option<f64>>,
    after_ready: Vec<Option<f64>>,
    parent_ready: Vec<Option<f64>>,
    needs_client: Vec<bool>,
    pushed: Vec<bool>,
    recv_extra: Vec<f64>,
    waiting_on_after: HashMap<TaskId, Vec<TaskId>>,
    waiting_on_parent: HashMap<TaskId, Vec<TaskId>>,
    child_rank: Vec<usize>,
    // Engine state.
    ready_heap: BinaryHeap<Reverse<(Time, u64, u64)>>,
    core_free: Vec<BinaryHeap<Reverse<Time>>>,
    // One marshalling/send pipe per node: cross-node sends from the same
    // node serialise (one CPU+NIC funnel), which is where heavyweight
    // serialisation actually hurts a client fanning out many packs.
    sender_free: Vec<f64>,
    object_free: HashMap<ObjId, f64>,
    start: Vec<Option<f64>>,
    end: Vec<Option<f64>>,
    busy: Vec<f64>,
    messages: usize,
    bytes: usize,
    // Failure model (None = faithful cluster).
    faults: Option<&'a FaultTimeline>,
    redispatched: usize,
    client_clock: f64,
    client_blocked_on: Option<TaskId>,
    roots: Vec<TaskId>,
    next_root: usize,
}

/// Interval between consecutive issues from the same parent task, seconds.
/// Models the (small) cost of the aspect code that loops issuing calls.
const ISSUE_STAGGER: f64 = 1e-6;

impl<'a> Engine<'a> {
    fn new(trace: &'a TraceGraph, params: &'a SimParams) -> Self {
        let n = trace.len();
        let node_of_task: Vec<usize> = trace
            .tasks
            .iter()
            .map(|t| t.target.map(|o| params.placement.node_of(o)).unwrap_or(params.client_node))
            .collect();
        let speed = params.cluster.cpu_speed.max(1e-12);
        let cost_of_task: Vec<f64> = trace
            .tasks
            .iter()
            .map(|t| t.cost.as_secs_f64() * params.cpu_inflation / speed)
            .collect();

        let main_thread = trace.main_thread().unwrap_or(0);
        let mut waiting_on_after: HashMap<TaskId, Vec<TaskId>> = HashMap::new();
        let mut waiting_on_parent: HashMap<TaskId, Vec<TaskId>> = HashMap::new();
        let mut child_counter: HashMap<TaskId, usize> = HashMap::new();
        let mut child_rank = vec![0usize; n];
        let mut roots = Vec::new();
        for t in &trace.tasks {
            if let Some(a) = t.after {
                waiting_on_after.entry(a).or_default().push(t.id);
            }
            if let Some(p) = t.parent {
                waiting_on_parent.entry(p).or_default().push(t.id);
                let rank = child_counter.entry(p).or_insert(0);
                child_rank[t.id.raw() as usize] = *rank;
                *rank += 1;
            } else if t.issuer == main_thread {
                // Issued by the client's main thread: sequenced by the
                // client timeline.
                roots.push(t.id);
            }
        }
        roots.sort_by_key(|id| trace.get(*id).map(|t| t.seq).unwrap_or(u64::MAX));

        let cores = params.cluster.cores_per_node.max(1);
        let core_free = (0..params.cluster.nodes.max(1))
            .map(|_| (0..cores).map(|_| Reverse(Time(0.0))).collect())
            .collect();

        Engine {
            trace,
            params,
            node_of_task,
            cost_of_task,
            client_ready: vec![None; n],
            after_ready: vec![None; n],
            parent_ready: vec![None; n],
            needs_client: trace
                .tasks
                .iter()
                .map(|t| t.parent.is_none() && t.issuer == main_thread)
                .collect(),
            pushed: vec![false; n],
            recv_extra: vec![0.0; n],
            waiting_on_after,
            waiting_on_parent,
            child_rank,
            ready_heap: BinaryHeap::new(),
            core_free,
            sender_free: vec![0.0; params.cluster.nodes.max(1)],
            object_free: HashMap::new(),
            start: vec![None; n],
            end: vec![None; n],
            busy: vec![0.0; params.cluster.nodes.max(1)],
            messages: 0,
            bytes: 0,
            faults: None,
            redispatched: 0,
            client_clock: 0.0,
            client_blocked_on: None,
            roots,
            next_root: 0,
        }
    }

    fn with_faults(mut self, faults: &'a FaultTimeline) -> Self {
        self.faults = Some(faults);
        self
    }

    /// One-way in-flight delay between nodes.
    fn hop(&self, from: usize, to: usize, bytes: usize) -> f64 {
        if from == to {
            return 0.0;
        }
        let c = &self.params.cluster;
        let m = &self.params.middleware;
        let transfer = if c.bandwidth.is_finite() { bytes as f64 / c.bandwidth } else { 0.0 };
        m.call_latency + c.link_latency + transfer
    }

    fn idx(&self, id: TaskId) -> usize {
        id.raw() as usize
    }

    /// Occupy `from`'s send pipe for a cross-node message of `bytes`,
    /// starting no earlier than `earliest`; returns the send completion time
    /// (when the message is on the wire). No-op for local delivery.
    fn send_slot(&mut self, from: usize, to: usize, earliest: f64, bytes: usize) -> f64 {
        if from == to {
            return earliest;
        }
        let cost = self.params.middleware.send_cpu + self.params.middleware.marshal_cpu(bytes);
        let start = earliest.max(self.sender_free[from]);
        let end = start + cost;
        self.sender_free[from] = end;
        end
    }

    /// Push `id` to the ready heap once all its constraints are resolved.
    fn maybe_push(&mut self, id: TaskId) {
        let i = self.idx(id);
        if self.pushed[i] {
            return;
        }
        let t = &self.trace.tasks[i];
        if self.needs_client[i] && self.client_ready[i].is_none() {
            return;
        }
        if t.after.is_some() && self.after_ready[i].is_none() {
            return;
        }
        if t.parent.is_some() && self.parent_ready[i].is_none() {
            return;
        }
        let ready = self.client_ready[i]
            .into_iter()
            .chain(self.after_ready[i])
            .chain(self.parent_ready[i])
            .fold(0.0f64, f64::max);
        self.pushed[i] = true;
        self.ready_heap.push(Reverse((Time(ready), t.seq, id.raw())));
    }

    /// Record a message (or local call) from `from` delivering `bytes` for
    /// task `i`; returns the delay and marks cross-node receive overhead.
    fn deliver(&mut self, from: usize, id: TaskId, bytes: usize) -> f64 {
        let i = self.idx(id);
        let to = self.node_of_task[i];
        if from != to {
            self.messages += 1;
            self.bytes += bytes;
            self.recv_extra[i] =
                self.params.middleware.recv_cpu + self.params.middleware.marshal_cpu(bytes);
        }
        self.hop(from, to, bytes)
    }

    /// Let the client issue roots until it blocks or runs out.
    fn client_issue(&mut self) {
        while self.client_blocked_on.is_none() && self.next_root < self.roots.len() {
            let id = self.roots[self.next_root];
            let i = self.idx(id);
            let to = self.node_of_task[i];
            let t = &self.trace.tasks[i];
            let (async_spawn, args_bytes) = (t.async_spawn, t.args_bytes);
            let from = self.params.client_node;
            self.next_root += 1;
            let sent = self.send_slot(from, to, self.client_clock, args_bytes);
            self.client_clock = sent;
            let delay = self.deliver(from, id, args_bytes);
            self.client_ready[i] = Some(self.client_clock + delay);
            self.maybe_push(id);
            if !async_spawn {
                self.client_blocked_on = Some(id);
            }
        }
    }

    /// Schedule the next ready task; returns false when the heap is empty.
    fn step(&mut self) -> bool {
        let Some(Reverse((Time(mut ready), _seq, raw))) = self.ready_heap.pop() else {
            return false;
        };
        let id = TaskId::from_raw(raw);
        let i = self.idx(id);
        let mut node = self.node_of_task[i];
        // Node-failure model: a task that cannot finish on its node before
        // that node's crash is re-dispatched to the next survivor — the
        // replay analogue of the supervisor aspect's recovery. A task that
        // completes before the crash keeps its result (checkpointing is at
        // task granularity, like the supervisor's per-pack checkpoints).
        if let Some(ft) = self.faults {
            let nodes = self.params.cluster.nodes.max(1);
            let args_bytes = self.trace.tasks[i].args_bytes;
            let obj_at = self.trace.tasks[i]
                .target
                .and_then(|o| self.object_free.get(&o))
                .copied()
                .unwrap_or(0.0);
            // Bounded walk: a never-failing node always terminates it
            // (`simulate_with_faults` rejects all-dead timelines).
            for _ in 0..=nodes {
                let Some(at) = ft.down_since(node) else { break };
                let core_at = self.core_free[node].peek().map(|r| r.0 .0).unwrap_or(0.0);
                let start = ready.max(core_at).max(obj_at);
                if start + self.cost_of_task[i] + self.recv_extra[i] <= at {
                    break;
                }
                // Lost in flight (or queued on an already-dead node): the
                // loss is detected at the crash — immediately if the node
                // was already down — and the arguments are re-shipped from
                // the client's node to the next surviving node.
                let detect = ready.max(at);
                let Some(alt) = ft.next_alive(node, nodes, detect) else { break };
                self.redispatched += 1;
                self.messages += 1;
                self.bytes += args_bytes;
                ready = detect
                    + ft.redispatch_overhead
                    + self.hop(self.params.client_node, alt, args_bytes);
                node = alt;
                self.node_of_task[i] = alt;
            }
        }
        let t = &self.trace.tasks[i];

        let Reverse(Time(core_at)) = self.core_free[node].pop().expect("node has cores");
        let obj_at = t.target.and_then(|o| self.object_free.get(&o)).copied().unwrap_or(0.0);
        let start = ready.max(core_at).max(obj_at);
        let mut duration = self.cost_of_task[i];
        duration += self.recv_extra[i];
        let end = start + duration;
        self.core_free[node].push(Reverse(Time(end)));
        if let Some(o) = t.target {
            self.object_free.insert(o, end);
        }
        self.busy[node] += duration;
        self.start[i] = Some(start);
        self.end[i] = Some(end);

        // Resolve dependents whose constraint was this task's *start*.
        if let Some(children) = self.waiting_on_parent.remove(&id) {
            for child in children {
                let ci = self.idx(child);
                let c = &self.trace.tasks[ci];
                let stagger = (self.child_rank[ci] + 1) as f64 * ISSUE_STAGGER;
                let (to, args_bytes) = (self.node_of_task[ci], c.args_bytes);
                let sent = self.send_slot(node, to, start + stagger, args_bytes);
                let delay = self.deliver(node, child, args_bytes);
                self.parent_ready[ci] = Some(sent + delay);
                self.maybe_push(child);
            }
        }
        // Resolve dependents whose constraint was this task's *end*.
        if let Some(deps) = self.waiting_on_after.remove(&id) {
            for dep in deps {
                let di = self.idx(dep);
                let d = &self.trace.tasks[di];
                // The arguments travel with the *issuer* flow: only a
                // worker-issued task with no parent actually received its
                // message from here (pipeline forwarding); for client- or
                // parent-issued tasks the after edge is purely temporal.
                let carries_message = !self.needs_client[di] && d.parent.is_none();
                if carries_message {
                    let (to, args_bytes) = (self.node_of_task[di], d.args_bytes);
                    let sent = self.send_slot(node, to, end, args_bytes);
                    let delay = self.deliver(node, dep, args_bytes);
                    self.after_ready[di] = Some(sent + delay);
                } else {
                    self.after_ready[di] = Some(end);
                }
                self.maybe_push(dep);
            }
        }
        // Unblock the client when its synchronous call returns.
        if self.client_blocked_on == Some(id) {
            let cross = node != self.params.client_node;
            let mut resume = end;
            if cross {
                self.messages += 1;
                self.bytes += t.ret_bytes;
                resume += self.hop(node, self.params.client_node, t.ret_bytes)
                    + self.params.middleware.recv_cpu
                    + 2.0 * self.params.middleware.marshal_cpu(t.ret_bytes);
            }
            self.client_clock = self.client_clock.max(resume);
            self.client_blocked_on = None;
        }
        true
    }

    fn run(mut self) -> (SimReport, Schedule) {
        // Worker-issued tasks with no recorded predecessor (e.g. packs issued
        // by a split advice running in a spawned thread): issued near time
        // zero from the client's node, staggered by issue order.
        for i in 0..self.trace.len() {
            let t = &self.trace.tasks[i];
            if !self.needs_client[i] && t.parent.is_none() && t.after.is_none() {
                let id = t.id;
                let floor = t.seq as f64 * ISSUE_STAGGER;
                let (to, args_bytes) = (self.node_of_task[i], t.args_bytes);
                let sent = self.send_slot(self.params.client_node, to, floor, args_bytes);
                let delay = self.deliver(self.params.client_node, id, args_bytes);
                self.client_ready[i] = Some(sent + delay);
                self.maybe_push(id);
            }
        }
        loop {
            self.client_issue();
            if !self.step() {
                break;
            }
        }
        debug_assert!(
            self.start.iter().all(Option::is_some) || self.trace.is_empty(),
            "trace contains tasks whose constraints never resolved"
        );
        let makespan = self.end.iter().flatten().copied().fold(self.client_clock, f64::max);
        let entries = self
            .trace
            .tasks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                Some(ScheduledTask {
                    id: t.id,
                    signature: t.signature,
                    node: self.node_of_task[i],
                    start: self.start[i]?,
                    end: self.end[i]?,
                })
            })
            .collect();
        let report = SimReport {
            makespan,
            total_work: self.cost_of_task.iter().sum(),
            busy: self.busy,
            messages: self.messages,
            bytes: self.bytes,
            tasks: self.trace.len(),
            redispatched: self.redispatched,
            client_done: self.client_clock,
        };
        (report, Schedule { entries })
    }
}

/// When and where one task executed in a replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledTask {
    /// The task.
    pub id: TaskId,
    /// Its join-point signature.
    pub signature: weavepar_weave::Signature,
    /// Node it executed on.
    pub node: usize,
    /// Virtual start time, seconds.
    pub start: f64,
    /// Virtual end time, seconds.
    pub end: f64,
}

/// The full schedule of a replay, in task-id order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// One entry per executed task.
    pub entries: Vec<ScheduledTask>,
}

impl Schedule {
    /// Entries executed on `node`, in start order.
    pub fn on_node(&self, node: usize) -> Vec<ScheduledTask> {
        let mut v: Vec<ScheduledTask> =
            self.entries.iter().copied().filter(|e| e.node == node).collect();
        v.sort_by(|a, b| a.start.total_cmp(&b.start));
        v
    }

    /// A compact per-node text timeline (debugging aid).
    pub fn render(&self, nodes: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for node in 0..nodes {
            let entries = self.on_node(node);
            let _ = write!(out, "node {node}: ");
            for e in entries.iter().take(12) {
                let _ = write!(out, "[{} {:.3}-{:.3}] ", e.id, e.start, e.end);
            }
            if entries.len() > 12 {
                let _ = write!(out, "... ({} tasks)", entries.len());
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Replay `trace` under `params` and report the virtual schedule.
pub fn simulate(trace: &TraceGraph, params: &SimParams) -> SimReport {
    Engine::new(trace, params).run().0
}

/// Like [`simulate`], additionally returning the per-task [`Schedule`].
pub fn simulate_schedule(trace: &TraceGraph, params: &SimParams) -> (SimReport, Schedule) {
    Engine::new(trace, params).run()
}

/// Replay `trace` under `params` with a node-failure schedule: every task
/// that cannot finish on its node before the node's crash is re-dispatched
/// to the next surviving node, paying the timeline's detection/recovery
/// overhead plus a fresh argument shipment (see
/// [`FaultTimeline`]). The report's
/// `redispatched` counts those recoveries.
///
/// Fails if the timeline eventually kills every node — with nobody left to
/// re-dispatch onto, the replay could not complete.
pub fn simulate_with_faults(
    trace: &TraceGraph,
    params: &SimParams,
    faults: &FaultTimeline,
) -> weavepar_weave::WeaveResult<SimReport> {
    let nodes = params.cluster.nodes.max(1);
    if (0..nodes).all(|n| faults.down_since(n).is_some()) {
        return Err(weavepar_weave::WeaveError::remote(
            "fault timeline kills every node; no survivor to re-dispatch onto",
        ));
    }
    Ok(Engine::new(trace, params).with_faults(faults).run().0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, FaultTimeline, MiddlewareProfile, Placement};
    use std::time::Duration;
    use weavepar_weave::trace::TaskRecord;
    use weavepar_weave::Signature;

    /// Test-side builder for synthetic traces.
    pub(crate) struct TraceBuilder {
        tasks: Vec<TaskRecord>,
    }

    impl TraceBuilder {
        pub fn new() -> Self {
            TraceBuilder { tasks: Vec::new() }
        }

        #[allow(clippy::too_many_arguments)]
        pub fn task_with_issuer(
            &mut self,
            parent: Option<u64>,
            after: Option<u64>,
            target: u64,
            cost_ms: u64,
            async_spawn: bool,
            args_bytes: usize,
            issuer: u64,
        ) -> u64 {
            let id = self.tasks.len() as u64;
            self.tasks.push(TaskRecord {
                id: TaskId::from_raw(id),
                parent: parent.map(TaskId::from_raw),
                after: after.map(TaskId::from_raw),
                signature: Signature::new("T", "m"),
                target: Some(ObjId::from_raw(target)),
                async_spawn,
                issuer,
                args_bytes,
                ret_bytes: 0,
                cost: Duration::from_millis(cost_ms),
                seq: id,
            });
            id
        }

        /// Client-issued task (issuer = main thread 0).
        #[allow(clippy::too_many_arguments)]
        pub fn task(
            &mut self,
            parent: Option<u64>,
            after: Option<u64>,
            target: u64,
            cost_ms: u64,
            async_spawn: bool,
            args_bytes: usize,
        ) -> u64 {
            self.task_with_issuer(parent, after, target, cost_ms, async_spawn, args_bytes, 0)
        }

        /// Worker-issued forwarded task (pipeline hop).
        pub fn forwarded(
            &mut self,
            after: u64,
            target: u64,
            cost_ms: u64,
            args_bytes: usize,
        ) -> u64 {
            self.task_with_issuer(None, Some(after), target, cost_ms, true, args_bytes, 1)
        }

        pub fn build(self) -> TraceGraph {
            TraceGraph { tasks: self.tasks }
        }
    }

    fn local_params(nodes: usize, cores: usize) -> SimParams {
        SimParams {
            cluster: ClusterConfig {
                nodes,
                cores_per_node: cores,
                link_latency: 0.0,
                bandwidth: f64::INFINITY,
                cpu_speed: 1.0,
            },
            middleware: MiddlewareProfile::local(),
            placement: Placement::RoundRobin { nodes },
            client_node: 0,
            cpu_inflation: 1.0,
        }
    }

    #[test]
    fn empty_trace_is_instant() {
        let r = simulate(&TraceGraph::default(), &local_params(1, 1));
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.tasks, 0);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn sequential_sync_roots_add_up() {
        let mut b = TraceBuilder::new();
        for _ in 0..3 {
            b.task(None, None, 0, 100, false, 0);
        }
        let r = simulate(&b.build(), &local_params(1, 4));
        assert!((r.makespan - 0.3).abs() < 1e-6, "sync roots must serialise: {}", r.makespan);
    }

    #[test]
    fn async_roots_on_distinct_objects_run_in_parallel() {
        let mut b = TraceBuilder::new();
        for o in 0..4 {
            b.task(None, None, o, 100, true, 0);
        }
        let r = simulate(&b.build(), &local_params(1, 4));
        assert!(r.makespan < 0.11, "async roots must overlap: {}", r.makespan);
    }

    #[test]
    fn same_object_serialises_despite_async() {
        let mut b = TraceBuilder::new();
        for _ in 0..4 {
            b.task(None, None, 7, 100, true, 0);
        }
        let r = simulate(&b.build(), &local_params(1, 4));
        assert!((r.makespan - 0.4).abs() < 1e-3, "monitor must serialise: {}", r.makespan);
    }

    #[test]
    fn core_limit_caps_parallelism() {
        let mut b = TraceBuilder::new();
        for o in 0..8 {
            b.task(None, None, o, 100, true, 0);
        }
        // 8 × 100 ms of work on 2 cores ⇒ at least 400 ms.
        let r = simulate(&b.build(), &local_params(1, 2));
        assert!(r.makespan >= 0.4 - 1e-9, "2 cores can't do 0.8s of work in {}", r.makespan);
        assert!(r.makespan < 0.45);
    }

    #[test]
    fn after_chain_forms_a_pipeline() {
        // Two packs flowing through a 2-stage pipeline (objects 0, 1):
        // pack A: t0 on obj0, then t1 on obj1 (after t0)
        // pack B: t2 on obj0, then t3 on obj1 (after t2)
        let mut b = TraceBuilder::new();
        let t0 = b.task(None, None, 0, 100, true, 0);
        let _t1 = b.forwarded(t0, 1, 100, 0);
        let t2 = b.task(None, None, 0, 100, true, 0);
        let _t3 = b.forwarded(t2, 1, 100, 0);
        let r = simulate(&b.build(), &local_params(1, 4));
        // Ideal pipeline: stage overlap ⇒ 300 ms, not 400.
        assert!((r.makespan - 0.3).abs() < 1e-3, "pipeline should overlap: {}", r.makespan);
    }

    #[test]
    fn cross_node_messages_cost_latency_and_bandwidth() {
        let mut b = TraceBuilder::new();
        let t0 = b.task(None, None, 0, 0, true, 0);
        b.forwarded(t0, 1, 0, 1_000_000);
        let trace = b.build();
        let mut p = SimParams {
            cluster: ClusterConfig {
                nodes: 2,
                cores_per_node: 1,
                link_latency: 0.001,
                bandwidth: 1e6,
                cpu_speed: 1.0,
            },
            middleware: MiddlewareProfile {
                name: "t",
                send_cpu: 0.0,
                recv_cpu: 0.0,
                call_latency: 0.0,
                ser_bandwidth: f64::INFINITY,
            },
            placement: Placement::RoundRobin { nodes: 2 },
            client_node: 0,
            cpu_inflation: 1.0,
        };
        let r = simulate(&trace, &p);
        // 1 MB at 1 MB/s + 1 ms latency ≈ 1.001 s.
        assert!((r.makespan - 1.001).abs() < 1e-6, "{}", r.makespan);
        assert_eq!(r.messages, 1);
        assert_eq!(r.bytes, 1_000_000);

        // Same trace on one node: free.
        p.placement = Placement::AllOn(0);
        let r = simulate(&trace, &p);
        assert!(r.makespan < 1e-9);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn middleware_overheads_apply_per_call() {
        let mut b = TraceBuilder::new();
        b.task(None, None, 1, 0, false, 100);
        let params = SimParams {
            cluster: ClusterConfig {
                nodes: 2,
                cores_per_node: 1,
                link_latency: 0.0,
                bandwidth: f64::INFINITY,
                cpu_speed: 1.0,
            },
            middleware: MiddlewareProfile {
                name: "t",
                send_cpu: 0.010,
                recv_cpu: 0.020,
                call_latency: 0.050,
                ser_bandwidth: f64::INFINITY,
            },
            placement: Placement::RoundRobin { nodes: 2 },
            client_node: 0,
            cpu_inflation: 1.0,
        };
        let r = simulate(&b.build(), &params);
        // send 10 ms + latency 50 ms + recv 20 ms, plus the (empty) reply:
        // latency 50 ms + client recv 20 ms ⇒ client resumes at 150 ms.
        assert!((r.client_done - 0.150).abs() < 1e-9, "{}", r.client_done);
        assert_eq!(r.messages, 2, "request and reply");
    }

    #[test]
    fn rmi_beats_mpp_never() {
        // A farm of 8 async calls to 4 remote objects; MPP must finish no
        // later than RMI under identical traces.
        let mut b = TraceBuilder::new();
        for i in 0..8 {
            b.task(None, None, 1 + (i % 4), 50, true, 10_000);
        }
        let trace = b.build();
        let mk = |mw: MiddlewareProfile| {
            let params = SimParams {
                cluster: ClusterConfig::paper_cluster(),
                middleware: mw,
                placement: Placement::RoundRobin { nodes: 5 },
                client_node: 0,
                cpu_inflation: 1.0,
            };
            simulate(&trace, &params).makespan
        };
        assert!(mk(MiddlewareProfile::mpp()) <= mk(MiddlewareProfile::rmi()));
    }

    #[test]
    fn cpu_inflation_scales_work() {
        let mut b = TraceBuilder::new();
        b.task(None, None, 0, 100, false, 0);
        let trace = b.build();
        let mut p = local_params(1, 1);
        let base = simulate(&trace, &p).makespan;
        p.cpu_inflation = 1.05;
        let inflated = simulate(&trace, &p).makespan;
        assert!((inflated / base - 1.05).abs() < 1e-9);
    }

    #[test]
    fn cpu_speed_scales_work_inversely() {
        let mut b = TraceBuilder::new();
        b.task(None, None, 0, 100, false, 0);
        let trace = b.build();
        let mut p = local_params(1, 1);
        p.cluster.cpu_speed = 2.0;
        let r = simulate(&trace, &p);
        assert!((r.makespan - 0.05).abs() < 1e-9);
    }

    #[test]
    fn parent_children_issue_during_parent() {
        let mut b = TraceBuilder::new();
        let p0 = b.task(None, None, 0, 100, true, 0);
        // Children on other objects, issued from within p0.
        b.task(Some(p0), None, 1, 100, true, 0);
        b.task(Some(p0), None, 2, 100, true, 0);
        let r = simulate(&b.build(), &local_params(1, 4));
        // Children start ~at p0's start, so everything overlaps: ~100 ms.
        assert!(r.makespan < 0.11, "{}", r.makespan);
    }

    #[test]
    fn busy_time_accounts_all_work() {
        let mut b = TraceBuilder::new();
        for o in 0..4 {
            b.task(None, None, o, 100, true, 0);
        }
        let r = simulate(&b.build(), &local_params(2, 2));
        let busy_total: f64 = r.busy.iter().sum();
        assert!((busy_total - 0.4).abs() < 1e-9);
        assert!(r.utilization(4) > 0.9);
    }

    #[test]
    fn schedule_reports_placement_and_times() {
        let mut b = TraceBuilder::new();
        let t0 = b.task(None, None, 0, 100, true, 0);
        b.task(None, None, 1, 100, true, 0);
        let trace = b.build();
        let (report, schedule) = simulate_schedule(&trace, &local_params(2, 2));
        assert_eq!(schedule.entries.len(), 2);
        assert_eq!(schedule.entries[0].id, TaskId::from_raw(t0));
        assert_eq!(schedule.entries[0].node, 0);
        assert_eq!(schedule.entries[1].node, 1);
        assert!(schedule.entries.iter().all(|e| e.end <= report.makespan + 1e-12));
        assert_eq!(schedule.on_node(0).len(), 1);
        let (a, b) = (schedule.entries[0], schedule.entries[1]);
        assert!(a.start < b.end && b.start < a.end, "both tasks overlap");
        let text = schedule.render(2);
        assert!(text.contains("node 0:"));
        assert!(text.contains("node 1:"));
    }

    #[test]
    fn peak_parallelism_respects_serialisation() {
        let mut b = TraceBuilder::new();
        for _ in 0..4 {
            b.task(None, None, 7, 50, true, 0); // same object: monitor serialises
        }
        let (_, schedule) = simulate_schedule(&b.build(), &local_params(1, 4));
        let runs = schedule.on_node(0);
        assert_eq!(runs.len(), 4);
        assert!(runs.windows(2).all(|w| w[1].start >= w[0].end), "no two tasks overlap");
    }

    fn remote_params(nodes: usize) -> SimParams {
        SimParams {
            cluster: ClusterConfig {
                nodes,
                cores_per_node: 4,
                link_latency: 0.001,
                bandwidth: 1e8,
                cpu_speed: 1.0,
            },
            middleware: MiddlewareProfile::mpp(),
            placement: Placement::RoundRobin { nodes },
            client_node: 0,
            cpu_inflation: 1.0,
        }
    }

    #[test]
    fn dead_node_tasks_are_redispatched_to_survivors() {
        // 4 async tasks on node 1 (odd targets under round-robin/2). Node 1
        // is dead from the start: everything re-dispatches to node 0 and the
        // replay still completes.
        let mut b = TraceBuilder::new();
        for k in 0..4u64 {
            b.task(None, None, 1 + 2 * k, 100, true, 0);
        }
        let trace = b.build();
        let p = local_params(2, 4);
        let ft = FaultTimeline::new().kill(1, 0.0);
        let r = simulate_with_faults(&trace, &p, &ft).unwrap();
        assert_eq!(r.redispatched, 4);
        assert!((r.busy[0] - 0.4).abs() < 1e-9, "all work landed on the survivor");
        assert_eq!(r.busy[1], 0.0, "the dead node did nothing");
        // The faithful replay is unchanged and reports zero re-dispatches.
        assert_eq!(simulate(&trace, &p).redispatched, 0);
    }

    #[test]
    fn mid_run_failure_loses_only_in_flight_work() {
        // Two 100 ms tasks serialised on one object on node 1; the node dies
        // at 150 ms. The first task's result survives (it completed before
        // the crash); the second is lost in flight and re-runs on node 0
        // after detection plus the recovery overhead.
        let mut b = TraceBuilder::new();
        b.task(None, None, 1, 100, true, 0);
        b.task(None, None, 1, 100, true, 0);
        let trace = b.build();
        let p = local_params(2, 4);
        let ft = FaultTimeline::new().kill(1, 0.15).overhead(0.01);
        let r = simulate_with_faults(&trace, &p, &ft).unwrap();
        assert_eq!(r.redispatched, 1, "only the in-flight task is lost");
        // Detection at 150 ms + 10 ms overhead + 100 ms re-run = 260 ms.
        assert!((r.makespan - 0.26).abs() < 1e-6, "{}", r.makespan);
    }

    #[test]
    fn empty_timeline_matches_faithful_replay() {
        let mut b = TraceBuilder::new();
        for i in 0..10 {
            b.task(None, None, i, 20, i % 2 == 0, 64);
        }
        let trace = b.build();
        let p = remote_params(3);
        let faithful = simulate(&trace, &p);
        let faulted = simulate_with_faults(&trace, &p, &FaultTimeline::new()).unwrap();
        assert_eq!(faithful, faulted);
    }

    #[test]
    fn all_dead_timeline_is_rejected() {
        let mut b = TraceBuilder::new();
        b.task(None, None, 0, 10, true, 0);
        let p = local_params(2, 1);
        let ft = FaultTimeline::new().kill(0, 0.0).kill(1, 5.0);
        assert!(simulate_with_faults(&b.build(), &p, &ft).is_err());
    }

    #[test]
    fn deterministic_replay() {
        let mut b = TraceBuilder::new();
        let mut prev: Option<u64> = None;
        for i in 0..20 {
            let t = b.task(None, prev, i % 5, 10 + i, i % 2 == 0, 100 * i as usize);
            prev = Some(t);
        }
        let trace = b.build();
        let p = SimParams::paper_cluster(MiddlewareProfile::rmi());
        let a = simulate(&trace, &p);
        let bb = simulate(&trace, &p);
        assert_eq!(a, bb);
    }
}
