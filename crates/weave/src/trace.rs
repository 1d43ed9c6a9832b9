//! Execution-trace recording.
//!
//! When a [`Recorder`] is installed on a [`Weaver`](crate::registry::Weaver),
//! every *base* method execution (the innermost `proceed`) is recorded as a
//! **task**: its causal parent (the task whose code issued the call), whether
//! it was reached through an asynchronous boundary
//! ([`Detached`](crate::invocation::Detached)), the approximate wire size of
//! its arguments, and its cost (wall time measured, or supplied by a [`CostModel`]).
//!
//! The resulting [`TraceGraph`] is a task DAG that `weavepar-cluster` replays
//! on a virtual cluster: synchronous edges keep the caller blocked,
//! asynchronous edges let it continue, and edges that cross a node-placement
//! boundary pay the modelled network costs. This is how the repository turns
//! *real executions of the woven code* into the paper's cluster-scale figures
//! without the authors' hardware.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::context;
use crate::object::ObjId;
use crate::signature::Signature;
use crate::value::Args;

/// Identifier of a recorded task (base method execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(u64);

/// Dense per-process ordinal of the current thread, assigned on first use and
/// stable within a run: a task's issuer tag ([`TaskRecord::issuer`]), by
/// which traces tell the client's main thread from worker threads.
#[inline]
pub fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        // Not in the weaving context: this is the thread's identity, and
        // `set_aside` must leave it where it is.
        static TAG: Cell<Option<u64>> = const { Cell::new(None) };
    }
    TAG.with(|t| match t.get() {
        Some(tag) => tag,
        None => {
            let tag = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(Some(tag));
            tag
        }
    })
}

impl TaskId {
    /// Build from a raw index (tests, simulators).
    pub fn from_raw(raw: u64) -> Self {
        TaskId(raw)
    }

    /// Raw index.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One recorded base method execution.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// Task identifier (dense, in creation order).
    pub id: TaskId,
    /// Task whose code issued this call, if any.
    pub parent: Option<TaskId>,
    /// Data dependency: a task that had *completed* on the issuing logical
    /// flow before this one was issued (e.g. the previous pipeline stage
    /// whose filtered pack this call forwards). Always a true
    /// happened-after edge.
    pub after: Option<TaskId>,
    /// Join-point signature.
    pub signature: Signature,
    /// Target object of the call, if any (constructions record the new object).
    pub target: Option<ObjId>,
    /// True when the call crossed an asynchronous boundary (the caller did not
    /// block for the result).
    pub async_spawn: bool,
    /// Thread tag of the code that *issued* the call (the join-point entry,
    /// not the executing worker). Lets replay distinguish client-issued root
    /// calls from aspect-issued ones.
    pub issuer: u64,
    /// Approximate wire size of the arguments, in bytes.
    pub args_bytes: usize,
    /// Approximate wire size of the return value, in bytes.
    pub ret_bytes: usize,
    /// CPU cost of the base execution.
    pub cost: Duration,
    /// Global issue order (deterministic tie-breaking during replay).
    pub seq: u64,
}

/// Analytic CPU-cost model: given the join point and its arguments, return the
/// cost to record instead of a wall-clock measurement.
///
/// Used where costs must not depend on the build machine: `weavepar-demo
/// figures` models a sieve `filter` as 1 µs per candidate and a construction
/// as 1 ms, so its degradation table compares shapes, not this host's load.
pub type CostModel = Arc<dyn Fn(&Signature, &Args) -> Option<Duration> + Send + Sync>;

/// The completed trace: a task DAG in creation order.
#[derive(Debug, Clone, Default)]
pub struct TraceGraph {
    /// All recorded tasks, indexed by `TaskId::raw()`.
    pub tasks: Vec<TaskRecord>,
}

impl TraceGraph {
    /// Tasks with no recorded parent (issued by top-level application code).
    pub fn roots(&self) -> impl Iterator<Item = &TaskRecord> {
        self.tasks.iter().filter(|t| t.parent.is_none())
    }

    /// Children of `id`, in issue order.
    pub fn children(&self, id: TaskId) -> impl Iterator<Item = &TaskRecord> {
        self.tasks.iter().filter(move |t| t.parent == Some(id))
    }

    /// Sum of all task costs (the sequential work content).
    pub fn total_cost(&self) -> Duration {
        self.tasks.iter().map(|t| t.cost).sum()
    }

    /// Number of recorded tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Look up a task.
    pub fn get(&self, id: TaskId) -> Option<&TaskRecord> {
        self.tasks.get(id.raw() as usize)
    }

    /// Total bytes that would cross the wire if every call were remote.
    pub fn total_bytes(&self) -> usize {
        self.tasks.iter().map(|t| t.args_bytes + t.ret_bytes).sum()
    }

    /// Thread tag of the client (`main`) — taken from the first recorded
    /// task, which benchmark drivers always issue from their main thread.
    pub fn main_thread(&self) -> Option<u64> {
        self.tasks.first().map(|t| t.issuer)
    }
}

/// Records the task DAG of a woven execution.
///
/// Cloning shares the underlying buffer; a recorder can be installed on a
/// weaver while the caller keeps a handle to later [`Recorder::finish`] it.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

struct RecorderInner {
    id: u64,
    tasks: Mutex<Vec<TaskRecord>>,
    seq: AtomicU64,
    cost_model: Option<CostModel>,
}

fn next_recorder_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Recorder {
    /// A recorder that records each task's wall time from begin to end,
    /// measured with `Instant` (waits and preemption included).
    pub fn measuring() -> Self {
        Recorder {
            inner: Arc::new(RecorderInner {
                id: next_recorder_id(),
                tasks: Mutex::new(Vec::new()),
                seq: AtomicU64::new(0),
                cost_model: None,
            }),
        }
    }

    /// A recorder that asks `model` for task costs, falling back to
    /// measurement when the model declines a join point.
    pub fn with_cost_model(model: CostModel) -> Self {
        Recorder {
            inner: Arc::new(RecorderInner {
                id: next_recorder_id(),
                tasks: Mutex::new(Vec::new()),
                seq: AtomicU64::new(0),
                cost_model: Some(model),
            }),
        }
    }

    /// This recorder's process-unique id (epoch for thread-local markers).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Model cost for a join point, if a model is installed and covers it.
    pub fn model_cost(&self, sig: &Signature, args: &Args) -> Option<Duration> {
        self.inner.cost_model.as_ref().and_then(|m| m(sig, args))
    }

    /// Record the start of a base execution. Returns the new task id; the
    /// caller must pair it with [`Recorder::end_task`].
    pub fn begin_task(
        &self,
        signature: Signature,
        target: Option<ObjId>,
        args_bytes: usize,
        async_spawn: bool,
        issuer: u64,
    ) -> TaskId {
        let parent = current_task();
        let after = data_dep_for(self.inner.id);
        let mut tasks = self.inner.tasks.lock();
        let id = TaskId(tasks.len() as u64);
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        tasks.push(TaskRecord {
            id,
            parent,
            after,
            signature,
            target,
            async_spawn,
            issuer,
            args_bytes,
            ret_bytes: 0,
            cost: Duration::ZERO,
            seq,
        });
        id
    }

    /// Record the completion of a task with its cost and return size.
    pub fn end_task(&self, id: TaskId, cost: Duration, ret_bytes: usize) {
        let mut tasks = self.inner.tasks.lock();
        if let Some(t) = tasks.get_mut(id.raw() as usize) {
            t.cost = cost;
            t.ret_bytes = ret_bytes;
        }
    }

    /// Number of tasks recorded so far.
    pub fn len(&self) -> usize {
        self.inner.tasks.lock().len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the recorded trace.
    pub fn finish(&self) -> TraceGraph {
        TraceGraph { tasks: self.inner.tasks.lock().clone() }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("tasks", &self.len()).finish()
    }
}

/// The most recent task that completed on this thread's logical flow,
/// *within the given recorder's session*.
pub fn data_dep_for(recorder_id: u64) -> Option<TaskId> {
    let marker = context::with(|c| c.data_dep.get());
    marker.and_then(|(id, task)| (id == recorder_id).then_some(task))
}

/// Note that `task` (recorded by `recorder_id`) has completed on this thread:
/// subsequent join points issued here record it as their `after` dependency.
pub fn note_completion(recorder_id: u64, task: TaskId) {
    context::with(|c| c.data_dep.set(Some((recorder_id, task))));
}

/// The task whose base method body is currently executing on this thread.
pub fn current_task() -> Option<TaskId> {
    context::with(|c| c.task.get())
}

/// RAII guard restoring the previous current task.
pub struct TaskGuard {
    previous: Option<TaskId>,
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        context::with(|c| c.task.set(self.previous));
    }
}

/// Make `task` the current task (`None` masks an outer one).
pub fn push_task(task: Option<TaskId>) -> TaskGuard {
    TaskGuard { previous: context::with(|c| c.task.replace(task)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> Signature {
        Signature::new("C", "m")
    }

    #[test]
    fn tasks_get_dense_ids_and_seq() {
        let r = Recorder::measuring();
        let a = r.begin_task(sig(), None, 10, false, 0);
        let b = r.begin_task(sig(), None, 20, true, 0);
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 1);
        r.end_task(a, Duration::from_millis(5), 1);
        r.end_task(b, Duration::from_millis(7), 2);
        let g = r.finish();
        assert_eq!(g.len(), 2);
        assert_eq!(g.tasks[0].seq, 0);
        assert_eq!(g.tasks[1].seq, 1);
        assert_eq!(g.total_cost(), Duration::from_millis(12));
        assert_eq!(g.total_bytes(), 10 + 20 + 1 + 2);
    }

    #[test]
    fn parent_comes_from_thread_local() {
        let r = Recorder::measuring();
        let root = r.begin_task(sig(), None, 0, false, 0);
        {
            let _g = push_task(Some(root));
            let child = r.begin_task(sig(), None, 0, false, 0);
            let g = r.finish();
            assert_eq!(g.get(child).unwrap().parent, Some(root));
        }
        let after = r.begin_task(sig(), None, 0, false, 0);
        assert_eq!(r.finish().get(after).unwrap().parent, None);
    }

    #[test]
    fn roots_and_children_iterators() {
        let r = Recorder::measuring();
        let root = r.begin_task(sig(), None, 0, false, 0);
        let _g = push_task(Some(root));
        let c1 = r.begin_task(sig(), None, 0, false, 0);
        let c2 = r.begin_task(sig(), None, 0, true, 0);
        let g = r.finish();
        assert_eq!(g.roots().count(), 1);
        let kids: Vec<_> = g.children(root).map(|t| t.id).collect();
        assert_eq!(kids, vec![c1, c2]);
        assert!(g.get(c2).unwrap().async_spawn);
    }

    #[test]
    fn cost_model_is_consulted() {
        let model: CostModel =
            Arc::new(|s: &Signature, _a: &Args| (s.method == "m").then(|| Duration::from_secs(3)));
        let r = Recorder::with_cost_model(model);
        assert_eq!(r.model_cost(&sig(), &Args::empty()), Some(Duration::from_secs(3)));
        assert_eq!(r.model_cost(&Signature::new("C", "other"), &Args::empty()), None);
        assert!(Recorder::measuring().model_cost(&sig(), &Args::empty()).is_none());
    }

    #[test]
    fn none_frame_masks_outer_task() {
        let root = TaskId::from_raw(42);
        let _g1 = push_task(Some(root));
        assert_eq!(current_task(), Some(root));
        {
            let _g2 = push_task(None);
            assert_eq!(current_task(), None);
        }
        assert_eq!(current_task(), Some(root));
    }

    #[test]
    fn empty_graph_queries() {
        let g = TraceGraph::default();
        assert!(g.is_empty());
        assert_eq!(g.total_cost(), Duration::ZERO);
        assert!(g.get(TaskId::from_raw(0)).is_none());
        let r = Recorder::measuring();
        assert!(r.is_empty());
    }
}
