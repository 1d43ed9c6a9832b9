//! The in-process cluster fabric: N node runtimes plus client-side plumbing.
//!
//! `InProcFabric` is the "cluster" the distribution aspects talk to. Its
//! nodes are real threads with private object spaces; calls are marshalled
//! to bytes and cross node mailboxes — functionally a distributed system,
//! minus the 2005 Ethernet (whose costs live in `weavepar-cluster`).
//!
//! The per-call fast path is allocation-free in the steady state:
//! [`InProcFabric::call`] and [`InProcFabric::send`] take an interned
//! [`MethodId`] (an array index into the registry, not a string lookup), and
//! encode/decode frames cycle through a shared [`BufPool`]; a replied call
//! moves one frame, which carries its arguments there and its reply back. A
//! replied request — a call, a construct, a snapshot, a restore — to an idle
//! node is served on the caller's own thread ([`NodeRuntime::call_inline`];
//! the rules are in [`node`](crate::node)). Every other one goes through one
//! rendezvous on a pooled reply cell (the concurrency module's one-shot
//! future), so a middleware hand-off is a mailbox push or a cell fulfilment
//! and nothing else.
//! Oneway calls to one node travel packed as one [`Request::CallPack`]
//! frame — one submit, one wakeup: [`InProcFabric::new_pack`], then
//! [`PackFrame::push`] per call, then [`InProcFabric::submit_pack`] (what
//! the message-packing aspect does).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::RwLock;

use weavepar_weave::{MetricsRegistry, ObjId, WeaveError, WeaveResult, Weaveable};

use crate::faults::{FaultAction, FaultPlan, RequestClass};
use crate::nameserver::NameServer;
use crate::node::{NodeRuntime, Op, Request};
use crate::policy::CallPolicy;
use crate::pool::{BufPool, ReplyPool};
use crate::wire::{ClassId, MarshalRegistry, MethodId, PackFrame, Wire};

/// A reference to an object living on a fabric node. Carries the interned
/// class id so method resolution on the stub side never re-hashes the class
/// name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteRef {
    /// Hosting node.
    pub node: usize,
    /// Object id within that node's space.
    pub obj: ObjId,
    /// Interned class of the remote instance.
    pub class: ClassId,
}

/// Always-on fabric event cells. Plain relaxed `fetch_add`s on `Arc`ed
/// atomics, so a metrics registry can *bind* them by name without the call
/// paths ever consulting the registry — with no registry installed the cost
/// is one uncontended atomic per event, same budget as the fault-plan flag.
#[derive(Default)]
struct FabricStats {
    /// Replied calls issued (RMI semantics).
    calls: Arc<AtomicU64>,
    /// Replied calls served on the caller's thread (no queue, no rendezvous).
    served_inline: Arc<AtomicU64>,
    /// Oneway calls issued individually (MPP semantics, unpacked).
    oneway: Arc<AtomicU64>,
    /// Pack frames shipped (`submit_pack`).
    packs: Arc<AtomicU64>,
    /// Oneway calls carried inside those pack frames.
    packed_calls: Arc<AtomicU64>,
    /// Retry attempts taken by policy-governed calls.
    retries: Arc<AtomicU64>,
    /// Reply waits that expired against a policy deadline.
    timeouts: Arc<AtomicU64>,
    /// Replied requests parked on a reply cell, not yet answered (live
    /// gauge). Only a queued request can be parked: one served on the
    /// caller's thread is answered before it could be read.
    in_flight: Arc<AtomicU64>,
}

/// Decrements the in-flight gauge on drop, so every exit path of a parked
/// request — reply, route error, timeout, panic — restores the count.
struct InFlightGuard<'a>(&'a AtomicU64);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// N in-process nodes, a shared marshalling registry and a name server.
pub struct InProcFabric {
    nodes: Vec<NodeRuntime>,
    marshal: MarshalRegistry,
    nameserver: NameServer,
    buffers: Arc<BufPool>,
    replies: ReplyPool,
    /// Installed fault schedule (chaos testing); `None` in production.
    faults: RwLock<Option<Arc<FaultPlan>>>,
    /// Fast-path flag mirroring `faults.is_some()`: the per-call check is a
    /// single relaxed load, so an un-faulted fabric pays nothing.
    faulty: AtomicBool,
    /// Dedup-key generator for at-most-once call delivery.
    seq: AtomicU64,
    /// Always-on event cells a metrics registry can bind by name (see
    /// [`InProcFabric::install_metrics`]).
    stats: FabricStats,
}

impl InProcFabric {
    /// Spawn a fabric of `nodes` nodes sharing `marshal` (and one frame
    /// pool spanning clients and servers).
    pub fn new(nodes: usize, marshal: MarshalRegistry) -> Arc<Self> {
        let buffers = Arc::new(BufPool::new());
        let nodes = (0..nodes.max(1))
            .map(|i| NodeRuntime::spawn_with_pool(i, marshal.clone(), buffers.clone()))
            .collect();
        Arc::new(InProcFabric {
            nodes,
            marshal,
            nameserver: NameServer::new(),
            buffers,
            replies: ReplyPool::new(),
            faults: RwLock::new(None),
            faulty: AtomicBool::new(false),
            seq: AtomicU64::new(1),
            stats: FabricStats::default(),
        })
    }

    /// Bind the fabric's live event cells into `registry` under `prefix`:
    /// `{prefix}.calls` / `.served_inline` / `.oneway` / `.packs` /
    /// `.packed_calls` / `.retries` / `.timeouts` counters (`calls` and
    /// `served_inline` count replied calls, not constructs, snapshots or
    /// restores), an `{prefix}.in_flight` gauge for replied requests parked
    /// on a reply cell, and an
    /// `{prefix}.reply_slots_pooled` gauge for the reply cells parked in
    /// the pool.
    /// The registry reads the same cells the call paths were already
    /// bumping, so installing metrics adds nothing to the per-call cost.
    pub fn install_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        registry.bind_counter(&format!("{prefix}.calls"), self.stats.calls.clone());
        registry.bind_counter(&format!("{prefix}.served_inline"), self.stats.served_inline.clone());
        registry.bind_counter(&format!("{prefix}.oneway"), self.stats.oneway.clone());
        registry.bind_counter(&format!("{prefix}.packs"), self.stats.packs.clone());
        registry.bind_counter(&format!("{prefix}.packed_calls"), self.stats.packed_calls.clone());
        registry.bind_counter(&format!("{prefix}.retries"), self.stats.retries.clone());
        registry.bind_counter(&format!("{prefix}.timeouts"), self.stats.timeouts.clone());
        registry.bind_gauge(&format!("{prefix}.in_flight"), self.stats.in_flight.clone());
        registry.bind_gauge(&format!("{prefix}.reply_slots_pooled"), self.replies.pooled_cell());
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The shared marshalling registry.
    pub fn marshal(&self) -> &MarshalRegistry {
        &self.marshal
    }

    /// The fabric's name server (used by the RMI-style aspect).
    pub fn nameserver(&self) -> &NameServer {
        &self.nameserver
    }

    /// The shared frame pool — encode argument packs into
    /// [`BufPool::take`]n frames and the fabric recycles them on the far
    /// side.
    pub fn buffers(&self) -> &BufPool {
        &self.buffers
    }

    /// A node's runtime (tests, server-side inspection).
    pub fn node(&self, i: usize) -> WeaveResult<&NodeRuntime> {
        self.nodes.get(i).ok_or_else(|| WeaveError::remote(format!("no node {i}")))
    }

    /// Failure injection: crash a node. Later submissions fail immediately
    /// and requests already queued are failed promptly by the node's serve
    /// loop (see [`NodeRuntime::kill`]) — callers blocked on replies get a
    /// typed [`WeaveError::NodeDown`] instead of hanging until fabric
    /// teardown. The name server is swept in the same stroke: every name
    /// bound to an object on the dead node is tombstoned, so lookups fail
    /// fast with `NodeDown` too.
    pub fn kill_node(&self, i: usize) -> WeaveResult<()> {
        self.node(i)?.kill();
        self.nameserver.unbind_node(i);
        Ok(())
    }

    /// Install a seeded fault schedule; every subsequent outbound request
    /// consults it. Installing a plan also switches replied calls to carry
    /// dedup keys, so duplicated deliveries stay at-most-once.
    pub fn install_faults(&self, plan: Arc<FaultPlan>) {
        *self.faults.write() = Some(plan);
        self.faulty.store(true, Ordering::SeqCst);
    }

    /// Remove the fault schedule (back to a faithful network).
    pub fn clear_faults(&self) {
        self.faulty.store(false, Ordering::SeqCst);
        *self.faults.write() = None;
    }

    /// The installed fault plan, if any (chaos harnesses read its stats).
    pub fn faults(&self) -> Option<Arc<FaultPlan>> {
        self.faults.read().clone()
    }

    /// An at-most-once dedup key, for a delivery that can happen twice: the
    /// call may be retried, or a fault plan may duplicate it. Every other call
    /// pays no atomic increment and leaves the serving node's dedup window
    /// untouched.
    fn dedup_key(&self, retried: bool) -> Option<u64> {
        (retried || self.faulty.load(Ordering::Relaxed))
            .then(|| self.seq.fetch_add(1, Ordering::Relaxed))
    }

    /// The installed fault schedule's decision for one delivery attempt.
    /// With no plan installed this is one relaxed load.
    fn decide(&self, class: RequestClass, node: usize) -> Option<FaultAction> {
        if !self.faulty.load(Ordering::Relaxed) {
            return None;
        }
        self.faults.read().clone()?.decide(class, node)
    }

    /// Route one request to `node`'s queue, applying the installed fault
    /// schedule. With no plan installed this is exactly `submit`.
    fn route(&self, node: usize, class: RequestClass, request: Request) -> WeaveResult<()> {
        self.deliver(node, self.decide(class, node), request)
    }

    /// Deliver one request under the fault decision already taken for it.
    fn deliver(
        &self,
        node: usize,
        fault: Option<FaultAction>,
        request: Request,
    ) -> WeaveResult<()> {
        let target = self.node(node)?;
        let Some(action) = fault else { return target.submit(request) };
        match action {
            FaultAction::Drop => {
                self.discard(request);
                Ok(())
            }
            FaultAction::Delay(by) => {
                if target.is_down() {
                    return Err(WeaveError::NodeDown { node });
                }
                // Deliver late from a helper thread holding the node's
                // mailbox. If the node dies in the interim the request is
                // refused or failed by the server's down-check — same as a
                // packet arriving at a dead host.
                let mailbox = target.mailbox();
                std::thread::spawn(move || {
                    std::thread::sleep(by);
                    let _ = mailbox.push(request);
                });
                Ok(())
            }
            FaultAction::Duplicate => {
                // Only oneway calls are duplicated (a replied call owns its
                // single reply cell). The duplicate carries the same dedup
                // key, so a seq-carrying call still executes at most once.
                if let Request::Oneway { obj, method, ref args, seq } = request {
                    target.submit(Request::Oneway { obj, method, args: args.clone(), seq })?;
                }
                target.submit(request)
            }
            FaultAction::CrashNode => {
                self.kill_node(node)?;
                // The request itself dies with the node.
                target.submit(request)
            }
        }
    }

    /// Lose a request and recycle its frames. A call's reply half is
    /// *discarded*, so the caller times out against its own deadline, like a
    /// lost datagram, rather than seeing a prompt disconnect the real
    /// network would never deliver. Construct / snapshot / restore have no
    /// deadline to time out against: their reply half is dropped, and its
    /// drop guard fails the caller at once.
    fn discard(&self, request: Request) {
        match request {
            Request::Replied { op: Op::Call { args, .. }, reply } => {
                self.buffers.recycle(args);
                reply.discard();
            }
            Request::Replied { op: Op::Construct { args, .. }, .. } => self.buffers.recycle(args),
            Request::Replied { .. } => {}
            Request::Oneway { args, .. } => self.buffers.recycle(args),
            Request::CallPack { frame } => self.buffers.recycle(frame),
        }
    }

    /// Register a weaveable class on every node.
    pub fn register_class<T: Weaveable>(&self) {
        for node in &self.nodes {
            node.register_class::<T>();
        }
    }

    /// Create an instance of `class` on `node` from marshalled arguments.
    /// Interns the class's `"new"` method once; hot callers should hold the
    /// [`MethodId`] and use [`InProcFabric::construct_on_id`].
    pub fn construct_on(&self, node: usize, class: &str, args: Bytes) -> WeaveResult<RemoteRef> {
        self.construct_on_id(node, self.marshal.method_id(class, "new")?, args)
    }

    /// Create an instance on `node`; `ctor` is the interned id of the
    /// class's `"new"` method.
    pub fn construct_on_id(
        &self,
        node: usize,
        ctor: MethodId,
        args: Bytes,
    ) -> WeaveResult<RemoteRef> {
        let class = self.marshal.method_entry(ctor)?.class;
        let op = Op::Construct { ctor, args };
        let made = self.admin(node, RequestClass::Construct, op)?;
        Ok(RemoteRef { node, obj: self.replied_obj(made)?, class })
    }

    /// Snapshot a remote object's state (removing it when `remove`).
    pub fn snapshot(&self, reference: RemoteRef, remove: bool) -> WeaveResult<Bytes> {
        let RemoteRef { node, obj, .. } = reference;
        self.admin(node, RequestClass::Snapshot, Op::Snapshot { obj, remove })
    }

    /// Rebuild an instance of `class` on `node` from snapshotted state.
    pub fn restore(&self, node: usize, class: &str, state: Bytes) -> WeaveResult<RemoteRef> {
        let class = self.marshal.intern_class(class);
        let op = Op::Restore { class, state };
        let rebuilt = self.admin(node, RequestClass::Restore, op)?;
        Ok(RemoteRef { node, obj: self.replied_obj(rebuilt)?, class })
    }

    /// The object id a construct or restore answered with.
    fn replied_obj(&self, mut frame: Bytes) -> WeaveResult<ObjId> {
        let obj = ObjId::decode(&mut frame);
        self.buffers.recycle(frame);
        obj
    }

    /// Move a remote object to another node, preserving its state — the
    /// runtime behind the paper's `Point.migrate` (Figure 2).
    ///
    /// Migrating *to* a dead node fails up front with
    /// [`WeaveError::NodeDown`] before any state leaves the source, so the
    /// object stays intact where it was. If the target dies between that
    /// check and the restore, the snapshotted state is restored back onto
    /// the source (under a fresh object id) rather than lost.
    pub fn migrate(&self, reference: RemoteRef, class: &str, to: usize) -> WeaveResult<RemoteRef> {
        if reference.node == to {
            return Ok(reference);
        }
        let target = self.node(to)?;
        if target.is_down() {
            return Err(WeaveError::NodeDown { node: to });
        }
        let state = self.snapshot(reference, true)?;
        match self.restore(to, class, state.clone()) {
            Ok(restored) => Ok(restored),
            Err(err) => {
                let _ = self.restore(reference.node, class, state);
                Err(err)
            }
        }
    }

    /// Invoke an interned method on a remote object and return its
    /// marshalled return value (RMI semantics). [`CallPolicy::unbounded`]
    /// waits forever and never retries; a deadline bounds each attempt's
    /// reply wait, and *retryable* failures (timeouts — never
    /// [`WeaveError::NodeDown`]) are retried with exponential backoff
    /// and seeded jitter. Three rules keep the common call cheap:
    ///
    /// * a dedup key is minted only while a fault plan is installed or the
    ///   policy retries. All attempts of one call share the key, so a retry
    ///   whose original delivery actually executed is answered from the
    ///   node's at-most-once window;
    /// * an unfaulted attempt with no deadline is first tried on this thread
    ///   (node idle), one with a deadline always queues, and only a queued
    ///   one moves the in-flight gauge;
    /// * the last attempt the policy allows gives `args` away instead of
    ///   cloning it, so the serving side can reclaim the frame.
    pub fn call(
        &self,
        reference: RemoteRef,
        method: MethodId,
        args: Bytes,
        policy: &CallPolicy,
    ) -> WeaveResult<Bytes> {
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        let seq = self.dedup_key(policy.retries > 0);
        // Jitter stream: policy seed mixed with the call's dedup key, so
        // concurrent calls de-synchronise but a given (seed, call) replays.
        let mut rng = policy.seed ^ seq.unwrap_or(0).wrapping_mul(0x9e3779b97f4a7c15);
        for attempt in 0..policy.retries {
            match self.replied_attempt(reference, method, args.clone(), seq, policy.deadline) {
                Err(err) if policy.should_retry(&err, attempt) => {
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    let pause = policy.backoff.delay(attempt + 1, &mut rng);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
                done => return done,
            }
        }
        // No retry can follow this attempt: a second handle on the frame
        // would only keep the serving side from recycling it.
        self.replied_attempt(reference, method, args, seq, policy.deadline)
    }

    /// Send an interned method call without waiting for a reply (MPP oneway
    /// send): returns as soon as the request is queued. Like
    /// [`InProcFabric::call`] it carries a dedup key only while a fault plan
    /// is installed, so an injected duplicate still executes once.
    pub fn send(&self, reference: RemoteRef, method: MethodId, args: Bytes) -> WeaveResult<()> {
        self.stats.oneway.fetch_add(1, Ordering::Relaxed);
        let seq = self.dedup_key(false);
        self.route(
            reference.node,
            RequestClass::Oneway,
            Request::Oneway { obj: reference.obj, method, args, seq },
        )
    }

    /// One delivery attempt of a replied call.
    fn replied_attempt(
        &self,
        reference: RemoteRef,
        method: MethodId,
        args: Bytes,
        seq: Option<u64>,
        deadline: Option<Duration>,
    ) -> WeaveResult<Bytes> {
        let RemoteRef { node, obj, .. } = reference;
        let fault = self.decide(RequestClass::Call, node);
        match self.inline(node, fault, Op::Call { obj, method, args, seq }, deadline) {
            Ok(result) => {
                self.stats.served_inline.fetch_add(1, Ordering::Relaxed);
                result
            }
            Err(op) => self.rendezvous(node, fault, op, deadline),
        }
    }

    /// A construct / snapshot / restore: a replied request with no deadline
    /// and no retry, served like a call.
    fn admin(&self, node: usize, class: RequestClass, op: Op) -> WeaveResult<Bytes> {
        let fault = self.decide(class, node);
        self.inline(node, fault, op, None)
            .unwrap_or_else(|op| self.rendezvous(node, fault, op, None))
    }

    /// Serve `op` on this thread if it may be — no fault decision taken for
    /// it, no deadline — and its node is idle; else hand it back for the
    /// rendezvous.
    fn inline(
        &self,
        node: usize,
        fault: Option<FaultAction>,
        op: Op,
        deadline: Option<Duration>,
    ) -> Result<WeaveResult<Bytes>, Op> {
        match (fault, deadline, self.nodes.get(node)) {
            (None, None, Some(target)) => target.call_inline(op),
            _ => Err(op),
        }
    }

    /// The one reply rendezvous: check out a reply cell, deliver `op` with
    /// its serving half under the fault decision taken for it, and take the
    /// reply once it is there or until `deadline` passes. The take blocks,
    /// even on a pool worker. Kept out of line and non-generic: the
    /// inline-served half of a request never gets here.
    #[inline(never)]
    fn rendezvous(
        &self,
        node: usize,
        fault: Option<FaultAction>,
        op: Op,
        deadline: Option<Duration>,
    ) -> WeaveResult<Bytes> {
        self.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let _parked = InFlightGuard(&self.stats.in_flight);
        let (cell, reply) = self.replies.checkout();
        // A request refused at the door died with its reply half, whose
        // drop guard fulfilled the cell: the route's typed error is the answer.
        let result = self.deliver(node, fault, Request::Replied { op, reply }).and_then(|()| {
            let waited_ms = deadline.map_or(0, |after| after.as_millis() as u64);
            cell.take_until(deadline.map(|after| Instant::now() + after))?
                .unwrap_or(Err(WeaveError::Timeout { waited_ms }))
        });
        if matches!(result, Err(WeaveError::Timeout { .. })) {
            self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        // Recycled only if its reply was taken: a late reply may still land
        // in a cell that timed out.
        self.replies.finish(cell);
        result
    }

    /// Submit an already-framed pack to `node` (the packing aspect builds
    /// frames incrementally and ships them here).
    pub fn submit_pack(&self, node: usize, frame: PackFrame) -> WeaveResult<usize> {
        if frame.is_empty() {
            return Ok(0);
        }
        let count = frame.count() as usize;
        self.route(node, RequestClass::Pack, Request::CallPack { frame: frame.finish() })?;
        self.stats.packs.fetch_add(1, Ordering::Relaxed);
        self.stats.packed_calls.fetch_add(count as u64, Ordering::Relaxed);
        Ok(count)
    }

    /// Start an empty pack frame backed by the fabric's frame pool.
    pub fn new_pack(&self) -> PackFrame {
        PackFrame::new(self.buffers.take())
    }
}

impl std::fmt::Debug for InProcFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcFabric").field("nodes", &self.nodes.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::tests::{latch, watchdog, Probe};
    use crate::wire::to_bytes;
    use weavepar_weave::args;

    struct Echo {
        tag: String,
        heard: u64,
    }

    weavepar_weave::weaveable! {
        class Echo as EchoProxy {
            fn new(tag: String) -> Self { Echo { tag, heard: 0 } }
            fn shout(&mut self, msg: String) -> String {
                self.heard += 1;
                format!("{}:{}", self.tag, msg)
            }
            fn heard(&mut self) -> u64 {
                self.heard
            }
        }
    }

    /// Remembers whether it was built on a node thread.
    struct Where {
        on_node: bool,
    }

    weavepar_weave::weaveable! {
        class Where as WhereProxy {
            fn new() -> Self { Where { on_node: crate::fabric::tests::on_node_thread() } }
            fn built_on_node(&mut self) -> u64 { self.on_node as u64 }
        }
    }

    fn on_node_thread() -> bool {
        std::thread::current().name().is_some_and(|n| n.starts_with("node-"))
    }

    /// A class whose constructor panics on the serving node.
    struct Fragile;

    weavepar_weave::weaveable! {
        class Fragile as FragileProxy {
            fn new() -> Self { panic!("Fragile.new blew up") }
            fn poke(&mut self) -> u64 { 0 }
        }
    }

    fn fabric() -> Arc<InProcFabric> {
        let m = MarshalRegistry::new();
        m.register::<(String,), ()>("Echo", "new");
        m.register::<(String,), String>("Echo", "shout");
        m.register::<(), u64>("Echo", "heard");
        m.register::<(), ()>("Fragile", "new");
        m.register::<(), ()>("Probe", "new");
        m.register::<(u64,), u64>("Probe", "hold");
        m.register::<(), u64>("Probe", "explode");
        m.register::<(), ()>("Where", "new");
        m.register::<(), u64>("Where", "built_on_node");
        // An `Echo`'s state is its tag; the codec chokes on two of them.
        m.register_state::<Echo, String, _, _>(
            |echo| {
                assert_ne!(echo.tag, "bomb", "extract blew up");
                echo.tag.clone()
            },
            |tag| {
                assert_ne!(tag, "dud", "rebuild blew up");
                Echo { tag, heard: 0 }
            },
        );
        let f = InProcFabric::new(3, m);
        f.register_class::<Echo>();
        f.register_class::<Fragile>();
        f.register_class::<Probe>();
        f.register_class::<Where>();
        f
    }

    /// An `Echo` on node 0, its `shout` id, and a registry reading the
    /// fabric's counters. Returns once the node is idle again: a call has
    /// been served inline, so from here a lone caller always finds the token.
    fn idle_echo(f: &Arc<InProcFabric>) -> (RemoteRef, MethodId, MetricsRegistry) {
        let registry = MetricsRegistry::new();
        f.install_metrics(&registry, "fabric");
        let ctor = f.marshal().encode_args("Echo", "new", &args!["n".to_string()]).unwrap();
        let r = f.construct_on(0, "Echo", ctor).unwrap();
        let shout = f.marshal().method_id("Echo", "shout").unwrap();
        while registry.snapshot().counter("fabric.served_inline") == Some(0) {
            f.call(r, shout, shout_args(f, "warm"), &CallPolicy::unbounded()).unwrap();
        }
        (r, shout, registry)
    }

    fn shout_args(f: &InProcFabric, msg: &str) -> Bytes {
        f.marshal().encode_args("Echo", "shout", &args![msg.to_string()]).unwrap()
    }

    /// `Echo.shout(msg)` on `r` under the default policy, by name.
    fn shout_on(f: &InProcFabric, r: RemoteRef, msg: &str) -> WeaveResult<String> {
        let shout = f.marshal().method_id("Echo", "shout")?;
        let reply = f.call(r, shout, shout_args(f, msg), &CallPolicy::unbounded())?;
        let ret = f.marshal().decode_ret("Echo", "shout", &reply)?;
        Ok(*ret.downcast::<String>().unwrap())
    }

    /// `n` shouts at `r` in one frame, built as the packing aspect builds it.
    fn shouts(f: &InProcFabric, r: RemoteRef, n: usize) -> PackFrame {
        let shout = f.marshal().method_id("Echo", "shout").unwrap();
        let mut frame = f.new_pack();
        for i in 0..n {
            frame.push(r.obj, shout, f.marshal(), &args![format!("m{i}")]).unwrap();
        }
        frame
    }

    fn counters(registry: &MetricsRegistry) -> (u64, u64) {
        let snap = registry.snapshot();
        (snap.counter("fabric.calls").unwrap(), snap.counter("fabric.served_inline").unwrap())
    }

    #[test]
    fn construct_and_call_across_nodes() {
        let f = fabric();
        for node in 0..3 {
            let args = f.marshal().encode_args("Echo", "new", &args![format!("n{node}")]).unwrap();
            let r = f.construct_on(node, "Echo", args).unwrap();
            assert_eq!(r.node, node);
            assert_eq!(r.class, f.marshal().class_id("Echo").unwrap());
            assert_eq!(shout_on(&f, r, "hi").unwrap(), format!("n{node}:hi"));
        }
    }

    #[test]
    fn pooled_frames_round_trip_through_a_call() {
        let f = fabric();
        let ctor = f.marshal().encode_args("Echo", "new", &args!["n".to_string()]).unwrap();
        let r = f.construct_on(0, "Echo", ctor).unwrap();
        let shout = f.marshal().method_id("Echo", "shout").unwrap();
        for msg in ["a", "b", "c"] {
            let mut buf = f.buffers().take();
            f.marshal().encode_args_id(shout, &args![msg.to_string()], &mut buf).unwrap();
            let reply = f.call(r, shout, buf.freeze(), &CallPolicy::unbounded()).unwrap();
            let ret = f.marshal().decode_ret_id(shout, &mut reply.clone()).unwrap();
            assert_eq!(*ret.downcast::<String>().unwrap(), format!("n:{msg}"));
            f.buffers().recycle(reply);
        }
        // The recycled reply frames are back in the shared pool.
        assert!(f.buffers().pooled() > 0);
    }

    #[test]
    fn objects_live_in_separate_spaces() {
        let f = fabric();
        let a = f.marshal().encode_args("Echo", "new", &args!["a".to_string()]).unwrap();
        let b = f.marshal().encode_args("Echo", "new", &args!["b".to_string()]).unwrap();
        let ra = f.construct_on(0, "Echo", a).unwrap();
        let rb = f.construct_on(1, "Echo", b).unwrap();
        assert_eq!(f.node(0).unwrap().weaver().space().len(), 1);
        assert_eq!(f.node(1).unwrap().weaver().space().len(), 1);
        assert_eq!(f.node(2).unwrap().weaver().space().len(), 0);
        // Each reference is served by the object on its own node.
        assert_eq!(shout_on(&f, ra, "x").unwrap(), "a:x");
        assert_eq!(shout_on(&f, rb, "x").unwrap(), "b:x");
    }

    #[test]
    fn bad_node_index_is_an_error() {
        let f = fabric();
        let args = f.marshal().encode_args("Echo", "new", &args!["x".to_string()]).unwrap();
        assert!(f.construct_on(99, "Echo", args).is_err());
        assert!(f.node(99).is_err());
    }

    #[test]
    fn oneway_send_returns_immediately() {
        let f = fabric();
        let ctor = f.marshal().encode_args("Echo", "new", &args!["n".to_string()]).unwrap();
        let r = f.construct_on(0, "Echo", ctor).unwrap();
        let shout = f.marshal().method_id("Echo", "shout").unwrap();
        f.send(r, shout, shout_args(&f, "x")).unwrap();
    }

    #[test]
    fn call_batch_ships_one_pack() {
        let f = fabric();
        let ctor = f.marshal().encode_args("Echo", "new", &args!["n".to_string()]).unwrap();
        let r = f.construct_on(2, "Echo", ctor).unwrap();
        assert_eq!(f.submit_pack(2, shouts(&f, r, 5)).unwrap(), 5);
        assert_eq!(f.submit_pack(2, shouts(&f, r, 0)).unwrap(), 0);
        // Synchronise; the replied call queues behind the pack.
        assert_eq!(shout_on(&f, r, "x").unwrap(), "n:x");
    }

    #[test]
    fn remote_errors_propagate_on_replied_calls() {
        let f = fabric();
        let ghost = RemoteRef {
            node: 0,
            obj: ObjId::from_raw(404),
            class: f.marshal().intern_class("Echo"),
        };
        assert!(shout_on(&f, ghost, "x").is_err());
    }

    #[test]
    fn kill_fails_pending_replied_calls_promptly() {
        let f = fabric();
        let ctor = f.marshal().encode_args("Probe", "new", &args![]).unwrap();
        let probe = f.construct_on(0, "Probe", ctor).unwrap();
        let echo_ctor = f.marshal().encode_args("Echo", "new", &args!["e".to_string()]).unwrap();
        let echo_ref = f.construct_on(0, "Echo", echo_ctor).unwrap();

        // Occupy node 0's serve loop with a blocking oneway call.
        let held = latch();
        let hold_args = f.marshal().encode_args("Probe", "hold", &args![held.key]).unwrap();
        f.send(probe, f.marshal().method_id("Probe", "hold").unwrap(), hold_args).unwrap();
        held.entered.recv().unwrap();

        // Queue replied calls behind it from worker threads; they block on
        // their reply cells.
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let f = f.clone();
                std::thread::spawn(move || shout_on(&f, echo_ref, "hi"))
            })
            .collect();
        // Crash the node once all four are queued, then release the blocker:
        // a call executed or stranded, not refused, fails the test.
        while f.node(0).unwrap().queued() < 4 {
            std::thread::yield_now();
        }
        f.kill_node(0).unwrap();
        held.release.send(()).unwrap();

        // Every pending caller is failed promptly with a typed NodeDown —
        // nobody hangs until fabric teardown.
        for waiter in waiters {
            let err = waiter.join().unwrap().unwrap_err();
            assert!(matches!(err, WeaveError::NodeDown { node: 0 }), "{err}");
        }
        // And new submissions are rejected up front.
        assert!(matches!(shout_on(&f, echo_ref, "x"), Err(WeaveError::NodeDown { node: 0 })));
    }

    /// What goes wrong with a construct / snapshot / restore on node 1.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mishap {
        /// The fault plan loses the request.
        Dropped,
        /// The fault plan crashes the node on delivery.
        Crashed,
        /// The node was killed beforehand.
        Killed,
        /// The served body panics.
        Panics,
    }

    #[test]
    fn a_failed_admin_request_fails_typed_and_promptly() {
        use crate::faults::FaultRule;
        use Mishap::*;
        use RequestClass::{Construct, Restore, Snapshot};

        for op in [Construct, Snapshot, Restore] {
            for mishap in [Dropped, Crashed, Killed, Panics] {
                watchdog(&format!("{op:?} / {mishap:?}"), move || {
                    let f = fabric();
                    let echo_ctor = |tag: &str| {
                        f.marshal().encode_args("Echo", "new", &args![tag.to_string()]).unwrap()
                    };
                    // The panicking rows use the values the bodies choke on.
                    let panics = mishap == Panics;
                    let (tag, state) = if panics { ("bomb", "dud") } else { ("e", "e") };
                    let echo = f.construct_on(1, "Echo", echo_ctor(tag)).unwrap();
                    let attempt = || match op {
                        Construct if panics => {
                            let ctor = f.marshal().encode_args("Fragile", "new", &args![]).unwrap();
                            f.construct_on(1, "Fragile", ctor).map(drop)
                        }
                        Construct => f.construct_on(1, "Echo", echo_ctor("e")).map(drop),
                        Snapshot => f.snapshot(echo, false).map(drop),
                        _ => f.restore(1, "Echo", to_bytes(&state.to_string())).map(drop),
                    };
                    match mishap {
                        Dropped | Crashed => {
                            let action = if mishap == Dropped {
                                FaultAction::Drop
                            } else {
                                FaultAction::CrashNode
                            };
                            let plan = FaultPlan::seeded(1).rule(FaultRule::on(op, action));
                            f.install_faults(Arc::new(plan));
                        }
                        Killed => f.kill_node(1).unwrap(),
                        Panics => {}
                    }
                    let pooled = f.replies.pooled();
                    let err = attempt().expect_err("the request cannot succeed");
                    let said =
                        |what: &str| matches!(&err, WeaveError::Remote(msg) if msg.contains(what));
                    match mishap {
                        // No deadline to time out against: the drop-guard answers.
                        Dropped => {
                            assert!(said("reply dropped"), "{err}");
                            assert_eq!(f.faults().unwrap().stats().snapshot().dropped, 1);
                            assert!(!f.node(1).unwrap().is_down());
                        }
                        Crashed | Killed => {
                            assert!(matches!(err, WeaveError::NodeDown { node: 1 }), "{err}")
                        }
                        Panics => assert!(said("node 1: served call panicked"), "{err}"),
                    }
                    match mishap {
                        // Queued: its cell, answered, comes back to the pool.
                        Dropped => assert_eq!(f.replies.pooled(), pooled.max(1), "cell lost"),
                        // Unfaulted, node idle: served inline, with no cell.
                        Panics => assert_eq!(f.replies.pooled(), pooled, "a cell was used"),
                        Crashed | Killed => {}
                    }
                    if mishap != Dropped {
                        assert!(f.node(1).unwrap().is_down());
                        let next = f.snapshot(echo, false);
                        assert!(matches!(next, Err(WeaveError::NodeDown { node: 1 })), "{next:?}");
                    }
                    // No cell went back with an unread answer in it (`finish`
                    // recycles only a taken one), and the other nodes still serve.
                    f.clear_faults();
                    f.construct_on(0, "Echo", echo_ctor("z")).unwrap();
                });
            }
        }
    }

    #[test]
    fn a_construct_is_served_inline_on_an_idle_node_and_queued_behind_a_held_token() {
        watchdog("inline construct", || {
            let f = fabric();
            let registry = MetricsRegistry::new();
            f.install_metrics(&registry, "fabric");
            let built_on_node = |r: RemoteRef| {
                let id = f.marshal().method_id("Where", "built_on_node").unwrap();
                let args = f.marshal().encode_args("Where", "built_on_node", &args![]).unwrap();
                let reply = f.call(r, id, args, &CallPolicy::unbounded()).unwrap();
                *f.marshal()
                    .decode_ret("Where", "built_on_node", &reply)
                    .unwrap()
                    .downcast::<u64>()
                    .unwrap()
            };
            let no_args = || f.marshal().encode_args("Where", "new", &args![]).unwrap();
            // Nothing has reached node 1 yet: the token is in its mailbox.
            let here = f.construct_on(1, "Where", no_args()).unwrap();
            assert_eq!(f.replies.pooled(), 0, "no reply cell was checked out");
            assert_eq!(built_on_node(here), 0, "built on the caller's thread");
            assert_eq!(counters(&registry), (1, 1), "served_inline counts calls, not constructs");

            // The node thread holds the token inside `hold`: a construct queues.
            let ctor = f.marshal().encode_args("Probe", "new", &args![]).unwrap();
            let probe = f.construct_on(1, "Probe", ctor).unwrap();
            let held = latch();
            let args = f.marshal().encode_args("Probe", "hold", &args![held.key]).unwrap();
            f.send(probe, f.marshal().method_id("Probe", "hold").unwrap(), args).unwrap();
            held.entered.recv().unwrap();
            let queued = std::thread::scope(|s| {
                let waiting = s.spawn(|| f.construct_on(1, "Where", no_args()).unwrap());
                while f.node(1).unwrap().queued() == 0 {
                    std::thread::yield_now();
                }
                held.release.send(()).unwrap();
                waiting.join().unwrap()
            });
            assert_eq!(built_on_node(queued), 1, "built on the node thread");
        });
    }

    #[test]
    fn a_storm_of_calls_pools_each_frame_once() {
        use crate::pool::CAP;

        watchdog("frame accounting", || {
            let f = fabric();
            let echoes: Vec<RemoteRef> = (0..2)
                .map(|node| {
                    let ctor = f.marshal().encode_args("Echo", "new", &args!["s".to_string()]);
                    f.construct_on(node, "Echo", ctor.unwrap()).unwrap()
                })
                .collect();
            let shout = f.marshal().method_id("Echo", "shout").unwrap();
            let patient = CallPolicy::with_deadline(Duration::from_secs(60));
            let ghost = |r: RemoteRef| RemoteRef { obj: ObjId::from_raw(404), ..r };
            // Four callers, each mixing calls served inline, queued calls and
            // calls whose method errs, both ways; replies are recycled as
            // the RMI advice recycles them.
            std::thread::scope(|s| {
                for t in 0..4 {
                    let (f, echoes, patient) = (&f, &echoes, &patient);
                    s.spawn(move || {
                        for i in 0..200 {
                            let r = echoes[(t + i) % 2];
                            let policy =
                                if i % 3 == 0 { patient } else { &CallPolicy::unbounded() };
                            let target = if i % 7 == 0 { ghost(r) } else { r };
                            match f.call(target, shout, shout_args(f, "x"), policy) {
                                Ok(reply) => f.buffers().recycle(reply),
                                Err(err) => assert!(i % 7 == 0, "{err}"),
                            }
                        }
                    });
                }
            });
            // A deadline call answered after its caller gave up.
            let ctor = f.marshal().encode_args("Probe", "new", &args![]).unwrap();
            let probe = f.construct_on(0, "Probe", ctor).unwrap();
            let held = latch();
            let args = f.marshal().encode_args("Probe", "hold", &args![held.key]).unwrap();
            let hold = f.marshal().method_id("Probe", "hold").unwrap();
            let hasty = CallPolicy::with_deadline(Duration::from_millis(20));
            let late = std::thread::scope(|s| {
                let caller = s.spawn(|| f.call(probe, hold, args, &hasty));
                held.entered.recv().unwrap();
                let late = caller.join().unwrap();
                held.release.send(()).unwrap();
                late
            });
            assert!(matches!(late, Err(WeaveError::Timeout { .. })), "{late:?}");
            // A body that panics: contained, node 2 marked down.
            let ctor = f.marshal().encode_args("Probe", "new", &args![]).unwrap();
            let doomed = f.construct_on(2, "Probe", ctor).unwrap();
            let explode = f.marshal().method_id("Probe", "explode").unwrap();
            let args = f.marshal().encode_args("Probe", "explode", &args![]).unwrap();
            assert!(f.call(doomed, explode, args, &CallPolicy::unbounded()).is_err());
            assert!(f.node(2).unwrap().is_down());
            // Node 0 has answered the late reply once this queued call returns.
            f.call(echoes[0], shout, shout_args(&f, "y"), &patient).unwrap();

            let pooled = f.buffers().pooled();
            assert!(pooled > 0, "frames came back to the pool");
            assert!(f.buffers().all_unshared(), "two pooled frames share an allocation");
            assert!(pooled <= CAP);
        });
    }

    #[test]
    fn kill_node_sweeps_nameserver_bindings() {
        let f = fabric();
        let ctor0 = f.marshal().encode_args("Echo", "new", &args!["a".to_string()]).unwrap();
        let ctor1 = f.marshal().encode_args("Echo", "new", &args!["b".to_string()]).unwrap();
        let r0 = f.construct_on(0, "Echo", ctor0).unwrap();
        let r1 = f.construct_on(1, "Echo", ctor1).unwrap();
        f.nameserver().rebind("PS1", r0);
        f.nameserver().rebind("PS2", r1);
        f.kill_node(0).unwrap();
        // The dead node's binding fails fast and typed; the survivor's holds.
        assert!(matches!(f.nameserver().lookup("PS1"), Err(WeaveError::NodeDown { node: 0 })));
        assert_eq!(f.nameserver().lookup("PS2").unwrap(), r1);
    }

    #[test]
    fn policy_deadline_times_out_on_dropped_replies() {
        use crate::faults::{FaultAction, FaultPlan, FaultRule, RequestClass};
        use crate::policy::CallPolicy;
        use std::time::Duration;

        let f = fabric();
        let ctor = f.marshal().encode_args("Echo", "new", &args!["n".to_string()]).unwrap();
        let r = f.construct_on(0, "Echo", ctor).unwrap();
        let shout = f.marshal().method_id("Echo", "shout").unwrap();
        // Every replied call's message is silently lost.
        f.install_faults(Arc::new(
            FaultPlan::seeded(77).rule(FaultRule::on(RequestClass::Call, FaultAction::Drop)),
        ));
        let policy = CallPolicy::with_deadline(Duration::from_millis(30));
        let args = f.marshal().encode_args("Echo", "shout", &args!["x".to_string()]).unwrap();
        let start = std::time::Instant::now();
        let err = f.call(r, shout, args, &policy).unwrap_err();
        assert!(matches!(err, WeaveError::Timeout { waited_ms: 30 }), "{err}");
        assert!(start.elapsed() < Duration::from_secs(2));
        assert!(f.faults().unwrap().stats().snapshot().dropped >= 1);
        // Clearing the plan restores the faithful network.
        f.clear_faults();
        let args = f.marshal().encode_args("Echo", "shout", &args!["y".to_string()]).unwrap();
        assert!(f.call(r, shout, args, &policy).is_ok());
    }

    #[test]
    fn policy_retries_recover_from_transient_drops() {
        use crate::faults::{FaultAction, FaultPlan, FaultRule, RequestClass};
        use crate::policy::{Backoff, CallPolicy};
        use std::time::Duration;

        let f = fabric();
        let ctor = f.marshal().encode_args("Echo", "new", &args!["n".to_string()]).unwrap();
        let r = f.construct_on(1, "Echo", ctor).unwrap();
        let shout = f.marshal().method_id("Echo", "shout").unwrap();
        // Lose the first two replied deliveries, then behave.
        f.install_faults(Arc::new(
            FaultPlan::seeded(3)
                .rule(FaultRule::on(RequestClass::Call, FaultAction::Drop).times(2)),
        ));
        let policy = CallPolicy::with_deadline(Duration::from_millis(25))
            .retries(3)
            .backoff(Backoff { base: Duration::from_millis(1), max: Duration::from_millis(4) })
            .seed(42);
        let args = f.marshal().encode_args("Echo", "shout", &args!["hi".to_string()]).unwrap();
        let reply = f.call(r, shout, args, &policy).unwrap();
        let ret = f.marshal().decode_ret("Echo", "shout", &reply).unwrap();
        assert_eq!(*ret.downcast::<String>().unwrap(), "n:hi");
        assert_eq!(f.faults().unwrap().stats().snapshot().dropped, 2);
    }

    #[test]
    fn migrate_to_dead_node_leaves_source_intact() {
        let f = fabric();
        let ctor = f.marshal().encode_args("Echo", "new", &args!["m".to_string()]).unwrap();
        let r = f.construct_on(0, "Echo", ctor).unwrap();
        f.kill_node(2).unwrap();
        let err = f.migrate(r, "Echo", 2).unwrap_err();
        assert!(matches!(err, WeaveError::NodeDown { node: 2 }), "{err}");
        // No state left the source: the original reference still answers.
        assert_eq!(shout_on(&f, r, "ok").unwrap(), "m:ok");
    }

    #[test]
    fn installed_metrics_expose_fabric_traffic() {
        use crate::faults::{FaultAction, FaultPlan, FaultRule, RequestClass};
        use crate::policy::{Backoff, CallPolicy};
        use std::time::Duration;

        let registry = MetricsRegistry::new();
        let f = fabric();
        f.install_metrics(&registry, "fabric");
        let ctor = f.marshal().encode_args("Echo", "new", &args!["n".to_string()]).unwrap();
        let r = f.construct_on(0, "Echo", ctor).unwrap();
        let shout = f.marshal().method_id("Echo", "shout").unwrap();

        // Replied, oneway and packed traffic.
        f.call(r, shout, shout_args(&f, "a"), &CallPolicy::unbounded()).unwrap();
        f.send(r, shout, shout_args(&f, "b")).unwrap();
        assert_eq!(f.submit_pack(0, shouts(&f, r, 4)).unwrap(), 4);

        // A retried-then-recovered policy call ticks retries.
        f.install_faults(Arc::new(
            FaultPlan::seeded(3)
                .rule(FaultRule::on(RequestClass::Call, FaultAction::Drop).times(1)),
        ));
        let policy = CallPolicy::with_deadline(Duration::from_millis(25))
            .retries(3)
            .backoff(Backoff { base: Duration::from_millis(1), max: Duration::from_millis(2) })
            .seed(7);
        let args = f.marshal().encode_args("Echo", "shout", &args!["c".to_string()]).unwrap();
        f.call(r, shout, args, &policy).unwrap();
        f.clear_faults();

        let snap = registry.snapshot();
        assert_eq!(snap.counter("fabric.calls"), Some(2));
        assert_eq!(snap.counter("fabric.oneway"), Some(1));
        assert_eq!(snap.counter("fabric.packs"), Some(1));
        assert_eq!(snap.counter("fabric.packed_calls"), Some(4));
        assert!(snap.counter("fabric.retries").unwrap() >= 1);
        assert!(snap.counter("fabric.timeouts").unwrap() >= 1);
        assert_eq!(snap.gauge("fabric.in_flight"), Some(0), "nothing parked when idle");
        // The finished replied calls returned their cells to the pool.
        assert_eq!(snap.gauge("fabric.reply_slots_pooled"), Some(f.replies.pooled() as u64));
    }

    #[test]
    fn a_lone_callers_replied_calls_are_all_served_inline() {
        watchdog("lone caller", || {
            let f = fabric();
            let (r, shout, registry) = idle_echo(&f);
            let (calls, inline) = counters(&registry);
            for i in 0..1000 {
                let reply =
                    f.call(r, shout, shout_args(&f, "x"), &CallPolicy::unbounded()).unwrap();
                f.buffers().recycle(reply);
                // So are deadline-less calls that may retry.
                if i % 10 == 0 {
                    let policy = CallPolicy::unbounded().retries(2);
                    f.call(r, shout, shout_args(&f, "y"), &policy).unwrap();
                }
            }
            let (calls_now, inline_now) = counters(&registry);
            assert_eq!(calls_now - calls, 1100);
            assert_eq!(inline_now - inline, 1100, "served_inline == calls for a lone caller");
            assert_eq!(registry.snapshot().gauge("fabric.in_flight"), Some(0));
        });
    }

    #[test]
    fn a_call_with_a_deadline_is_never_served_inline() {
        watchdog("deadline queues", || {
            let f = fabric();
            let (r, shout, registry) = idle_echo(&f);
            let (_, inline) = counters(&registry);
            let patient = CallPolicy::with_deadline(Duration::from_secs(30));
            let args = shout_args(&f, "x");
            f.call(r, shout, args, &patient).unwrap();
            assert_eq!(counters(&registry).1, inline, "a deadline keeps the call on the queue");

            // And the deadline works: a served call that blocks times out.
            let ctor = f.marshal().encode_args("Probe", "new", &args![]).unwrap();
            let probe = f.construct_on(0, "Probe", ctor).unwrap();
            let hold = f.marshal().method_id("Probe", "hold").unwrap();
            let held = latch();
            let args = f.marshal().encode_args("Probe", "hold", &args![held.key]).unwrap();
            let hasty = CallPolicy::with_deadline(Duration::from_millis(20));
            let err = f.call(probe, hold, args, &hasty).unwrap_err();
            assert!(matches!(err, WeaveError::Timeout { waited_ms: 20 }), "{err}");
            held.release.send(()).unwrap();
            assert_eq!(registry.snapshot().counter("fabric.timeouts"), Some(1));
        });
    }

    #[test]
    fn a_fault_decision_is_taken_before_the_inline_path() {
        use crate::faults::{FaultAction, FaultPlan, FaultRule, RequestClass};

        watchdog("faults first", || {
            let f = fabric();
            let (r, shout, registry) = idle_echo(&f);
            let (_, inline) = counters(&registry);
            // The node is idle, so without the plan this call would be served
            // inline. The plan crashes the node instead, and the call with it.
            f.install_faults(Arc::new(
                FaultPlan::seeded(5)
                    .rule(FaultRule::on(RequestClass::Call, FaultAction::CrashNode).times(1)),
            ));
            let err = f.call(r, shout, shout_args(&f, "x"), &CallPolicy::unbounded()).unwrap_err();
            assert!(matches!(err, WeaveError::NodeDown { node: 0 }), "{err}");
            assert_eq!(f.faults().unwrap().stats().snapshot().crashed, 1);
            assert_eq!(counters(&registry).1, inline);
        });
    }

    #[test]
    fn a_dedup_key_is_minted_only_for_a_fault_plan_or_a_retrying_policy() {
        watchdog("key minting", || {
            let f = fabric();
            let (r, shout, registry) = idle_echo(&f);
            let keys = || f.seq.load(Ordering::Relaxed);
            let call = |policy: CallPolicy| {
                f.call(r, shout, shout_args(&f, "x"), &policy).unwrap();
                counters(&registry).1
            };
            let (minted, inline) = (keys(), counters(&registry).1);
            assert_eq!(call(CallPolicy::unbounded()), inline + 1, "idle node: served inline");
            assert_eq!(keys(), minted, "the production fast path mints no key");
            assert_eq!(call(CallPolicy::unbounded().retries(1)), inline + 2);
            assert_eq!(keys(), minted + 1, "a call that may retry carries one");
            let patient = CallPolicy::with_deadline(Duration::from_secs(30));
            assert_eq!(call(patient), inline + 2, "a deadline queues");
            assert_eq!(keys(), minted + 1, "and mints nothing by itself");
        });
    }

    #[test]
    fn a_duplicated_send_executes_once() {
        use crate::faults::{FaultAction, FaultPlan, FaultRule, RequestClass};

        watchdog("duplicate send", || {
            let f = fabric();
            let (r, shout, _) = idle_echo(&f);
            let heard = || {
                let id = f.marshal().method_id("Echo", "heard").unwrap();
                let args = f.marshal().encode_args("Echo", "heard", &args![]).unwrap();
                let reply = f.call(r, id, args, &CallPolicy::unbounded()).unwrap();
                *f.marshal().decode_ret("Echo", "heard", &reply).unwrap().downcast::<u64>().unwrap()
            };
            let (before, minted) = (heard(), f.seq.load(Ordering::Relaxed));
            f.send(r, shout, shout_args(&f, "x")).unwrap();
            assert_eq!(f.seq.load(Ordering::Relaxed), minted, "no plan, no key");
            let plan = Arc::new(
                FaultPlan::seeded(9)
                    .rule(FaultRule::on(RequestClass::Oneway, FaultAction::Duplicate)),
            );
            f.install_faults(plan.clone());
            f.send(r, shout, shout_args(&f, "y")).unwrap();
            f.clear_faults();
            assert_eq!(plan.stats().snapshot().duplicated, 1);
            // The replied call queues behind all three deliveries.
            assert_eq!(heard(), before + 2, "the duplicate carried its original's key");
        });
    }

    #[test]
    fn nameserver_is_shared() {
        let f = fabric();
        let ctor = f.marshal().encode_args("Echo", "new", &args!["n".to_string()]).unwrap();
        let r = f.construct_on(1, "Echo", ctor).unwrap();
        let name = f.nameserver().next_name("PS");
        f.nameserver().rebind(&name, r);
        assert_eq!(f.nameserver().lookup(&name).unwrap(), r);
    }
}
