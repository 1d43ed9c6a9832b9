//! A simulated cluster node: a mailbox and a serve token.
//!
//! This is the paper's Figure 15 server side — `PrimeFilter.main` with a
//! receive loop that takes messages off the wire and dispatches them to the
//! local object — generalised to serve constructions and arbitrary method
//! calls for any registered class.
//!
//! The mailbox is a mutex over the request queue, plus a condvar, and the
//! node's `Server` (`server.rs`: weaver, codecs, dedup window, everything
//! serving needs) under a mutex of its own. That second mutex is the **serve
//! token**: whoever holds it serves. The `node-N` thread takes it once
//! requests are queued, waiting for it if need be, and drains the queue; a
//! caller of a replied request that finds the node idle takes it instead
//! with one `try_lock` ([`NodeRuntime::call_inline`]) and runs
//! `Server::replied_call`, the function the node thread runs, on its own
//! thread: no hand-off, no reply rendezvous (Bershad et al., "Lightweight
//! Remote Procedure Call"). Giving it back is the unlock, which wakes the
//! node thread if it waits for the token. The rules:
//!
//! * **Per-sender FIFO.** The token is only taken inline while the queue is
//!   empty (a flag mirrors it outside the queue's lock), and the node thread
//!   pops only while it holds the token, so a caller's earlier oneway calls
//!   and packs run before its replied request.
//! * **Faults first.** The fabric takes a fault plan's decision once per
//!   attempt, before delivery; only an unfaulted delivery is served inline,
//!   and its dedup key travels with it (both paths share one window).
//! * **Deadlines queue.** A thread cannot time out of its own stack, so a
//!   call with a deadline is never served inline. Neither are oneway calls
//!   and packs. A construct, snapshot or restore has no deadline and is
//!   served inline like a call.
//! * **Clean context.** An inline call runs with the caller's weaving
//!   context and batch scopes set aside. Object monitors belong to threads
//!   and stay, and the token counts as one more (`object::monitors_held`):
//!   served on a pool worker, a join inside the call blocks rather than
//!   helps — a helped task calling this node would queue behind a token only
//!   the stack beneath it can return.
//! * **Kill** fails everything queued promptly; a call already executing,
//!   on either thread, completes.
//! * **Panics are contained.** A served method that panics fails its own
//!   call with a typed error and marks the node down; the token goes back.
//!
//! Requests carry interned [`MethodId`]/[`ClassId`] handles, not strings:
//! resolving the codec on the serving side is an array index, and the method
//! *name* needed for dispatch comes from the registry's `Arc<str>` boundary
//! copy. A reply is encoded into its request's argument frame, or into one
//! drawn from a shared [`BufPool`] when the request has none, and a
//! [`Request::CallPack`] frame executes many oneway calls from one queue
//! wakeup with no intermediate allocation (the pack's argument views are
//! zero-copy slices of the frame).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard};

use weavepar_weave::{ObjId, WeaveError, WeaveResult, Weaveable, Weaver};

use crate::pool::{BufPool, SlotReply};
use crate::server::{DedupWindow, Server};
use crate::wire::{ClassId, MarshalRegistry, MethodId};

/// A request arriving at a node. A reply travels as bytes through a pooled
/// reply cell; an object id is its 8 [`Wire`](crate::wire::Wire) bytes.
pub enum Request {
    /// An operation whose answer goes back through a reply cell.
    Replied {
        /// What to serve.
        op: Op,
        /// Serving half of the reply cell for the marshalled answer.
        reply: SlotReply,
    },
    /// Invoke `method` on object `obj` with marshalled arguments, with no
    /// reply (MPP-style send).
    Oneway {
        /// Target object on this node.
        obj: ObjId,
        /// Interned method id.
        method: MethodId,
        /// Marshalled arguments.
        args: Bytes,
        /// At-most-once dedup key, as for [`Op::Call`]: a duplicate
        /// delivery is dropped.
        seq: Option<u64>,
    },
    /// A framed pack of oneway calls (see
    /// [`PackFrame`](crate::wire::PackFrame) for the layout): one submit,
    /// one wakeup, many executions.
    CallPack {
        /// The framed calls.
        frame: Bytes,
    },
}

/// What a replied request asks of a node. One function serves each, queued
/// or on an idle node's caller (`Server::replied_call`).
pub enum Op {
    /// Invoke `method` on object `obj`; the reply is the marshalled return
    /// value, written into the argument frame.
    Call {
        /// Target object on this node.
        obj: ObjId,
        /// Interned method id.
        method: MethodId,
        /// Marshalled arguments.
        args: Bytes,
        /// At-most-once dedup key: a retried or duplicated delivery carrying
        /// a `seq` already in the node's dedup window is never executed
        /// again — it gets the cached reply. `None` (the default fast path)
        /// skips the window entirely.
        seq: Option<u64>,
    },
    /// Create an instance from marshalled constructor arguments; the reply
    /// is the new object's id. `ctor` is the interned id of the class's
    /// `"new"` method — it names both the class and the argument codec.
    Construct {
        /// Interned id of `Class.new`.
        ctor: MethodId,
        /// Marshalled constructor arguments.
        args: Bytes,
    },
    /// Snapshot (and optionally remove) an object's state for migration;
    /// the reply is the marshalled state.
    Snapshot {
        /// Object to snapshot.
        obj: ObjId,
        /// Remove the object after snapshotting (move semantics).
        remove: bool,
    },
    /// Rebuild an instance of `class` from snapshotted state; the reply is
    /// the new object's id.
    Restore {
        /// Interned class id (must have a registered state codec).
        class: ClassId,
        /// Marshalled state.
        state: Bytes,
    },
}

impl Request {
    /// Fail the request's reply path with `err`; oneway requests are
    /// silently dropped (they have nowhere to report to).
    pub(crate) fn fail(self, err: WeaveError) {
        if let Request::Replied { reply, .. } = self {
            reply.send(Err(err));
        }
    }
}

/// What the mailbox's mutex guards.
struct State {
    queue: VecDeque<Request>,
    /// Killed or dropped: nothing more is accepted, and the node thread
    /// exits once the queue is drained.
    closed: bool,
    /// The node thread sleeps on `ready`. Whoever wakes it clears the flag,
    /// so a burst of submits pays for one wake-up.
    parked: bool,
}

/// A node's request queue and serve token (see the module docs).
pub(crate) struct Mailbox {
    state: Mutex<State>,
    ready: Condvar,
    /// `state.queue` is not empty: what an inline caller checks instead of
    /// taking the queue's lock. Written under that lock.
    backlog: AtomicBool,
    /// The serve token.
    server: Mutex<Server>,
}

impl Mailbox {
    /// Enqueue `request`, or hand it back when the mailbox is closed. If an
    /// inline caller holds the token, the woken node thread waits for it.
    pub(crate) fn push(&self, request: Request) -> Result<(), Request> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(request);
        }
        state.queue.push_back(request);
        self.backlog.store(true, Ordering::Release);
        self.wake(state);
        Ok(())
    }

    /// Accept nothing more; the node thread drains the queue and exits.
    fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        self.wake(state);
    }

    /// Release the lock, then wake the node thread if it sleeps.
    fn wake(&self, mut state: MutexGuard<'_, State>) {
        let parked = std::mem::take(&mut state.parked);
        drop(state);
        if parked {
            self.ready.notify_one();
        }
    }

    /// The `node-N` thread: whenever requests are queued, take the token
    /// and serve until the queue is empty.
    fn serve(&self) {
        let mut state = self.state.lock();
        loop {
            if !state.queue.is_empty() {
                // Token before queue, as an inline caller that queues a
                // nested request takes them; only this thread pops.
                drop(state);
                let mut server = self.server.lock();
                state = self.state.lock();
                // Popping only with the token in hand keeps per-sender FIFO
                // against callers that serve themselves.
                while let Some(request) = state.queue.pop_front() {
                    self.backlog.store(!state.queue.is_empty(), Ordering::Release);
                    drop(state);
                    server.handle(request);
                    state = self.state.lock();
                }
            } else if state.closed {
                return;
            } else {
                state.parked = true;
                self.ready.wait(&mut state);
            }
        }
    }
}

/// One in-process "cluster node".
pub struct NodeRuntime {
    id: usize,
    weaver: Weaver,
    mailbox: Arc<Mailbox>,
    handle: Option<JoinHandle<()>>,
    down: Arc<AtomicBool>,
    woven: Arc<AtomicBool>,
}

impl NodeRuntime {
    /// Spawn the node's server thread with a private buffer pool.
    pub fn spawn(id: usize, marshal: MarshalRegistry) -> Self {
        Self::spawn_with_pool(id, marshal, Arc::new(BufPool::new()))
    }

    /// Spawn the node's server thread, recycling reply frames through the
    /// given pool (the fabric shares one pool across nodes and clients).
    pub fn spawn_with_pool(id: usize, marshal: MarshalRegistry, pool: Arc<BufPool>) -> Self {
        let weaver = Weaver::new();
        let woven = Arc::new(AtomicBool::new(false));
        let down = Arc::new(AtomicBool::new(false));
        let server = Server {
            id,
            weaver: weaver.clone(),
            marshal,
            woven: woven.clone(),
            down: down.clone(),
            pool,
            dedup: DedupWindow::new(4096),
        };
        let mailbox = Arc::new(Mailbox {
            state: Mutex::new(State { queue: VecDeque::new(), closed: false, parked: false }),
            ready: Condvar::new(),
            backlog: AtomicBool::new(false),
            server: Mutex::new(server),
        });
        let served = mailbox.clone();
        let handle = std::thread::Builder::new()
            .name(format!("node-{id}"))
            .spawn(move || served.serve())
            .expect("spawning node thread");
        NodeRuntime { id, weaver, mailbox, handle: Some(handle), down, woven }
    }

    /// Failure injection: mark the node as crashed. Every later submission
    /// fails with a [`WeaveError::NodeDown`], and requests already queued are
    /// failed promptly instead of executing — callers blocked on a reply see
    /// the error as soon as the server reaches their request (the
    /// `RemoteException` the paper's Figure 14 wraps in try/catch).
    ///
    /// The kill linearises on the `down` flag, set *before* the mailbox is
    /// closed under its lock: a concurrent [`NodeRuntime::submit`] either
    /// got its request in first (the server re-checks the flag per request
    /// and fails it) or finds the mailbox closed. Either way no request
    /// starts executing after the kill, and none is stranded.
    pub fn kill(&self) {
        self.down.store(true, Ordering::SeqCst);
        self.mailbox.close();
    }

    /// Is the node marked as crashed?
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Server-side weaving: when enabled, incoming calls dispatch through
    /// the node weaver's full join-point pipeline, so aspects plugged on the
    /// *node's* weaver apply to remote executions — the paper's MPP sketch,
    /// where the server JVM runs woven code too.
    pub fn set_woven(&self, woven: bool) {
        self.woven.store(woven, Ordering::SeqCst);
    }

    /// This node's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's weaver (its private object space). Exposed so tests and
    /// applications can register classes and inspect server-side state.
    pub fn weaver(&self) -> &Weaver {
        &self.weaver
    }

    /// Register a class on this node so construct/call requests can resolve
    /// it by name.
    pub fn register_class<T: Weaveable>(&self) {
        self.weaver.register_class::<T>();
    }

    /// Submit a request to the node's queue.
    pub fn submit(&self, request: Request) -> WeaveResult<()> {
        if self.is_down() {
            return Err(WeaveError::NodeDown { node: self.id });
        }
        self.mailbox.push(request).map_err(|_| WeaveError::NodeDown { node: self.id })
    }

    /// Serve one replied request on the calling thread if the node is idle
    /// (up, nothing queued, token in the mailbox); `Err` hands the operation
    /// back for [`NodeRuntime::submit`]. It sees none of the caller's
    /// weaving context or batch scopes, exactly as on the node thread.
    ///
    /// Down is checked, not closed: a mailbox is closed only by a kill,
    /// which marks the node down first, or by the runtime's drop.
    pub fn call_inline(&self, op: Op) -> Result<WeaveResult<Bytes>, Op> {
        if self.is_down() || self.mailbox.backlog.load(Ordering::Acquire) {
            return Err(op);
        }
        let Some(mut server) = self.mailbox.server.try_lock() else { return Err(op) };
        let _fresh = weavepar_concurrency::batch::set_aside();
        let _token = weavepar_weave::object::Held::new();
        Ok(server.replied_call(op))
    }

    /// Requests queued and not yet popped: what a test waits on, not a sleep.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.mailbox.state.lock().queue.len()
    }

    /// The mailbox itself, for delivery-injection threads that enqueue late
    /// and cannot borrow the runtime: by then a killed node's mailbox is
    /// closed, or its server fails the request — it never executes.
    pub(crate) fn mailbox(&self) -> Arc<Mailbox> {
        self.mailbox.clone()
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        // Not a kill: what is still queued executes before the thread exits.
        self.mailbox.close();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for NodeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRuntime")
            .field("id", &self.id)
            .field("objects", &self.weaver.space().len())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pool::{ReplyCell, ReplyPool};
    use crate::wire::Wire;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
    use weavepar_weave::WeaveResult as WR;

    struct Adder {
        total: u64,
    }

    weavepar_weave::weaveable! {
        class Adder as AdderProxy {
            fn new(start: u64) -> Self { Adder { total: start } }
            fn add(&mut self, x: u64) -> u64 {
                self.total += x;
                self.total
            }
        }
    }

    /// Rendezvous for a served `Probe.hold(key)`: the call announces itself
    /// on `entered`, then blocks until the test sends on `release`.
    pub(crate) struct Latch {
        pub(crate) entered: Receiver<()>,
        pub(crate) release: SyncSender<()>,
        pub(crate) key: u64,
    }

    type LatchEnds = (u64, SyncSender<()>, Receiver<()>);
    static LATCHES: Mutex<Vec<LatchEnds>> = Mutex::new(Vec::new());

    pub(crate) fn latch() -> Latch {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let key = NEXT.fetch_add(1, Ordering::Relaxed);
        let (entered_tx, entered) = sync_channel(1);
        let (release, release_rx) = sync_channel(1);
        LATCHES.lock().push((key, entered_tx, release_rx));
        Latch { entered, release, key }
    }

    fn hold_latch(key: u64) {
        let (_, entered, release) = {
            let mut latches = LATCHES.lock();
            let at = latches.iter().position(|l| l.0 == key).expect("latch registered");
            latches.swap_remove(at)
        };
        entered.send(()).unwrap();
        release.recv().unwrap();
    }

    pub(crate) struct Probe;

    weavepar_weave::weaveable! {
        class Probe as ProbeProxy {
            fn new() -> Self { Probe }
            fn hold(&mut self, key: u64) -> u64 {
                crate::node::tests::hold_latch(key);
                key
            }
            fn on_node_thread(&mut self) -> u64 {
                std::thread::current().name().is_some_and(|n| n.starts_with("node-")) as u64
            }
            fn explode(&mut self) -> u64 {
                panic!("boom")
            }
        }
    }

    fn marshal() -> MarshalRegistry {
        let m = MarshalRegistry::new();
        m.register::<(u64,), ()>("Adder", "new");
        m.register::<(u64,), u64>("Adder", "add");
        m.register::<(), ()>("Probe", "new");
        m.register::<(u64,), u64>("Probe", "hold");
        m.register::<(), u64>("Probe", "on_node_thread");
        m.register::<(), u64>("Probe", "explode");
        m
    }

    /// Run `f` on its own thread and fail, instead of hanging the suite, if
    /// it does not finish.
    pub(crate) fn watchdog(what: &str, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = sync_channel(1);
        std::thread::spawn(move || {
            f();
            tx.send(())
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{what}: hung"));
    }

    /// A node with an `Adder(0)` and a `Probe` on it.
    fn probed_node(m: &MarshalRegistry) -> (NodeRuntime, ObjId, ObjId) {
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        node.register_class::<Probe>();
        let adder = construct_adder(&node, m, 0).unwrap();
        let no_args = m.encode_args("Probe", "new", &weavepar_weave::args![]).unwrap();
        let probe = construct(&node, m, "Probe", no_args).unwrap();
        (node, adder, probe)
    }

    /// A replied call the way the fabric delivers it: inline if the node is
    /// idle, else queued. Returns the decoded `u64` and whether it was inline.
    fn replied(
        node: &NodeRuntime,
        m: &MarshalRegistry,
        obj: ObjId,
        (class, method): (&str, &str),
        args: weavepar_weave::Args,
        seq: Option<u64>,
    ) -> WR<(u64, bool)> {
        let id = m.method_id(class, method)?;
        let args = m.encode_args(class, method, &args)?;
        let (ret, inline) = match node.call_inline(Op::Call { obj, method: id, args, seq }) {
            Ok(result) => (result?, true),
            Err(Op::Call { args, .. }) => (queued(node, obj, id, args, seq)?.take()??, false),
            Err(_) => unreachable!("the call comes back"),
        };
        Ok((*m.decode_ret(class, method, &ret)?.downcast::<u64>().unwrap(), inline))
    }

    /// Queue a replied call the way the fabric does: the request carries the
    /// serving half of a reply cell, the caller takes the cell.
    fn queued(
        node: &NodeRuntime,
        obj: ObjId,
        method: MethodId,
        args: Bytes,
        seq: Option<u64>,
    ) -> WR<ReplyCell> {
        let (cell, reply) = ReplyPool::new().checkout();
        node.submit(Request::Replied { op: Op::Call { obj, method, args, seq }, reply })?;
        Ok(cell)
    }

    /// A queued `Adder.add(x)`, decoded.
    fn queued_add(node: &NodeRuntime, m: &MarshalRegistry, obj: ObjId, x: u64) -> WR<u64> {
        let add = m.method_id("Adder", "add")?;
        let ret = queued(node, obj, add, add_args(m, x), None)?.take()??;
        Ok(*m.decode_ret("Adder", "add", &ret)?.downcast::<u64>().unwrap())
    }

    fn construct(node: &NodeRuntime, m: &MarshalRegistry, class: &str, args: Bytes) -> WR<ObjId> {
        let (cell, reply) = ReplyPool::new().checkout();
        let ctor = m.method_id(class, "new")?;
        node.submit(Request::Replied { op: Op::Construct { ctor, args }, reply })?;
        ObjId::decode(&mut cell.take()??)
    }

    fn construct_adder(node: &NodeRuntime, m: &MarshalRegistry, start: u64) -> WR<ObjId> {
        let args = m.encode_args("Adder", "new", &weavepar_weave::args![start]).unwrap();
        construct(node, m, "Adder", args)
    }

    fn add_args(m: &MarshalRegistry, x: u64) -> Bytes {
        m.encode_args("Adder", "add", &weavepar_weave::args![x]).unwrap()
    }

    #[test]
    fn construct_and_call_roundtrip() {
        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        let obj = construct_adder(&node, &m, 10).unwrap();
        assert_eq!(queued_add(&node, &m, obj, 5).unwrap(), 15);
    }

    #[test]
    fn oneway_calls_execute() {
        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        let obj = construct_adder(&node, &m, 0).unwrap();
        let add = m.method_id("Adder", "add").unwrap();
        for _ in 0..3 {
            node.submit(Request::Oneway { obj, method: add, args: add_args(&m, 1), seq: None })
                .unwrap();
        }
        // Synchronise via a replied call.
        assert_eq!(queued_add(&node, &m, obj, 0).unwrap(), 3);
    }

    #[test]
    fn call_pack_executes_all_entries() {
        use crate::wire::PackFrame;
        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        let obj = construct_adder(&node, &m, 0).unwrap();
        let add = m.method_id("Adder", "add").unwrap();
        let mut frame = PackFrame::new(bytes::BytesMut::new());
        for _ in 0..10 {
            frame.push(obj, add, &m, &weavepar_weave::args![1u64]).unwrap();
        }
        node.submit(Request::CallPack { frame: frame.finish() }).unwrap();
        // Synchronise via a replied call: queue order is execution order.
        assert_eq!(queued_add(&node, &m, obj, 0).unwrap(), 10);
    }

    #[test]
    fn unknown_class_fails_cleanly() {
        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        // Class NOT registered on the node.
        let err = construct_adder(&node, &m, 1).unwrap_err();
        assert!(matches!(err, weavepar_weave::WeaveError::Construction(_)));
    }

    #[test]
    fn call_on_missing_object_fails_cleanly() {
        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        assert!(queued_add(&node, &m, ObjId::from_raw(404), 1).is_err());
    }

    #[test]
    fn killed_node_rejects_new_requests() {
        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        let obj = construct_adder(&node, &m, 0).unwrap();
        assert!(!node.is_down());
        node.kill();
        assert!(node.is_down());
        let err = queued_add(&node, &m, obj, 1).unwrap_err();
        assert!(matches!(err, weavepar_weave::WeaveError::NodeDown { node: 0 }));
        // Nor is anything served inline after the kill.
        let add = m.method_id("Adder", "add").unwrap();
        let args = add_args(&m, 1);
        assert!(node.call_inline(Op::Call { obj, method: add, args, seq: None }).is_err());
    }

    #[test]
    fn kill_fails_queued_requests_promptly() {
        let m = marshal();
        let (node, adder, probe) = probed_node(&m);
        // Occupy the serve loop with a blocking oneway call...
        let held = latch();
        node.submit(Request::Oneway {
            obj: probe,
            method: m.method_id("Probe", "hold").unwrap(),
            args: m.encode_args("Probe", "hold", &weavepar_weave::args![held.key]).unwrap(),
            seq: None,
        })
        .unwrap();
        held.entered.recv().unwrap();
        // ...queue a replied call behind it...
        let add = m.method_id("Adder", "add").unwrap();
        let pending = queued(&node, adder, add, add_args(&m, 1), None).unwrap();
        // ...kill the node while the call is queued, then release the latch.
        node.kill();
        held.release.send(()).unwrap();
        // The queued caller must be failed, not executed or stranded.
        let err = pending.take().unwrap().unwrap_err();
        assert!(matches!(err, weavepar_weave::WeaveError::NodeDown { node: 0 }));
    }

    #[test]
    fn a_construct_refused_by_a_closed_mailbox_answers_its_ticket_when_dropped() {
        watchdog("refused construct", || {
            let m = marshal();
            let node = NodeRuntime::spawn(0, m.clone());
            node.kill();
            let pool = ReplyPool::new();
            let (cell, reply) = pool.checkout();
            let ctor = m.method_id("Adder", "new").unwrap();
            let args = m.encode_args("Adder", "new", &weavepar_weave::args![1u64]).unwrap();
            // A delayed delivery holds the mailbox, not the runtime, and finds
            // it closed: the request comes back, and dropping it answers.
            let refused =
                node.mailbox().push(Request::Replied { op: Op::Construct { ctor, args }, reply });
            drop(refused.expect_err("a closed mailbox hands the request back"));
            assert!(matches!(cell.take().unwrap(), Err(WeaveError::Remote(_))));
            pool.finish(cell);
            assert_eq!(pool.pooled(), 1, "an answered cell goes back to the pool");
        });
    }

    #[test]
    fn kill_linearises_against_concurrent_submits() {
        // A submit racing the kill must either be rejected up front or have
        // its request drained-and-failed — never stranded in a queue nobody
        // serves. Run several rounds; each round hammers submits from two
        // threads while the main thread kills the node, then asserts every
        // accepted replied call got an answer.
        for _round in 0..8 {
            let m = marshal();
            let node = Arc::new(NodeRuntime::spawn(3, m.clone()));
            node.register_class::<Adder>();
            let obj = construct_adder(&node, &m, 0).unwrap();
            let add = m.method_id("Adder", "add").unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let mut submitters = Vec::new();
            for _ in 0..2 {
                let node = node.clone();
                let m = m.clone();
                let stop = stop.clone();
                submitters.push(std::thread::spawn(move || {
                    let mut accepted = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        if let Ok(cell) = queued(&node, obj, add, add_args(&m, 1), None) {
                            accepted.push(cell);
                        }
                    }
                    accepted
                }));
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            node.kill();
            stop.store(true, Ordering::SeqCst);
            for handle in submitters {
                for cell in handle.join().unwrap() {
                    // Every accepted call gets a reply (value before the kill,
                    // NodeDown after) within a bounded wait — no stranding.
                    let within = std::time::Instant::now() + std::time::Duration::from_secs(5);
                    let answer = cell.take_until(Some(within)).unwrap();
                    assert!(answer.is_some(), "accepted call must be answered");
                }
            }
            // And the node still shuts down cleanly.
            drop(node);
        }
    }

    #[test]
    fn server_side_weaving_applies_node_aspects() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use weavepar_weave::prelude::*;

        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        let fired = std::sync::Arc::new(AtomicU64::new(0));
        let fired2 = fired.clone();
        node.weaver().plug(
            Aspect::named("ServerLogging")
                .before(Pointcut::call("Adder.add"), move |_| {
                    fired2.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                })
                .build(),
        );
        let obj = construct_adder(&node, &m, 0).unwrap();
        let send = |obj| queued_add(&node, &m, obj, 1).unwrap();
        // Unwoven (default): server aspects do not apply.
        send(obj);
        assert_eq!(fired.load(Ordering::Relaxed), 0);
        // Woven: they do.
        node.set_woven(true);
        send(obj);
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        node.set_woven(false);
        send(obj);
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dedup_window_suppresses_duplicate_deliveries() {
        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        let obj = construct_adder(&node, &m, 0).unwrap();
        let add = m.method_id("Adder", "add").unwrap();
        // Same seq delivered twice as a oneway: the add executes once.
        for _ in 0..2 {
            node.submit(Request::Oneway { obj, method: add, args: add_args(&m, 5), seq: Some(7) })
                .unwrap();
        }
        // A replied call duplicated under one seq: executed once, the second
        // delivery answered from the cached reply.
        let replies: Vec<_> =
            (0..2).map(|_| queued(&node, obj, add, add_args(&m, 1), Some(8)).unwrap()).collect();
        for cell in replies {
            let ret = cell.take().unwrap().unwrap();
            let v = m.decode_ret("Adder", "add", &ret).unwrap();
            // 0 + 5 (executed once) + 1 (executed once) — both deliveries of
            // the replied call see the same total.
            assert_eq!(*v.downcast::<u64>().unwrap(), 6);
        }
    }

    #[test]
    fn dedup_window_evicts_oldest_entries() {
        let mut w = DedupWindow::new(2);
        w.record(1, None);
        w.record(2, None);
        w.record(3, None);
        assert!(w.check(1).is_none(), "oldest entry evicted at capacity");
        assert!(w.check(2).is_some());
        assert!(w.check(3).is_some());
    }

    #[test]
    fn an_idle_node_serves_a_replied_call_on_the_callers_thread() {
        watchdog("inline serve", || {
            let m = marshal();
            let (node, adder, probe) = probed_node(&m);
            let no_args = || weavepar_weave::args![];
            let where_ = ("Probe", "on_node_thread");
            // The construct replies came back, but the node thread may still
            // be putting the token down: retry until a call is taken inline.
            let mut served = replied(&node, &m, probe, where_, no_args(), None).unwrap();
            while !served.1 {
                served = replied(&node, &m, probe, where_, no_args(), None).unwrap();
            }
            assert_eq!(served, (0, true), "an inline call runs on the caller's thread");
            // While the node thread serves (it holds the token inside `hold`)
            // nothing is taken inline, and what queues runs there, in order.
            let held = latch();
            let hold = m.method_id("Probe", "hold").unwrap();
            let args = m.encode_args("Probe", "hold", &weavepar_weave::args![held.key]).unwrap();
            node.submit(Request::Oneway { obj: probe, method: hold, args, seq: None }).unwrap();
            held.entered.recv().unwrap();
            let add = m.method_id("Adder", "add").unwrap();
            let args = add_args(&m, 1);
            assert!(node
                .call_inline(Op::Call { obj: adder, method: add, args, seq: None })
                .is_err());
            for _ in 0..100 {
                let args = add_args(&m, 1);
                node.submit(Request::Oneway { obj: adder, method: add, args, seq: None }).unwrap();
            }
            let pending = queued(
                &node,
                probe,
                m.method_id("Probe", "on_node_thread").unwrap(),
                m.encode_args("Probe", "on_node_thread", &no_args()).unwrap(),
                None,
            )
            .unwrap();
            held.release.send(()).unwrap();
            let ret = pending.take().unwrap().unwrap();
            let on_node = m.decode_ret("Probe", "on_node_thread", &ret).unwrap();
            assert_eq!(*on_node.downcast::<u64>().unwrap(), 1);
            // Per-sender FIFO: the replied call, inline or not, sees all 100.
            let total =
                replied(&node, &m, adder, ("Adder", "add"), weavepar_weave::args![0u64], None);
            assert_eq!(total.unwrap().0, 100);
        });
    }

    #[test]
    fn dedup_keys_travel_to_the_inline_path() {
        watchdog("inline dedup", || {
            let m = marshal();
            let (node, adder, _) = probed_node(&m);
            let add = ("Adder", "add");
            // One seq delivered three times, inline or queued: executed once.
            for _ in 0..3 {
                let got = replied(&node, &m, adder, add, weavepar_weave::args![5u64], Some(9));
                assert_eq!(got.unwrap().0, 5);
            }
            let got = replied(&node, &m, adder, add, weavepar_weave::args![0u64], None);
            assert_eq!(got.unwrap().0, 5);
        });
    }

    #[test]
    fn a_panicking_served_method_fails_only_its_call_and_downs_the_node() {
        watchdog("panic containment", || {
            let m = marshal();
            let explode = m.method_id("Probe", "explode").unwrap();
            let no_args = || m.encode_args("Probe", "explode", &weavepar_weave::args![]).unwrap();
            for on_queue in [false, true] {
                let (node, adder, probe) = probed_node(&m);
                let result = if on_queue {
                    // The node thread survives and answers.
                    queued(&node, probe, explode, no_args(), None).unwrap().take().unwrap()
                } else {
                    let mut op =
                        Op::Call { obj: probe, method: explode, args: no_args(), seq: None };
                    loop {
                        match node.call_inline(op) {
                            Ok(result) => break result,
                            Err(back) => op = back,
                        }
                    }
                };
                let err = result.expect_err("an Err, never an unwind");
                assert!(
                    matches!(&err, WeaveError::Remote(msg)
                        if msg.contains("node 0: served call panicked: boom")),
                    "queued={on_queue}: {err}"
                );
                assert!(node.is_down());
                let next =
                    replied(&node, &m, adder, ("Adder", "add"), weavepar_weave::args![1u64], None);
                assert!(matches!(next, Err(WeaveError::NodeDown { node: 0 })), "queued={on_queue}");
                // The token went back and the thread is alive: drop joins.
                drop(node);
            }
        });
    }

    #[test]
    fn drop_shuts_the_node_down() {
        let m = marshal();
        let node = NodeRuntime::spawn(7, m);
        assert_eq!(node.id(), 7);
        drop(node); // must join without hanging
    }
}
