//! The pluggable distribution aspects (paper §4.3, Figures 14 and 15) and
//! the communication-packing optimisation aspect (§4.4).
//!
//! Both distribution aspects perform the paper's four RMI code modifications
//! in one module:
//!
//! 1. the class is declared `Remote` (the inter-type class tag [`REMOTE_TAG`]);
//! 2. each construction additionally creates a server-side instance
//!    (selected by a [`Policy`]) and — in the RMI flavour — registers it in
//!    the name server under an automatic `PS<n>` name;
//! 3. the client obtains the remote reference (RMI: name-server lookup) and
//!    stores it as an inter-type field on the local stub ([`REMOTE_FIELD`],
//!    which, while this aspect is plugged, also keeps the synchronisation
//!    advice off the stub's monitor);
//! 4. matched calls are redirected to the remote instance, marshalled
//!    through the wire codec, with failures surfacing as
//!    [`WeaveError::Remote`] — the `RemoteException` analogue.
//!
//! The local object created by `proceed` acts as the client-side stub: it
//! keeps the object id (and monitor) that the rest of the aspect stack
//! works with, while calls are served by the remote instance.
//!
//! The call advice is allocation-free and takes no lock in the steady state:
//! a stub's remote reference and the called method's id are found together
//! in a lock-free cache (`StubCache`), argument packs are encoded into
//! pooled frames, and the reply, which comes back in the argument frame, is
//! recycled after decoding.
//!
//! [`message_packing_aspect`] is the paper's *communication packing*
//! optimisation as an unpluggable module: it runs at `OPTIMISATION`
//! precedence (outside distribution), captures matched oneway calls on
//! remote stubs, and appends them to a per-node [`PackFrame`] instead of
//! submitting them one by one. A pack ships when it reaches `max_calls`,
//! when the oldest buffered call exceeds `max_age` (checked on the next
//! append — adaptive, no timer thread), when a
//! [`BatchScope`](weavepar_concurrency::BatchScope) active on the calling
//! thread flushes, or on an explicit [`MessagePacker::flush`].

use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use weavepar_weave::aspect::precedence;
use weavepar_weave::intertype::REMOTE_TAG;
use weavepar_weave::prelude::*;
use weavepar_weave::{CallMeter, ClassId, MetricsRegistry};

use crate::fabric::{InProcFabric, RemoteRef};
use crate::policy::{lcg_next, CallPolicy};
use crate::wire::{MarshalRegistry, MethodId, PackFrame};

/// Node-selection policy (§4.3: "Several policies can be implemented in this
/// aspect (e.g., random, round-robin)").
#[derive(Clone, Debug)]
pub enum Policy {
    /// Cycle through the nodes.
    RoundRobin(Arc<AtomicUsize>),
    /// Always the same node.
    Fixed(usize),
    /// Pseudo-random node (deterministic LCG seeded explicitly).
    Random(Arc<Mutex<u64>>),
}

impl Policy {
    /// A fresh round-robin policy starting at node 0.
    pub fn round_robin() -> Self {
        Policy::RoundRobin(Arc::new(AtomicUsize::new(0)))
    }

    /// Always place on `node`.
    pub fn fixed(node: usize) -> Self {
        Policy::Fixed(node)
    }

    /// Seeded pseudo-random placement.
    pub fn random(seed: u64) -> Self {
        Policy::Random(Arc::new(Mutex::new(seed.max(1))))
    }

    /// Choose a node out of `nodes`.
    pub fn pick(&self, nodes: usize) -> usize {
        let nodes = nodes.max(1);
        match self {
            Policy::RoundRobin(next) => next.fetch_add(1, Ordering::Relaxed) % nodes,
            Policy::Fixed(node) => *node % nodes,
            Policy::Random(state) => {
                let mut s = state.lock();
                *s = lcg_next(*s);
                ((*s >> 33) % nodes as u64) as usize
            }
        }
    }
}

pub use weavepar_weave::intertype::REMOTE_FIELD;

/// What a redirected call looks up before it marshals: the stub's remote
/// reference (the [`REMOTE_FIELD`] the construct advice set) and the called
/// method's interned id. Kept per aspect, without a lock: one direct-mapped
/// seqlock [`Slot`] per `(stub, method name)`, stamped with the intertype
/// store's [`field_epoch`](weavepar_weave::intertype::IntertypeStore::field_epoch)
/// it was filled under. A field write since — a migration, a supervisor's
/// rebuilt worker — moves the epoch, and the slot misses. A miss reads the
/// field and the registry the locked way and refills the slot; a target
/// that is not a stub is never cached.
struct StubCache {
    slots: Box<[Slot]>,
}

/// One cached look-up. `seq` is odd while a writer fills the slot; a reader
/// trusts what it read only if `seq` read the same, even value before and
/// after. The method is keyed by where its `&'static str` name lives.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    epoch: AtomicU64,
    stub: AtomicU64,
    name: AtomicU64,
    len: AtomicU64,
    node: AtomicU64,
    obj: AtomicU64,
    /// Class id in the high half, method id in the low half.
    ids: AtomicU64,
}

impl StubCache {
    const SLOTS: usize = 64;

    fn new() -> Self {
        StubCache { slots: (0..Self::SLOTS).map(|_| Slot::default()).collect() }
    }

    /// The remote reference and method id of the call in `inv`, or `None`
    /// when its target is not a stub.
    fn resolve(
        &self,
        inv: &Invocation,
        marshal: &MarshalRegistry,
    ) -> WeaveResult<Option<(RemoteRef, MethodId)>> {
        let stub = inv.target_required()?;
        let signature = inv.signature();
        let fields = inv.weaver().intertype();
        // Read before the field: a write after this read moves the epoch.
        let epoch = fields.field_epoch();
        let key = (stub.raw(), signature.method.as_ptr() as u64, signature.method.len() as u64);
        let mixed = (key.0 ^ key.1.rotate_left(17)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let slot = &self.slots[(mixed >> (64 - Self::SLOTS.trailing_zeros())) as usize];
        if let Some(hit) = slot.read(epoch, key) {
            return Ok(Some(hit));
        }
        let Some(remote) = fields.get_field::<RemoteRef>(stub, REMOTE_FIELD) else {
            return Ok(None);
        };
        let method = marshal.method_id(signature.class, signature.method)?;
        slot.write(epoch, key, remote, method);
        Ok(Some((remote, method)))
    }
}

impl Slot {
    fn read(&self, epoch: u64, key: (u64, u64, u64)) -> Option<(RemoteRef, MethodId)> {
        let seq = self.seq.load(Ordering::Acquire);
        let matches = seq.is_multiple_of(2)
            && self.epoch.load(Ordering::Relaxed) == epoch
            && self.stub.load(Ordering::Relaxed) == key.0
            && self.name.load(Ordering::Relaxed) == key.1
            && self.len.load(Ordering::Relaxed) == key.2;
        if !matches {
            return None;
        }
        let (node, obj, ids) = (
            self.node.load(Ordering::Relaxed),
            self.obj.load(Ordering::Relaxed),
            self.ids.load(Ordering::Relaxed),
        );
        fence(Ordering::Acquire);
        (self.seq.load(Ordering::Relaxed) == seq).then(|| {
            let remote = RemoteRef {
                node: node as usize,
                obj: ObjId::from_raw(obj),
                class: ClassId::from_raw((ids >> 32) as u32),
            };
            (remote, MethodId::from_raw(ids as u32))
        })
    }

    /// Fill the slot, unless another writer is at it (then this call just
    /// stays uncached).
    fn write(&self, epoch: u64, key: (u64, u64, u64), remote: RemoteRef, method: MethodId) {
        let seq = self.seq.load(Ordering::Relaxed);
        if !seq.is_multiple_of(2)
            || self
                .seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        fence(Ordering::Release);
        self.epoch.store(epoch, Ordering::Relaxed);
        self.stub.store(key.0, Ordering::Relaxed);
        self.name.store(key.1, Ordering::Relaxed);
        self.len.store(key.2, Ordering::Relaxed);
        self.node.store(remote.node as u64, Ordering::Relaxed);
        self.obj.store(remote.obj.raw(), Ordering::Relaxed);
        let ids = (remote.class.raw() as u64) << 32 | method.raw() as u64;
        self.ids.store(ids, Ordering::Relaxed);
        self.seq.store(seq + 2, Ordering::Release);
    }
}

/// Configuration of a distribution aspect. Its two names are the paper's two
/// flavours and differ in nothing but what [`new`](DistributionConfig::new)
/// leaves implied: [`RmiConfig`] (Figure 14) registers every remote instance
/// in the name server and looks it up again; [`MppConfig`] (Figure 15)
/// addresses nodes directly and can send [`oneway`](MppConfig::oneway).
///
/// The three constructor arguments are the decisions every deployment makes;
/// everything optional — placement policy, call policy, metrics — chains:
///
/// ```ignore
/// let aspect = RmiConfig::new("Doubler", Pointcut::call("Doubler.apply"), fabric)
///     .placement(Policy::round_robin())
///     .policy(CallPolicy::with_deadline(Duration::from_millis(50)).retries(3))
///     .metrics(&registry)
///     .aspect("Distribution");
/// ```
#[derive(Clone)]
pub struct DistributionConfig<const NAME_SERVER: bool> {
    class: &'static str,
    call_pointcut: Pointcut,
    fabric: Arc<InProcFabric>,
    placement: Policy,
    oneway: bool,
    call_policy: CallPolicy,
    metrics: Option<MetricsRegistry>,
}

/// The RMI-style distribution aspect's configuration (Figure 14): name-server
/// registration and lookup, synchronous calls with marshalled replies.
pub type RmiConfig = DistributionConfig<true>;

/// The MPP-style distribution aspect's configuration (Figure 15): direct node
/// addressing, no name server. [`MppConfig::oneway`] sends without replies
/// (the figure's `comm.send`); the replied default awaits a reply message,
/// which methods with results require.
pub type MppConfig = DistributionConfig<false>;

impl<const NAME_SERVER: bool> DistributionConfig<NAME_SERVER> {
    /// Distribute `class`, redirecting calls matched by `call_pointcut` over
    /// `fabric`. Placement defaults to round-robin; calls are replied, wait
    /// forever ([`CallPolicy::unbounded`]) and record no metrics until
    /// configured otherwise.
    pub fn new(class: &'static str, call_pointcut: Pointcut, fabric: Arc<InProcFabric>) -> Self {
        DistributionConfig {
            class,
            call_pointcut,
            fabric,
            placement: Policy::round_robin(),
            oneway: false,
            call_policy: CallPolicy::unbounded(),
            metrics: None,
        }
    }

    /// Node-selection policy for new instances (default: round-robin).
    pub fn placement(mut self, policy: Policy) -> Self {
        self.placement = policy;
        self
    }

    /// Give every redirected replied call a deadline on its reply wait and
    /// retry transient failures with backoff — the fault-tolerant flavour,
    /// still one pluggable module. A oneway send has no reply to wait for or
    /// retry on.
    pub fn policy(mut self, call_policy: CallPolicy) -> Self {
        self.call_policy = call_policy;
        self
    }

    /// Record per-call observability into `registry`: `{name}.calls` /
    /// `{name}.errors` counters and an `{name}.latency_ns` histogram over
    /// redirected calls (marshal + round-trip + decode).
    pub fn metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(registry.clone());
        self
    }

    /// Build the pluggable aspect under `name`.
    pub fn aspect(self, name: impl Into<String>) -> Aspect {
        distribution_aspect(name.into(), self)
    }
}

impl MppConfig {
    /// Send without replies (only apply to methods whose results are
    /// unused); `false` restores the replied default.
    pub fn oneway(mut self, oneway: bool) -> Self {
        self.oneway = oneway;
        self
    }
}

fn distribution_aspect<const NAME_SERVER: bool>(
    name: String,
    config: DistributionConfig<NAME_SERVER>,
) -> Aspect {
    let DistributionConfig {
        class,
        call_pointcut,
        fabric,
        placement,
        oneway,
        call_policy,
        metrics,
    } = config;
    let meter = metrics.map(|registry| CallMeter::new(&registry, &name));
    let construct_fabric = fabric.clone();
    let stubs = StubCache::new();
    Aspect::named(name)
        .precedence(precedence::DISTRIBUTION)
        // Server + client side of object creation (modifications 1–3).
        .around(Pointcut::construct(class), move |inv: &mut Invocation| {
            let fabric = &construct_fabric;
            // Resolve the constructor id once per registry; encode into a
            // pooled frame before `proceed` consumes the arguments.
            let ctor = fabric.marshal().method_id(class, "new")?;
            let encode = |buf: &mut _| fabric.marshal().encode_args_id(ctor, inv.args()?, buf);
            let args = fabric.buffers().encode(encode)?;
            let local = inv.proceed()?;
            let local_id = *local
                .downcast_ref::<ObjId>()
                .ok_or_else(|| WeaveError::remote("construction did not return an ObjId"))?;
            let node = placement.pick(fabric.node_count());
            let remote = fabric.construct_on_id(node, ctor, args)?;
            let resolved = if NAME_SERVER {
                // Figure 14: register under PS<n>, then look it up — the
                // client only ever holds what the name server handed out.
                let ns = fabric.nameserver();
                let name = ns.next_name("PS");
                ns.rebind(&name, remote);
                ns.lookup(&name)?
            } else {
                remote
            };
            let weaver = inv.weaver();
            weaver.intertype().declare_tag(class, REMOTE_TAG);
            weaver.intertype().set_field(local_id, REMOTE_FIELD, resolved);
            Ok(local)
        })
        // Client-side call redirection (modification 4).
        .around(call_pointcut, move |inv: &mut Invocation| {
            let Some((remote, method)) = stubs.resolve(inv, fabric.marshal())? else {
                // Not a distributed object (plugged after creation, or a
                // purely local instance): run locally.
                return inv.proceed();
            };
            let redirected = || {
                let encode =
                    |buf: &mut _| fabric.marshal().encode_args_id(method, inv.args()?, buf);
                let args = fabric.buffers().encode(encode)?;
                if oneway {
                    fabric.send(remote, method, args)?;
                    Ok(weavepar_weave::ret!())
                } else {
                    let mut reply = fabric.call(remote, method, args, &call_policy)?;
                    // Decoded in place: recycling does not care how far the
                    // view has advanced, and a second handle costs an `Arc`.
                    let ret = fabric.marshal().decode_ret_id(method, &mut reply);
                    fabric.buffers().recycle(reply);
                    ret
                }
            };
            // Only redirected calls are metered: the meter's clock covers
            // marshal, wire round-trip and decode — the cost distribution
            // added.
            match &meter {
                Some(meter) => meter.time(redirected),
                None => redirected(),
            }
        })
        .build()
}

/// One node's pending pack.
struct Pending {
    frame: PackFrame,
    born: Instant,
}

/// Shared state behind [`message_packing_aspect`]: per-destination-node
/// pack frames plus the flush policy. Clone-cheap; hand one to whoever
/// needs to flush (scope hooks, tests, shutdown paths).
#[derive(Clone)]
pub struct MessagePacker {
    fabric: Arc<InProcFabric>,
    pending: Arc<Mutex<HashMap<usize, Pending>>>,
    /// Set (under the `pending` lock) by [`MessagePacker::unplug`]: calls
    /// racing the unplug ship immediately instead of parking in a buffer
    /// nobody will flush again.
    closed: Arc<AtomicBool>,
    /// Flush thresholds: calls per frame and age of a frame's oldest call.
    max_calls: u32,
    max_age: Duration,
}

impl MessagePacker {
    fn new(fabric: Arc<InProcFabric>, max_calls: u32, max_age: Duration) -> Self {
        MessagePacker {
            fabric,
            pending: Arc::new(Mutex::new(HashMap::new())),
            closed: Arc::new(AtomicBool::new(false)),
            max_calls: max_calls.max(1),
            max_age,
        }
    }

    /// Append one call bound for `node`; ships the pack when the count or
    /// age threshold is hit.
    fn buffer(&self, node: usize, obj: ObjId, method: MethodId, args: &Args) -> WeaveResult<()> {
        let ready = {
            let mut pending = self.pending.lock();
            if self.closed.load(Ordering::SeqCst) {
                // The unplug already drained the buffers; this call slipped
                // through the advice chain mid-unplug. Ship it on its own so
                // it is delivered exactly once rather than stranded.
                drop(pending);
                let mut frame = self.fabric.new_pack();
                frame.push(obj, method, self.fabric.marshal(), args)?;
                self.fabric.submit_pack(node, frame)?;
                return Ok(());
            }
            let entry = pending
                .entry(node)
                .or_insert_with(|| Pending { frame: self.fabric.new_pack(), born: Instant::now() });
            if entry.frame.is_empty() {
                entry.born = Instant::now();
                // First call of a fresh pack: if the calling thread is inside
                // a BatchScope, ship this node's pack when the scope flushes
                // so deferred skeleton work and its messages leave together.
                if weavepar_concurrency::scope_active() {
                    let packer = self.clone();
                    weavepar_concurrency::on_scope_flush(move || {
                        let _ = packer.flush_node(node);
                    });
                }
            }
            entry.frame.push(obj, method, self.fabric.marshal(), args)?;
            if entry.frame.count() >= self.max_calls || entry.born.elapsed() >= self.max_age {
                pending.remove(&node)
            } else {
                None
            }
        };
        if let Some(pack) = ready {
            self.fabric.submit_pack(node, pack.frame)?;
        }
        Ok(())
    }

    /// Ship `node`'s pending pack, if any. Returns the number of calls
    /// shipped.
    pub fn flush_node(&self, node: usize) -> WeaveResult<usize> {
        let taken = self.pending.lock().remove(&node);
        match taken {
            Some(pack) => self.fabric.submit_pack(node, pack.frame),
            None => Ok(0),
        }
    }

    /// Ship every pending pack. Returns the total number of calls shipped.
    pub fn flush(&self) -> WeaveResult<usize> {
        let drained: Vec<(usize, Pending)> = self.pending.lock().drain().collect();
        let mut shipped = 0;
        for (node, pack) in drained {
            shipped += self.fabric.submit_pack(node, pack.frame)?;
        }
        Ok(shipped)
    }

    /// Unplug the packing aspect and ship whatever it buffered: every call
    /// that entered the advice — including calls racing the unplug from
    /// other threads — is delivered exactly once; calls issued after go
    /// through the distribution aspect directly. The packer is closed for
    /// good: a still-running advice that buffers after this drain ships its
    /// call immediately instead (see [`MessagePacker::buffer`]).
    pub fn unplug(&self, weaver: &Weaver, plugged: &PluggedAspect) -> WeaveResult<usize> {
        weaver.unplug(plugged);
        let drained: Vec<(usize, Pending)> = {
            let mut pending = self.pending.lock();
            // Closing under the lock linearises against `buffer`: an append
            // that won the lock first is in `drained`; one that lost sees
            // `closed` and self-ships.
            self.closed.store(true, Ordering::SeqCst);
            pending.drain().collect()
        };
        let mut shipped = 0;
        for (node, pack) in drained {
            shipped += self.fabric.submit_pack(node, pack.frame)?;
        }
        Ok(shipped)
    }

    /// Calls currently buffered across all nodes (tests, introspection).
    pub fn pending_calls(&self) -> usize {
        self.pending.lock().values().map(|p| p.frame.count() as usize).sum()
    }
}

/// The paper's §4.4 *communication packing* optimisation as a pluggable
/// aspect. Matched calls on remote stubs are appended to a per-node
/// [`PackFrame`] and shipped as one [`Request::CallPack`] — one submit, one
/// wakeup for up to `max_calls` calls. Returns the aspect plus its
/// [`MessagePacker`] handle for explicit flushing.
///
/// Packed calls are **oneway**: the advice returns unit without waiting, so
/// only apply the pointcut to methods whose results are unused (the same
/// contract as [`MppConfig::oneway`]). Replied
/// calls and non-remote targets are untouched — they proceed down the
/// aspect stack as if this aspect were not plugged.
pub fn message_packing_aspect(
    name: impl Into<String>,
    call_pointcut: Pointcut,
    fabric: Arc<InProcFabric>,
    max_calls: u32,
    max_age: Duration,
) -> (Aspect, MessagePacker) {
    let packer = MessagePacker::new(fabric.clone(), max_calls, max_age);
    let advice_packer = packer.clone();
    let stubs = StubCache::new();
    let aspect = Aspect::named(name)
        .precedence(precedence::OPTIMISATION)
        .around(call_pointcut, move |inv: &mut Invocation| {
            let Some((remote, method)) = stubs.resolve(inv, advice_packer.fabric.marshal())? else {
                // Local object: nothing to pack.
                return inv.proceed();
            };
            advice_packer.buffer(remote.node, remote.obj, method, inv.args()?)?;
            Ok(weavepar_weave::ret!())
        })
        .build();
    (aspect, packer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MarshalRegistry;

    struct Doubler {
        bias: u64,
        calls: u64,
    }

    weavepar_weave::weaveable! {
        class Doubler as DoublerProxy {
            fn new(bias: u64) -> Self { Doubler { bias, calls: 0 } }
            fn apply(&mut self, x: u64) -> u64 {
                self.calls += 1;
                x * 2 + self.bias
            }
            fn calls(&mut self) -> u64 {
                self.calls
            }
        }
    }

    fn fabric(nodes: usize) -> Arc<InProcFabric> {
        let m = MarshalRegistry::new();
        m.register::<(u64,), ()>("Doubler", "new");
        m.register::<(u64,), u64>("Doubler", "apply");
        m.register::<(), u64>("Doubler", "calls");
        let f = InProcFabric::new(nodes, m);
        f.register_class::<Doubler>();
        f
    }

    /// Replied call straight to the remote instance — synchronises behind
    /// any queued packs (FIFO) and reads the server-side call count.
    fn remote_calls(f: &InProcFabric, remote: RemoteRef) -> u64 {
        let args = f.marshal().encode_args("Doubler", "calls", &weavepar_weave::args![]).unwrap();
        let calls = f.marshal().method_id("Doubler", "calls").unwrap();
        let reply = f.call(remote, calls, args, &CallPolicy::unbounded()).unwrap();
        *f.marshal().decode_ret("Doubler", "calls", &reply).unwrap().downcast::<u64>().unwrap()
    }

    #[test]
    fn rmi_redirects_calls_to_the_remote_instance() {
        let weaver = Weaver::new();
        let f = fabric(2);
        weaver.plug(
            RmiConfig::new(
                "Doubler",
                Pointcut::call("Doubler.apply").or(Pointcut::call("Doubler.calls")),
                f.clone(),
            )
            .placement(Policy::fixed(1))
            .aspect("Distribution"),
        );
        let d = DoublerProxy::construct(&weaver, 5).unwrap();
        assert_eq!(d.apply(10).unwrap(), 25);
        assert_eq!(d.apply(0).unwrap(), 5);
        // The *remote* instance took the calls; the local stub took none.
        assert_eq!(d.calls().unwrap(), 2);
        let local_calls = weaver.space().with_object::<Doubler, _>(d.id(), |o| o.calls).unwrap();
        assert_eq!(local_calls, 0, "stub must not execute redirected calls");
        // And the remote object lives on node 1.
        assert_eq!(f.node(1).unwrap().weaver().space().len(), 1);
        assert_eq!(f.node(0).unwrap().weaver().space().len(), 0);
    }

    #[test]
    fn a_cached_stub_look_up_follows_a_rewritten_reference() {
        let weaver = Weaver::new();
        let f = fabric(2);
        let early = DoublerProxy::construct(&weaver, 100).unwrap();
        weaver.plug(
            RmiConfig::new("Doubler", Pointcut::call("Doubler.*"), f.clone())
                .placement(Policy::fixed(0))
                .aspect("Distribution"),
        );
        let d = DoublerProxy::construct(&weaver, 1).unwrap();
        for x in 0..3 {
            assert_eq!(d.apply(x).unwrap(), 2 * x + 1, "node 0's instance, then cached");
        }
        // An instance on node 1, and the stub's field pointed at it, as a
        // migration or a supervisor's recovery does.
        let ctor = f.marshal().encode_args("Doubler", "new", &weavepar_weave::args![10u64]);
        let moved = f.construct_on(1, "Doubler", ctor.unwrap()).unwrap();
        weaver.intertype().set_field(d.id(), REMOTE_FIELD, moved);
        assert_eq!(d.apply(1).unwrap(), 12, "served where the field points now");
        assert_eq!(d.calls().unwrap(), 1, "the instance on node 1 took one apply");
        // An object without the field is never taken for a stub.
        assert_eq!(early.apply(1).unwrap(), 102);
        let local = weaver.space().with_object::<Doubler, _>(early.id(), |o| o.calls).unwrap();
        assert_eq!(local, 1);
    }

    #[test]
    fn rmi_registers_names() {
        let weaver = Weaver::new();
        let f = fabric(2);
        weaver.plug(
            RmiConfig::new("Doubler", Pointcut::call("Doubler.apply"), f.clone())
                .aspect("Distribution"),
        );
        let _a = DoublerProxy::construct(&weaver, 0).unwrap();
        let _b = DoublerProxy::construct(&weaver, 0).unwrap();
        assert_eq!(f.nameserver().names(), vec!["PS1".to_string(), "PS2".to_string()]);
        assert!(weaver.intertype().has_tag("Doubler", REMOTE_TAG));
    }

    #[test]
    fn mpp_without_nameserver() {
        let weaver = Weaver::new();
        let f = fabric(3);
        weaver.plug(
            MppConfig::new("Doubler", Pointcut::call("Doubler.apply"), f.clone())
                .aspect("DistributionMPP"),
        );
        let d = DoublerProxy::construct(&weaver, 1).unwrap();
        assert_eq!(d.apply(3).unwrap(), 7);
        assert!(f.nameserver().is_empty());
    }

    #[test]
    fn mpp_oneway_returns_unit_immediately() {
        let weaver = Weaver::new();
        let f = fabric(2);
        weaver.plug(
            MppConfig::new("Doubler", Pointcut::call("Doubler.apply"), f.clone())
                .placement(Policy::fixed(0))
                .oneway(true)
                .aspect("DistributionMPP"),
        );
        let d = DoublerProxy::construct(&weaver, 1).unwrap();
        // Typed proxy expects u64 but the oneway advice returns (): use the
        // raw handle, as oneway methods should be unit-returning by design.
        let ret = d.handle().call("apply", weavepar_weave::args![3u64]).unwrap();
        assert!(ret.downcast::<()>().is_ok());
    }

    #[test]
    fn unplugged_distribution_is_fully_local() {
        let weaver = Weaver::new();
        let f = fabric(2);
        let plugged = weaver.plug(
            RmiConfig::new("Doubler", Pointcut::call("Doubler.apply"), f.clone())
                .placement(Policy::fixed(0))
                .aspect("Distribution"),
        );
        weaver.unplug(&plugged);
        let d = DoublerProxy::construct(&weaver, 5).unwrap();
        assert_eq!(d.apply(10).unwrap(), 25);
        assert_eq!(f.node(0).unwrap().weaver().space().len(), 0, "no remote instance created");
    }

    #[test]
    fn objects_created_before_plugging_stay_local() {
        let weaver = Weaver::new();
        let f = fabric(2);
        let d = DoublerProxy::construct(&weaver, 5).unwrap();
        weaver.plug(
            RmiConfig::new("Doubler", Pointcut::call("Doubler.apply"), f.clone())
                .placement(Policy::fixed(0))
                .aspect("Distribution"),
        );
        // No remote field on this object: the call advice falls through.
        assert_eq!(d.apply(1).unwrap(), 7);
        assert_eq!(f.node(0).unwrap().weaver().space().len(), 0);
    }

    #[test]
    fn round_robin_spreads_instances() {
        let weaver = Weaver::new();
        let f = fabric(3);
        weaver.plug(
            MppConfig::new("Doubler", Pointcut::call("Doubler.apply"), f.clone())
                .aspect("DistributionMPP"),
        );
        for _ in 0..6 {
            DoublerProxy::construct(&weaver, 0).unwrap();
        }
        for node in 0..3 {
            assert_eq!(f.node(node).unwrap().weaver().space().len(), 2);
        }
    }

    #[test]
    fn policy_pick_ranges() {
        let rr = Policy::round_robin();
        let picks: Vec<usize> = (0..6).map(|_| rr.pick(3)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(Policy::fixed(5).pick(3), 2);
        let rnd = Policy::random(42);
        for _ in 0..100 {
            assert!(rnd.pick(4) < 4);
        }
        // Determinism: same seed, same sequence.
        let a: Vec<usize> = {
            let p = Policy::random(7);
            (0..10).map(|_| p.pick(5)).collect()
        };
        let b: Vec<usize> = {
            let p = Policy::random(7);
            (0..10).map(|_| p.pick(5)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn missing_marshaller_is_a_remote_error() {
        let weaver = Weaver::new();
        let m = MarshalRegistry::new(); // nothing registered
        let f = InProcFabric::new(1, m);
        f.register_class::<Doubler>();
        weaver.plug(
            RmiConfig::new("Doubler", Pointcut::call("Doubler.apply"), f)
                .placement(Policy::fixed(0))
                .aspect("Distribution"),
        );
        let err = DoublerProxy::construct(&weaver, 1).unwrap_err();
        assert!(matches!(err, WeaveError::Remote(_)));
    }

    #[test]
    fn builder_metrics_meter_redirected_calls() {
        let weaver = Weaver::new();
        let f = fabric(2);
        let registry = MetricsRegistry::new();
        weaver.plug(
            RmiConfig::new("Doubler", Pointcut::call("Doubler.apply"), f.clone())
                .placement(Policy::fixed(1))
                .metrics(&registry)
                .aspect("Distribution"),
        );
        let d = DoublerProxy::construct(&weaver, 5).unwrap();
        for x in 0..4 {
            assert_eq!(d.apply(x).unwrap(), x * 2 + 5);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("Distribution.calls"), Some(4));
        assert_eq!(snap.counter("Distribution.errors"), Some(0));
        let latency = snap.histogram("Distribution.latency_ns").unwrap();
        assert_eq!(latency.count, 4, "every redirected call is timed");
        assert!(latency.sum_ns > 0);

        // Local objects (constructed before plugging elsewhere) are not
        // metered: the advice falls through before the timer starts.
        let weaver2 = Weaver::new();
        let local = DoublerProxy::construct(&weaver2, 1).unwrap();
        assert_eq!(local.apply(1).unwrap(), 3);
        assert_eq!(registry.snapshot().counter("Distribution.calls"), Some(4));
    }

    #[test]
    fn packing_buffers_and_auto_flushes_on_count() {
        let weaver = Weaver::new();
        let f = fabric(1);
        let (aspect, packer) = message_packing_aspect(
            "Packing",
            Pointcut::call("Doubler.apply"),
            f.clone(),
            3,
            Duration::from_secs(3600),
        );
        weaver.plug(aspect);
        weaver.plug(
            MppConfig::new("Doubler", Pointcut::call("Doubler.apply"), f.clone())
                .placement(Policy::fixed(0))
                .oneway(true)
                .aspect("DistributionMPP"),
        );
        let d = DoublerProxy::construct(&weaver, 0).unwrap();
        let remote = weaver.intertype().get_field::<RemoteRef>(d.id(), REMOTE_FIELD).unwrap();

        // Two calls: buffered, nothing on the wire yet.
        for x in [1u64, 2] {
            d.handle().call("apply", weavepar_weave::args![x]).unwrap();
        }
        assert_eq!(packer.pending_calls(), 2);
        assert_eq!(remote_calls(&f, remote), 0, "buffered calls not yet shipped");

        // Third call trips max_calls: the pack ships as one frame.
        d.handle().call("apply", weavepar_weave::args![3u64]).unwrap();
        assert_eq!(packer.pending_calls(), 0);
        assert_eq!(remote_calls(&f, remote), 3);
    }

    #[test]
    fn packing_explicit_flush_and_age_trigger() {
        let weaver = Weaver::new();
        let f = fabric(1);
        let (aspect, packer) = message_packing_aspect(
            "Packing",
            Pointcut::call("Doubler.apply"),
            f.clone(),
            1000,
            Duration::from_millis(10),
        );
        weaver.plug(aspect);
        weaver.plug(
            MppConfig::new("Doubler", Pointcut::call("Doubler.apply"), f.clone())
                .placement(Policy::fixed(0))
                .oneway(true)
                .aspect("DistributionMPP"),
        );
        let d = DoublerProxy::construct(&weaver, 0).unwrap();
        let remote = weaver.intertype().get_field::<RemoteRef>(d.id(), REMOTE_FIELD).unwrap();

        d.handle().call("apply", weavepar_weave::args![1u64]).unwrap();
        assert_eq!(packer.flush().unwrap(), 1);
        assert_eq!(packer.flush().unwrap(), 0, "flush is idempotent");
        assert_eq!(remote_calls(&f, remote), 1);

        // Age trigger: a stale pack ships on the next append.
        d.handle().call("apply", weavepar_weave::args![2u64]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        d.handle().call("apply", weavepar_weave::args![3u64]).unwrap();
        assert_eq!(packer.pending_calls(), 0, "age threshold shipped the pack");
        assert_eq!(remote_calls(&f, remote), 3);
    }

    #[test]
    fn packing_unplug_flushes_and_restores_direct_sends() {
        let weaver = Weaver::new();
        let f = fabric(1);
        let (aspect, packer) = message_packing_aspect(
            "Packing",
            Pointcut::call("Doubler.apply"),
            f.clone(),
            1000,
            Duration::from_secs(3600),
        );
        let plugged = weaver.plug(aspect);
        weaver.plug(
            MppConfig::new("Doubler", Pointcut::call("Doubler.apply"), f.clone())
                .placement(Policy::fixed(0))
                .oneway(true)
                .aspect("DistributionMPP"),
        );
        let d = DoublerProxy::construct(&weaver, 0).unwrap();
        let remote = weaver.intertype().get_field::<RemoteRef>(d.id(), REMOTE_FIELD).unwrap();

        d.handle().call("apply", weavepar_weave::args![1u64]).unwrap();
        d.handle().call("apply", weavepar_weave::args![2u64]).unwrap();
        assert_eq!(packer.unplug(&weaver, &plugged).unwrap(), 2, "unplug ships the backlog");
        // After unplug, calls go straight through the distribution aspect.
        d.handle().call("apply", weavepar_weave::args![3u64]).unwrap();
        assert_eq!(packer.pending_calls(), 0);
        assert_eq!(remote_calls(&f, remote), 3);
    }

    #[test]
    fn packing_flushes_with_batch_scope() {
        let weaver = Weaver::new();
        let f = fabric(1);
        let (aspect, packer) = message_packing_aspect(
            "Packing",
            Pointcut::call("Doubler.apply"),
            f.clone(),
            1000,
            Duration::from_secs(3600),
        );
        weaver.plug(aspect);
        weaver.plug(
            MppConfig::new("Doubler", Pointcut::call("Doubler.apply"), f.clone())
                .placement(Policy::fixed(0))
                .oneway(true)
                .aspect("DistributionMPP"),
        );
        let d = DoublerProxy::construct(&weaver, 0).unwrap();
        let remote = weaver.intertype().get_field::<RemoteRef>(d.id(), REMOTE_FIELD).unwrap();

        let scope = weavepar_concurrency::BatchScope::enter();
        for x in [1u64, 2, 3] {
            d.handle().call("apply", weavepar_weave::args![x]).unwrap();
        }
        assert_eq!(packer.pending_calls(), 3, "buffered while the scope is open");
        scope.flush();
        assert_eq!(packer.pending_calls(), 0, "scope flush shipped the pack");
        assert_eq!(remote_calls(&f, remote), 3);
    }

    #[test]
    fn packing_leaves_local_objects_alone() {
        let weaver = Weaver::new();
        let f = fabric(1);
        let (aspect, packer) = message_packing_aspect(
            "Packing",
            Pointcut::call("Doubler.apply"),
            f.clone(),
            1000,
            Duration::from_secs(3600),
        );
        weaver.plug(aspect);
        // No distribution aspect: the object is purely local.
        let d = DoublerProxy::construct(&weaver, 5).unwrap();
        assert_eq!(d.apply(10).unwrap(), 25, "local calls proceed untouched");
        assert_eq!(packer.pending_calls(), 0);
    }
}
