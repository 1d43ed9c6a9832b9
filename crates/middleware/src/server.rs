//! What the holder of a node's serve token does: decode a request, dispatch
//! it on the node's weaver, encode the reply.
//!
//! A [`Server`] owns everything serving needs; [`node`](crate::node) keeps
//! it in the node's mailbox and decides who serves. One function serves a
//! replied request — a call, a construct, a snapshot, a restore —
//! [`Server::replied_call`], whether the `node-N` thread or the caller itself
//! runs it. A call's reply is written into the frame its arguments came in.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use weavepar_weave::{AnyValue, ObjId, WeaveError, WeaveResult, Weaver};

use crate::node::{Op, Request};
use crate::pool::BufPool;
use crate::wire::{MarshalRegistry, MethodEntry, MethodId, PackReader, Wire};

/// Per-node at-most-once window: remembers recently seen call `seq` keys and
/// the reply outcome they produced, so a retried (or fault-injected
/// duplicate) delivery is answered from cache instead of executed twice.
///
/// `Some(result)` caches a replied call's encoded outcome; `None` marks a
/// oneway already executed (nothing to resend — the duplicate is dropped).
/// The window is bounded: the oldest entries are evicted FIFO, which is safe
/// because retries happen within a call's deadline, far inside the window.
pub(crate) struct DedupWindow {
    seen: HashMap<u64, Option<WeaveResult<Bytes>>>,
    order: VecDeque<u64>,
    cap: usize,
}

impl DedupWindow {
    pub(crate) fn new(cap: usize) -> Self {
        DedupWindow { seen: HashMap::new(), order: VecDeque::new(), cap }
    }

    /// Look up a previously executed call. `Some(cached)` means duplicate.
    pub(crate) fn check(&self, seq: u64) -> Option<&Option<WeaveResult<Bytes>>> {
        self.seen.get(&seq)
    }

    /// Record an executed call's outcome under its dedup key.
    pub(crate) fn record(&mut self, seq: u64, outcome: Option<WeaveResult<Bytes>>) {
        if self.seen.len() >= self.cap {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        if self.seen.insert(seq, outcome).is_none() {
            self.order.push_back(seq);
        }
    }
}

/// Everything serving a request needs — the serve token. Decodes, dispatches
/// unwoven unless the node is set woven (the weaving happened on the
/// client), encodes replies into the request's frame or a pooled one.
pub(crate) struct Server {
    pub(crate) id: usize,
    pub(crate) weaver: Weaver,
    pub(crate) marshal: MarshalRegistry,
    pub(crate) woven: Arc<AtomicBool>,
    pub(crate) down: Arc<AtomicBool>,
    pub(crate) pool: Arc<BufPool>,
    pub(crate) dedup: DedupWindow,
}

impl Server {
    /// Serve one queued request (node thread only).
    pub(crate) fn handle(&mut self, request: Request) {
        // Crashed node: fail everything still queued instead of executing
        // it, so callers blocked on replies are released promptly.
        if self.down.load(Ordering::SeqCst) {
            return request.fail(WeaveError::NodeDown { node: self.id });
        }
        // What unwinds this far is a oneway call or a pack, which have
        // nowhere to report to; a replied request contains its own body.
        let _ = self.contained(|server| {
            server.dispatch(request);
            Ok(())
        });
    }

    /// Run served code. A panic in it fails this call with a typed error
    /// and marks the node down, instead of unwinding into whoever serves.
    fn contained<T>(&mut self, call: impl FnOnce(&mut Self) -> WeaveResult<T>) -> WeaveResult<T> {
        catch_unwind(AssertUnwindSafe(|| call(self))).unwrap_or_else(|panic| {
            self.down.store(true, Ordering::SeqCst);
            let what = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("(no message)");
            Err(WeaveError::remote(format!("node {}: served call panicked: {what}", self.id)))
        })
    }

    /// Decode and dispatch one call by the registry's boundary name, woven
    /// or unwoven, with the method's registry entry for its reply. Decoding
    /// consumes `args` in place (rewriting a frame does not look at how far
    /// its view has advanced), so a served call takes no second handle on
    /// the frame.
    fn execute(
        &self,
        obj: ObjId,
        method: MethodId,
        args: &mut Bytes,
    ) -> WeaveResult<(&MethodEntry, AnyValue)> {
        let entry = self.marshal.method_entry(method)?;
        let decoded = entry.read_args(args)?;
        let ret = if self.woven.load(Ordering::SeqCst) {
            self.weaver.invoke_call_dyn(obj, &entry.method_name, decoded)
        } else {
            self.weaver.invoke_unwoven(obj, &entry.method_name, decoded)
        };
        Ok((entry, ret?))
    }

    /// A replied request, start to finish. The node thread and an inline
    /// caller both serve through here.
    pub(crate) fn replied_call(&mut self, op: Op) -> WeaveResult<Bytes> {
        match op {
            Op::Call { obj, method, args, seq } => self.call(obj, method, args, seq),
            Op::Construct { ctor, mut args } => self.contained(|server| {
                let entry = server.marshal.method_entry(ctor)?;
                let built = entry.read_args(&mut args).and_then(|decoded| {
                    server.weaver.construct_dyn_unwoven(&entry.class_name, decoded)
                });
                match built {
                    Ok(obj) => server.pool.rewrite(args, |buf| {
                        obj.encode(buf);
                        Ok(())
                    }),
                    Err(err) => {
                        server.pool.recycle(args);
                        Err(err)
                    }
                }
            }),
            Op::Snapshot { obj, remove } => self.contained(|server| {
                let class = server.weaver.space().class_of(obj)?;
                let state = server.marshal.snapshot_state(&server.weaver, class, obj)?;
                if remove {
                    server.weaver.space().remove(obj);
                }
                Ok(state)
            }),
            Op::Restore { class, state } => self.contained(|server| {
                let name = server.marshal.class_name(class)?;
                let obj = server.marshal.restore_state(&server.weaver, &name, &state)?;
                server.pool.encode(|buf| {
                    obj.encode(buf);
                    Ok(())
                })
            }),
        }
    }

    /// A call: dedup window, execute, and the reply in the argument frame.
    fn call(
        &mut self,
        obj: ObjId,
        method: MethodId,
        mut args: Bytes,
        seq: Option<u64>,
    ) -> WeaveResult<Bytes> {
        // At-most-once: a seq already in the window was executed by an
        // earlier delivery — answer from cache without touching the object.
        if let Some(cached) = seq.and_then(|seq| self.dedup.check(seq)) {
            let cached = cached.clone();
            self.pool.recycle(args);
            // `None`: a oneway executed under this seq; a replied duplicate
            // asking for its result is a protocol mismatch — fail it loudly.
            return cached
                .unwrap_or_else(|| Err(WeaveError::remote("duplicate delivery of a oneway call")));
        }
        let encoded = self.contained(|server| match server.execute(obj, method, &mut args) {
            Ok((entry, ret)) => server.pool.rewrite(args, |buf| entry.write_ret(&ret, buf)),
            Err(err) => {
                server.pool.recycle(args);
                Err(err)
            }
        });
        if let Some(seq) = seq {
            self.dedup.record(seq, Some(encoded.clone()));
        }
        encoded
    }

    fn dispatch(&mut self, request: Request) {
        match request {
            Request::Replied { op, reply } => reply.send(self.replied_call(op)),
            // Oneway: failures have nowhere to go; drop them like a lost
            // datagram (the paper's MPP send has the same property). So is
            // a duplicate delivery.
            Request::Oneway { obj, method, mut args, seq } => {
                if seq.is_none_or(|seq| self.dedup.check(seq).is_none()) {
                    let _ = self.execute(obj, method, &mut args);
                    if let Some(seq) = seq {
                        self.dedup.record(seq, None);
                    }
                }
                self.pool.recycle(args);
            }
            Request::CallPack { frame } => {
                // Entries are oneway: malformed frames (a truncated header
                // drops the whole pack) and failed calls alike are dropped
                // datagrams.
                if let Ok(reader) = PackReader::new(frame.clone()) {
                    for entry in reader {
                        let Ok((obj, method, mut args)) = entry else { break };
                        let _ = self.execute(obj, method, &mut args);
                    }
                }
                self.pool.recycle(frame);
            }
        }
    }
}
