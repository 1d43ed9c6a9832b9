//! Buffer and reply-slot pooling for the remote-call fast path.
//!
//! Two recyclers back the zero-allocation contract:
//!
//! * [`BufPool`] — one locked stack of [`BytesMut`] frames. Encode paths
//!   `take` a cleared frame (keeping a previous call's capacity), and
//!   decode/reply paths hand frames back with `give` or reclaim frozen
//!   [`Bytes`] whose refcount has dropped to one with `recycle`.
//!
//! * [`ReplySlot`] — the fabric's one park/unpark reply rendezvous, for
//!   every replied request that has to queue: a call, a construct, a
//!   snapshot, a restore (a call served on the caller's thread needs none).
//!   A caller checks a slot out of the pool, submits the request carrying
//!   the [`SlotReply`] half, blocks on the condvar, and returns the slot for
//!   reuse. `SlotReply` is a drop-guard, filled under the slot's own lock:
//!   if the serving side drops it without answering (request dropped on the
//!   floor), the waiter is woken with a `WeaveError::Remote` instead of
//!   blocking forever.
//!
//! Each pool is one free list under one lock, capped at 256 entries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use parking_lot::{Condvar, Mutex};

use weavepar_weave::{WeaveError, WeaveResult};

/// Most entries a pool keeps: beyond this, returned frames and slots are
/// simply dropped so a burst doesn't pin its high-water allocation forever.
const CAP: usize = 256;

/// Pool of reusable [`BytesMut`] frames.
#[derive(Default)]
pub struct BufPool {
    free: Mutex<Vec<BytesMut>>,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cleared frame, reusing a pooled allocation when one is available.
    pub fn take(&self) -> BytesMut {
        self.free.lock().pop().unwrap_or_default()
    }

    /// Return a frame to the pool (cleared; dropped when the pool is full).
    pub fn give(&self, mut buf: BytesMut) {
        buf.clear();
        let mut free = self.free.lock();
        if free.len() < CAP {
            free.push(buf);
        }
    }

    /// Reclaim a frozen frame whose storage is no longer shared; frames with
    /// live aliases are silently dropped.
    pub fn recycle(&self, bytes: Bytes) {
        if let Ok(buf) = bytes.try_into_mut() {
            self.give(buf);
        }
    }

    /// Frames currently parked in the pool (for tests).
    pub fn pooled(&self) -> usize {
        self.free.lock().len()
    }
}

/// One reusable reply rendezvous: a mutex-guarded mailbox plus a condvar.
pub struct ReplySlot {
    mailbox: Mutex<Option<WeaveResult<Bytes>>>,
    ready: Condvar,
}

impl ReplySlot {
    fn new() -> Arc<Self> {
        Arc::new(ReplySlot { mailbox: Mutex::new(None), ready: Condvar::new() })
    }

    fn fill(&self, result: WeaveResult<Bytes>) {
        {
            let mut mailbox = self.mailbox.lock();
            *mailbox = Some(result);
        }
        // Notify with the mailbox lock *released*: waking the parked caller
        // while still holding the lock sends it straight into a futex
        // contention on the mutex it needs next (glibc condvars no longer
        // wait-morph).
        self.ready.notify_one();
    }

    /// Block until the serving side fills the slot, and take the result.
    fn wait(&self) -> WeaveResult<Bytes> {
        let mut mailbox = self.mailbox.lock();
        while mailbox.is_none() {
            self.ready.wait(&mut mailbox);
        }
        mailbox.take().expect("slot filled")
    }

    /// Like `wait`, but give up at `deadline` with a typed
    /// [`WeaveError::Timeout`]. A timed-out slot may still be filled later
    /// by the serving side — the caller must abandon the ticket (not
    /// `finish` it) so the late reply is garbage-collected with the slot.
    fn wait_until(&self, deadline: Instant, waited_ms: u64) -> WeaveResult<Bytes> {
        let mut mailbox = self.mailbox.lock();
        while mailbox.is_none() {
            if self.ready.wait_until(&mut mailbox, deadline).timed_out() && mailbox.is_none() {
                return Err(WeaveError::Timeout { waited_ms });
            }
        }
        mailbox.take().expect("slot filled")
    }
}

/// The serving side's half of a checked-out [`ReplySlot`]. Consuming `send`
/// delivers the answer; dropping unsent wakes the waiter with an error so a
/// lost request can never strand its caller.
pub struct SlotReply {
    slot: Arc<ReplySlot>,
    sent: bool,
}

impl SlotReply {
    /// Deliver the reply and wake the waiting caller.
    pub fn send(mut self, result: WeaveResult<Bytes>) {
        self.sent = true;
        self.slot.fill(result);
    }

    /// Fault injection: make the reply vanish *silently* — the drop-guard is
    /// defused, the mailbox is never filled, and the waiter only learns of
    /// the loss when its deadline expires (a dropped datagram, not an
    /// error). The slot's Arc is released normally; the abandoned ticket is
    /// garbage-collected with it.
    pub(crate) fn discard(mut self) {
        self.sent = true;
    }
}

impl Drop for SlotReply {
    fn drop(&mut self) {
        if !self.sent {
            self.slot.fill(Err(WeaveError::remote("reply dropped before an answer was sent")));
        }
    }
}

/// The calling side's half: wait for the answer, then return the slot to the
/// pool via [`ReplyPool::finish`].
pub struct SlotTicket {
    slot: Arc<ReplySlot>,
    /// Set when a wait actually emptied the mailbox. `finish` consults this
    /// instead of re-locking the mailbox to check that the slot is clean.
    consumed: std::cell::Cell<bool>,
}

impl SlotTicket {
    /// Block until the reply arrives.
    pub fn wait(&self) -> WeaveResult<Bytes> {
        let result = self.slot.wait();
        self.consumed.set(true);
        result
    }

    /// Block until the reply arrives or `deadline` passes. On
    /// [`WeaveError::Timeout`] the ticket must be dropped, NOT
    /// [`ReplyPool::finish`]ed: the serving side may still fill the slot
    /// later, and recycling it would leak a stale reply into the next call.
    pub fn wait_deadline(&self, deadline: Option<Instant>, waited_ms: u64) -> WeaveResult<Bytes> {
        let result = match deadline {
            Some(d) => self.slot.wait_until(d, waited_ms),
            None => self.slot.wait(),
        };
        // A timeout leaves the mailbox unconsumed; every other outcome —
        // payload or drop-guard error — took the message out of it.
        if !matches!(result, Err(WeaveError::Timeout { .. })) {
            self.consumed.set(true);
        }
        result
    }
}

/// Pool of reply slots: `checkout` hands out a (ticket, reply) pair backed
/// by a recycled slot when one is free.
#[derive(Default)]
pub struct ReplyPool {
    free: Mutex<Vec<Arc<ReplySlot>>>,
    /// Live count of parked slots, maintained on checkout/finish so a
    /// metrics registry can bind pool occupancy as a gauge without taking
    /// the free-list lock.
    parked: Arc<AtomicU64>,
}

impl ReplyPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out a slot: the caller keeps the [`SlotTicket`], the request
    /// carries the [`SlotReply`].
    pub fn checkout(&self) -> (SlotTicket, SlotReply) {
        let slot = match self.free.lock().pop() {
            Some(slot) => {
                self.parked.fetch_sub(1, Ordering::Relaxed);
                slot
            }
            None => ReplySlot::new(),
        };
        debug_assert!(slot.mailbox.lock().is_none(), "recycled slot must be empty");
        (
            SlotTicket { slot: slot.clone(), consumed: std::cell::Cell::new(false) },
            SlotReply { slot, sent: false },
        )
    }

    /// Return a slot after its reply has been taken. Slots whose serving half
    /// may still be live (caller gave up early) must NOT be finished — just
    /// drop the ticket and the slot is garbage-collected with it. A ticket
    /// that never consumed a reply is dropped here for the same reason, so
    /// `finish` costs one free-list lock and zero mailbox locks.
    pub fn finish(&self, ticket: SlotTicket) {
        if ticket.consumed.get() {
            let mut free = self.free.lock();
            if free.len() < CAP {
                free.push(ticket.slot);
                self.parked.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Slots currently parked in the pool (for tests).
    pub fn pooled(&self) -> usize {
        self.free.lock().len()
    }

    /// The live parked-slot count cell, for binding as an occupancy gauge.
    pub fn pooled_cell(&self) -> Arc<AtomicU64> {
        self.parked.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    #[test]
    fn buf_pool_recycles_capacity() {
        let pool = BufPool::new();
        let mut buf = pool.take();
        buf.reserve(1024);
        buf.put_u64_le(7);
        let cap = buf.capacity();
        pool.give(buf);
        assert_eq!(pool.pooled(), 1);
        let again = pool.take();
        assert!(again.is_empty(), "pooled frames come back cleared");
        assert_eq!(again.capacity(), cap, "capacity survives the round trip");
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn a_burst_parks_at_most_the_cap() {
        let pool = BufPool::new();
        let burst: Vec<BytesMut> = (0..CAP + 44).map(|_| BytesMut::with_capacity(64)).collect();
        for buf in burst {
            pool.give(buf);
        }
        assert_eq!(pool.pooled(), CAP, "one thread's burst fills the whole pool, no more");
        let taken: Vec<BytesMut> = (0..CAP + 1).map(|_| pool.take()).collect();
        assert_eq!(pool.pooled(), 0);
        assert_eq!(taken.iter().filter(|b| b.capacity() >= 64).count(), CAP, "then a fresh one");
    }

    #[test]
    fn recycle_reclaims_unshared_frozen_frames() {
        let pool = BufPool::new();
        let mut buf = BytesMut::with_capacity(256);
        buf.put_u32_le(1);
        pool.recycle(buf.freeze());
        assert_eq!(pool.pooled(), 1);
        // A frame with a live alias is dropped, not pooled.
        let frozen = BytesMut::with_capacity(64).freeze();
        let _alias = frozen.clone();
        pool.recycle(frozen);
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn reply_slot_roundtrip_and_reuse() {
        let pool = ReplyPool::new();
        let (ticket, reply) = pool.checkout();
        let payload = Bytes::copy_from_slice(b"ok");
        let handle = std::thread::spawn(move || reply.send(Ok(payload)));
        assert_eq!(&*ticket.wait().unwrap(), b"ok");
        handle.join().unwrap();
        pool.finish(ticket);
        assert_eq!(pool.pooled(), 1);
        let (t2, r2) = pool.checkout();
        assert_eq!(pool.pooled(), 0);
        r2.send(Err(WeaveError::remote("boom")));
        assert!(t2.wait().is_err());
        pool.finish(t2);
    }

    #[test]
    fn dropped_reply_wakes_waiter_with_error() {
        let pool = ReplyPool::new();
        let (ticket, reply) = pool.checkout();
        drop(reply);
        let err = ticket.wait().unwrap_err();
        assert!(matches!(err, WeaveError::Remote(_)));
    }

    #[test]
    fn deadline_wait_times_out_typed() {
        let pool = ReplyPool::new();
        let (ticket, reply) = pool.checkout();
        let deadline = Instant::now() + std::time::Duration::from_millis(20);
        let err = ticket.wait_deadline(Some(deadline), 20).unwrap_err();
        assert!(matches!(err, WeaveError::Timeout { waited_ms: 20 }));
        // The slot is abandoned, not finished: a late reply lands in the
        // orphaned mailbox and the pool never recycles a poisoned slot.
        reply.send(Ok(Bytes::copy_from_slice(b"late")));
        drop(ticket);
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn deadline_wait_returns_early_reply() {
        let pool = ReplyPool::new();
        let (ticket, reply) = pool.checkout();
        reply.send(Ok(Bytes::copy_from_slice(b"fast")));
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        assert_eq!(&*ticket.wait_deadline(Some(deadline), 5000).unwrap(), b"fast");
        pool.finish(ticket);
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn discarded_reply_stays_silent_until_deadline() {
        let pool = ReplyPool::new();
        let (ticket, reply) = pool.checkout();
        reply.discard();
        // No drop-guard error: the waiter only learns via its deadline.
        let deadline = Instant::now() + std::time::Duration::from_millis(15);
        let err = ticket.wait_deadline(Some(deadline), 15).unwrap_err();
        assert!(matches!(err, WeaveError::Timeout { .. }));
    }
}
