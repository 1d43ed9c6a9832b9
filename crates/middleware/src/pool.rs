//! Buffer and reply-cell pooling for the remote-call fast path.
//!
//! Two recyclers back the zero-allocation contract:
//!
//! * [`BufPool`] — one locked stack of frozen frames, each the only handle
//!   on its storage. An encode path takes a cleared frame (keeping a
//!   previous call's capacity) or has one written in place
//!   ([`BufPool::encode`]), and decode paths hand frames back with
//!   `recycle`, which keeps only unshared ones. A replied call moves one
//!   frame: the caller encodes into it, the serving side writes its reply
//!   over it once it has decoded it ([`Bytes::rewrite`]), and the caller
//!   recycles it. That is one uniqueness check on each side, where turning a
//!   frame into a builder and back costs two.
//!
//! * [`ReplyPool`] — the cells of the fabric's one reply rendezvous, for
//!   every replied request that has to queue: a call, a construct, a
//!   snapshot, a restore (one served on the caller's thread needs none).
//!   A [`ReplyCell`] is the concurrency module's one-shot future: a caller
//!   checks one out, submits the request carrying the [`SlotReply`] half,
//!   takes the reply with `take_until` (blocking, never helping, up to its
//!   deadline) and returns the cell with [`ReplyPool::finish`], which
//!   recycles it only if it re-arms. `SlotReply` is a drop guard: if the
//!   serving side drops it without answering (request dropped on the
//!   floor), the cell is fulfilled with a `WeaveError::Remote` instead of
//!   leaving its caller blocked forever.
//!
//! Each pool is one free list under one lock, capped at 256 entries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;

use weavepar_concurrency::FutureValue;
use weavepar_weave::{WeaveError, WeaveResult};

/// Most entries a pool keeps: beyond this, returned frames and slots are
/// simply dropped so a burst doesn't pin its high-water allocation forever.
pub(crate) const CAP: usize = 256;

/// Pool of reusable frames.
#[derive(Default)]
pub struct BufPool {
    free: Mutex<Vec<Bytes>>,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cleared frame, reusing a pooled allocation when one is available.
    pub fn take(&self) -> BytesMut {
        self.free.lock().pop().and_then(|frame| frame.try_into_mut().ok()).unwrap_or_default()
    }

    /// A frame holding what `write` writes: a pooled one written over in
    /// place, or a new one. On an error the frame goes back.
    pub fn encode(
        &self,
        write: impl FnOnce(&mut BytesMut) -> WeaveResult<()>,
    ) -> WeaveResult<Bytes> {
        let frame = self.free.lock().pop().unwrap_or_default();
        self.rewrite(frame, write)
    }

    /// `frame` holding what `write` writes over it — in place once it is
    /// read and nothing else holds it, as a served call's reply goes back in
    /// its argument frame. On an error the frame goes back to the pool.
    pub(crate) fn rewrite(
        &self,
        mut frame: Bytes,
        write: impl FnOnce(&mut BytesMut) -> WeaveResult<()>,
    ) -> WeaveResult<Bytes> {
        match frame.rewrite(write) {
            Ok(()) => Ok(frame),
            Err(err) => {
                self.recycle(frame);
                Err(err)
            }
        }
    }

    /// Take a frame back when nothing else holds its storage (dropped when
    /// the pool is full); a frame with live aliases is silently dropped.
    pub fn recycle(&self, frame: Bytes) {
        if frame.is_unique() {
            let mut free = self.free.lock();
            if free.len() < CAP {
                free.push(frame);
            }
        }
    }

    /// Frames currently parked in the pool.
    #[cfg(test)]
    pub(crate) fn pooled(&self) -> usize {
        self.free.lock().len()
    }

    /// True when every parked frame is the only handle on its storage: no
    /// two parked frames share an allocation.
    #[cfg(test)]
    pub(crate) fn all_unshared(&self) -> bool {
        self.free.lock().iter().all(Bytes::is_unique)
    }
}

/// A queued request's reply: a one-shot future the caller takes at once.
pub type ReplyCell = FutureValue<WeaveResult<Bytes>>;

/// The serving side's half of a checked-out [`ReplyCell`]. Consuming `send`
/// delivers the answer; dropping unsent fails the cell so a lost request can
/// never strand its caller.
pub struct SlotReply {
    cell: ReplyCell,
    sent: bool,
}

impl SlotReply {
    /// Deliver the reply and wake the waiting caller.
    pub fn send(mut self, result: WeaveResult<Bytes>) {
        self.sent = true;
        self.cell.fulfill(result);
    }

    /// Fault injection: make the reply vanish *silently* — the drop guard is
    /// defused, the cell is never fulfilled, and the caller only learns of
    /// the loss when its deadline expires (a dropped datagram, not an
    /// error). The pool never recycles the cell: it is not taken.
    pub(crate) fn discard(mut self) {
        self.sent = true;
    }
}

impl Drop for SlotReply {
    fn drop(&mut self) {
        if !self.sent {
            self.cell.fulfill(Err(WeaveError::remote("reply dropped before an answer was sent")));
        }
    }
}

/// Pool of reply cells: `checkout` hands out a (cell, reply) pair backed by
/// a recycled cell when one is free.
#[derive(Default)]
pub struct ReplyPool {
    free: Mutex<Vec<ReplyCell>>,
    /// Live count of parked cells, maintained on checkout/finish so a
    /// metrics registry can bind pool occupancy as a gauge without taking
    /// the free-list lock.
    parked: Arc<AtomicU64>,
}

impl ReplyPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out a pending cell: the caller keeps the [`ReplyCell`], the
    /// request carries the [`SlotReply`].
    pub fn checkout(&self) -> (ReplyCell, SlotReply) {
        let cell = match self.free.lock().pop() {
            Some(cell) => {
                self.parked.fetch_sub(1, Ordering::Relaxed);
                cell
            }
            None => ReplyCell::new(),
        };
        (cell.clone(), SlotReply { cell, sent: false })
    }

    /// Return a cell once its caller is done with it, however the wait
    /// ended. It is recycled exactly when it re-arms
    /// ([`FutureValue::reset`]), that is when its reply was taken. A cell
    /// whose deadline passed may still be fulfilled late, and one answered
    /// but not taken holds a stale reply: either is dropped with its last
    /// handle, never handed to the next call.
    pub fn finish(&self, cell: ReplyCell) {
        if cell.reset() {
            let mut free = self.free.lock();
            if free.len() < CAP {
                free.push(cell);
                self.parked.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Cells currently parked in the pool.
    #[cfg(test)]
    pub(crate) fn pooled(&self) -> usize {
        self.free.lock().len()
    }

    /// The live parked-cell count, for binding as an occupancy gauge.
    pub fn pooled_cell(&self) -> Arc<AtomicU64> {
        self.parked.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;
    use std::time::{Duration, Instant};

    #[test]
    fn buf_pool_recycles_capacity() {
        let pool = BufPool::new();
        let mut buf = pool.take();
        buf.reserve(1024);
        buf.put_u64_le(7);
        let cap = buf.capacity();
        pool.recycle(buf.freeze());
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
            pool.recycle(buf.freeze());
        }
        assert_eq!(pool.pooled(), CAP, "one thread's burst fills the whole pool, no more");
        let taken: Vec<BytesMut> = (0..CAP + 1).map(|_| pool.take()).collect();
        assert_eq!(pool.pooled(), 0);
        assert_eq!(taken.iter().filter(|b| b.capacity() >= 64).count(), CAP, "then a fresh one");
    }

    #[test]
    fn encode_writes_over_a_pooled_frame_and_gives_it_back_on_an_error() {
        let pool = BufPool::new();
        let mut buf = BytesMut::with_capacity(256);
        buf.put_u64_le(1);
        pool.recycle(buf.freeze());
        let frame = pool
            .encode(|buf| {
                assert!(buf.is_empty() && buf.capacity() >= 256, "the pooled storage, cleared");
                buf.put_u32_le(5);
                Ok(())
            })
            .unwrap();
        assert_eq!((&*frame, pool.pooled()), (&5u32.to_le_bytes()[..], 0));
        pool.recycle(frame);
        let err = pool.encode(|_| Err(WeaveError::remote("no codec"))).unwrap_err();
        assert!(matches!(err, WeaveError::Remote(_)), "{err}");
        assert_eq!(pool.pooled(), 1, "the frame went back");
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
        let (cell, reply) = pool.checkout();
        let payload = Bytes::copy_from_slice(b"ok");
        let handle = std::thread::spawn(move || reply.send(Ok(payload)));
        assert_eq!(&*cell.take_until(None).unwrap().unwrap().unwrap(), b"ok");
        handle.join().unwrap();
        pool.finish(cell);
        assert_eq!(pool.pooled(), 1);
        let (again, r2) = pool.checkout();
        assert_eq!(pool.pooled(), 0);
        assert_eq!(format!("{again:?}"), "FutureValue(pending)", "a recycled cell is re-armed");
        r2.send(Err(WeaveError::remote("boom")));
        assert!(again.take_until(None).unwrap().unwrap().is_err());
        pool.finish(again);
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn dropped_reply_wakes_waiter_with_error() {
        let pool = ReplyPool::new();
        let (cell, reply) = pool.checkout();
        drop(reply);
        let err = cell.take_until(None).unwrap().unwrap().unwrap_err();
        assert!(matches!(err, WeaveError::Remote(_)));
    }

    #[test]
    fn a_late_reply_after_a_timeout_is_not_recycled() {
        let pool = ReplyPool::new();
        let (cell, reply) = pool.checkout();
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(cell.take_until(Some(deadline)).unwrap().is_none());
        // The reply lands after the caller gave up, before or after it
        // finishes the cell: either way the stale reply never reaches the
        // next caller.
        reply.send(Ok(Bytes::copy_from_slice(b"late")));
        pool.finish(cell);
        assert_eq!(pool.pooled(), 0);
        let (cell, reply) = pool.checkout();
        assert!(cell.take_until(Some(Instant::now())).unwrap().is_none());
        pool.finish(cell);
        reply.send(Ok(Bytes::copy_from_slice(b"later")));
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn deadline_wait_returns_early_reply() {
        let pool = ReplyPool::new();
        let (cell, reply) = pool.checkout();
        reply.send(Ok(Bytes::copy_from_slice(b"fast")));
        let deadline = Instant::now() + Duration::from_secs(5);
        assert_eq!(&*cell.take_until(Some(deadline)).unwrap().unwrap().unwrap(), b"fast");
        pool.finish(cell);
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn discarded_reply_stays_silent_until_deadline() {
        let pool = ReplyPool::new();
        let (cell, reply) = pool.checkout();
        reply.discard();
        // No drop-guard error: the caller only learns via its deadline.
        let deadline = Instant::now() + Duration::from_millis(15);
        assert!(cell.take_until(Some(deadline)).unwrap().is_none());
        pool.finish(cell);
        assert_eq!(pool.pooled(), 0, "an untaken cell is not recycled");
    }
}
