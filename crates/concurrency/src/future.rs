//! One-shot futures: the paper's *future variables*.
//!
//! "When a return value is required the client provides a variable, called
//! future, to store the return value. If the client attempts to use this
//! variable before its value becomes available it will be automatically
//! blocked, until the value is computed." — paper §2, describing ABCL; §4.2
//! notes the concurrency module can introduce future-type calls
//! transparently (ref \[3\]).
//!
//! Two flavours:
//!
//! * [`FutureValue<T>`] — a typed one-shot future for direct application use;
//! * [`FutureAny`] — the type-erased future the
//!   [`future_aspect`](crate::aspects::future_aspect) threads through join
//!   points; [`resolve_any`] takes a woven call's result on the client side
//!   whether or not the concurrency aspect is currently plugged.
//!
//! Both have one join, `take`: on a worker of a work-stealing pool it helps
//! (see [`pool`](crate::pool), "Joins"), everywhere else it blocks.
//! [`FutureValue`] is also the middleware's reply cell: a queued remote call
//! waits with [`FutureValue::take_until`], which blocks up to its
//! `CallPolicy` deadline and never helps, and the reply pool re-arms a taken
//! cell with [`FutureValue::reset`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use weavepar_weave::{AnyValue, Detached, WeaveError, WeaveResult};

use crate::pool::{Joiner, StealCore};

enum State<T> {
    /// Not fulfilled yet.
    Pending {
        /// The pool (if any) whose worker is helping while it waits for this
        /// future, to be woken at fulfilment.
        helper: Option<Arc<StealCore>>,
        /// A taker is blocked on the condvar (or about to be: it sets this
        /// under the lock its wait releases). Fulfilment notifies only then,
        /// since a notify is a system call even when nobody waits.
        blocked: bool,
    },
    Ready(T),
    Taken,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

/// A typed, write-once, blocking-read future.
///
/// Cloning shares the same slot; any clone may fulfil it, any clone may take
/// the value (exactly one take succeeds).
pub struct FutureValue<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for FutureValue<T> {
    fn clone(&self) -> Self {
        FutureValue { shared: self.shared.clone() }
    }
}

impl<T> Default for FutureValue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FutureValue<T> {
    /// A pending future.
    pub fn new() -> Self {
        FutureValue {
            shared: Arc::new(Shared {
                state: Mutex::new(State::Pending { helper: None, blocked: false }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Fulfil the future. Returns `false` (and drops `value`) if it was
    /// already fulfilled — write-once semantics.
    pub fn fulfill(&self, value: T) -> bool {
        let mut state = self.shared.state.lock();
        let State::Pending { helper, blocked } = &mut *state else { return false };
        let (helper, blocked) = (helper.take(), *blocked);
        *state = State::Ready(value);
        // Notify with the lock released, or every woken taker would block
        // at once on the mutex it was just told about.
        drop(state);
        if blocked {
            self.shared.cv.notify_all();
        }
        if let Some(pool) = helper {
            pool.wake_all();
        }
        true
    }

    /// Wait until the value is available, then move it out. A second take
    /// fails with an application error.
    ///
    /// On a worker of a work-stealing pool that holds no object monitor the
    /// wait *helps*: the worker runs queued tasks until the value is there
    /// (see [`pool`](crate::pool), "Joins"). Everywhere else it blocks.
    pub fn take(&self) -> WeaveResult<T> {
        self.take_within(None, true).map(|value| value.expect("a take without a deadline"))
    }

    /// Like [`take`](Self::take), but it blocks even on a pool worker, and
    /// only until `deadline` (`None`: for as long as it takes). `Ok(None)`
    /// once the deadline passes with the future still pending. It stays
    /// pending, open to a late value, so [`reset`](Self::reset) refuses it.
    pub fn take_until(&self, deadline: Option<Instant>) -> WeaveResult<Option<T>> {
        self.take_within(deadline, false)
    }

    /// The one blocking loop of both takes. `help` lets a pool worker run
    /// queued tasks instead of blocking (a deadline is only ever blocked on).
    fn take_within(&self, deadline: Option<Instant>, help: bool) -> WeaveResult<Option<T>> {
        let mut state = self.shared.state.lock();
        loop {
            match std::mem::replace(&mut *state, State::Taken) {
                State::Ready(v) => return Ok(Some(v)),
                State::Taken => return Err(WeaveError::app("future already taken")),
                pending @ State::Pending { .. } => *state = pending,
            }
            match help.then(Joiner::current).flatten() {
                Some(joiner) if Self::enlist(&mut state, &joiner) => {
                    drop(state);
                    joiner.help_until(|| !self.is_pending());
                    state = self.shared.state.lock();
                }
                _ => {
                    if let State::Pending { blocked, .. } = &mut *state {
                        *blocked = true;
                    }
                    match deadline {
                        None => self.shared.cv.wait(&mut state),
                        Some(at) => {
                            let expired = self.shared.cv.wait_until(&mut state, at).timed_out();
                            if expired && matches!(*state, State::Pending { .. }) {
                                return Ok(None);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Re-arm a taken future as pending, for another round (the reply pool
    /// recycles its cells this way). `false`, and nothing changes, when the
    /// future is pending or ready: its value may still arrive or still be
    /// unread, and re-arming it would hand that value to the next round.
    pub fn reset(&self) -> bool {
        let mut state = self.shared.state.lock();
        if !matches!(*state, State::Taken) {
            return false;
        }
        *state = State::Pending { helper: None, blocked: false };
        true
    }

    /// Name the joiner's pool as the one to wake at fulfilment. `false` when
    /// a worker of *another* pool is already helping on this future (one
    /// slot: the later joiner blocks instead).
    fn enlist(state: &mut State<T>, joiner: &Joiner) -> bool {
        match state {
            State::Pending { helper, .. } => {
                let pool = helper.get_or_insert_with(|| joiner.pool().clone());
                Arc::ptr_eq(pool, joiner.pool())
            }
            _ => false,
        }
    }

    fn is_pending(&self) -> bool {
        matches!(*self.shared.state.lock(), State::Pending { .. })
    }

    /// True once a taker has blocked on this future and not yet been woken.
    #[cfg(test)]
    fn has_blocked_taker(&self) -> bool {
        matches!(*self.shared.state.lock(), State::Pending { blocked: true, .. })
    }
}

impl<T> std::fmt::Debug for FutureValue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.lock();
        let s = match *state {
            State::Pending { .. } => "pending",
            State::Ready(_) => "ready",
            State::Taken => "taken",
        };
        write!(f, "FutureValue({s})")
    }
}

/// The type-erased future that flows through join points as a return value.
///
/// Carries a `WeaveResult<AnyValue>` so asynchronous failures surface at the
/// point where the client finally consumes the result — the analogue of the
/// paper's `RemoteException` reaching the caller.
#[derive(Clone, Debug)]
pub struct FutureAny {
    inner: FutureValue<WeaveResult<AnyValue>>,
}

impl Default for FutureAny {
    fn default() -> Self {
        Self::new()
    }
}

impl FutureAny {
    /// A pending erased future.
    pub fn new() -> Self {
        FutureAny { inner: FutureValue::new() }
    }

    /// Fulfil with a result.
    pub fn fulfill(&self, value: WeaveResult<AnyValue>) -> bool {
        self.inner.fulfill(value)
    }

    /// Run a detached chain into this future — the one way an asynchronous
    /// invocation completes. A chain that panics fails its own future with
    /// an application error (the joiner is not left waiting for a value
    /// nobody will write) and the unwind stops here, so a pool worker that
    /// ran it lives on.
    pub(crate) fn run(&self, detached: Detached) {
        let outcome = catch_unwind(AssertUnwindSafe(|| detached.run()));
        self.fulfill(
            outcome.unwrap_or_else(|_| Err(WeaveError::app("asynchronous invocation panicked"))),
        );
    }

    /// Wait until fulfilled, then move the result out. On a pool worker the
    /// wait helps instead of blocking — see [`FutureValue::take`].
    pub fn take(&self) -> WeaveResult<AnyValue> {
        self.inner.take()?
    }
}

/// Resolve a join-point return value to its final concrete value, waiting
/// through any number of chained futures (helping on a pool worker, like
/// [`FutureAny::take`]).
///
/// Pipeline forwarding returns the *downstream* call's result, which — when
/// the concurrency aspect is plugged — is itself a future; resolving a pack
/// therefore means unwrapping futures until a non-future value appears.
pub fn resolve_any(mut ret: AnyValue) -> WeaveResult<AnyValue> {
    loop {
        match ret.downcast::<FutureAny>() {
            Ok(f) => ret = f.take()?,
            Err(value) => return Ok(value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fulfil_then_take() {
        let f = FutureValue::new();
        assert!(f.fulfill(42));
        assert_eq!(f.take().unwrap(), 42);
        assert!(f.take().is_err());
    }

    #[test]
    fn write_once() {
        let f = FutureValue::new();
        assert!(f.fulfill(1));
        assert!(!f.fulfill(2));
        assert_eq!(f.take().unwrap(), 1);
    }

    #[test]
    fn a_taker_that_blocked_before_the_fulfilment_is_woken() {
        let f = FutureValue::new();
        let f2 = f.clone();
        let t = thread::spawn(move || f2.take().unwrap());
        // The flag is set under the lock that the taker's wait releases, so
        // once it reads true the taker is parked on the condvar (or about to
        // be, with the lock still held) and must be notified.
        while !f.has_blocked_taker() {
            thread::yield_now();
        }
        assert!(f.fulfill(7u32));
        assert_eq!(t.join().unwrap(), 7);
    }

    #[test]
    fn future_any_carries_errors() {
        let f = FutureAny::new();
        f.fulfill(Err(WeaveError::app("remote blew up")));
        assert!(matches!(f.take(), Err(WeaveError::App(_))));
    }

    #[test]
    fn resolve_any_unwraps_chains() {
        // value -> future(value) -> future(future(value))
        let plain: AnyValue = AnyValue::new(5u32);
        assert_eq!(*resolve_any(plain).unwrap().downcast::<u32>().unwrap(), 5);

        let inner = FutureAny::new();
        inner.fulfill(Ok(AnyValue::new(6u32)));
        let outer = FutureAny::new();
        outer.fulfill(Ok(AnyValue::new(inner)));
        let ret: AnyValue = AnyValue::new(outer);
        assert_eq!(*resolve_any(ret).unwrap().downcast::<u32>().unwrap(), 6);
    }

    #[test]
    fn resolve_any_propagates_errors() {
        let f = FutureAny::new();
        f.fulfill(Err(WeaveError::app("downstream failed")));
        let ret: AnyValue = AnyValue::new(f);
        assert!(matches!(resolve_any(ret), Err(WeaveError::App(_))));
    }

    #[test]
    fn many_waiters_one_winner() {
        let f = FutureValue::<u64>::new();
        let mut joins = Vec::new();
        for _ in 0..4 {
            let f = f.clone();
            joins.push(thread::spawn(move || f.take().is_ok()));
        }
        while !f.has_blocked_taker() {
            thread::yield_now();
        }
        f.fulfill(5);
        let winners = joins.into_iter().map(|j| j.join().unwrap()).filter(|ok| *ok).count();
        assert_eq!(winners, 1, "exactly one taker must win");
    }

    #[test]
    fn reset_rearms_only_a_taken_future() {
        let f = FutureValue::new();
        assert!(!f.reset(), "a pending future may still be fulfilled");
        assert!(f.fulfill(1u8));
        assert!(!f.reset(), "a ready value is still unread");
        assert_eq!(f.take().unwrap(), 1);
        assert!(f.reset());
        assert_eq!(format!("{f:?}"), "FutureValue(pending)");
        assert!(f.fulfill(2));
        assert_eq!(f.take().unwrap(), 2, "the re-armed future is one-shot again");
    }

    #[test]
    fn take_until_returns_a_value_fulfilled_before_its_deadline() {
        let f = FutureValue::new();
        let f2 = f.clone();
        let t =
            thread::spawn(move || f2.take_until(Some(Instant::now() + Duration::from_secs(60))));
        while !f.has_blocked_taker() {
            thread::yield_now();
        }
        assert!(f.fulfill(7u32));
        assert_eq!(t.join().unwrap().unwrap(), Some(7));
        assert!(f.take_until(None).is_err(), "and it was taken");
    }

    #[test]
    fn take_until_gives_up_at_its_deadline() {
        let f = FutureValue::<u32>::new();
        assert_eq!(f.take_until(Some(Instant::now())).unwrap(), None);
        assert_eq!(f.take_until(Some(Instant::now() + Duration::from_millis(5))).unwrap(), None);
        assert!(!f.reset(), "an expired take leaves the future pending");
        assert!(f.fulfill(3), "and still open to a late value");
        assert_eq!(f.take_until(Some(Instant::now())).unwrap(), Some(3));
    }

    #[test]
    fn debug_states() {
        let f = FutureValue::<u8>::new();
        assert_eq!(format!("{f:?}"), "FutureValue(pending)");
        f.fulfill(1);
        assert_eq!(format!("{f:?}"), "FutureValue(ready)");
        let _ = f.take();
        assert_eq!(format!("{f:?}"), "FutureValue(taken)");
    }
}
