//! The logging aspect of the paper's Figure 3, grown into a debugging tool.
//!
//! ```java
//! public aspect Logging {
//!     void around(void Point.move*()) {
//!         System.out.println("Move called");
//!         proceed();
//!     }
//! }
//! ```
//!
//! [`logging_aspect`] records every matched join point — signature, target,
//! call-site provenance, wall time, success — into a shared [`CallLog`],
//! which is exactly the "understand the overall parallelism structure"
//! instrument the paper motivates: plug it under any concern stack, run,
//! and read off who called what, from where, how often and for how long.
//!
//! The log is a **bounded ring**: long-running programs keep the most recent
//! [`CALL_LOG_CAPACITY`] records, older ones are dropped (and
//! counted), and the aggregate timing survives unbounded in a
//! [`Histogram`] — so leaving the aspect plugged for hours costs a fixed
//! amount of memory.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use weavepar_weave::prelude::*;
use weavepar_weave::{Histogram, ObjId};

/// Records a [`CallLog`] retains.
pub const CALL_LOG_CAPACITY: usize = 4096;

/// One logged join point.
#[derive(Debug, Clone)]
pub struct CallRecord {
    /// Signature of the join point.
    pub signature: Signature,
    /// Target object, when present.
    pub target: Option<ObjId>,
    /// Where the call was issued from (core or aspect advice).
    pub caller: Provenance,
    /// Wall time of the remainder of the chain plus base execution.
    pub elapsed: Duration,
    /// Did the event complete without error?
    pub ok: bool,
}

/// A shared, thread-safe, **bounded** log of [`CallRecord`]s.
///
/// The detailed records live in a ring of [`CALL_LOG_CAPACITY`]: once full, each
/// new record evicts the oldest and bumps [`dropped`](CallLog::dropped).
/// The [`latency`] histogram is fed by every record ever logged, dropped or
/// not.
///
/// [`latency`]: CallLog::latency
#[derive(Clone)]
pub struct CallLog {
    ring: Arc<Mutex<VecDeque<CallRecord>>>,
    dropped: Arc<AtomicU64>,
    latency: Histogram,
}

impl Default for CallLog {
    fn default() -> Self {
        Self::new()
    }
}

impl CallLog {
    /// An empty log.
    pub fn new() -> Self {
        CallLog {
            ring: Arc::new(Mutex::new(VecDeque::with_capacity(CALL_LOG_CAPACITY))),
            dropped: Arc::new(AtomicU64::new(0)),
            latency: Histogram::new(),
        }
    }

    /// Append one record, evicting the oldest when the ring is full.
    pub fn push(&self, record: CallRecord) {
        self.latency.record(record.elapsed);
        let mut ring = self.ring.lock();
        if ring.len() == CALL_LOG_CAPACITY {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted from the ring since creation (or the last
    /// [`clear`](CallLog::clear)).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy of the retained records, in completion order.
    pub fn records(&self) -> Vec<CallRecord> {
        self.ring.lock().iter().cloned().collect()
    }

    /// The latency histogram fed by every pushed record; survives ring
    /// eviction, so long runs keep full timing distributions.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Drop all records and reset the dropped counter and the histogram.
    pub fn clear(&self) {
        self.ring.lock().clear();
        self.dropped.store(0, Ordering::Relaxed);
        self.latency.reset();
    }
}

impl std::fmt::Debug for CallLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CallLog")
            .field("records", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Build the logging aspect: every matched join point proceeds normally and
/// is recorded into `log`. Defaults to a very low precedence (−1000) so it
/// wraps the entire concern stack and sees calls as the caller issued them.
pub fn logging_aspect(name: impl Into<String>, pointcut: Pointcut, log: CallLog) -> Aspect {
    Aspect::named(name)
        .precedence(-1000)
        .around(pointcut, move |inv: &mut Invocation| {
            let signature = inv.signature();
            let target = inv.target();
            let caller = inv.caller();
            let (result, elapsed) = inv.proceed_timed();
            log.push(CallRecord { signature, target, caller, elapsed, ok: result.is_ok() });
            result
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use weavepar_weave::args;

    struct Point {
        x: i64,
    }

    weavepar_weave::weaveable! {
        class Point as PointProxy {
            fn new() -> Self { Point { x: 0 } }
            fn move_x(&mut self, d: i64) { self.x += d; }
            fn move_y(&mut self, _d: i64) {}
            fn get(&mut self) -> i64 { self.x }
        }
    }

    #[test]
    fn figure3_logging() {
        let weaver = Weaver::new();
        let log = CallLog::new();
        weaver.plug(logging_aspect("Logging", Pointcut::call("Point.move*"), log.clone()));
        let p = PointProxy::construct(&weaver).unwrap();
        p.move_x(10).unwrap();
        p.move_y(5).unwrap();
        p.get().unwrap(); // not matched
        assert_eq!(log.len(), 2);
        let records = log.records();
        assert_eq!(records[0].signature.to_string(), "Point.move_x");
        assert_eq!(records[1].signature.to_string(), "Point.move_y");
        assert!(records.iter().all(|r| r.ok && r.caller == Provenance::Core));
    }

    #[test]
    fn provenance_split_reveals_partition_structure() {
        // An aspect that fans one call out into three: the log shows 1 core
        // call and 3 aspect calls.
        let weaver = Weaver::new();
        let log = CallLog::new();
        weaver.plug(logging_aspect("Logging", Pointcut::call("Point.move_x"), log.clone()));
        weaver.plug(
            Aspect::named("FanOut")
                .around(
                    Pointcut::call("Point.move_x").and(Pointcut::within_core()),
                    |inv: &mut Invocation| {
                        let target = inv.target_required()?;
                        for _ in 0..3 {
                            inv.weaver().invoke_call(target, "Point", "move_x", args![1i64])?;
                        }
                        Ok(weavepar_weave::ret!())
                    },
                )
                .build(),
        );
        let p = PointProxy::construct(&weaver).unwrap();
        p.move_x(99).unwrap();
        let records = log.records();
        let core = records.iter().filter(|r| r.caller == Provenance::Core).count();
        assert_eq!((core, records.len() - core), (1, 3));
        assert_eq!(p.get().unwrap(), 3, "the original 99 was replaced by 3×1");
    }

    #[test]
    fn failures_are_logged_as_not_ok() {
        let weaver = Weaver::new();
        let log = CallLog::new();
        weaver.plug(logging_aspect("Logging", Pointcut::call("Point.move_x"), log.clone()));
        let p = PointProxy::construct(&weaver).unwrap();
        // Wrong argument type: base dispatch fails.
        assert!(p.handle().call("move_x", args!["nope".to_string()]).is_err());
        let records = log.records();
        assert_eq!(records.len(), 1);
        assert!(!records[0].ok);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let weaver = Weaver::new();
        let log = CallLog::new();
        weaver.plug(logging_aspect("Logging", Pointcut::call("Point.move_x"), log.clone()));
        let p = PointProxy::construct(&weaver).unwrap();
        let calls = CALL_LOG_CAPACITY as i64 + 3;
        for d in 0..calls {
            p.move_x(d).unwrap();
        }
        // Only the most recent records survive; the 3 evicted ones are
        // counted, and the histogram still saw every call.
        assert_eq!(log.len(), CALL_LOG_CAPACITY);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.latency().count(), calls as u64);
        assert!(log.latency().sum_ns() > 0);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.latency().count(), 0);
    }
}
