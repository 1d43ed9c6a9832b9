//! Optimisation aspects (paper §4.4).
//!
//! "Aspects provide a way to modularise optimisations, becoming easier to
//! experiment various alternative optimisations, by plugging or unplugging
//! each optimisation aspect. However, only optimisations based in joinpoints
//! can be modularised by aspects. Examples are: thread pools, cache objects,
//! communication packing and replicated computation."
//!
//! Realisations here:
//!
//! * **thread pools** — the concurrency module's executor is a plug-time
//!   choice: `future_concurrency_aspect(.., Executor::Pool(pool))` instead of
//!   `Executor::thread_per_call()`. Every concurrent Table 1 sieve row and the
//!   concurrent divide-and-conquer sort plug one process-wide work-stealing
//!   pool (per-worker LIFO deques, global injector, pack-granular
//!   `spawn_batch`, joins that help), shared between them;
//! * **cache objects** — [`object_cache_aspect`]: memoises matched calls per
//!   `(target, argument-key)` and answers repeats without `proceed` — in a
//!   distributed stack it sits outside the distribution aspect and therefore
//!   elides remote calls;
//! * **communication packing** —
//!   [`message_packing_aspect`](weavepar_middleware::message_packing_aspect):
//!   buffers matched oneway calls on remote stubs and ships them as one framed
//!   pack per destination node. It lives with the wire format it packs into.
//!
//! The fourth example, *replicated computation*, is exhibited by the
//! distribution aspect itself in this reproduction: the client-side stub
//! constructor re-runs the (cheap) constructor computation locally instead of
//! shipping its state — see `weavepar-middleware`'s design notes.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use weavepar_concurrency::FutureValue;
use weavepar_weave::aspect::precedence;
use weavepar_weave::prelude::*;
use weavepar_weave::ObjId;

/// How an application describes cacheable calls to [`object_cache_aspect`]:
/// a stable key for the arguments and a way to duplicate a result (results
/// are handed out both to the caller and to the cache).
/// Derives a stable cache key from a call's arguments.
pub type CacheKeyFn = Arc<dyn Fn(&Args) -> WeaveResult<String> + Send + Sync>;

/// Duplicates a (type-erased) result.
pub type CloneRetFn = Arc<dyn Fn(&AnyValue) -> WeaveResult<AnyValue> + Send + Sync>;

#[derive(Clone)]
pub struct CachePolicy {
    /// Derive a stable cache key from the call's arguments.
    pub key: CacheKeyFn,
    /// Duplicate a (type-erased) result.
    pub clone_ret: CloneRetFn,
}

impl CachePolicy {
    /// Policy for methods whose single argument and result are both `T`.
    pub fn unary<T: Clone + Send + std::fmt::Debug + 'static, R: Clone + Send + 'static>() -> Self {
        CachePolicy {
            key: Arc::new(|args: &Args| Ok(format!("{:?}", args.get::<T>(0)?))),
            clone_ret: Arc::new(|ret: &AnyValue| {
                let typed = ret.downcast_ref::<R>().ok_or_else(|| WeaveError::TypeMismatch {
                    expected: std::any::type_name::<R>(),
                    context: "cache clone".into(),
                })?;
                Ok(AnyValue::new(typed.clone()))
            }),
        }
    }
}

/// Statistics handle of a plugged cache aspect.
#[derive(Clone, Default)]
pub struct CacheStats {
    inner: Arc<Mutex<(u64, u64)>>, // (hits, misses)
}

impl CacheStats {
    /// Calls answered from the cache.
    pub fn hits(&self) -> u64 {
        self.inner.lock().0
    }

    /// Calls that had to proceed.
    pub fn misses(&self) -> u64 {
        self.inner.lock().1
    }
}

impl std::fmt::Debug for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CacheStats(hits={}, misses={})", self.hits(), self.misses())
    }
}

/// The cache-objects optimisation: matched calls are memoised per
/// `(target, key)`, unbounded. Returns the aspect and its statistics handle.
///
/// The miss path is **single-flight**: when several threads miss the same
/// `(target, key)` at once, exactly one proceeds while the rest wait for its
/// result — the point of a cache in front of an expensive (possibly remote)
/// call is precisely *not* to issue it N times. If the leader's call fails,
/// waiters retry (one becomes the next leader); errors are never cached.
pub fn object_cache_aspect(
    name: impl Into<String>,
    pointcut: Pointcut,
    policy: CachePolicy,
) -> (Aspect, CacheStats) {
    let stats = CacheStats::default();
    let stats_inner = stats.clone();
    let cache: Arc<Mutex<HashMap<(ObjId, String), AnyValue>>> = Arc::default();
    type InflightMap = HashMap<(ObjId, String), FutureValue<()>>;
    let inflight: Arc<Mutex<InflightMap>> = Arc::new(Mutex::new(HashMap::new()));
    let aspect = Aspect::named(name)
        .precedence(precedence::OPTIMISATION)
        .around(pointcut, move |inv: &mut Invocation| {
            let target = inv.target_required()?;
            let key = (policy.key)(inv.args()?)?;
            let key = (target, key);
            loop {
                if let Some(hit) = cache.lock().get(&key) {
                    stats_inner.inner.lock().0 += 1;
                    return (policy.clone_ret)(hit);
                }
                // Miss: elect a leader for this key.
                let flight = {
                    let mut inflight = inflight.lock();
                    match inflight.get(&key) {
                        Some(f) => Some(f.clone()),
                        None => {
                            inflight.insert(key.clone(), FutureValue::new());
                            None
                        }
                    }
                };
                let Some(flight) = flight else {
                    // Leader: proceed with no locks held, then publish the
                    // entry *before* releasing the flight so woken waiters
                    // find it on their re-check.
                    let result = inv.proceed().and_then(|ret| {
                        let copy = (policy.clone_ret)(&ret)?;
                        Ok((ret, copy))
                    });
                    let ret = match result {
                        Ok((ret, copy)) => {
                            cache.lock().insert(key.clone(), copy);
                            stats_inner.inner.lock().1 += 1;
                            Ok(ret)
                        }
                        // Failure: nothing is cached; releasing the flight
                        // lets a waiter retry as the next leader.
                        Err(e) => Err(e),
                    };
                    let f = inflight.lock().remove(&key);
                    if let Some(f) = f {
                        f.fulfill(());
                    }
                    return ret;
                };
                // Follower: wait for the leader, then re-check the cache (a
                // failed leader leaves it empty, and the loop elects anew).
                // Only the wake-up matters: that one follower took the unit
                // value first is no error to the others.
                let _ = flight.take();
            }
        })
        .build();
    (aspect, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Expensive {
        executions: Arc<AtomicU64>,
    }

    thread_local! {
        static EXEC_COUNTER: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
    }

    weavepar_weave::weaveable! {
        class Expensive as ExpensiveProxy {
            fn new() -> Self {
                Expensive { executions: EXEC_COUNTER.with(|c| c.clone()) }
            }
            fn work(&mut self, xs: Vec<u64>) -> Vec<u64> {
                self.executions.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                xs.into_iter().map(|x| x + 1).collect()
            }
        }
    }

    fn executions() -> u64 {
        EXEC_COUNTER.with(|c| c.load(Ordering::Relaxed))
    }

    #[test]
    fn cache_answers_repeats_without_proceeding() {
        let weaver = Weaver::new();
        let (aspect, stats) = object_cache_aspect(
            "Cache",
            Pointcut::call("Expensive.work"),
            CachePolicy::unary::<Vec<u64>, Vec<u64>>(),
        );
        weaver.plug(aspect);
        let e = ExpensiveProxy::construct(&weaver).unwrap();
        let before = executions();
        assert_eq!(e.work(vec![1, 2]).unwrap(), vec![2, 3]);
        assert_eq!(e.work(vec![1, 2]).unwrap(), vec![2, 3]);
        assert_eq!(e.work(vec![1, 2]).unwrap(), vec![2, 3]);
        assert_eq!(executions() - before, 1, "only the first call executes");
        assert_eq!(stats.hits(), 2);
        assert_eq!(stats.misses(), 1);
        // A different argument misses.
        assert_eq!(e.work(vec![9]).unwrap(), vec![10]);
        assert_eq!(stats.misses(), 2);
    }

    static SLOW_EXECUTIONS: AtomicU64 = AtomicU64::new(0);

    struct Slow;

    weavepar_weave::weaveable! {
        class Slow as SlowProxy {
            fn new() -> Self { Slow }
            fn work(&mut self, x: u64) -> u64 {
                SLOW_EXECUTIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(40));
                x * 2
            }
        }
    }

    #[test]
    fn racing_misses_are_single_flight() {
        let weaver = Weaver::new();
        let (aspect, stats) = object_cache_aspect(
            "Cache",
            Pointcut::call("Slow.work"),
            CachePolicy::unary::<u64, u64>(),
        );
        weaver.plug(aspect);
        let s = SlowProxy::construct(&weaver).unwrap();
        let target = s.id();
        let before = SLOW_EXECUTIONS.load(Ordering::Relaxed);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let weaver = weaver.clone();
                std::thread::spawn(move || {
                    let ret = weaver
                        .invoke_call(target, "Slow", "work", weavepar_weave::args![21u64])
                        .unwrap();
                    *ret.downcast::<u64>().unwrap()
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), 42);
        }
        assert_eq!(
            SLOW_EXECUTIONS.load(Ordering::Relaxed) - before,
            1,
            "racing misses on one key must collapse to a single proceed"
        );
        assert_eq!(stats.misses(), 1);
        assert_eq!(stats.hits(), 3, "the three waiters are answered from the cache");
    }

    #[test]
    fn cache_is_per_target() {
        let weaver = Weaver::new();
        let (aspect, stats) = object_cache_aspect(
            "Cache",
            Pointcut::call("Expensive.work"),
            CachePolicy::unary::<Vec<u64>, Vec<u64>>(),
        );
        weaver.plug(aspect);
        let a = ExpensiveProxy::construct(&weaver).unwrap();
        let b = ExpensiveProxy::construct(&weaver).unwrap();
        a.work(vec![5]).unwrap();
        b.work(vec![5]).unwrap();
        assert_eq!(stats.misses(), 2, "distinct targets must not share entries");
    }
}
