//! Observability as a pluggable aspect layer.
//!
//! The paper's whole methodology keeps crosscutting concerns — partition,
//! concurrency, distribution, optimisation — as (un)pluggable modules.
//! Observability is the canonical crosscutting concern: this module reifies
//! it the same way. A [`MetricsRegistry`] names counters, gauges and latency
//! histograms; [`metrics_aspect`] plugs an observer at any depth of a concern
//! stack and attributes latency/throughput/error counts to the concern level
//! it wraps (outside partition it times whole farmed calls, inside it times
//! per-pack work, below distribution it times individual remote calls).
//!
//! # Hot-path discipline
//!
//! * **Counters** are 8-way sharded relaxed atomics (the same layout as the
//!   tuning accumulators): each thread increments the shard its ordinal
//!   ([`thread_tag`](crate::trace::thread_tag)) picks, so hot-path
//!   increments never contend on a shared cache line.
//! * **Histograms** use fixed log₂(ns) buckets — recording a sample is a
//!   handful of relaxed `fetch_add`s on this thread's shard, no allocation,
//!   no locks, no floating point.
//! * **Gauges** can *bind* an already-existing atomic cell (an executor's
//!   in-flight counter, a tunable's value cell), so layers keep their cheap
//!   always-on atomics and installing metrics merely names them.
//! * The registry itself is only locked when a metric is first resolved;
//!   aspect and tap code resolves its handles once, outside the hot path.
//!
//! [`Snapshot`] renders the whole registry to text or JSON with
//! deterministic (sorted) ordering, so tests can diff two snapshots.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use crate::aspect::Aspect;
use crate::invocation::Invocation;
use crate::pointcut::Pointcut;

/// Shards per counter/histogram. Matches the tuning accumulators: enough to
/// spread a machine's worth of worker threads, small enough to sum cheaply.
const SHARDS: usize = 8;

/// Number of log₂(ns) latency buckets: bucket `k` holds samples in
/// `[2^k, 2^(k+1))` ns, so 40 buckets cover 1 ns to ≈ 18 minutes.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// This thread's shard.
fn shard_index() -> usize {
    crate::trace::thread_tag() as usize % SHARDS
}

/// One cache line per shard so neighbouring shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

// ---- counter ----------------------------------------------------------------

enum CounterRepr {
    /// Own 8-way sharded storage (hot-path increments never contend).
    Sharded(Box<[PaddedU64]>),
    /// A pre-existing cell owned by another layer (executor, fabric, tuner):
    /// installing metrics names the cell, it does not move the bookkeeping.
    Bound(Arc<AtomicU64>),
}

/// A monotonically increasing counter. Cloning shares the storage.
#[derive(Clone)]
pub struct Counter {
    repr: Arc<CounterRepr>,
}

impl Counter {
    fn sharded() -> Self {
        let shards = (0..SHARDS).map(|_| PaddedU64::default()).collect();
        Counter { repr: Arc::new(CounterRepr::Sharded(shards)) }
    }

    fn bound(cell: Arc<AtomicU64>) -> Self {
        Counter { repr: Arc::new(CounterRepr::Bound(cell)) }
    }

    /// Add 1. Relaxed, allocation-free, shard-local.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. Relaxed, allocation-free, shard-local.
    #[inline]
    pub fn add(&self, n: u64) {
        match &*self.repr {
            CounterRepr::Sharded(shards) => {
                shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
            }
            CounterRepr::Bound(cell) => {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Current total (sums the shards).
    pub fn value(&self) -> u64 {
        match &*self.repr {
            CounterRepr::Sharded(shards) => {
                shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
            }
            CounterRepr::Bound(cell) => cell.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter").field("value", &self.value()).finish()
    }
}

// ---- gauge ------------------------------------------------------------------

enum GaugeRepr {
    Owned(AtomicU64),
    BoundU64(Arc<AtomicU64>),
    BoundU32(Arc<AtomicU32>),
    BoundUsize(Arc<AtomicUsize>),
}

/// A point-in-time value (queue depth, pool occupancy, a tunable's current
/// setting). Cloning shares the storage.
#[derive(Clone)]
pub struct Gauge {
    repr: Arc<GaugeRepr>,
}

impl Gauge {
    fn owned() -> Self {
        Gauge { repr: Arc::new(GaugeRepr::Owned(AtomicU64::new(0))) }
    }

    /// Set the gauge. Bound cells are written through, so use owned gauges
    /// for values the metrics layer itself maintains.
    pub fn set(&self, v: u64) {
        match &*self.repr {
            GaugeRepr::Owned(cell) => cell.store(v, Ordering::Relaxed),
            GaugeRepr::BoundU64(cell) => cell.store(v, Ordering::Relaxed),
            GaugeRepr::BoundU32(cell) => cell.store(v as u32, Ordering::Relaxed),
            GaugeRepr::BoundUsize(cell) => cell.store(v as usize, Ordering::Relaxed),
        }
    }

    /// Increment (occupancy-style gauges).
    #[inline]
    pub fn inc(&self) {
        match &*self.repr {
            GaugeRepr::Owned(cell) => cell.fetch_add(1, Ordering::Relaxed),
            GaugeRepr::BoundU64(cell) => cell.fetch_add(1, Ordering::Relaxed),
            GaugeRepr::BoundU32(cell) => cell.fetch_add(1, Ordering::Relaxed) as u64,
            GaugeRepr::BoundUsize(cell) => cell.fetch_add(1, Ordering::Relaxed) as u64,
        };
    }

    /// Decrement (saturating at zero for owned storage misuse is not
    /// defended — occupancy updates must be balanced).
    #[inline]
    pub fn dec(&self) {
        match &*self.repr {
            GaugeRepr::Owned(cell) => cell.fetch_sub(1, Ordering::Relaxed),
            GaugeRepr::BoundU64(cell) => cell.fetch_sub(1, Ordering::Relaxed),
            GaugeRepr::BoundU32(cell) => cell.fetch_sub(1, Ordering::Relaxed) as u64,
            GaugeRepr::BoundUsize(cell) => cell.fetch_sub(1, Ordering::Relaxed) as u64,
        };
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        match &*self.repr {
            GaugeRepr::Owned(cell) => cell.load(Ordering::Relaxed),
            GaugeRepr::BoundU64(cell) => cell.load(Ordering::Relaxed),
            GaugeRepr::BoundU32(cell) => cell.load(Ordering::Relaxed) as u64,
            GaugeRepr::BoundUsize(cell) => cell.load(Ordering::Relaxed) as u64,
        }
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge").field("value", &self.value()).finish()
    }
}

// ---- histogram --------------------------------------------------------------

struct HistogramShard {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramShard {
    fn default() -> Self {
        HistogramShard {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket for a sample: floor(log₂(ns)), clamped to the table.
#[inline]
fn bucket_of(ns: u64) -> usize {
    ((63 - (ns | 1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// A fixed-bucket log₂(ns) latency histogram, 8-way sharded. Recording is a
/// few relaxed adds on this thread's shard: no locks, no allocation.
#[derive(Clone)]
pub struct Histogram {
    shards: Arc<[HistogramShard]>,
}

impl Histogram {
    /// A standalone histogram, not attached to any registry — for embedding
    /// in other instruments (e.g. `weavepar_core`'s `CallLog`). Named,
    /// snapshot-visible histograms come from [`MetricsRegistry::histogram`].
    pub fn new() -> Self {
        Histogram { shards: (0..SHARDS).map(|_| HistogramShard::default()).collect() }
    }

    /// Record one sample in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let shard = &self.shards[shard_index()];
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum_ns.fetch_add(ns, Ordering::Relaxed);
        shard.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one duration.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.shards.iter().map(|s| s.count.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.sum_ns.load(Ordering::Relaxed)).sum()
    }

    /// Zero every shard (administrative; racing recorders may survive).
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            shard.count.store(0, Ordering::Relaxed);
            shard.sum_ns.store(0, Ordering::Relaxed);
            for bucket in &shard.buckets {
                bucket.store(0, Ordering::Relaxed);
            }
        }
    }

    /// A consistent-enough point-in-time copy of the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let mut count = 0u64;
        let mut sum_ns = 0u64;
        for shard in self.shards.iter() {
            count += shard.count.load(Ordering::Relaxed);
            sum_ns += shard.sum_ns.load(Ordering::Relaxed);
            for (acc, bucket) in buckets.iter_mut().zip(&shard.buckets) {
                *acc += bucket.load(Ordering::Relaxed);
            }
        }
        HistogramSnapshot { count, sum_ns, buckets }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("count", &self.count()).finish()
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_ns: u64,
    /// Bucket `k` holds samples in `[2^k, 2^(k+1))` ns.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean sample, nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (exclusive, ns) of the bucket containing quantile `q`
    /// (`0.0..=1.0`); 0 when empty. Log₂ buckets make this an order-of-
    /// magnitude estimate, which is what a latency histogram is for.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << (k + 1);
            }
        }
        1u64 << HISTOGRAM_BUCKETS
    }
}

// ---- registry ---------------------------------------------------------------

#[derive(Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

/// A named collection of [`Counter`]s, [`Gauge`]s and [`Histogram`]s.
/// Cloning shares the registry. Resolution (`counter`, `gauge`,
/// `histogram`, `bind_*`) takes a lock and may allocate — resolve handles
/// once, outside the hot path; the handles themselves are lock-free.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the sharded counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.inner.counters.read().get(name) {
            return c.clone();
        }
        self.inner.counters.write().entry(name.to_string()).or_insert_with(Counter::sharded).clone()
    }

    /// Register `cell` as the counter `name` (replacing any previous metric
    /// of that name). The layer that owns the cell keeps incrementing it
    /// directly; the registry only reads it at snapshot time.
    pub fn bind_counter(&self, name: &str, cell: Arc<AtomicU64>) -> Counter {
        let c = Counter::bound(cell);
        self.inner.counters.write().insert(name.to_string(), c.clone());
        c
    }

    /// Get or create the owned gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.inner.gauges.read().get(name) {
            return g.clone();
        }
        self.inner.gauges.write().entry(name.to_string()).or_insert_with(Gauge::owned).clone()
    }

    /// Register a `u64` cell as the gauge `name`.
    pub fn bind_gauge(&self, name: &str, cell: Arc<AtomicU64>) -> Gauge {
        let g = Gauge { repr: Arc::new(GaugeRepr::BoundU64(cell)) };
        self.inner.gauges.write().insert(name.to_string(), g.clone());
        g
    }

    /// Register a `u32` cell (e.g. a tunable's value cell) as the gauge
    /// `name`.
    pub fn bind_gauge_u32(&self, name: &str, cell: Arc<AtomicU32>) -> Gauge {
        let g = Gauge { repr: Arc::new(GaugeRepr::BoundU32(cell)) };
        self.inner.gauges.write().insert(name.to_string(), g.clone());
        g
    }

    /// Register a `usize` cell (e.g. a completion tracker's in-flight count)
    /// as the gauge `name`.
    pub fn bind_gauge_usize(&self, name: &str, cell: Arc<AtomicUsize>) -> Gauge {
        let g = Gauge { repr: Arc::new(GaugeRepr::BoundUsize(cell)) };
        self.inner.gauges.write().insert(name.to_string(), g.clone());
        g
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.inner.histograms.read().get(name) {
            return h.clone();
        }
        self.inner.histograms.write().entry(name.to_string()).or_default().clone()
    }

    /// A deterministic point-in-time view of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let counters =
            self.inner.counters.read().iter().map(|(k, c)| (k.clone(), c.value())).collect();
        let gauges = self.inner.gauges.read().iter().map(|(k, g)| (k.clone(), g.value())).collect();
        let histograms =
            self.inner.histograms.read().iter().map(|(k, h)| (k.clone(), h.snapshot())).collect();
        Snapshot { counters, gauges, histograms }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.inner.counters.read().len())
            .field("gauges", &self.inner.gauges.read().len())
            .field("histograms", &self.inner.histograms.read().len())
            .finish()
    }
}

// ---- snapshot ---------------------------------------------------------------

/// Deterministic point-in-time view of a [`MetricsRegistry`]: every vector
/// is sorted by metric name, so two snapshots of the same state render
/// identically and diff cleanly in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, total)` per counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, buckets)` per histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Snapshot {
    /// Counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// Plain-text rendering, one metric per line, sorted by name.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter   {name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge     {name} = {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name} count={} mean_ns={} p50_ns<{} p99_ns<{}\n",
                h.count,
                h.mean_ns(),
                h.quantile_ns(0.50),
                h.quantile_ns(0.99),
            ));
        }
        out
    }

    /// JSON rendering: sorted keys, integers only, non-zero histogram
    /// buckets as `[bucket_index, count]` pairs — byte-for-byte identical
    /// for identical registry states.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n    \"{}\": {v}", json_escape(name)));
        }
        out.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n    \"{}\": {v}", json_escape(name)));
        }
        out.push_str(if self.gauges.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(k, n)| format!("[{k}, {n}]"))
                .collect();
            out.push_str(&format!(
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"buckets\": [{}]}}",
                json_escape(name),
                h.count,
                h.sum_ns,
                buckets.join(", ")
            ));
        }
        out.push_str(if self.histograms.is_empty() { "}\n" } else { "\n  }\n" });
        out.push('}');
        out
    }
}

// ---- call meter and metrics aspect -------------------------------------------

/// The `{name}.calls` / `{name}.errors` counters and `{name}.latency_ns`
/// histogram of one metered operation, resolved once so that recording never
/// consults the registry.
#[derive(Clone, Debug)]
pub struct CallMeter {
    calls: Counter,
    errors: Counter,
    latency: Histogram,
}

impl CallMeter {
    /// Resolve (or create) the three cells under `name` in `registry`.
    pub fn new(registry: &MetricsRegistry, name: &str) -> Self {
        CallMeter {
            calls: registry.counter(&format!("{name}.calls")),
            errors: registry.counter(&format!("{name}.errors")),
            latency: registry.histogram(&format!("{name}.latency_ns")),
        }
    }

    /// Record one completed operation that took `elapsed`.
    #[inline]
    pub fn record(&self, elapsed: Duration, ok: bool) {
        self.latency.record(elapsed);
        self.calls.inc();
        if !ok {
            self.errors.inc();
        }
    }

    /// Run `operation` and record it with the time it took — for a metered
    /// operation that is not a `proceed` (the distribution proxy's marshal +
    /// round trip + decode). An advice timing its `proceed` records what
    /// [`Invocation::proceed_timed`] measured instead.
    pub fn time<T, E>(&self, operation: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let start = Instant::now();
        let result = operation();
        self.record(start.elapsed(), result.is_ok());
        result
    }
}

/// Build a metrics observer aspect at an explicit precedence: every matched
/// join point is timed around `proceed` into `{name}.latency_ns`, with
/// `{name}.calls` / `{name}.errors` counters. The precedence decides *which
/// concern level* the numbers describe — below
/// [`precedence::PARTITION`](crate::aspect::precedence::PARTITION) the
/// histogram holds whole farmed calls, between partition and distribution it
/// holds per-pack work, above
/// [`precedence::DISTRIBUTION`](crate::aspect::precedence::DISTRIBUTION) it
/// holds individual remote calls.
pub fn metrics_aspect_at(
    name: impl Into<String>,
    pointcut: Pointcut,
    registry: &MetricsRegistry,
    precedence: i32,
) -> Aspect {
    let name = name.into();
    let meter = CallMeter::new(registry, &name);
    Aspect::named(name)
        .precedence(precedence)
        .around(pointcut, move |inv: &mut Invocation| {
            let (result, elapsed) = inv.proceed_timed();
            meter.record(elapsed, result.is_ok());
            result
        })
        .build()
}

/// [`metrics_aspect_at`] at precedence −500: outside every concern aspect
/// (partition, concurrency, distribution — even the autotune observer), so
/// the histogram reflects what the *caller* experiences end to end. Only the
/// logging aspect (−1000) conventionally sits further out.
pub fn metrics_aspect(
    name: impl Into<String>,
    pointcut: Pointcut,
    registry: &MetricsRegistry,
) -> Aspect {
    metrics_aspect_at(name, pointcut, registry, -500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_shard_and_sum() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hits");
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        // Resolving again returns the same storage.
        assert_eq!(reg.counter("hits").value(), 5);
        // Across threads the shards sum correctly.
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.value(), 4005);
    }

    #[test]
    fn bound_counter_reads_the_external_cell() {
        let reg = MetricsRegistry::new();
        let cell = Arc::new(AtomicU64::new(7));
        let c = reg.bind_counter("fabric.retries", cell.clone());
        cell.fetch_add(3, Ordering::Relaxed);
        assert_eq!(c.value(), 10);
        assert_eq!(reg.snapshot().counter("fabric.retries"), Some(10));
    }

    #[test]
    fn gauges_track_occupancy_and_bound_cells() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("stage.occupancy");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.value(), 1);
        g.set(9);
        assert_eq!(g.value(), 9);

        let cell32 = Arc::new(AtomicU32::new(16));
        let tuned = reg.bind_gauge_u32("tune.packs", cell32.clone());
        assert_eq!(tuned.value(), 16);
        cell32.store(32, Ordering::Relaxed);
        assert_eq!(reg.snapshot().gauge("tune.packs"), Some(32));

        let cellu = Arc::new(AtomicUsize::new(3));
        let depth = reg.bind_gauge_usize("pool.in_flight", cellu.clone());
        cellu.store(5, Ordering::Relaxed);
        assert_eq!(depth.value(), 5);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);

        let h = Histogram::new();
        h.record_ns(100); // bucket 6
        h.record_ns(100);
        h.record_ns(1_000_000); // bucket 19
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum_ns, 1_000_200);
        assert_eq!(snap.buckets[6], 2);
        assert_eq!(snap.buckets[19], 1);
        assert_eq!(snap.mean_ns(), 333_400);
        // p50 falls in bucket 6 (upper bound 128), p99 in bucket 19.
        assert_eq!(snap.quantile_ns(0.50), 128);
        assert_eq!(snap.quantile_ns(0.99), 1 << 20);
        h.reset();
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn snapshot_is_deterministic_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.gauge("m.mid").set(3);
        reg.histogram("lat").record_ns(50);
        let s1 = reg.snapshot();
        let s2 = reg.snapshot();
        assert_eq!(s1, s2);
        assert_eq!(s1.to_json(), s2.to_json());
        assert_eq!(s1.to_text(), s2.to_text());
        let names: Vec<&str> = s1.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a.first", "z.last"], "sorted by name");
        assert!(s1.to_json().contains("\"a.first\": 2"));
        assert!(s1.to_text().contains("counter   z.last = 1"));
        assert!(s1.to_text().contains("histogram lat count=1"));
    }

    #[test]
    fn empty_snapshot_renders_valid_json() {
        let s = MetricsRegistry::new().snapshot();
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"counters\": {}"));
    }

    #[test]
    fn metrics_aspect_attributes_to_its_level() {
        use crate::registry::tests::Acc;
        use crate::{args, Weaver};

        let weaver = Weaver::new();
        let reg = MetricsRegistry::new();
        weaver.plug(metrics_aspect("obs", Pointcut::call("Acc.add"), &reg));
        weaver.plug(metrics_aspect("weaver", Pointcut::any("*.*"), &reg));
        let h = weaver.construct::<Acc>(args![0i64]).unwrap();
        for _ in 0..5 {
            h.call("add", args![1i64]).unwrap();
        }
        // A call that fails inside the chain is an error at this level too.
        let _ = h.call("add", args!["wrong type".to_string()]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("obs.calls"), Some(6));
        assert_eq!(snap.counter("obs.errors"), Some(1));
        let lat = snap.histogram("obs.latency_ns").unwrap();
        assert_eq!(lat.count, 6);
        assert!(lat.sum_ns > 0);
        // Over every join point it counts what a hook in the dispatcher would:
        // the construction and the six calls, one of them failed.
        assert_eq!(snap.counter("weaver.calls"), Some(7));
        assert_eq!(snap.counter("weaver.errors"), Some(1));
    }
}
