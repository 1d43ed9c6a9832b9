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
//! * **Counters** and **gauges** are one relaxed `AtomicU64` each, behind
//!   an `Arc`: an increment is one `fetch_add`, no lock, no allocation.
//! * **Histograms** use fixed log₂(ns) buckets — recording a sample is three
//!   relaxed `fetch_add`s (count, sum, bucket), no allocation, no locks, no
//!   floating point.
//! * A layer that already keeps an `Arc<AtomicU64>` (an executor's
//!   in-flight count, a fabric's call counter, a tunable's value cell) can
//!   *bind* it: the bound metric is that cell, so installing metrics merely
//!   names it and the layer keeps its always-on atomic.
//! * The registry itself is only locked when a metric is first resolved;
//!   aspect and tap code resolves its handles once, outside the hot path.
//!
//! [`Snapshot`] renders the whole registry to text or JSON with
//! deterministic (sorted) ordering, so tests can diff two snapshots.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use crate::aspect::Aspect;
use crate::invocation::Invocation;
use crate::pointcut::Pointcut;

/// Number of log₂(ns) latency buckets: bucket `k` holds samples in
/// `[2^k, 2^(k+1))` ns, so 40 buckets cover 1 ns to ≈ 18 minutes.
pub const HISTOGRAM_BUCKETS: usize = 40;

// ---- counter ----------------------------------------------------------------

/// A monotonically increasing counter: one relaxed atomic, owned by the
/// registry or bound from the layer that keeps it. Cloning shares the cell.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add 1. Relaxed, allocation-free.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. Relaxed, allocation-free.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter").field("value", &self.value()).finish()
    }
}

// ---- gauge ------------------------------------------------------------------

/// A point-in-time value (queue depth, pool occupancy, a tunable's current
/// setting): one relaxed atomic. Cloning shares the cell.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge. Bound cells are written through, so use owned gauges
    /// for values the metrics layer itself maintains.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Increment (occupancy-style gauges).
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement (underflow is not defended — occupancy updates must be
    /// balanced).
    #[inline]
    pub fn dec(&self) {
        self.cell.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge").field("value", &self.value()).finish()
    }
}

// ---- histogram --------------------------------------------------------------

struct Cells {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// Bucket for a sample: floor(log₂(ns)), clamped to the table.
#[inline]
fn bucket_of(ns: u64) -> usize {
    ((63 - (ns | 1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// A fixed-bucket log₂(ns) latency histogram. Recording is three relaxed
/// adds: no locks, no allocation.
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<Cells>,
}

impl Histogram {
    /// A standalone histogram, not attached to any registry — for embedding
    /// in other instruments (e.g. `weavepar_core`'s `CallLog`). Named,
    /// snapshot-visible histograms come from [`MetricsRegistry::histogram`].
    pub fn new() -> Self {
        Histogram {
            cells: Arc::new(Cells {
                count: AtomicU64::new(0),
                sum_ns: AtomicU64::new(0),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            }),
        }
    }

    /// Record one sample in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        self.cells.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.cells.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one duration.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.cells.sum_ns.load(Ordering::Relaxed)
    }

    /// Zero every cell (administrative; racing recorders may survive).
    pub fn reset(&self) {
        self.cells.count.store(0, Ordering::Relaxed);
        self.cells.sum_ns.store(0, Ordering::Relaxed);
        for bucket in &self.cells.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }

    /// A consistent-enough point-in-time copy of the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum_ns: self.sum_ns(),
            buckets: std::array::from_fn(|k| self.cells.buckets[k].load(Ordering::Relaxed)),
        }
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

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.inner.counters.read().get(name) {
            return c.clone();
        }
        self.inner.counters.write().entry(name.to_string()).or_default().clone()
    }

    /// Register `cell` as the counter `name` (replacing any previous metric
    /// of that name). The layer that owns the cell keeps incrementing it
    /// directly; the registry only reads it at snapshot time.
    pub fn bind_counter(&self, name: &str, cell: Arc<AtomicU64>) -> Counter {
        let c = Counter { cell };
        self.inner.counters.write().insert(name.to_string(), c.clone());
        c
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.inner.gauges.read().get(name) {
            return g.clone();
        }
        self.inner.gauges.write().entry(name.to_string()).or_default().clone()
    }

    /// Register `cell` as the gauge `name` (replacing any previous metric
    /// of that name): the registry reads the owner's cell at snapshot time.
    pub fn bind_gauge(&self, name: &str, cell: Arc<AtomicU64>) -> Gauge {
        let g = Gauge { cell };
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
    fn cells_sum_exactly_across_threads() {
        let reg = MetricsRegistry::new();
        let (c, g, h) = (reg.counter("hits"), reg.gauge("busy"), reg.histogram("lat"));
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        // Resolving again returns the same storage.
        assert_eq!(reg.counter("hits").value(), 5);
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let (c, g, h) = (c.clone(), g.clone(), h.clone());
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        g.inc();
                        h.record_ns(t * 1000 + i);
                        g.dec();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.value(), 4005);
        assert_eq!(g.value(), 0, "every raise was lowered");
        let snap = reg.snapshot();
        let lat = snap.histogram("lat").unwrap();
        assert_eq!(lat.count, 4000);
        assert_eq!(lat.sum_ns, (0..4000).sum::<u64>());
        assert_eq!(lat.buckets.iter().sum::<u64>(), 4000);
        assert_eq!(lat.buckets[11], 4000 - 2048, "samples 2048..4000");
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

        let cell = Arc::new(AtomicU64::new(16));
        let tuned = reg.bind_gauge("tune.packs", cell.clone());
        assert_eq!(tuned.value(), 16);
        cell.store(32, Ordering::Relaxed);
        assert_eq!(reg.snapshot().gauge("tune.packs"), Some(32));
        // Binding a name again replaces the metric.
        let depth = reg.bind_gauge("tune.packs", Arc::new(AtomicU64::new(5)));
        assert_eq!(depth.value(), 5);
        assert_eq!(reg.snapshot().gauge("tune.packs"), Some(5));
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
