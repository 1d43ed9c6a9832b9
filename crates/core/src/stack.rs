//! The concern stack: the methodology's plug / unplug / swap lifecycle.
//!
//! The paper's development process is incremental: start from the sequential
//! core, plug a partition module, then a concurrency module, then a
//! distribution module, then optimisations — and unplug any of them at any
//! time for debugging, or swap one strategy for another (pipeline ⇄ farm,
//! RMI ⇄ MPP). [`ConcernStack`] tracks which aspects are plugged under which
//! of the four concern categories on a single weaver, making those moves
//! one-liners (and making the paper's Table 1 combinations enumerable — see
//! `weavepar-demo figures`).

use std::collections::HashMap;

use parking_lot::Mutex;

use weavepar_weave::{Aspect, PluggedAspect, Weaver};

/// The paper's four parallelisation-concern categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Concern {
    /// Functional or/and data partition (§4.1).
    Partition,
    /// Concurrency: asynchronous invocation + synchronisation (§4.2).
    Concurrency,
    /// Distribution over a middleware (§4.3).
    Distribution,
    /// Platform optimisations (§4.4).
    Optimisation,
}

impl Concern {
    /// All categories, in weaving-relevance order.
    pub const ALL: [Concern; 4] =
        [Concern::Partition, Concern::Concurrency, Concern::Distribution, Concern::Optimisation];
}

impl std::fmt::Display for Concern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Concern::Partition => "partition",
            Concern::Concurrency => "concurrency",
            Concern::Distribution => "distribution",
            Concern::Optimisation => "optimisation",
        };
        write!(f, "{s}")
    }
}

/// A weaver plus the bookkeeping of which aspects realise which concern.
pub struct ConcernStack {
    weaver: Weaver,
    plugged: Mutex<HashMap<Concern, Vec<PluggedAspect>>>,
}

impl ConcernStack {
    /// A stack over a fresh weaver.
    pub fn new() -> Self {
        Self::over(Weaver::new())
    }

    /// A stack over an existing weaver.
    pub fn over(weaver: Weaver) -> Self {
        ConcernStack { weaver, plugged: Mutex::new(HashMap::new()) }
    }

    /// The underlying weaver (construct proxies against this).
    pub fn weaver(&self) -> &Weaver {
        &self.weaver
    }

    /// Plug one aspect under a concern category.
    pub fn plug(&self, concern: Concern, aspect: Aspect) -> PluggedAspect {
        let token = self.weaver.plug(aspect);
        self.plugged.lock().entry(concern).or_default().push(token.clone());
        token
    }

    /// Plug several aspects under a concern category (e.g. the two-aspect
    /// concurrency module).
    pub fn plug_all(&self, concern: Concern, aspects: impl IntoIterator<Item = Aspect>) {
        for aspect in aspects {
            self.plug(concern, aspect);
        }
    }

    /// Unplug everything under a concern category. Returns true when
    /// anything was plugged.
    pub fn unplug(&self, concern: Concern) -> bool {
        let tokens = self.plugged.lock().remove(&concern).unwrap_or_default();
        let mut any = false;
        for token in tokens {
            any |= self.weaver.unplug(&token);
        }
        any
    }

    /// Replace the aspects under a concern category — the paper's
    /// "exchanging a pipeline by a farm partition".
    pub fn swap(&self, concern: Concern, aspects: impl IntoIterator<Item = Aspect>) {
        self.unplug(concern);
        self.plug_all(concern, aspects);
    }

    /// Temporarily disable a concern without unplugging (debugging aid).
    pub fn set_enabled(&self, concern: Concern, enabled: bool) -> bool {
        let plugged = self.plugged.lock();
        let Some(tokens) = plugged.get(&concern) else {
            return false;
        };
        let mut any = false;
        for token in tokens {
            any |= self.weaver.set_enabled(token, enabled);
        }
        any
    }

    /// Names of the aspects plugged under a concern.
    pub fn plugged_names(&self, concern: Concern) -> Vec<String> {
        self.plugged
            .lock()
            .get(&concern)
            .map(|v| v.iter().map(|t| t.name().to_string()).collect())
            .unwrap_or_default()
    }

    /// Is anything plugged under the concern?
    pub fn is_plugged(&self, concern: Concern) -> bool {
        self.plugged.lock().get(&concern).is_some_and(|v| !v.is_empty())
    }

    /// Human-readable configuration summary, e.g. `"partition=[Farm] concurrency=[] ..."`.
    pub fn describe(&self) -> String {
        Concern::ALL
            .iter()
            .map(|c| format!("{c}={:?}", self.plugged_names(*c)))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl Default for ConcernStack {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ConcernStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ConcernStack({})", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use weavepar_weave::{Invocation, Pointcut};

    struct Probe;

    weavepar_weave::weaveable! {
        class Probe as ProbeProxy {
            fn new() -> Self { Probe }
            fn ping(&mut self) -> u64 { 1 }
        }
    }

    fn counting_aspect(name: &str, hits: Arc<AtomicU64>) -> Aspect {
        Aspect::named(name)
            .around(Pointcut::call("Probe.ping"), move |inv: &mut Invocation| {
                hits.fetch_add(1, Ordering::Relaxed);
                inv.proceed()
            })
            .build()
    }

    #[test]
    fn plug_and_unplug_by_concern() {
        let stack = ConcernStack::new();
        let hits = Arc::new(AtomicU64::new(0));
        stack.plug(Concern::Partition, counting_aspect("Pipeline", hits.clone()));
        assert!(stack.is_plugged(Concern::Partition));
        assert!(!stack.is_plugged(Concern::Concurrency));

        let p = ProbeProxy::construct(stack.weaver()).unwrap();
        p.ping().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1);

        assert!(stack.unplug(Concern::Partition));
        assert!(!stack.unplug(Concern::Partition));
        p.ping().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn swap_exchanges_strategies() {
        let stack = ConcernStack::new();
        let pipe_hits = Arc::new(AtomicU64::new(0));
        let farm_hits = Arc::new(AtomicU64::new(0));
        stack.plug(Concern::Partition, counting_aspect("Pipeline", pipe_hits.clone()));
        let p = ProbeProxy::construct(stack.weaver()).unwrap();
        p.ping().unwrap();

        stack.swap(Concern::Partition, [counting_aspect("Farm", farm_hits.clone())]);
        assert_eq!(stack.plugged_names(Concern::Partition), vec!["Farm".to_string()]);
        p.ping().unwrap();
        assert_eq!(pipe_hits.load(Ordering::Relaxed), 1);
        assert_eq!(farm_hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn enable_disable_concern() {
        let stack = ConcernStack::new();
        let hits = Arc::new(AtomicU64::new(0));
        stack.plug(Concern::Concurrency, counting_aspect("Async", hits.clone()));
        let p = ProbeProxy::construct(stack.weaver()).unwrap();
        assert!(stack.set_enabled(Concern::Concurrency, false));
        p.ping().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        assert!(stack.set_enabled(Concern::Concurrency, true));
        p.ping().unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert!(!stack.set_enabled(Concern::Distribution, true));
    }

    #[test]
    fn describe_lists_all_concerns() {
        let stack = ConcernStack::new();
        stack.plug(Concern::Optimisation, counting_aspect("Cache", Arc::new(AtomicU64::new(0))));
        let d = stack.describe();
        assert!(d.contains("partition=[]"));
        assert!(d.contains("optimisation=[\"Cache\"]"));
        assert!(format!("{stack:?}").contains("ConcernStack"));
    }

    #[test]
    fn plug_all_plugs_modules() {
        let stack = ConcernStack::new();
        let h = Arc::new(AtomicU64::new(0));
        stack.plug_all(
            Concern::Concurrency,
            [counting_aspect("A", h.clone()), counting_aspect("B", h.clone())],
        );
        assert_eq!(stack.plugged_names(Concern::Concurrency).len(), 2);
        let p = ProbeProxy::construct(stack.weaver()).unwrap();
        p.ping().unwrap();
        assert_eq!(h.load(Ordering::Relaxed), 2);
        stack.unplug(Concern::Concurrency);
        assert!(!stack.is_plugged(Concern::Concurrency));
    }
}
