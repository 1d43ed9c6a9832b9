//! Simulation output: the numbers the benchmark harness turns into the
//! paper's figures.

/// Result of replaying one trace on one parameter set.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// End-to-end virtual time: everything executed and the client resumed,
    /// seconds.
    pub makespan: f64,
    /// Sum of all task CPU costs after inflation/speed scaling, seconds
    /// (the sequential work content).
    pub total_work: f64,
    /// Busy CPU time per node, seconds.
    pub busy: Vec<f64>,
    /// Number of cross-node messages.
    pub messages: usize,
    /// Bytes carried by cross-node messages.
    pub bytes: usize,
    /// Number of tasks executed.
    pub tasks: usize,
    /// Tasks re-dispatched to a surviving node after a simulated node
    /// failure (always 0 without a fault timeline).
    pub redispatched: usize,
    /// Time at which the client issued its last root (or resumed after its
    /// last synchronous call), seconds.
    pub client_done: f64,
}

impl SimReport {
    /// Mean core utilisation over the makespan across `cores` total cores.
    pub fn utilization(&self, total_cores: usize) -> f64 {
        if self.makespan <= 0.0 || total_cores == 0 {
            return 0.0;
        }
        self.busy.iter().sum::<f64>() / (self.makespan * total_cores as f64)
    }

    /// Export the report's integer totals into `registry` under `prefix`
    /// (`{prefix}.messages`, `.bytes`, `.tasks`, `.redispatched`), so a
    /// simulated run and a live run land in the same [`Snapshot`] and can be
    /// compared line-for-line. Counters accumulate across repeated exports —
    /// use a fresh registry (or distinct prefixes) per replayed trace.
    ///
    /// [`Snapshot`]: weavepar_weave::Snapshot
    pub fn install_metrics(&self, registry: &weavepar_weave::MetricsRegistry, prefix: &str) {
        registry.counter(&format!("{prefix}.messages")).add(self.messages as u64);
        registry.counter(&format!("{prefix}.bytes")).add(self.bytes as u64);
        registry.counter(&format!("{prefix}.tasks")).add(self.tasks as u64);
        registry.counter(&format!("{prefix}.redispatched")).add(self.redispatched as u64);
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "makespan {:.3}s | work {:.3}s | {} tasks | {} msgs ({} bytes)",
            self.makespan, self.total_work, self.tasks, self.messages, self.bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            makespan: 2.0,
            total_work: 6.0,
            busy: vec![2.0, 2.0, 2.0],
            messages: 10,
            bytes: 1000,
            tasks: 5,
            redispatched: 0,
            client_done: 1.0,
        }
    }

    #[test]
    fn utilization_math() {
        let r = report();
        // 6s busy over 2s × 3 cores = 100%.
        assert!((r.utilization(3) - 1.0).abs() < 1e-12);
        assert!((r.utilization(6) - 0.5).abs() < 1e-12);
        assert_eq!(r.utilization(0), 0.0);
    }

    #[test]
    fn display_is_compact() {
        let s = report().to_string();
        assert!(s.contains("makespan 2.000s"));
        assert!(s.contains("5 tasks"));
    }

    #[test]
    fn install_metrics_exports_totals() {
        let registry = weavepar_weave::MetricsRegistry::new();
        report().install_metrics(&registry, "sim");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sim.messages"), Some(10));
        assert_eq!(snap.counter("sim.bytes"), Some(1000));
        assert_eq!(snap.counter("sim.tasks"), Some(5));
        assert_eq!(snap.counter("sim.redispatched"), Some(0));
    }

    #[test]
    fn degenerate_makespan() {
        let mut r = report();
        r.makespan = 0.0;
        assert_eq!(r.utilization(3), 0.0);
    }
}
