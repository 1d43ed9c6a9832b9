//! Simulation parameters: cluster hardware, middleware cost profiles and
//! object placement policies.

use std::collections::HashMap;

use weavepar_weave::ObjId;

/// Hardware model: homogeneous nodes on a symmetric interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Schedulable cores per node.
    pub cores_per_node: usize,
    /// One-way wire latency per message, seconds.
    pub link_latency: f64,
    /// Link bandwidth, bytes per second.
    pub bandwidth: f64,
    /// Relative CPU speed (1.0 = the speed the trace costs were recorded or
    /// modelled at). Task costs are divided by this.
    pub cpu_speed: f64,
}

impl ClusterConfig {
    /// The paper's testbed: 7 dedicated dual-processor Xeon 3.2 GHz nodes
    /// with Hyper-Threading (≈ 4 schedulable contexts each), Gigabit
    /// Ethernet. Trace costs are expected to be calibrated to this CPU, so
    /// `cpu_speed` is 1.
    pub fn paper_cluster() -> Self {
        ClusterConfig {
            nodes: 7,
            cores_per_node: 4,
            link_latency: 60e-6,
            bandwidth: 117e6, // ~ GigE payload rate
            cpu_speed: 1.0,
        }
    }

    /// A single shared-memory machine (the paper's FarmThreads target): one
    /// dual-Xeon HT node, no network.
    pub fn single_node() -> Self {
        ClusterConfig {
            nodes: 1,
            cores_per_node: 4,
            link_latency: 0.0,
            bandwidth: f64::INFINITY,
            cpu_speed: 1.0,
        }
    }

    /// Total cores in the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }
}

/// Per-call middleware costs layered on top of the raw interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct MiddlewareProfile {
    /// Display name.
    pub name: &'static str,
    /// Sender-side CPU per call (marshalling, stub dispatch), seconds.
    pub send_cpu: f64,
    /// Receiver-side CPU per call (demarshalling, skeleton dispatch), seconds.
    pub recv_cpu: f64,
    /// Protocol latency added to each cross-node call (connection handling,
    /// protocol round trips), seconds.
    pub call_latency: f64,
    /// Marshalling throughput, bytes per second of CPU on each side — the
    /// dominant cost difference between Java serialisation (RMI) and raw
    /// `nio` buffers (MPP) for large argument arrays.
    pub ser_bandwidth: f64,
}

impl MiddlewareProfile {
    /// Java-RMI-like: heavyweight serialisation and per-call protocol work.
    /// Constants follow published RMI micro-benchmarks of the JDK 1.5 era
    /// (hundreds of microseconds per call on GigE).
    pub fn rmi() -> Self {
        MiddlewareProfile {
            name: "RMI",
            send_cpu: 140e-6,
            recv_cpu: 140e-6,
            call_latency: 420e-6,
            ser_bandwidth: 60e6,
        }
    }

    /// MPP-like (`java.nio` message passing): thin framing over sockets.
    pub fn mpp() -> Self {
        MiddlewareProfile {
            name: "MPP",
            send_cpu: 30e-6,
            recv_cpu: 30e-6,
            call_latency: 80e-6,
            ser_bandwidth: 300e6,
        }
    }

    /// In-process calls: no middleware at all (shared-memory threads).
    pub fn local() -> Self {
        MiddlewareProfile {
            name: "local",
            send_cpu: 0.0,
            recv_cpu: 0.0,
            call_latency: 0.0,
            ser_bandwidth: f64::INFINITY,
        }
    }

    /// Sender- or receiver-side CPU to marshal `bytes`.
    pub fn marshal_cpu(&self, bytes: usize) -> f64 {
        if self.ser_bandwidth.is_finite() {
            bytes as f64 / self.ser_bandwidth
        } else {
            0.0
        }
    }
}

/// Maps objects to nodes — the paper's "distribution aspect is also
/// responsible for the selection of the most adequate node" (§4.3).
#[derive(Debug, Clone)]
pub enum Placement {
    /// Everything on one node (shared-memory configurations).
    AllOn(usize),
    /// Object `k` (in id order) on node `k mod nodes`.
    RoundRobin {
        /// Number of nodes to spread over.
        nodes: usize,
    },
    /// Explicit per-object mapping; unmapped objects fall back to node 0.
    ByObject(HashMap<ObjId, usize>),
}

impl Placement {
    /// Node hosting `obj`.
    pub fn node_of(&self, obj: ObjId) -> usize {
        match self {
            Placement::AllOn(node) => *node,
            Placement::RoundRobin { nodes } => (obj.raw() % (*nodes).max(1) as u64) as usize,
            Placement::ByObject(map) => map.get(&obj).copied().unwrap_or(0),
        }
    }
}

/// One node crashing at a virtual time, never to return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailure {
    /// The node that dies.
    pub node: usize,
    /// Virtual time of the crash, seconds.
    pub at: f64,
}

/// Deterministic node-failure schedule for degradation studies — the replay
/// analogue of the middleware's fault plan plus the supervisor aspect.
///
/// Semantics in [`simulate_with_faults`](crate::sim::simulate_with_faults):
/// a task that completes before its node's failure time keeps its result
/// (checkpoints are at task granularity, like the supervisor's per-pack
/// checkpoints); a task that would still be running — or start after — the
/// crash is re-dispatched to the next surviving node, paying
/// `redispatch_overhead` (detection plus worker reconstruction) and a fresh
/// argument shipment from the client's node. Partial work lost on the dead
/// node is not booked as busy time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTimeline {
    failures: Vec<NodeFailure>,
    /// Detection + recovery cost added to each re-dispatched task, seconds.
    pub redispatch_overhead: f64,
}

impl FaultTimeline {
    /// An empty timeline (no failures).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node crash at virtual time `at` seconds.
    pub fn kill(mut self, node: usize, at: f64) -> Self {
        self.failures.push(NodeFailure { node, at: at.max(0.0) });
        self
    }

    /// Set the per-re-dispatch detection/recovery cost.
    pub fn overhead(mut self, seconds: f64) -> Self {
        self.redispatch_overhead = seconds.max(0.0);
        self
    }

    /// The scheduled failures.
    pub fn failures(&self) -> &[NodeFailure] {
        &self.failures
    }

    /// Earliest failure time of `node`, if it ever dies.
    pub fn down_since(&self, node: usize) -> Option<f64> {
        self.failures.iter().filter(|f| f.node == node).map(|f| f.at).min_by(|a, b| a.total_cmp(b))
    }

    /// Whether `node` is dead at `time`.
    pub fn dead_at(&self, node: usize, time: f64) -> bool {
        self.down_since(node).is_some_and(|at| time >= at)
    }

    /// First node after `from` (cyclically) alive at `time`.
    pub fn next_alive(&self, from: usize, nodes: usize, time: f64) -> Option<usize> {
        let nodes = nodes.max(1);
        (1..=nodes).map(|k| (from + k) % nodes).find(|&n| !self.dead_at(n, time))
    }
}

/// Everything [`simulate`](crate::sim::simulate) needs besides the trace.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Hardware model.
    pub cluster: ClusterConfig,
    /// Middleware cost profile for cross-node calls.
    pub middleware: MiddlewareProfile,
    /// Object→node mapping.
    pub placement: Placement,
    /// Node the client (`main`) runs on.
    pub client_node: usize,
    /// Multiplier on every task's CPU cost, modelling the weaving runtime's
    /// dispatch overhead (measured by `weavepar-demo figures`, woven over
    /// direct `filter` time; 1.0 for the hand-coded baseline).
    pub cpu_inflation: f64,
}

impl SimParams {
    /// Parameters for a shared-memory threads run (no middleware).
    pub fn threads_on_single_node() -> Self {
        SimParams {
            cluster: ClusterConfig::single_node(),
            middleware: MiddlewareProfile::local(),
            placement: Placement::AllOn(0),
            client_node: 0,
            cpu_inflation: 1.0,
        }
    }

    /// Parameters for a paper-cluster run over the given middleware.
    pub fn paper_cluster(middleware: MiddlewareProfile) -> Self {
        let cluster = ClusterConfig::paper_cluster();
        let nodes = cluster.nodes;
        SimParams {
            cluster,
            middleware,
            placement: Placement::RoundRobin { nodes },
            client_node: 0,
            cpu_inflation: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_shape() {
        let c = ClusterConfig::paper_cluster();
        assert_eq!(c.nodes, 7);
        assert_eq!(c.total_cores(), 28);
        assert!(c.link_latency > 0.0);
    }

    #[test]
    fn single_node_has_no_network() {
        let c = ClusterConfig::single_node();
        assert_eq!(c.nodes, 1);
        assert_eq!(c.link_latency, 0.0);
        assert!(c.bandwidth.is_infinite());
    }

    #[test]
    fn middleware_cost_ordering() {
        let rmi = MiddlewareProfile::rmi();
        let mpp = MiddlewareProfile::mpp();
        let local = MiddlewareProfile::local();
        assert!(rmi.call_latency > mpp.call_latency, "RMI must cost more than MPP");
        assert!(rmi.send_cpu > mpp.send_cpu);
        assert!(rmi.ser_bandwidth < mpp.ser_bandwidth, "RMI marshalling is slower");
        assert_eq!(local.call_latency, 0.0);
        assert_eq!(local.marshal_cpu(1_000_000), 0.0);
        assert!(rmi.marshal_cpu(400_000) > mpp.marshal_cpu(400_000));
    }

    #[test]
    fn placement_policies() {
        let all = Placement::AllOn(3);
        assert_eq!(all.node_of(ObjId::from_raw(42)), 3);

        let rr = Placement::RoundRobin { nodes: 4 };
        assert_eq!(rr.node_of(ObjId::from_raw(0)), 0);
        assert_eq!(rr.node_of(ObjId::from_raw(5)), 1);
        assert_eq!(rr.node_of(ObjId::from_raw(7)), 3);

        let mut map = HashMap::new();
        map.insert(ObjId::from_raw(9), 2usize);
        let by = Placement::ByObject(map);
        assert_eq!(by.node_of(ObjId::from_raw(9)), 2);
        assert_eq!(by.node_of(ObjId::from_raw(1)), 0, "unmapped falls back to node 0");
    }

    #[test]
    fn round_robin_zero_nodes_is_safe() {
        let rr = Placement::RoundRobin { nodes: 0 };
        assert_eq!(rr.node_of(ObjId::from_raw(5)), 0);
    }

    #[test]
    fn params_presets() {
        let t = SimParams::threads_on_single_node();
        assert_eq!(t.cluster.nodes, 1);
        assert_eq!(t.middleware.name, "local");
        let p = SimParams::paper_cluster(MiddlewareProfile::rmi());
        assert_eq!(p.cluster.nodes, 7);
        assert_eq!(p.middleware.name, "RMI");
    }

    #[test]
    fn fault_timeline_queries() {
        let ft = FaultTimeline::new().kill(1, 0.5).kill(1, 0.2).kill(2, 1.0).overhead(0.01);
        assert_eq!(ft.down_since(1), Some(0.2), "earliest failure wins");
        assert_eq!(ft.down_since(0), None);
        assert!(ft.dead_at(1, 0.2));
        assert!(!ft.dead_at(1, 0.1));
        assert_eq!(ft.next_alive(1, 3, 0.3), Some(2), "node 2 still alive at 0.3");
        assert_eq!(ft.next_alive(1, 3, 2.0), Some(0), "only node 0 survives late");
        assert_eq!(ft.redispatch_overhead, 0.01);
        assert_eq!(ft.failures().len(), 3);
        assert_eq!(FaultTimeline::new().next_alive(0, 2, 0.0), Some(1));
    }
}
