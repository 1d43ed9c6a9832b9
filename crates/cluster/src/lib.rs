//! # weavepar-cluster — a deterministic discrete-event cluster simulator
//!
//! The paper evaluates on seven dual-Xeon 3.2 GHz (hyper-threaded) nodes
//! connected by Gigabit Ethernet — hardware this reproduction does not have.
//! Instead, the benchmark harness runs the *real woven applications*
//! in-process with a [`Recorder`](weavepar_weave::trace::Recorder) installed,
//! then replays the captured task DAG on this simulator configured with the
//! paper's cluster parameters. The aspect structure, call multiplicities,
//! message sizes and causal ordering in the replay are therefore genuine
//! artefacts of the woven execution; only CPU speed and network costs are
//! modelled.
//!
//! ## Model
//!
//! * A [`ClusterConfig`] describes nodes × cores and the interconnect
//!   (latency + bandwidth).
//! * A [`MiddlewareProfile`] adds per-call middleware costs (marshal CPU,
//!   protocol latency) — presets for Java-RMI-like and MPP-like stacks.
//! * A [`Placement`] maps objects to nodes.
//! * [`simulate`](sim::simulate) replays a [`TraceGraph`]: each recorded task
//!   occupies one core on its object's node for its recorded (or modelled)
//!   cost, tasks on the same object serialise (per-object monitors), `after`
//!   edges carry messages (paying network costs when they cross nodes), and a
//!   client timeline issues root tasks sequentially — blocking on synchronous
//!   ones, as the real `main` did.
//!
//! The engine is fully deterministic: same trace + same parameters ⇒ same
//! report, bit for bit.

pub mod analysis;
pub mod config;
pub mod report;
pub mod sim;

pub use analysis::{critical_path, lower_bound};
pub use config::{
    ClusterConfig, FaultTimeline, MiddlewareProfile, NodeFailure, Placement, SimParams,
};
pub use report::SimReport;
pub use sim::{simulate, simulate_schedule, simulate_with_faults, Schedule, ScheduledTask};
