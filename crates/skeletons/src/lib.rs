//! # weavepar-skeletons — reusable partition aspects (paper §4.1, §5.2)
//!
//! The paper's Figure 9 turns the sieve-specific Partition aspect into an
//! abstract, reusable `PipelineProtocol`; its conclusion reports reusable
//! strategies for "the three most common categories: pipeline, farm with
//! separable dependencies and heartbeat". This crate is that library:
//!
//! * [`PipelineConfig`], [`FarmConfig`], [`DynamicFarmConfig`] — **one**
//!   partition module (`partition.rs`: Figure 8's three advice blocks —
//!   object duplication, method-call split into packs, recursive forwarding —
//!   made abstract as in Figure 9) under the three names of its *routing*,
//!   the two blocks the paper edits to get Figure 10: how the workers are
//!   linked (a chain | a list | an idle queue), how a wave of packs reaches
//!   them (in split order at stage one | round robin in one batch submission
//!   | each to the next idle worker when it starts). No routing owns a
//!   thread: concurrency is plugged, even where the paper merged it;
//! * [`heartbeat`] — block duplication plus an iterate/exchange/step driver
//!   for stencil-style computations;
//! * [`divide_conquer`] — object creation at *call* join points, unfolding a
//!   recursion tree of sub-workers (the §4.1 divide-and-conquer remark);
//! * [`supervisor`] — fault tolerance as one more pluggable layer, and the
//!   only one: worker checkpoints, node-loss detection and re-dispatch of
//!   orphaned tasks, woven outside the distribution aspect.
//!
//! Every protocol is *generic*: it quantifies over a weaveable class by name
//! and composes with the application through a small set of closures
//! ([`Protocol`]) that say how to derive per-worker constructor arguments,
//! how to split a call's data into packs, and how to combine pack results —
//! the "concrete aspect refining the abstract aspect" of Figure 9.
//!
//! All protocols issue their internal calls through the weaver, so the
//! concurrency and distribution aspects (plugged or not) apply to them
//! exactly as the paper's Figure 11 depicts: every forwarded pipeline call is
//! its own asynchronous invocation, continued on the thread that finished the
//! previous stage.

pub mod common;
pub mod divide_conquer;
pub mod dynamic_farm;
pub mod farm;
pub mod heartbeat;
// Private: the routing is neither an option nor an extension point, so only
// its three names leave the crate, not the type they parameterise.
mod partition;
pub mod pipeline;
pub mod supervisor;

pub use common::{
    CollectFn, ExchangeFn, IterationsFn, MapArgsFn, PredicateFn, Protocol, RankedArgsFn, SplitFn,
};
pub use divide_conquer::{DivideConquerBuilder, DivideConquerConfig};
pub use dynamic_farm::DynamicFarmConfig;
pub use farm::FarmConfig;
pub use heartbeat::HeartbeatConfig;
pub use pipeline::PipelineConfig;
pub use supervisor::{supervisor_aspect, SupervisorStats};
