//! # weavepar-skeletons — reusable partition aspects (paper §4.1, §5.2)
//!
//! The paper's Figure 9 turns the sieve-specific Partition aspect into an
//! abstract, reusable `PipelineProtocol`; its conclusion reports reusable
//! strategies for "the three most common categories: pipeline, farm with
//! separable dependencies and heartbeat". This crate is that library:
//!
//! * [`pipeline`] — object duplication into a stage chain, method-call split
//!   into packs, and recursive forwarding of each pack down the chain
//!   (Figure 8's three advice blocks);
//! * [`farm`] — broadcast duplication and per-pack routing to any worker
//!   (Figure 10);
//! * [`dynamic_farm`] — demand-driven farm with its own worker threads; the
//!   paper's example of a strategy where partition and concurrency could not
//!   be separated into different aspects;
//! * [`heartbeat`] — block duplication plus an iterate/exchange/step driver
//!   for stencil-style computations;
//! * [`divide_conquer`] — object creation at *call* join points, unfolding a
//!   recursion tree of sub-workers (the §4.1 divide-and-conquer remark);
//! * [`supervisor`] — fault tolerance as one more pluggable layer: worker
//!   checkpoints, node-loss detection and re-dispatch of orphaned tasks,
//!   woven outside the distribution aspect.
//!
//! Every protocol is *generic*: it quantifies over a weaveable class by name
//! and composes with the application through a small set of closures
//! ([`Protocol`]) that say how to derive per-worker constructor arguments,
//! how to split a call's data into packs, and how to combine pack results —
//! the "concrete aspect refining the abstract aspect" of Figure 9.
//!
//! All protocols issue their internal calls through the weaver, so the
//! concurrency and distribution aspects (plugged or not) apply to them
//! exactly as the paper's Figure 11 depicts.

pub mod common;
pub mod divide_conquer;
pub mod dynamic_farm;
pub mod farm;
pub mod heartbeat;
pub mod pipeline;
pub mod supervisor;

pub use common::{
    hints, CollectFn, ExchangeFn, IterationsFn, MapArgsFn, PredicateFn, Protocol, RankedArgsFn,
    SplitFn,
};
pub use divide_conquer::{DivideConquerBuilder, DivideConquerConfig};
pub use dynamic_farm::DynamicFarmConfig;
pub use farm::FarmConfig;
pub use heartbeat::HeartbeatConfig;
pub use pipeline::PipelineConfig;
pub use supervisor::{supervisor_aspect, SupervisorStats};
