//! # weavepar — incrementally developing parallel applications with
//! (un)pluggable aspects
//!
//! A Rust reproduction of J. L. Sobral, *"Incrementally Developing Parallel
//! Applications with AspectJ"* (IPPS 2006). The methodology: implement the
//! application's **core functionality** as ordinary sequential objects, then
//! plug the parallelisation concerns — **partition**, **concurrency**,
//! **distribution** and **optimisation** — as separate aspect modules that
//! intercept the core's constructions and method calls. Each module can be
//! plugged, unplugged and swapped at run time, so the same core runs
//! sequentially (for debugging), threaded on one machine, or distributed over
//! a middleware, without source changes.
//!
//! ## Crate map
//!
//! | module | provides |
//! |---|---|
//! | [`weave`] | join points, pointcuts, advice, aspects, object space, traces |
//! | [`concurrency`] | futures, executors, async/synchronisation aspects (§4.2) |
//! | [`distribution`] | wire codec, name server, node fabric, RMI/MPP aspects (§4.3) |
//! | [`skeletons`] | reusable partition protocols: pipeline, farm, dynamic farm, heartbeat (§4.1) |
//! | [`cluster`] | deterministic discrete-event cluster simulator for the paper's testbed (§6) |
//! | [`stack`] | [`ConcernStack`]: the plug/unplug lifecycle of the four concern categories |
//! | [`optimisation`] | optimisation aspects (§4.4): object cache; where thread pools and message packing plug in |
//! | [`tuning`] | adaptive grain-size autotuning: tunables, feedback controller, autotune aspect |
//! | [`logging`] | the Figure 3 logging aspect as a structure-inspection tool |
//!
//! ## Quickstart
//!
//! ```
//! use weavepar::prelude::*;
//!
//! // 1. Core functionality: a perfectly ordinary sequential class.
//! struct Squarer;
//! weavepar::weaveable! {
//!     class Squarer as SquarerProxy {
//!         fn new() -> Self { Squarer }
//!         fn compute(&mut self, xs: Vec<u64>) -> Vec<u64> {
//!             xs.into_iter().map(|x| x * x).collect()
//!         }
//!     }
//! }
//!
//! // 2. A concern stack over a weaver.
//! let stack = ConcernStack::new();
//!
//! // 3. Plug a farm partition (4 workers, 8 packs) — configs are builders:
//! //    mandatory protocol in `new`, options chained, `.aspect(name)` last.
//! use std::sync::Arc;
//! let farm = FarmConfig::new(Protocol {
//!     class: "Squarer",
//!     method: "compute",
//!     workers: 4,
//!     worker_args: Arc::new(|_r, _n, _o| Ok(weavepar::args![])),
//!     split: Arc::new(|a: &Args| {
//!         let xs = a.get::<Vec<u64>>(0)?;
//!         Ok(xs.chunks(xs.len().div_ceil(8).max(1)).map(|c| weavepar::args![c.to_vec()]).collect())
//!     }),
//!     reforward: Arc::new(|v| Ok(Args::from_values(vec![v]))),
//!     combine: Arc::new(|vs| {
//!         let mut all = Vec::new();
//!         for v in vs { all.extend(weavepar::weave::value::downcast_ret::<Vec<u64>>(v)?); }
//!         Ok(weavepar::ret!(all))
//!     }),
//! })
//! .aspect("Partition");
//! stack.plug(Concern::Partition, farm);
//!
//! // 4. Core code is oblivious: same call, now farmed out.
//! let s = SquarerProxy::construct(stack.weaver()).unwrap();
//! assert_eq!(s.compute(vec![1, 2, 3]).unwrap(), vec![1, 4, 9]);
//!
//! // 5. Unplug and the application is sequential again.
//! stack.unplug(Concern::Partition);
//! let s2 = SquarerProxy::construct(stack.weaver()).unwrap();
//! assert_eq!(s2.compute(vec![4]).unwrap(), vec![16]);
//! ```

pub mod logging;
pub mod optimisation;
pub mod stack;
pub mod tuning;

pub use logging::{logging_aspect, CallLog, CallRecord};
pub use stack::{Concern, ConcernStack};
pub use tuning::{autotune_aspect, autotune_aspect_at, Autotuner, Step, Tunable, TuneConfig};

// Re-export the sub-crates under stable names.
pub use weavepar_cluster as cluster;
pub use weavepar_concurrency as concurrency;
pub use weavepar_middleware as distribution;
pub use weavepar_skeletons as skeletons;
pub use weavepar_weave as weave;

// The macros live in `weavepar_weave` and refer to `$crate` internally, so
// they work through the re-export as well.
pub use weavepar_weave::{args, ret, weaveable};

/// One-stop imports for applications: the weave vocabulary, the concern
/// stack, executors, every skeleton config builder, the distribution
/// builders, and the observability layer. One `use weavepar::prelude::*;`
/// covers a whole example.
pub mod prelude {
    pub use crate::logging::{logging_aspect, CallLog, CallRecord};
    pub use crate::stack::{Concern, ConcernStack};
    pub use crate::tuning::{autotune_aspect, Autotuner, Step, Tunable, TuneConfig};
    pub use weavepar_concurrency::{future_concurrency_aspect, resolve_any, Executor};
    pub use weavepar_middleware::{
        message_packing_aspect, CallPolicy, InProcFabric, MarshalRegistry, MppConfig, NameServer,
        Policy, RmiConfig,
    };
    pub use weavepar_skeletons::{
        DivideConquerConfig, DynamicFarmConfig, FarmConfig, HeartbeatConfig, PipelineConfig,
        Protocol,
    };
    pub use weavepar_weave::prelude::*;
    pub use weavepar_weave::{Counter, Gauge, Histogram, Snapshot};
}
