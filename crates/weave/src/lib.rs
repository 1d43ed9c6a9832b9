//! # weavepar-weave — a dynamic join-point interception runtime
//!
//! This crate is the foundation of the `weavepar` workspace: a Rust substitute for
//! the AspectJ machinery used by Sobral's *"Incrementally Developing Parallel
//! Applications with AspectJ"* (IPPS 2006). It provides:
//!
//! * [`Signature`]s and wildcard [`MethodPattern`]s (`PrimeFilter.filter*`),
//! * [`Pointcut`]s over join points (method calls and object constructions) with
//!   the combinators the paper relies on (`call`, `construct`, `within_core`,
//!   `within_aspect`, `and`/`or`/`not`),
//! * [`Advice`] executed *around* a join point with `proceed` semantics, including
//!   [`Invocation::detach`], which moves the remainder of an advice chain onto
//!   another thread (the mechanism that makes an asynchronous-invocation aspect
//!   expressible),
//! * [`Aspect`]s — named, precedence-ordered bundles of advice that can be
//!   **plugged, unplugged and swapped at run time**,
//! * an [`ObjectSpace`] of aspect-managed objects addressed by [`ObjId`] and
//!   accessed through typed [`Handle`]s,
//! * inter-type declarations (per-object mixin fields and extension methods,
//!   mirroring AspectJ's static crosscutting), and
//! * [`trace`] hooks that record the task/message DAG of a woven execution for
//!   replay on the discrete-event cluster simulator (`weavepar-cluster`).
//!
//! ## Why a dynamic runtime instead of compile-time weaving?
//!
//! Rust has no load-time bytecode weaver. Instead, *weaveable* classes are
//! declared once through the [`weaveable!`] macro, which generates a typed proxy
//! (an extension trait over [`Handle<T>`]). Every construction and method call
//! made through the proxy becomes a join point routed through a [`Weaver`].
//! Everything past that boundary — which concerns exist, in which order they
//! run, whether they are plugged at all — is decided externally, which is the
//! obliviousness property the paper's methodology actually depends on.
//!
//! ## Quick example
//!
//! ```
//! use weavepar_weave::prelude::*;
//!
//! struct Point { x: i64, y: i64 }
//!
//! weavepar_weave::weaveable! {
//!     class Point as PointProxy {
//!         fn new(x: i64, y: i64) -> Self { Point { x, y } }
//!         fn move_x(&mut self, delta: i64) { self.x += delta; }
//!         fn move_y(&mut self, delta: i64) { self.y += delta; }
//!         fn get(&mut self) -> (i64, i64) { (self.x, self.y) }
//!     }
//! }
//!
//! let weaver = Weaver::new();
//!
//! // A logging aspect equivalent to the paper's Figure 3.
//! let log = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
//! let log2 = log.clone();
//! let logging = Aspect::named("Logging")
//!     .around(Pointcut::call("Point.move*"), move |inv: &mut Invocation| {
//!         log2.lock().push(inv.signature().to_string());
//!         inv.proceed()
//!     })
//!     .build();
//! let plugged = weaver.plug(logging);
//!
//! let p = PointProxy::construct(&weaver, 0, 0).unwrap();
//! p.move_x(10).unwrap();
//! p.move_y(5).unwrap();
//! assert_eq!(p.get().unwrap(), (10, 5));
//! assert_eq!(log.lock().len(), 2);
//!
//! // Unplug and the core functionality is back to strictly sequential calls.
//! weaver.unplug(&plugged);
//! p.move_x(1).unwrap();
//! assert_eq!(log.lock().len(), 2);
//! ```

pub mod advice;
pub mod aspect;
pub mod context;
pub mod dispatch;
pub mod error;
pub mod intertype;
pub mod invocation;
pub mod metrics;
pub mod object;
pub mod pointcut;
pub mod registry;
pub mod signature;
pub(crate) mod snapshot;
pub mod trace;
pub mod value;

mod macros;

pub use advice::Advice;
pub use aspect::{Aspect, AspectBuilder, AspectId, PluggedAspect};
pub use context::Provenance;
pub use dispatch::{ConstructorFn, Weaveable};
pub use error::{WeaveError, WeaveResult};
pub use intertype::IntertypeStore;
pub use invocation::{Detached, Invocation, JoinPointKind};
pub use metrics::{
    metrics_aspect, metrics_aspect_at, CallMeter, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry, Snapshot,
};
pub use object::{Handle, ObjId, ObjectSpace};
pub use pointcut::Pointcut;
pub use registry::Weaver;
pub use signature::{MethodPattern, Signature};
pub use trace::{CostModel, Recorder, TaskId, TaskRecord, TraceGraph};
pub use value::{AnyValue, Args, ByteSize, ClassId, MethodId, Pack, Value};

/// Commonly used items, for glob import in application and aspect code.
pub mod prelude {
    pub use crate::advice::Advice;
    pub use crate::aspect::{Aspect, AspectId, PluggedAspect};
    pub use crate::context::Provenance;
    pub use crate::dispatch::Weaveable;
    pub use crate::error::{WeaveError, WeaveResult};
    pub use crate::invocation::{Detached, Invocation, JoinPointKind};
    pub use crate::metrics::{metrics_aspect, metrics_aspect_at, MetricsRegistry};
    pub use crate::object::{Handle, ObjId};
    pub use crate::pointcut::Pointcut;
    pub use crate::registry::Weaver;
    pub use crate::signature::{MethodPattern, Signature};
    pub use crate::value::{AnyValue, Args, ByteSize, Pack, Value};
    pub use crate::{args, ret};
}
