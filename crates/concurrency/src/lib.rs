//! # weavepar-concurrency — the concurrency substrate (paper §4.2)
//!
//! The paper's programming model rests on **asynchronous method invocation**:
//! a client proceeds while the server object executes the requested method in
//! parallel, with *futures* for calls whose result is needed later, and
//! *synchronisation* (Java monitors) protecting non-thread-safe objects.
//!
//! This crate provides those primitives and packages them as (un)pluggable
//! aspects over `weavepar-weave` join points:
//!
//! * [`FutureValue`] / [`FutureAny`] — one-shot futures: write once, block on
//!   read until the value is available (ABCL-style, as described in the
//!   paper's related-work section);
//! * [`ThreadPool`] and [`Executor`] — thread-per-call (the paper's
//!   `new Thread()` in Figure 12) or a pooled executor backed by a
//!   work-stealing scheduler (the thread-pool *optimisation* aspect of §4.4
//!   simply swaps the executor); [`BatchScope`] defers spawns so a skeleton
//!   submits each pack of tasks as one batch, and [`continue_here`] runs a
//!   pipeline's hop on the thread that finished the stage before it;
//! * [`CompletionTracker`] — quiescence detection so clients can wait for all
//!   outstanding asynchronous invocations;
//! * [`aspects`] — the pluggable concurrency aspects:
//!   [`aspects::future_aspect`] (spawn and return a future; Figure 12's
//!   oneway call is one whose future is left untaken),
//!   [`aspects::synchronized_aspect`] (hold the target's monitor around
//!   `proceed`), and [`aspects::future_concurrency_aspect`] — the paper's
//!   Figure 12 module, the two together.

pub mod active;
pub mod aspects;
pub mod batch;
pub mod executor;
pub mod future;
pub mod pool;
pub mod tracker;

pub use active::{active_object_aspect, ActiveRuntime};
pub use aspects::{future_aspect, future_concurrency_aspect, synchronized_aspect};
pub use batch::{continue_here, on_scope_flush, scope_active, BatchScope};
pub use executor::Executor;
pub use future::{future_ret, resolve_any, FutureAny, FutureOrNow, FutureValue};
pub use pool::ThreadPool;
pub use tracker::CompletionTracker;
