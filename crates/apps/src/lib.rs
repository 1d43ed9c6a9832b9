//! # weavepar-apps — the case-study applications
//!
//! Three applications, one per partition-strategy category named in the
//! paper's conclusion ("pipeline, farm with separable dependencies and
//! heartbeat"):
//!
//! * [`sieve`] — the paper's §5 case study: a prime-number sieve whose
//!   sequential core (`PrimeFilter`) is parallelised by plugging pipeline /
//!   farm / dynamic-farm partition aspects, the concurrency module, and the
//!   RMI- or MPP-style distribution aspects — every combination of the
//!   paper's Table 1, plus the hand-coded RMI baseline of Figure 16;
//! * [`mandel`] — a Mandelbrot renderer farmed over row blocks (farm with
//!   separable dependencies);
//! * [`heat`] — a 1-D Jacobi heat-diffusion solver on the heartbeat
//!   protocol (block partition + per-iteration boundary exchange);
//! * [`sort`] — merge sort on the divide-and-conquer protocol (§4.1's
//!   object-creation-at-call-join-points remark).
//!
//! Each application keeps its core functionality as a perfectly ordinary
//! sequential type (directly usable — and unit-tested — without any weaver)
//! and exposes `build`/`run` helpers that assemble the requested concern
//! stack.

use std::sync::OnceLock;

use weavepar::concurrency::Executor;

pub mod heat;
pub mod mandel;
pub mod sieve;
pub mod sort;

pub use sieve::{build_sieve, run_sieve, Middleware, PartitionStrategy, SieveConfig, SieveRun};

/// The one pool the concurrency module runs on in every Table 1 row and in
/// the concurrent sort (the paper's §4.4 thread-pool optimisation):
/// [`sort::dc_pool_size`] workers, created on first concurrent use and never
/// shut down. Callers share it, so none of them waits for it to go idle: a
/// call is done once its root future resolves.
pub(crate) fn shared_pool() -> &'static Executor {
    static POOL: OnceLock<Executor> = OnceLock::new();
    POOL.get_or_init(|| Executor::pool(sort::dc_pool_size(), "apps-pool"))
}
