//! Pass-through aspects the benchmark plugs just outside each concern's
//! precedence band, and innermost, to record a span at each layer boundary.

use weavepar::prelude::*;
use weavepar::weave::aspect::precedence;

use crate::spans::{self, Boundary};

/// Which concern bands of a weaver hold an aspect. A boundary is plugged only
/// in front of a band that is occupied, so a join point pays for no span
/// between two boundaries with nothing in between.
#[derive(Clone, Copy, Default)]
pub struct Bands {
    /// Aspects the benchmark's own stack holds outside every concern band
    /// (the pass-through and metrics aspects of the `weave_*` workloads).
    pub outer: bool,
    pub asynchronous: bool,
    pub partition: bool,
    pub synchronisation: bool,
    pub distribution: bool,
}

/// `first`: no boundary of this weaver is further out, so a join point
/// meets this one first.
fn boundary(at: i32, boundary: Boundary, first: bool) -> Aspect {
    Aspect::named(format!("Trace.{}", boundary.name()))
        .precedence(at)
        .around(Pointcut::Always, move |inv: &mut Invocation| {
            let _span =
                if first { spans::enter_joinpoint(boundary) } else { spans::enter(boundary) };
            inv.proceed()
        })
        .build()
}

/// Plug the boundaries of a caller-side weaver. The span opened in front of a
/// band covers that concern's advice and everything inward of it; its self
/// time is the concern's own. The innermost span covers base dispatch and the
/// method body.
pub fn plug_boundaries(weaver: &Weaver, bands: Bands) {
    let mut first = true;
    let mut plug = |on: bool, at, b| {
        if on {
            weaver.plug(boundary(at, b, std::mem::take(&mut first)));
        }
    };
    plug(bands.outer, -100_000, Boundary::Outer);
    plug(bands.asynchronous, precedence::ASYNC_INVOCATION - 1, Boundary::Async);
    plug(bands.partition, precedence::PARTITION - 1, Boundary::Partition);
    plug(bands.synchronisation, precedence::SYNCHRONISATION - 1, Boundary::Sync);
    plug(bands.distribution, precedence::DISTRIBUTION - 1, Boundary::Distribution);
    plug(true, 100_000, Boundary::Base);
}

/// Record the serve side of every remote call on `fabric`'s nodes. The nodes
/// are switched to woven dispatch so that an aspect on their weavers applies;
/// that switch is part of the tracing overhead.
pub fn plug_served(fabric: &InProcFabric) -> Result<(), String> {
    for i in 0..fabric.node_count() {
        let node = fabric.node(i).map_err(|e| e.to_string())?;
        node.set_woven(true);
        node.weaver().plug(boundary(0, Boundary::Served, true));
    }
    Ok(())
}
