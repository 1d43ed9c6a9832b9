//! Mandelbrot rendering — the farm-with-separable-dependencies category.
//!
//! Core functionality: [`Mandelbrot`] renders iteration counts for a row
//! range of the complex plane. Rows are independent, so a farm aspect (or a
//! dynamic farm — row costs are wildly uneven near the set boundary, the
//! textbook case for demand-driven assignment) parallelises it without core
//! changes.

use std::sync::Arc;

use weavepar::concurrency::resolve_any;
use weavepar::prelude::*;
use weavepar::weave::value::downcast_ret;
use weavepar::weave::Pack;
use weavepar::{args, ret, weaveable};

/// Escape-iteration count for one point (the classic inner loop).
pub fn escape_count(cx: f64, cy: f64, max_iter: u64) -> u64 {
    let (mut x, mut y) = (0.0f64, 0.0f64);
    let mut i = 0;
    while i < max_iter && x * x + y * y <= 4.0 {
        let nx = x * x - y * y + cx;
        y = 2.0 * x * y + cy;
        x = nx;
        i += 1;
    }
    i
}

/// The sequential renderer: a fixed viewport on the complex plane.
pub struct Mandelbrot {
    width: u64,
    height: u64,
    max_iter: u64,
}

weaveable! {
    class Mandelbrot as MandelbrotProxy {
        fn new(width: u64, height: u64, max_iter: u64) -> Self {
            Mandelbrot { width, height, max_iter }
        }

        /// Render the given rows; returns `rows.len() * width` iteration
        /// counts in row-major order.
        fn render_rows(&mut self, rows: Pack) -> Pack {
            let mut out = Vec::with_capacity(rows.len() * self.width as usize);
            for row in rows.as_slice().iter().copied() {
                let cy = -1.25 + 2.5 * (row as f64) / (self.height.max(1) as f64);
                for col in 0..self.width {
                    let cx = -2.0 + 2.75 * (col as f64) / (self.width.max(1) as f64);
                    out.push(escape_count(cx, cy, self.max_iter));
                }
            }
            Pack::from_vec(out)
        }
    }
}

/// Render the whole image sequentially (reference implementation).
pub fn render_sequential(width: u64, height: u64, max_iter: u64) -> Vec<u64> {
    let mut m = Mandelbrot::new(width, height, max_iter);
    m.render_rows((0..height).collect::<Pack>()).to_vec()
}

/// The farm protocol for the renderer: `workers` broadcast-constructed
/// renderers, the row list split into `packs` row blocks, outputs
/// concatenated in row order.
pub fn mandel_protocol(workers: usize, packs: usize) -> Protocol {
    Protocol {
        class: "Mandelbrot",
        method: "render_rows",
        workers,
        worker_args: Arc::new(|_rank, _n, orig: &Args| {
            Ok(args![*orig.get::<u64>(0)?, *orig.get::<u64>(1)?, *orig.get::<u64>(2)?])
        }),
        split: Arc::new(move |a: &Args| {
            let rows = a.get::<Pack>(0)?;
            if rows.is_empty() {
                return Ok(Vec::new());
            }
            let chunk = rows.len().div_ceil(packs.max(1)).max(1);
            // Copy-on-write split: row blocks alias the row list's allocation.
            Ok(rows.split_chunks(chunk).into_iter().map(|p| args![p]).collect())
        }),
        reforward: Arc::new(|v: AnyValue| Ok(Args::from_value(v))),
        combine: Arc::new(|vs: Vec<AnyValue>| {
            let mut parts = Vec::with_capacity(vs.len());
            for v in vs {
                parts.push(downcast_ret::<Pack>(v)?);
            }
            Ok(ret!(Pack::concat(&parts)))
        }),
    }
}

/// Render with a static farm (optionally with the concurrency module).
pub fn render_farmed(
    width: u64,
    height: u64,
    max_iter: u64,
    workers: usize,
    packs: usize,
    concurrent: bool,
) -> WeaveResult<Vec<u64>> {
    let partition = FarmConfig::new(mandel_protocol(workers, packs)).aspect("Partition.farm");
    render(partition, concurrent, width, height, max_iter)
}

/// Render with the dynamic farm (demand-driven row blocks) and concurrency.
pub fn render_dynamic(
    width: u64,
    height: u64,
    max_iter: u64,
    workers: usize,
    packs: usize,
) -> WeaveResult<Vec<u64>> {
    let partition =
        DynamicFarmConfig::new(mandel_protocol(workers, packs)).aspect("Partition.dynamic-farm");
    render(partition, true, width, height, max_iter)
}

/// Render under `partition`, plus the concurrency module on the crate's
/// shared pool when `concurrent`. The image is the root call's future, so
/// nothing is left to wait for on the pool.
fn render(
    partition: Aspect,
    concurrent: bool,
    width: u64,
    height: u64,
    max_iter: u64,
) -> WeaveResult<Vec<u64>> {
    let stack = ConcernStack::new();
    stack.plug(Concern::Partition, partition);
    if concurrent {
        let pointcut = Pointcut::call("Mandelbrot.render_rows");
        let executor = crate::shared_pool().clone();
        stack.plug_all(
            Concern::Concurrency,
            future_concurrency_aspect("Concurrency", pointcut, executor),
        );
    }
    let m = MandelbrotProxy::construct(stack.weaver(), width, height, max_iter)?;
    let raw = m.handle().call("render_rows", args![(0..height).collect::<Pack>()])?;
    let image: Pack = downcast_ret(resolve_any(raw)?)?;
    Ok(image.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_count_basics() {
        // The origin never escapes.
        assert_eq!(escape_count(0.0, 0.0, 100), 100);
        // Far outside the set, escapes immediately.
        assert_eq!(escape_count(10.0, 10.0, 100), 1);
    }

    #[test]
    fn sequential_render_shape() {
        let img = render_sequential(16, 8, 50);
        assert_eq!(img.len(), 16 * 8);
        // Interior points reach max_iter, exterior don't: image not constant.
        assert!(img.contains(&50));
        assert!(img.iter().any(|c| *c < 50));
    }

    #[test]
    fn farmed_matches_sequential() {
        let reference = render_sequential(24, 12, 40);
        for (workers, packs, concurrent) in [(1, 1, false), (3, 4, false), (4, 6, true)] {
            let farmed = render_farmed(24, 12, 40, workers, packs, concurrent).unwrap();
            assert_eq!(farmed, reference, "workers={workers} packs={packs} conc={concurrent}");
        }
    }

    #[test]
    fn dynamic_matches_sequential() {
        let reference = render_sequential(20, 10, 30);
        let dynamic = render_dynamic(20, 10, 30, 3, 5).unwrap();
        assert_eq!(dynamic, reference);
    }

    #[test]
    fn empty_image() {
        assert_eq!(render_sequential(8, 0, 10), Vec::<u64>::new());
        assert_eq!(render_farmed(8, 0, 10, 2, 2, false).unwrap(), Vec::<u64>::new());
    }
}
