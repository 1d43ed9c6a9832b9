//! Merge sort on the divide-and-conquer protocol.
//!
//! Core functionality: a [`Sorter`] that sorts a vector (plain sequential
//! merge sort). The divide-and-conquer aspect splits large inputs at the
//! *call* join point, creating sub-sorter objects on the fly (§4.1's
//! divide-and-conquer remark) and merging their outputs.

use std::sync::Arc;

use weavepar::concurrency::resolve_any;
use weavepar::prelude::*;
use weavepar::weave::value::downcast_ret;
use weavepar::weave::Pack;
use weavepar::{args, ret, weaveable};

/// Merge two sorted vectors.
pub fn merge(a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    merge_slices(&a, &b)
}

/// Merge two sorted slices (the pack-level merge: reads both inputs in
/// place, allocating only the output).
pub fn merge_slices(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The sequential sorter.
pub struct Sorter;

weaveable! {
    class Sorter as SorterProxy {
        fn new() -> Self { Sorter }

        /// Plain sequential merge sort. The halves are copy-on-write views
        /// of the input pack, so dividing never copies the data.
        fn sort(&mut self, xs: Pack) -> Pack {
            if xs.len() <= 1 {
                return xs;
            }
            let (left, right) = xs.split_at(xs.len() / 2);
            let mut s = Sorter;
            let left = s.sort(left);
            let right = s.sort(right);
            Pack::from_vec(merge_slices(left.as_slice(), right.as_slice()))
        }
    }
}

/// The divide-and-conquer refinement for the sorter: divide above
/// `threshold`, merge pairwise.
pub fn sort_dc_config(threshold: usize) -> DivideConquerConfig {
    DivideConquerConfig {
        class: "Sorter",
        method: "sort",
        should_divide: Arc::new(move |a: &Args| Ok(a.get::<Pack>(0)?.len() > threshold.max(1))),
        divide: Arc::new(|a: &Args| {
            let xs = a.get::<Pack>(0)?;
            // Copy-on-write divide: both halves alias the input allocation.
            let (left, right) = xs.split_at(xs.len() / 2);
            Ok(vec![args![left], args![right]])
        }),
        worker_args: Arc::new(|_sub| Ok(args![])),
        combine: Arc::new(|vs: Vec<AnyValue>| {
            let mut sorted: Vec<Pack> = Vec::with_capacity(vs.len());
            for v in vs {
                sorted.push(downcast_ret::<Pack>(v)?);
            }
            let combined = sorted
                .into_iter()
                .reduce(|a, b| Pack::from_vec(merge_slices(a.as_slice(), b.as_slice())))
                .unwrap_or_else(|| Pack::from_vec(Vec::new()));
            Ok(ret!(combined))
        }),
    }
}

/// Workers of the pool the concurrent recursion runs on: one per available
/// CPU. The tree may be far deeper than that — a join on a pool worker runs
/// queued sub-problems instead of blocking.
pub fn dc_pool_size() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Sort with the divide-and-conquer aspect (optionally with the concurrency
/// module, giving a parallel recursion tree on a work-stealing pool of
/// [`dc_pool_size`] workers).
pub fn sort_divide_conquer(
    xs: Vec<u64>,
    threshold: usize,
    concurrent: bool,
) -> WeaveResult<Vec<u64>> {
    let stack = ConcernStack::new();
    stack.weaver().register_class::<Sorter>();
    stack.plug(Concern::Partition, sort_dc_config(threshold).aspect("Partition.dc"));
    let executor = if concurrent {
        let executor = Executor::pool(dc_pool_size(), "sort-dc");
        stack.plug_all(
            Concern::Concurrency,
            future_concurrency_aspect(
                "Concurrency",
                Pointcut::call("Sorter.sort"),
                executor.clone(),
            ),
        );
        Some(executor)
    } else {
        None
    };
    let sorter = SorterProxy::construct(stack.weaver())?;
    let raw = sorter.handle().call("sort", args![Pack::from_vec(xs)])?;
    let sorted: Pack = downcast_ret(resolve_any(raw)?)?;
    if let Some(executor) = executor {
        executor.wait_idle();
    }
    Ok(sorted.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(mut xs: Vec<u64>) -> Vec<u64> {
        xs.sort_unstable();
        xs
    }

    fn pseudo_random(n: usize, mut seed: u64) -> Vec<u64> {
        (0..n)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                seed >> 33
            })
            .collect()
    }

    #[test]
    fn merge_is_correct() {
        assert_eq!(merge(vec![1, 3, 5], vec![2, 4, 6]), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(merge(vec![], vec![1]), vec![1]);
        assert_eq!(merge(vec![1], vec![]), vec![1]);
        assert_eq!(merge(vec![1, 1], vec![1]), vec![1, 1, 1]);
    }

    #[test]
    fn sequential_core_sorts() {
        let mut s = Sorter::new();
        let xs = pseudo_random(500, 7);
        assert_eq!(s.sort(Pack::from_slice(&xs)).to_vec(), reference(xs));
        assert_eq!(s.sort(Pack::from_vec(vec![])).to_vec(), Vec::<u64>::new());
    }

    #[test]
    fn divide_conquer_sorts() {
        let xs = pseudo_random(2_000, 42);
        let got = sort_divide_conquer(xs.clone(), 64, false).unwrap();
        assert_eq!(got, reference(xs));
    }

    #[test]
    fn concurrent_divide_conquer_sorts() {
        let xs = pseudo_random(4_000, 99);
        let got = sort_divide_conquer(xs.clone(), 256, true).unwrap();
        assert_eq!(got, reference(xs));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(sort_divide_conquer(vec![], 8, false).unwrap(), Vec::<u64>::new());
        assert_eq!(sort_divide_conquer(vec![5], 8, false).unwrap(), vec![5]);
        assert_eq!(sort_divide_conquer(vec![2, 1], 1, false).unwrap(), vec![1, 2]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn dc_sort_equals_std_sort(xs in proptest::collection::vec(any::<u64>(), 0..300),
                                   threshold in 1usize..64) {
            let mut expect = xs.clone();
            expect.sort_unstable();
            for concurrent in [false, true] {
                let got = sort_divide_conquer(xs.clone(), threshold, concurrent).unwrap();
                prop_assert_eq!(&got, &expect, "concurrent = {}", concurrent);
            }
        }

        #[test]
        fn merge_preserves_multiset(mut a in proptest::collection::vec(any::<u64>(), 0..50),
                                    mut b in proptest::collection::vec(any::<u64>(), 0..50)) {
            a.sort_unstable();
            b.sort_unstable();
            let merged = merge(a.clone(), b.clone());
            let mut expect = [a, b].concat();
            expect.sort_unstable();
            prop_assert_eq!(merged, expect);
        }
    }
}
