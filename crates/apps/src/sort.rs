//! Merge sort on the divide-and-conquer protocol.
//!
//! Core functionality: a [`Sorter`] that sorts a pack (the standard library's
//! unstable sort, in place in the pack it is given). The divide-and-conquer
//! aspect splits large inputs at the *call* join point, creating sub-sorter
//! objects on the fly (§4.1's divide-and-conquer remark) and merging their
//! outputs, each pair straight into the pack it returns with `merge_into`:
//! a merge sort at the skeleton level, whose leaves are the sorter's.

use std::sync::Arc;

use weavepar::concurrency::resolve_any;
use weavepar::prelude::*;
use weavepar::weave::value::downcast_ret;
use weavepar::weave::Pack;
use weavepar::{args, ret, weaveable};

/// Merge two sorted slices into a new vector (`merge_into` with the output
/// allocated here).
pub fn merge_slices(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0; a.len() + b.len()];
    merge_into(a, b, &mut out);
    out
}

/// Merge sorted `a` and sorted `b` into `out` (of ties, `a`'s item first).
///
/// Which run the next item comes from is a coin toss on real data, so the
/// loop selects instead of branching, and it works from both ends at once —
/// the smallest item left goes to the front of `out`, the largest to the
/// back — so that two selections, neither waiting for the other's load, are
/// in flight. Its cost per item is the same on every input.
fn merge_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert_eq!(out.len(), a.len() + b.len(), "the output holds both runs exactly");
    if matches!((a.last(), b.first()), (Some(last), Some(first)) if last <= first) {
        // Already in order (sorted or nearly sorted input): two copies.
        out[..a.len()].copy_from_slice(a);
        out[a.len()..].copy_from_slice(b);
        return;
    }
    // Not yet merged: a[i..p] and b[j..q]; not yet written: out[lo..hi].
    let (mut i, mut p) = (0, a.len());
    let (mut j, mut q) = (0, b.len());
    let (mut lo, mut hi) = (0, out.len());
    while i < p && j < q {
        let (x, y) = (a[i], b[j]);
        let from_b = y < x;
        out[lo] = if from_b { y } else { x };
        i += usize::from(!from_b);
        j += usize::from(from_b);
        lo += 1;
        if i == p || j == q {
            break;
        }
        let (x, y) = (a[p - 1], b[q - 1]);
        let from_a = y < x;
        out[hi - 1] = if from_a { x } else { y };
        p -= usize::from(from_a);
        q -= usize::from(!from_a);
        hi -= 1;
    }
    out[lo..hi].copy_from_slice(if i == p { &b[j..q] } else { &a[i..p] });
}

/// The sequential sorter.
pub struct Sorter;

weaveable! {
    class Sorter as SorterProxy {
        fn new() -> Self { Sorter }

        /// The standard library's unstable sort, in the pack it is given: in
        /// place if the pack is the only owner of its allocation, in a copy
        /// of its own range (only) if the allocation is shared — a half
        /// handed out by a divide is. That copy is the only allocation.
        fn sort(&mut self, xs: Pack) -> Pack {
            let mut xs = xs;
            xs.make_mut().sort_unstable();
            xs
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
                // Each pair is merged straight into the allocation it returns in.
                .reduce(|a, b| {
                    Pack::build(a.len() + b.len(), |out| {
                        merge_into(a.as_slice(), b.as_slice(), out)
                    })
                })
                .unwrap_or_else(|| Pack::from_vec(Vec::new()));
            Ok(ret!(combined))
        }),
    }
}

/// Workers of the pool the concurrent recursion runs on: one per available
/// CPU, in the crate's one process-wide pool (which the concurrent sieve rows
/// share), created on the first concurrent call. The tree may be far deeper
/// than that — a join on a pool worker runs queued sub-problems instead of
/// blocking.
pub fn dc_pool_size() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Sort with the divide-and-conquer aspect (optionally with the concurrency
/// module, giving a parallel recursion tree on the process-wide
/// work-stealing pool of [`dc_pool_size`] workers). The sorted items are
/// written back into `xs`, which is returned.
pub fn sort_divide_conquer(
    mut xs: Vec<u64>,
    threshold: usize,
    concurrent: bool,
) -> WeaveResult<Vec<u64>> {
    let stack = ConcernStack::new();
    stack.weaver().register_class::<Sorter>();
    stack.plug(Concern::Partition, sort_dc_config(threshold).aspect("Partition.dc"));
    if concurrent {
        stack.plug_all(
            Concern::Concurrency,
            future_concurrency_aspect(
                "Concurrency",
                Pointcut::call("Sorter.sort"),
                crate::shared_pool().clone(),
            ),
        );
    }
    let sorter = SorterProxy::construct(stack.weaver())?;
    let raw = sorter.handle().call("sort", args![Pack::from_slice(&xs)])?;
    // No `wait_idle`: it would wait for other callers' work on the shared
    // pool, and this call's tree is done once its root resolves, because
    // every divide joins all of its sub-calls before it combines.
    let sorted: Pack = downcast_ret(resolve_any(raw)?)?;
    xs.copy_from_slice(sorted.as_slice());
    Ok(xs)
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
        assert_eq!(merge_slices(&[1, 3, 5], &[2, 4, 6]), [1, 2, 3, 4, 5, 6]);
        assert_eq!(merge_slices(&[], &[1]), [1]);
        assert_eq!(merge_slices(&[1], &[]), [1]);
        assert_eq!(merge_slices(&[1, 1], &[1]), [1, 1, 1]);
    }

    #[test]
    fn a_merge_writes_every_item_over_a_buffer_full_of_sentinels() {
        // `Pack::build` hands the merge a recycled buffer as the last pack
        // left it: an item the merge skipped would keep a stale value.
        const SENTINEL: u64 = u64::MAX;
        let (x, y) = (reference(pseudo_random(700, 1)), reference(pseudo_random(300, 2)));
        let evens: Vec<u64> = (0..64).map(|i| 2 * i).collect();
        let odds: Vec<u64> = (0..64).map(|i| 2 * i + 1).collect();
        let cases: [(&[u64], &[u64]); 7] = [
            (&[], &[]),
            (&[], &y),
            (&x, &[]),
            (&evens, &odds),
            (&odds, &evens),
            (&y[..150], &y[150..]),
            (&x, &y),
        ];
        for (a, b) in cases {
            let mut out = vec![SENTINEL; a.len() + b.len()];
            merge_into(a, b, &mut out);
            assert_eq!(out, reference([a, b].concat()), "{} + {} items", a.len(), b.len());
        }
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

    #[test]
    fn the_result_is_written_back_into_the_callers_vector() {
        // Two 40 000-item inputs back to back: the upper merges build packs
        // of recycled sizes, so the second merges into buffers the first
        // one's results left, and must not read their old items.
        for concurrent in [false, true] {
            for (n, seed) in [(3_000, 5), (40_000, 11), (40_000, 12)] {
                let xs = pseudo_random(n, seed);
                let expect = reference(xs.clone());
                let items = xs.as_ptr();
                let got = sort_divide_conquer(xs, 128, concurrent).unwrap();
                assert_eq!(got.as_ptr(), items, "concurrent = {concurrent}, seed {seed}: moved");
                assert_eq!(got, expect, "concurrent = {concurrent}, seed {seed}");
            }
        }
    }

    #[test]
    fn sorting_a_shared_half_copies_that_half_only() {
        let xs = pseudo_random(301, 3);
        let parent = Pack::from_slice(&xs);
        let (left, right) = parent.split_at(150);
        let sorted = Sorter::new().sort(left.clone());
        assert_eq!(sorted.to_vec(), reference(xs[..150].to_vec()));
        assert!(!sorted.is_shared(), "the sorted half detached from the shared allocation");
        // The parent, the sibling and the other view of the same half still
        // read what they read before.
        assert_eq!(parent.as_slice(), &xs[..]);
        assert_eq!(left.as_slice(), &xs[..150]);
        assert_eq!(right.as_slice(), &xs[150..]);
    }

    #[test]
    fn sorting_a_uniquely_owned_subrange_sorts_in_place() {
        let xs = pseudo_random(301, 4);
        let (left, right) = Pack::from_slice(&xs).split_at(150);
        drop(left);
        assert!(!right.is_shared(), "the only view left owns the allocation");
        let items = right.as_slice().as_ptr();
        let sorted = Sorter::new().sort(right);
        assert_eq!(sorted.as_slice().as_ptr(), items, "same allocation, same range: no copy");
        assert_eq!(sorted.to_vec(), reference(xs[150..].to_vec()));
    }

    #[test]
    fn combine_merges_any_number_of_sorted_packs() {
        let combine = sort_dc_config(8).combine;
        let packs = |runs: &[&[u64]]| runs.iter().map(|r| ret!(Pack::from_slice(r))).collect();
        let merged = |runs: &[&[u64]]| downcast_ret::<Pack>(combine(packs(runs)).unwrap()).unwrap();
        assert!(merged(&[]).is_empty());
        assert_eq!(merged(&[&[1, 4]]).as_slice(), &[1, 4]);
        assert_eq!(merged(&[&[1, 4], &[2, 3, 9]]).as_slice(), &[1, 2, 3, 4, 9]);
        assert_eq!(merged(&[&[5], &[], &[0, 7]]).as_slice(), &[0, 5, 7]);
        assert!(combine(vec![ret!(1u64)]).is_err(), "a sub-result that is not a Pack is refused");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Inputs the kernel treats differently: anything, a handful of distinct
    /// values (long runs of ties), one value, sorted, reverse-sorted.
    fn kernel_input() -> impl Strategy<Value = Vec<u64>> {
        let len = 0usize..2_000;
        prop_oneof![
            proptest::collection::vec(any::<u64>(), len.clone()),
            proptest::collection::vec(0u64..2, len.clone()),
            (any::<u64>(), len.clone()).prop_map(|(v, n)| vec![v; n]),
            len.clone().prop_map(|n| (0..n as u64).collect()),
            len.prop_map(|n| (0..n as u64).rev().collect()),
        ]
    }

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
            let merged = merge_slices(&a, &b);
            let mut expect = [a, b].concat();
            expect.sort_unstable();
            prop_assert_eq!(merged, expect);
        }

        /// The inputs of [`kernel_input`], in a pack of their own.
        #[test]
        fn sequential_core_equals_std_sort(xs in kernel_input()) {
            let mut expect = xs.clone();
            expect.sort_unstable();
            prop_assert_eq!(Sorter::new().sort(Pack::from_vec(xs)).to_vec(), expect);
        }

        /// The merge on runs of unequal length (one may be empty, one may
        /// lie wholly before the other), through its old signature.
        #[test]
        fn merge_slices_equals_concat_then_sort(mut a in kernel_input(), mut b in kernel_input(),
                                                 cut in 0usize..2_000) {
            a.truncate(cut);
            a.sort_unstable();
            b.sort_unstable();
            let mut expect = [&a[..], &b[..]].concat();
            expect.sort_unstable();
            prop_assert_eq!(merge_slices(&a, &b), expect);
        }
    }
}
