//! The sieve's core functionality (paper §5.1).
//!
//! ```java
//! public class PrimeFilter {
//!     // calculates primes between [pmin,pmax]
//!     public PrimeFilter(int pmin, int pmax);
//!     // remove non-primes from num list
//!     public void filter(int num[]);
//! }
//! ```
//!
//! The one deviation from the Java sketch: `filter` *returns* the surviving
//! candidates instead of mutating a shared array — Rust (like RMI!) passes
//! arrays by value, so survivors must flow explicitly. The pipeline's
//! forward advice forwards each stage's output, which is also the only
//! reading under which the paper's by-value RMI variant computes correct
//! results.
//!
//! ## The kernel
//!
//! `filter` keeps `n` unless one of its primes `p` divides it with `n != p`,
//! but it does not divide. It cuts its input into *runs* of consecutive items
//! whose values span less than `WINDOW` (2^16), and for each run strikes out,
//! in one bitmap of `WINDOW` bits reused from run to run, the multiples of
//! every prime over the run's `[lo, hi]`: from the first multiple `>= lo`,
//! `p` itself skipped, 0 (a multiple of every prime) included. The unstruck
//! items of the run are kept, in input order. A pipeline pack of odd
//! candidates is one run per `WINDOW` values, so a prime costs one division
//! per run and then `WINDOW / p` bit writes, where dividing cost one division
//! per candidate.
//!
//! Input order, duplicates and values near `u64::MAX` are the caller's: a
//! run only needs its span, and no multiple is formed by an unchecked
//! product. The worst case is sparse input, whose items lie `WINDOW` or more
//! apart: every run is one item, and striking it costs one division per prime
//! — what dividing it would.

use weavepar::weave::Pack;
use weavepar::weaveable;

/// Integer square root (largest `r` with `r*r <= n`).
pub fn isqrt(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    // Float guess, corrected with overflow-checked arithmetic (a saturating
    // square cannot distinguish "overflowed" from "equals u64::MAX").
    let mut r = (n as f64).sqrt() as u64;
    while r.checked_mul(r).is_none_or(|sq| sq > n) {
        r -= 1;
    }
    while (r + 1).checked_mul(r + 1).is_some_and(|sq| sq <= n) {
        r += 1;
    }
    r
}

/// All primes `<= n`, by a plain sieve of Eratosthenes (the pre-calculation
/// step of §5: "pre-calculates the primes up to the square root of the
/// largest number").
pub fn primes_upto(n: u64) -> Vec<u64> {
    if n < 2 {
        return Vec::new();
    }
    let n = n as usize;
    let mut composite = vec![false; n + 1];
    let mut primes = Vec::new();
    for p in 2..=n {
        if !composite[p] {
            primes.push(p as u64);
            let mut multiple = p * p;
            while multiple <= n {
                composite[multiple] = true;
                multiple += p;
            }
        }
    }
    primes
}

/// The candidate list the paper sends through the pipeline: "only odd
/// numbers are sent" — odd numbers in `[3, max]`.
pub fn candidates(max: u64) -> Vec<u64> {
    (3..=max).step_by(2).collect()
}

/// [`candidates`] built in the pack they travel in: an iterator of trusted
/// length collects them straight into the pack's one allocation, with no
/// `Vec` to copy from.
pub fn candidate_pack(max: u64) -> Pack {
    (0..max.saturating_sub(1) / 2).map(|i| 3 + 2 * i).collect()
}

/// How many consecutive values one run of [`PrimeFilter::filter`] may span:
/// the bits it strikes them out in (8 KB) stay in the L1 cache.
const WINDOW: u64 = 1 << 16;

/// The longest prefix of `items` whose values span less than [`WINDOW`], as
/// its length, least and greatest value. `items` is not empty.
fn next_run(items: &[u64]) -> (usize, u64, u64) {
    let (mut lo, mut hi) = (items[0], items[0]);
    for (len, &n) in items.iter().enumerate().skip(1) {
        let (wider_lo, wider_hi) = (lo.min(n), hi.max(n));
        if wider_hi - wider_lo >= WINDOW {
            return (len, lo, hi);
        }
        (lo, hi) = (wider_lo, wider_hi);
    }
    (items.len(), lo, hi)
}

/// Set bit `n - lo` of `struck` for every `n` in `[lo, hi]` (a span below
/// [`WINDOW`]) that one of `primes` removes: each multiple of a prime but the
/// prime itself, 0 included.
fn strike(primes: &[u64], lo: u64, hi: u64, struck: &mut [u64]) {
    let span = (hi - lo) as usize;
    struck[..=span / 64].fill(0);
    if lo == 0 && !primes.is_empty() {
        struck[0] = 1;
    }
    for &p in primes {
        // The multiplier 0 is 0, struck above; 1 is `p` itself, kept.
        let Some(first) = lo.div_ceil(p).max(2).checked_mul(p) else { continue };
        if first > hi {
            continue;
        }
        // A step past the window is as good as `p` and cannot overflow.
        let step = p.min(WINDOW) as usize;
        let mut at = (first - lo) as usize;
        while at <= span {
            struck[at / 64] |= 1 << (at % 64);
            at += step;
        }
    }
}

/// The sieve's core class.
pub struct PrimeFilter {
    primes: Vec<u64>,
}

impl PrimeFilter {
    /// The primes this filter divides by (used by tests and the handcoded
    /// baseline).
    pub fn primes(&self) -> &[u64] {
        &self.primes
    }

    /// Rebuild a filter from a snapshotted prime set (migration support).
    pub fn from_primes(primes: Vec<u64>) -> Self {
        PrimeFilter { primes }
    }
}

weaveable! {
    class PrimeFilter as PrimeFilterProxy {
        fn new(pmin: u64, pmax: u64) -> Self {
            // Primes in [pmin, pmax]: the range of divisors this filter owns.
            let primes = primes_upto(pmax).into_iter().filter(|p| *p >= pmin).collect();
            PrimeFilter { primes }
        }

        fn filter(&mut self, nums: Pack) -> Pack {
            // Remove every multiple of one of our primes; a number equal to
            // the prime itself is of course kept (see the module docs for
            // how). The input pack is a shared view (splits alias one
            // allocation); survivors go to a fresh pack, since the length
            // shrinks.
            let mut rest = nums.as_slice();
            let mut survivors = Vec::with_capacity(rest.len());
            let mut struck = vec![0u64; (WINDOW / 64) as usize];
            while !rest.is_empty() {
                let (len, lo, hi) = next_run(rest);
                let (run, after) = rest.split_at(len);
                strike(&self.primes, lo, hi, &mut struck);
                survivors.extend(run.iter().copied().filter(|&n| {
                    let at = (n - lo) as usize;
                    struck[at / 64] & (1 << (at % 64)) == 0
                }));
                rest = after;
            }
            Pack::from_vec(survivors)
        }
    }
}

/// The fully sequential sieve of §5.1's `main`: one `PrimeFilter` over the
/// whole pre-prime range, filtering the whole candidate list in one call.
/// Returns all primes `<= max`.
pub fn sequential_sieve(max: u64) -> Vec<u64> {
    if max < 2 {
        return Vec::new();
    }
    let mut filter = PrimeFilter::new(2, isqrt(max));
    let survivors = filter.filter(candidate_pack(max));
    let mut primes = vec![2];
    primes.extend_from_slice(survivors.as_slice());
    primes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isqrt_basics() {
        assert_eq!(isqrt(0), 0);
        assert_eq!(isqrt(1), 1);
        assert_eq!(isqrt(2), 1);
        assert_eq!(isqrt(3), 1);
        assert_eq!(isqrt(4), 2);
        assert_eq!(isqrt(15), 3);
        assert_eq!(isqrt(16), 4);
        assert_eq!(isqrt(10_000_000), 3162);
        assert_eq!(isqrt(u64::MAX), u32::MAX as u64);
    }

    #[test]
    fn primes_upto_small() {
        assert_eq!(primes_upto(0), Vec::<u64>::new());
        assert_eq!(primes_upto(1), Vec::<u64>::new());
        assert_eq!(primes_upto(2), vec![2]);
        assert_eq!(primes_upto(20), vec![2, 3, 5, 7, 11, 13, 17, 19]);
        assert_eq!(primes_upto(3162).len(), 446, "the paper's pre-prime count for 10M");
    }

    #[test]
    fn candidates_are_odd_and_bounded() {
        assert_eq!(candidates(10), vec![3, 5, 7, 9]);
        assert_eq!(candidates(2), Vec::<u64>::new());
        assert!(candidates(101).contains(&101));
    }

    #[test]
    fn filter_removes_multiples_keeps_primes() {
        let mut f = PrimeFilter::new(2, 5);
        assert_eq!(f.primes(), &[2, 3, 5]);
        let out = f.filter(Pack::from_slice(&[3, 5, 7, 9, 15, 25, 49, 121]));
        // 3 and 5 equal a divisor: kept. 9=3·3, 15, 25 removed. 49, 121
        // survive (7 and 11 are outside this filter's range).
        assert_eq!(out.to_vec(), vec![3, 5, 7, 49, 121]);
    }

    #[test]
    fn filter_range_restricts_divisors() {
        let mut f = PrimeFilter::new(5, 11);
        assert_eq!(f.primes(), &[5, 7, 11]);
        // 9 survives: 3 is not among this filter's divisors.
        assert_eq!(f.filter(Pack::from_slice(&[9, 25, 35, 13])).to_vec(), vec![9, 13]);
    }

    #[test]
    fn sequential_sieve_matches_reference() {
        for max in [2u64, 3, 10, 100, 1000, 7919] {
            assert_eq!(sequential_sieve(max), primes_upto(max), "max={max}");
        }
        assert!(sequential_sieve(1).is_empty());
    }

    #[test]
    fn paper_scale_counts() {
        // π(10^6) = 78498 — checks the core at a meaningful size.
        assert_eq!(sequential_sieve(1_000_000).len(), 78_498);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn is_prime_naive(n: u64) -> bool {
        if n < 2 {
            return false;
        }
        let mut d = 2;
        while d * d <= n {
            if n.is_multiple_of(d) {
                return false;
            }
            d += 1;
        }
        true
    }

    /// The oracle: what `filter` computed before it struck multiples out, one
    /// division per item and prime.
    fn divided(primes: &[u64], nums: &[u64]) -> Vec<u64> {
        nums.iter().copied().filter(|n| primes.iter().all(|p| n % p != 0 || n == p)).collect()
    }

    /// `filter` against the oracle, over `primes` and `nums` as given.
    fn agrees(primes: &[u64], nums: &[u64]) -> bool {
        let mut f = PrimeFilter::from_primes(primes.to_vec());
        f.filter(Pack::from_slice(nums)).to_vec() == divided(primes, nums)
    }

    /// The largest prime below 2^64: its own multiples cannot be formed.
    const TOP_PRIME: u64 = u64::MAX - 58;

    /// Items in no order, with duplicates, 0, 1 and divisors themselves.
    fn small_items() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(prop_oneof![0u64..2, 2u64..200, 0u64..5_000], 0..300)
    }

    /// Items within `2^16` of `u64::MAX`, mixed with some far below.
    fn top_items() -> impl Strategy<Value = Vec<u64>> {
        let near = (u64::MAX - WINDOW)..u64::MAX;
        proptest::collection::vec(prop_oneof![near.clone(), near, 0u64..3 * WINDOW], 0..300)
    }

    #[test]
    fn an_empty_divisor_range_keeps_everything() {
        let mut f = PrimeFilter::new(3, 2);
        assert!(f.primes().is_empty());
        let nums = [0, 1, 2, 4, 9, u64::MAX, 4, 0];
        assert_eq!(f.filter(Pack::from_slice(&nums)).to_vec(), nums);
    }

    #[test]
    fn the_top_prime_keeps_itself_and_strikes_nothing_else() {
        let nums = [TOP_PRIME, u64::MAX, TOP_PRIME - 1, 0, TOP_PRIME, 1];
        assert!(agrees(&[TOP_PRIME], &nums));
        assert!(agrees(&[2, 3, 5, TOP_PRIME], &nums));
        assert_eq!(divided(&[TOP_PRIME], &nums).len(), 5, "0 is struck, the rest kept");
    }

    #[test]
    fn the_candidate_pack_is_the_candidate_list_at_the_edges() {
        for max in (0..=5).chain([2_000_000]) {
            assert_eq!(candidate_pack(max).as_slice(), candidates(max), "max={max}");
        }
    }

    proptest! {
        /// The pack built in place holds the candidate list, item for item.
        #[test]
        fn the_candidate_pack_is_the_candidate_list(max in 0u64..20_000) {
            prop_assert_eq!(candidate_pack(max).as_slice(), &candidates(max)[..]);
        }

        /// Any divisor range over items in no order, duplicates, 0, 1 and
        /// the divisors themselves included: the kernel is the oracle.
        #[test]
        fn striking_equals_dividing(pmin in 0u64..60, width in 0u64..150, nums in small_items()) {
            let mut f = PrimeFilter::new(pmin, pmin + width);
            let got = f.filter(Pack::from_slice(&nums)).to_vec();
            prop_assert_eq!(got, divided(f.primes(), &nums));
        }

        /// Ascending items spread over several windows, as a pipeline pack
        /// is but from any start: runs cut where the span reaches `2^16`.
        #[test]
        fn striking_equals_dividing_across_windows(
            start in 0u64..1_000_000_000_000,
            step in 1u64..120,
            len in 0usize..2_000,
            pmax in 2u64..400,
        ) {
            let nums: Vec<u64> = (0..len as u64).map(|i| start + i * step).collect();
            prop_assert!(agrees(&primes_upto(pmax), &nums));
        }

        /// Items near `u64::MAX`, where a next multiple overflows, with the
        /// small primes and the largest one.
        #[test]
        fn striking_equals_dividing_near_the_top(nums in top_items(), pmax in 2u64..300) {
            let mut primes = primes_upto(pmax);
            prop_assert!(agrees(&primes, &nums));
            primes.push(TOP_PRIME);
            prop_assert!(agrees(&primes, &nums));
        }

        /// `from_primes` over any set of primes, in any order, the filter a
        /// snapshot restores.
        #[test]
        fn striking_equals_dividing_for_any_prime_set(
            picks in proptest::collection::vec(0usize..303, 0..40),
            nums in small_items(),
        ) {
            let pool = primes_upto(2_000);
            let primes: Vec<u64> = picks.into_iter().map(|i| pool[i]).collect();
            prop_assert!(agrees(&primes, &nums));
        }

        /// The sequential sieve agrees with naive primality testing.
        #[test]
        fn sieve_equals_naive(max in 2u64..3000) {
            let sieved = sequential_sieve(max);
            let naive: Vec<u64> = (2..=max).filter(|n| is_prime_naive(*n)).collect();
            prop_assert_eq!(sieved, naive);
        }

        /// isqrt is exact.
        #[test]
        fn isqrt_exact(n in 0u64..u64::MAX / 2) {
            let r = isqrt(n);
            prop_assert!(r * r <= n);
            prop_assert!((r + 1).saturating_mul(r + 1) > n);
        }

        /// Filtering is idempotent and order-preserving.
        #[test]
        fn filter_idempotent(max in 10u64..500) {
            let mut f = PrimeFilter::new(2, isqrt(max));
            let once = f.filter(candidate_pack(max));
            let twice = f.filter(once.clone());
            prop_assert_eq!(once.clone(), twice);
            let mut sorted = once.to_vec();
            sorted.sort_unstable();
            prop_assert_eq!(once.to_vec(), sorted);
        }

        /// Splitting the divisor range across two filters composes to the
        /// same result as one filter over the whole range — the invariant
        /// that makes the pipeline partition correct.
        #[test]
        fn range_split_composes(max in 10u64..2000, cut_frac in 0.0f64..1.0) {
            let sqrt = isqrt(max);
            let cut = 2 + ((sqrt.saturating_sub(2)) as f64 * cut_frac) as u64;
            let mut whole = PrimeFilter::new(2, sqrt);
            let mut lo = PrimeFilter::new(2, cut);
            let mut hi = PrimeFilter::new(cut + 1, sqrt);
            let cands = candidate_pack(max);
            let expect = whole.filter(cands.clone());
            let composed = hi.filter(lo.filter(cands));
            prop_assert_eq!(expect, composed);
        }
    }
}
