//! Call policies: deadlines, retries and backoff for remote invocations.
//!
//! The paper's fault handling stops at wrapping `RemoteException` in
//! try/catch (Figure 14). A real deployment needs the next layer: how long a
//! synchronous call may wait ([`CallPolicy::deadline`]), how often a
//! *transient* failure is retried ([`CallPolicy::retries`]), and how retries
//! space themselves out ([`Backoff`] — exponential with deterministic,
//! seeded jitter so chaos tests replay bit-for-bit).
//!
//! Policies only retry errors that [`WeaveError::is_retryable`] admits
//! (timeouts). A [`WeaveError::NodeDown`] is *not* retryable — the node
//! stays dead; recovery means a different placement, which is the
//! supervision aspect's job, not the call layer's.

use std::time::Duration;

use weavepar_weave::WeaveError;

/// Advance the middleware's one deterministic generator, a 64-bit LCG
/// (Knuth's MMIX constants), and return the next state: random placement,
/// retry jitter and fault injection all draw from it.
#[inline]
pub(crate) fn lcg_next(state: u64) -> u64 {
    state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// Exponential backoff with bounded, deterministically seeded jitter.
///
/// Attempt `n` (1-based over the retries) sleeps `base * 2^(n-1)` capped at
/// `max`, plus a jitter drawn in `[0, capped/2]` from the caller's RNG
/// state — retries of concurrent calls de-synchronise without any global
/// randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// First retry's base delay.
    pub base: Duration,
    /// Ceiling for the exponential curve (pre-jitter).
    pub max: Duration,
}

impl Backoff {
    /// No waiting between retries (tests, already-queued work).
    pub const fn none() -> Self {
        Backoff { base: Duration::ZERO, max: Duration::ZERO }
    }

    /// The delay before retry `attempt` (1-based), advancing `rng` for the
    /// jitter draw.
    pub fn delay(&self, attempt: u32, rng: &mut u64) -> Duration {
        *rng = lcg_next(*rng);
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let shift = attempt.saturating_sub(1).min(20);
        let capped = self
            .base
            .checked_mul(1u32 << shift)
            .map_or(self.max, |d| d.min(self.max))
            .max(self.base.min(self.max));
        let half = capped.as_nanos() as u64 / 2;
        let jitter = if half == 0 { 0 } else { (*rng >> 33) % (half + 1) };
        capped + Duration::from_nanos(jitter)
    }

    /// Upper bound on the total sleep across `retries` retries (full
    /// exponential ladder, maximal jitter). Chaos tests use this to assert
    /// that an unrecoverable call fails within `deadline * attempts +
    /// ladder`.
    pub fn ladder_bound(&self, retries: u32) -> Duration {
        let mut total = Duration::ZERO;
        for attempt in 1..=retries {
            let shift = attempt.saturating_sub(1).min(20);
            let capped = self.base.checked_mul(1u32 << shift).map_or(self.max, |d| d.min(self.max));
            total += capped + capped / 2;
        }
        total
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff { base: Duration::from_millis(5), max: Duration::from_millis(200) }
    }
}

/// Policy for one remote call: how long to wait, how often to retry, and
/// how to space the retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallPolicy {
    /// Per-attempt deadline for the synchronous reply wait. `None` waits
    /// forever (the pre-policy behaviour).
    pub deadline: Option<Duration>,
    /// How many times a retryable failure is retried (0 = single attempt).
    pub retries: u32,
    /// Delay ladder between attempts.
    pub backoff: Backoff,
    /// Seed mixed (with the call's dedup key) into the jitter RNG, so runs
    /// replay deterministically.
    pub seed: u64,
}

impl CallPolicy {
    /// Wait forever, never retry — the exact semantics of a policy-less
    /// call.
    pub const fn unbounded() -> Self {
        CallPolicy { deadline: None, retries: 0, backoff: Backoff::none(), seed: 0 }
    }

    /// A per-attempt deadline with no retries.
    pub fn with_deadline(deadline: Duration) -> Self {
        CallPolicy { deadline: Some(deadline), ..Self::unbounded() }
    }

    /// Builder-style: set the retry count.
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Builder-style: set the backoff ladder.
    pub fn backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Builder-style: set the jitter seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Should `err` be retried at all under this policy?
    pub fn should_retry(&self, err: &WeaveError, attempt: u32) -> bool {
        attempt < self.retries && err.is_retryable()
    }

    /// Upper bound on the wall time a call under this policy can take
    /// before failing: every attempt hitting its deadline plus the full
    /// backoff ladder.
    pub fn worst_case(&self) -> Option<Duration> {
        let deadline = self.deadline?;
        Some(deadline * (self.retries + 1) + self.backoff.ladder_bound(self.retries))
    }
}

impl Default for CallPolicy {
    fn default() -> Self {
        Self::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_capped_and_jittered() {
        let b = Backoff { base: Duration::from_millis(10), max: Duration::from_millis(40) };
        let mut rng = 42u64;
        let d1 = b.delay(1, &mut rng);
        let d2 = b.delay(2, &mut rng);
        let d5 = b.delay(5, &mut rng);
        // Each delay sits in [capped, capped * 1.5].
        assert!(d1 >= Duration::from_millis(10) && d1 <= Duration::from_millis(15), "{d1:?}");
        assert!(d2 >= Duration::from_millis(20) && d2 <= Duration::from_millis(30), "{d2:?}");
        assert!(d5 >= Duration::from_millis(40) && d5 <= Duration::from_millis(60), "{d5:?}");
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let b = Backoff::default();
        let (mut r1, mut r2) = (7u64, 7u64);
        for attempt in 1..5 {
            assert_eq!(b.delay(attempt, &mut r1), b.delay(attempt, &mut r2));
        }
        let mut r3 = 8u64;
        // A different seed gives a different (but still deterministic) ladder.
        let differs = (1..5).any(|a| {
            let mut r1 = 7u64;
            for _ in 1..a {
                r1 = lcg_next(r1);
            }
            b.delay(a, &mut { r1 }) != b.delay(a, &mut r3)
        });
        assert!(differs);
    }

    #[test]
    fn ladder_bound_covers_all_delays() {
        let b = Backoff { base: Duration::from_millis(10), max: Duration::from_millis(40) };
        let bound = b.ladder_bound(4);
        let mut total = Duration::ZERO;
        let mut rng = 1234u64;
        for attempt in 1..=4 {
            total += b.delay(attempt, &mut rng);
        }
        assert!(total <= bound, "{total:?} > {bound:?}");
    }

    #[test]
    fn retry_gate_respects_kind_and_budget() {
        let p = CallPolicy::with_deadline(Duration::from_millis(50)).retries(2);
        let timeout = WeaveError::Timeout { waited_ms: 50 };
        let down = WeaveError::NodeDown { node: 1 };
        assert!(p.should_retry(&timeout, 0));
        assert!(p.should_retry(&timeout, 1));
        assert!(!p.should_retry(&timeout, 2), "budget exhausted");
        assert!(!p.should_retry(&down, 0), "node loss is not transient");
    }

    #[test]
    fn worst_case_is_deadline_times_attempts_plus_ladder() {
        let p = CallPolicy::with_deadline(Duration::from_millis(50))
            .retries(2)
            .backoff(Backoff { base: Duration::from_millis(10), max: Duration::from_millis(40) });
        let wc = p.worst_case().unwrap();
        assert_eq!(wc, Duration::from_millis(150) + p.backoff.ladder_bound(2));
        assert!(CallPolicy::unbounded().worst_case().is_none());
    }
}
