//! The paper's §5 case study: the prime-number sieve.
//!
//! * [`core`] — the sequential core functionality (`PrimeFilter`), exactly
//!   the two-method shape of §5.1;
//! * [`variants`] — assembly of every module combination in the paper's
//!   Table 1 by plugging partition / concurrency / distribution aspects;
//! * [`handcoded`] — the hand-written RMI pipeline used as the "Java"
//!   baseline in Figure 16 (no weaving anywhere).

pub mod core;
pub mod handcoded;
pub mod variants;

pub use self::core::{
    candidate_pack, candidates, isqrt, primes_upto, sequential_sieve, PrimeFilter, PrimeFilterProxy,
};
pub use handcoded::run_handcoded_rmi;
pub use variants::{build_sieve, run_sieve, Middleware, PartitionStrategy, SieveConfig, SieveRun};
