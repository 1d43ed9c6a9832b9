//! The measurement loops: set-up and warm-up, interleaved woven and reference
//! repetitions with every output validated outside the timed region, and the
//! separate traced run.

use std::time::{Duration, Instant};

use crate::rng::Rng;
use crate::spans::{self, Clock, Layer};
use crate::timing::{calibrated, Calibrated};

/// One workload's program, as the loops drive it. Outputs are returned so
/// that validation happens after the clock has stopped.
pub trait Program {
    type Out;
    /// One woven run, through the application's own entry point.
    fn woven(&mut self) -> Result<Self::Out, String>;
    /// The workload's reference run.
    fn reference(&mut self) -> Result<Self::Out, String>;
    /// Plug the boundary aspects on the stack this program keeps between
    /// runs; called once, before the first traced run. Programs that
    /// assemble a stack per run plug them there instead.
    fn start_tracing(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// One woven run with boundary spans recorded.
    fn traced(&mut self) -> Result<Self::Out, String>;
    fn valid(&mut self, out: &Self::Out) -> bool;
    /// Counters the program's own registry holds, cumulative.
    fn counts(&self) -> Counts {
        Counts::default()
    }
    /// Threads that run the workload: one client, plus pool workers if any.
    fn threads(&self) -> usize {
        1
    }
    /// The clock the traced run's spans read: `ThreadCpu` where threads wait
    /// for one another, `Wall` where there are too many spans to afford it.
    const CLOCK: Clock = Clock::Wall;
    /// The layer of the innermost spans (base dispatch and method body): the
    /// application's, or the weaver's where the body is empty.
    const BODY: Layer = Layer::Apps;
}

/// Input sizes.
#[derive(Clone, Debug)]
pub struct Sizes {
    pub sieve_max: u64,
    pub sort_n: usize,
    pub heat_iterations: u64,
    pub mandel_height: u64,
    pub remote_calls: usize,
    pub weave_calls: usize,
    /// `min(nproc, 4)`: pool workers of `mandel_pool_fine`.
    pub workers: usize,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            sieve_max: 2_000_000,
            sort_n: 200_000,
            heat_iterations: 50_000,
            mandel_height: 4096,
            remote_calls: 25_000,
            weave_calls: 150_000,
            workers: nproc().min(4),
        }
    }

    /// For the smoke test only.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Sizes {
            sieve_max: 20_000,
            sort_n: 5_000,
            heat_iterations: 200,
            mandel_height: 64,
            remote_calls: 200,
            weave_calls: 2_000,
            workers: nproc().min(4),
        }
    }
}

/// Per-layer metrics that are counts read from the program's own metrics
/// registry, in the order of [`Counts`]' slots.
pub const COUNT_METRICS: [&str; 9] = [
    "skeletons.packs_issued",
    "skeletons.redispatched",
    "skeletons.divides",
    "concurrency.steals",
    "concurrency.parks",
    "concurrency.wakeups",
    "middleware.calls",
    "middleware.retries",
    "middleware.timeouts",
];

/// Values of [`COUNT_METRICS`], cumulative since the program was set up.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts(pub [u64; 9]);

impl Counts {
    fn since(&self, before: &Counts) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i].saturating_sub(before.0[i])))
    }
}

/// How long and how often to measure.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    /// Fixed number of timed repetitions instead of a time budget.
    pub reps: Option<usize>,
    pub warmups: usize,
    pub sizes: Sizes,
    pub keep_raw_spans: bool,
}

/// The untraced run's samples.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub woven_ms: Vec<Calibrated>,
    pub reference_ms: Vec<f64>,
    pub setup_ms: Vec<Calibrated>,
    pub attempted: u64,
    pub failed: u64,
    pub threads: usize,
}

/// The traced run's samples and span totals.
#[derive(Debug, Default)]
pub struct Traced {
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub totals: spans::Totals,
    pub clock: Clock,
    pub body: Layer,
    pub counts: Counts,
    pub attempted: u64,
    pub failed: u64,
    pub threads: usize,
}

impl Traced {
    /// Count one run; keep its time if it succeeded.
    fn tally(&mut self, ms: Option<f64>, into: &mut Vec<f64>) {
        self.attempted += 1;
        match ms {
            Some(ms) => into.push(ms),
            None => self.failed += 1,
        }
    }
}

/// `f`'s result and how many milliseconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Validate a timed run's output; `None` when the run failed or its output
/// was wrong.
fn validated<P: Program, T>(p: &mut P, (out, time): (Result<P::Out, String>, T)) -> Option<T> {
    match out {
        Ok(out) if p.valid(&out) => Some(time),
        Ok(_) => None,
        Err(e) => {
            eprintln!("run failed: {e}");
            None
        }
    }
}

/// Run and validate; the run's milliseconds.
fn checked<P: Program>(
    p: &mut P,
    run: impl FnOnce(&mut P) -> Result<P::Out, String>,
) -> Option<f64> {
    let run = timed(|| run(p));
    validated(p, run)
}

/// Repetitions until `plan.reps`, or until `budget` has passed.
fn repeat(plan: &Plan, budget: f64, mut rep: impl FnMut(usize)) {
    let deadline = Instant::now() + Duration::from_secs_f64(budget);
    let mut i = 0;
    while plan.reps.map_or_else(|| Instant::now() < deadline || i == 0, |n| i < n) {
        rep(i);
        i += 1;
    }
}

type Setup<P> = fn(&mut Rng, &Sizes) -> Result<P, String>;

/// Warm the program up: caches fill and lazy set-up finishes before timing.
fn warm_up<P: Program>(p: &mut P, plan: &Plan) -> Result<(), String> {
    for _ in 0..plan.warmups {
        checked(p, P::woven).ok_or("a warm-up woven run failed validation")?;
        checked(p, P::reference).ok_or("a warm-up reference run failed validation")?;
    }
    Ok(())
}

/// Set-ups timed for `setup_s`: as many as fit in a tenth of the run's
/// seconds, within these limits. Some take 0.2 ms and some 100 ms.
const SETUPS: std::ops::RangeInclusive<usize> = 11..=201;

/// The untraced run. Set up several times, each timed: inputs from the seed,
/// the expected output, the stack, fabric and executor. The last one is kept
/// and warmed up; then woven and reference repetitions interleaved, order
/// drawn from the seed, the woven one between two calibration loops.
pub fn end_to_end<P: Program>(setup: Setup<P>, plan: &Plan) -> Result<EndToEnd, String> {
    let mut result = EndToEnd::default();
    let deadline = Instant::now() + Duration::from_secs_f64(plan.seconds / 10.0);
    let (mut p, mut rng) = loop {
        let mut rng = Rng::new(plan.seed);
        let (made, time) = calibrated(|| setup(&mut rng, &plan.sizes));
        result.setup_ms.push(time);
        let made = made?;
        let n = result.setup_ms.len();
        if n >= *SETUPS.end() || (n >= *SETUPS.start() && Instant::now() >= deadline) {
            break (made, rng);
        }
    };
    warm_up(&mut p, plan)?;
    result.threads = p.threads();
    repeat(plan, plan.seconds, |_| {
        let woven_first = rng.coin();
        let mut reference = None;
        if !woven_first {
            reference = checked(&mut p, P::reference);
        }
        let run = calibrated(|| p.woven());
        let woven = validated(&mut p, run);
        if woven_first {
            reference = checked(&mut p, P::reference);
        }
        result.attempted += 1;
        match (woven, reference) {
            (Some(w), Some(r)) => {
                result.woven_ms.push(w);
                result.reference_ms.push(r);
            }
            _ => result.failed += 1,
        }
    });
    Ok(result)
}

/// The traced run: untraced woven repetitions for a third of the budget, then
/// traced ones for as long, so that their ratio is the tracing overhead.
pub fn traced<P: Program>(setup: Setup<P>, plan: &Plan) -> Result<Traced, String> {
    let mut p = setup(&mut Rng::new(plan.seed), &plan.sizes)?;
    warm_up(&mut p, plan)?;
    let mut result =
        Traced { threads: p.threads(), clock: P::CLOCK, body: P::BODY, ..Traced::default() };
    let mut untraced_ms = Vec::new();
    repeat(plan, plan.seconds / 3.0, |_| result.tally(checked(&mut p, P::woven), &mut untraced_ms));
    // Plug the boundaries and let the caches refill before counting.
    p.start_tracing()?;
    spans::enable(P::CLOCK, false);
    checked(&mut p, P::traced).ok_or("the traced warm-up run failed validation")?;
    spans::disable();
    spans::take_totals();
    let before = p.counts();
    spans::enable(P::CLOCK, plan.keep_raw_spans);
    let mut traced_ms = Vec::new();
    repeat(plan, plan.seconds / 3.0, |i| {
        spans::set_rep(i as u32);
        result.tally(checked(&mut p, P::traced), &mut traced_ms);
    });
    spans::disable();
    (result.untraced_ms, result.traced_ms) = (untraced_ms, traced_ms);
    result.totals = spans::take_totals();
    result.counts = p.counts().since(&before);
    Ok(result)
}
