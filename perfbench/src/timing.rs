//! Host-speed calibration for the end-to-end times, and timed micro-loops for
//! the per-layer probes.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats;

/// What one calibration loop takes on this benchmark's first host in a calm
/// phase. Times are reported as if every host ran the loop in this long.
pub const NOMINAL_CALIBRATION_MS: f64 = 0.7;

/// A fixed amount of work that is none of the repository's code: a xorshift
/// stream scattered into a table the size of the L1 data cache, with a branch
/// on the data. Its time follows the host's speed, which on a shared machine
/// moves by tens of percent over seconds to minutes.
pub fn calibration_ms() -> f64 {
    const SLOTS: usize = 4096;
    const ROUNDS: u32 = 1 << 18;
    let start = Instant::now();
    let mut table = [0u64; SLOTS];
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    let mut odd = 0u32;
    for _ in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x >> 52) as usize];
        *slot = slot.wrapping_add(x);
        if *slot & 0x400 != 0 {
            odd += 1;
            *slot ^= x >> 3;
        }
    }
    black_box((&table, odd));
    start.elapsed().as_secs_f64() * 1e3
}

/// A wall-clock time and the host's speed while it was taken.
#[derive(Clone, Copy, Debug)]
pub struct Calibrated {
    /// As measured.
    pub raw_ms: f64,
    /// Nominal over measured time of the calibration loops run just before
    /// and just after: above 1 on a faster host, below 1 on a slower one.
    pub speed: f64,
}

impl Calibrated {
    /// The time at nominal host speed.
    pub fn ms(&self) -> f64 {
        self.raw_ms * self.speed
    }
}

/// `f`'s result and its time, between two calibration loops.
pub fn calibrated<T>(f: impl FnOnce() -> T) -> (T, Calibrated) {
    let before = calibration_ms();
    let start = Instant::now();
    let out = f();
    let raw_ms = start.elapsed().as_secs_f64() * 1e3;
    let after = calibration_ms();
    (out, Calibrated { raw_ms, speed: NOMINAL_CALIBRATION_MS / ((before + after) / 2.0) })
}

/// How long each probe may run.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub per_probe: Duration,
}

/// A probe's result: the median over its batches, and how many there were.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub value: f64,
    pub samples: usize,
}

impl Budget {
    /// Median nanoseconds per operation. `batch(n)` performs `n` operations;
    /// it is run once unmeasured, then until the budget is spent (three
    /// batches at least, unless one alone overruns the budget).
    pub fn ns_per_op(&self, n: usize, mut batch: impl FnMut(usize)) -> Sample {
        batch(n.div_ceil(10));
        let deadline = Instant::now() + self.per_probe;
        let mut per_op = Vec::new();
        while per_op.len() < 1000 {
            let start = Instant::now();
            batch(n);
            per_op.push(start.elapsed().as_nanos() as f64 / n.max(1) as f64);
            let now = Instant::now();
            if now >= deadline && (per_op.len() >= 3 || now >= deadline + self.per_probe) {
                break;
            }
        }
        Sample { value: stats::median(&per_op), samples: per_op.len() }
    }
}

impl Sample {
    pub fn scaled(self, by: f64) -> Sample {
        Sample { value: self.value * by, ..self }
    }

    /// A count or a computed figure: one sample.
    pub fn exact(value: f64) -> Sample {
        Sample { value, samples: 1 }
    }
}
