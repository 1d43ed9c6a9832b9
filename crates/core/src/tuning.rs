//! Adaptive grain-size autotuning as a pluggable optimisation aspect.
//!
//! The paper's experiments (§6) fix each skeleton's granularity — packs per
//! farm call, batch sizes, packing thresholds — by hand, per machine. This
//! module closes that loop at run time: an application registers
//! **tunables** (live `AtomicU64` cells each tunable owns, handed to the
//! consumer through [`Tunable::cell`]), completed calls report
//! **observations** into two shared atomics (count and service time), and a
//! feedback **controller** adjusts one tunable at a time toward the
//! throughput gradient.
//!
//! The controller is a seeded coordinate-descent hill climber: every epoch
//! (a fixed number of observations) it scores the workload as completions
//! per unit of service time, compares against the previous epoch, and
//! either keeps a probe that beat it by a noise margin and climbs on, or
//! reverts the probe, flips direction and rotates to the next coordinate.
//! All decisions are a pure function of `(seed, observation sequence)` —
//! epochs are triggered by observation *count*, on the observing thread,
//! never by a clock or a thread of their own — so a trajectory replays
//! exactly under a fixed seed.
//!
//! In keeping with the paper's methodology the whole mechanism is exposed as
//! a plain aspect, [`autotune_aspect`], at `OPTIMISATION` precedence: plug
//! it to start adapting, unplug it to stop. **Unplug semantics** (documented
//! choice): tunables keep their last adapted values — the tuned
//! configuration is the artefact the controller produced — and
//! [`Autotuner::reset_all`] restores every registered cell to its default.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use weavepar_weave::aspect::precedence;
use weavepar_weave::prelude::*;

/// How a tunable moves between values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Additive steps: `v ± k` (k ≥ 1).
    Add(u32),
    /// Geometric steps: `v * k` / `v / k` (k ≥ 2) — the natural scale for
    /// pack counts and batch sizes, where interesting values span decades.
    Mul(u32),
}

impl Step {
    fn up(self, v: u32) -> u32 {
        match self {
            Step::Add(k) => v.saturating_add(k.max(1)),
            Step::Mul(k) => v.max(1).saturating_mul(k.max(2)),
        }
    }

    fn down(self, v: u32) -> u32 {
        match self {
            Step::Add(k) => v.saturating_sub(k.max(1)),
            Step::Mul(k) => v / k.max(2),
        }
    }
}

/// One adjustable parameter: a named, range-clamped `u32` value in an
/// `AtomicU64` cell that the tunable owns and the consumer reads through
/// [`Tunable::cell`] (the cell a metrics registry binds as a gauge).
#[derive(Clone)]
pub struct Tunable {
    name: &'static str,
    cell: Arc<AtomicU64>,
    default: u32,
    min: u32,
    max: u32,
    step: Step,
}

impl Tunable {
    /// A tunable owning a fresh cell initialised to `default` (clamped).
    pub fn new(name: &'static str, default: u32, min: u32, max: u32, step: Step) -> Self {
        let (min, max) = (min.min(max), max.max(min));
        let default = default.clamp(min, max);
        let cell = Arc::new(AtomicU64::new(u64::from(default)));
        Tunable { name, cell, default, min, max, step }
    }

    /// The tunable's name (diagnostics and trajectories).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The live cell, for handing to the consuming subsystem.
    pub fn cell(&self) -> Arc<AtomicU64> {
        self.cell.clone()
    }

    /// Current value.
    pub fn get(&self) -> u32 {
        self.cell.load(Ordering::Relaxed) as u32
    }

    /// Set (clamped to the tunable's range).
    pub fn set(&self, v: u32) {
        self.cell.store(u64::from(v.clamp(self.min, self.max)), Ordering::Relaxed);
    }

    /// Restore the default value.
    pub fn reset(&self) {
        self.cell.store(u64::from(self.default), Ordering::Relaxed);
    }

    fn moved(&self, v: u32, dir: i8) -> u32 {
        let next = if dir > 0 { self.step.up(v) } else { self.step.down(v) };
        next.clamp(self.min, self.max)
    }
}

impl std::fmt::Debug for Tunable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tunable({}={} in {}..={}, {:?})",
            self.name,
            self.get(),
            self.min,
            self.max,
            self.step
        )
    }
}

/// Controller configuration.
#[derive(Clone, Copy, Debug)]
pub struct TuneConfig {
    /// Observations per controller epoch (decision cadence).
    pub epoch_calls: u32,
    /// Seed for the initial probe directions; the whole trajectory is a pure
    /// function of `(seed, observations)`.
    pub seed: u64,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig { epoch_calls: 64, seed: 42 }
    }
}

/// Relative improvement a probe must show to be accepted: the guard against
/// chasing measurement noise.
const HYSTERESIS: f64 = 0.05;

/// Epochs spent at the incumbent configuration after a rejected probe before
/// probing again, so that steady state spends most epochs at the best-known
/// configuration.
const DWELL: u32 = 1;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The registered tunables and the hill climber's bookkeeping, all under one
/// mutex the observation hot path only ever `try_lock`s.
struct CtlState {
    tunables: Vec<Tunable>,
    dirs: Vec<i8>,
    coord: usize,
    baseline: Option<f64>,
    pre_move: Option<(usize, u32)>,
    idle_left: u32,
    rng: u64,
    trajectory: Vec<(&'static str, u32)>,
}

const TRAJECTORY_CAP: usize = 4096;

/// The feedback controller: registered tunables + the epoch's observation
/// accumulators + the seeded hill climber.
pub struct Autotuner {
    config: TuneConfig,
    /// Observations since the last decision; bumped by every `observe`.
    pending: AtomicU64,
    /// Their summed service time, nanoseconds.
    service_ns: AtomicU64,
    /// In their own `Arc`s so a metrics registry can bind them as live
    /// counters without the controller updating anything twice.
    epochs: Arc<AtomicU64>,
    accepted: Arc<AtomicU64>,
    state: Mutex<CtlState>,
}

impl Autotuner {
    /// A controller with no tunables yet (register them with
    /// [`Autotuner::register`]).
    pub fn new(config: TuneConfig) -> Arc<Self> {
        Arc::new(Autotuner {
            config,
            pending: AtomicU64::new(0),
            service_ns: AtomicU64::new(0),
            epochs: Arc::new(AtomicU64::new(0)),
            accepted: Arc::new(AtomicU64::new(0)),
            state: Mutex::new(CtlState {
                tunables: Vec::new(),
                dirs: Vec::new(),
                coord: 0,
                baseline: None,
                pre_move: None,
                idle_left: 0,
                rng: config.seed,
                trajectory: Vec::new(),
            }),
        })
    }

    /// Register a tunable; its initial probe direction comes from the seed.
    /// Returns the tunable back for convenient chaining.
    pub fn register(&self, tunable: Tunable) -> Tunable {
        let mut st = self.state.lock();
        let dir = if splitmix(&mut st.rng) & 1 == 0 { 1 } else { -1 };
        st.dirs.push(dir);
        st.tunables.push(tunable.clone());
        tunable
    }

    /// Report one completed call and its service time. Lock-free except at
    /// an epoch boundary, where one caller (never more) takes the controller
    /// mutex.
    pub fn observe(&self, service: Duration) {
        let ns = u64::try_from(service.as_nanos()).unwrap_or(u64::MAX);
        self.service_ns.fetch_add(ns, Ordering::Relaxed);
        if self.pending.fetch_add(1, Ordering::Relaxed) + 1 >= u64::from(self.config.epoch_calls) {
            self.maybe_tick();
        }
    }

    fn maybe_tick(&self) {
        // try_lock: if another thread is mid-decision, this boundary is its.
        if let Some(mut st) = self.state.try_lock() {
            if self.pending.load(Ordering::Relaxed) >= u64::from(self.config.epoch_calls) {
                let count = self.pending.swap(0, Ordering::Relaxed);
                self.tick_locked(&mut st, count);
            }
        }
    }

    /// Force an epoch decision now if any observations are pending — what
    /// tests call to drive the climber deterministically.
    pub fn force_tick(&self) {
        let mut st = self.state.lock();
        let count = self.pending.swap(0, Ordering::Relaxed);
        self.tick_locked(&mut st, count);
    }

    fn tick_locked(&self, st: &mut CtlState, count: u64) {
        if count == 0 {
            return;
        }
        let service_ns = self.service_ns.swap(0, Ordering::Relaxed);
        self.epochs.fetch_add(1, Ordering::Relaxed);
        if st.tunables.is_empty() {
            return;
        }
        // Completions per service-microsecond: invariant to epoch length,
        // monotone in throughput for a fixed offered load.
        let score = count as f64 * 1e3 / service_ns.max(1) as f64;
        match st.pre_move {
            None => {
                // Incumbent epoch: refresh the reference score. Blending
                // lets the reference drift with a shifting workload instead
                // of pinning to one lucky epoch.
                st.baseline = Some(match st.baseline {
                    None => score,
                    Some(base) => 0.5 * base + 0.5 * score,
                });
                if st.idle_left > 0 {
                    st.idle_left -= 1;
                    return;
                }
                Self::apply_move(st);
            }
            Some((c, prev)) => {
                let base = st.baseline.unwrap_or(score);
                if score > base * (1.0 + HYSTERESIS) {
                    // Probe won: keep the move and keep climbing the same
                    // coordinate in the same direction, immediately.
                    self.accepted.fetch_add(1, Ordering::Relaxed);
                    st.baseline = Some(score);
                    st.pre_move = None;
                    Self::apply_move(st);
                } else {
                    // Probe lost: revert it, flip the direction, rotate to
                    // the next coordinate, and dwell at the incumbent.
                    st.tunables[c].set(prev);
                    let name = st.tunables[c].name();
                    Self::record(st, name, prev);
                    st.dirs[c] = -st.dirs[c];
                    st.coord = (st.coord + 1) % st.tunables.len();
                    st.pre_move = None;
                    st.idle_left = DWELL;
                }
            }
        }
    }

    fn apply_move(st: &mut CtlState) {
        let c = st.coord;
        let t = &st.tunables[c];
        let cur = t.get();
        let mut next = t.moved(cur, st.dirs[c]);
        if next == cur {
            // Pinned at a bound: flip and try the other way once.
            st.dirs[c] = -st.dirs[c];
            next = t.moved(cur, st.dirs[c]);
        }
        if next == cur {
            // Frozen coordinate (min == max): skip it this epoch.
            st.coord = (st.coord + 1) % st.tunables.len();
            st.pre_move = None;
            return;
        }
        st.pre_move = Some((c, cur));
        t.set(next);
        let name = t.name();
        Self::record(st, name, next);
    }

    fn record(st: &mut CtlState, name: &'static str, value: u32) {
        if st.trajectory.len() < TRAJECTORY_CAP {
            st.trajectory.push((name, value));
        }
    }

    /// Every value the controller has applied, in order (capped; used by the
    /// determinism tests and diagnostics).
    pub fn trajectory(&self) -> Vec<(&'static str, u32)> {
        self.state.lock().trajectory.clone()
    }

    /// Decisions taken so far.
    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// Probe moves the controller has accepted (kept) so far.
    pub fn moves_accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Bind the controller's live state into `registry` under `prefix`:
    /// every registered tunable's cell as a `{prefix}.cell.<name>` gauge,
    /// plus `{prefix}.epochs` and `{prefix}.moves_accepted` counters. The
    /// registry reads the same atomics the controller drives, so installing
    /// metrics adds nothing to the observation hot path. Tunables registered
    /// *after* this call are not bound — install metrics last, or call again.
    pub fn install_metrics(&self, registry: &weavepar_weave::MetricsRegistry, prefix: &str) {
        registry.bind_counter(&format!("{prefix}.epochs"), self.epochs.clone());
        registry.bind_counter(&format!("{prefix}.moves_accepted"), self.accepted.clone());
        for t in &self.state.lock().tunables {
            registry.bind_gauge(&format!("{prefix}.cell.{}", t.name()), t.cell());
        }
    }

    /// Restore every registered tunable to its default value.
    pub fn reset_all(&self) {
        let mut st = self.state.lock();
        st.baseline = None;
        st.pre_move = None;
        st.idle_left = 0;
        for t in &st.tunables {
            t.reset();
        }
    }
}

impl std::fmt::Debug for Autotuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Autotuner(epochs={}, tunables={:?})",
            self.epochs(),
            self.state
                .lock()
                .tunables
                .iter()
                .map(|t| format!("{}={}", t.name(), t.get()))
                .collect::<Vec<_>>()
        )
    }
}

/// The self-tuning optimisation aspect: matched calls are timed around
/// `proceed` and reported to the controller. Plug it over the same pointcut
/// the skeleton splits (the farmed method, the executor-backed call) and the
/// controller adapts every registered tunable; unplug it and observation
/// stops, leaving the tunables at their last adapted values (call
/// [`Autotuner::reset_all`] to restore defaults).
pub fn autotune_aspect(
    name: impl Into<String>,
    pointcut: Pointcut,
    tuner: Arc<Autotuner>,
) -> Aspect {
    autotune_aspect_at(name, pointcut, tuner, precedence::OPTIMISATION)
}

/// [`autotune_aspect`] at an explicit precedence. The default OPTIMISATION
/// slot sits *inside* the partition layer; when the tunable being driven is
/// the partition grain itself, plug the observer *outside* it (a precedence
/// below [`precedence::PARTITION`]) so each observation covers the whole
/// split/dispatch/combine the grain controls.
pub fn autotune_aspect_at(
    name: impl Into<String>,
    pointcut: Pointcut,
    tuner: Arc<Autotuner>,
    precedence: i32,
) -> Aspect {
    Aspect::named(name)
        .precedence(precedence)
        .around(pointcut, move |inv: &mut Invocation| {
            let (result, elapsed) = inv.proceed_timed();
            if result.is_ok() {
                tuner.observe(elapsed);
            }
            result
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a tuner with a synthetic workload whose per-call service time
    /// is a function of the tunable's current value, one epoch per step.
    fn drive(
        tuner: &Arc<Autotuner>,
        tunable: &Tunable,
        epochs: usize,
        cost_ns: impl Fn(u32) -> u64,
    ) {
        for _ in 0..epochs {
            let v = tunable.get();
            for _ in 0..tuner.config.epoch_calls {
                tuner.observe(Duration::from_nanos(cost_ns(v)));
            }
            tuner.force_tick();
        }
    }

    /// U-shaped cost: too-fine grain pays per-pack overhead, too-coarse
    /// grain starves workers. Minimum near `v = 32`.
    fn u_cost(v: u32) -> u64 {
        1_000_000 / u64::from(v.max(1)) + 1_000 * u64::from(v)
    }

    fn packs_tunable() -> Tunable {
        Tunable::new("packs", 1, 1, 64, Step::Mul(2))
    }

    #[test]
    fn same_seed_same_trajectory() {
        let run = |seed: u64| {
            let tuner = Autotuner::new(TuneConfig { epoch_calls: 8, seed });
            let t = tuner.register(packs_tunable());
            let q = tuner.register(Tunable::new("grain", 4, 1, 256, Step::Mul(2)));
            drive(&tuner, &t, 24, |v| u_cost(v) + u64::from(q.get()) * 100);
            (tuner.trajectory(), t.get(), q.get())
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "identical seed + observations must replay identically");
        let c = run(8);
        // A different seed may legally coincide, but the controller must
        // still have *decided* something both times.
        assert!(!c.0.is_empty() && !a.0.is_empty());
    }

    #[test]
    fn stationary_workload_oscillates_within_one_step() {
        let tuner = Autotuner::new(TuneConfig { epoch_calls: 8, seed: 3 });
        let t = tuner.register(Tunable::new("packs", 16, 1, 256, Step::Mul(2)));
        // Constant score: no probe is ever accepted, so the climber must
        // keep reverting — the value may only ever be the default or one
        // probe step away from it.
        drive(&tuner, &t, 64, |_| 50_000);
        for (_, v) in tuner.trajectory() {
            assert!((8..=32).contains(&v), "oscillation exceeded ±1 step: {v}");
        }
        assert!((8..=32).contains(&t.get()));
    }

    #[test]
    fn climbs_a_u_shaped_cost_toward_the_optimum() {
        let seed = std::env::var("TUNE_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42u64);
        let tuner = Autotuner::new(TuneConfig { epoch_calls: 8, seed });
        let t = tuner.register(packs_tunable());
        drive(&tuner, &t, 40, u_cost);
        let v = t.get();
        // Optimum of u_cost is ~31.6; Mul(2) grid point 32, accept within
        // one step either side.
        assert!(
            (16..=64).contains(&v),
            "TUNE_SEED={seed}: expected convergence near 32, got {v} \
             (trajectory: {:?})",
            tuner.trajectory()
        );
        assert!(tuner.epochs() >= 40);
    }

    #[test]
    fn plug_unplug_mid_run_leaves_sane_values() {
        struct Crunch;
        weavepar_weave::weaveable! {
            class Crunch as CrunchProxy {
                fn new() -> Self { Crunch }
                fn go(&mut self, x: u64) -> u64 { x + 1 }
            }
        }

        let tuner = Autotuner::new(TuneConfig { epoch_calls: 4, ..Default::default() });
        let t = tuner.register(Tunable::new("packs", 8, 1, 64, Step::Mul(2)));

        let weaver = Weaver::new();
        let plugged =
            weaver.plug(autotune_aspect("Autotune", Pointcut::call("Crunch.go"), tuner.clone()));
        let c = CrunchProxy::construct(&weaver).unwrap();
        for i in 0..200 {
            assert_eq!(c.go(i).unwrap(), i + 1);
        }
        // Unplug mid-run: calls keep working and the tunable holds a sane
        // in-range value.
        assert!(weaver.unplug(&plugged));
        for i in 0..50 {
            assert_eq!(c.go(i).unwrap(), i + 1);
        }
        let v = t.get();
        assert!((1..=64).contains(&v), "tunable out of range after unplug: {v}");
        tuner.reset_all();
        assert_eq!(t.get(), 8, "reset after unplug restores the default");
    }

    #[test]
    fn installed_metrics_track_cells_and_decisions() {
        let registry = weavepar_weave::MetricsRegistry::new();
        let tuner = Autotuner::new(TuneConfig { epoch_calls: 8, seed: 42 });
        let t = tuner.register(packs_tunable());
        tuner.install_metrics(&registry, "tune");
        drive(&tuner, &t, 40, u_cost);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("tune.cell.packs"), Some(u64::from(t.get())));
        assert_eq!(snap.counter("tune.epochs"), Some(tuner.epochs()));
        assert_eq!(snap.counter("tune.moves_accepted"), Some(tuner.moves_accepted()));
        // Climbing a U-shaped cost from the far edge must accept something.
        assert!(tuner.moves_accepted() >= 1, "no probe accepted while climbing");
        assert!(tuner.moves_accepted() <= tuner.epochs());
    }

    #[test]
    fn step_math_clamps_at_bounds() {
        let t = Tunable::new("t", 4, 2, 16, Step::Mul(2));
        assert_eq!(t.moved(16, 1), 16, "up clamps at max");
        assert_eq!(t.moved(2, -1), 2, "down clamps at min");
        assert_eq!(t.moved(4, 1), 8);
        assert_eq!(t.moved(4, -1), 2);
        let a = Tunable::new("a", 5, 0, 10, Step::Add(3));
        assert_eq!(a.moved(9, 1), 10);
        assert_eq!(a.moved(1, -1), 0);
    }
}
