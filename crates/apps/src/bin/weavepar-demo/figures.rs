//! `weavepar-demo figures` — the paper's §6 evaluation.
//!
//! * **Figure 16** — hand-coded "Java" RMI pipeline vs the woven "AspectJ"
//!   version, execution time over 1..16 filters;
//! * **Figure 17** — PipeRMI / FarmThreads / FarmRMI / FarmDRMI / FarmMPP
//!   over 1..16 filters;
//! * **Table 1** — the module combinations, re-validated for correctness;
//! * beyond the paper: a farm's degradation when worker nodes die mid-run.
//!
//! ## Method
//!
//! The paper ran on 7 dual-Xeon nodes we do not have. A run therefore:
//!
//! 1. **runs the real woven application in-process** with a trace recorder,
//!    capturing the genuine task DAG (pack counts, forwarding chains,
//!    asynchrony, message sizes, measured CPU costs);
//! 2. **measures** the weaving dispatch overhead (woven vs direct calls on
//!    this machine) — the quantity Figure 16 isolates;
//! 3. **replays** the trace on `weavepar::cluster`'s model of the paper's
//!    testbed, with CPU speed calibrated so the one-filter sequential run
//!    matches the paper's ≈6.3 s.
//!
//! Absolute seconds are therefore calibrated, but every *shape* — who wins,
//! scaling limits, middleware orderings — emerges from the replayed
//! structure of real executions. The shape-check lines are printed, never
//! asserted: they compare measured costs. Wall-clock on this host is
//! `perfbench/`'s job, not this module's.

use std::fmt::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use weavepar::cluster::{
    simulate, simulate_with_faults, FaultTimeline, MiddlewareProfile, SimParams,
};
use weavepar::prelude::*;
use weavepar::weave::trace::{CostModel, Recorder, TraceGraph};
use weavepar_apps::sieve::{
    build_sieve, candidate_pack, isqrt, run_sieve, sequential_sieve, Middleware, PrimeFilter,
    PrimeFilterProxy, SieveConfig,
};

/// The paper's sequential execution time at one filter (read off Figure 16),
/// used to calibrate simulated CPU speed.
const PAPER_SEQUENTIAL_SECONDS: f64 = 6.3;

/// The figures' x-axis.
const FILTER_COUNTS: [usize; 6] = [1, 4, 7, 10, 13, 16];

/// One point of a figure: a variant at a filter count.
#[derive(Debug, Clone)]
struct FigurePoint {
    /// Series label (e.g. `FarmRMI`).
    series: &'static str,
    /// Number of filters.
    filters: usize,
    /// Simulated execution time on the paper cluster, seconds.
    seconds: f64,
}

/// Measure the wall-clock of one closure.
fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// What a replay takes from this machine, measured once per run.
struct Calibration {
    /// Maps this machine's measured costs onto the paper's Xeon.
    cpu_speed: f64,
    /// Woven ÷ direct time of a pack-sized `filter` call.
    inflation: f64,
    /// Contention-free filtering work for the whole workload: what a
    /// captured trace's `filter` costs are normalised to.
    filter_work: Duration,
}

/// CPU-speed factor that maps this machine's measured costs onto the paper's
/// Xeon: `local seconds / paper seconds`.
fn calibrate_cpu_speed(local_work: Duration) -> f64 {
    (local_work.as_secs_f64() / PAPER_SEQUENTIAL_SECONDS).max(1e-9)
}

/// Run a sieve configuration in-process (threads only — distribution costs
/// are applied during replay) under `recorder` and return its trace.
fn capture(config: SieveConfig, max: u64, recorder: Recorder) -> WeaveResult<TraceGraph> {
    let run = build_sieve(SieveConfig { middleware: Middleware::None, ..config });
    run.stack.weaver().set_recorder(Some(recorder.clone()));
    let primes = run_sieve(&run, max);
    run.stack.weaver().set_recorder(None);
    let primes = primes?;
    debug_assert_eq!(primes.len(), sequential_sieve(max).len());
    Ok(recorder.finish())
}

/// Capture a trace with measured costs, its `filter` costs normalised.
///
/// Per-task costs are wall-clock measurements taken while the packs queue
/// for the process-wide pool's workers and share their cores, which
/// inflates them nonuniformly. The filter tasks are therefore rescaled so
/// their total equals `filter_work`, a contention-free sequential measurement
/// of the same workload; the *relative* per-task pattern (heavy early
/// pipeline stages, uniform farm packs) is preserved from the measurement.
fn capture_measured(
    config: SieveConfig,
    max: u64,
    filter_work: Duration,
) -> WeaveResult<TraceGraph> {
    let mut trace = capture(config, max, Recorder::measuring())?;
    normalise_filter_costs(&mut trace, filter_work);
    Ok(trace)
}

/// Rescale `trace`'s `filter` tasks so that their costs sum to `filter_work`.
fn normalise_filter_costs(trace: &mut TraceGraph, filter_work: Duration) {
    let mut filters: Vec<_> =
        trace.tasks.iter_mut().filter(|t| t.signature.method == "filter").collect();
    let measured: f64 = filters.iter().map(|t| t.cost.as_secs_f64()).sum();
    if measured > 0.0 {
        let scale = filter_work.as_secs_f64() / measured;
        for task in &mut filters {
            task.cost = task.cost.mul_f64(scale);
        }
    }
}

/// Contention-free measurement of the pure filtering work for `max`: the
/// median of `runs` warm timings of one filter over every candidate.
fn measure_filter_work(max: u64, runs: usize) -> Duration {
    let mut filter = PrimeFilter::new(2, isqrt(max));
    // Pack clones share one allocation, so cloning per run is free.
    let cands = candidate_pack(max);
    filter.filter(cands.clone());
    let mut times: Vec<Duration> =
        (0..runs.max(1)).map(|_| time(|| filter.filter(cands.clone())).1).collect();
    times.sort();
    times[times.len() / 2]
}

/// Capture a trace with fully *modelled* (deterministic) costs: `filter`
/// costs 1 µs per candidate, constructions cost 1 ms. Structure comes from
/// the real woven execution; costs are load-independent — what the
/// degradation table and the regression tests compare shapes with.
fn capture_modelled(config: SieveConfig, max: u64) -> WeaveResult<TraceGraph> {
    let model: CostModel = Arc::new(|sig: &Signature, args: &Args| {
        if sig.is_construction() {
            return Some(Duration::from_millis(1));
        }
        if sig.method == "filter" {
            let n = args.get::<Pack>(0).map(|p| p.len()).unwrap_or(0);
            return Some(Duration::from_micros(n as u64));
        }
        None
    });
    capture(config, max, Recorder::with_cost_model(model))
}

/// Measure the weaving dispatch inflation: the ratio of woven to direct
/// execution time for realistic `filter` packs (Figure 16's "AspectJ minus
/// Java"). Median of `runs` measurements.
fn measure_weaving_inflation(max: u64, runs: usize) -> WeaveResult<f64> {
    let sqrt = isqrt(max);
    // The first 100 000 candidates, the odd numbers up to 200 001. Pack
    // clones share one allocation, so cloning per run is free.
    let pack = candidate_pack(max.min(200_001));
    let mut ratios = Vec::with_capacity(runs);
    for _ in 0..runs.max(1) {
        let mut direct = PrimeFilter::new(2, sqrt);
        let (direct_out, direct_time) = time(|| direct.filter(pack.clone()));

        // Woven call through a weaver with a pass-through aspect stack the
        // size of the paper's (partition+concurrency+distribution = 3).
        let weaver = Weaver::new();
        for name in ["A", "B", "C"] {
            weaver.plug(
                Aspect::named(name)
                    .around(Pointcut::call("PrimeFilter.filter"), |inv: &mut Invocation| {
                        inv.proceed()
                    })
                    .build(),
            );
        }
        let proxy = PrimeFilterProxy::construct(&weaver, 2, sqrt)?;
        let (woven_out, woven_time) = time(|| proxy.filter(pack.clone()));
        assert_eq!(direct_out, woven_out?, "pass-through advice changed the result");
        ratios.push(woven_time.as_secs_f64() / direct_time.as_secs_f64().max(1e-12));
    }
    ratios.sort_by(f64::total_cmp);
    Ok(ratios[ratios.len() / 2])
}

/// Replay a captured trace under a variant's parameters; simulated seconds.
fn replay(trace: &TraceGraph, label: &str, cpu_speed: f64, cpu_inflation: f64) -> f64 {
    simulate(trace, &params_for(label, cpu_speed, cpu_inflation)).makespan
}

/// Simulation parameters for a variant label.
fn params_for(label: &str, cpu_speed: f64, cpu_inflation: f64) -> SimParams {
    let mut params = match label {
        "FarmThreads" => SimParams::threads_on_single_node(),
        "FarmMPP" => SimParams::paper_cluster(MiddlewareProfile::mpp()),
        _ => SimParams::paper_cluster(MiddlewareProfile::rmi()),
    };
    params.cluster.cpu_speed = cpu_speed;
    params.cpu_inflation = cpu_inflation;
    params
}

/// Figure 16: hand-coded RMI pipeline ("Java") vs the woven one ("AspectJ").
/// Both replay the same pipeline traces; the AspectJ series carries the
/// measured dispatch inflation, the Java series runs at 1.0.
fn figure16(max: u64, packs: usize, host: &Calibration) -> WeaveResult<Vec<FigurePoint>> {
    let mut points = Vec::new();
    for filters in FILTER_COUNTS {
        let config = SieveConfig { packs, ..SieveConfig::pipe_rmi(filters) };
        let trace = capture_measured(config, max, host.filter_work)?;
        for (series, inflation) in [("Java", 1.0), ("AspectJ", host.inflation)] {
            let seconds = replay(&trace, "PipeRMI", host.cpu_speed, inflation);
            points.push(FigurePoint { series, filters, seconds });
        }
    }
    Ok(points)
}

/// Figure 17: the five module combinations over the filter counts.
///
/// The middleware-less captures of `FarmThreads`, `FarmRMI` and `FarmMPP`
/// are structurally identical (same partition + concurrency modules), so one
/// farm trace per filter count serves all three series — replayed under
/// single-node/local, cluster/RMI and cluster/MPP parameters respectively.
/// This makes the within-figure middleware comparison exact rather than
/// subject to capture-to-capture measurement noise.
fn figure17(max: u64, packs: usize, host: &Calibration) -> WeaveResult<Vec<FigurePoint>> {
    type Variant = (fn(usize) -> SieveConfig, &'static [&'static str]);
    let variants: [Variant; 3] = [
        (SieveConfig::farm_rmi, &["FarmThreads", "FarmRMI", "FarmMPP"]),
        (SieveConfig::pipe_rmi, &["PipeRMI"]),
        (SieveConfig::farm_drmi, &["FarmDRMI"]),
    ];
    let mut points = Vec::new();
    for filters in FILTER_COUNTS {
        for (make, series) in variants {
            let config = SieveConfig { packs, ..make(filters) };
            let trace = capture_measured(config, max, host.filter_work)?;
            for &series in series {
                let seconds = replay(&trace, series, host.cpu_speed, host.inflation);
                points.push(FigurePoint { series, filters, seconds });
            }
        }
    }
    Ok(points)
}

/// One row of the fault-degradation table: the same farm replay with
/// `killed` worker nodes crashing mid-run.
#[derive(Debug, Clone)]
struct DegradationRow {
    /// Worker nodes killed mid-run.
    killed: usize,
    /// Simulated end-to-end seconds.
    makespan: f64,
    /// Throughput relative to the undisturbed run (`baseline / makespan`).
    relative_throughput: f64,
    /// Tasks re-dispatched to surviving nodes.
    redispatched: usize,
    /// Cross-node messages (re-dispatches pay a fresh argument shipment).
    messages: usize,
}

/// The farm-under-failure degradation table: replay one captured FarmRMI
/// trace on the paper cluster, killing `0..=kills` worker nodes 30% into
/// the faithful makespan (detection + recovery cost 50 ms per re-dispatch).
/// Modelled costs keep the table deterministic: the only thing that varies
/// across rows is the fault timeline.
fn degradation(
    max: u64,
    packs: usize,
    filters: usize,
    kills: usize,
) -> WeaveResult<Vec<DegradationRow>> {
    let trace = capture_modelled(SieveConfig { packs, ..SieveConfig::farm_rmi(filters) }, max)?;
    let params = params_for("FarmRMI", 1.0, 1.0);
    let baseline = simulate(&trace, &params);
    let kill_at = baseline.makespan * 0.3;
    let mut rows = Vec::new();
    for killed in 0..=kills {
        let mut timeline = FaultTimeline::new().overhead(0.05);
        for node in 1..=killed {
            timeline = timeline.kill(node, kill_at);
        }
        let report = simulate_with_faults(&trace, &params, &timeline)?;
        rows.push(DegradationRow {
            killed,
            makespan: report.makespan,
            relative_throughput: baseline.makespan / report.makespan.max(1e-12),
            redispatched: report.redispatched,
            messages: report.messages,
        });
    }
    Ok(rows)
}

/// One row of the regenerated Table 1.
#[derive(Debug, Clone)]
struct Table1Row {
    /// Combination label.
    label: String,
    /// Partition column.
    partition: &'static str,
    /// Concurrency column.
    concurrency: &'static str,
    /// Distribution column.
    distribution: &'static str,
    /// Output equals the sequential sieve?
    correct: bool,
    /// Real in-process wall time at the validation size.
    wall: Duration,
}

/// Regenerate Table 1: assemble each combination for real (including the
/// in-process distribution fabric), check correctness, record wall time.
fn table1(max: u64) -> WeaveResult<Vec<Table1Row>> {
    /// One combination: config builder plus display columns.
    type Combo = (fn(usize) -> SieveConfig, &'static str, &'static str, &'static str);
    let combos: [Combo; 5] = [
        (SieveConfig::farm_threads, "Farm", "Yes", "No"),
        (SieveConfig::pipe_rmi, "Pipeline", "Yes", "RMI"),
        (SieveConfig::farm_rmi, "Farm", "Yes", "RMI"),
        (SieveConfig::farm_drmi, "Dynamic Farm", "Yes", "RMI"),
        (SieveConfig::farm_mpp, "Farm", "Yes", "MPP"),
    ];
    let reference = sequential_sieve(max);
    let mut rows = Vec::new();
    for (make, partition, concurrency, distribution) in combos {
        let config = make(4);
        let run = build_sieve(config);
        let (got, wall) = time(|| run_sieve(&run, max));
        rows.push(Table1Row {
            label: config.label(),
            partition,
            concurrency,
            distribution,
            correct: got? == reference,
            wall,
        });
    }
    Ok(rows)
}

/// The distinct series of `points`, in order of first appearance.
fn series_of(points: &[FigurePoint]) -> Vec<&'static str> {
    let mut series = Vec::new();
    for p in points {
        if !series.contains(&p.series) {
            series.push(p.series);
        }
    }
    series
}

/// A series' simulated seconds at a filter count.
fn at(points: &[FigurePoint], series: &str, filters: usize) -> Option<f64> {
    points.iter().find(|p| p.series == series && p.filters == filters).map(|p| p.seconds)
}

/// Render figure points as aligned text columns (series × filters matrix).
fn render_points(title: &str, points: &[FigurePoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<13}", "filters");
    for f in FILTER_COUNTS {
        let _ = write!(out, "{f:>9}");
    }
    let _ = writeln!(out);
    for s in series_of(points) {
        let _ = write!(out, "{s:<13}");
        for f in FILTER_COUNTS {
            let _ = match at(points, s, f) {
                Some(seconds) => write!(out, "{seconds:>8.2}s"),
                None => write!(out, "{:>9}", "-"),
            };
        }
        let _ = writeln!(out);
    }
    out
}

/// Render figure points as an ASCII line chart (series × filters), the
/// visual counterpart of the paper's plots: y = seconds, x = filter count,
/// one marker per series.
fn render_ascii_chart(title: &str, points: &[FigurePoint], height: usize) -> String {
    const MARKS: [char; 6] = ['o', 'x', '+', '*', '#', '@'];
    const COL_WIDTH: usize = 9;
    let series = series_of(points);
    let max_y = points.iter().map(|p| p.seconds).fold(0.0f64, f64::max);
    if max_y <= 0.0 || series.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let height = height.max(4);
    let mut grid = vec![vec![' '; FILTER_COUNTS.len() * COL_WIDTH]; height];
    for (si, s) in series.iter().enumerate() {
        for (ci, f) in FILTER_COUNTS.iter().enumerate() {
            if let Some(seconds) = at(points, s, *f) {
                let row = ((1.0 - seconds / max_y) * (height - 1) as f64).round() as usize;
                let col = ci * COL_WIDTH + COL_WIDTH / 2;
                grid[row.min(height - 1)][col + si.min(COL_WIDTH - 2)] = MARKS[si % MARKS.len()];
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    for (i, row) in grid.iter().enumerate() {
        let y = max_y * (1.0 - i as f64 / (height - 1) as f64);
        let line: String = row.iter().collect();
        let _ = writeln!(out, "{y:>6.2}s |{}", line.trim_end());
    }
    let _ = writeln!(out, "        +{}", "-".repeat(FILTER_COUNTS.len() * COL_WIDTH));
    let _ = write!(out, "         ");
    for f in FILTER_COUNTS {
        let _ = write!(out, "{f:^COL_WIDTH$}");
    }
    let _ = writeln!(out);
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "         {} = {s}", MARKS[si % MARKS.len()]);
    }
    out
}

/// The paper's findings, each checked against the regenerated figures.
fn shape_checks(fig16: &[FigurePoint], fig17: &[FigurePoint]) -> Vec<String> {
    let secs = |points, series, filters| at(points, series, filters).unwrap_or(f64::NAN);
    let verdict = |holds: bool| if holds { "— holds" } else { "— VIOLATED" };
    let mut notes = Vec::new();

    // Figure 16: AspectJ within 5% of Java everywhere.
    let worst = FILTER_COUNTS
        .iter()
        .map(|&f| secs(fig16, "AspectJ", f) / secs(fig16, "Java", f))
        .fold(0.0f64, f64::max);
    notes.push(format!(
        "fig16: max AspectJ/Java ratio = {worst:.3} (paper: < 1.05) {}",
        verdict(worst < 1.05)
    ));

    // Figure 17: farm beats pipeline at every filter count. Each point
    // comes from an independently captured (measured) trace, so allow 5%
    // measurement noise on the comparisons.
    let farm_wins = FILTER_COUNTS
        .iter()
        .all(|&f| secs(fig17, "FarmRMI", f) <= secs(fig17, "PipeRMI", f) * 1.05);
    notes.push(format!("fig17: FarmRMI <= PipeRMI at every point (±5%) {}", verdict(farm_wins)));

    // Figure 17: MPP at or below RMI.
    let mpp_wins = FILTER_COUNTS
        .iter()
        .all(|&f| secs(fig17, "FarmMPP", f) <= secs(fig17, "FarmRMI", f) * 1.05);
    notes.push(format!("fig17: FarmMPP <= FarmRMI at every point (±5%) {}", verdict(mpp_wins)));

    // Figure 17: the dynamic farm tracks the static one. The paper's "small
    // improvement" needs load imbalance, which the sieve lacks.
    let drmi = FILTER_COUNTS.map(|f| secs(fig17, "FarmDRMI", f) / secs(fig17, "FarmRMI", f));
    let worst = drmi.iter().copied().fold(f64::NAN, f64::max);
    notes.push(format!(
        "fig17: FarmDRMI within 1.1x of FarmRMI at every point (worst {worst:.2}x) {}",
        verdict(drmi.iter().all(|r| *r <= 1.1))
    ));

    // Figure 17: FarmThreads plateaus at the single node's core count —
    // "this version cannot take advantage of more than 4 filters". The
    // plateau is the 4-core work bound; distributed farms break through it.
    let t1 = secs(fig17, "FarmThreads", 1);
    let t4 = secs(fig17, "FarmThreads", 4);
    let t16 = secs(fig17, "FarmThreads", 16);
    notes.push(format!(
        "fig17: FarmThreads plateaus at one node's cores ({t1:.2}s @1, {t4:.2}s @4, {t16:.2}s @16) {}",
        verdict(t1 / t4 > 2.0 && t4 / t16 < 1.3)
    ));

    // Figure 17: distributed farms keep improving where FarmThreads cannot.
    let mpp16 = secs(fig17, "FarmMPP", 16);
    notes.push(format!(
        "fig17: distributed farm beats the shared-memory plateau at 16 filters {}",
        verdict(mpp16 < t16 * 0.8 && mpp16 < secs(fig17, "FarmMPP", 4))
    ));

    notes
}

/// Regenerate and print the whole evaluation for primes ≤ `max` in `packs`
/// packs (the paper: 10 million in 50; the pack count is the communication
/// structure, `max` only scales the work).
pub fn run(max: u64, packs: usize) -> WeaveResult<()> {
    // §6: "presented values are median of five executions". The CPU speed
    // comes from the filter work the traces are normalised to, so that a
    // one-filter replay sits at the paper's sequential time.
    let filter_work = measure_filter_work(max, 5);
    let host = Calibration {
        cpu_speed: calibrate_cpu_speed(filter_work),
        inflation: measure_weaving_inflation(max, 5)?,
        filter_work,
    };
    println!(
        "workload: primes <= {max} ({} primes), {packs} packs\n\
         local filtering work: {:?}  (calibrated to the paper's {PAPER_SEQUENTIAL_SECONDS:.1}s Xeon run)\n\
         measured weaving inflation: {:.4}x\n",
        sequential_sieve(max).len(),
        host.filter_work,
        host.inflation,
    );

    let fig16 = figure16(max, packs, &host)?;
    println!(
        "{}",
        render_points(
            "Figure 16 — Java (hand-coded RMI) vs AspectJ (woven), pipeline, simulated seconds",
            &fig16,
        )
    );

    let fig17 = figure17(max, packs, &host)?;
    println!("{}", render_points("Figure 17 — module combinations, simulated seconds", &fig17));
    println!("{}", render_ascii_chart("Figure 17 (chart)", &fig17, 14));

    println!("Table 1 — tested module combinations (validated in-process)");
    println!(
        "{:<13}{:<14}{:<12}{:<13}{:<9}wall (local)",
        "label", "partition", "concurrency", "distribution", "correct"
    );
    for row in table1(200_000)? {
        println!(
            "{:<13}{:<14}{:<12}{:<13}{:<9}{:?}",
            row.label,
            row.partition,
            row.concurrency,
            row.distribution,
            if row.correct { "yes" } else { "NO" },
            row.wall,
        );
    }

    println!("\nDegradation — FarmRMI (4 filters), worker nodes killed 30% into the run");
    println!("{:<8}{:<12}{:<14}{:<14}messages", "killed", "makespan", "throughput", "redispatched");
    for row in degradation(max, packs, 4, 2)? {
        println!(
            "{:<8}{:<12}{:<14}{:<14}{}",
            row.killed,
            format!("{:.2}s", row.makespan),
            format!("{:.2}x", row.relative_throughput),
            row.redispatched,
            row.messages,
        );
    }

    println!("\nShape checks against the paper's findings:");
    for note in shape_checks(&fig16, &fig17) {
        println!("  {note}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: u64 = 50_000;

    fn line(series: &'static str, seconds: [f64; 6]) -> Vec<FigurePoint> {
        std::iter::zip(FILTER_COUNTS, seconds)
            .map(|(filters, seconds)| FigurePoint { series, filters, seconds })
            .collect()
    }

    #[test]
    fn calibration_math() {
        assert!((calibrate_cpu_speed(Duration::from_secs_f64(6.3)) - 1.0).abs() < 1e-12);
        assert!((calibrate_cpu_speed(Duration::from_secs_f64(0.63)) - 0.1).abs() < 1e-12);
        // The speed comes from the filter work the traces are normalised to,
        // so whatever that work measures, a one-filter pipeline replays at
        // the paper's sequential time. Modelled costs keep this off the
        // clock; their 1 ms construction is the only other work.
        let config = SieveConfig { packs: 8, ..SieveConfig::pipe_rmi(1) };
        for work in [Duration::from_millis(100), Duration::from_secs(2)] {
            let mut trace = capture_modelled(config, SMALL).unwrap();
            normalise_filter_costs(&mut trace, work);
            let seconds = replay(&trace, "PipeRMI", calibrate_cpu_speed(work), 1.0);
            let off = seconds / PAPER_SEQUENTIAL_SECONDS - 1.0;
            assert!(off.abs() < 0.03, "{work:?} of filter work replays at {seconds} s");
        }
    }

    #[test]
    fn captured_traces_have_expected_shape() {
        let filter_tasks = |config: SieveConfig| {
            let trace =
                capture(SieveConfig { packs: 8, ..config }, SMALL, Recorder::measuring()).unwrap();
            trace.tasks.iter().filter(|t| t.signature.method == "filter").count()
        };
        assert_eq!(filter_tasks(SieveConfig::farm_threads(4)), 8);
        assert_eq!(filter_tasks(SieveConfig::pipe_rmi(4)), 8 * 4, "each pack crosses each stage");
    }

    #[test]
    fn weaving_inflation_is_small_and_positive() {
        // No bound on the ratio: sibling tests pre-empt this one, and how
        // small the penalty is on a quiet host is what the benchmark's
        // `sieve_coarse · woven_over_reference` reports. Here: woven and
        // direct output agree (asserted inside) and the ratio is a ratio.
        let inflation = measure_weaving_inflation(SMALL, 5).unwrap();
        assert!(inflation.is_finite() && inflation > 0.0, "nonsensical inflation {inflation}");
    }

    #[test]
    fn normalised_filter_costs_sum_to_the_target() {
        let config = SieveConfig { packs: 8, ..SieveConfig::farm_threads(4) };
        let trace = capture_measured(config, SMALL, Duration::from_secs(1)).unwrap();
        let filtering: f64 = trace
            .tasks
            .iter()
            .filter(|t| t.signature.method == "filter")
            .map(|t| t.cost.as_secs_f64())
            .sum();
        assert!((filtering - 1.0).abs() < 1e-6, "filter costs sum to {filtering} s");
    }

    #[test]
    fn farm_beats_pipeline_in_replay() {
        // The paper: "The farm strategy is better than a pipeline partition
        // strategy in all cases." Modelled (deterministic) costs keep this
        // regression test independent of test-suite load; only the captured
        // *structure* varies, and that is what is under test.
        let pipe =
            capture_modelled(SieveConfig { packs: 8, ..SieveConfig::pipe_rmi(7) }, SMALL).unwrap();
        let farm =
            capture_modelled(SieveConfig { packs: 8, ..SieveConfig::farm_rmi(7) }, SMALL).unwrap();
        let pipe_t = replay(&pipe, "PipeRMI", 1.0, 1.0);
        let farm_t = replay(&farm, "FarmRMI", 1.0, 1.0);
        assert!(farm_t < pipe_t, "farm {farm_t} should beat pipeline {pipe_t}");
    }

    #[test]
    fn mpp_no_slower_than_rmi_on_the_same_farm_trace() {
        let trace =
            capture_modelled(SieveConfig { packs: 8, ..SieveConfig::farm_mpp(7) }, SMALL).unwrap();
        let mpp = replay(&trace, "FarmMPP", 1.0, 1.0);
        let rmi = replay(&trace, "FarmRMI", 1.0, 1.0);
        assert!(mpp <= rmi * 1.001, "MPP {mpp} vs RMI {rmi}");
    }

    #[test]
    fn degradation_table_slows_but_completes() {
        let rows = degradation(SMALL, 8, 4, 2).unwrap();
        assert_eq!(rows.len(), 3);
        assert!((rows[0].relative_throughput - 1.0).abs() < 1e-9, "{rows:?}");
        assert_eq!(rows[0].redispatched, 0, "{rows:?}");
        // Each kill re-dispatches work and can only cost time, never data.
        for pair in rows.windows(2) {
            assert!(pair[1].makespan >= pair[0].makespan - 1e-9, "{rows:?}");
            assert!(pair[1].redispatched >= pair[0].redispatched, "{rows:?}");
        }
        assert!(rows[1].redispatched >= 1, "killing a worker node must orphan tasks: {rows:?}");
        assert!(rows[2].relative_throughput <= rows[1].relative_throughput + 1e-9, "{rows:?}");
    }

    #[test]
    fn table1_rows_validate() {
        let rows = table1(5_000).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.correct), "{rows:?}");
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["FarmThreads", "PipeRMI", "FarmRMI", "FarmDRMI", "FarmMPP"]);
    }

    #[test]
    fn ascii_chart_places_markers() {
        let points =
            [line("A", FILTER_COUNTS.map(|f| 6.0 / f as f64)), line("B", [3.0; 6])].concat();
        let chart = render_ascii_chart("demo", &points, 10);
        assert!(chart.contains("demo"));
        assert!(chart.contains("o = A"));
        assert!(chart.contains("x = B"));
        assert!(chart.matches('o').count() >= FILTER_COUNTS.len());
        // Axis labels include the filter counts.
        assert!(chart.contains("16"));
    }

    #[test]
    fn ascii_chart_empty_input() {
        assert!(render_ascii_chart("t", &[], 8).contains("no data"));
    }

    #[test]
    fn render_points_formats_a_matrix() {
        let points = vec![
            FigurePoint { series: "A", filters: 1, seconds: 1.5 },
            FigurePoint { series: "A", filters: 4, seconds: 0.5 },
        ];
        let text = render_points("demo", &points);
        assert!(text.contains("demo"));
        assert!(text.contains("1.50s"));
        assert!(text.contains('-'), "missing cells render as dashes");
    }

    #[test]
    fn shape_checks_judge_each_finding() {
        let fig16 = [
            line("Java", [6.0, 3.0, 2.0, 2.0, 2.0, 2.0]),
            line("AspectJ", [6.1, 3.0, 2.0, 2.0, 2.0, 2.0]),
        ];
        let fig17 = [
            line("FarmThreads", [6.0, 1.6, 1.5, 1.5, 1.5, 1.5]),
            line("FarmRMI", [6.0, 1.7, 1.1, 0.9, 0.8, 0.8]),
            line("FarmMPP", [6.0, 1.6, 1.0, 0.8, 0.7, 0.7]),
            line("PipeRMI", [6.0, 2.6, 1.9, 1.9, 2.1, 2.2]),
            line("FarmDRMI", [6.1, 1.7, 1.1, 0.95, 0.85, 0.85]),
        ]
        .concat();
        let notes = shape_checks(&fig16.concat(), &fig17);
        assert_eq!(notes.len(), 6);
        assert!(notes.iter().all(|n| n.ends_with("— holds")), "{notes:#?}");
        // A woven pipeline 10% behind the hand-coded one breaks the first
        // finding and no other.
        let slow = [line("Java", [6.0; 6]), line("AspectJ", [6.6; 6])].concat();
        let notes = shape_checks(&slow, &fig17);
        assert!(notes[0].ends_with("— VIOLATED"), "{notes:#?}");
        assert!(notes[1..].iter().all(|n| n.ends_with("— holds")), "{notes:#?}");
    }
}
