//! # weavepar-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's §6 evaluation:
//!
//! * **Figure 16** — hand-coded "Java" RMI pipeline vs the woven "AspectJ"
//!   version, execution time over 1..16 filters;
//! * **Figure 17** — PipeRMI / FarmThreads / FarmRMI / FarmDRMI / FarmMPP
//!   over 1..16 filters;
//! * **Table 1** — the module combinations, re-validated for correctness.
//!
//! ## Method
//!
//! The paper ran on 7 dual-Xeon nodes we do not have. The harness therefore:
//!
//! 1. **runs the real woven application in-process** with a trace recorder,
//!    capturing the genuine task DAG (pack counts, forwarding chains,
//!    asynchrony, message sizes, measured CPU costs);
//! 2. **measures** the weaving dispatch overhead (woven vs direct calls on
//!    this machine) — the quantity Figure 16 isolates;
//! 3. **replays** the trace on `weavepar-cluster`'s model of the paper's
//!    testbed, with CPU speed calibrated so the one-filter sequential run
//!    matches the paper's ≈6.3 s.
//!
//! Absolute seconds are therefore calibrated, but every *shape* — who wins,
//! scaling limits, middleware orderings — emerges from the replayed
//! structure of real executions.

use std::time::{Duration, Instant};

use weavepar::cluster::{
    simulate, simulate_with_faults, FaultTimeline, MiddlewareProfile, SimParams, SimReport,
};
use weavepar::prelude::*;
use weavepar::weave::trace::{Recorder, TraceGraph};
use weavepar_apps::sieve::{
    build_sieve, candidates, isqrt, run_sieve, sequential_sieve, PrimeFilter, PrimeFilterProxy,
    SieveConfig,
};

/// The paper's sequential execution time at one filter (read off Figure 16),
/// used to calibrate simulated CPU speed.
pub const PAPER_SEQUENTIAL_SECONDS: f64 = 6.3;

/// The paper's workload: primes up to 10 million in 50 packs. The harness
/// scales `max` down (default 2 million) to keep regeneration quick; pack
/// count stays at 50 so the communication structure is identical.
pub fn default_max() -> u64 {
    std::env::var("WEAVEPAR_MAX").ok().and_then(|v| v.parse().ok()).unwrap_or(2_000_000)
}

/// The figures' x-axis.
pub const FILTER_COUNTS: [usize; 6] = [1, 4, 7, 10, 13, 16];

/// One point of a figure: a variant at a filter count.
#[derive(Debug, Clone)]
pub struct FigurePoint {
    /// Series label (e.g. `FarmRMI`).
    pub series: String,
    /// Number of filters.
    pub filters: usize,
    /// Simulated execution time on the paper cluster, seconds.
    pub seconds: f64,
    /// Cross-node messages in the replay.
    pub messages: usize,
}

/// Measure the wall-clock of one closure.
fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Run the sequential sieve and return (primes, wall time).
pub fn measure_sequential(max: u64) -> (Vec<u64>, Duration) {
    time(|| sequential_sieve(max))
}

/// CPU-speed factor that maps this machine's measured costs onto the paper's
/// Xeon: `local seconds / paper seconds`.
pub fn calibrate_cpu_speed(local_sequential: Duration) -> f64 {
    (local_sequential.as_secs_f64() / PAPER_SEQUENTIAL_SECONDS).max(1e-9)
}

/// Run a sieve configuration in-process (threads only — distribution costs
/// are applied during replay) and capture its trace.
///
/// Per-task costs are wall-clock measurements taken under real thread
/// oversubscription (50 packs race on this machine's few cores), which
/// inflates them nonuniformly. [`normalize_costs`] rescales the filter tasks
/// so their total equals a contention-free sequential measurement of the same
/// workload; the *relative* per-task pattern (heavy early pipeline stages,
/// uniform farm packs) is preserved from the measurement.
pub fn capture_trace(config: SieveConfig, max: u64) -> WeaveResult<TraceGraph> {
    let local = SieveConfig { middleware: weavepar_apps::sieve::Middleware::None, ..config };
    let run = build_sieve(local);
    let recorder = Recorder::measuring();
    run.stack.weaver().set_recorder(Some(recorder.clone()));
    let primes = run_sieve(&run, max)?;
    run.stack.weaver().set_recorder(None);
    debug_assert_eq!(primes.len(), sequential_sieve(max).len());
    Ok(recorder.finish())
}

/// Rescale the costs of tasks with the given method name so they sum to
/// `target_total` (see [`capture_trace`]).
pub fn normalize_costs(trace: &mut TraceGraph, method: &str, target_total: Duration) {
    let measured: f64 = trace
        .tasks
        .iter()
        .filter(|t| t.signature.method == method)
        .map(|t| t.cost.as_secs_f64())
        .sum();
    if measured <= 0.0 {
        return;
    }
    let scale = target_total.as_secs_f64() / measured;
    for task in &mut trace.tasks {
        if task.signature.method == method {
            task.cost = Duration::from_secs_f64(task.cost.as_secs_f64() * scale);
        }
    }
}

/// Contention-free measurement of the pure filtering work for `max`
/// (the normalisation target for captured traces).
pub fn measure_filter_work(max: u64) -> Duration {
    let mut filter = PrimeFilter::new(2, isqrt(max));
    let cands = Pack::from_vec(candidates(max));
    let (_, elapsed) = time(|| filter.filter(cands));
    elapsed
}

/// Capture a trace and normalise its filter costs (the harness default).
pub fn capture_normalized(
    config: SieveConfig,
    max: u64,
    filter_work: Duration,
) -> WeaveResult<TraceGraph> {
    let mut trace = capture_trace(config, max)?;
    normalize_costs(&mut trace, "filter", filter_work);
    Ok(trace)
}

/// Capture a trace with fully *modelled* (deterministic) costs: `filter`
/// costs 1 µs per candidate, constructions cost 1 ms. Structure comes from
/// the real woven execution; costs are load-independent — what the
/// regression tests compare shapes with.
pub fn capture_modelled(config: SieveConfig, max: u64) -> WeaveResult<TraceGraph> {
    use weavepar::weave::trace::CostModel;
    let model: CostModel = std::sync::Arc::new(|sig: &Signature, args: &Args| {
        if sig.is_construction() {
            return Some(Duration::from_millis(1));
        }
        if sig.method == "filter" {
            let n = args.get::<Pack>(0).map(|p| p.len()).unwrap_or(0);
            return Some(Duration::from_micros(n as u64));
        }
        None
    });
    let local = SieveConfig { middleware: weavepar_apps::sieve::Middleware::None, ..config };
    let run = build_sieve(local);
    let recorder = Recorder::with_cost_model(model);
    run.stack.weaver().set_recorder(Some(recorder.clone()));
    run_sieve(&run, max)?;
    run.stack.weaver().set_recorder(None);
    Ok(recorder.finish())
}

/// Measure the weaving dispatch inflation: the ratio of woven to direct
/// execution time for realistic `filter` packs (Figure 16's "AspectJ minus
/// Java"). Median of `runs` measurements.
pub fn measure_weaving_inflation(max: u64, runs: usize) -> f64 {
    let sqrt = isqrt(max);
    // Pack clones share one allocation, so cloning per run is free.
    let pack: Pack = candidates(max).into_iter().take(100_000).collect();
    let mut ratios = Vec::with_capacity(runs);
    for _ in 0..runs.max(1) {
        // Direct sequential call.
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
        let proxy = PrimeFilterProxy::construct(&weaver, 2, sqrt).expect("construct");
        let (woven_out, woven_time) = time(|| proxy.filter(pack.clone()).expect("woven call"));
        assert_eq!(direct_out, woven_out);
        ratios.push(woven_time.as_secs_f64() / direct_time.as_secs_f64().max(1e-12));
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Simulation parameters for a variant label.
pub fn params_for(label: &str, cpu_speed: f64, cpu_inflation: f64) -> SimParams {
    let mut params = match label {
        "FarmThreads" => SimParams::threads_on_single_node(),
        "FarmMPP" => SimParams::paper_cluster(MiddlewareProfile::mpp()),
        _ => SimParams::paper_cluster(MiddlewareProfile::rmi()),
    };
    params.cluster.cpu_speed = cpu_speed;
    params.cpu_inflation = cpu_inflation;
    params
}

/// Replay a captured trace under a variant's parameters.
pub fn replay(trace: &TraceGraph, label: &str, cpu_speed: f64, cpu_inflation: f64) -> SimReport {
    simulate(trace, &params_for(label, cpu_speed, cpu_inflation))
}

/// Figure 16: hand-coded RMI pipeline ("Java") vs the woven one ("AspectJ").
/// Both replay the same pipeline traces; the AspectJ series carries the
/// measured dispatch inflation, the Java series runs at 1.0.
pub fn figure16(max: u64, packs: usize) -> WeaveResult<Vec<FigurePoint>> {
    let (_, seq) = measure_sequential(max);
    let cpu_speed = calibrate_cpu_speed(seq);
    let inflation = measure_weaving_inflation(max, 5);
    let filter_work = measure_filter_work(max);
    let mut points = Vec::new();
    for filters in FILTER_COUNTS {
        let trace = capture_normalized(
            SieveConfig { packs, ..SieveConfig::pipe_rmi(filters) },
            max,
            filter_work,
        )?;
        for (series, infl) in [("Java", 1.0), ("AspectJ", inflation)] {
            let report = replay(&trace, "PipeRMI", cpu_speed, infl);
            points.push(FigurePoint {
                series: series.to_string(),
                filters,
                seconds: report.makespan,
                messages: report.messages,
            });
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
pub fn figure17(max: u64, packs: usize) -> WeaveResult<Vec<FigurePoint>> {
    let (_, seq) = measure_sequential(max);
    let cpu_speed = calibrate_cpu_speed(seq);
    let inflation = measure_weaving_inflation(max, 5);
    let filter_work = measure_filter_work(max);
    let mut points = Vec::new();
    let mut push = |label: &str, filters: usize, trace: &TraceGraph| {
        let report = replay(trace, label, cpu_speed, inflation);
        points.push(FigurePoint {
            series: label.to_string(),
            filters,
            seconds: report.makespan,
            messages: report.messages,
        });
    };
    for filters in FILTER_COUNTS {
        let farm = capture_normalized(
            SieveConfig { packs, ..SieveConfig::farm_rmi(filters) },
            max,
            filter_work,
        )?;
        push("FarmThreads", filters, &farm);
        push("FarmRMI", filters, &farm);
        push("FarmMPP", filters, &farm);

        let pipe = capture_normalized(
            SieveConfig { packs, ..SieveConfig::pipe_rmi(filters) },
            max,
            filter_work,
        )?;
        push("PipeRMI", filters, &pipe);

        let dynamic = capture_normalized(
            SieveConfig { packs, ..SieveConfig::farm_drmi(filters) },
            max,
            filter_work,
        )?;
        push("FarmDRMI", filters, &dynamic);
    }
    Ok(points)
}

/// One row of the fault-degradation table: the same farm replay with
/// `killed` worker nodes crashing mid-run.
#[derive(Debug, Clone)]
pub struct DegradationRow {
    /// Worker nodes killed mid-run.
    pub killed: usize,
    /// Simulated end-to-end seconds.
    pub makespan: f64,
    /// Throughput relative to the undisturbed run (`baseline / makespan`).
    pub relative_throughput: f64,
    /// Tasks re-dispatched to surviving nodes.
    pub redispatched: usize,
    /// Cross-node messages (re-dispatches pay a fresh argument shipment).
    pub messages: usize,
}

/// The farm-under-failure degradation table: replay one captured FarmRMI
/// trace on the paper cluster, killing `0..=kills` worker nodes 30% into
/// the faithful makespan (detection + recovery cost 50 ms per re-dispatch).
/// Modelled costs keep the table deterministic: the only thing that varies
/// across rows is the fault timeline.
pub fn degradation(
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
pub struct Table1Row {
    /// Combination label.
    pub label: String,
    /// Partition column.
    pub partition: &'static str,
    /// Concurrency column.
    pub concurrency: &'static str,
    /// Distribution column.
    pub distribution: &'static str,
    /// Output equals the sequential sieve?
    pub correct: bool,
    /// Real in-process wall time at the validation size.
    pub wall: Duration,
}

/// Regenerate Table 1: assemble each combination for real (including the
/// in-process distribution fabric), check correctness, record wall time.
/// One Table 1 combination: config builder plus display columns.
type Table1Combo = (fn(usize) -> SieveConfig, &'static str, &'static str, &'static str);

pub fn table1(max: u64) -> WeaveResult<Vec<Table1Row>> {
    let reference = sequential_sieve(max);
    let combos: [Table1Combo; 5] = [
        (SieveConfig::farm_threads, "Farm", "Yes", "No"),
        (SieveConfig::pipe_rmi, "Pipeline", "Yes", "RMI"),
        (SieveConfig::farm_rmi, "Farm", "Yes", "RMI"),
        (SieveConfig::farm_drmi, "Dynamic Farm", "(merged)", "RMI"),
        (SieveConfig::farm_mpp, "Farm", "Yes", "MPP"),
    ];
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

/// Render figure points as aligned text columns (series × filters matrix).
pub fn render_points(title: &str, points: &[FigurePoint]) -> String {
    use std::fmt::Write;
    let mut series: Vec<String> = Vec::new();
    for p in points {
        if !series.contains(&p.series) {
            series.push(p.series.clone());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<13}", "filters");
    for f in FILTER_COUNTS {
        let _ = write!(out, "{f:>9}");
    }
    let _ = writeln!(out);
    for s in &series {
        let _ = write!(out, "{s:<13}");
        for f in FILTER_COUNTS {
            match points.iter().find(|p| &p.series == s && p.filters == f) {
                Some(p) => {
                    let _ = write!(out, "{:>8.2}s", p.seconds);
                }
                None => {
                    let _ = write!(out, "{:>9}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Render figure points as an ASCII line chart (series × filters), the
/// visual counterpart of the paper's plots: y = seconds, x = filter count,
/// one marker per series.
pub fn render_ascii_chart(title: &str, points: &[FigurePoint], height: usize) -> String {
    use std::fmt::Write;
    const MARKS: [char; 6] = ['o', 'x', '+', '*', '#', '@'];
    let mut series: Vec<String> = Vec::new();
    for p in points {
        if !series.contains(&p.series) {
            series.push(p.series.clone());
        }
    }
    let max_y = points.iter().map(|p| p.seconds).fold(0.0f64, f64::max);
    if max_y <= 0.0 || series.is_empty() {
        return format!(
            "{title}
(no data)
"
        );
    }
    let height = height.max(4);
    let columns = FILTER_COUNTS.len();
    let col_width = 9;
    let mut grid = vec![vec![' '; columns * col_width]; height];
    for (si, s) in series.iter().enumerate() {
        for (ci, f) in FILTER_COUNTS.iter().enumerate() {
            if let Some(p) = points.iter().find(|p| &p.series == s && p.filters == *f) {
                let row = ((1.0 - p.seconds / max_y) * (height - 1) as f64).round() as usize;
                let col = ci * col_width + col_width / 2;
                let cell = &mut grid[row.min(height - 1)][col + si.min(col_width - 2)];
                *cell = MARKS[si % MARKS.len()];
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
    let _ = write!(out, "        +");
    for _ in 0..columns {
        let _ = write!(out, "{:-<col_width$}", "-");
    }
    let _ = writeln!(out);
    let _ = write!(out, "         ");
    for f in FILTER_COUNTS {
        let _ = write!(out, "{f:^col_width$}");
    }
    let _ = writeln!(out);
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "         {} = {s}", MARKS[si % MARKS.len()]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: u64 = 50_000;

    #[test]
    fn calibration_math() {
        assert!((calibrate_cpu_speed(Duration::from_secs_f64(6.3)) - 1.0).abs() < 1e-12);
        assert!((calibrate_cpu_speed(Duration::from_secs_f64(0.63)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn captured_traces_have_expected_shape() {
        let farm =
            capture_trace(SieveConfig { packs: 8, ..SieveConfig::farm_threads(4) }, SMALL).unwrap();
        let filters = farm.tasks.iter().filter(|t| t.signature.method == "filter").count();
        assert_eq!(filters, 8);

        let pipe =
            capture_trace(SieveConfig { packs: 8, ..SieveConfig::pipe_rmi(4) }, SMALL).unwrap();
        let filters = pipe.tasks.iter().filter(|t| t.signature.method == "filter").count();
        assert_eq!(filters, 8 * 4, "each pack crosses each stage");
    }

    #[test]
    fn weaving_inflation_is_small_and_positive() {
        // A median of many short runs: sibling tests pre-empt this one, and
        // two slow samples out of three used to be enough to fail the bound.
        let inflation = measure_weaving_inflation(SMALL, 25);
        assert!(inflation > 0.5, "nonsensical inflation {inflation}");
        assert!(inflation < 2.0, "weaving should not double execution time: {inflation}");
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
        let pipe_t = replay(&pipe, "PipeRMI", 1.0, 1.0).makespan;
        let farm_t = replay(&farm, "FarmRMI", 1.0, 1.0).makespan;
        assert!(farm_t < pipe_t, "farm {farm_t} should beat pipeline {pipe_t}");
    }

    #[test]
    fn mpp_no_slower_than_rmi_on_the_same_farm_trace() {
        let trace =
            capture_modelled(SieveConfig { packs: 8, ..SieveConfig::farm_mpp(7) }, SMALL).unwrap();
        let mpp = replay(&trace, "FarmMPP", 1.0, 1.0).makespan;
        let rmi = replay(&trace, "FarmRMI", 1.0, 1.0).makespan;
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
        let points: Vec<FigurePoint> = FILTER_COUNTS
            .iter()
            .map(|&f| FigurePoint {
                series: "A".into(),
                filters: f,
                seconds: 6.0 / f as f64,
                messages: 0,
            })
            .chain(FILTER_COUNTS.iter().map(|&f| FigurePoint {
                series: "B".into(),
                filters: f,
                seconds: 3.0,
                messages: 0,
            }))
            .collect();
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
            FigurePoint { series: "A".into(), filters: 1, seconds: 1.5, messages: 0 },
            FigurePoint { series: "A".into(), filters: 4, seconds: 0.5, messages: 2 },
        ];
        let text = render_points("demo", &points);
        assert!(text.contains("demo"));
        assert!(text.contains("1.50s"));
        assert!(text.contains('-'), "missing cells render as dashes");
    }
}
