//! The repo's benchmark: one workload per invocation.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and reports the end-to-end metrics;
//! `--trace 1` is the separate traced run and reports the per-layer metrics.
//! Every metric is printed by name with its unit and sample count, and the
//! last line of standard output is the result as one JSON object. The exit
//! code is 0 only when a result was printed and every output validated; a run
//! or an output that fails validation is counted in `failed`, makes `correct`
//! false and the exit code 3.

mod alloc;
mod api;
mod confine;
mod metrics;
mod rng;
mod spans;
mod stats;
mod timing;
mod workload;

use std::io::Write;
use std::process::{Command, ExitCode};
use std::time::Duration;

use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use spans::{Layer, BOUNDARIES, LAYERS};
use timing::{Budget, Calibrated, Sample, NOMINAL_CALIBRATION_MS};
use workload::{nproc, Plan, Sizes, COUNT_METRICS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: Option<usize>,
    trace_out: Option<String>,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
                 [--reps <n>] [--trace-out <file>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        reps: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => o.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--reps" => o.reps = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is neither 0 nor 1")),
                }
            }
            "--trace-out" => o.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == o.workload) {
        return Err(format!("--workload: `{}` is not one of the workloads", o.workload));
    }
    if !(o.seconds > 0.0 && o.seconds <= 60.0) {
        return Err(format!("--seconds: {} is outside (0, 60]", o.seconds));
    }
    if o.reps == Some(0) {
        return Err("--reps: at least 1".into());
    }
    Ok(o)
}

/// First line of a command's output, or "unknown".
fn first_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The `env` block: what a reader needs to know before comparing this run
/// with another.
fn print_env(o: &Options, sizes: &Sizes, threads: usize) {
    let cwd = std::env::current_dir().unwrap_or_default();
    // Look for a repository in the working directory only, not above it.
    let git = first_line(
        Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd)),
    );
    println!(
        "env: nproc={} threads={threads} confined={} profile={} rustc=\"{}\" git={git} seed={} seconds={} reps={} sizes={sizes:?}",
        nproc(),
        if o.workload == "remote_sync" { "one-cpu" } else { "no" },
        if cfg!(debug_assertions) { "debug" } else { "release" },
        first_line(Command::new("rustc").arg("-V")),
        o.seed,
        o.seconds,
        o.reps.map_or("by-time".into(), |n| n.to_string()),
    );
}

type Row = (&'static str, Sample);

/// A declared metric, as the report prints it.
struct Declared {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: Option<f64>,
    /// An end-to-end metric's definition; which end-to-end metric a per-layer
    /// metric should move, on which workload.
    note: &'static str,
}

/// The result line, and whether every output validated.
struct Report {
    line: String,
    correct: bool,
}

fn run(o: &Options, sizes: Sizes) -> Result<Report, String> {
    let plan = Plan {
        seed: o.seed,
        seconds: o.seconds,
        reps: o.reps,
        warmups: 2,
        sizes,
        keep_raw_spans: o.trace_out.is_some(),
    };
    if o.trace {
        run_traced(o, &plan)
    } else {
        run_end_to_end(o, &plan)
    }
}

/// Print the rows and return the result line. Every declared metric must be
/// there exactly once, with a finite value.
fn report(
    rows: &[Row],
    declared: &[Declared],
    attempted: u64,
    failed: u64,
) -> Result<Report, String> {
    println!(
        "{:<50} {:>16} {:<6} {:>8} {:>6} {:<6} note",
        "metric", "value", "unit", "samples", "bound", "better"
    );
    let mut fields = Vec::new();
    for Declared { name, unit, better, bound, note } in declared {
        let mut found = rows.iter().filter(|(n, _)| n == name);
        let (_, sample) = found.next().ok_or(format!("metric {name} was not measured"))?;
        if found.next().is_some() {
            return Err(format!("metric {name} was measured twice"));
        }
        if !sample.value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        println!(
            "{name:<50} {:>16.6} {unit:<6} {:>8} {:>6} {better:<6} {note}",
            sample.value,
            sample.samples,
            bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
        );
        fields.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", sample.value));
    }
    let correct = failed == 0;
    println!(
        "failed_share {:.6} ({failed} of {attempted} repetitions failed or gave a wrong output; not declared: a declared metric may never read 0)",
        failed as f64 / attempted.max(1) as f64
    );
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(Report { line, correct })
}

fn run_end_to_end(o: &Options, plan: &Plan) -> Result<Report, String> {
    let e = api::end_to_end(&o.workload, plan)?;
    print_env(o, &plan.sizes, e.threads);
    if e.woven_ms.is_empty() {
        return Err(format!("all {} repetitions failed", e.attempted));
    }
    let n = e.woven_ms.len();
    let raw = |times: &[Calibrated]| times.iter().map(|t| t.raw_ms).collect::<Vec<f64>>();
    let nominal = |times: &[Calibrated]| times.iter().map(Calibrated::ms).collect::<Vec<f64>>();
    let (woven_raw, woven) = (raw(&e.woven_ms), nominal(&e.woven_ms));
    println!(
        "{n} woven and {n} reference runs, interleaved; {}",
        match stats::highest_percentile_with(n, 10) {
            Some(p) => format!("highest percentile with 10 runs beyond it: p{p}"),
            None => "fewer than 20 runs: no percentile has 10 runs beyond it".into(),
        }
    );
    let (q1, q2, q3) = stats::quartiles(&woven_raw);
    println!(
        "as measured: woven quartiles {q1:.3} {q2:.3} {q3:.3} ms, MAD {:.3} ms; reference median {:.3} ms; set-up median {:.6} s",
        stats::mad(&woven_raw),
        stats::median(&e.reference_ms),
        stats::median(&raw(&e.setup_ms)) / 1e3,
    );
    let (q1, q2, q3) = stats::quartiles(&e.woven_ms.iter().map(|t| t.speed).collect::<Vec<f64>>());
    println!(
        "host speed next to the woven runs (nominal {NOMINAL_CALIBRATION_MS} ms over the calibration loop's time): quartiles {q1:.3} {q2:.3} {q3:.3}"
    );
    let ratios: Vec<f64> = woven_raw.iter().zip(&e.reference_ms).map(|(w, r)| w / r).collect();
    let setup_s: Vec<f64> = e.setup_ms.iter().map(|t| t.ms() / 1e3).collect();
    let rows = [
        ("wall_ms_p50", Sample { value: stats::median(&woven), samples: n }),
        ("wall_ms_p75", Sample { value: stats::quantile(&woven, 0.75), samples: n }),
        ("woven_over_reference", Sample { value: stats::median(&ratios), samples: n }),
        ("setup_s", Sample { value: stats::median(&setup_s), samples: setup_s.len() }),
    ];
    let declared: Vec<_> = END_TO_END
        .iter()
        .map(|m| Declared {
            name: m.name,
            unit: m.unit,
            better: m.better,
            bound: Some(m.bound),
            note: m.what,
        })
        .collect();
    report(&rows, &declared, e.attempted, e.failed)
}

fn run_traced(o: &Options, plan: &Plan) -> Result<Report, String> {
    let t = api::traced(&o.workload, plan)?;
    print_env(o, &plan.sizes, t.threads);
    let reps = t.traced_ms.len();
    if reps == 0 || t.untraced_ms.is_empty() {
        return Err(format!("all {} repetitions failed", t.attempted));
    }
    if let Some(path) = &o.trace_out {
        write_spans(path, &o.workload, t.body).map_err(|e| format!("{path}: {e}"))?;
    }
    let per_rep = |ns: u64| Sample { value: ns as f64 / 1e6 / reps as f64, samples: reps };
    let count = |n: u64| Sample { value: n as f64 / reps as f64, samples: reps };
    let self_ms = |layer| per_rep(t.totals.busy_ns(layer, t.body));
    let mut rows: Vec<Row> = vec![
        ("weave.self_ms", self_ms(Layer::Weave)),
        ("skeletons.self_ms", self_ms(Layer::Skeletons)),
        ("concurrency.self_ms", self_ms(Layer::Concurrency)),
        ("middleware.self_ms", self_ms(Layer::Middleware)),
        ("apps.self_ms", self_ms(Layer::Apps)),
        ("bench.self_ms", self_ms(Layer::Bench)),
        ("trace.wait_ms", per_rep(t.totals.waited_ns())),
        ("trace.covered_ms", per_rep(t.totals.covered_ns)),
        ("weave.joinpoints", count(t.totals.joinpoints)),
        ("concurrency.tasks", count(t.totals.spans(spans::Boundary::Async))),
        ("trace.reps", Sample::exact(reps as f64)),
    ];
    rows.extend(COUNT_METRICS.iter().zip(t.counts.0).map(|(name, n)| (*name, count(n))));
    let traced_p50 = stats::median(&t.traced_ms);
    rows.push((
        "trace.overhead_ratio",
        Sample { value: stats::ratio_of_medians(&t.traced_ms, &t.untraced_ms), samples: reps },
    ));

    // The parts must add up: to the span-covered thread time, and where one
    // thread does all the work that is the traced wall-clock itself.
    let attributed_ms = per_rep(t.totals.attributed_ns()).value;
    let (against, target_ms) = if t.clock == spans::Clock::Wall {
        ("traced median wall-clock", traced_p50)
    } else {
        ("span-covered thread time", per_rep(t.totals.covered_ns).value)
    };
    let unreconciled = (attributed_ms - target_ms).abs() / target_ms;
    rows.push(("trace.unreconciled_share", Sample { value: unreconciled, samples: reps }));
    println!(
        "layers, per traced run ({reps} runs, {:?} clock, innermost spans count as {}): {} against {against} {target_ms:.3} ms",
        t.clock,
        t.body.name(),
        if unreconciled <= 0.10 {
            format!("reconciled within {:.1}%", unreconciled * 100.0)
        } else {
            format!("UNRECONCILED, {:.1}% missing", unreconciled * 100.0)
        }
    );
    for layer in LAYERS {
        let busy = t.totals.busy_ns(layer, t.body);
        println!(
            "  {:<12} {:>10.3} ms {:>5.1}%",
            layer.name(),
            per_rep(busy).value,
            100.0 * busy as f64 / t.totals.attributed_ns().max(1) as f64
        );
        let recorded = |b: &&spans::Boundary| {
            b.layer(t.body) == layer
                && (t.totals.spans(**b) > 0 || t.totals.boundary_busy_ns(**b) > 0)
        };
        for b in BOUNDARIES.iter().filter(recorded) {
            println!(
                "    {:<14} {:>10.3} ms {:>9.0} spans",
                b.name(),
                per_rep(t.totals.boundary_busy_ns(*b)).value,
                count(t.totals.spans(*b)).value
            );
        }
    }
    println!("  {:<12} {:>10.3} ms", "waited", per_rep(t.totals.waited_ns()).value);

    let budget = Budget { per_probe: Duration::from_secs_f64(plan.seconds / 3.0 / 50.0) };
    rows.extend(api::probes::run_all(budget, plan.sizes.workers)?);
    let declared: Vec<_> = PER_LAYER
        .iter()
        .map(|m| Declared {
            name: m.name,
            unit: m.unit,
            better: m.better,
            bound: None,
            note: m.moves,
        })
        .collect();
    report(&rows, &declared, t.attempted, t.failed)
}

/// The raw spans as JSON lines.
fn write_spans(path: &str, workload: &str, body: Layer) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans::take_raw() {
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"rep\": {}, \"root\": {}, \"id\": {}, \"parent\": {}, \"boundary\": \"{}\", \"layer\": \"{}\", \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.rep,
            s.root,
            s.id,
            s.parent,
            s.boundary.name(),
            s.boundary.layer(body).name(),
            s.thread,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let why = WORKLOADS.iter().find(|w| w.name == o.workload).map_or("", |w| w.why);
    println!("perfbench workload={} trace={}: {why}", o.workload, u8::from(o.trace));
    match run(&o, Sizes::full()) {
        Ok(Report { line, correct }) => {
            println!("{line}");
            // A failed run or a wrong output is in the result, and in the exit code.
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(3)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", o.workload);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at a tiny size, one repetition, untraced and traced:
    /// outputs validate and every declared metric is emitted exactly once
    /// with a finite value (`report` refuses anything else). No timing is
    /// asserted.
    #[test]
    fn smoke_every_workload_emits_every_metric() {
        let _alone = spans::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for w in &WORKLOADS {
            for trace in [false, true] {
                let o = Options {
                    workload: w.name.into(),
                    seed: 7,
                    seconds: 0.05,
                    trace,
                    reps: Some(1),
                    trace_out: None,
                };
                let Report { line, correct } = run(&o, Sizes::tiny())
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name));
                assert!(correct, "{}: {line}", w.name);
                let declared = if trace { PER_LAYER.len() } else { END_TO_END.len() };
                assert_eq!(line.matches("\"value\": ").count(), declared, "{}", w.name);
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args("--workload sort_dc --seed 9 --seconds 2 --trace 1")).unwrap();
        assert_eq!((o.workload.as_str(), o.seed, o.seconds, o.trace), ("sort_dc", 9, 2.0, true));
        assert!(parse(&args("--workload nope --trace 0")).is_err());
        assert!(parse(&args("--workload sort_dc --trace 2")).is_err());
        assert!(parse(&args("--workload sort_dc --seed x")).is_err());
        assert!(parse(&args("--workload sort_dc --seconds 0")).is_err());
        assert!(parse(&args("--workload sort_dc --reps 0")).is_err());
        assert!(parse(&args("--workload sort_dc --frobnicate")).is_err());
    }
}
