//! Heat diffusion on the heartbeat protocol: block partition with
//! per-iteration boundary exchange (the third strategy category of the
//! paper's conclusion).
//!
//! Run with: `cargo run --release --example heat_heartbeat`

use std::time::{Duration, Instant};

use weavepar_apps::heat::{solve_heartbeat, solve_heartbeat_concurrent, solve_sequential};

fn best_of_five(run: impl Fn()) -> Duration {
    let timed = || {
        let start = Instant::now();
        run();
        start.elapsed()
    };
    (0..5).map(|_| timed()).min().expect("five runs")
}

fn main() {
    let (len, iterations) = (60u64, 4_000u64);
    let (left, right) = (100.0, 0.0);

    let reference = solve_sequential(len, 0.0, left, right, iterations);
    println!(
        "sequential steady profile (first/last): {:.2} / {:.2}",
        reference[0],
        reference[len as usize - 1]
    );

    for workers in [1usize, 2, 4, 6] {
        let got =
            solve_heartbeat(len, 0.0, left, right, iterations, workers).expect("heartbeat failed");
        let max_err = got.iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        println!("heartbeat, {workers} block(s): max deviation from sequential = {max_err:.2e}");
    }

    let got = solve_heartbeat_concurrent(len, 0.0, left, right, iterations, 4)
        .expect("concurrent heartbeat failed");
    let max_err = got.iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!("heartbeat + concurrency: max deviation = {max_err:.2e}");

    // The paper's Fig. 16 question for this skeleton: what does the weaving
    // cost? Two blocks on one thread, and a kernel small enough for the six
    // join points per iteration to show (the benchmark's `heat_sync` shape).
    let (cells, steps) = (512u64, 20_000u64);
    let sequential = best_of_five(|| drop(solve_sequential(cells, 0.0, left, right, steps)));
    let woven = best_of_five(|| drop(solve_heartbeat(cells, 0.0, left, right, steps, 2)));
    println!(
        "\n{cells} cells × {steps} iterations, 2 blocks: woven {:.1} ms ÷ sequential {:.1} ms = {:.2}",
        woven.as_secs_f64() * 1e3,
        sequential.as_secs_f64() * 1e3,
        woven.as_secs_f64() / sequential.as_secs_f64()
    );

    // A small temperature plot.
    println!("\ntemperature profile (▉ = 4 degrees):");
    for (i, v) in reference.iter().enumerate().step_by(4) {
        let bars = (*v / 4.0).round() as usize;
        println!("cell {i:>2}: {}", "▉".repeat(bars));
    }
}
